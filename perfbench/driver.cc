/**
 * @file
 * Benchmark driver: runs one workload of the repository benchmark in a
 * single process linked against libbioperf and prints one JSON record
 * on stdout. All timing is taken here, around calls into each layer's
 * public functions; nothing inside the library is instrumented.
 *
 *   perfbench_driver --workload NAME --app-seed N --seconds T
 *                    --trace 0|1 --work-dir DIR [--reference | --count]
 *
 * Untraced (--trace 0) runs give the end-to-end figures. Traced runs
 * spend half the budget untraced and half with spans on (the gap is
 * the tracing overhead), then price each layer in isolation on the
 * workload's own inputs. --reference runs every operation once,
 * untimed, and adds the full-replay cycle counts the sampled
 * workload's error is measured against; --count only reports the
 * instructions the workload's runs execute. make_references.py uses
 * both. perfbench/README.md describes the workloads and metrics.
 */
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.h"
#include "branch/predictors.h"
#include "core/sampling.h"
#include "core/simulator.h"
#include "core/trace_cache.h"
#include "cpu/inorder_core.h"
#include "cpu/ooo_core.h"
#include "cpu/platforms.h"
#include "mem/hierarchy.h"
#include "profile/cache_profiler.h"
#include "profile/instruction_mix.h"
#include "profile/load_branch.h"
#include "profile/load_coverage.h"
#include "util/json.h"
#include "util/status.h"
#include "vm/interpreter.h"
#include "vm/trace_codec.h"

using namespace bioperf;
using util::json::Value;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** FNV-1a, so fingerprints are stable across compilers and hosts. */
std::string
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
timingPrint(uint64_t cycles, uint64_t mispredicts)
{
    return "cycles=" + std::to_string(cycles) +
           ";mispredicts=" + std::to_string(mispredicts);
}

// --- tracing ----------------------------------------------------------

/**
 * In-memory span store. A span is one timed call into a layer: a name,
 * its start and end, the span open around it, and the units of work
 * (instructions, accesses) it processed. Spans stay in memory until
 * exit and are then aggregated per name into counts, total time and
 * self time (total minus the time its child spans cover). Only calls
 * made on the driver's own thread are wrapped.
 */
class Tracer
{
  public:
    uint32_t intern(const std::string &name)
    {
        auto [it, fresh] = ids_.try_emplace(name, names_.size());
        if (fresh) {
            names_.push_back(name);
            work_.push_back(0);
        }
        return it->second;
    }

    /** Opens a span around a block of calls; returns its index. */
    int32_t open(const std::string &name)
    {
        spans_.push_back(
            Span{ intern(name), current_, ns(Clock::now()), 0 });
        current_ = static_cast<int32_t>(spans_.size() - 1);
        return current_;
    }

    void close(int32_t id)
    {
        spans_[id].end = ns(Clock::now());
        current_ = spans_[id].parent;
    }

    /** Records a completed call under the currently open span. */
    void leaf(uint32_t name, Clock::time_point start, Clock::time_point end,
              uint64_t units)
    {
        spans_.push_back(Span{ name, current_, ns(start), ns(end) });
        work_[name] += units;
    }
    void leaf(const std::string &name, Clock::time_point start,
              Clock::time_point end, uint64_t units)
    {
        leaf(intern(name), start, end, units);
    }

    /** Total time of every span called @a name, in seconds. */
    double seconds(const std::string &name) const
    {
        auto it = ids_.find(name);
        if (it == ids_.end())
            return 0.0;
        int64_t total = 0;
        for (const Span &s : spans_)
            if (s.name == it->second)
                total += s.end - s.start;
        return static_cast<double>(total) * 1e-9;
    }

    /** ns per unit of work over every span called @a name; 0 if none. */
    double nsPerUnit(const std::string &name) const
    {
        auto it = ids_.find(name);
        if (it == ids_.end() || work_[it->second] == 0)
            return 0.0;
        return seconds(name) * 1e9 /
               static_cast<double>(work_[it->second]);
    }

    /** Per-name aggregate: calls, units, total and self seconds. */
    Value summary() const
    {
        std::vector<int64_t> total(names_.size(), 0);
        std::vector<int64_t> child(names_.size(), 0);
        std::vector<uint64_t> calls(names_.size(), 0);
        for (const Span &s : spans_) {
            total[s.name] += s.end - s.start;
            calls[s.name]++;
            if (s.parent >= 0)
                child[spans_[s.parent].name] += s.end - s.start;
        }
        Value out = Value::object();
        for (size_t i = 0; i < names_.size(); i++) {
            Value one = Value::object();
            one["calls"] = calls[i];
            one["units"] = work_[i];
            one["total_s"] = static_cast<double>(total[i]) * 1e-9;
            one["self_s"] =
                static_cast<double>(total[i] - child[i]) * 1e-9;
            out[names_[i]] = std::move(one);
        }
        return out;
    }

  private:
    struct Span
    {
        uint32_t name;
        int32_t parent;
        int64_t start;
        int64_t end;
    };

    static int64_t ns(Clock::time_point t)
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t.time_since_epoch())
            .count();
    }

    std::vector<std::string> names_;
    std::map<std::string, uint32_t> ids_;
    std::vector<uint64_t> work_;
    std::vector<Span> spans_;
    int32_t current_ = -1;
};

/** Forwards every call to @a inner, recording one span per onBatch. */
class SpanSink final : public vm::TraceSink
{
  public:
    SpanSink(Tracer &tracer, const std::string &name, vm::TraceSink &inner)
        : tracer_(tracer), name_(tracer.intern(name)), inner_(inner)
    {
    }

    void onInstr(const vm::DynInstr &di) override { inner_.onInstr(di); }

    void onBatch(const vm::DynInstr *batch, size_t n) override
    {
        const Clock::time_point t0 = Clock::now();
        inner_.onBatch(batch, n);
        tracer_.leaf(name_, t0, Clock::now(), n);
    }

    void onRunEnd() override
    {
        const Clock::time_point t0 = Clock::now();
        inner_.onRunEnd();
        tracer_.leaf(name_, t0, Clock::now(), 0);
    }

    void onGap() override { inner_.onGap(); }

  private:
    Tracer &tracer_;
    uint32_t name_;
    vm::TraceSink &inner_;
};

/** Captures a bounded prefix of the memory-access and branch streams. */
class StreamCollector final : public vm::TraceSink
{
  public:
    struct Access
    {
        uint64_t addr;
        bool write;
    };
    struct Branch
    {
        uint32_t sid;
        bool taken;
    };

    explicit StreamCollector(size_t limit) : limit_(limit) {}

    void onInstr(const vm::DynInstr &di) override
    {
        const ir::Opcode op = di.instr->op;
        if (ir::hasMemOperand(op)) {
            if (accesses.size() < limit_)
                accesses.push_back(Access{ di.addr, ir::isStore(op) });
        } else if (op == ir::Opcode::Br) {
            if (branches.size() < limit_)
                branches.push_back(Branch{ di.instr->sid, di.taken });
        }
    }

    std::vector<Access> accesses;
    std::vector<Branch> branches;

  private:
    size_t limit_;
};

/** Accesses and branches kept per stream for the standalone probes. */
constexpr size_t kStreamLimit = size_t(1) << 21;

// --- run state --------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t appSeed = 1;
    double seconds = 10.0;
    bool traced = false;
    bool reference = false;
    bool count = false;
    std::string workDir = ".";
};

/**
 * One pass over a workload's timed operation set: each operation's
 * wall time, always in the same order, and the instructions the pass
 * analysed.
 */
struct Pass
{
    std::vector<double> ops;
    uint64_t instructions = 0;
};

/** Set-up passes measured before the timed passes. */
constexpr int kSetupPasses = 20;

/**
 * Wall time of the operation set, estimated as the sum over its
 * operations of each one's median repetition. The benchmark's hosts
 * are shared virtual machines on which the same operation runs up to
 * 1.5x slower, or faster, for seconds at a time, so a single repetition
 * (the fastest included) depends on when it ran. The median of many
 * short repetitions spread over the whole run does not. Every sample
 * stays in the record.
 */
double
medianSum(const std::vector<Pass> &passes)
{
    if (passes.empty())
        return 0.0;
    double total = 0.0;
    for (size_t i = 0; i < passes[0].ops.size(); i++) {
        std::vector<double> op;
        for (const Pass &p : passes)
            op.push_back(p.ops[i]);
        total += median(op);
    }
    return total;
}

/** Everything one driver run accumulates for its JSON record. */
struct Runner
{
    Args args;
    Tracer tracer;
    Value ops = Value::array();
    Value probeFailures = Value::array();
    std::vector<Pass> passes, tracedPasses;
    std::vector<double> setup, make;
    Value layers = Value::object();
    Value extra = Value::object();

    /** Records one checked operation (run.py compares fingerprints). */
    void op(const std::string &name, const util::Status &status,
            bool verified, uint64_t instructions,
            const std::string &fingerprint, Value more = Value::object())
    {
        Value o = std::move(more);
        o["name"] = name;
        o["ok"] = status.ok();
        if (!status.ok())
            o["error"] = status.str();
        o["verified"] = verified;
        o["instructions"] = instructions;
        o["fingerprint"] = fingerprint;
        ops.push(std::move(o));
    }

    /** Records a failed layer probe; it counts as a failed operation. */
    void probeFailed(const std::string &what, const util::Status &status)
    {
        probeFailures.push(what + ": " + status.str());
    }
};

/**
 * Rotates the calling thread over the CPUs it may use. On a shared
 * host one virtual CPU can stay contended for a whole run, so each
 * timed pass moves to the next CPU and the median-repetition estimate
 * sees all of them. The original mask is restored on destruction.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        if (sched_getaffinity(0, sizeof original_, &original_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; c++)
            if (CPU_ISSET(c, &original_))
                allowed_.push_back(c);
    }
    ~CpuRotation()
    {
        if (turn_ > 0)
            sched_setaffinity(0, sizeof original_, &original_);
    }
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Pins to the next CPU (wrapping); a no-op on a single CPU. */
    void next()
    {
        if (allowed_.size() < 2)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(allowed_[turn_ % allowed_.size()], &set);
        sched_setaffinity(0, sizeof set, &set);
        turn_++;
    }

  private:
    cpu_set_t original_;
    std::vector<int> allowed_;
    size_t turn_ = 0;
};

/**
 * Times @a setup (building the workload's apps; null when the
 * workload sets up on its own) kSetupPasses times, then runs @a pass
 * while the next pass is expected to fit the budget, and at least
 * three times. Timed passes run on the calling thread alone: worker
 * threads would add the scheduler's timing to every sample (parallel
 * efficiency is a per-layer probe instead). In traced mode the budget
 * is split: the first half runs untraced, the second with spans on
 * (at least twice each), so both estimates come from one process and
 * their difference is the tracing overhead.
 * Reference mode runs @a pass once.
 */
void
measure(Runner &r, const std::function<double()> &setup,
        const std::function<Pass(bool traced)> &pass)
{
    if (r.args.reference) {
        pass(false);
        return;
    }
    CpuRotation cpus;
    for (int i = 0; setup && i < kSetupPasses; i++) {
        cpus.next();
        const double s = setup();
        r.setup.push_back(s);
        r.make.push_back(s);
    }
    auto loop = [&](double budget, int min_passes, bool traced,
                    std::vector<Pass> &out) {
        const Clock::time_point t0 = Clock::now();
        std::vector<double> walls;
        for (int n = 0;
             n < min_passes || since(t0) + median(walls) <= budget; n++) {
            const Clock::time_point p0 = Clock::now();
            cpus.next();
            out.push_back(pass(traced));
            walls.push_back(since(p0));
        }
    };
    if (!r.args.traced) {
        loop(r.args.seconds, 3, false, r.passes);
    } else {
        loop(r.args.seconds / 2, 2, false, r.passes);
        loop(r.args.seconds / 2, 2, true, r.tracedPasses);
    }
}

apps::AppRun
makeApp(const std::string &name, apps::Variant v, apps::Scale s,
        uint64_t seed)
{
    return apps::findApp(name)->make(v, s, seed);
}

/** Builds a workload's runs into the vector; returns the seconds. */
using BuildFn = std::function<double(std::vector<apps::AppRun> &)>;

/** Builds @a names at @a scale; returns the seconds it took. */
double
makeAll(const std::vector<std::string> &names, apps::Variant v,
        apps::Scale s, uint64_t seed, std::vector<apps::AppRun> &out)
{
    const Clock::time_point t0 = Clock::now();
    for (const std::string &name : names)
        out.push_back(makeApp(name, v, s, seed));
    return since(t0);
}

/**
 * --count: interprets a workload's freshly built runs with no sink and
 * reports their total instruction count, the cheap work measure
 * make_references.py uses to pick app seeds of equal size.
 */
void
countOnly(Runner &r, const BuildFn &build)
{
    std::vector<apps::AppRun> runs;
    build(runs);
    uint64_t total = 0;
    for (apps::AppRun &run : runs) {
        vm::Interpreter interp(*run.prog);
        run.driver(interp);
        total += interp.totalInstrs();
    }
    r.extra["instructions"] = total;
}

// --- wrapped replicas of the library's drivers -------------------------

/**
 * Simulator::characterize() with each profiler behind a SpanSink: the
 * same sinks in the same order, so the report (and its fingerprint)
 * is identical.
 */
core::CharacterizationResult
characterizeTraced(Tracer &tracer, apps::AppRun &run)
{
    profile::InstructionMixProfiler mix;
    profile::LoadCoverageProfiler coverage;
    profile::CacheProfiler cache;
    profile::LoadBranchProfiler load_branch;
    SpanSink s_mix(tracer, "profile.mix", mix);
    SpanSink s_coverage(tracer, "profile.coverage", coverage);
    SpanSink s_cache(tracer, "profile.cache", cache);
    SpanSink s_lb(tracer, "profile.load_branch", load_branch);

    core::CharacterizationResult res;
    vm::Interpreter interp(*run.prog);
    for (SpanSink *s : { &s_mix, &s_coverage, &s_cache, &s_lb })
        interp.addSink(s);
    try {
        run.driver(interp);
        res.verified = run.verify();
    } catch (const util::StatusError &e) {
        res.status = e.status();
    }
    res.instructions = interp.totalInstrs();
    res.mix = mix.summary();
    res.coverage = coverage.summary();
    res.cache = cache.summary();
    res.loadBranch = load_branch.summary();
    return res;
}

/** Simulator::time() on an out-of-order platform, core behind a span. */
core::TimingResult
timeTraced(Tracer &tracer, apps::AppRun &run,
           const cpu::PlatformConfig &platform)
{
    core::TimingResult res;
    mem::CacheHierarchy caches = platform.makeHierarchy();
    auto predictor = platform.makePredictor();
    cpu::OooCore core(platform.core, &caches, predictor.get());
    SpanSink span(tracer, "cpu.ooo", core);
    vm::Interpreter interp(*run.prog);
    interp.addSink(&span);
    try {
        run.driver(interp);
    } catch (const util::StatusError &e) {
        res.status = e.status();
    }
    res.cycles = core.cycles();
    res.instructions = core.instructions();
    res.mispredicts = core.branchMispredictions();
    res.ipc = core.ipc();
    res.seconds = core.seconds();
    if (res.status.ok())
        res.verified = run.verify();
    return res;
}

// --- layer probes (traced runs only) -----------------------------------

/** Runs @a fn, turning a thrown StatusError into a probe failure. */
void
guarded(Runner &r, const std::string &what, const std::function<void()> &fn)
{
    try {
        fn();
    } catch (const util::StatusError &e) {
        r.probeFailed(what, e.status());
    }
}

/** Interpretation with no sink attached: the VM's own cost. */
void
probeInterpret(Runner &r, apps::AppRun run)
{
    vm::Interpreter interp(*run.prog);
    const Clock::time_point t0 = Clock::now();
    run.driver(interp);
    r.tracer.leaf("vm.interpret", t0, Clock::now(), interp.totalInstrs());
}

/** Records @a run through a span-wrapped TraceRecorder. */
std::shared_ptr<core::CachedTrace>
probeRecord(Runner &r, apps::AppRun run)
{
    auto trace = std::make_shared<core::CachedTrace>();
    {
        vm::Interpreter interp(*run.prog);
        vm::TraceRecorder recorder(*run.prog);
        SpanSink span(r.tracer, "vm.record", recorder);
        interp.addSink(&span);
        run.driver(interp);
        trace->verified = run.verify();
        trace->trace = recorder.finish();
    }
    trace->instructions = trace->trace.instructions();
    trace->prog = std::move(run.prog);
    if (!trace->verified)
        r.probeFailed("vm.record", util::Status::internal(
                                       "recorded run failed verification"));
    return trace;
}

/** Replays @a trace into @a sinks; a decode failure is a probe failure. */
void
replayInto(Runner &r, const core::CachedTrace &trace,
           const std::vector<vm::TraceSink *> &sinks, const char *what)
{
    vm::TraceReplayer replayer(trace.trace, *trace.prog);
    for (vm::TraceSink *s : sinks)
        replayer.addSink(s);
    const Clock::time_point t0 = Clock::now();
    util::StatusOr<uint64_t> n = replayer.replay();
    if (!n.ok()) {
        r.probeFailed(what, n.status());
        return;
    }
    if (sinks.empty())
        r.tracer.leaf("vm.decode", t0, Clock::now(), n.value());
}

/** The platform's core alone over the whole trace. */
void
probeCore(Runner &r, const core::CachedTrace &trace,
          const cpu::PlatformConfig &platform)
{
    mem::CacheHierarchy caches = platform.makeHierarchy();
    auto predictor = platform.makePredictor();
    std::unique_ptr<vm::TraceSink> core;
    if (platform.core.outOfOrder)
        core = std::make_unique<cpu::OooCore>(platform.core, &caches,
                                              predictor.get());
    else
        core = std::make_unique<cpu::InorderCore>(platform.core, &caches,
                                                  predictor.get());
    SpanSink span(r.tracer,
                  platform.core.outOfOrder ? "cpu.ooo" : "cpu.inorder",
                  *core);
    replayInto(r, trace, { &span }, "cpu core replay");
}

/** The sampler's functional warming alone over the whole trace. */
void
probeWarm(Runner &r, const core::CachedTrace &trace,
          const cpu::PlatformConfig &platform)
{
    mem::CacheHierarchy caches = platform.makeHierarchy();
    auto predictor = platform.makePredictor();
    core::WarmupSink warm(*trace.prog, &caches, predictor.get());
    SpanSink span(r.tracer, "sampling.warm", warm);
    replayInto(r, trace, { &span }, "warm-up replay");
}

/** Per-level access counts of the standalone cache probe. */
struct MemCounts
{
    uint64_t l1 = 0, l2 = 0, memory = 0;
};

/**
 * CacheHierarchy::access over a recorded address stream, on a fresh
 * hierarchy built by @a make_caches; three passes, each cold.
 */
void
probeMem(Runner &r, const std::vector<StreamCollector::Access> &stream,
         const std::function<mem::CacheHierarchy()> &make_caches,
         MemCounts &counts)
{
    for (int pass = 0; pass < 3; pass++) {
        mem::CacheHierarchy caches = make_caches();
        uint64_t level_count[3] = { 0, 0, 0 };
        const Clock::time_point t0 = Clock::now();
        for (const StreamCollector::Access &a : stream)
            level_count[static_cast<int>(caches.access(a.addr, a.write)
                                             .level)]++;
        r.tracer.leaf("mem.access", t0, Clock::now(), stream.size());
        if (pass == 0) {
            counts.l1 += level_count[0];
            counts.l2 += level_count[1];
            counts.memory += level_count[2];
        }
    }
}

/** BranchPredictor::predictAndTrain over a recorded branch stream. */
void
probeBranch(Runner &r, const std::vector<StreamCollector::Branch> &stream,
            const std::function<std::unique_ptr<branch::BranchPredictor>()>
                &make_predictor,
            uint64_t &mispredicts)
{
    for (int pass = 0; pass < 3; pass++) {
        auto predictor = make_predictor();
        uint64_t wrong = 0;
        const Clock::time_point t0 = Clock::now();
        for (const StreamCollector::Branch &b : stream)
            wrong += !predictor->predictAndTrain(b.sid, b.taken);
        r.tracer.leaf("branch.update", t0, Clock::now(), stream.size());
        if (pass == 0)
            mispredicts += wrong;
    }
}

/**
 * Mem and branch probes over every collected stream: the cache model
 * and predictor the workload itself uses, each priced alone.
 */
void
probeStreams(Runner &r, const std::vector<StreamCollector> &streams,
             const cpu::PlatformConfig &platform)
{
    MemCounts counts;
    uint64_t branches = 0, mispredicts = 0;
    for (const StreamCollector &s : streams) {
        probeMem(r, s.accesses,
                 [&] { return platform.makeHierarchy(); }, counts);
        probeBranch(r, s.branches,
                    [&] { return platform.makePredictor(); }, mispredicts);
        branches += s.branches.size();
    }
    const uint64_t accesses = counts.l1 + counts.l2 + counts.memory;
    r.layers["mem.l1_hit_rate"] =
        accesses ? static_cast<double>(counts.l1) / accesses : 0.0;
    r.layers["mem.l2_hit_rate"] =
        counts.l2 + counts.memory
            ? static_cast<double>(counts.l2) / (counts.l2 + counts.memory)
            : 0.0;
    r.layers["branch.mispredict_rate"] =
        branches ? static_cast<double>(mispredicts) / branches : 0.0;
}

/** Interprets a fresh copy of each run with a StreamCollector attached. */
std::vector<StreamCollector>
collectLive(std::vector<apps::AppRun> runs)
{
    std::vector<StreamCollector> out;
    out.reserve(runs.size());
    for (apps::AppRun &run : runs) {
        out.emplace_back(kStreamLimit / runs.size());
        vm::Interpreter interp(*run.prog);
        interp.addSink(&out.back());
        run.driver(interp);
    }
    return out;
}

// --- workloads --------------------------------------------------------

const std::vector<std::string> kSuite = { "hmmsearch", "clustalw",
                                          "promlk" };
const std::vector<std::string> kMemoryBound = { "megamerger-like",
                                                "gcc-like" };
const std::vector<std::string> kSweepApps = { "predator", "blast" };

void
recordCharacterize(Runner &r, const std::string &app,
                   const core::CharacterizationResult &res)
{
    r.op("characterize/" + app, res.status, res.verified,
         res.instructions, fnv1a(res.report().dump()));
}

void
recordTime(Runner &r, const std::string &name, const core::TimingResult &res)
{
    r.op(name, res.status, res.verified, res.instructions,
         timingPrint(res.cycles, res.mispredicts));
}

/** Live characterization of three BioPerf codes at Medium scale. */
void
characterizeSuite(Runner &r)
{
    const uint64_t seed = r.args.appSeed;
    const BuildFn build = [&](std::vector<apps::AppRun> &runs) {
        return makeAll(kSuite, apps::Variant::Baseline, apps::Scale::Medium,
                       seed, runs);
    };
    if (r.args.count)
        return countOnly(r, build);
    auto setup = [&] {
        std::vector<apps::AppRun> runs;
        return build(runs);
    };
    measure(r, setup, [&](bool traced) {
        Pass t;
        std::vector<apps::AppRun> runs;
        build(runs);
        for (size_t i = 0; i < runs.size(); i++) {
            core::CharacterizationResult res;
            const Clock::time_point t0 = Clock::now();
            if (traced) {
                const int32_t span =
                    r.tracer.open("characterize/" + kSuite[i]);
                res = characterizeTraced(r.tracer, runs[i]);
                r.tracer.close(span);
            } else {
                res = core::Simulator::characterize(runs[i]);
            }
            t.ops.push_back(since(t0));
            t.instructions += res.instructions;
            recordCharacterize(r, kSuite[i], res);
        }
        return t;
    });
    if (!r.args.traced)
        return;

    guarded(r, "vm.interpret", [&] {
        for (const std::string &app : kSuite)
            probeInterpret(r, makeApp(app, apps::Variant::Baseline,
                                      apps::Scale::Medium, seed));
    });
    guarded(r, "streams", [&] {
        std::vector<apps::AppRun> runs;
        build(runs);
        probeStreams(r, collectLive(std::move(runs)),
                     cpu::atomReference());
    });
}

/** Live characterize + Alpha timing of two memory-bound contrasts. */
void
memoryBound(Runner &r)
{
    const uint64_t seed = r.args.appSeed;
    const cpu::PlatformConfig alpha = cpu::alpha21264();
    uint64_t cycles = 0, mispredicts = 0;
    const BuildFn build = [&](std::vector<apps::AppRun> &runs) {
        return makeAll(kMemoryBound, apps::Variant::Baseline,
                       apps::Scale::Large, seed, runs);
    };
    if (r.args.count)
        return countOnly(r, build);
    auto setup = [&] {
        std::vector<apps::AppRun> char_runs, time_runs;
        return build(char_runs) + build(time_runs);
    };
    measure(r, setup, [&](bool traced) {
        Pass t;
        std::vector<apps::AppRun> char_runs, time_runs;
        build(char_runs);
        build(time_runs);
        cycles = mispredicts = 0;
        for (size_t i = 0; i < kMemoryBound.size(); i++) {
            const std::string &app = kMemoryBound[i];
            int32_t span = traced ? r.tracer.open("characterize/" + app)
                                  : -1;
            Clock::time_point t0 = Clock::now();
            const core::CharacterizationResult c =
                traced ? characterizeTraced(r.tracer, char_runs[i])
                       : core::Simulator::characterize(char_runs[i]);
            t.ops.push_back(since(t0));
            if (traced) {
                r.tracer.close(span);
                span = r.tracer.open("time/" + app);
            }
            t0 = Clock::now();
            const core::TimingResult tr =
                traced ? timeTraced(r.tracer, time_runs[i], alpha)
                       : core::Simulator::time(time_runs[i], alpha);
            t.ops.push_back(since(t0));
            if (traced)
                r.tracer.close(span);
            t.instructions += c.instructions + tr.instructions;
            cycles += tr.cycles;
            mispredicts += tr.mispredicts;
            recordCharacterize(r, app, c);
            recordTime(r, "time/" + alpha.core.name + "/" + app, tr);
        }
        return t;
    });
    if (!r.args.traced)
        return;

    r.layers["cpu.sim_cycles"] = cycles;
    r.layers["cpu.mispredicts"] = mispredicts;
    guarded(r, "vm.interpret", [&] {
        for (const std::string &app : kMemoryBound)
            probeInterpret(r, makeApp(app, apps::Variant::Baseline,
                                      apps::Scale::Large, seed));
    });
    guarded(r, "streams", [&] {
        std::vector<apps::AppRun> runs;
        build(runs);
        probeStreams(r, collectLive(std::move(runs)),
                     cpu::atomReference());
    });
}

/** Baseline+Transformed × the four evaluation platforms. */
void
timingSweep(Runner &r)
{
    const uint64_t seed = r.args.appSeed;
    const std::vector<cpu::PlatformConfig> platforms =
        cpu::evaluationPlatforms();
    const apps::Variant variants[] = { apps::Variant::Baseline,
                                       apps::Variant::Transformed };
    std::vector<core::SweepJob> jobs;
    std::vector<std::string> names;
    for (const std::string &app : kSweepApps)
        for (apps::Variant v : variants)
            for (const cpu::PlatformConfig &p : platforms) {
                core::SweepJob job;
                job.app = apps::findApp(app);
                job.platform = p;
                job.variant = v;
                job.scale = apps::Scale::Medium;
                job.seed = seed;
                jobs.push_back(job);
                names.push_back("sweep/" + app + "/" + apps::toString(v) +
                                "/" + p.core.name);
            }

    std::vector<double> record_s, replay_s;
    uint64_t records = 0, hits = 0, cycles = 0, mispredicts = 0;
    // The sweep builds its own runs; set-up prices building the same
    // (app, variant) pairs once.
    const BuildFn build = [&](std::vector<apps::AppRun> &runs) {
        double s = 0.0;
        for (apps::Variant v : variants)
            s += makeAll(kSweepApps, v, apps::Scale::Medium, seed, runs);
        return s;
    };
    if (r.args.count)
        return countOnly(r, build);
    auto setup = [&] {
        std::vector<apps::AppRun> runs;
        return build(runs);
    };
    // One Simulator::sweep per (app, variant): its four platform jobs
    // share the workload, so one sweep call is the unit that records
    // once and replays, and it is short enough to repeat many times.
    // Runs the call starting at job @a c on @a threads workers, checks
    // its results and returns its wall time.
    const size_t per_call = platforms.size();
    auto sweepCall = [&](size_t c, unsigned threads, Pass &t,
                         core::TraceCache::Stats &stats) {
        const std::vector<core::SweepJob> call(jobs.begin() + c,
                                               jobs.begin() + c + per_call);
        core::SweepOptions opts;
        opts.threads = threads;
        opts.statsOut = &stats;
        const Clock::time_point t0 = Clock::now();
        const std::vector<core::TimingResult> results =
            core::Simulator::sweep(call, opts);
        const double dt = since(t0);
        for (size_t i = 0; i < results.size(); i++) {
            recordTime(r, names[c + i], results[i]);
            t.instructions += results[i].instructions;
            cycles += results[i].cycles;
            mispredicts += results[i].mispredicts;
        }
        return dt;
    };
    measure(r, setup, [&](bool traced) {
        Pass t;
        cycles = mispredicts = 0;
        double record = 0.0, replay = 0.0;
        for (size_t c = 0; c < jobs.size(); c += per_call) {
            core::TraceCache::Stats stats;
            const int32_t span = traced ? r.tracer.open("sweep") : -1;
            t.ops.push_back(sweepCall(c, 1, t, stats));
            if (traced)
                r.tracer.close(span);
            records += stats.records;
            hits += stats.hits;
            record += stats.recordSeconds;
            replay += stats.replaySeconds;
        }
        record_s.push_back(record);
        replay_s.push_back(replay);
        return t;
    });
    if (!r.args.traced)
        return;

    r.layers["cpu.sim_cycles"] = cycles;
    r.layers["cpu.mispredicts"] = mispredicts;
    // Per pass: every pass makes the same calls.
    const double passes = r.passes.size() + r.tracedPasses.size();
    r.layers["trace_cache.records"] = records / passes;
    r.layers["trace_cache.hits"] = hits / passes;
    r.layers["trace_cache.record_s"] = median(record_s);
    r.layers["trace_cache.replay_s"] = median(replay_s);

    // The register-pressure rewrite, once per distinct (app, variant,
    // register file): exactly the rewrites one sweep performs.
    guarded(r, "regalloc", [&] {
        uint64_t spills = 0;
        for (const std::string &app : kSweepApps)
            for (apps::Variant v : variants) {
                std::vector<std::pair<uint32_t, uint32_t>> files;
                for (const cpu::PlatformConfig &p : platforms) {
                    const std::pair<uint32_t, uint32_t> f{
                        p.core.numIntRegs, p.core.numFpRegs
                    };
                    if (std::find(files.begin(), files.end(), f) !=
                        files.end())
                        continue;
                    files.push_back(f);
                    apps::AppRun run =
                        makeApp(app, v, apps::Scale::Medium, seed);
                    const Clock::time_point t0 = Clock::now();
                    spills += core::Simulator::applyRegisterPressure(
                        run, f.first, f.second);
                    r.tracer.leaf("regalloc.rewrite", t0, Clock::now(), 1);
                }
            }
        r.layers["regalloc.spills"] = spills;
    });

    // The pool's efficiency: every job alone on the calling thread,
    // against the same sweep calls on 2 workers.
    guarded(r, "pool", [&] {
        double solo = 0.0, pooled = 0.0;
        for (size_t i = 0; i < jobs.size(); i++) {
            const Clock::time_point t0 = Clock::now();
            const std::vector<core::TimingResult> one =
                core::Simulator::sweep({ jobs[i] }, 1u);
            solo += since(t0);
            recordTime(r, names[i], one[0]);
        }
        Pass t;
        for (size_t c = 0; c < jobs.size(); c += per_call) {
            core::TraceCache::Stats stats;
            pooled += sweepCall(c, 2, t, stats);
        }
        r.layers["pool.parallel_eff"] = solo / (2.0 * pooled);
    });

    // VM, trace and core layers on the Alpha-register-file baseline
    // programs the sweep records.
    const cpu::PlatformConfig &alpha = platforms[0];
    guarded(r, "trace layers", [&] {
        uint64_t bytes = 0, instrs = 0;
        std::vector<StreamCollector> streams;
        for (const std::string &app : kSweepApps) {
            auto build = [&] {
                apps::AppRun run = makeApp(app, apps::Variant::Baseline,
                                           apps::Scale::Medium, seed);
                core::Simulator::applyRegisterPressure(run, alpha);
                return run;
            };
            probeInterpret(r, build());
            const std::shared_ptr<core::CachedTrace> trace =
                probeRecord(r, build());
            bytes += trace->trace.totalBytes();
            instrs += trace->instructions;
            replayInto(r, *trace, {}, "decode");
            probeCore(r, *trace, alpha);
            probeCore(r, *trace, cpu::itanium2());
            streams.emplace_back(kStreamLimit / kSweepApps.size());
            replayInto(r, *trace, { &streams.back() }, "collect");
        }
        r.layers["vm.trace_bytes_per_instr"] =
            instrs ? static_cast<double>(bytes) / instrs : 0.0;
        probeStreams(r, streams, alpha);
    });
}

/**
 * Chunks sampleTimingFile() decodes with default SamplingOptions:
 * shards of eight keyframe groups, each decoding one window of 3/8 of
 * its chunks (or the whole shard when shorter), per core/sampling.h.
 */
double
sampledDecodedFraction(size_t num_chunks, uint32_t keyframe_interval)
{
    if (num_chunks == 0)
        return 0.0;
    const size_t k = keyframe_interval;
    const size_t per = 8 * k;
    const size_t window =
        std::min(per, (std::max(k, per * 3 / 8) + k - 1) / k * k);
    size_t decoded = 0;
    for (size_t c0 = 0; c0 < num_chunks; c0 += per)
        decoded += std::min(window, std::min(num_chunks, c0 + per) - c0);
    return static_cast<double>(decoded) / num_chunks;
}

/** Sampled timing straight from a saved hmmsearch trace file. */
void
sampledFile(Runner &r)
{
    core::TraceKey key;
    key.app = apps::findApp("hmmsearch");
    key.variant = apps::Variant::Baseline;
    key.scale = apps::Scale::Medium;
    key.seed = r.args.appSeed;
    const std::string path = r.args.workDir + "/hmmsearch-" +
                             std::to_string(r.args.appSeed) + "-" +
                             std::to_string(getpid()) + ".bptrace";
    const cpu::PlatformConfig platforms[] = { cpu::alpha21264(),
                                              cpu::itanium2() };
    if (r.args.count)
        return countOnly(r, [&](std::vector<apps::AppRun> &runs) {
            return makeAll({ "hmmsearch" }, key.variant, key.scale, key.seed,
                           runs);
        });

    // Set-up: record and save the trace, once per CPU (once for a
    // reference run); the last file is the one sampled.
    std::vector<double> save_s;
    core::TraceCache::Ptr trace;
    auto setupOnce = [&] {
        trace.reset();
        const Clock::time_point t0 = Clock::now();
        util::StatusOr<core::TraceCache::Ptr> got =
            core::TraceCache::record(key);
        if (!got.ok()) {
            r.op("setup/record", got.status(), false, 0, "");
            return false;
        }
        trace = got.value();
        const Clock::time_point t1 = Clock::now();
        const util::Status saved = core::saveTraceFile(path, key, *trace);
        save_s.push_back(since(t1));
        r.setup.push_back(since(t0));
        if (!saved.ok())
            r.op("setup/save", saved, false, 0, "");
        return saved.ok();
    };
    bool ready = true;
    {
        // Scoped: the timed passes rotate from the original CPU set.
        CpuRotation cpus;
        for (int i = 0; ready && i < (r.args.reference ? 1 : 4); i++) {
            cpus.next();
            ready = setupOnce();
        }
    }
    if (!ready) {
        std::remove(path.c_str());
        return;
    }
    if (r.args.reference) {
        for (const cpu::PlatformConfig &p : platforms) {
            const core::TimingResult full =
                core::Simulator::timeReplay(*trace, p);
            recordTime(r, "full/" + p.core.name, full);
            r.extra["full_cycles"][p.core.name] = full.cycles;
        }
    }
    trace.reset();

    auto sample = [&](const cpu::PlatformConfig &p, unsigned threads) {
        core::SamplingOptions opts;
        opts.threads = threads;
        const Clock::time_point t0 = Clock::now();
        const core::SampledFileResult res =
            core::sampleTimingFile(path, p, opts);
        const double dt = since(t0);
        const core::SampledTimingResult &s = res.result;
        Value more = Value::object();
        more["projected_cycles"] = s.projectedCycles;
        more["coverage"] = s.coverage;
        r.op("sample/" + p.core.name,
             res.status.ok() ? s.status : res.status, s.verified,
             s.instructions,
             timingPrint(s.measuredCycles, s.measuredMispredicts) +
                 ";intervals=" + std::to_string(s.intervals),
             std::move(more));
        return std::make_pair(dt, s);
    };

    double coverage = 0.0, projected = 0.0;
    uint64_t mispredicts = 0;
    measure(r, nullptr, [&](bool traced) {
        Pass t;
        const int32_t span = traced ? r.tracer.open("sample") : -1;
        coverage = projected = 0.0;
        mispredicts = 0;
        for (const cpu::PlatformConfig &p : platforms) {
            const auto [dt, s] = sample(p, 1);
            t.ops.push_back(dt);
            t.instructions += s.instructions;
            coverage += s.coverage / 2;
            projected += s.projectedCycles;
            mispredicts += s.measuredMispredicts;
        }
        if (traced)
            r.tracer.close(span);
        return t;
    });

    if (r.args.traced) {
        r.layers["cpu.sim_cycles"] = projected;
        r.layers["cpu.mispredicts"] = mispredicts;
        r.layers["sampling.coverage"] = coverage;
        r.layers["trace_file.save_s"] = median(save_s);

        guarded(r, "trace_file", [&] {
            core::TraceFileStream stream;
            const Clock::time_point t0 = Clock::now();
            const util::Status opened = stream.open(path);
            r.layers["trace_file.open_s"] = since(t0);
            if (!opened.ok()) {
                r.probeFailed("trace_file.open", opened);
                return;
            }
            r.layers["sampling.decoded_frac"] = sampledDecodedFraction(
                stream.numChunks(), stream.keyframeInterval());
            vm::EncodedTrace::Chunk chunk;
            util::Status error;
            uint64_t bytes = 0;
            const Clock::time_point t1 = Clock::now();
            while (stream.next(chunk, error))
                bytes += chunk.bytes.size();
            const double dt = since(t1);
            if (!error.ok())
                r.probeFailed("trace_file.read", error);
            r.layers["trace_file.read_MBps"] = bytes / dt / 1e6;
        });

        guarded(r, "sampling.parallel_eff", [&] {
            std::vector<double> two_workers;
            for (int i = 0; i < 3; i++) {
                double wall = 0.0;
                for (const cpu::PlatformConfig &p : platforms)
                    wall += sample(p, 2).first;
                two_workers.push_back(wall);
            }
            r.layers["sampling.parallel_eff"] =
                medianSum(r.passes) / (2.0 * median(two_workers));
        });

        guarded(r, "trace layers", [&] {
            std::vector<double> make_s;
            for (int i = 0; i < 3; i++) {
                const Clock::time_point t0 = Clock::now();
                makeApp("hmmsearch", key.variant, key.scale, key.seed);
                make_s.push_back(since(t0));
            }
            r.make = make_s;
            probeInterpret(r, makeApp("hmmsearch", key.variant, key.scale,
                                      key.seed));
            const std::shared_ptr<core::CachedTrace> recorded = probeRecord(
                r, makeApp("hmmsearch", key.variant, key.scale, key.seed));
            r.layers["vm.trace_bytes_per_instr"] =
                recorded->trace.bytesPerInstr();
            replayInto(r, *recorded, {}, "decode");
            probeWarm(r, *recorded, platforms[0]);
            for (const cpu::PlatformConfig &p : platforms)
                probeCore(r, *recorded, p);
            std::vector<StreamCollector> streams;
            streams.emplace_back(kStreamLimit);
            replayInto(r, *recorded, { &streams.back() }, "collect");
            probeStreams(r, streams, platforms[0]);
        });
    }
    std::remove(path.c_str());
}

// --- output -----------------------------------------------------------

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

Value
numbers(const std::vector<double> &v)
{
    Value out = Value::array();
    for (double x : v)
        out.push(x);
    return out;
}

Value
buildInfo()
{
    Value b = Value::object();
    b["compiler"] = PERFBENCH_COMPILER;
    b["build_type"] = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
    b["asserts"] = false;
#else
    b["asserts"] = true;
#endif
    b["sanitizer"] = PERFBENCH_SANITIZER;
    return b;
}

Value
report(Runner &r)
{
    Value out = Value::object();
    out["workload"] = r.args.workload;
    out["app_seed"] = r.args.appSeed;
    out["traced"] = r.args.traced;
    out["reference"] = r.args.reference;
    out["build"] = buildInfo();
    out["passes"] = static_cast<uint64_t>(r.passes.size());
    out["ops"] = std::move(r.ops);
    out["probe_failures"] = std::move(r.probeFailures);

    // Per pass: each operation's wall time, in pass order.
    auto passTimes = [](const std::vector<Pass> &passes) {
        Value out = Value::array();
        for (const Pass &p : passes)
            out.push(numbers(p.ops));
        return out;
    };
    Value samples = Value::object();
    samples["op_wall_s"] = passTimes(r.passes);
    samples["traced_op_wall_s"] = passTimes(r.tracedPasses);
    samples["setup_s"] = numbers(r.setup);
    out["samples"] = std::move(samples);

    const double wall = medianSum(r.passes);
    const uint64_t instructions =
        r.passes.empty() ? 0 : r.passes.back().instructions;
    Value e2e = Value::object();
    e2e["wall_s"] = wall;
    e2e["sim_mips"] = wall > 0.0 ? instructions / wall / 1e6 : 0.0;
    e2e["setup_s"] = median(r.setup);
    e2e["peak_rss_mb"] = peakRssMb();
    out["end_to_end"] = std::move(e2e);

    if (r.args.traced) {
        Value &l = r.layers;
        const Tracer &t = r.tracer;
        l["apps.make_s"] = median(r.make);
        l["regalloc.rewrite_s"] = t.seconds("regalloc.rewrite");
        l["vm.interpret_ns_per_instr"] = t.nsPerUnit("vm.interpret");
        l["vm.record_ns_per_instr"] = t.nsPerUnit("vm.record");
        l["vm.decode_ns_per_instr"] = t.nsPerUnit("vm.decode");
        l["sampling.warm_ns_per_instr"] = t.nsPerUnit("sampling.warm");
        l["profile.mix_ns_per_instr"] = t.nsPerUnit("profile.mix");
        l["profile.coverage_ns_per_instr"] =
            t.nsPerUnit("profile.coverage");
        l["profile.cache_ns_per_instr"] = t.nsPerUnit("profile.cache");
        l["profile.load_branch_ns_per_instr"] =
            t.nsPerUnit("profile.load_branch");
        l["cpu.ooo_ns_per_instr"] = t.nsPerUnit("cpu.ooo");
        l["cpu.inorder_ns_per_instr"] = t.nsPerUnit("cpu.inorder");
        l["mem.access_ns"] = t.nsPerUnit("mem.access");
        l["branch.update_ns"] = t.nsPerUnit("branch.update");
        l["tracing.overhead_s"] =
            medianSum(r.tracedPasses) - medianSum(r.passes);
        out["per_layer"] = std::move(r.layers);
        out["spans"] = r.tracer.summary();
    }
    if (r.args.reference || r.args.count)
        out["extra"] = std::move(r.extra);
    return out;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --app-seed N "
                 "--seconds T --trace 0|1 --work-dir DIR "
                 "[--reference | --count]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Runner r;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        if (a == "--reference" || a == "--count") {
            (a == "--count" ? r.args.count : r.args.reference) = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (a == "--workload")
            r.args.workload = v;
        else if (a == "--app-seed")
            r.args.appSeed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            r.args.seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace")
            r.args.traced = v == "1";
        else if (a == "--work-dir")
            r.args.workDir = v;
        else
            return usage();
    }
    if (r.args.reference || r.args.count)
        r.args.traced = false;

    const std::map<std::string, void (*)(Runner &)> workloads = {
        { "characterize-suite", characterizeSuite },
        { "timing-sweep", timingSweep },
        { "sampled-file", sampledFile },
        { "memory-bound", memoryBound },
    };
    auto it = workloads.find(r.args.workload);
    if (it == workloads.end())
        return usage();
    try {
        it->second(r);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }
    std::printf("%s\n", report(r).dump(0).c_str());
    return 0;
}
