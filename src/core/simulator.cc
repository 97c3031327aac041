#include "core/simulator.h"

#include <algorithm>
#include <future>
#include <unordered_map>

#include "regalloc/linear_scan.h"
#include "util/failpoint.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "vm/interpreter.h"
#include "vm/trace_codec.h"

namespace bioperf::core {

Source::Outcome
Source::drive(const std::vector<vm::TraceSink *> &sinks) const
{
    Outcome out;
    if (trace_) {
        vm::TraceReplayer replayer(trace_->trace, *trace_->prog);
        for (vm::TraceSink *s : sinks)
            replayer.addSink(s);
        util::StatusOr<uint64_t> delivered = replayer.replay();
        if (delivered.ok()) {
            out.instructions = delivered.value();
            out.verified = trace_->verified;
        } else {
            out.status = delivered.status();
        }
        return out;
    }
    vm::Interpreter interp(*run_->prog);
    for (vm::TraceSink *s : sinks)
        interp.addSink(s);
    try {
        run_->driver(interp);
        out.verified = run_->verify();
    } catch (const util::StatusError &e) {
        out.status = e.status();
    }
    out.instructions = interp.totalInstrs();
    return out;
}

using util::frac;

namespace {

/**
 * The per-load table: execution counts from @a counts, L1 misses
 * from @a cache, next-branch outcomes from @a loadBranch, and source
 * tags from one walk over @a prog.
 */
std::vector<LoadProfile>
loadTable(const ir::Program &prog,
          const profile::ExecutionCounts &counts,
          const profile::CacheProfiler &cache,
          const profile::LoadBranchProfiler &loadBranch)
{
    const std::vector<uint64_t> execs = counts.loadExecsBySid();
    const std::vector<uint64_t> &misses = cache.l1MissesBySid();
    const auto &next = loadBranch.nextBranchBySid();
    std::vector<uint32_t> sids;
    uint64_t total = 0;
    for (uint32_t sid = 0; sid < execs.size(); sid++) {
        if (execs[sid] > 0)
            sids.push_back(sid);
        total += execs[sid];
    }
    // Not stable: ties take std::sort's order, which Table 5 prints
    // (LoadTable.TopLoadsBitIdenticalToRecordedGolden pins it).
    std::sort(sids.begin(), sids.end(), [&](uint32_t a, uint32_t b) {
        return execs[a] > execs[b];
    });

    constexpr uint32_t kNoRow = UINT32_MAX;
    std::vector<uint32_t> row_of(execs.size(), kNoRow);
    std::vector<LoadProfile> table(sids.size());
    for (uint32_t r = 0; r < sids.size(); r++) {
        const uint32_t sid = sids[r];
        LoadProfile &e = table[r];
        e.sid = sid;
        e.execs = execs[sid];
        e.l1Misses = sid < misses.size() ? misses[sid] : 0;
        e.nextBranchExecs = next[sid].execs;
        e.nextBranchMisses = next[sid].misses;
        e.frequency = frac(e.execs, total);
        row_of[sid] = r;
    }
    for (size_t f = 0; f < prog.numFunctions(); f++) {
        const ir::Function &fn = prog.function(f);
        for (const ir::BasicBlock &bb : fn.blocks) {
            for (const ir::Instr &in : bb.instrs) {
                if (in.sid >= row_of.size() || row_of[in.sid] == kNoRow)
                    continue;
                LoadProfile &e = table[row_of[in.sid]];
                e.line = in.line;
                e.function = fn.name;
                e.file = fn.sourceFile;
                if (in.mem.region >= 0 &&
                    in.mem.region <
                        static_cast<int32_t>(prog.numRegions()))
                    e.region = prog.region(in.mem.region).name;
            }
        }
    }
    return table;
}

} // namespace

double
LoadProfile::l1MissRate() const
{
    return frac(l1Misses, execs);
}

double
LoadProfile::nextBranchMissRate() const
{
    return frac(nextBranchMisses, nextBranchExecs);
}

CharacterizationResult
Simulator::characterize(const Source &src)
{
    profile::ExecutionCounts counts;
    profile::CacheProfiler cache;
    profile::LoadBranchProfiler loadBranch;
    const Source::Outcome out = src.drive({ &counts, &cache, &loadBranch });

    CharacterizationResult res;
    res.status = out.status;
    res.instructions = out.instructions;
    res.verified = out.verified;
    res.mix = counts.mix();
    res.coverage = counts.coverage();
    res.cache = cache.summary();
    res.loadBranch = loadBranch.summary();
    res.loads = loadTable(src.program(), counts, cache, loadBranch);
    return res;
}

util::json::Value
CharacterizationResult::report() const
{
    util::json::Value v = util::json::Value::object();
    v["instructions"] = instructions;
    v["verified"] = verified;
    v["mix"] = mix.report();
    v["coverage"] = coverage.report();
    v["cache"] = cache.report();
    v["load_branch"] = loadBranch.report();
    return v;
}

util::json::Value
TimingResult::report() const
{
    util::json::Value v = util::json::Value::object();
    v["cycles"] = cycles;
    v["instructions"] = instructions;
    v["mispredicts"] = mispredicts;
    v["ipc"] = ipc;
    v["seconds"] = seconds;
    v["verified"] = verified;
    return v;
}

SpeedupResult
SpeedupResult::of(TimingResult baseline, TimingResult transformed)
{
    SpeedupResult res;
    res.baseline = std::move(baseline);
    res.transformed = std::move(transformed);
    res.speedup = res.transformed.cycles == 0
                      ? 0.0
                      : static_cast<double>(res.baseline.cycles) /
                            static_cast<double>(res.transformed.cycles);
    return res;
}

util::json::Value
SpeedupResult::report() const
{
    util::json::Value v = util::json::Value::object();
    v["baseline"] = baseline.report();
    v["transformed"] = transformed.report();
    v["speedup"] = speedup;
    v["verified"] = verified();
    return v;
}

TimingResult
Simulator::time(const Source &src, const cpu::PlatformConfig &platform)
{
    return std::move(time(src, { &platform }).front());
}

std::vector<TimingResult>
Simulator::time(const Source &src,
                const std::vector<const cpu::PlatformConfig *> &platforms)
{
    // Per-platform stacks; heap-held because each core keeps pointers
    // to its hierarchy and predictor across the run.
    struct Stack
    {
        mem::CacheHierarchy caches;
        std::unique_ptr<branch::BranchPredictor> predictor;
        std::unique_ptr<cpu::TimingCore> core;
    };
    std::vector<std::unique_ptr<Stack>> stacks;
    std::vector<vm::TraceSink *> sinks;
    for (const cpu::PlatformConfig *p : platforms) {
        stacks.push_back(std::make_unique<Stack>(
            Stack{ p->makeHierarchy(), p->makePredictor(), nullptr }));
        Stack &s = *stacks.back();
        s.core = p->makeCore(&s.caches, s.predictor.get());
        sinks.push_back(s.core.get());
    }
    const Source::Outcome out = src.drive(sinks);

    std::vector<TimingResult> results(platforms.size());
    for (size_t i = 0; i < platforms.size(); i++) {
        cpu::TimingCore &core = *stacks[i]->core;
        TimingResult &res = results[i];
        res.cycles = core.cycles();
        res.instructions = core.instructions();
        res.mispredicts = core.branchMispredictions();
        res.ipc = core.ipc();
        res.seconds = core.seconds();
        res.status = out.status;
        res.verified = out.verified;
    }
    return results;
}

uint32_t
Simulator::applyRegisterPressure(apps::AppRun &run,
                                 const cpu::PlatformConfig &platform)
{
    return applyRegisterPressure(run, platform.core.numIntRegs,
                                 platform.core.numFpRegs);
}

uint32_t
Simulator::applyRegisterPressure(apps::AppRun &run, uint32_t int_regs,
                                 uint32_t fp_regs)
{
    uint32_t spills = 0;
    for (size_t f = 0; f < run.prog->numFunctions(); f++) {
        const regalloc::AllocResult r =
            regalloc::allocate(*run.prog, run.prog->function(f),
                               int_regs, fp_regs);
        spills += r.spillInstrs;
    }
    run.prog->renumber();
    return spills;
}

namespace {

TraceKey
makeKey(const SweepJob &job)
{
    TraceKey key;
    key.app = job.app;
    key.variant = job.variant;
    key.scale = job.scale;
    key.seed = job.seed;
    key.registerPressure = true;
    key.intRegs = job.platform.core.numIntRegs;
    key.fpRegs = job.platform.core.numFpRegs;
    return key;
}

TraceKey
makeKey(const CharacterizeJob &job)
{
    TraceKey key;
    key.app = job.app;
    key.variant = job.variant;
    key.scale = job.scale;
    key.seed = job.seed;
    return key;
}

/** A job group's results from one pass over @a src. */
std::vector<TimingResult>
analyse(const Source &src, const std::vector<const SweepJob *> &group)
{
    std::vector<const cpu::PlatformConfig *> platforms;
    platforms.reserve(group.size());
    for (const SweepJob *job : group)
        platforms.push_back(&job->platform);
    return Simulator::time(src, platforms);
}

/**
 * The members of a group share a key, so their characterizations are
 * equal: one pass serves them all.
 */
std::vector<CharacterizationResult>
analyse(const Source &src,
        const std::vector<const CharacterizeJob *> &group)
{
    return std::vector<CharacterizationResult>(
        group.size(), Simulator::characterize(src));
}

/**
 * Fan @a jobs out in groups and collect results in job order. The app
 * registry is touched once up front so the workers never race on its
 * lazy initialization.
 *
 * Grouping: all jobs of one key form one group, and each group is one
 * task, on the calling thread or on one pool worker. A group rides a
 * single live interpretation with every member's sinks on it, so
 * results are bit-identical for any thread count. A group whose task
 * throws gets the failure as every member's status.
 */
template <typename Job, typename Result>
std::vector<Result>
runAll(const std::vector<Job> &jobs, unsigned threads)
{
    std::vector<Result> results(jobs.size());
    std::vector<std::vector<size_t>> groups;
    std::unordered_map<std::string, size_t> group_of;
    for (size_t i = 0; i < jobs.size(); i++) {
        auto [it, fresh] =
            group_of.emplace(makeKey(jobs[i]).str(), groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }

    auto run_group = [&](const std::vector<size_t> &group) {
        util::Status failed;
        try {
            if (BIOPERF_FAILPOINT("pool.task.throw"))
                throw util::StatusError(util::Status::internal(
                    "fail point pool.task.throw fired"));
            std::vector<const Job *> members;
            for (size_t i : group)
                members.push_back(&jobs[i]);
            apps::AppRun run = makeWorkload(makeKey(*members.front()));
            std::vector<Result> rs = analyse(Source(run), members);
            for (size_t m = 0; m < group.size(); m++)
                results[group[m]] = std::move(rs[m]);
        } catch (const util::StatusError &e) {
            failed = e.status();
        } catch (const std::exception &e) {
            failed = util::Status::internal(
                std::string("sweep worker: ") + e.what());
        }
        if (!failed.ok())
            for (size_t i : group) {
                results[i] = Result{};
                results[i].status = failed;
            }
    };

    if (threads == 0)
        threads = util::ThreadPool::defaultThreads();
    if (threads <= 1 || groups.size() <= 1) {
        for (const std::vector<size_t> &group : groups)
            run_group(group);
    } else {
        apps::bioperfApps();
        util::ThreadPool pool(static_cast<unsigned>(
            std::min<size_t>(threads, groups.size())));
        std::vector<std::future<void>> done;
        done.reserve(groups.size());
        for (const std::vector<size_t> &group : groups)
            done.push_back(
                pool.submit([&run_group, &group] { run_group(group); }));
        for (std::future<void> &f : done)
            f.get();
    }
    return results;
}

} // namespace

std::vector<TimingResult>
Simulator::sweep(const std::vector<SweepJob> &jobs, unsigned threads)
{
    return runAll<SweepJob, TimingResult>(jobs, threads);
}

std::vector<TimingResult>
Simulator::sweep(const std::vector<SweepJob> &jobs,
                 const SweepOptions &opts)
{
    if (opts.statsOut)
        *opts.statsOut = TraceCache::Stats{};
    return sweep(jobs, opts.threads);
}

std::vector<CharacterizationResult>
Simulator::characterizeSweep(const std::vector<CharacterizeJob> &jobs,
                             unsigned threads)
{
    return runAll<CharacterizeJob, CharacterizationResult>(jobs, threads);
}

SpeedupResult
Simulator::speedup(const apps::AppInfo &app,
                   const cpu::PlatformConfig &platform,
                   apps::Scale scale, uint64_t seed, unsigned threads)
{
    std::vector<SweepJob> jobs(2);
    jobs[0].app = &app;
    jobs[0].platform = platform;
    jobs[0].variant = apps::Variant::Baseline;
    jobs[0].scale = scale;
    jobs[0].seed = seed;
    jobs[1] = jobs[0];
    jobs[1].variant = apps::Variant::Transformed;
    std::vector<TimingResult> timed = sweep(jobs, threads);
    return SpeedupResult::of(std::move(timed[0]), std::move(timed[1]));
}

} // namespace bioperf::core
