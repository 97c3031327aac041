#include "core/simulator.h"

#include <algorithm>
#include <chrono>
#include <future>
#include <unordered_map>

#include "regalloc/linear_scan.h"
#include "util/failpoint.h"
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

CharacterizationResult
Simulator::characterize(const Source &src)
{
    profile::InstructionMixProfiler mix;
    profile::LoadCoverageProfiler coverage;
    profile::CacheProfiler cache;
    profile::LoadBranchProfiler loadBranch;
    const Source::Outcome out =
        src.drive({ &mix, &coverage, &cache, &loadBranch });

    CharacterizationResult res;
    res.status = out.status;
    res.instructions = out.instructions;
    res.verified = out.verified;
    res.mix = mix.summary();
    res.coverage = coverage.summary();
    res.cache = cache.summary();
    res.loadBranch = loadBranch.summary();
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
        const cpu::TimingCore &core = *stacks[i]->core;
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

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

TraceKey
makeKey(const SweepJob &job)
{
    TraceKey key;
    key.app = job.app;
    key.variant = job.variant;
    key.scale = job.scale;
    key.seed = job.seed;
    key.registerPressure = job.registerPressure;
    if (job.registerPressure) {
        key.intRegs = job.platform.core.numIntRegs;
        key.fpRegs = job.platform.core.numFpRegs;
    }
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

template <typename Result>
util::Status
firstError(const std::vector<Result> &results)
{
    for (const Result &r : results)
        if (!r.status.ok())
            return r.status;
    return {};
}

/**
 * Fan @a jobs out in groups and collect results in job order. The app
 * registry is touched once up front so the workers never race on its
 * lazy initialization.
 *
 * Grouping: all jobs of one key form one group, and each group is one
 * task, on the calling thread or on one pool worker. A group rides a
 * single pass with every member's sinks on it: one live
 * interpretation, or one replay of the caller's cached trace. Results
 * are bit-identical either way and for any thread count.
 *
 * Recording: only when the caller supplies SweepOptions::cache; a
 * cache-less sweep runs every group live. Since one key is one task,
 * a sweep never asks its cache for one key from two threads.
 */
template <typename Job, typename Result>
std::vector<Result>
runAll(const std::vector<Job> &jobs, const SweepOptions &opts)
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
    TraceCache *cache = opts.cache;

    auto members_of = [&](const std::vector<size_t> &group) {
        std::vector<const Job *> members;
        for (size_t i : group)
            members.push_back(&jobs[i]);
        return members;
    };
    auto live = [&](const std::vector<size_t> &group) {
        apps::AppRun run = makeWorkload(makeKey(jobs[group.front()]));
        std::vector<Result> rs = analyse(Source(run), members_of(group));
        for (size_t m = 0; m < group.size(); m++)
            results[group[m]] = std::move(rs[m]);
    };

    // Degradation ladder of a cached group, in preference order:
    // replay the cached trace; if recording failed (after its retry),
    // interpret live; if a replay decoded corrupt data, quarantine the
    // entry, re-record and retry once, then interpret live. A job only
    // carries a failed Status when every rung failed — and even then
    // its slot is a well-formed Result, so the sweep always returns
    // jobs.size() entries.
    auto run_group_impl = [&](const std::vector<size_t> &group) {
        if (BIOPERF_FAILPOINT("pool.task.throw"))
            throw util::StatusError(util::Status::internal(
                "fail point pool.task.throw fired"));
        if (!cache)
            return live(group);
        const int n = static_cast<int>(group.size());
        const TraceKey key = makeKey(jobs[group.front()]);
        const std::vector<const Job *> members = members_of(group);
        auto fall_back = [&](const util::Status &why) {
            for (size_t i : group) {
                cache->noteLiveFallback(key, why);
                live({ i });
            }
        };
        // One obtain() per member keeps record/hit accounting
        // independent of the grouping.
        util::StatusOr<TraceCache::Ptr> got = cache->obtain(key);
        for (int m = 1; m < n && got.ok(); m++)
            got = cache->obtain(key);
        if (!got.ok())
            return fall_back(got.status());
        TraceCache::Ptr trace = got.value();
        const double t0 = wallNow();
        std::vector<Result> rs = analyse(Source(*trace), members);
        if (util::Status err = firstError(rs); !err.ok()) {
            cache->quarantine(key, err);
            trace.reset();
            got = cache->obtain(key);
            if (got.ok()) {
                trace = got.value();
                rs = analyse(Source(*trace), members);
                err = firstError(rs);
            }
            if (!got.ok() || !err.ok())
                return fall_back(got.ok() ? err : got.status());
        }
        // One pass delivered the full stream to every member, so the
        // effective replayed-instruction count is per consumer.
        cache->noteReplay(wallNow() - t0,
                          trace->instructions * static_cast<uint64_t>(n));
        for (int m = 0; m < n; m++)
            results[group[m]] = std::move(rs[m]);
    };
    auto run_group = [&](const std::vector<size_t> &group) {
        util::Status failed;
        try {
            run_group_impl(group);
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

    const unsigned threads = opts.threads == 0
                                 ? util::ThreadPool::defaultThreads()
                                 : opts.threads;
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
    if (opts.statsOut)
        *opts.statsOut = cache ? cache->stats() : TraceCache::Stats{};
    return results;
}

} // namespace

std::vector<TimingResult>
Simulator::sweep(const std::vector<SweepJob> &jobs, unsigned threads)
{
    SweepOptions opts;
    opts.threads = threads;
    return sweep(jobs, opts);
}

std::vector<TimingResult>
Simulator::sweep(const std::vector<SweepJob> &jobs,
                 const SweepOptions &opts)
{
    return runAll<SweepJob, TimingResult>(jobs, opts);
}

std::vector<CharacterizationResult>
Simulator::characterizeSweep(const std::vector<CharacterizeJob> &jobs,
                             unsigned threads)
{
    SweepOptions opts;
    opts.threads = threads;
    return characterizeSweep(jobs, opts);
}

std::vector<CharacterizationResult>
Simulator::characterizeSweep(const std::vector<CharacterizeJob> &jobs,
                             const SweepOptions &opts)
{
    return runAll<CharacterizeJob, CharacterizationResult>(jobs, opts);
}

SpeedupResult
Simulator::speedup(const apps::AppInfo &app,
                   const cpu::PlatformConfig &platform,
                   apps::Scale scale, uint64_t seed, unsigned threads,
                   TraceCache *cache)
{
    std::vector<SweepJob> jobs(2);
    jobs[0].app = &app;
    jobs[0].platform = platform;
    jobs[0].variant = apps::Variant::Baseline;
    jobs[0].scale = scale;
    jobs[0].seed = seed;
    jobs[1] = jobs[0];
    jobs[1].variant = apps::Variant::Transformed;
    SweepOptions opts;
    opts.threads = threads;
    // With a persistent cache both variants are recorded, so later
    // calls (other platforms, other predictors) replay instead of
    // re-interpreting and re-rewriting the same workload pair.
    opts.cache = cache;
    std::vector<TimingResult> timed = sweep(jobs, opts);

    SpeedupResult res;
    res.baseline = timed[0];
    res.transformed = timed[1];
    res.speedup = res.transformed.cycles == 0
                      ? 0.0
                      : static_cast<double>(res.baseline.cycles) /
                            static_cast<double>(res.transformed.cycles);
    return res;
}

} // namespace bioperf::core
