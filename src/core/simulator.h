#ifndef BIOPERF_CORE_SIMULATOR_H_
#define BIOPERF_CORE_SIMULATOR_H_

#include <string>
#include <vector>

#include "apps/app.h"
#include "core/sampling.h"
#include "core/trace_cache.h"
#include "cpu/platforms.h"
#include "profile/cache_profiler.h"
#include "profile/execution_counts.h"
#include "profile/load_branch.h"
#include "util/metrics.h"
#include "vm/trace.h"

namespace bioperf::core {

/**
 * One static load's row of the per-load table (Table 5): execution
 * frequency, L1 misses, the behaviour of the branch that follows it,
 * and the source mapping the Section 3 methodology points at.
 */
struct LoadProfile
{
    uint32_t sid = 0;
    uint64_t execs = 0;
    uint64_t l1Misses = 0;
    /** Executions and mispredictions of the first branch after it. */
    uint64_t nextBranchExecs = 0;
    uint64_t nextBranchMisses = 0;
    int32_t line = -1;
    std::string function;
    std::string file;
    std::string region;

    /** Fraction of all dynamic loads this static load accounts for. */
    double frequency = 0.0;
    double l1MissRate() const;
    double nextBranchMissRate() const;

    bool operator==(const LoadProfile &) const = default;
};

/**
 * Results of one full characterization pass (the repository's
 * ATOM-equivalent): instruction mix, static-load coverage, cache
 * behaviour, load/branch sequence analysis and the per-load table,
 * all collected in a single interpretation of the workload.
 *
 * Each analysis's numbers leave it only through its value-type
 * summary, filled by characterize() from the profilers at run end.
 */
struct CharacterizationResult
{
    profile::MixSummary mix;
    profile::CoverageSummary coverage;
    profile::CacheSummary cache;
    profile::LoadBranchSummary loadBranch;
    /**
     * Every executed static load, most executed first (Table 5 and
     * findCandidates() read it). Not part of report().
     */
    std::vector<LoadProfile> loads;
    uint64_t instructions = 0;
    bool verified = false;
    /**
     * OK for a complete characterization. A run that failed (fail
     * point, corrupt replay, worker exception, interpreter invariant)
     * carries the failure here with its counters
     * zero or partial; report() never includes it — failures are
     * surfaced through the run manifest instead.
     */
    util::Status status;

    /** Full metric tree: summaries plus instruction count/verify. */
    util::json::Value report() const;
};

/** Results of one timing simulation on a platform. */
struct TimingResult
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t mispredicts = 0;
    double ipc = 0.0;
    double seconds = 0.0;
    bool verified = false;
    /** OK for a complete run (see CharacterizationResult::status). */
    util::Status status;

    util::json::Value report() const;
};

/** Result of one baseline-vs-transformed speedup comparison. */
struct SpeedupResult
{
    TimingResult baseline;
    TimingResult transformed;
    /** baseline.cycles / transformed.cycles; 0 when undefined. */
    double speedup = 0.0;

    /** The comparison of @a baseline with @a transformed. */
    static SpeedupResult of(TimingResult baseline,
                            TimingResult transformed);

    bool verified() const
    {
        return baseline.verified && transformed.verified;
    }

    util::json::Value report() const;
};

/**
 * One independent timing job of a sweep: build the application at
 * (variant, scale, seed), rewrite it for the platform's architectural
 * register counts, and time it on the platform.
 */
struct SweepJob
{
    const apps::AppInfo *app = nullptr;
    cpu::PlatformConfig platform;
    apps::Variant variant = apps::Variant::Baseline;
    apps::Scale scale = apps::Scale::Small;
    uint64_t seed = 42;
};

/** One independent characterization job of a sweep. */
struct CharacterizeJob
{
    const apps::AppInfo *app = nullptr;
    apps::Variant variant = apps::Variant::Baseline;
    apps::Scale scale = apps::Scale::Medium;
    uint64_t seed = 42;
};

/**
 * How a sweep schedules its jobs. The jobs of one workload always
 * ride one live pass, on the calling thread or on one pool worker, so
 * the thread count changes wall time and memory, never results.
 */
struct SweepOptions
{
    /** As in sweep(): 0 = pool default, 1 = calling thread. */
    unsigned threads = 0;

    /**
     * When non-null, zero-filled after the call: a sweep records and
     * replays nothing. Kept for the repository benchmark (perfbench/),
     * which reads it.
     */
    TraceCache::Stats *statsOut = nullptr;
};

/**
 * Where a run's dynamic instruction stream comes from: a live workload
 * (interpreted now) or a recorded trace (decoded). Both deliver the
 * same stream to the same sinks through onBatch(), so the analyses
 * take a Source and never branch on which one they were given. Holds
 * a reference; the run or trace must outlive the Source.
 */
class Source
{
  public:
    // Implicit, so characterize(run) and time(trace, platform) read
    // the same whichever stream the caller holds.
    Source(apps::AppRun &run) : run_(&run) {}
    Source(const CachedTrace &trace) : trace_(&trace) {}

    struct Outcome
    {
        util::Status status;
        /** Instructions delivered to the sinks. */
        uint64_t instructions = 0;
        /**
         * Golden-model verdict: run.verify() once a live driver
         * completes without error; for a trace, the verdict captured
         * at record time. False whenever status is not OK.
         */
        bool verified = false;
    };

    /**
     * Delivers the whole stream to @a sinks once. A live run can be
     * driven only once (the workload's state is consumed).
     */
    Outcome drive(const std::vector<vm::TraceSink *> &sinks) const;

    /** The program whose instructions the stream's events name. */
    const ir::Program &program() const
    {
        return trace_ ? *trace_->prog : *run_->prog;
    }

  private:
    apps::AppRun *run_ = nullptr;
    const CachedTrace *trace_ = nullptr;
};

/**
 * One-stop driver tying applications to the analysis stack. Every
 * analysis takes a Source, so live and replayed runs share one entry
 * point; results are bit-identical between the two.
 */
class Simulator
{
  public:
    /**
     * Characterizes @a src under the Table 3 reference cache model:
     * one execution count (mix and coverage), the cache profiler and
     * the load/branch profiler ride one pass over the stream, and the
     * per-load table is assembled from their counters.
     */
    static CharacterizationResult characterize(const Source &src);

    /**
     * Times @a src on @a platform (OoO or in-order per config). A
     * trace must have been recorded with the platform's register file
     * when register pressure matters (TraceKey::registerPressure).
     */
    static TimingResult time(const Source &src,
                             const cpu::PlatformConfig &platform);

    /**
     * Times @a src on several platforms in one pass: every platform's
     * core (with its own caches and predictor) rides the same stream,
     * so a trace is decoded — or a workload interpreted — once however
     * many cores it feeds. Results, in @a platforms order, are
     * bit-identical to one time() call per platform.
     */
    static std::vector<TimingResult> time(
        const Source &src,
        const std::vector<const cpu::PlatformConfig *> &platforms);

    /**
     * time() on a recorded trace. Kept because the repository
     * benchmark (perfbench/) calls it by this name.
     */
    static TimingResult timeReplay(const CachedTrace &trace,
                                   const cpu::PlatformConfig &platform)
    {
        return time(trace, platform);
    }

    /**
     * Rewrites every function of the application for the platform's
     * architectural register counts, inserting spill code. Call
     * before time() when modeling register pressure (Pentium 4).
     *
     * @return total spill instructions inserted
     */
    static uint32_t applyRegisterPressure(
        apps::AppRun &run, const cpu::PlatformConfig &platform);

    /** As above, with explicit register counts (see makeWorkload()). */
    static uint32_t applyRegisterPressure(apps::AppRun &run,
                                          uint32_t int_regs,
                                          uint32_t fp_regs);

    /**
     * Convenience: baseline-vs-transformed speedup of @a app on
     * @a platform, as the paper reports it (original time divided by
     * transformed time), with register pressure applied to both.
     * Implemented as a two-job sweep(); @a threads as there (1 = the
     * calling thread, the default; 0 = the default pool width).
     * Results are bit-identical for any thread count. To compare
     * several platforms of one app, sweep() all their jobs at once:
     * the jobs that share a workload then share its live pass.
     */
    static SpeedupResult speedup(const apps::AppInfo &app,
                                 const cpu::PlatformConfig &platform,
                                 apps::Scale scale, uint64_t seed,
                                 unsigned threads = 1);

    /**
     * Runs independent timing jobs concurrently on a util::ThreadPool
     * and returns results in job order. Each job owns its caches,
     * predictor and core, so results are bit-identical for any thread
     * count.
     *
     * Jobs that run one program form one task: one live pass
     * (interpret once) with every member's core on it (see time()).
     * Jobs of one (app, variant, scale, seed) share it when their
     * register-pressure rewrites give the same program, compared
     * instruction by instruction (the rewrite runs once per register
     * file); a register file alone decides nothing. Tasks run on the
     * calling thread or on the pool's workers.
     *
     * @param threads 0 = ThreadPool::defaultThreads() (honours the
     *        BIOPERF_THREADS environment variable); 1 = run inline on
     *        the calling thread.
     */
    static std::vector<TimingResult> sweep(
        const std::vector<SweepJob> &jobs, unsigned threads = 0);
    static std::vector<TimingResult> sweep(
        const std::vector<SweepJob> &jobs, const SweepOptions &opts);

    /** Parallel counterpart of characterize() over many jobs. */
    static std::vector<CharacterizationResult> characterizeSweep(
        const std::vector<CharacterizeJob> &jobs, unsigned threads = 0);
};

} // namespace bioperf::core

#endif // BIOPERF_CORE_SIMULATOR_H_
