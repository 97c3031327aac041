#ifndef BIOPERF_CORE_TRACE_CACHE_H_
#define BIOPERF_CORE_TRACE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "apps/app.h"
#include "util/status.h"
#include "vm/trace_codec.h"

namespace bioperf::core {

/**
 * Workload identity of a recorded trace. Two jobs may share a trace
 * iff every field matches: the app factory is deterministic in
 * (variant, scale, seed), and the register-pressure rewrite — the
 * only pre-run program mutation the simulator performs — changes the
 * dynamic stream, so the platform's architectural register file is
 * part of the identity whenever the rewrite is applied. Caches and
 * predictors are *not* part of the key: they are sinks, and the trace
 * is pure functional execution.
 */
struct TraceKey
{
    const apps::AppInfo *app = nullptr;
    apps::Variant variant = apps::Variant::Baseline;
    apps::Scale scale = apps::Scale::Small;
    uint64_t seed = 42;
    /** Register-pressure rewrite applied before recording. */
    bool registerPressure = false;
    uint32_t intRegs = 0;
    uint32_t fpRegs = 0;

    /**
     * Canonical string form, used in manifests and as the sweep's
     * first grouping (the sweep then merges keys that differ only in
     * the register file when their rewritten programs are equal); app
     * identity is by name (AppInfo objects may be registry copies).
     */
    std::string str() const;
};

/**
 * The workload recipe behind @a key: builds the app run and, when the
 * key asks for it, applies the register-pressure rewrite for its
 * register file. Recording, replay-program rebuilding, sweep jobs and
 * the CLI all build workloads through here, so a live run and a trace
 * of the same key execute the same program. App factories and the
 * rewrite report invariant failures by throwing util::StatusError.
 *
 * @param spills when non-null, receives the spill instructions the
 *        rewrite inserted (0 without register pressure)
 */
apps::AppRun makeWorkload(const TraceKey &key, uint32_t *spills = nullptr);

/**
 * One recorded workload: the encoded stream plus the program it was
 * recorded from (replayed DynInstr entries point into this program,
 * so it must outlive every replay) and the run's golden-model
 * verdict. Replaying skips functional execution, so the verdict is
 * captured once at record time and reused — same recipe, same
 * deterministic outcome.
 */
struct CachedTrace
{
    std::unique_ptr<ir::Program> prog;
    vm::EncodedTrace trace;
    bool verified = false;
    uint64_t instructions = 0;
    /** Spill instructions inserted by the register-pressure rewrite. */
    uint32_t spills = 0;
};

/**
 * Recording of workloads into CachedTraces. Holds no traces itself:
 * the caller keeps the Ptr for as long as it replays (the CLI's
 * --trace-out, sampling, the repository benchmark). A sweep never
 * records; the jobs of one workload share one live pass instead.
 */
class TraceCache
{
  public:
    using Ptr = std::shared_ptr<const CachedTrace>;

    /**
     * Record/replay counters. SweepOptions::statsOut receives them;
     * since a sweep never records, they are always zero there. Kept
     * for the repository benchmark (perfbench/), which reads them.
     */
    struct Stats
    {
        uint64_t records = 0;
        uint64_t hits = 0;
        double recordSeconds = 0.0;
        double replaySeconds = 0.0;
    };

    /**
     * Records @a key: builds the app run, applies the
     * register-pressure rewrite if the key asks for it, interprets the
     * full workload once with a TraceRecorder attached and verifies it
     * against the golden model. No retry. Fails with kUnavailable
     * under the cache.record.fail fail point and surfaces
     * interpreter/regalloc invariant errors as statuses instead of
     * terminating.
     */
    static util::StatusOr<Ptr> record(const TraceKey &key);
};

} // namespace bioperf::core

#endif // BIOPERF_CORE_TRACE_CACHE_H_
