#ifndef BIOPERF_CORE_TRACE_CACHE_H_
#define BIOPERF_CORE_TRACE_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/app.h"
#include "util/metrics.h"
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
     * Canonical string form, used as the cache map key and in
     * manifests; app identity is by name (AppInfo objects may be
     * registry copies).
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
 * Keyed store of recorded traces for record-once/replay-many runs.
 * Benches and callers of Simulator::speedup() or sweep() hold one to
 * reuse recordings across calls; a sweep without one never records.
 *
 * Thread-safe: a mutex guards the map and the stats. obtain() records
 * outside the lock, so two callers racing to one absent key both
 * record and share the first trace inserted. A sweep runs each key as
 * one task, so it never races itself this way.
 *
 * Failure semantics: a recording that fails is retried once; if the
 * retry also fails, the caller receives the Status and nothing is
 * cached, so a later obtain() re-attempts. quarantine() evicts an
 * entry whose payload failed decode so the next obtain() re-records
 * rather than looping on corrupt data.
 */
class TraceCache
{
  public:
    using Ptr = std::shared_ptr<const CachedTrace>;

    /** One degradation event, for run-manifest `failures` entries. */
    struct Incident
    {
        std::string stage; ///< "trace_record", "trace_quarantine", ...
        std::string key;   ///< TraceKey::str() of the workload
        std::string error; ///< formatted Status
    };

    /** Aggregate record/replay cost, for RunManifest stages. */
    struct Stats
    {
        uint64_t records = 0;
        uint64_t hits = 0;
        double recordSeconds = 0.0;
        uint64_t recordedInstructions = 0;
        double replaySeconds = 0.0;
        uint64_t replayedInstructions = 0;
        /** Recordings retried after a first failure. */
        uint64_t recordRetries = 0;
        /** Recordings that failed even after the retry. */
        uint64_t recordFailures = 0;
        /** Entries evicted because their payload failed decode. */
        uint64_t quarantined = 0;
        /** Sweep jobs that fell back to live execution. */
        uint64_t liveFallbacks = 0;
        std::vector<Incident> incidents;

        /**
         * Appends "trace_record" / "trace_replay" stages (wall time +
         * instructions, hence effective MIPS) when non-empty, so
         * BENCH artifacts separate capture cost from analysis cost.
         */
        void addStagesTo(util::RunManifest &manifest) const;

        /** Appends one manifest failure entry per incident. */
        void addFailuresTo(util::RunManifest &manifest) const;
    };

    /**
     * Returns the trace for @a key, recording it on first use
     * (build the app run, apply the register-pressure rewrite if the
     * key asks for it, interpret the full workload once with a
     * TraceRecorder attached, verify against the golden model). A
     * failed recording is retried once; a persistent failure is
     * returned and nothing is cached.
     */
    util::StatusOr<Ptr> obtain(const TraceKey &key);

    /** The cached trace, or null when absent. */
    Ptr lookup(const TraceKey &key) const;

    /**
     * Evicts @a key because its payload failed decode (@a why), so
     * the next obtain() re-records instead of replaying corrupt data.
     */
    void quarantine(const TraceKey &key, const util::Status &why);

    /** Records that a sweep job degraded to live execution. */
    void noteLiveFallback(const TraceKey &key, const util::Status &why);

    size_t size() const;
    /** Encoded bytes across all resident traces. */
    size_t totalBytes() const;

    Stats stats() const;
    /** Accounts one replay's cost (called by the replay paths). */
    void noteReplay(double seconds, uint64_t instructions);

    /**
     * One-shot record with no caching or retry (CLI --trace-out,
     * benches). Fails with kUnavailable under the cache.record.fail
     * fail point and surfaces interpreter/regalloc invariant errors
     * as statuses instead of terminating.
     */
    static util::StatusOr<Ptr> record(const TraceKey &key);

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::string, Ptr> entries_;
    Stats stats_;
};

} // namespace bioperf::core

#endif // BIOPERF_CORE_TRACE_CACHE_H_
