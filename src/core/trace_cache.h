#ifndef BIOPERF_CORE_TRACE_CACHE_H_
#define BIOPERF_CORE_TRACE_CACHE_H_

#include <cstdint>
#include <cstdio>
#include <future>
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
 * Keyed store of recorded traces for record-once/replay-many sweeps.
 *
 * Thread-safe and single-flight: concurrent obtain() calls for one
 * key block until the single recording finishes, then share the same
 * immutable CachedTrace. Simulator::sweep()/characterizeSweep() use
 * an ephemeral per-call cache by default (recording only workloads
 * shared by ≥2 jobs, evicted after their last use); benches hold a
 * persistent instance to reuse recordings across calls.
 *
 * Failure semantics: a recording that fails is retried once inside
 * the same single-flight slot; if the retry also fails, every waiter
 * receives the Status and the entry is dropped so a later obtain()
 * re-attempts instead of replaying a poisoned future forever.
 * quarantine() evicts an entry whose payload failed decode so the
 * next lookup re-records rather than looping on corrupt data.
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
     * returned to every waiter and the entry is dropped.
     */
    util::StatusOr<Ptr> obtain(const TraceKey &key);

    /** The cached trace, or null when absent, failed or recording. */
    Ptr lookup(const TraceKey &key) const;

    /** Registers an externally produced trace (e.g. a loaded file). */
    void insert(const TraceKey &key, Ptr trace);

    /**
     * Evicts @a key because its payload failed decode (@a why), so
     * the next obtain() re-records instead of replaying corrupt data.
     */
    void quarantine(const TraceKey &key, const util::Status &why);

    /** Records that a sweep job degraded to live execution. */
    void noteLiveFallback(const TraceKey &key, const util::Status &why);

    void erase(const TraceKey &key);
    void clear();

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
    std::unordered_map<std::string,
                       std::shared_future<util::StatusOr<Ptr>>>
        entries_;
    Stats stats_;
};

/**
 * On-disk .bptrace persistence. The file stores the *recipe* (app,
 * variant, scale, seed, register file) plus the encoded chunks — not
 * the program, which the loader rebuilds deterministically from the
 * registry and validates by sid-space fingerprint. Layout: versioned
 * header, identity block, per-chunk framing, trailer (see
 * trace_cache.cc for the field list). v3 adds a CRC32C per chunk
 * payload, per-chunk flags, and a whole-file metadata digest; v2
 * files are still readable (without integrity checks).
 */

/**
 * Writes @a trace as a v3 .bptrace. kIoError on open/write failure
 * (including a short write forced by the trace.write.short fail
 * point); the file contents are unspecified after a failure.
 */
util::Status saveTraceFile(const std::string &path, const TraceKey &key,
                           const CachedTrace &trace);

struct TraceLoadResult
{
    TraceKey key;
    TraceCache::Ptr trace;
    /** OK on success; on failure @a trace is null. */
    util::Status status;
};

/**
 * Loads, validates (magic, version, chunk framing, checksums, trailer
 * count, full decode) and re-materializes the replay program for a
 * saved trace. Built on TraceFileStream, so validation decodes each
 * chunk as it streams off disk in a single pass.
 */
TraceLoadResult loadTraceFile(const std::string &path);

/**
 * Best-effort recovery from a truncated or bit-flipped .bptrace.
 * The header must be intact (it holds the recipe; without it there is
 * nothing to replay against). Chunks are re-scanned tolerantly, each
 * keyframe-aligned group whose chunks all pass checksum + decode
 * validation is kept, and everything else is dropped; the surviving
 * groups form a gap-marked in-memory trace that replays and samples
 * through the normal APIs (cores drain on each gap via
 * TraceSink::onGap()). The salvaged trace's verified flag is always
 * false — the golden-model verdict applied to the full stream, not
 * to a subset.
 */
struct TraceSalvageResult
{
    TraceKey key;
    /** Salvaged trace; null when nothing was recoverable. */
    TraceCache::Ptr trace;
    /** Instruction count the header claimed. */
    uint64_t totalInstructions = 0;
    uint64_t recoveredInstructions = 0;
    uint64_t lostInstructions = 0;
    size_t totalChunks = 0;
    size_t recoveredChunks = 0;
    size_t lostChunks = 0;
    /** Discontinuities in the salvaged stream (onGap() sites). */
    size_t gaps = 0;
    /** OK when at least one keyframe region was recovered. */
    util::Status status;
};

TraceSalvageResult salvageTraceFile(const std::string &path);

/**
 * Rebuilds the replay program for @a key from the app registry and
 * checks its sid space against @a sid_limit, the recording's
 * fingerprint. Shared by loadTraceFile() and the streaming consumers
 * (bioperfsim --trace-in, file-based sampling).
 */
util::Status buildReplayProgram(const TraceKey &key, uint32_t sid_limit,
                                std::unique_ptr<ir::Program> &out);

/**
 * Chunk-at-a-time .bptrace reader. open() validates the header,
 * scans the chunk framing into an in-memory index (payloads are
 * skipped, not read), and cross-checks the trailer — for v3 files
 * this includes the whole-file metadata digest — so a valid stream
 * never holds more than one chunk's bytes in memory, and
 * seekToChunk() gives random access at keyframe granularity for
 * sampled replay. next() verifies each v3 chunk's payload CRC32C as
 * it is read.
 *
 * Decode validation is NOT performed here; consumers decode through
 * TraceReplayer, which reports corrupt payloads as statuses.
 */
class TraceFileStream
{
  public:
    TraceFileStream() = default;
    ~TraceFileStream();

    TraceFileStream(const TraceFileStream &) = delete;
    TraceFileStream &operator=(const TraceFileStream &) = delete;

    /**
     * Opens and validates @a path, leaving the reader positioned at
     * chunk 0.
     */
    util::Status open(const std::string &path);

    /** Workload identity (app resolved against the registry). */
    const TraceKey &key() const { return key_; }
    uint32_t sidLimit() const { return sid_limit_; }
    uint64_t instructions() const { return instructions_; }
    uint64_t runs() const { return runs_; }
    uint32_t spills() const { return spills_; }
    bool verified() const { return verified_; }
    uint32_t keyframeInterval() const { return keyframe_interval_; }
    /** True for v3 files (per-chunk CRCs + metadata digest). */
    bool hasIntegrity() const { return has_integrity_; }

    size_t numChunks() const { return index_.size(); }
    uint64_t chunkStartSeq(size_t idx) const
    {
        return index_[idx].startSeq;
    }
    uint32_t chunkNumEvents(size_t idx) const
    {
        return index_[idx].numEvents;
    }
    bool isKeyframe(size_t idx) const
    {
        return idx % keyframe_interval_ == 0;
    }

    /** Positions the reader at chunk @a idx (must be < numChunks()). */
    util::Status seekToChunk(size_t idx);

    /**
     * Reads the chunk at the current position into @a chunk (reusing
     * its buffer), verifies its payload CRC on v3 files, and
     * advances. @return false at end of the chunk list or on failure
     * (@a error is set only for failures: kIoError for short reads,
     * kCorruptData for checksum mismatches).
     */
    bool next(vm::EncodedTrace::Chunk &chunk, util::Status &error);

  private:
    struct ChunkInfo
    {
        uint64_t offset = 0; ///< file offset of the payload bytes
        uint64_t startSeq = 0;
        uint32_t numEvents = 0;
        uint32_t bitmapOffset = 0;
        uint32_t byteLen = 0;
        uint32_t crc = 0; ///< payload CRC32C (v3)
        bool gapBefore = false;
    };

    std::FILE *file_ = nullptr;
    std::vector<ChunkInfo> index_;
    size_t next_chunk_ = 0;
    TraceKey key_;
    uint32_t sid_limit_ = 0;
    uint64_t instructions_ = 0;
    uint64_t runs_ = 0;
    uint32_t spills_ = 0;
    bool verified_ = false;
    uint32_t keyframe_interval_ = 1;
    bool has_integrity_ = false;
};

} // namespace bioperf::core

#endif // BIOPERF_CORE_TRACE_CACHE_H_
