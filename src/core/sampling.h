#ifndef BIOPERF_CORE_SAMPLING_H_
#define BIOPERF_CORE_SAMPLING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "branch/predictors.h"
#include "core/trace_file.h"
#include "cpu/outcome_stage.h"
#include "cpu/platforms.h"
#include "mem/hierarchy.h"
#include "util/metrics.h"
#include "vm/trace.h"

namespace bioperf::core {

/**
 * @file
 * Sampled timing simulation (SMARTS-style systematic sampling).
 *
 * Full detailed replay pays the cycle model for every instruction.
 * Sampling splits the trace at keyframe boundaries into independent
 * shards; from each shard only a randomly-placed keyframe-aligned
 * *window* of chunks is decoded at all — the rest is skipped without
 * decoding, which is what keyframes buy. Within a window the stream
 * first warms functionally (caches and branch predictor updated, no
 * cycle model) for at least minWarm instructions, then alternates
 * functional warming with *detailed measurement* intervals (the real
 * core model, preceded by a short detailed warm-up that refills
 * pipeline state). Per-interval CPI observations merge into a mean
 * with a 95% confidence interval, and the mean projects to full-run
 * cycles.
 *
 * Sharding is part of the estimator, not an execution detail: cache,
 * predictor and core state reset at every shard boundary in BOTH
 * sequential and parallel runs, so the merged result is bit-identical
 * for any thread count and shards can replay concurrently. The cost
 * is one cold-start per shard, absorbed by each interval's warming.
 */

/** Knobs of the sampling estimator. All lengths in instructions. */
struct SamplingOptions
{
    /** Instructions measured under the detailed core per interval. */
    uint64_t detailLen = 20'000;
    /**
     * Detailed-but-unmeasured instructions before each measurement,
     * refilling pipeline/scoreboard state after a functional-warm
     * gap.
     */
    uint64_t warmupLen = 5'000;
    /**
     * Total instructions per sampling unit (one measurement per
     * interval); the remainder beyond warmupLen + detailLen runs
     * under functional warming only. detailLen / interval is the
     * target coverage within a decoded window.
     */
    uint64_t interval = 200'000;
    /**
     * Functional-warm instructions required at the head of each
     * shard's decoded window before its first measurement. A window
     * enters the stream with cold caches; measurements taken before
     * the warm state converges read biased (high) CPI, so they are
     * simply not scheduled until this much warming has run.
     */
    uint64_t minWarm = 1'000'000;
    /** Seeds the per-shard window placement and phase offset. */
    uint64_t seed = 42;
    /**
     * Worker threads for shard replay: 1 = calling thread (default),
     * 0 = util::ThreadPool::defaultThreads(). Results are identical
     * for any value.
     */
    unsigned threads = 1;
    /**
     * Chunks per shard, rounded up to a keyframe multiple; 0 = eight
     * keyframe groups per shard (128 chunks at the recorder default).
     */
    uint32_t shardChunks = 0;
    /**
     * Chunks actually decoded per shard: a window of this many
     * chunks, placed at a random keyframe-aligned position inside
     * the shard (a pure function of seed and shard index), is warmed
     * and measured; the rest of the shard is skipped outright — the
     * next window re-enters the stream at its own keyframe. This is
     * where the wall-clock win beyond detail-fraction reduction comes
     * from: skipped chunks are never even decoded. Rounded up to a
     * keyframe multiple; 0 = three-eighths of the shard (48 chunks at
     * the defaults — wide enough for in-window warming to converge
     * past minWarm with room to measure).
     */
    uint32_t windowChunks = 0;
};

/** Outcome of one sampled timing run. */
struct SampledTimingResult
{
    /** Mean cycles per instruction over measured intervals. */
    double cpi = 0.0;
    /** 1 / cpi (0 when undefined). */
    double ipc = 0.0;
    /** Half-width of the 95% confidence interval on mean CPI. */
    double ci95 = 0.0;
    /** Coefficient of variation of per-interval CPI. */
    double cv = 0.0;
    /** Measured instructions / total trace instructions. */
    double coverage = 0.0;
    /** cpi × total instructions: the full-run cycle estimate. */
    double projectedCycles = 0.0;
    /** Projected simulated seconds at the platform clock. */
    double seconds = 0.0;
    uint64_t instructions = 0; ///< total in the trace
    uint64_t measuredInstructions = 0;
    uint64_t measuredCycles = 0;
    uint64_t measuredMispredicts = 0;
    uint64_t intervals = 0; ///< completed measurement intervals
    uint64_t shards = 0;
    /** Golden-model verdict captured at record time. */
    bool verified = false;
    /**
     * True when the trace was too short for even one interval and
     * the estimator fell back to full detailed replay (coverage 1,
     * ci95 0).
     */
    bool exhaustive = false;
    /**
     * Shards dropped from the estimate (fail point, corrupt window
     * chunk). The survivors still merge into a valid — slightly
     * wider-CI — estimate; shardErrors holds one formatted Status per
     * dropped shard for run-manifest failure entries.
     */
    uint64_t failedShards = 0;
    std::vector<std::string> shardErrors;
    /**
     * OK when the run produced an estimate (possibly with dropped
     * shards); a failure means no shard survived or the reader could
     * not be constructed at all.
     */
    util::Status status;

    util::json::Value report() const;
};

/**
 * Functional warming: a cpu::OutcomeStage with no core attached. Every
 * memory operation makes the cache access and every conditional branch
 * the prediction a detailed core would make, through the same stage,
 * but no cycle is counted, which makes warming several times cheaper
 * than detailed modeling. No load accelerator is attached.
 */
class WarmupSink : public vm::TraceSink
{
  public:
    WarmupSink(const ir::Program &prog, mem::CacheHierarchy *caches,
               branch::BranchPredictor *predictor);

    void onBatch(const vm::DynInstr *batch, size_t n) override;

  private:
    /** What warming does for one sid. */
    struct Warm
    {
        cpu::DecodedInstr::Kind kind; ///< memoryKind() of its opcode
        bool isBranch;                ///< a conditional branch
    };
    std::vector<Warm> of_sid_;
    cpu::OutcomeStage outcomes_;
};

/**
 * Sampled timing of a recorded trace on @a platform. Deterministic in
 * (trace, platform, opts.seed, shard geometry); thread count never
 * changes the result.
 */
SampledTimingResult sampleTiming(const CachedTrace &trace,
                                 const cpu::PlatformConfig &platform,
                                 const SamplingOptions &opts);

/** Result of file-based sampling (no in-memory trace materialized). */
struct SampledFileResult
{
    SampledTimingResult result;
    TraceKey key;
    /** OK on success (mirrors result.status once the run starts). */
    util::Status status;
};

/**
 * Sampled timing straight from a .bptrace file: each worker opens its
 * own TraceFileStream and seeks to its shards' keyframes, so no more
 * than one chunk per worker is ever resident. Produces the same
 * result as loading the file and calling sampleTiming().
 */
SampledFileResult sampleTimingFile(const std::string &path,
                                   const cpu::PlatformConfig &platform,
                                   const SamplingOptions &opts);

} // namespace bioperf::core

#endif // BIOPERF_CORE_SAMPLING_H_
