#ifndef BIOPERF_CPU_TIMING_CORE_H_
#define BIOPERF_CPU_TIMING_CORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "branch/predictors.h"
#include "cpu/core_config.h"
#include "cpu/decoded_instr.h"
#include "cpu/load_accel.h"
#include "mem/hierarchy.h"
#include "vm/trace.h"

namespace bioperf::cpu {

/**
 * What the trace-driven timing cores share: the borrowed hierarchy and
 * predictor, the per-sid decode table and register scoreboard, the
 * counters a timing result reads, and the resolution of every memory
 * and branch outcome. OooCore and InorderCore differ only in how
 * schedule() places instructions in time, so every consumer (timing
 * runs, sampling, benches) drives and reads either through this type
 * instead of switching on the core kind.
 *
 * Cache, accelerator and predictor outcomes depend only on the
 * instruction stream, never on timing, and each core's hierarchy and
 * predictor see only that core's stream. So onBatch() takes the
 * stream in chunks of kChunk events: resolve() runs a chunk's decode,
 * memory accesses and predictions in program order, then the core's
 * schedule() loop reads the outcomes with no call out of the loop.
 */
class TimingCore : public vm::TraceSink
{
  public:
    /** One event is a batch of one. */
    void onInstr(const vm::DynInstr &di) final { onBatch(&di, 1); }
    void onBatch(const vm::DynInstr *batch, size_t n) final;

    /**
     * Cycle at which the last instruction retired (out-of-order) or
     * completed (in-order).
     */
    uint64_t cycles() const { return cycles_; }
    uint64_t instructions() const { return instructions_; }
    uint64_t branchMispredictions() const { return mispredicts_; }
    double ipc() const;
    /** Simulated wall-clock seconds at the configured frequency. */
    double seconds() const;

    const CoreConfig &config() const { return config_; }

    /**
     * Installs a hardware load-latency-hiding unit (zero-cycle loads
     * or value prediction; borrowed). Pass nullptr to remove.
     */
    void setLoadAccelerator(LoadAccelerator *accel) { accel_ = accel; }

    /**
     * A new run starts with freshly zeroed registers whose values are
     * immediately available, so the scoreboard drains.
     */
    void onRunEnd() override;

    /**
     * A salvage gap in the trace: the producers of what follows were
     * never replayed, so the scoreboard drains as at a run boundary.
     * The cycle timeline keeps advancing — stale pipeline occupancy
     * only makes the salvaged estimate a touch conservative for a few
     * instructions after the gap.
     */
    void onGap() override;

    /**
     * Returns the core to its post-construction state (counters and
     * pipeline occupancy zeroed) while keeping the decode table —
     * static facts survive across shards. Borrowed cache/predictor
     * state is NOT touched; reset those separately.
     */
    virtual void reset();

  protected:
    /** The hierarchy and predictor are borrowed, not owned. */
    TimingCore(const CoreConfig &config,
               mem::CacheHierarchy *caches,
               branch::BranchPredictor *predictor);

    static constexpr size_t kChunk = 256;

    /**
     * One chunk's outcomes, indexed like the chunk's events. Entries
     * are copies: decoding a new sid may reallocate the decode table.
     */
    struct Resolved
    {
        DecodedInstr decoded[kChunk];
        /**
         * Execution latency: fixedLatency, the hierarchy's (and
         * accelerator's) latency for a load, 1 for a store or
         * prefetch.
         */
        uint32_t latency[kChunk];
        bool mispredicted[kChunk];
    };

    /**
     * Fills resolved_ for @a n <= kChunk events, in program order:
     * decode, cache access and accelerator, branch prediction. Counts
     * instructions_ and mispredicts_; may grow ready_.
     */
    void resolve(const vm::DynInstr *batch, size_t n);

    /**
     * Places the @a n events resolve() just handled in time, advancing
     * cycles_ and the core's pipeline state.
     */
    virtual void schedule(const vm::DynInstr *batch, size_t n) = 0;

    CoreConfig config_;
    mem::CacheHierarchy *caches_;
    branch::BranchPredictor *predictor_;
    LoadAccelerator *accel_ = nullptr;

    // Scoreboard: completion cycle of each register's latest writer,
    // indexed by DecodeTable's dense slots (slot 0 reads as always
    // ready, slot 1 absorbs dst-less writebacks).
    std::vector<uint64_t> ready_;

    uint64_t cycles_ = 0;
    uint64_t instructions_ = 0;
    uint64_t mispredicts_ = 0;

    /** Per-sid static facts, decoded once on first sight. */
    DecodeTable decode_;

    Resolved resolved_;
};

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_TIMING_CORE_H_
