#ifndef BIOPERF_CPU_TIMING_CORE_H_
#define BIOPERF_CPU_TIMING_CORE_H_

#include <cstdint>
#include <vector>

#include "branch/predictors.h"
#include "cpu/core_config.h"
#include "cpu/decoded_instr.h"
#include "cpu/load_accel.h"
#include "mem/hierarchy.h"
#include "util/metrics.h"
#include "vm/trace.h"

namespace bioperf::cpu {

/**
 * What the trace-driven timing cores share: the borrowed hierarchy and
 * predictor, the per-sid decode table and register scoreboard, and the
 * counters a timing result reads. OooCore and InorderCore differ only
 * in how step() schedules an instruction, so every consumer (timing
 * runs, sampling, benches) drives and reads either through this type
 * instead of switching on the core kind.
 */
class TimingCore : public vm::TraceSink, public util::Reportable
{
  public:
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

    util::json::Value report() const override;

  protected:
    /** The hierarchy and predictor are borrowed, not owned. */
    TimingCore(const char *model, const CoreConfig &config,
               mem::CacheHierarchy *caches,
               branch::BranchPredictor *predictor);

    const char *model_;
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
};

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_TIMING_CORE_H_
