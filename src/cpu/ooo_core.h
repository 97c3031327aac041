#ifndef BIOPERF_CPU_OOO_CORE_H_
#define BIOPERF_CPU_OOO_CORE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/timing_core.h"

namespace bioperf::cpu {

/** Per-instruction pipeline timestamps, exposed to the trace log. */
struct PipelineTimes
{
    uint64_t dispatch = 0;
    uint64_t issue = 0;
    uint64_t complete = 0;
    uint64_t retire = 0;
    bool mispredicted = false;
    uint32_t memLatency = 0;
};

/**
 * Trace-driven out-of-order core timing model.
 *
 * One pass over the dynamic instruction stream computes, for every
 * instruction, its dispatch, issue, completion and retirement cycles
 * under the configured widths, window size, operation latencies, data
 * cache hierarchy and branch predictor:
 *
 *  - dependences: an instruction issues once its source registers'
 *    producers have completed (register renaming is implicit — only
 *    true dependences constrain issue);
 *  - window: dispatch stalls when the ROB holds windowSize in-flight
 *    instructions;
 *  - issue bandwidth: at most issueWidth instructions begin execution
 *    per cycle;
 *  - loads: latency comes from the cache hierarchy, so even an L1 hit
 *    costs the multicycle hit latency the paper centers on;
 *  - branches: mispredictions redirect fetch to
 *    `completion + mispredictPenalty`, which reproduces both effects
 *    from Section 2.2: a load feeding a mispredicted branch delays
 *    its resolution (stretching the penalty), and loads fetched right
 *    after the redirect find an empty window, fully exposing their
 *    L1 hit latency.
 *
 * Being trace-driven, the model does not execute wrong-path
 * instructions; their resource consumption is approximated by the
 * fixed redirect penalty (standard for trace-driven studies).
 */
class OooCore final : public TimingCore
{
  public:
    using TraceLog = std::function<void(const vm::DynInstr &,
                                        const PipelineTimes &)>;

    /** The hierarchy and predictor are borrowed, not owned. */
    OooCore(const CoreConfig &config, mem::CacheHierarchy *caches,
            branch::BranchPredictor *predictor);

    /**
     * Installs a per-instruction observer (Figure 4 walkthrough). It
     * runs inside the scheduling loop: cycles() catches up only at
     * the end of each chunk, instructions() and
     * branchMispredictions() are already counted for the whole chunk.
     * A logged core steps every instruction (no memo replay).
     */
    void setTraceLog(TraceLog log);

  private:
    void step(const Resolved &r, size_t from, size_t to) override;
    template <bool kLogged>
    void stepRange(const Resolved &r, size_t from, size_t to);
    uint64_t frontier() const override { return hot_.fetchCycle; }
    bool canonicalize(std::vector<uint16_t> &words) const override;
    void materialize(const uint16_t *words, size_t len,
                     uint64_t f) override;
    bool
    memoizable() const override
    {
        // A state packs widths and counts into 4-bit fields.
        return !log_ && config_.fetchWidth <= 15 &&
               config_.issueWidth <= 15 && config_.retireWidth <= 15 &&
               rob_.size() <= 0xffff;
    }
    void clearPipeline() override;

    /**
     * Pipeline state carried from one instruction to the next; a
     * chunk works on a local copy. cycles_, the last retire cycle, is
     * also the cycle retirement is filling.
     */
    struct Hot
    {
        uint64_t fetchCycle = 1;
        uint32_t fetchSlotsUsed = 0;
        uint32_t retireUsed = 0; ///< retire slots used in cycles_
        size_t robPos = 0;       ///< ring cursor (avoids a hot modulo)
    };

    TraceLog log_;
    Hot hot_;

    std::vector<uint64_t> rob_; ///< retire cycles, ring of windowSize

    // Issue-bandwidth accounting: cycle-tagged slot counters, packed
    // as (cycle << 8) | used so one 8-byte load/store serves both.
    // Issue requests can reach back to an operand-ready cycle well
    // behind the fetch frontier, hence the persistent ring.
    std::vector<uint64_t> issue_slots_;
};

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_OOO_CORE_H_
