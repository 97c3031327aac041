#ifndef BIOPERF_PROFILE_LOAD_BRANCH_H_
#define BIOPERF_PROFILE_LOAD_BRANCH_H_

#include <cstdint>
#include <vector>

#include "branch/predictors.h"
#include "util/json.h"
#include "vm/trace.h"

namespace bioperf::profile {

/** Value-type snapshot of the Table 4 sequence metrics. */
struct LoadBranchSummary
{
    uint64_t dynamicLoads = 0;
    double loadToBranchFraction = 0.0;
    double ltbBranchMissRate = 0.0;
    double loadAfterHardBranchFraction = 0.0;

    util::json::Value report() const;
};

/**
 * Detects the two problematic load sequences of Section 2.2 and
 * produces the Table 4 metrics:
 *
 *  (a) load-to-branch sequences — dynamic loads whose value reaches,
 *      through a register dependence chain of non-memory operations,
 *      the condition of a conditional branch within kChainWindow
 *      instructions; plus the dynamic misprediction rate of
 *      exactly those terminating branches;
 *
 *  (b) loads with tight dependence chains right after hard-to-predict
 *      branches — dynamic loads within kAfterWindow instructions of
 *      a conditional branch whose static misprediction rate is at
 *      least kHardThreshold, whose first consumer follows within
 *      kTightWindow instructions.
 *
 * Branch behaviour is judged by an embedded hybrid predictor with one
 * entry per static branch (no aliasing), matching the paper's setup.
 *
 * It also charges each branch's outcome to every load since the
 * previous branch: per static load, the executions and mispredictions
 * of its next branch (Table 5's last column).
 */
class LoadBranchProfiler : public vm::TraceSink
{
  public:
    /** Load -> branch max distance, in instructions. */
    static constexpr uint32_t kChainWindow = 32;
    /** Hard branch -> load max distance. */
    static constexpr uint32_t kAfterWindow = 8;
    /** Load -> first-consumer max distance. */
    static constexpr uint32_t kTightWindow = 2;
    /** Static misprediction rate at which a branch counts as hard. */
    static constexpr double kHardThreshold = 0.05;
    /** Executions before a branch can count as hard. */
    static constexpr uint64_t kMinBranchExecs = 16;

    LoadBranchProfiler();

    void onInstr(const vm::DynInstr &di) override;
    void onBatch(const vm::DynInstr *batch, size_t n) override;
    void onRunEnd() override;

    LoadBranchSummary summary() const;

    const branch::BranchPredictor &predictor() const { return pred_; }

    /** A static load's next branch: how often it ran and missed. */
    struct NextBranch
    {
        uint64_t execs = 0;
        uint64_t misses = 0;
    };

    /** Next-branch counts of each static load, indexed by sid. */
    const std::vector<NextBranch> &nextBranchBySid() const
    {
        return next_branch_;
    }

  private:
    /**
     * Taint-table index of register @a reg: integer and FP registers
     * interleave in one table, so the hot path never selects a class.
     */
    static constexpr uint32_t
    slotOf(uint32_t reg, bool fp)
    {
        return reg * 2 + (fp ? 1 : 0);
    }
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /**
     * Bounded set of loads (by gseq) this register's value
     * (transitively) derives from, in merge order, stored inline so
     * taint propagation on the trace hot path never touches the heap.
     */
    struct TaintSet
    {
        static constexpr size_t kMaxOrigins = 4;
        uint64_t origins[kMaxOrigins] = {};
        uint32_t count = 0;
    };

    /**
     * Per-static-instruction facts, decoded once per sid so the trace
     * hot path never re-derives operand shapes from the IR. Register
     * operands are pre-filtered (no kNoReg entries) and pre-resolved
     * to taint slots (slotOf()); decodeSid() grows the taint table to
     * cover every slot a taint operand names.
     */
    struct SidInfo
    {
        enum Kind : uint8_t
        {
            kLoad,
            kBranch, ///< srcs[0] is the condition
            kNoDst,  ///< store/prefetch/jmp/halt: no register result
            kMovImm,
            kAlu1, ///< one register source, register dst (mov, op-imm)
            kAlu
        };
        bool decoded = false;
        Kind kind = kNoDst;
        uint8_t numSrcs = 0;  ///< filtered sources, merge order
        uint8_t numReads = 0; ///< all reads incl. address registers
        uint32_t dst = 0;
        uint32_t srcs[3] = {};
        uint32_t reads[5] = {};
    };

    /** A load pushed right after a hard branch, awaiting a consumer. */
    struct TightCandidate
    {
        uint64_t gseq = 0;
        uint32_t slot = kNoSlot; ///< kNoSlot once consumed
    };

    /**
     * The scalars every instruction reads or writes. onBatch() copies
     * them into a local for the batch and writes them back at its end:
     * as members they would be reloaded after every origin or fed_
     * store, which the compiler must assume may alias them.
     */
    struct Hot
    {
        uint64_t gseq = 0;
        /**
         * gseqs of the last hard branch and the last tight push;
         * resetWindows() parks both just outside their windows.
         */
        uint64_t lastHardBranch = 0;
        uint64_t lastTightPush = 0;
        uint64_t totalLoads = 0;
        uint64_t ltbLoads = 0;
        uint64_t ltbBranchExec = 0;
        uint64_t ltbBranchMiss = 0;
        uint64_t afterHardLoads = 0;
    };

    /**
     * Live origins are at most kChainWindow instructions old, so two
     * loads sharing a fed_ index (64 apart) are never both live; the
     * same holds for tight candidates and kTightSlots.
     */
    static constexpr uint32_t kFedSlots = 64;
    static constexpr uint32_t kTightSlots = 4;
    static_assert(kFedSlots > kChainWindow);
    static_assert(kTightSlots > kTightWindow);

    void decodeSid(const ir::Instr &in);
    /** Forgets hard branches and tight candidates (run start). */
    void resetWindows();

    branch::HybridPredictor pred_;
    Hot hot_;
    std::vector<TaintSet> taint_; ///< indexed by slotOf()
    std::vector<SidInfo> sid_info_;
    std::vector<NextBranch> next_branch_; ///< grown by decodeSid()
    std::vector<uint32_t> pending_; ///< load sids since the last branch
    /** fed_[gseq % kFedSlots]: the load already fed a branch. */
    uint8_t fed_[kFedSlots] = {};
    TightCandidate tight_[kTightSlots];
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_LOAD_BRANCH_H_
