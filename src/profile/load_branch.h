#ifndef BIOPERF_PROFILE_LOAD_BRANCH_H_
#define BIOPERF_PROFILE_LOAD_BRANCH_H_

#include <cassert>
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

  private:
    /** A load this register's value (transitively) derives from. */
    struct Origin
    {
        uint64_t gseq = 0;
        uint32_t sid = 0;
        /**
         * Absolute push position of the load's window_loads_ entry.
         * While the origin is inside the chain window the entry is
         * still live (the ring expires on the same window), so the
         * terminating branch can mark its load in O(1) instead of
         * scanning the window.
         */
        uint32_t slot = 0;
    };

    /**
     * Bounded set of origins per register, stored inline so taint
     * propagation on the trace hot path never touches the heap.
     */
    struct TaintSet
    {
        static constexpr size_t kMaxOrigins = 4;
        Origin origins[kMaxOrigins];
        uint8_t count = 0;
    };

    struct PendingLoad
    {
        uint64_t gseq = 0;
        bool fed = false;
    };

    struct TightCandidate
    {
        uint64_t gseq = 0;
        bool fp = false;
        /** kNoReg marks a consumed (dead) entry awaiting expiry. */
        uint32_t reg = 0;
    };

    /**
     * Per-static-instruction facts, decoded once per sid so the trace
     * hot path never re-derives operand shapes from the IR. Register
     * operands are pre-filtered (no kNoReg entries) and classes are
     * pre-resolved to a compact fp flag.
     */
    struct SidInfo
    {
        enum Kind : uint8_t
        {
            kLoad,
            kBranch,
            kNoDst, ///< store/prefetch/jmp/halt: no register result
            kMovImm,
            kAlu1, ///< one register source, register dst (mov, op-imm)
            kAlu
        };
        struct Reg
        {
            uint8_t fp = 0;
            uint32_t reg = 0;
        };
        bool decoded = false;
        Kind kind = kNoDst;
        bool dstFp = false;
        bool dstNone = false;
        uint8_t numSrcs = 0;  ///< filtered sources, merge order
        uint8_t numReads = 0; ///< all reads incl. address registers
        uint32_t dst = 0;
        uint32_t src0 = 0; ///< branch condition register
        Reg srcs[3];
        Reg reads[5];
    };

    /**
     * Bounded FIFO over a power-of-two array. Entries live at most
     * one window, so the windows bound capacity and push/pop/expire
     * run without the deque's segment management on the trace hot
     * path. reset() sizes the ring for its window, so a push never
     * finds it full.
     */
    template <class T> struct Ring
    {
        std::vector<T> buf;
        uint32_t mask = 0;
        uint32_t head = 0; ///< index of the oldest entry
        uint32_t tail = 0; ///< one past the newest entry

        void
        reset(size_t min_capacity)
        {
            size_t cap = 8;
            while (cap < min_capacity)
                cap *= 2;
            buf.assign(cap, T{});
            mask = static_cast<uint32_t>(cap - 1);
            head = tail = 0;
        }
        bool empty() const { return head == tail; }
        uint32_t size() const { return tail - head; }
        T &front() { return buf[head & mask]; }
        void pop_front() { head++; }
        void
        push_back(const T &v)
        {
            assert(size() < buf.size());
            buf[tail & mask] = v;
            tail++;
        }
        void clear() { head = tail = 0; }
    };

    /**
     * Inline fast path: the grow branch is out of line so the common
     * lookup inlines into the per-instruction step() without pulling
     * the allocator in with it.
     */
    TaintSet &
    taintOf(bool fp, uint32_t reg)
    {
        auto &v = fp ? fp_taint_ : int_taint_;
        if (reg >= v.size()) [[unlikely]]
            growTaint(v, reg);
        return v[reg];
    }
    static void growTaint(std::vector<TaintSet> &v, uint32_t reg);

    /** Decoded-once lookup; the cold decode path is out of line. */
    const SidInfo &
    infoOf(const ir::Instr &in)
    {
        if (in.sid >= sid_info_.size() ||
            !sid_info_[in.sid].decoded) [[unlikely]]
            decodeSid(in);
        return sid_info_[in.sid];
    }
    void decodeSid(const ir::Instr &in);
    void step(const vm::DynInstr &di);

    branch::HybridPredictor pred_;
    uint64_t gseq_ = 0;

    std::vector<TaintSet> int_taint_;
    std::vector<TaintSet> fp_taint_;

    Ring<PendingLoad> window_loads_;
    Ring<TightCandidate> tight_pending_;

    uint64_t last_hard_branch_ = UINT64_MAX; ///< gseq, or none yet

    uint64_t total_loads_ = 0;
    uint64_t ltb_loads_ = 0;
    uint64_t ltb_branch_exec_ = 0;
    uint64_t ltb_branch_miss_ = 0;
    uint64_t after_hard_loads_ = 0;

    std::vector<SidInfo> sid_info_;
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_LOAD_BRANCH_H_
