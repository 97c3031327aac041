#ifndef BIOPERF_PROFILE_LOAD_BRANCH_H_
#define BIOPERF_PROFILE_LOAD_BRANCH_H_

#include <cstdint>
#include <vector>

#include "branch/predictors.h"
#include "util/json.h"
#include "vm/segment_driver.h"
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
 *
 * The stream is cut into segments: the events from the one after a
 * conditional branch (or a run start, or a gap) through the next
 * branch or Halt. Control flow forks only at branches, so a segment's
 * instructions are a function of its first sid, and everything the
 * rules above do inside it is a function of that sid and of the
 * profiler's state at its start: the live taint origins (as ages),
 * their fed flags, the distances to the last hard branch and tight
 * push, and the unconsumed tight candidates. vm::SegmentDriver
 * memoizes that transition, FastSim-style, keyed by (state, segment,
 * the terminal's hardness): a known segment is skipped by its recorded
 * length, without reading its events, and at its terminal the
 * predictor update and one lookup replay it; a miss steps its
 * recorded sids (the rules read only SidInfo). This relies on the
 * stream following the program's control flow, as the Interpreter and
 * the TraceReplayer do (Debug builds assert it).
 */
class LoadBranchProfiler : public vm::TraceSink,
                           public vm::SegmentDriver<LoadBranchProfiler>
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

    void onBatch(const vm::DynInstr *batch, size_t n) override;
    void onRunEnd() override { endRun(); }
    /** A gap ends the profiler's run: no chain or charge spans it. */
    void onGap() override { endRun(); }

    /** Not const: it first steps a segment the memo holds open. */
    LoadBranchSummary summary();

    const branch::BranchPredictor &predictor() const { return pred_; }

    /** A static load's next branch: how often it ran and missed. */
    struct NextBranch
    {
        uint64_t execs = 0;
        uint64_t misses = 0;
    };

    /** Next-branch counts of each static load, indexed by sid. */
    std::vector<NextBranch> nextBranchBySid() const;

  private:
    friend class vm::SegmentDriver<LoadBranchProfiler>;

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
            kNoDst,  ///< store/prefetch/jmp: no register result
            kHalt,   ///< like kNoDst, but ends its segment
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

    /** The scalars every instruction reads or writes. */
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

    /** A recorded segment's loads and its branch's executions. */
    struct SegmentCounts
    {
        uint32_t loads = 0;
        uint64_t execs = 0;
        uint64_t misses = 0;
    };

    void decodeSid(const ir::Instr &in);
    /** Forgets hard branches and tight candidates (run start). */
    void resetWindows();

    /**
     * The per-instruction rules, all but the predictor's: applies the
     * event with static facts @a si at gseq @a g, whose taint table is
     * @a taint. Returns true when it is a branch that ends a
     * load->branch chain.
     */
    bool applyRules(const SidInfo &si, uint64_t g, TaintSet *taint);
    /**
     * Updates the predictor with branch @a br; sets @a correct and
     * returns whether @a br is hard.
     */
    bool judge(const vm::DynInstr &br, bool &correct);

    // vm::SegmentDriver hooks. A state is the codec words of
    // saveState() at the boundary's gseq (span 0); the edge input is
    // the terminal's hardness; the client word is what the segment
    // counted (clientWord()). The skip path reads only a segment's
    // terminal and the next segment's first event.
    uint32_t sidAt(size_t i) const { return batch_[i].sid; }
    void
    gather(uint32_t, uint32_t, size_t, size_t, uint32_t *) const
    {
    }
    uint32_t terminal(size_t t, uint32_t seg, const Recording *rec);
    /**
     * Counts the segment @a rec recorded just now as @a seg, or charges
     * its loads when the memo could not record it (kNone); its
     * terminal was a @a branch, already judged.
     */
    void newSegment(uint32_t seg, const Recording &rec, bool branch);
    void applyEdge(const vm::SegmentMemo::Edge &e, uint32_t len, bool);
    size_t stepLive(size_t i, size_t n, Recording *rec, bool &ended);
    void stepRecorded(const vm::SegmentMemo::Segment &s, uint32_t len,
                      const uint32_t *);
    void
    segmentStart()
    {
        start_ltb_ = hot_.ltbLoads;
        start_after_hard_ = hot_.afterHardLoads;
    }
    uint32_t segmentEnd();
    /**
     * Writes the state at hot_.gseq (see the codec in the .cc); only
     * the slots in live_ and the destinations of @a sids can hold live
     * origins, and live_ keeps those that do.
     */
    bool saveState(std::vector<uint16_t> &words, int16_t &span,
                   const uint32_t *sids, size_t len);
    /** Writes @a words into the arrays and windows, at hot_.gseq. */
    void loadState(const uint16_t *words, size_t len);
    void clearRun();

    branch::HybridPredictor pred_;
    Hot hot_;
    std::vector<TaintSet> taint_; ///< indexed by slotOf()
    std::vector<SidInfo> sid_info_;
    /** Next-branch charges of segments the memo could not record. */
    std::vector<NextBranch> next_branch_; ///< grown by decodeSid()
    /** fed_[gseq % kFedSlots]: the load already fed a branch. */
    uint8_t fed_[kFedSlots] = {};
    TightCandidate tight_[kTightSlots];

    /** Indexed like the memo's segments. */
    std::vector<SegmentCounts> seg_counts_;
    /**
     * The taint slots the state the arrays last held names, in order:
     * no other slot can hold an origin that is live, or that will look
     * live once replay has moved gseq on.
     */
    std::vector<uint32_t> live_;

    /** The batch being fed. */
    const vm::DynInstr *batch_ = nullptr;
    // The segment's terminal, and its counters at the segment's start.
    bool chain_ = false;   ///< it ends a load->branch chain
    bool hard_ = false;    ///< it is hard to predict
    bool correct_ = true;  ///< it was predicted
    uint64_t start_ltb_ = 0;
    uint64_t start_after_hard_ = 0;
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_LOAD_BRANCH_H_
