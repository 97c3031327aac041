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
 *
 * The stream is cut into segments: the events from the one after a
 * conditional branch (or a run start, or a gap) through the next
 * branch or Halt. Control flow forks only at branches, so a segment's
 * instructions are a function of its first sid, and everything the
 * rules above do inside it is a function of that sid and of the
 * profiler's state at its start: the live taint origins (as ages),
 * their fed flags, the distances to the last hard branch and tight
 * push, and the unconsumed tight candidates. The profiler memoizes
 * that transition per (state, segment) pair, FastSim-style: a
 * segment seen before from the same state costs one lookup plus its
 * terminal branch's predictor update; a new pair is stepped with the
 * per-instruction rules and recorded. The memo's tables are fixed at
 * construction; once one is full, every later event is stepped. This
 * relies on the stream following the program's control flow, as the
 * Interpreter and the TraceReplayer do (Debug builds assert it).
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

    /**
     * Memo bounds: interned states, their words, and memo entries.
     * The BioPerf apps need at most 407 states, 12.4K words, 713
     * edges, 95 segments and 686 segment sids (hmmpfam, Small). Every
     * table is reserved up front, and a reservation displaces other
     * heap data: with 4x these bounds, memory-bound's peak RSS rose 2%.
     */
    static constexpr uint32_t kMaxStates = 1024;
    static constexpr uint32_t kMaxStateWords = 16 * 1024;
    static constexpr uint32_t kMaxEdges = 1024;
    /** Recorded segments, and the sids they hold together. */
    static constexpr uint32_t kMaxSegments = 512;
    static constexpr uint32_t kMaxSegmentSids = 8 * 1024;

    LoadBranchProfiler();

    void onInstr(const vm::DynInstr &di) override;
    void onBatch(const vm::DynInstr *batch, size_t n) override;
    void onRunEnd() override;
    /** A gap ends the profiler's run: no chain or charge spans it. */
    void onGap() override { onRunEnd(); }

    LoadBranchSummary summary() const;

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
    /** No state, edge or segment. */
    static constexpr uint32_t kNone = UINT32_MAX;

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

    /**
     * The arrays the per-instruction rules read and write: the
     * profiler's own, or a scratch copy (summary() of an open
     * segment).
     */
    struct Arrays
    {
        TaintSet *taint;
        uint8_t *fed;
        TightCandidate *tight;
    };

    /** A recorded segment and its executions (for nextBranchBySid()). */
    struct Segment
    {
        uint32_t sids = 0; ///< offset of its sids in seg_sids_
        uint32_t len = 0;
        uint64_t execs = 0;
        uint64_t misses = 0;
    };

    /** An interned state: its words in state_words_. */
    struct StateRef
    {
        uint32_t words = 0;
        uint32_t len = 0;
        uint32_t hash = 0;
    };

    /**
     * One memo entry: what stepping segment `seg` from `state` did.
     * Hardness and direction of the terminal branch come from the
     * predictor on every execution; they pick the next state and the
     * cached successor edge.
     */
    struct Edge
    {
        uint32_t state = kNone;
        uint32_t seg = kNone;
        uint32_t firstSid = 0;
        uint32_t terminal = 0; ///< the terminal's sid
        uint32_t len = 0;
        uint32_t loads = 0;
        uint32_t ltbLoads = 0;
        uint32_t afterHardLoads = 0;
        bool halts = false;     ///< ends at Halt, not a branch
        bool endsChain = false; ///< the terminal ends a load chain
        uint32_t next[2] = { kNone, kNone }; ///< by hardness
        /** Successor edge seen last, by outcome (outcomeOf()). */
        uint32_t succ[4] = { kNone, kNone, kNone, kNone };
    };

    static constexpr uint32_t
    outcomeOf(bool taken, bool hard)
    {
        return (taken ? 2 : 0) + (hard ? 1 : 0);
    }

    void decodeSid(const ir::Instr &in);
    /** Forgets hard branches and tight candidates (run start). */
    void resetWindows();
    Arrays arrays() { return { taint_.data(), fed_, tight_ }; }

    /**
     * The per-instruction rules, all but the predictor's: applies the
     * event with static facts @a si at gseq @a g. Returns true when it
     * is a branch that ends a load->branch chain.
     */
    static bool applyRules(const SidInfo &si, uint64_t g, Hot &h,
                           const Arrays &a);
    /**
     * Updates the predictor with branch @a br and the chain-branch
     * counts; sets @a correct and returns whether @a br is hard.
     */
    bool judge(const vm::DynInstr &br, bool chain, Hot &h, bool &correct);

    /** Steps events from @a i until a hit; returns where it stopped. */
    size_t step(const vm::DynInstr *batch, size_t i, size_t n, Hot &h);
    /** Replays memo hits from @a i; returns where it stopped. */
    size_t replay(const vm::DynInstr *batch, size_t i, size_t n, Hot &h);
    /**
     * At a segment boundary, before an event with @a sid: sets up
     * the replay of a memo entry (true), or starts stepping (false).
     */
    bool atBoundary(uint32_t sid, Hot &h);
    /** The stepped segment's terminal @a t has had its rules applied. */
    void endSegment(const vm::DynInstr &t, bool chain, Hot &h);
    /** Adds the stepped segment's memo entry, or marks the memo full. */
    void remember(const vm::DynInstr &t, bool chain, bool hard,
                  const Hot &h);
    uint32_t recordSegment();
    uint32_t findEdge(uint32_t state, uint32_t sid) const;

    /** The state at gseq h.gseq, as words (see canonicalize()). */
    void canonicalize(const Hot &h, const Arrays &a,
                      std::vector<uint32_t> &words) const;
    /** Writes @a state into @a a and @a h's windows, at h.gseq. */
    void materialize(uint32_t state, Hot &h, const Arrays &a) const;
    /** The id of state @a words, or kNone when the table is full. */
    uint32_t intern(const std::vector<uint32_t> &words);
    /**
     * Adds what the replayed, still open segment's executed prefix
     * counted to @a h (only totalLoads and afterHardLoads can move
     * before a terminal).
     */
    void addOpenPrefix(Hot &h) const;

    branch::HybridPredictor pred_;
    Hot hot_;
    std::vector<TaintSet> taint_; ///< indexed by slotOf()
    std::vector<SidInfo> sid_info_;
    /** Next-branch charges of segments the memo could not record. */
    std::vector<NextBranch> next_branch_; ///< grown by decodeSid()
    /** fed_[gseq % kFedSlots]: the load already fed a branch. */
    uint8_t fed_[kFedSlots] = {};
    TightCandidate tight_[kTightSlots];

    // The memo: flat tables, reserved once.
    std::vector<uint32_t> seg_at_sid_; ///< segment starting at a sid
    std::vector<Segment> segments_;
    std::vector<uint32_t> seg_sids_;
    std::vector<StateRef> states_;
    std::vector<uint32_t> state_words_;
    std::vector<uint32_t> state_index_; ///< open addressing, state ids
    std::vector<Edge> edges_;
    std::vector<uint32_t> edge_index_; ///< open addressing, edge ids
    std::vector<uint32_t> words_;      ///< canonicalize() scratch
    bool full_ = false;                ///< a table filled: step all

    // Where the stream is.
    bool at_boundary_ = true; ///< the next event starts a segment
    /** State at the current segment's start (or at the boundary). */
    uint32_t cur_state_ = 0;
    uint32_t cur_edge_ = kNone; ///< the edge being replayed
    uint32_t left_ = 0;         ///< its events not yet seen; 0: stepping
    /** The edge and outcome that led to the boundary (successor cache). */
    uint32_t from_edge_ = kNone;
    uint32_t from_outcome_ = 0;
    /** The stepped segment: its recorded index, or kNone and its sids. */
    uint32_t step_seg_ = kNone;
    std::vector<uint32_t> rec_;
    Hot step_start_; ///< counters at its start
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_LOAD_BRANCH_H_
