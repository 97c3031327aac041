#ifndef BIOPERF_VM_SEGMENT_MEMO_H_
#define BIOPERF_VM_SEGMENT_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace bioperf::vm {

/**
 * The tables of a trace sink's segment memo (FastSim, Schnarr & Larus,
 * ASPLOS 1998): what stepping one branch-to-branch segment did to the
 * sink's state, keyed by that state and the segment's dynamic inputs.
 * Its one user is vm::SegmentDriver, the state machine the timing
 * cores (cpu::TimingCore) and LoadBranchProfiler run on; each owns one.
 *
 * A segment is the events from the one after a conditional branch (or
 * a run start, a gap or a reset) through the next conditional branch
 * (for the profiler, or Halt).
 * The memo records each segment once, by its first sid, with its sids
 * and the number of its loads whose results are inputs (the cores'
 * load latencies; the profiler records none); where those loads sit is
 * the client's to know. A state is a client's
 * canonical state at a segment boundary, as 16-bit words (the client's
 * codec defines them); states are interned, so an id names one. An
 * edge maps (state, segment, inputs) to the next state and a client
 * word (the cores: how far their frontier moved; the profiler: what
 * the segment counted). The inputs are one word per recorded load, in
 * segment order, then one word of terminal flags.
 *
 * Every table is bounded. Once a table is full, or the memo fails its
 * probation (kProbationEdges), the memo is off for good: clients then
 * step every event and add no state or edge.
 */
class SegmentMemo
{
  public:
    static constexpr uint32_t kNone = UINT32_MAX;

    /** Longest recorded segment, in events; longer ones are stepped. */
    static constexpr uint32_t kMaxSegmentLen = 64;

    /**
     * Table bounds. predator at Medium needs ~25K states of ~67 words
     * and ~32K edges on the P4 core; the bounds leave headroom. Tables
     * grow as they fill; reserving the bounds up front displaced other
     * heap data and raised memory-bound's peak RSS by 40%.
     */
    static constexpr uint32_t kMaxSegments = 8 * 1024;
    static constexpr uint32_t kMaxSegmentSids = 64 * 1024;
    static constexpr uint32_t kMaxStates = 64 * 1024;
    static constexpr uint32_t kMaxStateWords = 4 * 1024 * 1024;
    static constexpr uint32_t kMaxEdges = 64 * 1024;
    static constexpr uint32_t kMaxEdgeInputs = 256 * 1024;
    /**
     * Once the memo holds this many edges, it stays on only while it
     * has replayed at least one event per edge: a memo that keeps
     * missing (states that never repeat) costs more than stepping.
     */
    static constexpr uint32_t kProbationEdges = 1024;

    /** A recorded segment: its offset in the sid pool. */
    struct Segment
    {
        uint32_t sids = 0;
        uint32_t len = 0;
        uint32_t numLoads = 0;
    };

    /**
     * An interned state: its words, and the client's span word (the
     * cores: cycles_ minus the frontier; the profiler: 0).
     */
    struct State
    {
        uint32_t words = 0; ///< offset in the word pool
        uint16_t len = 0;
        int16_t span = 0;
        uint32_t hash = 0;
    };

    /** What stepping `seg` from `state` with the edge's inputs did. */
    struct Edge
    {
        uint32_t state = kNone;
        uint32_t seg = kNone;
        /** Offset in the input pool; the input itself if there is one. */
        uint32_t inputs = 0;
        uint32_t next = kNone;
        /** The edge replayed after this one last time (or kNone). */
        uint32_t succ = kNone;
        uint32_t client = 0; ///< the client's word
        int16_t nextSpan = 0; ///< the next state's span
    };

    SegmentMemo();

    /** False once a table filled or the probation failed. */
    bool on() const { return on_; }
    /** Events replayed from edges (replay() hits) over the lifetime. */
    uint64_t replayed() const { return replayed_; }

    /** The segment starting at @a sid, or kNone. */
    uint32_t
    segmentAt(uint32_t sid) const
    {
        return sid < seg_at_sid_.size() ? seg_at_sid_[sid] : kNone;
    }
    const Segment &segment(uint32_t id) const { return segments_[id]; }
    const uint32_t *sidsOf(const Segment &s) const
    {
        return seg_sids_.data() + s.sids;
    }
    /**
     * Records the segment @a sids, with @a num_loads input loads;
     * returns its id, or kNone when it is longer than
     * kMaxSegmentLen or a table is full (which switches the memo off).
     * Segments are still recorded while the memo is off.
     */
    uint32_t addSegment(const std::vector<uint32_t> &sids,
                        uint32_t num_loads);

    /**
     * The id of state @a words (at most 64K of them), or kNone when
     * the table is full (which switches the memo off).
     */
    uint32_t intern(const std::vector<uint16_t> &words, int16_t span);
    const State &state(uint32_t id) const { return states_[id]; }
    const uint16_t *
    wordsOf(const State &s) const
    {
        return &word_blocks_[s.words / kBlockWords][s.words % kBlockWords];
    }

    /**
     * The edge from @a state over @a seg with @a inputs (as many words
     * as the segment has loads, plus one), or kNone. The edge replayed
     * after @a last (kNone: none) the last time is tried before the
     * index, and a hit is cached as @a last's successor and counts the
     * segment's events as replayed.
     */
    uint32_t replay(uint32_t last, uint32_t state, uint32_t seg,
                    const uint32_t *inputs);
    const Edge &edge(uint32_t id) const { return edges_[id]; }
    /**
     * Adds an edge; false when a table is full or the probation fails
     * (either switches the memo off).
     */
    bool addEdge(uint32_t state, uint32_t seg, const uint32_t *inputs,
                 uint32_t next, uint32_t client);

  private:
    /**
     * State words live in fixed blocks, so the pool grows without
     * copying (or doubling) what it holds; no state straddles two.
     */
    static constexpr uint32_t kBlockWords = 32 * 1024;

    uint32_t edgeHash(uint32_t state, uint32_t seg,
                      const uint32_t *inputs) const;
    const uint32_t *
    inputsOf(const Edge &e) const
    {
        return segments_[e.seg].numLoads == 0 ? &e.inputs
                                              : &edge_inputs_[e.inputs];
    }
    /** Whether edge @a id has key (@a state, @a seg, @a inputs). */
    bool hasKey(uint32_t id, uint32_t state, uint32_t seg,
                const uint32_t *inputs) const;

    bool on_ = true;
    uint64_t replayed_ = 0;
    std::vector<uint32_t> seg_at_sid_;
    std::vector<Segment> segments_;
    std::vector<uint32_t> seg_sids_;
    std::vector<State> states_;
    std::vector<std::unique_ptr<uint16_t[]>> word_blocks_;
    uint32_t words_used_ = 0; ///< pool offset of the next state
    std::vector<uint32_t> state_index_; ///< open addressing, state ids
    std::vector<Edge> edges_;
    std::vector<uint32_t> edge_inputs_;
    std::vector<uint32_t> edge_index_; ///< open addressing, edge ids
};

} // namespace bioperf::vm

#endif // BIOPERF_VM_SEGMENT_MEMO_H_
