#ifndef BIOPERF_CPU_SEGMENT_MEMO_H_
#define BIOPERF_CPU_SEGMENT_MEMO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace bioperf::cpu {

/**
 * The tables of a timing core's segment memo (FastSim, Schnarr & Larus,
 * ASPLOS 1998): what stepping one branch-to-branch segment did to the
 * core's pipeline state, keyed by that state and the segment's dynamic
 * inputs.
 *
 * A segment is the events from the one after a conditional branch (or
 * a run start, a gap or a reset) through the next conditional branch.
 * The memo records each segment once, by its first sid, with its sids
 * and the offsets of its loads. A state is a core's canonical pipeline
 * state at a segment boundary, as 16-bit words relative to the core's
 * frontier (the core's codec defines them); states are interned, so an
 * id names one. An edge maps (state, segment, inputs) to the next
 * state and how far the frontier moved. The inputs are each load's
 * latency in segment order, then one word of terminal flags.
 *
 * Every table is bounded: addSegment(), intern() and addEdge() fail
 * once theirs is full, and the core then steps every later event (see
 * TimingCore).
 */
class SegmentMemo
{
  public:
    static constexpr uint32_t kNone = UINT32_MAX;

    /** Longest recorded segment, in events; longer ones are stepped. */
    static constexpr uint32_t kMaxSegmentLen = 64;

    /**
     * Table bounds. predator at Medium needs ~25K states of ~67 words
     * and ~32K edges on the P4; the bounds leave headroom. Tables grow
     * as they fill; reserving the bounds up front displaced other heap
     * data and raised memory-bound's peak RSS by 40%.
     */
    static constexpr uint32_t kMaxSegments = 8 * 1024;
    static constexpr uint32_t kMaxSegmentSids = 64 * 1024;
    static constexpr uint32_t kMaxStates = 64 * 1024;
    static constexpr uint32_t kMaxStateWords = 4 * 1024 * 1024;
    static constexpr uint32_t kMaxEdges = 64 * 1024;
    static constexpr uint32_t kMaxEdgeInputs = 256 * 1024;
    /** Largest frontier move an edge holds, in cycles. */
    static constexpr uint32_t kMaxAdvance = UINT16_MAX;

    /** A recorded segment: offsets into the sid and load pools. */
    struct Segment
    {
        uint32_t sids = 0;
        uint32_t loads = 0;
        uint32_t len = 0;
        uint32_t numLoads = 0;
    };

    /** An interned state: its words, and cycles_ minus the frontier. */
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
        uint32_t inputs = 0; ///< offset in the input pool
        uint32_t next = kNone;
        /** The edge replayed after this one last time (or kNone). */
        uint32_t succ = kNone;
        uint16_t advance = 0; ///< frontier movement, cycles
        int16_t nextSpan = 0; ///< the next state's span
    };

    SegmentMemo();

    /** The segment starting at @a sid, or kNone. */
    uint32_t
    segmentAt(uint32_t sid) const
    {
        return sid < seg_at_sid_.size() ? seg_at_sid_[sid] : kNone;
    }
    const Segment &segment(uint32_t id) const { return segments_[id]; }
    const uint32_t *sidsOf(const Segment &s) const
    {
        return &seg_sids_[s.sids];
    }
    const uint8_t *loadsOf(const Segment &s) const
    {
        return &seg_loads_[s.loads];
    }
    /**
     * Records the segment @a sids (whose loads sit at offsets
     * @a loads); returns its id, or kNone when a table is full.
     */
    uint32_t addSegment(const std::vector<uint32_t> &sids,
                        const std::vector<uint8_t> &loads);

    /**
     * The id of state @a words (at most 64K of them), or kNone when
     * the table is full.
     */
    uint32_t intern(const std::vector<uint16_t> &words, int16_t span);
    const State &state(uint32_t id) const { return states_[id]; }
    const uint16_t *
    wordsOf(const State &s) const
    {
        return &word_blocks_[s.words / kBlockWords][s.words % kBlockWords];
    }

    /** The hash findEdge() and addEdge() expect for these inputs. */
    static uint32_t edgeHash(uint32_t state, uint32_t seg,
                             const uint32_t *inputs, uint32_t n);
    /**
     * The edge from @a state over @a seg with @a inputs (as many
     * words as the segment has loads, plus one), or kNone.
     */
    uint32_t findEdge(uint32_t state, uint32_t seg, const uint32_t *inputs,
                      uint32_t hash) const;
    const Edge &edge(uint32_t id) const { return edges_[id]; }
    /** Whether edge @a id, of segment @a seg, has @a inputs. */
    bool
    sameInputs(uint32_t id, uint32_t seg, const uint32_t *inputs) const
    {
        const Edge &e = edges_[id];
        const uint32_t *own = &edge_inputs_[e.inputs];
        for (uint32_t k = 0; k <= segments_[seg].numLoads; k++)
            if (own[k] != inputs[k])
                return false;
        return true;
    }
    void setSucc(uint32_t id, uint32_t succ) { edges_[id].succ = succ; }
    /**
     * Adds an edge (@a advance <= kMaxAdvance); false when a table is
     * full.
     */
    bool addEdge(uint32_t state, uint32_t seg, const uint32_t *inputs,
                 uint32_t hash, uint32_t next, uint32_t advance);

    size_t numEdges() const { return edges_.size(); }

  private:
    /**
     * State words live in fixed blocks, so the pool grows without
     * copying (or doubling) what it holds; no state straddles two.
     */
    static constexpr uint32_t kBlockWords = 32 * 1024;

    std::vector<uint32_t> seg_at_sid_;
    std::vector<Segment> segments_;
    std::vector<uint32_t> seg_sids_;
    std::vector<uint8_t> seg_loads_;
    std::vector<State> states_;
    std::vector<std::unique_ptr<uint16_t[]>> word_blocks_;
    uint32_t words_used_ = 0; ///< pool offset of the next state
    std::vector<uint32_t> state_index_; ///< open addressing, state ids
    std::vector<Edge> edges_;
    std::vector<uint32_t> edge_inputs_;
    std::vector<uint32_t> edge_index_; ///< open addressing, edge ids
};

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_SEGMENT_MEMO_H_
