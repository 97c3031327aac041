#ifndef BIOPERF_CPU_TIMING_CORE_H_
#define BIOPERF_CPU_TIMING_CORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "branch/predictors.h"
#include "cpu/core_config.h"
#include "cpu/decoded_instr.h"
#include "cpu/load_accel.h"
#include "cpu/outcome_stage.h"
#include "mem/hierarchy.h"
#include "vm/segment_driver.h"
#include "vm/trace.h"

namespace bioperf::cpu {

/**
 * What the trace-driven timing cores share: the outcome stage over the
 * borrowed hierarchy and predictor, the per-sid decode table and
 * register scoreboard, the counters a timing result reads, and the
 * segment memo. OooCore and InorderCore differ only in how step()
 * places instructions in time and in how their pipeline state is
 * written as a canonical state, so every consumer (timing runs,
 * sampling, benches) drives and reads either through this type instead
 * of switching on the core kind.
 *
 * Cache, accelerator and predictor outcomes depend only on the
 * instruction stream, never on timing, and each core's hierarchy and
 * predictor see only that core's stream. Every memory operation and
 * branch is resolved once, in program order, through the OutcomeStage
 * functional warming also uses: a stepped range in resolve(), just
 * before step() places it in time; a skipped segment's memory
 * operations in gather(), from the (offset, kind) table the core keeps
 * per recorded segment, and its branch in terminal(). So the
 * hierarchy, accelerator and predictor see the same calls in the same
 * order with or without the memo, or under warming.
 *
 * The core replays what it can through vm::SegmentDriver (FastSim,
 * Schnarr & Larus, ASPLOS 1998). Its canonical state at a segment
 * boundary is written relative to its frontier F (the fetch cycle, or
 * the in-order issue cycle); a hit moves F and cycles_ alone, and the
 * ROB, scoreboard and issue ring go stale until a miss materialises the
 * state. Every segment is stepped with step(), the only copy of the
 * timing rules, from its resolved events or from the memo's recording
 * (non-load latencies follow from the sid, the loads' are edge inputs,
 * and only the terminal branch can be mispredicted or taken), so
 * results are bit-identical with or without the memo. A state whose
 * cycles_ - F exceeds kMaxSpan is never interned. Between run ends,
 * gaps and jumps (onJump()) the stream must follow the program's
 * control flow: a skipped segment's sids are not compared with it.
 */
class TimingCore : public vm::TraceSink,
                   public vm::SegmentDriver<TimingCore>
{
  public:
    void onBatch(const vm::DynInstr *batch, size_t n) final;

    /**
     * Cycle at which the last instruction retired (out-of-order) or
     * completed (in-order). Not const: it first steps a segment the
     * memo still holds open.
     */
    uint64_t
    cycles()
    {
        catchUp();
        return cycles_;
    }
    uint64_t instructions() const { return instructions_; }
    uint64_t branchMispredictions() const { return mispredicts_; }
    double ipc();
    /** Simulated wall-clock seconds at the configured frequency. */
    double seconds();

    const CoreConfig &config() const { return config_; }

    /**
     * Installs a hardware load-latency-hiding unit (zero-cycle loads
     * or value prediction; borrowed). Pass nullptr to remove.
     */
    void
    setLoadAccelerator(LoadAccelerator *accel)
    {
        outcomes_.setLoadAccelerator(accel);
    }

    /**
     * A new run starts with freshly zeroed registers whose values are
     * immediately available, so the scoreboard drains.
     */
    void onRunEnd() override { endRun(); }

    /**
     * A salvage gap in the trace: the producers of what follows were
     * never replayed, so the scoreboard drains as at a run boundary.
     * The cycle timeline keeps advancing — stale pipeline occupancy
     * only makes the salvaged estimate a touch conservative for a few
     * instructions after the gap.
     */
    void onGap() override { endRun(); }

    /**
     * The stream jumps (a sampler's warmed gap was not fed here): an
     * open segment is stepped up to here, and nothing is recorded until
     * the next terminal. Unlike onGap(), the scoreboard is kept.
     */
    void onJump() { makeCurrent(); }

    /**
     * Returns the core to its post-construction state (counters and
     * pipeline occupancy zeroed) while keeping the decode table and
     * the memo — static facts and canonical states survive across
     * shards. An open segment is dropped, not stepped. Borrowed
     * cache/predictor state is NOT touched; reset those separately.
     */
    void reset();

  protected:
    /**
     * The hierarchy and predictor are borrowed, not owned. With
     * @a key_direction the terminal branch's direction is an edge
     * input (it ends an in-order issue group).
     */
    TimingCore(const CoreConfig &config,
               mem::CacheHierarchy *caches,
               branch::BranchPredictor *predictor, bool key_direction);

    static constexpr size_t kChunk = 256;
    /**
     * Largest |cycles_ - F| of an interned state. Keeps the issue
     * ring's live cycles far inside its 32K buckets and a state's
     * relative cycles in 12 bits.
     */
    static constexpr int64_t kMaxSpan = 1023;

    /**
     * Events' outcomes: a stepped range's, indexed like the chunk's
     * events, or a segment's rebuilt from the memo. An event's static
     * facts are decode_.at(sid[i]): the table grows only in resolve(),
     * so they hold still while a range is stepped.
     */
    struct Resolved
    {
        /** Latency: a memory operation's from the stage, else fixed. */
        uint32_t latency[kChunk];
        uint32_t sid[kChunk];
        bool mispredicted[kChunk];
        bool taken[kChunk];
    };

    /**
     * Steps @a r [from, to) with the core's timing rules, advancing
     * cycles_ and the core's pipeline state.
     */
    virtual void step(const Resolved &r, size_t from, size_t to) = 0;
    /** The frontier F of the stepped state. */
    virtual uint64_t frontier() const = 0;
    /**
     * Writes the stepped state at a boundary as canonical words
     * relative to frontier(), |cycles_ - F| <= kMaxSpan; false when it
     * cannot be written.
     */
    virtual bool canonicalize(std::vector<uint16_t> &words) const = 0;
    /**
     * Makes the stepped state (cycles_ included) the canonical
     * @a words at frontier @a f.
     */
    virtual void materialize(const uint16_t *words, size_t len,
                             uint64_t f) = 0;
    /** False while every event must be stepped (trace log, wide core). */
    virtual bool memoizable() const { return true; }
    /** Zeroes the pipeline state step() carries (reset()). */
    virtual void clearPipeline() = 0;

    CoreConfig config_;
    /** Every cache, accelerator and predictor call goes through it. */
    OutcomeStage outcomes_;

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
    /** The chunk being fed. */
    const vm::DynInstr *batch_ = nullptr;

  private:
    friend class vm::SegmentDriver<TimingCore>;

    /**
     * Fills resolved_[from, to) in program order (decode, cache access
     * and accelerator, branch prediction), stopping after the first
     * branch when @a to_terminal. Returns where it stopped. Counts
     * mispredicts_; may grow ready_.
     */
    size_t resolve(size_t from, size_t to, bool to_terminal);

    /** A memory operation of a recorded segment. */
    struct MemOp
    {
        uint8_t offset;      ///< in the segment
        DecodedInstr::Kind kind;
        uint8_t load;        ///< a load's index among the edge inputs
    };

    // vm::SegmentDriver hooks. The edge inputs are each load's latency,
    // then the terminal's flags: mispredicted, and taken when
    // key_direction_; the client word is how far F moved.
    uint32_t sidAt(size_t i) const { return batch_[i].sid; }
    void gather(uint32_t seg, uint32_t pos, size_t i, size_t k,
                uint32_t *inputs);
    uint32_t terminal(size_t t, uint32_t seg, const Recording *rec);
    void applyEdge(const vm::SegmentMemo::Edge &e, uint32_t len, bool fresh);
    size_t stepLive(size_t i, size_t n, Recording *rec, bool &ended);
    void stepRecorded(const vm::SegmentMemo::Segment &s, uint32_t len,
                      const uint32_t *inputs);
    void segmentStart() { start_frontier_ = frontier(); }
    uint32_t segmentEnd();
    bool saveState(std::vector<uint16_t> &words, int16_t &span,
                   const uint32_t *, size_t);
    void
    loadState(const uint16_t *words, size_t len)
    {
        materialize(words, len, frontier_);
    }
    void clearRun() { std::fill(ready_.begin(), ready_.end(), 0); }

    const bool key_direction_;
    /** F while the stepped state is stale (replayed). */
    uint64_t frontier_ = 0;
    uint64_t start_frontier_ = 0; ///< F at the stepped segment's start
    Resolved recorded_; ///< a segment rebuilt from the memo
    /** stepLive() resolved the terminal terminal() is called for. */
    bool stepped_terminal_ = false;
    /**
     * The memory operations of recorded segment s are
     * mem_ops_[mem_begin_[s], mem_begin_[s + 1]).
     */
    std::vector<uint32_t> mem_begin_{ 0 };
    std::vector<MemOp> mem_ops_;
};

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_TIMING_CORE_H_
