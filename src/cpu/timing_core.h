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
#include "vm/segment_memo.h"
#include "vm/trace.h"

namespace bioperf::cpu {

/**
 * What the trace-driven timing cores share: the borrowed hierarchy and
 * predictor, the per-sid decode table and register scoreboard, the
 * counters a timing result reads, the resolution of every memory and
 * branch outcome, and the segment memo. OooCore and InorderCore differ
 * only in how step() places instructions in time and in how their
 * pipeline state is written as a canonical state, so every consumer
 * (timing runs, sampling, benches) drives and reads either through
 * this type instead of switching on the core kind.
 *
 * Cache, accelerator and predictor outcomes depend only on the
 * instruction stream, never on timing, and each core's hierarchy and
 * predictor see only that core's stream. So onBatch() takes the
 * stream in chunks of kChunk events: resolve() runs a chunk's decode,
 * memory accesses and predictions in program order, then schedule()
 * places the chunk in time from the outcomes, with no call out of the
 * loop.
 *
 * schedule() replays what it can from the segment memo (FastSim,
 * Schnarr & Larus, ASPLOS 1998). At each segment boundary (after a
 * conditional branch) the core's carried pipeline state is written
 * relative to its frontier F (the fetch cycle, or the in-order issue
 * cycle) as a canonical state, which determines everything the core
 * does from there. A segment whose (state, sids, load latencies,
 * terminal flags) was stepped before is replayed by moving F and
 * cycles_ alone; the ROB, scoreboard and issue ring go stale until a
 * miss materialises the state again and steps with step(), the only
 * copy of the timing rules. So results are bit-identical with or
 * without the memo. A segment cut by a chunk end is carried to the
 * next chunk, and one still open when cycles() is read, at a run end,
 * a gap or a reset is stepped then. A state whose cycles_ - F exceeds
 * kMaxSpan is never interned, and once the memo is off (a full table
 * or a failed probation, see vm::SegmentMemo) every event is stepped.
 */
class TimingCore : public vm::TraceSink
{
  public:
    /** One event is a batch of one. */
    void onInstr(const vm::DynInstr &di) final { onBatch(&di, 1); }
    void onBatch(const vm::DynInstr *batch, size_t n) final;

    /**
     * Cycle at which the last instruction retired (out-of-order) or
     * completed (in-order). Not const: it first steps a segment the
     * memo still holds open.
     */
    uint64_t
    cycles()
    {
        if (open_ > 0)
            settle();
        return cycles_;
    }
    uint64_t instructions() const { return instructions_; }
    uint64_t branchMispredictions() const { return mispredicts_; }
    double ipc();
    /** Simulated wall-clock seconds at the configured frequency. */
    double seconds();

    const CoreConfig &config() const { return config_; }

    /** Instructions memo replay placed in time, since construction. */
    uint64_t replayedInstructions() const { return memo_.replayed(); }

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
     * pipeline occupancy zeroed) while keeping the decode table and
     * the memo — static facts and canonical states survive across
     * shards. Borrowed cache/predictor state is NOT touched; reset
     * those separately.
     */
    virtual void reset();

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
    /** Room in resolved_ for an open segment carried to the next chunk. */
    static constexpr size_t kCarry = vm::SegmentMemo::kMaxSegmentLen;
    /**
     * Largest |cycles_ - F| of an interned state. Keeps the issue
     * ring's live cycles far inside its 32K buckets and a state's
     * relative cycles in 12 bits.
     */
    static constexpr int64_t kMaxSpan = 1023;

    /**
     * One chunk's outcomes, indexed like the chunk's events after the
     * carried ones. An event's static facts are decode_.at(sid[i]):
     * the table grows only in resolve(), so they hold still while the
     * chunk is scheduled.
     */
    struct Resolved
    {
        /**
         * Execution latency: fixedLatency, the hierarchy's (and
         * accelerator's) latency for a load, 1 for a store or
         * prefetch.
         */
        uint32_t latency[kChunk + kCarry];
        uint32_t sid[kChunk + kCarry];
        bool mispredicted[kChunk + kCarry];
        bool taken[kChunk + kCarry];
    };

    /**
     * Steps resolved_[from, to) with the core's timing rules,
     * advancing cycles_ and the core's pipeline state.
     */
    virtual void step(size_t from, size_t to) = 0;
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

    /**
     * Brings the stepped state up to date (steps an open segment,
     * materialises a replayed state) and forgets where the current
     * segment started, so it is stepped to its end.
     */
    void syncStepped();

    CoreConfig config_;
    mem::CacheHierarchy *caches_;
    branch::BranchPredictor *predictor_;
    /** predictor_ when it is a HybridPredictor (a direct call). */
    branch::HybridPredictor *hybrid_;
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
    /** The events of this chunk, for a trace log (memo off). */
    const vm::DynInstr *batch_ = nullptr;

  private:
    /**
     * Fills resolved_[open_, open_ + n) for @a n <= kChunk events, in
     * program order: decode, cache access and accelerator, branch
     * prediction. Counts instructions_ and mispredicts_; may grow
     * ready_.
     */
    void resolve(const vm::DynInstr *batch, size_t n);
    template <typename Predictor>
    void resolveWith(Predictor &predictor, const vm::DynInstr *batch,
                     size_t n);

    /** Places resolved_[0, end) in time. */
    void schedule(size_t end);
    /**
     * From a boundary at @a i: replays memo hits and steps misses;
     * returns where it stopped (a segment to step, or the carry).
     */
    size_t replay(size_t i, size_t end);
    /** Steps from @a i to the segment's terminal or @a end. */
    size_t stepOpen(size_t i, size_t end);
    /**
     * Starts stepping the segment @a seg (kNone: a new one, whose sids
     * are recorded); records its edge from cur_ when @a edge.
     */
    void beginStep(uint32_t seg, bool edge);
    /** The stepped segment's terminal, at @a t, has been stepped. */
    void endSegment(size_t t);
    /** The interned stepped state at a boundary, or kNone. */
    uint32_t boundaryState();
    /** Makes the stepped state cur_'s, if it is replayed. */
    void ensureStepped();
    /** Steps the carried open segment (cycles() needs its cycles). */
    void settle();
    /** The edge input word of the terminal at @a t. */
    uint32_t terminalFlags(size_t t) const;

    vm::SegmentMemo memo_;
    const bool key_direction_;
    std::vector<uint16_t> words_; ///< canonicalize() scratch
    std::vector<uint32_t> inputs_; ///< edge-input scratch

    // Where the stream is.
    /** The ROB, scoreboard, ring and Hot hold the current state. */
    bool stepped_ = true;
    /** Between a segment's first event and its terminal, stepping. */
    bool stepping_ = false;
    /** Interned state at the boundary (or kNone). */
    uint32_t cur_ = vm::SegmentMemo::kNone;
    /** The edge just replayed (kNone after stepping). */
    uint32_t last_ = vm::SegmentMemo::kNone;
    /** F while the state is replayed (!stepped_). */
    uint64_t frontier_ = 0;
    /** Carried events: a known segment's prefix at resolved_[0, open_). */
    size_t open_ = 0;

    // The segment being stepped, for the memo.
    bool rec_segment_ = false; ///< record its sids (it is new)
    bool rec_edge_ = false;    ///< record its edge from rec_from_
    uint32_t rec_seg_ = vm::SegmentMemo::kNone;
    uint32_t rec_from_ = vm::SegmentMemo::kNone;
    uint64_t rec_frontier_ = 0;
    std::vector<uint32_t> rec_sids_;
    std::vector<uint8_t> rec_loads_;
    std::vector<uint32_t> rec_inputs_;
};

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_TIMING_CORE_H_
