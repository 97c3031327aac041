#ifndef BIOPERF_VM_TRACE_CODEC_H_
#define BIOPERF_VM_TRACE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ir/ir.h"
#include "util/status.h"
#include "vm/trace.h"

namespace bioperf::vm {

/**
 * @file
 * Record-once/replay-many trace codec.
 *
 * The interpreter tops out near tens of simulated MIPS because every
 * analysis pass pays for full functional execution. The paper's
 * methodology is trace-driven — one ATOM instrumentation pass feeds
 * every analysis — so this codec decouples the two costs:
 * `TraceRecorder` is a TraceSink that encodes the DynInstr stream into
 * compact chunks once, and `TraceReplayer` decodes those chunks back
 * into DynInstr batches and drives any existing sink (profilers,
 * cache models, timing cores) through the unchanged onBatch() path,
 * bit-identical to the live stream.
 *
 * Encoding. The program fixes most of the stream: the IR has no
 * calls and every block ends in Br, Jmp or Halt, so after any event
 * the next sid is implied by the event's static instruction (the next
 * instruction of its block; a Br's taken or not-taken target, picked
 * by its direction bit; a Jmp's target; after Halt, the end of the
 * run). Recorder and replayer walk that successor table and store
 * only what the program cannot tell:
 *  - an opening code at the start of every chunk and after every
 *    run-end marker: varint 0 for a run-end marker, sid + 1 for an
 *    instruction (the entry sid of a run, or where a chunk resumes
 *    mid-run). The run-end marker that follows a Halt inside a chunk
 *    costs nothing; replay reproduces onRunEnd() calls from it;
 *  - memory ops append zigzag-varint of the effective-address delta
 *    against the *same static instruction's* previous address, so
 *    constant-stride loads cost one or two bytes;
 *  - integer loads append zigzag-varint of the value delta per sid;
 *    FP loads append varint of (bits XOR previous bits per sid),
 *    which exploits exponent/sign locality of successive values;
 *  - branch directions go into a per-chunk bitmap (one bit per Br,
 *    appended after the event payload); they also steer the walk.
 *
 * Everything else in DynInstr (sid, zero addr/value for
 * non-memory ops, taken=false for non-branches) is reconstructed, not
 * stored: 0.2-1.4 bytes/instr across the suite. The recorder checks
 * every live event against the walk and fails the recording
 * (util::StatusError, kInternal) on the first divergence, so a trace
 * never encodes a stream its program does not imply; the trace keeps
 * a digest of that control flow (controlFlowDigest()) and a replayer
 * refuses a program with a different one.
 *
 * Codec state (per-sid last address/value) runs across chunk
 * boundaries — except at **keyframes**: every Kth chunk opens with
 * the per-sid addresses/values reset to zero, making it (with its
 * opening code) a self-contained random-access entry point. Replay
 * may start at any keyframe (TraceReplayer::beginStream, then that
 * chunk), which is what lets the sampled-timing controller
 * shard one trace across threads; non-keyframe chunks remain pure
 * framing for the on-disk format and for bounded-memory encoding.
 */

/** LEB128 unsigned varint append. */
void appendVarint(std::vector<uint8_t> &out, uint64_t v);

/** Zigzag mapping for signed deltas. */
constexpr uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

constexpr int64_t
zigzagDecode(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^
           -static_cast<int64_t>(v & 1);
}

/**
 * A recorded dynamic instruction stream in encoded form. Immutable
 * once sealed by TraceRecorder::finish(); safe to share (by const
 * reference) across concurrently replaying threads.
 */
class EncodedTrace
{
  public:
    /**
     * One frame of the stream: event payload followed by the chunk's
     * branch-direction bitmap.
     */
    struct Chunk
    {
        std::vector<uint8_t> bytes;
        /** Instruction events + run-end markers in this chunk. */
        uint32_t numEvents = 0;
        /** Offset of the branch bitmap within @a bytes. */
        uint32_t bitmapOffset = 0;
        /**
         * The recorder reset its delta state before encoding this
         * chunk; the decoder mirrors the reset on entry. True for
         * every keyframeInterval()-th chunk.
         */
        bool keyframe = false;
        /**
         * Set by trace salvage when the chunks preceding this one
         * were lost to corruption. The decoder notifies sinks via
         * onGap() (pipeline/scoreboard drain). Always a keyframe.
         */
        bool gapBefore = false;
    };

    /** Dynamic instructions recorded (run-end markers excluded). */
    uint64_t instructions() const { return instructions_; }
    /** Interpreter::run() invocations recorded. */
    uint64_t runs() const { return runs_; }
    /**
     * vm::controlFlowDigest() of the recording program: replay needs
     * a program with the same control flow.
     */
    uint64_t controlFlowDigest() const { return cfg_digest_; }

    /**
     * Every keyframeInterval()-th chunk is a self-contained decode
     * entry point (delta state reset at its start). Always ≥1; 1
     * means every chunk is a keyframe.
     */
    uint32_t keyframeInterval() const { return keyframe_interval_; }
    bool isKeyframe(size_t chunk_index) const
    {
        return chunk_index % keyframe_interval_ == 0;
    }

    const std::vector<Chunk> &chunks() const { return chunks_; }

    /** Total encoded bytes across all chunks. */
    size_t totalBytes() const;
    /** totalBytes() per recorded instruction (0 when empty). */
    double bytesPerInstr() const;

    /**
     * Assembly interface for TraceRecorder and the .bptrace loader.
     * Not for general use: appended chunks must come from the codec.
     */
    void setControlFlowDigest(uint64_t digest) { cfg_digest_ = digest; }
    void setKeyframeInterval(uint32_t interval)
    {
        keyframe_interval_ = interval == 0 ? 1 : interval;
    }
    void setCounts(uint64_t instructions, uint64_t runs)
    {
        instructions_ = instructions;
        runs_ = runs;
    }
    void appendChunk(Chunk chunk) { chunks_.push_back(std::move(chunk)); }

  private:
    std::vector<Chunk> chunks_;
    uint64_t instructions_ = 0;
    uint64_t runs_ = 0;
    uint64_t cfg_digest_ = 0;
    uint32_t keyframe_interval_ = 1;
};

/**
 * TraceSink that encodes the live stream into an EncodedTrace.
 * Attach to an Interpreter, run the workload, then call finish().
 * Recording adds only a few ns per instruction on top of the
 * interpreter, so capture piggybacks on any live run.
 */
class TraceRecorder : public TraceSink
{
  public:
    /** Events per chunk before the frame is sealed. */
    static constexpr uint32_t kChunkEvents = 1u << 16;
    /**
     * Default keyframe cadence: one self-contained entry point per
     * ~1M events. The delta-state reset costs a few extra bytes per
     * keyframe (first occurrence of each sid re-encodes absolute
     * addr/value), which is noise at this spacing.
     */
    static constexpr uint32_t kDefaultKeyframeInterval = 16;

    explicit TraceRecorder(const ir::Program &prog,
                           uint32_t keyframe_interval =
                               kDefaultKeyframeInterval);

    void onBatch(const DynInstr *batch, size_t n) override;
    void onRunEnd() override;

    /**
     * Seals the trace and returns it. The recorder must not be used
     * afterwards. Call after the driver completes (the final
     * onRunEnd() has fired).
     */
    EncodedTrace finish();

  private:
    void sealChunk();
    /**
     * Writes the opening code of instruction @a sid at @a p when the
     * walk expected a coded event, and fails the recording when the
     * stream left the walk. @return the new write position.
     */
    uint8_t *codeEvent(uint8_t *p, uint32_t sid, uint32_t expect);
    [[noreturn]] void diverged(const char *what) const;

    /** Worst-case encoded bytes for one event (code + two deltas). */
    static constexpr size_t kMaxEventBytes = 25;

    EncodedTrace trace_;
    /**
     * Fixed scratch sized for a worst-case chunk, written through raw
     * pointers (per-byte push_back dominated encode cost otherwise);
     * sealChunk() copies out only the payload_pos_ bytes in use.
     */
    std::vector<uint8_t> payload_;
    size_t payload_pos_ = 0;
    std::vector<uint8_t> branch_bits_;
    uint32_t chunk_events_ = 0;
    uint32_t chunk_branches_ = 0;
    uint64_t instructions_ = 0;
    uint64_t runs_ = 0;
    /** Per-sid encode recipe: decode kind and successor sids. */
    struct SidEncode
    {
        uint32_t next[2]; ///< successor when not taken / taken
        uint8_t kind;     ///< decode kind (see trace_codec.cc)
    };
    std::vector<SidEncode> sid_;
    /**
     * The sid the walk implies for the next event, or a sentinel (see
     * trace_codec.cc): the run ends next, or the next event is coded
     * (chunk opening, run entry).
     */
    uint32_t expect_;
    /**
     * While the next event is coded: what the walk implied before the
     * chunk opened, which the coded event must still match.
     */
    uint32_t implied_;
    /** Per-sid previous effective address / load value. */
    std::vector<uint64_t> last_addr_;
    std::vector<uint64_t> last_bits_;
};

/**
 * Decodes an EncodedTrace and drives attached sinks through the
 * standard onBatch()/onRunEnd() protocol, event-for-event identical
 * to the live interpreter stream that was recorded.
 *
 * The replayer holds per-replay decode state only; many replayers may
 * consume one shared immutable EncodedTrace concurrently (each
 * ThreadPool sweep worker constructs its own). @a prog must have the
 * recording program's control flow (same controlFlowDigest()) — in
 * practice the recording program itself, or one rebuilt from the
 * same (app, variant, scale, seed[, register file]) recipe. The
 * two-argument constructor checks the digest; the streaming one
 * leaves that to its caller (the .bptrace loader checks the file's).
 */
class TraceReplayer
{
  public:
    TraceReplayer(const EncodedTrace &trace, const ir::Program &prog);

    /**
     * Streaming construction: no in-memory trace, chunks are fed one
     * at a time via beginStream()/streamChunk()/endStream(). Used by
     * the chunk-at-a-time .bptrace reader so a file replay never
     * materializes the whole chunk vector.
     */
    explicit TraceReplayer(const ir::Program &prog);

    void addSink(TraceSink *sink) { sinks_.push_back(sink); }

    /**
     * Replays the whole trace. @return instructions delivered, which
     * callers should check against trace.instructions() when the
     * trace came from untrusted storage; kCorruptData when decode
     * hits malformed bytes (sinks may have seen a prefix).
     */
    util::StatusOr<uint64_t> replay();

    /**
     * Streaming protocol: beginStream() resets decode state (to
     * enter at the top or at a keyframe), streamChunk() decodes one
     * chunk into the sinks (kCorruptData on malformed bytes;
     * decode state is then undefined until the next beginStream()),
     * endStream() flushes and returns instructions delivered since
     * beginStream().
     */
    void beginStream();
    util::Status streamChunk(const EncodedTrace::Chunk &chunk);
    uint64_t endStream();

  private:
    void flush(size_t n);
    void decodeChunk(const EncodedTrace::Chunk &chunk);

    const EncodedTrace *trace_;
    std::vector<TraceSink *> sinks_;
    /**
     * One position of the decode walk. An instruction's record holds
     * a prototype DynInstr (instr, op and sid set, dynamic fields
     * zeroed) the hot loop copies in one go and the decode kind
     * selecting which fields to overwrite. Records lie in block
     * order, so a non-terminator's successor is the next record and
     * only Br, Jmp and Halt read next[]: the walk's serial dependence
     * from one event to the next is one load per basic block, not one
     * per instruction. Positions that are not instructions (read an
     * opening code, a run-end marker after Halt, off the program)
     * are records 0-2, told apart by their kind.
     */
    struct alignas(64) Step
    {
        DynInstr proto{};
        uint32_t next[2] = {}; ///< record when not taken / taken
        uint8_t kind = 0;      ///< decode kind (see trace_codec.cc)
    };
    std::vector<Step> walk_;
    /** sid -> its record in walk_ (0, an opening code, if unused). */
    std::vector<uint32_t> step_of_sid_;
    std::vector<DynInstr> batch_;
    std::vector<uint64_t> last_addr_;
    std::vector<uint64_t> last_bits_;
    /** Set by the two-argument ctor when trace and program disagree. */
    util::Status init_status_;
    /** Streaming decode state, reset by beginStream(). */
    uint64_t delivered_ = 0;
    size_t batch_n_ = 0;
};

/**
 * sid -> instruction table for @a prog (nullptr for unused sids).
 * Shared by the codec's successor table and the sampler's warm-up
 * sink. Throws
 * util::StatusError (kInternal) if the program violates its own
 * sidLimit() — a builder bug, not an input problem.
 */
std::vector<const ir::Instr *> buildSidTable(const ir::Program &prog);

/**
 * Digest of @a prog's control flow as the codec walks it: the sid
 * space, and each sid's opcode and successor sids. Two programs with
 * equal digests replay each other's traces identically.
 */
uint64_t controlFlowDigest(const ir::Program &prog);

} // namespace bioperf::vm

#endif // BIOPERF_VM_TRACE_CODEC_H_
