#include "vm/trace_codec.h"

#include <algorithm>
#include <cassert>

namespace bioperf::vm {

namespace {

/**
 * Decode kinds, precomputed per sid so the replay loop is a dense
 * switch instead of opcode classification per event.
 */
enum Kind : uint8_t {
    kPlain = 0,   ///< no memory operand, not a branch
    kMem = 1,     ///< store/prefetch: address only
    kIntLoad = 2, ///< address + value delta
    kFpLoad = 3,  ///< address + value XOR
    kBranch = 4,  ///< direction bit
};

Kind
kindOf(ir::Opcode op)
{
    if (op == ir::Opcode::Load)
        return kIntLoad;
    if (op == ir::Opcode::FLoad)
        return kFpLoad;
    if (ir::hasMemOperand(op))
        return kMem;
    if (op == ir::Opcode::Br)
        return kBranch;
    return kPlain;
}

/**
 * Corrupt-trace escape hatch for the decode hot loop: returning a
 * Status per event would put a branch on every byte, so malformed
 * input throws and the entry points (streamChunk, replay) translate
 * back to kCorruptData. Never escapes the codec's public API.
 */
[[noreturn]] void
corrupt(const char *what)
{
    throw util::StatusError(
        util::Status::corruptData(std::string("trace codec: ") + what));
}

uint64_t
readVarintSlow(const uint8_t *&p, const uint8_t *end)
{
    uint64_t v = 0;
    unsigned shift = 0;
    while (p < end) {
        const uint8_t byte = *p++;
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
        if (shift >= 64)
            corrupt("varint longer than 64 bits");
    }
    corrupt("varint runs past chunk payload");
}

/**
 * Reads one varint from *p, with a branch-free-ish fast path for the
 * dominant single-byte case. Overruns throw (in the slow path), so a
 * corrupt trace fails loudly instead of reading out of bounds.
 */
inline uint64_t
readVarint(const uint8_t *&p, const uint8_t *end)
{
    if (p < end && !(*p & 0x80))
        return *p++;
    return readVarintSlow(p, end);
}

/** Unchecked varint write; the caller guarantees 10 bytes of room. */
inline uint8_t *
writeVarint(uint8_t *p, uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<uint8_t>(v) | 0x80;
        v >>= 7;
    }
    *p++ = static_cast<uint8_t>(v);
    return p;
}

} // namespace

void
appendVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

size_t
EncodedTrace::totalBytes() const
{
    size_t n = 0;
    for (const Chunk &c : chunks_)
        n += c.bytes.size();
    return n;
}

double
EncodedTrace::bytesPerInstr() const
{
    return instructions_ == 0
               ? 0.0
               : static_cast<double>(totalBytes()) /
                     static_cast<double>(instructions_);
}

std::vector<const ir::Instr *>
buildSidTable(const ir::Program &prog)
{
    std::vector<const ir::Instr *> table(prog.sidLimit(), nullptr);
    for (size_t f = 0; f < prog.numFunctions(); f++) {
        for (const auto &bb : prog.function(f).blocks) {
            for (const auto &in : bb.instrs) {
                if (in.sid >= table.size())
                    throw util::StatusError(util::Status::internal(
                        "instruction sid beyond Program::sidLimit()"));
                table[in.sid] = &in;
            }
        }
    }
    return table;
}

// --- TraceRecorder ----------------------------------------------------

TraceRecorder::TraceRecorder(const ir::Program &prog,
                             uint32_t keyframe_interval)
    : payload_(kChunkEvents * kMaxEventBytes),
      branch_bits_(kChunkEvents / 8 + 1, 0),
      last_addr_(prog.sidLimit(), 0), last_bits_(prog.sidLimit(), 0)
{
    trace_.setSidLimit(prog.sidLimit());
    trace_.setKeyframeInterval(keyframe_interval);
    kind_of_sid_.assign(prog.sidLimit(), kPlain);
    for (const ir::Instr *in : buildSidTable(prog)) {
        if (in)
            kind_of_sid_[in->sid] =
                static_cast<uint8_t>(kindOf(in->op));
    }
}

void
TraceRecorder::encodeOne(const DynInstr &di)
{
    assert(di.matchesInstr());
    const uint32_t sid = di.sid;
    uint8_t *const base = payload_.data();
    // Static instructions mostly execute in layout order, so the
    // zigzagged sid delta is usually 0..3 and fits one byte even in
    // programs with hundreds of sids. +1 keeps code 0 free for the
    // run-boundary marker.
    uint8_t *p = writeVarint(
        base + payload_pos_,
        zigzagEncode(static_cast<int64_t>(sid) -
                     static_cast<int64_t>(prev_sid_)) + 1);
    prev_sid_ = sid;
    switch (kind_of_sid_[sid]) {
      case kPlain:
        break;
      case kMem:
        p = writeVarint(p, zigzagEncode(static_cast<int64_t>(
                               di.addr - last_addr_[sid])));
        last_addr_[sid] = di.addr;
        break;
      case kIntLoad:
        p = writeVarint(p, zigzagEncode(static_cast<int64_t>(
                               di.addr - last_addr_[sid])));
        last_addr_[sid] = di.addr;
        p = writeVarint(p, zigzagEncode(static_cast<int64_t>(
                               di.loadValueBits - last_bits_[sid])));
        last_bits_[sid] = di.loadValueBits;
        break;
      case kFpLoad:
        p = writeVarint(p, zigzagEncode(static_cast<int64_t>(
                               di.addr - last_addr_[sid])));
        last_addr_[sid] = di.addr;
        p = writeVarint(p, di.loadValueBits ^ last_bits_[sid]);
        last_bits_[sid] = di.loadValueBits;
        break;
      case kBranch: {
        const uint32_t bit = chunk_branches_++;
        if (di.taken)
            branch_bits_[bit >> 3] |=
                static_cast<uint8_t>(1u << (bit & 7));
        break;
      }
    }
    payload_pos_ = static_cast<size_t>(p - base);
    instructions_++;
    seq_++;
    if (++chunk_events_ == kChunkEvents)
        sealChunk();
}

void
TraceRecorder::onInstr(const DynInstr &di)
{
    encodeOne(di);
}

void
TraceRecorder::onBatch(const DynInstr *batch, size_t n)
{
    for (size_t i = 0; i < n; i++)
        encodeOne(batch[i]);
}

void
TraceRecorder::onRunEnd()
{
    payload_[payload_pos_++] = 0; // run-boundary marker (code 0)
    runs_++;
    seq_ = 0;
    if (++chunk_events_ == kChunkEvents)
        sealChunk();
}

void
TraceRecorder::sealChunk()
{
    if (chunk_events_ == 0)
        return;
    const size_t bitmap_bytes = (chunk_branches_ + 7) / 8;
    EncodedTrace::Chunk chunk;
    chunk.numEvents = chunk_events_;
    chunk.bitmapOffset = static_cast<uint32_t>(payload_pos_);
    chunk.startSeq = chunk_start_seq_;
    chunk.keyframe = trace_.isKeyframe(trace_.chunks().size());
    chunk.bytes.reserve(payload_pos_ + bitmap_bytes);
    chunk.bytes.assign(payload_.begin(),
                       payload_.begin() + payload_pos_);
    chunk.bytes.insert(chunk.bytes.end(), branch_bits_.begin(),
                       branch_bits_.begin() + bitmap_bytes);
    trace_.appendChunk(std::move(chunk));
    std::fill(branch_bits_.begin(),
              branch_bits_.begin() + bitmap_bytes, 0);
    payload_pos_ = 0;
    chunk_events_ = 0;
    chunk_branches_ = 0;
    chunk_start_seq_ = seq_;
    // If the chunk now opening is a keyframe, reset the delta state
    // so decoding can enter the stream here without the prefix. The
    // decoder mirrors this via Chunk::keyframe.
    if (trace_.isKeyframe(trace_.chunks().size())) {
        prev_sid_ = 0;
        std::fill(last_addr_.begin(), last_addr_.end(), 0);
        std::fill(last_bits_.begin(), last_bits_.end(), 0);
    }
}

EncodedTrace
TraceRecorder::finish()
{
    sealChunk();
    trace_.setCounts(instructions_, runs_);
    return std::move(trace_);
}

// --- TraceReplayer ----------------------------------------------------

TraceReplayer::TraceReplayer(const ir::Program &prog)
    : trace_(nullptr), batch_(kBatchCapacity),
      last_addr_(prog.sidLimit(), 0), last_bits_(prog.sidLimit(), 0)
{
    const std::vector<const ir::Instr *> table = buildSidTable(prog);
    sid_.resize(table.size());
    for (size_t s = 0; s < table.size(); s++) {
        sid_[s].proto.instr = table[s];
        if (table[s]) {
            sid_[s].proto.op = table[s]->op;
            sid_[s].proto.sid = table[s]->sid;
            sid_[s].kind = static_cast<uint8_t>(kindOf(table[s]->op));
        }
    }
}

TraceReplayer::TraceReplayer(const EncodedTrace &trace,
                             const ir::Program &prog)
    : TraceReplayer(prog)
{
    if (prog.sidLimit() != trace.sidLimit())
        init_status_ = util::Status::failedPrecondition(
            "replay program sid space differs from the recording "
            "(trace was captured from a different program)");
    trace_ = &trace;
}

void
TraceReplayer::flush(size_t n)
{
    for (TraceSink *s : sinks_)
        s->onBatch(batch_.data(), n);
}

void
TraceReplayer::beginStream(uint64_t start_seq)
{
    seq_ = start_seq;
    prev_sid_ = 0;
    delivered_ = 0;
    batch_n_ = 0;
    std::fill(last_addr_.begin(), last_addr_.end(), 0);
    std::fill(last_bits_.begin(), last_bits_.end(), 0);
}

uint64_t
TraceReplayer::endStream()
{
    if (batch_n_ > 0) {
        flush(batch_n_);
        batch_n_ = 0;
    }
    return delivered_;
}

util::Status
TraceReplayer::streamChunk(const EncodedTrace::Chunk &chunk)
{
    if (!init_status_.ok())
        return init_status_;
    try {
        decodeChunk(chunk);
        return {};
    } catch (const util::StatusError &e) {
        return e.status();
    }
}

void
TraceReplayer::decodeChunk(const EncodedTrace::Chunk &chunk)
{
    // A salvage gap: the chunks that originally preceded this one are
    // gone, so drain the sinks' in-flight state (pipeline/scoreboard)
    // and resume per-run seq numbering where the chunk expects it.
    if (__builtin_expect(chunk.gapBefore, 0)) {
        if (batch_n_ > 0) {
            flush(batch_n_);
            batch_n_ = 0;
        }
        for (TraceSink *s : sinks_)
            s->onGap();
        seq_ = chunk.startSeq;
    }
    // Mirror the recorder's keyframe reset (idempotent when the
    // stream just began here — beginStream() resets the same state).
    if (chunk.keyframe) {
        prev_sid_ = 0;
        std::fill(last_addr_.begin(), last_addr_.end(), 0);
        std::fill(last_bits_.begin(), last_bits_.end(), 0);
    }
    // Hot loop: hoist member state into locals for the duration of
    // the chunk, write back at the end.
    const uint64_t sid_limit = last_addr_.size();
    const SidDecode *sids = sid_.data();
    uint64_t *last_addr = last_addr_.data();
    uint64_t *last_bits = last_bits_.data();
    DynInstr *batch = batch_.data();
    uint64_t instructions = delivered_;
    uint64_t seq = seq_;
    uint64_t prev_sid = prev_sid_;
    size_t bn = batch_n_;

    const uint8_t *p = chunk.bytes.data();
    const uint8_t *end = p + chunk.bitmapOffset;
    const uint8_t *bitmap = end;
    const uint8_t *bitmap_end = chunk.bytes.data() + chunk.bytes.size();
    uint32_t branch_idx = 0;
    for (uint32_t e = 0; e < chunk.numEvents; e++) {
        // Keep the streamed payload from evicting the sinks'
        // working sets: it is read once, so fetch ahead with
        // non-temporal locality.
        __builtin_prefetch(p + 512, 0, 0);
        const uint64_t code = readVarint(p, end);
        if (__builtin_expect(code == 0, 0)) {
            // Run boundary: flush, then onRunEnd, exactly as the
            // interpreter orders them; seq restarts per run.
            if (bn > 0) {
                flush(bn);
                bn = 0;
            }
            for (TraceSink *s : sinks_)
                s->onRunEnd();
            seq = 0;
            continue;
        }
        const uint64_t sid =
            prev_sid + static_cast<uint64_t>(zigzagDecode(code - 1));
        prev_sid = sid;
        if (__builtin_expect(sid >= sid_limit, 0))
            corrupt("event sid out of range");
        const SidDecode &sd = sids[sid];
        // A sid inside the limit can still be unused by the program;
        // delivering its null instr pointer would crash the sinks.
        if (__builtin_expect(sd.proto.instr == nullptr, 0))
            corrupt("event references an unused sid");
        DynInstr &di = batch[bn];
        di = sd.proto; // one copy: instr, op, sid set; dynamic fields 0
        di.seq = seq++;
        switch (sd.kind) {
          case kPlain:
            break;
          case kMem:
            di.addr = last_addr[sid] += static_cast<uint64_t>(
                zigzagDecode(readVarint(p, end)));
            break;
          case kIntLoad:
            di.addr = last_addr[sid] += static_cast<uint64_t>(
                zigzagDecode(readVarint(p, end)));
            di.loadValueBits = last_bits[sid] +=
                static_cast<uint64_t>(
                    zigzagDecode(readVarint(p, end)));
            break;
          case kFpLoad:
            di.addr = last_addr[sid] += static_cast<uint64_t>(
                zigzagDecode(readVarint(p, end)));
            di.loadValueBits = last_bits[sid] ^= readVarint(p, end);
            break;
          case kBranch: {
            const uint32_t bit = branch_idx++;
            if (bitmap + (bit >> 3) >= bitmap_end)
                corrupt("branch bitmap overrun");
            di.taken = (bitmap[bit >> 3] >> (bit & 7)) & 1;
            break;
          }
        }
        instructions++;
        if (++bn == kBatchCapacity) {
            flush(bn);
            bn = 0;
        }
    }
    if (p != end)
        corrupt("chunk payload has trailing bytes");

    delivered_ = instructions;
    seq_ = seq;
    prev_sid_ = prev_sid;
    batch_n_ = bn;
}

util::StatusOr<uint64_t>
TraceReplayer::replay()
{
    if (!trace_)
        return util::Status::failedPrecondition(
            "replay() needs an in-memory trace (use the streaming API "
            "for file-backed replay)");
    if (!init_status_.ok())
        return init_status_;
    const std::vector<EncodedTrace::Chunk> &chunks = trace_->chunks();
    beginStream(chunks.empty() ? 0 : chunks.front().startSeq);
    try {
        for (const EncodedTrace::Chunk &chunk : chunks)
            decodeChunk(chunk);
    } catch (const util::StatusError &e) {
        return e.status();
    }
    return endStream();
}

} // namespace bioperf::vm
