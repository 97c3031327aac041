#include "vm/trace_codec.h"

#include <algorithm>
#include <cassert>

namespace bioperf::vm {

namespace {

/**
 * Decode kinds, precomputed per sid so the codec loops are a dense
 * switch instead of opcode classification per event.
 */
enum Kind : uint8_t {
    kPlain = 0,   ///< no memory operand, not a branch
    kMem = 1,     ///< store/prefetch: address only
    kIntLoad = 2, ///< address + value delta
    kFpLoad = 3,  ///< address + value XOR
    kBranch = 4,  ///< direction bit; next[taken] follows
    kJump = 5,    ///< Jmp/Halt: nothing stored; next[0] follows
    // Replay walk positions that are no instruction (records 0-2).
    kOpening = 6, ///< the next event is coded
    kRunEnd = 7,  ///< an uncoded run-end marker (after Halt)
    kOffProgram = 8, ///< no successor: the walk left the program
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
    if (op == ir::Opcode::Jmp || op == ir::Opcode::Halt)
        return kJump;
    return kPlain;
}

/**
 * Successor sentinels of the sid-level walk, above every sid
 * (buildFlow() refuses a program whose sid space would reach them), so
 * no event's sid ever equals one.
 */
constexpr uint32_t kCoded = 0xfffffffdu;    ///< next event is coded
constexpr uint32_t kOffTable = 0xfffffffeu; ///< no successor exists
constexpr uint32_t kAfterHalt = 0xffffffffu; ///< the run ends next

/** One sid's static instruction and the sids that can follow it. */
struct SidFlow
{
    const ir::Instr *instr = nullptr;
    /** Successor when the instruction falls through or its Br is not
     *  taken, and when its Br is taken. */
    uint32_t next[2] = { kOffTable, kOffTable };
};

/**
 * The successor table recorder and replayer walk, mirroring how the
 * interpreter moves between instructions: the next instruction of the
 * block; for Br the first instruction of notTaken or taken; for Jmp
 * the first of taken; Halt ends the run. A successor the program
 * does not define (a block without a terminator, a target out of
 * range) is kOffTable; verified IR has none.
 */
std::vector<SidFlow>
buildFlow(const ir::Program &prog)
{
    if (prog.sidLimit() >= kCoded)
        throw util::StatusError(util::Status::internal(
            "program sid space reaches the trace codec's sentinels"));
    const std::vector<const ir::Instr *> table = buildSidTable(prog);
    std::vector<SidFlow> flow(table.size());
    for (size_t f = 0; f < prog.numFunctions(); f++) {
        const ir::Function &fn = prog.function(f);
        auto first = [&fn](uint32_t block) {
            return block < fn.blocks.size() &&
                           !fn.blocks[block].instrs.empty()
                       ? fn.blocks[block].instrs.front().sid
                       : kOffTable;
        };
        for (const auto &bb : fn.blocks) {
            for (size_t i = 0; i < bb.instrs.size(); i++) {
                const ir::Instr &in = bb.instrs[i];
                uint32_t *next = flow[in.sid].next;
                flow[in.sid].instr = &in;
                switch (in.op) {
                  case ir::Opcode::Br:
                    next[0] = first(in.notTaken);
                    next[1] = first(in.taken);
                    break;
                  case ir::Opcode::Jmp:
                    next[0] = next[1] = first(in.taken);
                    break;
                  case ir::Opcode::Halt:
                    next[0] = next[1] = kAfterHalt;
                    break;
                  default:
                    if (i + 1 < bb.instrs.size())
                        next[0] = next[1] = bb.instrs[i + 1].sid;
                    break;
                }
            }
        }
    }
    return flow;
}

/** FNV-1a over the sid space and every sid's opcode and successors. */
uint64_t
digestOf(const std::vector<SidFlow> &flow)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint32_t v) {
        for (int i = 0; i < 4; i++) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    mix(static_cast<uint32_t>(flow.size()));
    for (const SidFlow &f : flow) {
        mix(f.instr ? static_cast<uint32_t>(f.instr->op) : 0xffu);
        mix(f.next[0]);
        mix(f.next[1]);
    }
    return h;
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

uint64_t
controlFlowDigest(const ir::Program &prog)
{
    return digestOf(buildFlow(prog));
}

// --- TraceRecorder ----------------------------------------------------

TraceRecorder::TraceRecorder(const ir::Program &prog,
                             uint32_t keyframe_interval)
    : payload_(kChunkEvents * kMaxEventBytes),
      branch_bits_(kChunkEvents / 8 + 1, 0), expect_(kCoded),
      implied_(kCoded), last_addr_(prog.sidLimit(), 0),
      last_bits_(prog.sidLimit(), 0)
{
    const std::vector<SidFlow> flow = buildFlow(prog);
    trace_.setControlFlowDigest(digestOf(flow));
    trace_.setKeyframeInterval(keyframe_interval);
    sid_.resize(flow.size());
    for (size_t s = 0; s < flow.size(); s++) {
        sid_[s].next[0] = flow[s].next[0];
        sid_[s].next[1] = flow[s].next[1];
        sid_[s].kind = static_cast<uint8_t>(
            flow[s].instr ? kindOf(flow[s].instr->op) : kPlain);
    }
}

void
TraceRecorder::diverged(const char *what) const
{
    throw util::StatusError(util::Status::internal(
        std::string("trace recorder: live stream left the program's "
                    "control flow (") +
        what + ")"));
}

uint8_t *
TraceRecorder::codeEvent(uint8_t *p, uint32_t sid, uint32_t expect)
{
    // A coded event must still be what the walk implied before the
    // chunk opened; only at a run entry may any sid come.
    const uint32_t implied = expect == kCoded ? implied_ : expect;
    if (implied != kCoded && implied != sid)
        diverged(implied == kAfterHalt ? "an instruction followed Halt"
                                       : "unexpected successor");
    if (sid >= sid_.size())
        diverged("sid beyond the program");
    implied_ = kCoded;
    return writeVarint(p, uint64_t(sid) + 1);
}

void
TraceRecorder::onBatch(const DynInstr *batch, size_t n)
{
    // Hot loop: state in locals, written back before a chunk seals
    // and at the end of the batch.
    const SidEncode *sids = sid_.data();
    uint64_t *last_addr = last_addr_.data();
    uint64_t *last_bits = last_bits_.data();
    uint8_t *const base = payload_.data();
    uint8_t *p = base + payload_pos_;
    uint32_t expect = expect_;
    uint32_t events = chunk_events_;
    uint32_t branches = chunk_branches_;
    uint64_t instructions = instructions_;
    auto store = [&] {
        payload_pos_ = static_cast<size_t>(p - base);
        expect_ = expect;
        chunk_events_ = events;
        chunk_branches_ = branches;
        instructions_ = instructions;
    };

    for (size_t i = 0; i < n; i++) {
        const DynInstr &di = batch[i];
        assert(di.matchesInstr());
        const uint32_t sid = di.sid;
        // The one check the walk costs: a coded event (chunk opening,
        // run entry) or a divergence takes the slow path.
        if (__builtin_expect(sid != expect, 0))
            p = codeEvent(p, sid, expect);
        const SidEncode &se = sids[sid];
        bool taken = false;
        switch (se.kind) {
          case kPlain:
          case kJump:
            break;
          case kMem:
            p = writeVarint(p, zigzagEncode(static_cast<int64_t>(
                                   di.addr - last_addr[sid])));
            last_addr[sid] = di.addr;
            break;
          case kIntLoad:
            p = writeVarint(p, zigzagEncode(static_cast<int64_t>(
                                   di.addr - last_addr[sid])));
            last_addr[sid] = di.addr;
            p = writeVarint(p, zigzagEncode(static_cast<int64_t>(
                                   di.loadValueBits - last_bits[sid])));
            last_bits[sid] = di.loadValueBits;
            break;
          case kFpLoad:
            p = writeVarint(p, zigzagEncode(static_cast<int64_t>(
                                   di.addr - last_addr[sid])));
            last_addr[sid] = di.addr;
            p = writeVarint(p, di.loadValueBits ^ last_bits[sid]);
            last_bits[sid] = di.loadValueBits;
            break;
          case kBranch: {
            const uint32_t bit = branches++;
            taken = di.taken;
            branch_bits_[bit >> 3] |=
                static_cast<uint8_t>(uint32_t(taken) << (bit & 7));
            break;
          }
        }
        expect = se.next[taken];
        instructions++;
        if (__builtin_expect(++events == kChunkEvents, 0)) {
            store();
            sealChunk();
            p = base + payload_pos_;
            expect = expect_;
            events = chunk_events_;
            branches = chunk_branches_;
        }
    }
    store();
}

void
TraceRecorder::onRunEnd()
{
    const uint32_t implied = expect_ == kCoded ? implied_ : expect_;
    if (implied != kCoded && implied != kAfterHalt)
        diverged("a run ended before Halt");
    // Coded at a chunk opening (or after an empty run), implied after
    // a Halt inside the chunk.
    if (expect_ == kCoded)
        payload_[payload_pos_++] = 0;
    expect_ = implied_ = kCoded; // the next run's entry sid is coded
    runs_++;
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
    // Every chunk opens with a coded event, which must still be the
    // one the walk implies.
    if (expect_ != kCoded) {
        implied_ = expect_;
        expect_ = kCoded;
    }
    // If the chunk now opening is a keyframe, reset the delta state
    // so decoding can enter the stream here without the prefix. The
    // decoder mirrors this via Chunk::keyframe.
    if (trace_.isKeyframe(trace_.chunks().size())) {
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
      last_addr_(prog.sidLimit(), 0), last_bits_(prog.sidLimit(), 0),
      warm_accesses_(kBatchCapacity), warm_branches_(kBatchCapacity)
{
    const std::vector<SidFlow> flow = buildFlow(prog);
    step_of_sid_.assign(flow.size(), 0);
    walk_.resize(3);
    walk_[0].kind = kOpening;
    walk_[1].kind = kRunEnd;
    walk_[2].kind = kOffProgram;
    for (size_t f = 0; f < prog.numFunctions(); f++) {
        for (const auto &bb : prog.function(f).blocks) {
            for (const auto &in : bb.instrs) {
                step_of_sid_[in.sid] = static_cast<uint32_t>(walk_.size());
                Step &st = walk_.emplace_back();
                st.proto.instr = &in;
                st.proto.op = in.op;
                st.proto.sid = in.sid;
                st.kind = static_cast<uint8_t>(kindOf(in.op));
                st.write = ir::isStore(in.op);
            }
            // A block that falls off its end walks off the program
            // (buildFlow() gives it no successor either).
            if (!bb.instrs.empty() && !bb.hasTerminator())
                walk_.emplace_back().kind = kOffProgram;
        }
    }
    auto step = [this](uint32_t next) -> uint32_t {
        if (next == kAfterHalt)
            return 1;
        if (next == kOffTable)
            return 2;
        return step_of_sid_[next];
    };
    for (const SidFlow &fl : flow) {
        if (fl.instr) {
            Step &st = walk_[step_of_sid_[fl.instr->sid]];
            st.next[0] = step(fl.next[0]);
            st.next[1] = step(fl.next[1]);
        }
    }
}

TraceReplayer::TraceReplayer(const EncodedTrace &trace,
                             const ir::Program &prog)
    : TraceReplayer(prog)
{
    if (controlFlowDigest(prog) != trace.controlFlowDigest())
        init_status_ = util::Status::failedPrecondition(
            "replay program's control flow differs from the recording "
            "(trace was captured from a different program)");
    trace_ = &trace;
}

void
TraceReplayer::flush()
{
    if (batch_n_ == 0)
        return;
    for (TraceSink *s : sinks_)
        s->onBatch(batch_.data(), batch_n_);
    delivered_ += batch_n_;
    batch_n_ = 0;
}

void
TraceReplayer::flushWarm()
{
    if (warm_n_ == 0)
        return;
    const WarmBatch batch{ .accesses = warm_accesses_.data(),
                           .numAccesses = warm_accesses_n_,
                           .branches = warm_branches_.data(),
                           .numBranches = warm_branches_n_,
                           .instructions = warm_n_ };
    for (TraceSink *s : sinks_)
        s->onWarm(batch);
    delivered_ += warm_n_;
    warm_left_ -= warm_n_;
    warm_n_ = warm_accesses_n_ = warm_branches_n_ = 0;
}

void
TraceReplayer::runEnd()
{
    // Run boundary: flush, then onRunEnd, exactly as the interpreter
    // orders them.
    flush();
    flushWarm();
    for (TraceSink *s : sinks_)
        s->onRunEnd();
}

uint64_t
TraceReplayer::warmAhead() const
{
    if (sinks_.empty())
        return 0;
    uint64_t n = UINT64_MAX;
    for (const TraceSink *s : sinks_)
        n = std::min(n, s->warmAhead());
    return n;
}

void
TraceReplayer::beginStream()
{
    delivered_ = 0;
    batch_n_ = 0;
    warm_n_ = warm_accesses_n_ = warm_branches_n_ = 0;
    warm_left_ = 0;
    std::fill(last_addr_.begin(), last_addr_.end(), 0);
    std::fill(last_bits_.begin(), last_bits_.end(), 0);
}

uint64_t
TraceReplayer::endStream()
{
    flush();
    flushWarm();
    warm_left_ = 0;
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

/** Where decoding stands inside one chunk. */
struct TraceReplayer::Cursor
{
    const uint8_t *p;         ///< next payload byte
    const uint8_t *end;       ///< end of the event payload
    const uint8_t *bitmap;    ///< the branch bitmap
    const uint8_t *bitmapEnd;
    const Step *at;           ///< the walk's next record
    uint32_t events;          ///< events left, run ends included
    uint32_t branches;        ///< branch bits consumed
};

/**
 * Emits instructions as DynInstrs into the replayer's batch, up to a
 * full batch. Emitters are values the walk keeps in registers; store()
 * writes one's position back to the replayer.
 */
class TraceReplayer::EventEmit
{
  public:
    explicit EventEmit(TraceReplayer &r)
        : r_(&r), next_(r.batch_.data() + r.batch_n_),
          end_(r.batch_.data() + kBatchCapacity)
    {
    }
    void store() const { r_->batch_n_ = next_ - r_->batch_.data(); }

    void runEnd()
    {
        store();
        r_->runEnd();
        next_ = r_->batch_.data();
    }
    void plain(const Step &st) { *next_ = st.proto; }
    void access(const Step &st, uint64_t addr, uint64_t bits)
    {
        *next_ = st.proto;
        next_->addr = addr;
        next_->loadValueBits = bits;
    }
    void branch(const Step &st, bool taken)
    {
        *next_ = st.proto;
        next_->taken = taken;
    }
    /** Counts the instruction just emitted; false when the batch is full. */
    bool counted() { return ++next_ != end_; }

  private:
    TraceReplayer *r_;
    DynInstr *next_;
    DynInstr *end_;
};

/**
 * Emits instructions into the pending WarmBatch, up to a full batch
 * or the end of the announced stretch.
 */
class TraceReplayer::WarmEmit
{
  public:
    explicit WarmEmit(TraceReplayer &r) : r_(&r) { load(); }
    void store() const
    {
        r_->warm_accesses_n_ = access_ - r_->warm_accesses_.data();
        r_->warm_branches_n_ = branch_ - r_->warm_branches_.data();
        r_->warm_n_ = limit_ - room_;
    }

    void runEnd()
    {
        store();
        r_->runEnd();
        load();
    }
    void plain(const Step &) {}
    void access(const Step &st, uint64_t addr, uint64_t)
    {
        *access_++ = { addr, st.write };
    }
    void branch(const Step &st, bool taken)
    {
        *branch_++ = { st.proto.sid, taken };
    }
    /** Counts the instruction just emitted; false when the batch is full. */
    bool counted() { return --room_ != 0; }

  private:
    void load()
    {
        access_ = r_->warm_accesses_.data() + r_->warm_accesses_n_;
        branch_ = r_->warm_branches_.data() + r_->warm_branches_n_;
        limit_ = std::min<uint64_t>(kBatchCapacity, r_->warm_left_);
        room_ = limit_ - r_->warm_n_;
    }

    TraceReplayer *r_;
    WarmBatch::Access *access_;
    WarmBatch::Branch *branch_;
    uint64_t room_;  ///< instructions the batch still takes
    uint64_t limit_; ///< instructions the batch takes in all
};

/**
 * The codec's walk, shared by both decodes: consumes events of the
 * current chunk until the chunk ends or @a emit stops after an
 * instruction. Per event it reads the opening code or follows the
 * successor record, decodes the address and value deltas against the
 * per-sid state and reads the branch bit, then hands the facts to
 * @a emit (runEnd() at a run-end marker; plain(), access() or branch()
 * per instruction, then counted()). @return the emitter where it
 * stopped.
 */
template <class Emit>
inline Emit
TraceReplayer::walk(Cursor &cursor, Emit emit)
{
    // Hot loop: the cursor, the emitter and the tables live in
    // locals; the cursor is written back when the walk stops.
    Cursor c = cursor;
    const Step *walk = walk_.data();
    uint64_t *last_addr = last_addr_.data();
    uint64_t *last_bits = last_bits_.data();
    while (c.events > 0) {
        // Every event counts, run-end markers included.
        c.events--;
        // Keep the streamed payload from evicting the sinks' working
        // sets: it is read once, so fetch ahead with non-temporal
        // locality.
        __builtin_prefetch(c.p + 512, 0, 0);
        if (__builtin_expect(c.at->kind >= kOpening, 0)) {
            if (c.at->kind == kRunEnd) {
                emit.runEnd();
                c.at = &walk[0];
                continue;
            }
            if (c.at->kind == kOffProgram)
                corrupt("control flow walks off the program");
            const uint64_t code = readVarint(c.p, c.end);
            if (code == 0) {
                emit.runEnd();
                continue;
            }
            // A sid inside the limit can still be unused by the
            // program (its record is the opening one); delivering a
            // null instr pointer would crash the sinks.
            if (code > step_of_sid_.size() || step_of_sid_[code - 1] == 0)
                corrupt("coded sid out of range");
            c.at = &walk[step_of_sid_[code - 1]];
        }
        const Step &st = *c.at;
        const uint32_t sid = st.proto.sid;
        c.at++; // block order: a non-terminator's successor
        switch (st.kind) {
          case kPlain:
            emit.plain(st);
            break;
          case kMem:
            emit.access(st,
                        last_addr[sid] += static_cast<uint64_t>(
                            zigzagDecode(readVarint(c.p, c.end))),
                        0);
            break;
          case kIntLoad: {
            const uint64_t addr = last_addr[sid] += static_cast<uint64_t>(
                zigzagDecode(readVarint(c.p, c.end)));
            emit.access(st, addr,
                        last_bits[sid] += static_cast<uint64_t>(
                            zigzagDecode(readVarint(c.p, c.end))));
            break;
          }
          case kFpLoad: {
            const uint64_t addr = last_addr[sid] += static_cast<uint64_t>(
                zigzagDecode(readVarint(c.p, c.end)));
            emit.access(st, addr,
                        last_bits[sid] ^= readVarint(c.p, c.end));
            break;
          }
          case kBranch: {
            const uint32_t bit = c.branches++;
            if (c.bitmap + (bit >> 3) >= c.bitmapEnd)
                corrupt("branch bitmap overrun");
            const bool taken = (c.bitmap[bit >> 3] >> (bit & 7)) & 1;
            emit.branch(st, taken);
            c.at = &walk[st.next[taken]];
            break;
          }
          case kJump:
            emit.plain(st);
            c.at = &walk[st.next[0]];
            break;
          default: // kinds past kJump are not instructions: see above
            __builtin_unreachable();
        }
        if (!emit.counted())
            break;
    }
    cursor = c;
    return emit;
}

void
TraceReplayer::decodeChunk(const EncodedTrace::Chunk &chunk)
{
    if (chunk.bitmapOffset > chunk.bytes.size())
        corrupt("branch bitmap offset beyond the chunk");
    // A salvage gap: the chunks that originally preceded this one are
    // gone, so drain the sinks' in-flight state (pipeline/scoreboard).
    if (__builtin_expect(chunk.gapBefore, 0)) {
        flush();
        flushWarm();
        for (TraceSink *s : sinks_)
            s->onGap();
    }
    // Mirror the recorder's keyframe reset (idempotent when the
    // stream just began here — beginStream() resets the same state).
    if (chunk.keyframe) {
        std::fill(last_addr_.begin(), last_addr_.end(), 0);
        std::fill(last_bits_.begin(), last_bits_.end(), 0);
    }
    const uint8_t *bytes = chunk.bytes.data();
    // Every chunk opens with a coded event.
    Cursor cursor{ .p = bytes,
                   .end = bytes + chunk.bitmapOffset,
                   .bitmap = bytes + chunk.bitmapOffset,
                   .bitmapEnd = bytes + chunk.bytes.size(),
                   .at = &walk_[0],
                   .events = chunk.numEvents,
                   .branches = 0 };
    while (cursor.events > 0) {
        // With no event buffered, the sinks' phase is current: ask
        // whether a warm stretch comes next.
        if (batch_n_ == 0 && warm_left_ == 0)
            warm_left_ = warmAhead();
        if (warm_left_ > 0) {
            walk(cursor, WarmEmit(*this)).store();
            if (warm_n_ == kBatchCapacity || warm_n_ == warm_left_)
                flushWarm();
        } else {
            walk(cursor, EventEmit(*this)).store();
            if (batch_n_ == kBatchCapacity)
                flush();
        }
    }
    if (cursor.p != cursor.end)
        corrupt("chunk payload has trailing bytes");
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
    beginStream();
    try {
        for (const EncodedTrace::Chunk &chunk : chunks)
            decodeChunk(chunk);
    } catch (const util::StatusError &e) {
        return e.status();
    }
    return endStream();
}

} // namespace bioperf::vm
