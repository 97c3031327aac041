#include "cpu/timing_core.h"

#include <algorithm>
#include <cassert>

namespace bioperf::cpu {

using Memo = vm::SegmentMemo;

TimingCore::TimingCore(const CoreConfig &config,
                       mem::CacheHierarchy *caches,
                       branch::BranchPredictor *predictor,
                       bool key_direction)
    : config_(config), caches_(caches), predictor_(predictor),
      hybrid_(dynamic_cast<branch::HybridPredictor *>(predictor)),
      decode_(config), key_direction_(key_direction)
{
}

void
TimingCore::onBatch(const vm::DynInstr *batch, size_t n)
{
    instructions_ += n;
    while (n > 0) {
        const size_t m = n < kChunk ? n : kChunk;
        batch_ = batch;
        feed(m);
        batch += m;
        n -= m;
    }
}

size_t
TimingCore::resolve(size_t from, size_t to, bool to_terminal)
{
    // Every evaluation platform predicts with the hybrid: called
    // directly, its update inlines into the loop.
    if (hybrid_)
        return resolveWith(*hybrid_, from, to, to_terminal);
    return resolveWith(*predictor_, from, to, to_terminal);
}

template <typename Predictor>
size_t
TimingCore::resolveWith(Predictor &predictor, size_t from, size_t to,
                        bool to_terminal)
{
    Resolved &r = resolved_;
    uint64_t mispredicts = 0;
    size_t i = from;
    while (i < to) {
        const vm::DynInstr &di = batch_[i];
        assert(di.matchesInstr());
        const DecodedInstr &d = decode_.lookup(di.sid, *di.instr, ready_);

        // The common fixed-latency case takes one predictable branch;
        // only memory operations enter the switch.
        uint32_t latency = d.fixedLatency;
        if (d.kind != DecodedInstr::kFixed) {
            switch (d.kind) {
              case DecodedInstr::kLoad:
                latency = caches_->access(di.addr, false).latency;
                if (accel_) {
                    latency = accel_->adjustLatency(
                        di.sid, di.addr, di.loadValueBits, latency);
                }
                break;
              case DecodedInstr::kStore:
                // Stores commit through a write buffer: they update
                // the cache but complete in one cycle from the
                // pipeline's perspective.
                caches_->access(di.addr, true);
                latency = 1;
                break;
              default:
                // Prefetch: fire-and-forget — warms the hierarchy,
                // never stalls.
                caches_->access(di.addr, false);
                latency = 1;
                break;
            }
        }

        bool mispredicted = false;
        if (d.isBranch) {
            mispredicted = !predictor.predictAndTrain(di.sid, di.taken);
            mispredicts += mispredicted;
        }

        r.latency[i] = latency;
        r.sid[i] = di.sid;
        r.mispredicted[i] = mispredicted;
        r.taken[i] = di.taken;
        i++;
        if (d.isBranch && to_terminal)
            break;
    }
    mispredicts_ += mispredicts;
    return i;
}

#ifndef NDEBUG
namespace {

/** The DecodedInstr kind of a memory operation @a op. */
DecodedInstr::Kind
memKind(ir::Opcode op)
{
    switch (ir::classOf(op)) {
      case ir::InstrClass::Load:
      case ir::InstrClass::FpLoad:
        return DecodedInstr::kLoad;
      case ir::InstrClass::Store:
      case ir::InstrClass::FpStore:
        return DecodedInstr::kStore;
      case ir::InstrClass::Prefetch:
        return DecodedInstr::kPrefetch;
      default:
        return DecodedInstr::kUnknown;
    }
}

} // namespace
#endif

void
TimingCore::gather(uint32_t seg, uint32_t pos, size_t i, size_t k,
                   uint32_t *inputs)
{
#ifndef NDEBUG
    for (size_t j = i; j < i + k; j++)
        assert(batch_[j].matchesInstr());
#endif
    const MemOp *op = mem_ops_.data() + mem_begin_[seg];
    const MemOp *const end = mem_ops_.data() + mem_begin_[seg + 1];
    for (; op != end && op->offset < pos + k; op++) {
        if (op->offset < pos)
            continue;
        const vm::DynInstr &di = batch_[i + op->offset - pos];
        assert(memKind(di.op) == op->kind);
        if (op->kind == DecodedInstr::kLoad) {
            uint32_t latency = caches_->access(di.addr, false).latency;
            if (accel_) {
                latency = accel_->adjustLatency(di.sid, di.addr,
                                                di.loadValueBits, latency);
            }
            inputs[op->load] = latency;
        } else {
            // A store or a prefetch: see resolveWith().
            caches_->access(di.addr, op->kind == DecodedInstr::kStore);
        }
    }
}

uint32_t
TimingCore::terminal(size_t t, uint32_t seg, const Recording *rec)
{
    if (rec && seg != kNone) {
        // A new segment: keep its memory operations for gather().
        assert(seg + 1 == mem_begin_.size());
        uint8_t load = 0;
        for (size_t k = 0; k < rec->sids.size(); k++) {
            const DecodedInstr::Kind kind = decode_.at(rec->sids[k]).kind;
            if (kind == DecodedInstr::kFixed)
                continue;
            mem_ops_.push_back({ static_cast<uint8_t>(k), kind,
                                 kind == DecodedInstr::kLoad ? load++
                                                             : uint8_t{ 0 } });
        }
        mem_begin_.push_back(static_cast<uint32_t>(mem_ops_.size()));
    }
    const vm::DynInstr &br = batch_[t];
    bool mispredicted;
    if (stepped_terminal_) {
        mispredicted = resolved_.mispredicted[t];
        stepped_terminal_ = false;
    } else {
        // A skipped segment's branch: its first and only prediction.
        assert(br.matchesInstr() && decode_.at(br.sid).isBranch);
        mispredicted = hybrid_ ? !hybrid_->predictAndTrain(br.sid, br.taken)
                               : !predictor_->predictAndTrain(br.sid,
                                                              br.taken);
        mispredicts_ += mispredicted;
    }
    return mispredicted | (key_direction_ && br.taken) << 1;
}

void
TimingCore::applyEdge(const Memo::Edge &e, uint32_t, bool fresh)
{
    if (fresh)
        frontier_ = frontier();
    frontier_ += e.client;
    cycles_ = frontier_ + static_cast<int64_t>(e.nextSpan);
}

size_t
TimingCore::stepLive(size_t i, size_t n, Recording *rec, bool &ended)
{
    const Resolved &r = resolved_;
    if (!memo().on() || !memoizable()) {
        resolve(i, n, false);
        step(r, i, n);
        return n;
    }
    const size_t stop = resolve(i, n, true);
    ended = decode_.at(r.sid[stop - 1]).isBranch;
    stepped_terminal_ = ended;
    for (size_t k = i; rec && k < stop; k++) {
        if (rec->sids.size() < Memo::kMaxSegmentLen &&
            decode_.at(r.sid[k]).kind == DecodedInstr::kLoad)
            rec->inputs.push_back(r.latency[k]);
        rec->sids.push_back(r.sid[k]);
    }
    step(r, i, stop);
    return stop;
}

void
TimingCore::stepRecorded(const Memo::Segment &s, uint32_t len,
                         const uint32_t *inputs)
{
    const uint32_t *sids = memo().sidsOf(s);
    Resolved &r = recorded_;
    uint32_t load = 0;
    for (uint32_t k = 0; k < len; k++) {
        const DecodedInstr &d = decode_.at(sids[k]);
        r.sid[k] = sids[k];
        r.latency[k] = d.kind == DecodedInstr::kLoad    ? inputs[load++]
                       : d.kind == DecodedInstr::kFixed ? d.fixedLatency
                                                        : 1;
        r.mispredicted[k] = false;
        r.taken[k] = false;
    }
    if (len == s.len) {
        r.mispredicted[len - 1] = inputs[s.numLoads] & 1;
        r.taken[len - 1] = inputs[s.numLoads] >> 1 & 1;
    }
    step(r, 0, len);
}

uint32_t
TimingCore::segmentEnd()
{
    const uint64_t advance = frontier() - start_frontier_;
    assert(advance <= UINT32_MAX);
    return static_cast<uint32_t>(advance);
}

bool
TimingCore::saveState(std::vector<uint16_t> &words, int16_t &span,
                      const uint32_t *, size_t)
{
    const int64_t s = static_cast<int64_t>(cycles_ - frontier());
    if (!memoizable() || s > kMaxSpan || s < -kMaxSpan ||
        !canonicalize(words))
        return false;
    span = static_cast<int16_t>(s);
    return true;
}

void
TimingCore::reset()
{
    std::fill(ready_.begin(), ready_.end(), 0);
    cycles_ = 0;
    instructions_ = 0;
    mispredicts_ = 0;
    clearPipeline();
    restart();
}

double
TimingCore::ipc()
{
    const uint64_t c = cycles();
    return c == 0 ? 0.0
                  : static_cast<double>(instructions_) /
                        static_cast<double>(c);
}

double
TimingCore::seconds()
{
    return static_cast<double>(cycles()) / (config_.clockGhz * 1e9);
}

} // namespace bioperf::cpu
