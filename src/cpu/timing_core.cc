#include "cpu/timing_core.h"

#include <algorithm>
#include <cassert>

namespace bioperf::cpu {

using Memo = vm::SegmentMemo;

TimingCore::TimingCore(const CoreConfig &config,
                       mem::CacheHierarchy *caches,
                       branch::BranchPredictor *predictor,
                       bool key_direction)
    : config_(config), outcomes_(caches, predictor), decode_(config),
      key_direction_(key_direction)
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
    Resolved &r = resolved_;
    uint64_t mispredicts = 0;
    size_t i = from;
    while (i < to) {
        const vm::DynInstr &di = batch_[i];
        assert(di.matchesInstr());
        const DecodedInstr &d = decode_.lookup(di.sid, *di.instr, ready_);

        // The common fixed-latency case takes one predictable branch.
        const uint32_t latency = d.kind == DecodedInstr::kFixed
                                     ? d.fixedLatency
                                     : outcomes_.access(d.kind, di);
        bool mispredicted = false;
        if (d.isBranch) {
            mispredicted = outcomes_.mispredicted(di);
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
        assert(memoryKind(di.op) == op->kind);
        const uint32_t latency = outcomes_.access(op->kind, di);
        if (op->kind == DecodedInstr::kLoad)
            inputs[op->load] = latency;
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
        mispredicted = outcomes_.mispredicted(br);
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
        r.latency[k] =
            d.kind == DecodedInstr::kLoad ? inputs[load++] : d.fixedLatency;
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
