#include "cpu/timing_core.h"

#include <algorithm>
#include <cassert>
#include <cstring>

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
    inputs_.resize(Memo::kMaxSegmentLen + 1);
}

void
TimingCore::onBatch(const vm::DynInstr *batch, size_t n)
{
    while (n > 0) {
        const size_t m = n < kChunk ? n : kChunk;
        resolve(batch, m);
        batch_ = batch;
        schedule(open_ + m);
        batch += m;
        n -= m;
    }
}

void
TimingCore::resolve(const vm::DynInstr *batch, size_t n)
{
    // Every evaluation platform predicts with the hybrid: called
    // directly, its update inlines into the loop.
    if (hybrid_)
        resolveWith(*hybrid_, batch, n);
    else
        resolveWith(*predictor_, batch, n);
}

template <typename Predictor>
void
TimingCore::resolveWith(Predictor &predictor, const vm::DynInstr *batch,
                        size_t n)
{
    Resolved &r = resolved_;
    const size_t base = open_;
    uint64_t mispredicts = 0;
    for (size_t i = 0; i < n; i++) {
        const vm::DynInstr &di = batch[i];
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

        r.latency[base + i] = latency;
        r.sid[base + i] = di.sid;
        r.mispredicted[base + i] = mispredicted;
        r.taken[base + i] = di.taken;
    }
    mispredicts_ += mispredicts;
    instructions_ += n;
}

void
TimingCore::schedule(size_t end)
{
    open_ = 0;
    size_t i = 0;
    while (i < end) {
        if (!memo_.on() || !memoizable()) {
            step(i, end);
            return;
        }
        i = stepping_ ? stepOpen(i, end) : replay(i, end);
    }
}

size_t
TimingCore::replay(size_t i, size_t end)
{
    Resolved &r = resolved_;
    while (i < end) {
        const uint32_t seg_id = memo_.segmentAt(r.sid[i]);
        if (cur_ == Memo::kNone || seg_id == Memo::kNone) {
            beginStep(seg_id, true);
            return i;
        }
        const Memo::Segment &seg = memo_.segment(seg_id);
        const uint32_t *sids = memo_.sidsOf(seg);
        const size_t avail = std::min<size_t>(seg.len, end - i);
        for (size_t k = 1; k < avail; k++) {
            if (r.sid[i + k] != sids[k]) {
                // Not the recorded segment: the stream left the
                // program's control flow (a sampler's skipped stretch).
                beginStep(seg_id, false);
                return i;
            }
        }
        if (avail < seg.len) {
            // Cut by the chunk end: carry the prefix to the next chunk.
            const size_t n = end - i;
            if (i > 0) {
                std::memmove(r.latency, r.latency + i,
                             n * sizeof *r.latency);
                std::memmove(r.sid, r.sid + i, n * sizeof *r.sid);
                std::memmove(r.mispredicted, r.mispredicted + i,
                             n * sizeof *r.mispredicted);
                std::memmove(r.taken, r.taken + i, n * sizeof *r.taken);
            }
            open_ = n;
            return end;
        }

        const uint8_t *loads = memo_.loadsOf(seg);
        uint32_t *in = inputs_.data();
        for (uint32_t k = 0; k < seg.numLoads; k++)
            in[k] = r.latency[i + loads[k]];
        const size_t t = i + seg.len - 1;
        in[seg.numLoads] = terminalFlags(t);
        const uint32_t e = memo_.replay(last_, cur_, seg_id, in);
        if (e == Memo::kNone) {
            beginStep(seg_id, true);
            return i;
        }
        const Memo::Edge &edge = memo_.edge(e);
        assert(edge.state == cur_);
        if (stepped_) {
            frontier_ = frontier();
            stepped_ = false;
        }
        frontier_ += edge.client;
        cur_ = edge.next;
        last_ = e;
        cycles_ = frontier_ + static_cast<int64_t>(edge.nextSpan);
        i = t + 1;
    }
    return i;
}

void
TimingCore::beginStep(uint32_t seg, bool edge)
{
    ensureStepped();
    stepping_ = true;
    last_ = Memo::kNone;
    rec_seg_ = seg;
    rec_segment_ = seg == Memo::kNone;
    rec_edge_ = edge && cur_ != Memo::kNone;
    rec_from_ = cur_;
    rec_frontier_ = frontier();
    rec_sids_.clear();
    rec_loads_.clear();
    rec_inputs_.clear();
}

size_t
TimingCore::stepOpen(size_t i, size_t end)
{
    const Resolved &r = resolved_;
    size_t t = i;
    while (t < end && !decode_.at(r.sid[t]).isBranch)
        t++;
    const size_t stop = t < end ? t + 1 : end;
    if (rec_segment_ || rec_edge_) {
        // A known segment's edge is recorded only if the stream
        // follows its sids.
        const uint32_t *known = nullptr;
        size_t known_len = Memo::kMaxSegmentLen;
        if (!rec_segment_) {
            const Memo::Segment &seg = memo_.segment(rec_seg_);
            known = memo_.sidsOf(seg);
            known_len = seg.len;
        }
        for (size_t k = i; k < stop; k++) {
            const size_t pos = rec_sids_.size();
            if (pos == known_len || (known && r.sid[k] != known[pos])) {
                rec_segment_ = rec_edge_ = false;
                break;
            }
            if (decode_.at(r.sid[k]).kind == DecodedInstr::kLoad) {
                rec_loads_.push_back(
                    static_cast<uint8_t>(rec_sids_.size()));
                rec_inputs_.push_back(r.latency[k]);
            }
            rec_sids_.push_back(r.sid[k]);
        }
    }
    step(i, stop);
    if (t < end)
        endSegment(t);
    return stop;
}

uint32_t
TimingCore::terminalFlags(size_t t) const
{
    return resolved_.mispredicted[t] |
           (key_direction_ && resolved_.taken[t]) << 1;
}

void
TimingCore::endSegment(size_t t)
{
    stepping_ = false;
    const uint32_t seg =
        rec_segment_ ? memo_.addSegment(rec_sids_, rec_loads_) : rec_seg_;
    const uint32_t next = boundaryState();
    const uint64_t advance = frontier() - rec_frontier_;
    if (rec_edge_ && seg != Memo::kNone && next != Memo::kNone) {
        rec_inputs_.push_back(terminalFlags(t));
        assert(rec_inputs_.size() == memo_.segment(seg).numLoads + 1);
        assert(advance <= UINT32_MAX);
        memo_.addEdge(rec_from_, seg, rec_inputs_.data(), next,
                      static_cast<uint32_t>(advance));
    }
    cur_ = next;
}

uint32_t
TimingCore::boundaryState()
{
    const int64_t span = static_cast<int64_t>(cycles_ - frontier());
    if (!memo_.on() || span > kMaxSpan || span < -kMaxSpan ||
        !canonicalize(words_))
        return Memo::kNone;
    return memo_.intern(words_, static_cast<int16_t>(span));
}

void
TimingCore::ensureStepped()
{
    if (stepped_)
        return;
    const Memo::State &s = memo_.state(cur_);
    materialize(memo_.wordsOf(s), s.len, frontier_);
    stepped_ = true;
    assert(cycles_ == frontier_ + static_cast<int64_t>(s.span));
#ifndef NDEBUG
    std::vector<uint16_t> back;
    const bool written = canonicalize(back);
    assert(written && back.size() == s.len &&
           std::equal(back.begin(), back.end(), memo_.wordsOf(s)));
#endif
}

void
TimingCore::settle()
{
    // The carried prefix of a known segment: step it, and the rest of
    // the segment with it, recording the edge as a miss would.
    const size_t n = open_;
    open_ = 0;
    beginStep(memo_.segmentAt(resolved_.sid[0]), true);
    stepOpen(0, n);
}

void
TimingCore::syncStepped()
{
    if (open_ > 0)
        settle();
    ensureStepped();
    if (!stepping_)
        beginStep(Memo::kNone, false);
    rec_segment_ = rec_edge_ = false;
}

void
TimingCore::onRunEnd()
{
    syncStepped();
    std::fill(ready_.begin(), ready_.end(), 0);
    // The next event starts a segment; its state is interned at the
    // next boundary.
    stepping_ = false;
    cur_ = Memo::kNone;
}

void
TimingCore::onGap()
{
    onRunEnd();
}

void
TimingCore::reset()
{
    std::fill(ready_.begin(), ready_.end(), 0);
    cycles_ = 0;
    instructions_ = 0;
    mispredicts_ = 0;
    open_ = 0;
    last_ = Memo::kNone;
    stepped_ = true;
    stepping_ = false;
    cur_ = Memo::kNone;
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
