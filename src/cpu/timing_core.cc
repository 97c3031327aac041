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
    while (n > 0) {
        const size_t m = n < kChunk ? n : kChunk;
        resolve(batch, m);
        batch_ = batch;
        feed(m);
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

        r.latency[i] = latency;
        r.sid[i] = di.sid;
        r.mispredicted[i] = mispredicted;
        r.taken[i] = di.taken;
    }
    mispredicts_ += mispredicts;
    instructions_ += n;
}

void
TimingCore::gather(const Memo::Segment &s, uint32_t pos, size_t i, size_t k,
                   uint32_t *inputs) const
{
    const uint8_t *loads = memo().loadsOf(s);
    for (uint32_t j = 0; j < s.numLoads; j++) {
        if (loads[j] >= pos && loads[j] < pos + k)
            inputs[j] = resolved_.latency[i + loads[j] - pos];
    }
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
        step(r, i, n);
        return n;
    }
    size_t t = i;
    while (t < n && !decode_.at(r.sid[t]).isBranch)
        t++;
    ended = t < n;
    const size_t stop = ended ? t + 1 : n;
    for (size_t k = i; rec && k < stop; k++) {
        if (rec->sids.size() < Memo::kMaxSegmentLen &&
            decode_.at(r.sid[k]).kind == DecodedInstr::kLoad) {
            rec->loads.push_back(static_cast<uint8_t>(rec->sids.size()));
            rec->inputs.push_back(r.latency[k]);
        }
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
