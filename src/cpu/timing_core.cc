#include "cpu/timing_core.h"

#include <algorithm>
#include <cassert>

namespace bioperf::cpu {

TimingCore::TimingCore(const CoreConfig &config,
                       mem::CacheHierarchy *caches,
                       branch::BranchPredictor *predictor)
    : config_(config), caches_(caches),
      predictor_(predictor), decode_(config)
{
}

void
TimingCore::onBatch(const vm::DynInstr *batch, size_t n)
{
    while (n > 0) {
        const size_t m = n < kChunk ? n : kChunk;
        resolve(batch, m);
        schedule(batch, m);
        batch += m;
        n -= m;
    }
}

void
TimingCore::resolve(const vm::DynInstr *batch, size_t n)
{
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
            mispredicted = !predictor_->predictAndTrain(di.sid, di.taken);
            mispredicts += mispredicted;
        }

        resolved_.decoded[i] = d;
        resolved_.latency[i] = latency;
        resolved_.mispredicted[i] = mispredicted;
    }
    mispredicts_ += mispredicts;
    instructions_ += n;
}

void
TimingCore::onRunEnd()
{
    std::fill(ready_.begin(), ready_.end(), 0);
}

void
TimingCore::onGap()
{
    std::fill(ready_.begin(), ready_.end(), 0);
}

void
TimingCore::reset()
{
    std::fill(ready_.begin(), ready_.end(), 0);
    cycles_ = 0;
    instructions_ = 0;
    mispredicts_ = 0;
}

double
TimingCore::ipc() const
{
    return cycles_ == 0 ? 0.0
                        : static_cast<double>(instructions_) /
                              static_cast<double>(cycles_);
}

double
TimingCore::seconds() const
{
    return static_cast<double>(cycles_) / (config_.clockGhz * 1e9);
}

} // namespace bioperf::cpu
