#include "cpu/timing_core.h"

#include <algorithm>

namespace bioperf::cpu {

TimingCore::TimingCore(const CoreConfig &config,
                       mem::CacheHierarchy *caches,
                       branch::BranchPredictor *predictor)
    : config_(config), caches_(caches),
      predictor_(predictor), decode_(config)
{
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
