#include "util/stats.h"

#include <cassert>
#include <cmath>

namespace bioperf::util {

void
RunningStats::add(double x)
{
    count_++;
    if (count_ == 1) {
        min_ = max_ = x;
    } else {
        if (x < min_) min_ = x;
        if (x > max_) max_ = x;
    }
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::stderror() const
{
    if (count_ < 2)
        return 0.0;
    return stddev() / std::sqrt(static_cast<double>(count_));
}

double
RunningStats::ci95() const
{
    return 1.96 * stderror();
}

double
RunningStats::cv() const
{
    if (count_ < 2 || mean_ == 0.0)
        return 0.0;
    return stddev() / std::fabs(mean_);
}

double
arithmeticMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
harmonicMean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double inv_sum = 0.0;
    for (double x : xs) {
        assert(x > 0.0);
        inv_sum += 1.0 / x;
    }
    return static_cast<double>(xs.size()) / inv_sum;
}

double
frac(uint64_t a, uint64_t b)
{
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

} // namespace bioperf::util
