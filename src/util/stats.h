#ifndef BIOPERF_UTIL_STATS_H_
#define BIOPERF_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace bioperf::util {

/**
 * Streaming summary statistics over a sequence of doubles.
 *
 * Tracks count, mean, min, max and (via Welford's algorithm) variance
 * without storing samples.
 */
class RunningStats
{
  public:
    void add(double x);

    size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double variance() const;
    double stddev() const;
    /** Standard error of the mean: stddev()/sqrt(count()). */
    double stderror() const;
    /**
     * Half-width of the 95% confidence interval on the mean
     * (1.96 × standard error, normal approximation — appropriate for
     * the dozens-to-thousands of sampled intervals the timing
     * estimator aggregates). 0 for fewer than two samples.
     */
    double ci95() const;
    /** Coefficient of variation: stddev()/|mean()|; 0 if mean is 0. */
    double cv() const;

  private:
    size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Arithmetic mean of a vector; 0 for empty input. */
double arithmeticMean(const std::vector<double> &xs);

/**
 * Harmonic mean; all inputs must be > 0. The paper reports harmonic
 * mean speedups (Figure 9), so this is the headline aggregator.
 */
double harmonicMean(const std::vector<double> &xs);

/** Ratio a/b as a fraction; 0 when b == 0. */
double frac(uint64_t a, uint64_t b);

} // namespace bioperf::util

#endif // BIOPERF_UTIL_STATS_H_
