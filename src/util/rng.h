#ifndef BIOPERF_UTIL_RNG_H_
#define BIOPERF_UTIL_RNG_H_

#include <cstdint>

namespace bioperf::util {

/**
 * Deterministic pseudo-random number generator (xoshiro256**).
 *
 * All synthetic workloads in this repository derive their inputs from
 * this generator so that every experiment is exactly reproducible from
 * a seed. The generator is seeded through SplitMix64 so that similar
 * seeds produce uncorrelated streams.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t nextBelow(uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t nextRange(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli trial with probability p of returning true. */
    bool nextBool(double p = 0.5);

  private:
    uint64_t state_[4];
};

} // namespace bioperf::util

#endif // BIOPERF_UTIL_RNG_H_
