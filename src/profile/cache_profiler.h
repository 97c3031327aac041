#ifndef BIOPERF_PROFILE_CACHE_PROFILER_H_
#define BIOPERF_PROFILE_CACHE_PROFILER_H_

#include <cstdint>

#include "mem/hierarchy.h"
#include "util/json.h"
#include "vm/trace.h"

namespace bioperf::profile {

/** Value-type snapshot of a per-load cache profile (Table 2). */
struct CacheSummary
{
    uint64_t loads = 0;
    uint64_t loadL1Misses = 0;
    uint64_t loadL2Misses = 0;
    double l1LocalMissRate = 0.0;
    double l2LocalMissRate = 0.0;
    double overallMissRate = 0.0;
    double amat = 0.0;

    util::json::Value report() const;
};

/**
 * Table 2 cache characterization: drives a cache hierarchy with the
 * full load/store stream but accounts miss rates per *load*, as the
 * paper does ("0.03% of the executed load instructions access main
 * memory").
 */
class CacheProfiler : public vm::TraceSink
{
  public:
    /** Defaults to the Table 3 reference hierarchy. */
    CacheProfiler();
    explicit CacheProfiler(mem::CacheHierarchy hierarchy);

    void onInstr(const vm::DynInstr &di) override;
    void onBatch(const vm::DynInstr *batch, size_t n) override;

    CacheSummary summary() const;
    util::json::Value report() const;

    uint64_t loads() const { return loads_; }
    uint64_t loadL1Misses() const { return load_l1_misses_; }
    uint64_t loadL2Misses() const { return load_l2_misses_; }

    /** Local L1 miss rate over loads, in [0, 1]. */
    double l1LocalMissRate() const;
    /** Local L2 miss rate over loads that missed in L1. */
    double l2LocalMissRate() const;
    /** Fraction of loads that reach main memory. */
    double overallMissRate() const;
    /**
     * Average memory access time for loads, per the paper's formula:
     * l1HitLatency + m1 * (l2Penalty + m2 * memPenalty).
     */
    double amat() const;

    const mem::CacheHierarchy &hierarchy() const { return caches_; }

  private:
    mem::CacheHierarchy caches_;
    uint64_t loads_ = 0;
    uint64_t load_l1_misses_ = 0;
    uint64_t load_l2_misses_ = 0;
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_CACHE_PROFILER_H_
