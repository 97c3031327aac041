#ifndef BIOPERF_PROFILE_CACHE_PROFILER_H_
#define BIOPERF_PROFILE_CACHE_PROFILER_H_

#include <cstdint>
#include <vector>

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
    /** Local L1 miss rate over loads, in [0, 1]. */
    double l1LocalMissRate = 0.0;
    /** Local L2 miss rate over loads that missed in L1. */
    double l2LocalMissRate = 0.0;
    /** Fraction of loads that reach main memory. */
    double overallMissRate = 0.0;
    /**
     * Average memory access time for loads, per the paper's formula:
     * l1HitLatency + m1 * (l2Penalty + m2 * memPenalty).
     */
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
    /** Drives the Table 3 reference hierarchy. */
    CacheProfiler();

    void onBatch(const vm::DynInstr *batch, size_t n) override;

    CacheSummary summary() const;

    /**
     * L1 misses of each static load, indexed by sid (0 for other
     * instructions; ends at the highest missing load's sid).
     */
    const std::vector<uint64_t> &l1MissesBySid() const
    {
        return l1_misses_by_sid_;
    }

  private:
    mem::CacheHierarchy caches_;
    std::vector<uint64_t> l1_misses_by_sid_;
    uint64_t loads_ = 0;
    uint64_t load_l1_misses_ = 0;
    uint64_t load_l2_misses_ = 0;
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_CACHE_PROFILER_H_
