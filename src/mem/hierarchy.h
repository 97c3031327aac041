#ifndef BIOPERF_MEM_HIERARCHY_H_
#define BIOPERF_MEM_HIERARCHY_H_

#include <cstdint>

#include "mem/cache.h"

namespace bioperf::mem {

/** Where an access was finally satisfied. */
enum class Level : uint8_t { L1, L2, Memory };

/**
 * Latency parameters of the hierarchy, in cycles, matching the
 * paper's AMAT arithmetic: total latency = l1HitLatency, plus
 * l2Penalty on an L1 miss, plus memPenalty on an L2 miss
 * (AMAT = 3 + m1 * (5 + m2 * 72) for the reference machine).
 */
struct LatencyConfig
{
    uint32_t l1HitLatency = 3;
    uint32_t l2Penalty = 5;
    uint32_t memPenalty = 72;
};

/**
 * Two-level data cache hierarchy (L1D + unified L2) over an ideal
 * main memory, with write-back traffic propagated downstream.
 */
class CacheHierarchy
{
  public:
    struct Access
    {
        Level level = Level::L1;
        uint32_t latency = 0;
    };

    CacheHierarchy(const CacheConfig &l1, const CacheConfig &l2,
                   const LatencyConfig &lat = LatencyConfig{});

    /** The Table 3 reference configuration (Alpha 21264 / ATOM model). */
    static CacheHierarchy referenceConfig();

    /**
     * One demand access. The L1-hit case — the overwhelming majority,
     * per Table 2 — inlines into the caller; misses take the
     * out-of-line path through both levels.
     */
    Access
    access(uint64_t addr, bool is_write)
    {
        if (l1_.accessFastHit(addr, is_write))
            return Access{Level::L1, lat_.l1HitLatency};
        return accessMiss(addr, is_write);
    }

    void reset();

    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const LatencyConfig &latencies() const { return lat_; }

    uint64_t memoryAccesses() const { return mem_accesses_; }

  private:
    /** Completes an access after the L1 fast path missed. */
    Access accessMiss(uint64_t addr, bool is_write);

    Cache l1_;
    Cache l2_;
    LatencyConfig lat_;
    uint64_t mem_accesses_ = 0;
};

} // namespace bioperf::mem

#endif // BIOPERF_MEM_HIERARCHY_H_
