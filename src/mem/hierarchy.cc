#include "mem/hierarchy.h"

namespace bioperf::mem {

CacheHierarchy::CacheHierarchy(const CacheConfig &l1, const CacheConfig &l2,
                               const LatencyConfig &lat)
    : l1_(l1), l2_(l2), lat_(lat)
{
}

CacheHierarchy
CacheHierarchy::referenceConfig()
{
    // Table 3: 64 KB 2-way 64 B write-back write-allocate L1D;
    // 4 MB direct-mapped 64 B unified L2.
    CacheConfig l1;
    l1.name = "L1D";
    l1.sizeBytes = 64 * 1024;
    l1.assoc = 2;
    l1.blockSize = 64;
    CacheConfig l2;
    l2.name = "L2";
    l2.sizeBytes = 4 * 1024 * 1024;
    l2.assoc = 1;
    l2.blockSize = 64;
    return CacheHierarchy(l1, l2, LatencyConfig{3, 5, 72});
}

CacheHierarchy::Access
CacheHierarchy::accessMiss(uint64_t addr, bool is_write)
{
    Access out;
    out.latency = lat_.l1HitLatency;

    const Cache::Result r1 = l1_.accessMiss(addr, is_write);
    if (r1.writeback)
        l2_.access(r1.writebackAddr, true);

    out.latency += lat_.l2Penalty;
    const Cache::Result r2 = l2_.access(addr, is_write);
    if (r2.writeback)
        mem_accesses_++;
    if (r2.hit) {
        out.level = Level::L2;
        return out;
    }

    out.latency += lat_.memPenalty;
    out.level = Level::Memory;
    mem_accesses_++;
    return out;
}

void
CacheHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
    mem_accesses_ = 0;
}

} // namespace bioperf::mem
