#include <gtest/gtest.h>

#include "mem/cache.h"
#include "mem/hierarchy.h"
#include "util/rng.h"

namespace bioperf::mem {
namespace {

CacheConfig
smallCache(uint64_t size, uint32_t assoc, uint32_t block = 64)
{
    CacheConfig c;
    c.sizeBytes = size;
    c.assoc = assoc;
    c.blockSize = block;
    return c;
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache(1024, 2));
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(63, false).hit);  // same block
    EXPECT_FALSE(c.access(64, false).hit); // next block
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, DirectMappedConflict)
{
    // 4 sets of 64B: addresses 0 and 256 collide.
    Cache c(smallCache(256, 1));
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_FALSE(c.access(256, false).hit);
    EXPECT_FALSE(c.access(0, false).hit); // evicted by 256
}

TEST(Cache, TwoWayAvoidsSingleConflict)
{
    Cache c(smallCache(512, 2)); // 4 sets x 2 ways
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_FALSE(c.access(1024, false).hit); // same set, other way
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(1024, false).hit);
}

TEST(Cache, LruReplacement)
{
    Cache c(smallCache(512, 2)); // 4 sets x 2 ways
    // Set 0 gets blocks A=0, B=1024, then touch A, then insert
    // C=2048: B (least recent) must be evicted.
    c.access(0, false);
    c.access(1024, false);
    c.access(0, false);
    c.access(2048, false);
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(1024));
    EXPECT_TRUE(c.probe(2048));
}

TEST(Cache, WriteBackDirtyEviction)
{
    Cache c(smallCache(256, 1)); // direct mapped, 4 sets
    c.access(0, true);           // dirty block at 0
    const auto res = c.access(256, false); // evicts it
    EXPECT_TRUE(res.writeback);
    EXPECT_EQ(res.writebackAddr, 0u);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c(smallCache(256, 1));
    c.access(0, false);
    const auto res = c.access(256, false);
    EXPECT_FALSE(res.writeback);
}

TEST(Cache, WriteNoAllocateBypasses)
{
    CacheConfig cfg = smallCache(256, 1);
    cfg.writeAllocate = false;
    Cache c(cfg);
    EXPECT_FALSE(c.access(0, true).hit);
    EXPECT_FALSE(c.access(0, false).hit); // was not allocated
}

TEST(Cache, WriteAllocateInstalls)
{
    Cache c(smallCache(256, 1));
    c.access(0, true);
    EXPECT_TRUE(c.access(0, false).hit);
}

TEST(Cache, ResetClearsStateAndStats)
{
    Cache c(smallCache(256, 1));
    c.access(0, true);
    c.reset();
    EXPECT_EQ(c.accesses(), 0u);
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, StatsInvariant)
{
    Cache c(smallCache(1024, 2));
    util::Rng rng(1);
    for (int i = 0; i < 1000; i++)
        c.access(rng.nextBelow(8192), rng.nextBool(0.3));
    EXPECT_EQ(c.accesses(), c.hits() + c.misses());
    EXPECT_GE(c.missRate(), 0.0);
    EXPECT_LE(c.missRate(), 1.0);
}

TEST(Cache, FullyResidentWorkingSetOnlyCompulsoryMisses)
{
    Cache c(smallCache(64 * 1024, 2));
    // 16 KB working set = 256 blocks; everything fits.
    for (int pass = 0; pass < 4; pass++)
        for (uint64_t a = 0; a < 16384; a += 64)
            c.access(a, false);
    EXPECT_EQ(c.misses(), 256u);
    EXPECT_EQ(c.hits(), 4u * 256u - 256u);
}

TEST(Cache, ConfigGeometry)
{
    const CacheConfig c = smallCache(64 * 1024, 2);
    EXPECT_EQ(c.numSets(), 512u);
}

// --- hierarchy ------------------------------------------------------------

TEST(Hierarchy, ReferenceConfigMatchesTable3)
{
    CacheHierarchy h = CacheHierarchy::referenceConfig();
    EXPECT_EQ(h.l1().config().sizeBytes, 64u * 1024);
    EXPECT_EQ(h.l1().config().assoc, 2u);
    EXPECT_EQ(h.l1().config().blockSize, 64u);
    EXPECT_EQ(h.l2().config().sizeBytes, 4u * 1024 * 1024);
    EXPECT_EQ(h.l2().config().assoc, 1u);
    EXPECT_EQ(h.latencies().l1HitLatency, 3u);
    EXPECT_EQ(h.latencies().l2Penalty, 5u);
    EXPECT_EQ(h.latencies().memPenalty, 72u);
}

TEST(Hierarchy, LevelsAndLatencies)
{
    CacheHierarchy h = CacheHierarchy::referenceConfig();
    auto first = h.access(0, false);
    EXPECT_EQ(first.level, Level::Memory);
    EXPECT_EQ(first.latency, 3u + 5u + 72u);
    auto second = h.access(0, false);
    EXPECT_EQ(second.level, Level::L1);
    EXPECT_EQ(second.latency, 3u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    // Tiny L1 (128B direct mapped), large L2.
    CacheConfig l1 = smallCache(128, 1);
    CacheConfig l2 = smallCache(64 * 1024, 4);
    CacheHierarchy h(l1, l2, LatencyConfig{ 3, 5, 72 });
    h.access(0, false);    // miss both
    h.access(128, false);  // evicts 0 from L1 (set 0 of 2 sets)
    const auto res = h.access(0, false);
    EXPECT_EQ(res.level, Level::L2);
    EXPECT_EQ(res.latency, 8u);
}

TEST(Hierarchy, ResetRestoresColdState)
{
    CacheHierarchy h = CacheHierarchy::referenceConfig();
    h.access(0, false);
    h.reset();
    EXPECT_EQ(h.access(0, false).level, Level::Memory);
    EXPECT_EQ(h.memoryAccesses(), 1u);
}

TEST(Hierarchy, ChunkedAccessPatternHasLowMissRate)
{
    // The paper's explanation of Table 2: programs work on an
    // L1-resident chunk for a while before moving on, so only
    // compulsory misses occur.
    CacheHierarchy h = CacheHierarchy::referenceConfig();
    uint64_t accesses = 0, misses = 0;
    for (int chunk = 0; chunk < 16; chunk++) {
        const uint64_t base = uint64_t(chunk) * 16384;
        for (int pass = 0; pass < 50; pass++) {
            for (uint64_t a = 0; a < 16384; a += 4) {
                if (h.access(base + a, false).level != Level::L1)
                    misses++;
                accesses++;
            }
        }
    }
    const double rate =
        static_cast<double>(misses) / static_cast<double>(accesses);
    // Exactly the compulsory misses: 256 blocks per 16 KB chunk over
    // 50 passes of 4096 accesses each.
    EXPECT_NEAR(rate, 256.0 / (50.0 * 4096.0), 1e-9);
    EXPECT_LT(rate, 0.002);
}

} // namespace
} // namespace bioperf::mem
