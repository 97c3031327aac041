#include "mem/cache.h"

#include <algorithm>
#include <cassert>

namespace bioperf::mem {

namespace {

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

uint32_t
log2OfPowerOfTwo(uint64_t v)
{
    uint32_t s = 0;
    while ((uint64_t(1) << s) < v)
        s++;
    return s;
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    assert(isPowerOfTwo(config_.blockSize));
    assert(config_.assoc >= 1);
    assert(config_.sizeBytes % (config_.blockSize * config_.assoc) == 0);
    // A way word shifts its tag left by two: a set's span of at least
    // four bytes leaves those bits free.
    assert(config_.blockSize * config_.numSets() >= 4);
    ways_.assign(config_.numSets() * config_.assoc, 0);
    write_dirty_ = config_.writeBack ? kDirty : 0;
    block_shift_ = log2OfPowerOfTwo(config_.blockSize);
    num_sets_ = config_.numSets();
    sets_pow2_ = isPowerOfTwo(num_sets_);
    if (sets_pow2_) {
        set_shift_ = log2OfPowerOfTwo(num_sets_);
        set_mask_ = num_sets_ - 1;
    }
}

Cache::Result
Cache::accessMiss(uint64_t addr, bool is_write)
{
    Result res;
    misses_++;
    if (is_write && !config_.writeAllocate)
        return res; // write miss bypasses the cache entirely

    // The last way is invalid or the least recently used.
    const size_t set = setIndex(addr);
    uint64_t *ways = ways_.data() + set * config_.assoc;
    const uint64_t victim = ways[config_.assoc - 1];
    if ((victim & (kValid | kDirty)) == (kValid | kDirty)) {
        writebacks_++;
        res.writeback = true;
        // Reconstruct the victim's block address from tag and set.
        res.writebackAddr =
            ((victim >> 2) * num_sets_ + set) * config_.blockSize;
    }
    for (uint32_t v = config_.assoc - 1; v > 0; v--)
        ways[v] = ways[v - 1];
    ways[0] = tagOf(addr) << 2 | kValid | (is_write ? write_dirty_ : 0);
    return res;
}

void
Cache::reset()
{
    std::fill(ways_.begin(), ways_.end(), 0);
    hits_ = misses_ = writebacks_ = 0;
}

double
Cache::missRate() const
{
    const uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(misses_) /
                            static_cast<double>(total);
}

} // namespace bioperf::mem
