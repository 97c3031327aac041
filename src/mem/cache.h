#ifndef BIOPERF_MEM_CACHE_H_
#define BIOPERF_MEM_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bioperf::mem {

/** Geometry and policy of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 64 * 1024;
    uint32_t assoc = 2;       ///< ways per set; 1 = direct-mapped
    uint32_t blockSize = 64;  ///< bytes, power of two
    bool writeBack = true;    ///< false = write-through
    bool writeAllocate = true;

    uint64_t numSets() const { return sizeBytes / (blockSize * assoc); }
};

/**
 * A set-associative cache with true-LRU replacement, write-back and
 * write-allocate policies (the Table 3 configuration of the paper's
 * ATOM cache model).
 *
 * Each way is one 64-bit word, `tag << 2 | dirty << 1 | valid`, and a
 * set keeps its ways most-recently-used first: a hit moves its way to
 * the front and a fill evicts the last way. That order is the LRU
 * order itself, so no timestamp is kept. Invalid ways only ever sit
 * behind every valid one, so "evict the last way" is "fill an invalid
 * way, else evict the least recently used".
 */
class Cache
{
  public:
    /** Outcome of one access. */
    struct Result
    {
        bool hit = false;
        /** A dirty block was evicted and must be written downstream. */
        bool writeback = false;
        /** Block-aligned address of the evicted dirty block. */
        uint64_t writebackAddr = 0;
    };

    explicit Cache(const CacheConfig &config);

    Result
    access(uint64_t addr, bool is_write)
    {
        if (accessFastHit(addr, is_write))
            return Result{ .hit = true };
        return accessMiss(addr, is_write);
    }

    /**
     * Inline hit-only fast path: behaves exactly like access() when
     * the block is resident (same LRU and hit accounting) and returns
     * true; on a miss it changes nothing and returns false, and the
     * caller must complete the access via accessMiss(). Lets
     * per-instruction callers keep the ~99% hit case out of line-call
     * territory.
     */
    bool
    accessFastHit(uint64_t addr, bool is_write)
    {
        uint64_t *ways = ways_.data() + setIndex(addr) * config_.assoc;
        const uint64_t key = tagOf(addr) << 2 | kValid;
        for (uint32_t w = 0; w < config_.assoc; w++) {
            const uint64_t word = ways[w];
            if ((word & ~kDirty) == key) {
                for (uint32_t v = w; v > 0; v--)
                    ways[v] = ways[v - 1];
                ways[0] = word | (is_write ? write_dirty_ : 0);
                hits_++;
                return true;
            }
        }
        return false;
    }

    /**
     * Completes an access whose accessFastHit() returned false: counts
     * the miss and, unless a write bypasses a no-write-allocate cache,
     * fills the block at the front of its set.
     */
    Result accessMiss(uint64_t addr, bool is_write);

    /** Invalidates all blocks and clears statistics. */
    void reset();

    const CacheConfig &config() const { return config_; }
    uint64_t accesses() const { return hits_ + misses_; }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    uint64_t writebacks() const { return writebacks_; }
    double missRate() const;

  private:
    static constexpr uint64_t kValid = 1;
    static constexpr uint64_t kDirty = 2;

    // Block size is always a power of two and set counts nearly
    // always are, so the per-access index/tag math runs as shifts and
    // masks instead of two integer divisions (this is the hottest
    // arithmetic in characterize-mode simulation).
    size_t setIndex(uint64_t addr) const
    {
        const uint64_t block = addr >> block_shift_;
        return sets_pow2_ ? (block & set_mask_) : (block % num_sets_);
    }
    uint64_t tagOf(uint64_t addr) const
    {
        const uint64_t block = addr >> block_shift_;
        return sets_pow2_ ? (block >> set_shift_) : (block / num_sets_);
    }

    CacheConfig config_;
    /** numSets x assoc way words, row-major, each set MRU first. */
    std::vector<uint64_t> ways_;
    /** kDirty when a write dirties its block (write-back), else 0. */
    uint64_t write_dirty_ = 0;
    uint32_t block_shift_ = 6;
    uint32_t set_shift_ = 0;
    uint64_t set_mask_ = 0;
    uint64_t num_sets_ = 1;
    bool sets_pow2_ = false;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t writebacks_ = 0;
};

} // namespace bioperf::mem

#endif // BIOPERF_MEM_CACHE_H_
