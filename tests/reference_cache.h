#ifndef BIOPERF_TESTS_REFERENCE_CACHE_H_
#define BIOPERF_TESTS_REFERENCE_CACHE_H_

#include <cstdint>
#include <vector>

#include "mem/cache.h"

namespace bioperf::test {

/**
 * The literal cache model mem::Cache must equal: each line keeps a
 * tag, valid and dirty bits and the access clock of its last use, and
 * a miss fills an invalid way, else the way with the oldest last use.
 * Index and tag come from plain division. Kept as an oracle only.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const mem::CacheConfig &config)
        : config_(config), lines_(config.numSets() * config.assoc)
    {
    }

    mem::Cache::Result
    access(uint64_t addr, bool is_write)
    {
        mem::Cache::Result res;
        clock_++;
        const uint64_t block = addr / config_.blockSize;
        const uint64_t set = block % config_.numSets();
        const uint64_t tag = block / config_.numSets();
        Line *ways = &lines_[set * config_.assoc];

        for (uint32_t w = 0; w < config_.assoc; w++) {
            if (ways[w].valid && ways[w].tag == tag) {
                ways[w].lastUse = clock_;
                if (is_write && config_.writeBack)
                    ways[w].dirty = true;
                res.hit = true;
                return res;
            }
        }
        if (is_write && !config_.writeAllocate)
            return res;

        uint32_t victim = 0;
        uint64_t best = UINT64_MAX;
        for (uint32_t w = 0; w < config_.assoc; w++) {
            if (!ways[w].valid) {
                victim = w;
                break;
            }
            if (ways[w].lastUse < best) {
                best = ways[w].lastUse;
                victim = w;
            }
        }
        if (ways[victim].valid && ways[victim].dirty) {
            res.writeback = true;
            res.writebackAddr =
                (ways[victim].tag * config_.numSets() + set) *
                config_.blockSize;
        }
        ways[victim] = Line{ tag, clock_, true,
                             is_write && config_.writeBack };
        return res;
    }

  private:
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
        bool dirty = false;
    };

    mem::CacheConfig config_;
    std::vector<Line> lines_;
    uint64_t clock_ = 0;
};

} // namespace bioperf::test

#endif // BIOPERF_TESTS_REFERENCE_CACHE_H_
