#include "profile/cache_profiler.h"

#include <cassert>

#include "util/stats.h"

namespace bioperf::profile {

CacheProfiler::CacheProfiler()
    : caches_(mem::CacheHierarchy::referenceConfig())
{
}

void
CacheProfiler::onBatch(const vm::DynInstr *batch, size_t n)
{
    for (size_t i = 0; i < n; i++) {
        const vm::DynInstr &di = batch[i];
        assert(di.matchesInstr());
        const ir::Opcode op = di.op;
        if (ir::isLoad(op)) {
            loads_++;
            const auto acc = caches_.access(di.addr, false);
            if (acc.level != mem::Level::L1) {
                load_l1_misses_++;
                if (di.sid >= l1_misses_by_sid_.size())
                    l1_misses_by_sid_.resize(di.sid + 1, 0);
                l1_misses_by_sid_[di.sid]++;
                if (acc.level == mem::Level::Memory)
                    load_l2_misses_++;
            }
        } else if (ir::isStore(op)) {
            caches_.access(di.addr, true);
        } else if (op == ir::Opcode::Prefetch) {
            caches_.access(di.addr, false);
        }
    }
}

CacheSummary
CacheProfiler::summary() const
{
    const auto &lat = caches_.latencies();
    CacheSummary s;
    s.loads = loads_;
    s.loadL1Misses = load_l1_misses_;
    s.loadL2Misses = load_l2_misses_;
    s.l1LocalMissRate = util::frac(load_l1_misses_, loads_);
    s.l2LocalMissRate = util::frac(load_l2_misses_, load_l1_misses_);
    s.overallMissRate = util::frac(load_l2_misses_, loads_);
    s.amat = lat.l1HitLatency +
             s.l1LocalMissRate *
                 (lat.l2Penalty + s.l2LocalMissRate * lat.memPenalty);
    return s;
}

util::json::Value
CacheSummary::report() const
{
    util::json::Value v = util::json::Value::object();
    v["loads"] = loads;
    v["load_l1_misses"] = loadL1Misses;
    v["load_l2_misses"] = loadL2Misses;
    v["l1_local_miss_rate"] = l1LocalMissRate;
    v["l2_local_miss_rate"] = l2LocalMissRate;
    v["overall_miss_rate"] = overallMissRate;
    v["amat"] = amat;
    return v;
}

} // namespace bioperf::profile
