#include "profile/load_coverage.h"

#include <algorithm>
#include <cassert>

namespace bioperf::profile {

void
LoadCoverageProfiler::onInstr(const vm::DynInstr &di)
{
    assert(di.matchesInstr());
    if (!ir::isLoad(di.op))
        return;
    const uint32_t sid = di.sid;
    if (sid >= per_sid_.size())
        per_sid_.resize(sid + 1, 0);
    per_sid_[sid]++;
    total_loads_++;
}

void
LoadCoverageProfiler::onBatch(const vm::DynInstr *batch, size_t n)
{
    for (size_t i = 0; i < n; i++) {
        const vm::DynInstr &di = batch[i];
        assert(di.matchesInstr());
        if (!ir::isLoad(di.op))
            continue;
        if (di.sid >= per_sid_.size())
            per_sid_.resize(di.sid + 1, 0);
        per_sid_[di.sid]++;
        total_loads_++;
    }
}

CoverageSummary
LoadCoverageProfiler::summary() const
{
    std::vector<uint64_t> counts;
    counts.reserve(per_sid_.size());
    for (uint64_t c : per_sid_)
        if (c > 0)
            counts.push_back(c);
    std::sort(counts.rbegin(), counts.rend());

    CoverageSummary s;
    s.dynamicLoads = total_loads_;
    s.staticLoads = counts.size();
    if (total_loads_ == 0)
        return s;
    const auto target90 = static_cast<uint64_t>(
        0.9 * static_cast<double>(total_loads_));
    uint64_t cum = 0;
    for (size_t i = 0; i < counts.size(); i++) {
        cum += counts[i];
        if (s.loadsFor90 == 0 && cum >= target90)
            s.loadsFor90 = i + 1;
        if (i < CoverageSummary::kCdfPoints)
            s.cdf.push_back(static_cast<double>(cum) /
                            static_cast<double>(total_loads_));
    }
    static_assert(CoverageSummary::kCdfPoints >= 80);
    s.coverageAt80 = s.cdf[std::min<size_t>(80, s.cdf.size()) - 1];
    return s;
}

util::json::Value
CoverageSummary::report() const
{
    util::json::Value v = util::json::Value::object();
    v["dynamic_loads"] = dynamicLoads;
    v["static_loads"] = staticLoads;
    v["loads_for_90pct"] = static_cast<uint64_t>(loadsFor90);
    v["coverage_at_80"] = coverageAt80;
    util::json::Value curve = util::json::Value::array();
    for (double p : cdf)
        curve.push(p);
    v["cdf"] = std::move(curve);
    return v;
}

} // namespace bioperf::profile
