#include "profile/execution_counts.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "util/stats.h"

namespace bioperf::profile {

using ir::InstrClass;
using util::frac;

void
ExecutionCounts::onBatch(const vm::DynInstr *batch, size_t n)
{
    // Data and size in locals, refreshed on growth: the opcode byte
    // store may alias the vectors and would force their reload.
    uint64_t *count = count_.data();
    ir::Opcode *op = op_.data();
    size_t size = count_.size();
    for (size_t i = 0; i < n; i++) {
        const vm::DynInstr &di = batch[i];
        assert(di.matchesInstr());
        if (di.sid >= size) {
            size = di.sid + 1;
            count_.resize(size, 0);
            op_.resize(size);
            count = count_.data();
            op = op_.data();
        }
        count[di.sid]++;
        op[di.sid] = di.op;
    }
}

std::vector<uint64_t>
ExecutionCounts::loadExecsBySid() const
{
    std::vector<uint64_t> execs(count_.size(), 0);
    for (size_t sid = 0; sid < count_.size(); sid++)
        if (ir::isLoad(op_[sid]))
            execs[sid] = count_[sid];
    return execs;
}

MixSummary
ExecutionCounts::mix() const
{
    std::array<uint64_t, ir::kNumInstrClasses> by_class{};
    uint64_t total = 0;
    for (size_t sid = 0; sid < count_.size(); sid++) {
        by_class[static_cast<size_t>(ir::classOf(op_[sid]))] += count_[sid];
        total += count_[sid];
    }
    auto count = [&](InstrClass c) {
        return by_class[static_cast<size_t>(c)];
    };
    MixSummary s;
    s.total = total;
    s.loads = count(InstrClass::Load) + count(InstrClass::FpLoad);
    s.stores = count(InstrClass::Store) + count(InstrClass::FpStore);
    s.condBranches = count(InstrClass::CondBranch);
    s.other = total - s.loads - s.stores - s.condBranches;
    s.fpInstrs = count(InstrClass::FpAlu) + count(InstrClass::FpLoad) +
                 count(InstrClass::FpStore);
    s.fpLoads = count(InstrClass::FpLoad);
    s.loadFraction = frac(s.loads, total);
    s.storeFraction = frac(s.stores, total);
    s.branchFraction = frac(s.condBranches, total);
    s.otherFraction = frac(s.other, total);
    s.fpFraction = frac(s.fpInstrs, total);
    s.fpLoadFraction = frac(s.fpLoads, total);
    return s;
}

CoverageSummary
ExecutionCounts::coverage() const
{
    std::vector<uint64_t> counts;
    uint64_t total_loads = 0;
    for (uint64_t c : loadExecsBySid()) {
        if (c > 0)
            counts.push_back(c);
        total_loads += c;
    }
    std::sort(counts.rbegin(), counts.rend());

    CoverageSummary s;
    s.dynamicLoads = total_loads;
    s.staticLoads = counts.size();
    if (total_loads == 0)
        return s;
    const auto target90 = static_cast<uint64_t>(
        0.9 * static_cast<double>(total_loads));
    uint64_t cum = 0;
    for (size_t i = 0; i < counts.size(); i++) {
        cum += counts[i];
        if (s.loadsFor90 == 0 && cum >= target90)
            s.loadsFor90 = i + 1;
        if (i < CoverageSummary::kCdfPoints)
            s.cdf.push_back(static_cast<double>(cum) /
                            static_cast<double>(total_loads));
    }
    static_assert(CoverageSummary::kCdfPoints >= 80);
    s.coverageAt80 = s.cdf[std::min<size_t>(80, s.cdf.size()) - 1];
    return s;
}

util::json::Value
MixSummary::report() const
{
    util::json::Value v = util::json::Value::object();
    v["total"] = total;
    v["loads"] = loads;
    v["stores"] = stores;
    v["cond_branches"] = condBranches;
    v["other"] = other;
    v["fp_instrs"] = fpInstrs;
    v["fp_loads"] = fpLoads;
    v["load_fraction"] = loadFraction;
    v["store_fraction"] = storeFraction;
    v["branch_fraction"] = branchFraction;
    v["other_fraction"] = otherFraction;
    v["fp_fraction"] = fpFraction;
    v["fp_load_fraction"] = fpLoadFraction;
    return v;
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
