#include "profile/instruction_mix.h"

#include <cassert>

namespace bioperf::profile {

using ir::InstrClass;

void
InstructionMixProfiler::onInstr(const vm::DynInstr &di)
{
    assert(di.matchesInstr());
    counts_[static_cast<size_t>(ir::classOf(di.op))]++;
    total_++;
}

void
InstructionMixProfiler::onBatch(const vm::DynInstr *batch, size_t n)
{
    for (size_t i = 0; i < n; i++) {
        assert(batch[i].matchesInstr());
        counts_[static_cast<size_t>(ir::classOf(batch[i].op))]++;
    }
    total_ += n;
}

namespace {

double
frac(uint64_t a, uint64_t b)
{
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

} // namespace

MixSummary
InstructionMixProfiler::summary() const
{
    auto count = [&](InstrClass c) {
        return counts_[static_cast<size_t>(c)];
    };
    MixSummary s;
    s.total = total_;
    s.loads = count(InstrClass::Load) + count(InstrClass::FpLoad);
    s.stores = count(InstrClass::Store) + count(InstrClass::FpStore);
    s.condBranches = count(InstrClass::CondBranch);
    s.other = total_ - s.loads - s.stores - s.condBranches;
    s.fpInstrs = count(InstrClass::FpAlu) + count(InstrClass::FpLoad) +
                 count(InstrClass::FpStore);
    s.fpLoads = count(InstrClass::FpLoad);
    s.loadFraction = frac(s.loads, total_);
    s.storeFraction = frac(s.stores, total_);
    s.branchFraction = frac(s.condBranches, total_);
    s.otherFraction = frac(s.other, total_);
    s.fpFraction = frac(s.fpInstrs, total_);
    s.fpLoadFraction = frac(s.fpLoads, total_);
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

} // namespace bioperf::profile
