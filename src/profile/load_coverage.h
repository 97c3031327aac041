#ifndef BIOPERF_PROFILE_LOAD_COVERAGE_H_
#define BIOPERF_PROFILE_LOAD_COVERAGE_H_

#include <cstdint>
#include <vector>

#include "util/json.h"
#include "vm/trace.h"

namespace bioperf::profile {

/** Value-type snapshot of a static-load coverage profile (Figure 2). */
struct CoverageSummary
{
    uint64_t dynamicLoads = 0;
    uint64_t staticLoads = 0;
    /** Smallest number of static loads covering 90% (paper headline). */
    size_t loadsFor90 = 0;
    /** Coverage of the 80 hottest static loads (paper headline). */
    double coverageAt80 = 0.0;
    /**
     * Cumulative coverage curve: entry i is the fraction of dynamic
     * loads covered by the (i+1) hottest static loads, clipped to
     * kCdfPoints entries (fewer when fewer static loads executed).
     */
    std::vector<double> cdf;

    static constexpr size_t kCdfPoints = 200;

    util::json::Value report() const;
};

/**
 * Static-load coverage: how much of the dynamic load execution the N
 * most frequently executed static loads account for (Figure 2).
 *
 * The paper's headline characterization: in the BioPerf codes ~80
 * static loads cover >90% of all executed loads, while in SPEC
 * CPU2000 integer codes the same count covers only 10-58%.
 */
class LoadCoverageProfiler : public vm::TraceSink
{
  public:
    void onInstr(const vm::DynInstr &di) override;
    void onBatch(const vm::DynInstr *batch, size_t n) override;

    CoverageSummary summary() const;

    /**
     * Executions of each static load, indexed by sid (0 for other
     * instructions; ends at the highest executed load's sid).
     */
    const std::vector<uint64_t> &execsBySid() const { return per_sid_; }

  private:
    std::vector<uint64_t> per_sid_;
    uint64_t total_loads_ = 0;
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_LOAD_COVERAGE_H_
