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
    /** Cumulative coverage curve, clipped (see cdf()). */
    std::vector<double> cdf;

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

    CoverageSummary summary(size_t max_cdf_points = 200) const;
    util::json::Value report() const;

    uint64_t dynamicLoads() const { return total_loads_; }
    /** Number of distinct static loads that executed at least once. */
    uint64_t staticLoads() const;

    /**
     * Cumulative coverage curve: entry i is the fraction of dynamic
     * loads covered by the (i+1) hottest static loads, clipped to
     * @a max_points entries.
     */
    std::vector<double> cdf(size_t max_points = 200) const;

    /** Coverage achieved by the @a n hottest static loads. */
    double coverageAt(size_t n) const;

    /** Smallest number of static loads covering @a fraction. */
    size_t loadsForCoverage(double fraction) const;

  private:
    std::vector<uint64_t> sortedCounts() const;

    std::vector<uint64_t> per_sid_;
    uint64_t total_loads_ = 0;
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_LOAD_COVERAGE_H_
