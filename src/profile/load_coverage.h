#ifndef BIOPERF_PROFILE_LOAD_COVERAGE_H_
#define BIOPERF_PROFILE_LOAD_COVERAGE_H_

#include "profile/execution_counts.h"

namespace bioperf::profile {

/**
 * ExecutionCounts read as static-load coverage. Kept only for the
 * repository benchmark (perfbench/), which builds one by name; the
 * library and the tests read ExecutionCounts::coverage().
 */
class LoadCoverageProfiler : public ExecutionCounts
{
  public:
    CoverageSummary summary() const { return coverage(); }
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_LOAD_COVERAGE_H_
