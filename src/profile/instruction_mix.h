#ifndef BIOPERF_PROFILE_INSTRUCTION_MIX_H_
#define BIOPERF_PROFILE_INSTRUCTION_MIX_H_

#include "profile/execution_counts.h"

namespace bioperf::profile {

/**
 * ExecutionCounts read as an instruction mix. Kept only for the
 * repository benchmark (perfbench/), which builds one by name; the
 * library and the tests read ExecutionCounts::mix().
 */
class InstructionMixProfiler : public ExecutionCounts
{
  public:
    MixSummary summary() const { return mix(); }
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_INSTRUCTION_MIX_H_
