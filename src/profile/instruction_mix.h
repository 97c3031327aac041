#ifndef BIOPERF_PROFILE_INSTRUCTION_MIX_H_
#define BIOPERF_PROFILE_INSTRUCTION_MIX_H_

#include <array>
#include <cstdint>

#include "util/json.h"
#include "vm/trace.h"

namespace bioperf::profile {

/** Value-type snapshot of an instruction-mix profile (Fig 1/Table 1). */
struct MixSummary
{
    uint64_t total = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t condBranches = 0;
    uint64_t other = 0;
    uint64_t fpInstrs = 0;
    uint64_t fpLoads = 0;
    double loadFraction = 0.0;
    double storeFraction = 0.0;
    double branchFraction = 0.0;
    double otherFraction = 0.0;
    double fpFraction = 0.0;
    double fpLoadFraction = 0.0;

    util::json::Value report() const;
};

/**
 * Counts executed instructions by class (Figure 1) and the
 * floating-point fraction (Table 1).
 *
 * Category definitions follow the paper: "loads" and "stores" are the
 * memory classes (integer and floating-point), "conditional branches"
 * are Br, everything else (ALU, jumps) is "other". Floating-point
 * instructions are FP ALU ops plus FP loads and stores.
 */
class InstructionMixProfiler : public vm::TraceSink
{
  public:
    void onInstr(const vm::DynInstr &di) override;
    void onBatch(const vm::DynInstr *batch, size_t n) override;

    MixSummary summary() const;

  private:
    std::array<uint64_t, ir::kNumInstrClasses> counts_{};
    uint64_t total_ = 0;
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_INSTRUCTION_MIX_H_
