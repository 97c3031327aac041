#ifndef BIOPERF_CPU_INORDER_CORE_H_
#define BIOPERF_CPU_INORDER_CORE_H_

#include <cstdint>
#include <vector>

#include "cpu/timing_core.h"

namespace bioperf::cpu {

/**
 * Trace-driven in-order multi-issue core (the Itanium 2 model).
 *
 * Instructions issue strictly in program order, up to issueWidth per
 * cycle; an instruction whose operands are not ready stalls itself
 * and everything behind it (stall-on-use). This is why the paper's
 * transformation still pays off on the in-order Itanium: separating
 * loads from their uses lets independent work fill the load's latency
 * slots, with no speculative element involved (Section 5.1).
 */
class InorderCore final : public TimingCore
{
  public:
    InorderCore(const CoreConfig &config, mem::CacheHierarchy *caches,
                branch::BranchPredictor *predictor);

    void onInstr(const vm::DynInstr &di) override;
    void onBatch(const vm::DynInstr *batch, size_t n) override;
    void reset() override;

  private:
    void step(const vm::DynInstr &di);

    uint64_t issue_cycle_ = 1;   ///< cycle the next instruction may issue
    uint32_t issued_this_cycle_ = 0;
};

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_INORDER_CORE_H_
