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

    void reset() override;

  private:
    void step(size_t from, size_t to) override;
    uint64_t frontier() const override { return hot_.issueCycle; }
    bool canonicalize(std::vector<uint16_t> &words) const override;
    void materialize(const uint16_t *words, size_t len,
                     uint64_t f) override;

    /** Issue state carried from one instruction to the next. */
    struct Hot
    {
        uint64_t issueCycle = 1; ///< cycle the next instruction may issue
        uint32_t issuedThisCycle = 0;
    };

    Hot hot_;
};

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_INORDER_CORE_H_
