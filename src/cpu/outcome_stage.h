#ifndef BIOPERF_CPU_OUTCOME_STAGE_H_
#define BIOPERF_CPU_OUTCOME_STAGE_H_

#include <cstdint>

#include "branch/predictors.h"
#include "cpu/decoded_instr.h"
#include "cpu/load_accel.h"
#include "mem/hierarchy.h"
#include "vm/trace.h"

namespace bioperf::cpu {

/**
 * The outcomes of a stream that do not depend on timing: each memory
 * operation's cache access (and a load's latency) and each conditional
 * branch's prediction. The timing cores and functional warming
 * (core::WarmupSink, a stage with no core attached) make every such
 * call through a stage, so warming applies exactly the updates a
 * detailed core applies and SMARTS-style warm state stays unbiased.
 *
 * The hierarchy, predictor and optional load accelerator are borrowed.
 * Every evaluation platform predicts with the hybrid; the stage finds
 * it once and calls it directly, so its update inlines into the loop.
 */
class OutcomeStage
{
  public:
    OutcomeStage(mem::CacheHierarchy *caches,
                 branch::BranchPredictor *predictor)
        : caches_(caches), predictor_(predictor),
          hybrid_(dynamic_cast<branch::HybridPredictor *>(predictor))
    {
    }

    /** Installs a load accelerator (borrowed); nullptr removes it. */
    void setLoadAccelerator(LoadAccelerator *accel) { accel_ = accel; }

    /**
     * Makes the access of memory operation @a di of kind @a kind and
     * returns its latency. A load reads the hierarchy, and the
     * accelerator then sets the latency its consumers see. A store
     * writes and completes in one cycle (it commits through a write
     * buffer); a prefetch reads and completes in one cycle (it never
     * stalls). One cycle is DecodedInstr::fixedLatency of both.
     */
    uint32_t
    access(DecodedInstr::Kind kind, const vm::DynInstr &di)
    {
        if (kind != DecodedInstr::kLoad) {
            caches_->access(di.addr, kind == DecodedInstr::kStore);
            return 1;
        }
        const uint32_t latency = caches_->access(di.addr, false).latency;
        return accel_ ? accel_->adjustLatency(di.sid, di.addr,
                                              di.loadValueBits, latency)
                      : latency;
    }

    /**
     * Predicts conditional branch @a di and trains the predictor on
     * its outcome; true when the prediction was wrong.
     */
    bool
    mispredicted(const vm::DynInstr &di)
    {
        return hybrid_ ? !hybrid_->predictAndTrain(di.sid, di.taken)
                       : !predictor_->predictAndTrain(di.sid, di.taken);
    }

  private:
    mem::CacheHierarchy *caches_;
    branch::BranchPredictor *predictor_;
    /** predictor_ when it is a HybridPredictor (a direct call). */
    branch::HybridPredictor *hybrid_;
    LoadAccelerator *accel_ = nullptr;
};

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_OUTCOME_STAGE_H_
