#include "cpu/inorder_core.h"

#include <algorithm>

namespace bioperf::cpu {

InorderCore::InorderCore(const CoreConfig &config,
                         mem::CacheHierarchy *caches,
                         branch::BranchPredictor *predictor)
    : TimingCore(config, caches, predictor)
{
}

void
InorderCore::onInstr(const vm::DynInstr &di)
{
    step(di);
}

void
InorderCore::onBatch(const vm::DynInstr *batch, size_t n)
{
    for (size_t i = 0; i < n; i++)
        step(batch[i]);
}

void
InorderCore::step(const vm::DynInstr &di)
{
    const ir::Instr &in = *di.instr;
    const DecodedInstr &d = decode_.lookup(in, ready_);

    // DecodeTable pre-sized the scoreboard and padded reads[] with the
    // always-zero sentinel, so this is four unchecked loads and
    // branchless maxes (issue_cycle_ >= 1 outranks the sentinel).
    const uint64_t *rv = ready_.data();
    const uint64_t r01 = std::max(rv[d.reads[0]], rv[d.reads[1]]);
    const uint64_t r23 = std::max(rv[d.reads[2]], rv[d.reads[3]]);
    const uint64_t ready =
        std::max(issue_cycle_, std::max(r01, r23));

    // In-order issue: a stalled instruction blocks younger ones.
    if (ready > issue_cycle_) {
        issue_cycle_ = ready;
        issued_this_cycle_ = 0;
    }
    if (issued_this_cycle_ >= config_.issueWidth) {
        issue_cycle_++;
        issued_this_cycle_ = 0;
    }
    const uint64_t issue = issue_cycle_;
    issued_this_cycle_++;

    uint32_t latency = d.fixedLatency;
    if (d.kind != DecodedInstr::kFixed) {
        switch (d.kind) {
          case DecodedInstr::kLoad:
            latency = caches_->access(di.addr, false).latency;
            if (accel_) {
                latency = accel_->adjustLatency(
                    in.sid, di.addr, di.loadValueBits, latency);
            }
            break;
          case DecodedInstr::kStore:
            caches_->access(di.addr, true);
            latency = 1;
            break;
          default:
            caches_->access(di.addr, false);
            latency = 1;
            break;
        }
    }
    const uint64_t complete = issue + latency;
    cycles_ = std::max(cycles_, complete);

    // Unconditional: dst-less instructions target the trash slot.
    ready_[d.dst] = complete;

    if (d.isBranch) {
        const bool correct = predictor_->predictAndTrain(in.sid, di.taken);
        if (!correct) {
            mispredicts_++;
            const uint64_t redirect = complete + config_.mispredictPenalty;
            if (redirect > issue_cycle_) {
                issue_cycle_ = redirect;
                issued_this_cycle_ = 0;
            }
        } else if (di.taken) {
            // Issue groups do not continue past a taken branch.
            issue_cycle_++;
            issued_this_cycle_ = 0;
        }
    } else if (d.isJump) {
        issue_cycle_++;
        issued_this_cycle_ = 0;
    }

    instructions_++;
}

void
InorderCore::reset()
{
    TimingCore::reset();
    issue_cycle_ = 1;
    issued_this_cycle_ = 0;
}

} // namespace bioperf::cpu
