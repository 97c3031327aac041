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
InorderCore::schedule(const vm::DynInstr *batch, size_t n)
{
    // Width, penalty, the scoreboard base and the carried state live
    // in locals for the chunk, so scoreboard stores cannot force them
    // to be reloaded around every instruction.
    const uint32_t issue_width = config_.issueWidth;
    const uint64_t penalty = config_.mispredictPenalty;
    const Resolved &r = resolved_;
    uint64_t *const rv = ready_.data();
    Hot h = hot_;
    uint64_t cycles = cycles_;

    for (size_t i = 0; i < n; i++) {
        const DecodedInstr &d = r.decoded[i];

        // DecodeTable pre-sized the scoreboard and padded reads[] with
        // the always-zero sentinel, so this is four unchecked loads and
        // branchless maxes (issueCycle >= 1 outranks the sentinel).
        const uint64_t r01 = std::max(rv[d.reads[0]], rv[d.reads[1]]);
        const uint64_t r23 = std::max(rv[d.reads[2]], rv[d.reads[3]]);
        const uint64_t ready =
            std::max(h.issueCycle, std::max(r01, r23));

        // In-order issue: a stalled instruction blocks younger ones.
        if (ready > h.issueCycle) {
            h.issueCycle = ready;
            h.issuedThisCycle = 0;
        }
        if (h.issuedThisCycle >= issue_width) {
            h.issueCycle++;
            h.issuedThisCycle = 0;
        }
        const uint64_t issue = h.issueCycle;
        h.issuedThisCycle++;

        const uint64_t complete = issue + r.latency[i];
        cycles = std::max(cycles, complete);

        // Unconditional: dst-less instructions target the trash slot.
        rv[d.dst] = complete;

        if (r.mispredicted[i]) {
            const uint64_t redirect = complete + penalty;
            if (redirect > h.issueCycle) {
                h.issueCycle = redirect;
                h.issuedThisCycle = 0;
            }
        } else if ((d.isBranch && batch[i].taken) || d.isJump) {
            // Issue groups do not continue past a taken branch.
            h.issueCycle++;
            h.issuedThisCycle = 0;
        }
    }

    hot_ = h;
    cycles_ = cycles;
}

void
InorderCore::reset()
{
    TimingCore::reset();
    hot_ = Hot{};
}

} // namespace bioperf::cpu
