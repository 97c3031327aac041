#include "cpu/inorder_core.h"

#include <algorithm>

namespace bioperf::cpu {

InorderCore::InorderCore(const CoreConfig &config,
                         mem::CacheHierarchy *caches,
                         branch::BranchPredictor *predictor)
    : TimingCore(config, caches, predictor, true)
{
}

void
InorderCore::step(const Resolved &r, size_t from, size_t to)
{
    // Width, penalty, the scoreboard base and the carried state live
    // in locals for the chunk, so scoreboard stores cannot force them
    // to be reloaded around every instruction.
    const uint32_t issue_width = config_.issueWidth;
    const uint64_t penalty = config_.mispredictPenalty;
    uint64_t *const rv = ready_.data();
    Hot h = hot_;
    uint64_t cycles = cycles_;

    for (size_t i = from; i < to; i++) {
        const DecodedInstr &d = decode_.at(r.sid[i]);

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
        } else if ((d.isBranch && r.taken[i]) || d.isJump) {
            // Issue groups do not continue past a taken branch.
            h.issueCycle++;
            h.issuedThisCycle = 0;
        }
    }

    hot_ = h;
    cycles_ = cycles;
}

/*
 * The canonical state at a boundary, as 16-bit words relative to
 * F = issueCycle (span = cycles_ - F, |span| <= kMaxSpan):
 *
 *   [0]  span (two's complement)
 *   [1]  issuedThisCycle
 *   then pairs (slot, ready - F) of the scoreboard entries after F
 *        (no instruction issues before F).
 */
bool
InorderCore::canonicalize(std::vector<uint16_t> &w) const
{
    const uint64_t f = hot_.issueCycle;
    if (ready_.size() > 0x10000 || hot_.issuedThisCycle > 0xffff)
        return false;
    w.clear();
    w.push_back(static_cast<uint16_t>(cycles_ - f));
    w.push_back(static_cast<uint16_t>(hot_.issuedThisCycle));
    for (size_t slot = DecodedInstr::kWriteTrash + 1; slot < ready_.size();
         slot++) {
        if (ready_[slot] > f) {
            w.push_back(static_cast<uint16_t>(slot));
            w.push_back(static_cast<uint16_t>(ready_[slot] - f));
        }
    }
    return true;
}

void
InorderCore::materialize(const uint16_t *w, size_t len, uint64_t f)
{
    cycles_ = f + static_cast<int16_t>(w[0]);
    hot_.issueCycle = f;
    hot_.issuedThisCycle = w[1];
    std::fill(ready_.begin(), ready_.end(), 0);
    for (size_t k = 2; k < len; k += 2)
        ready_[w[k]] = f + w[k + 1];
}

} // namespace bioperf::cpu
