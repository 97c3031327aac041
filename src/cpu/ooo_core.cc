#include "cpu/ooo_core.h"

#include <algorithm>

namespace bioperf::cpu {

namespace {

constexpr size_t kSlotBuckets = 1 << 15; // power of two, cycle-tagged

} // namespace

OooCore::OooCore(const CoreConfig &config, mem::CacheHierarchy *caches,
                 branch::BranchPredictor *predictor)
    : TimingCore(config, caches, predictor),
      rob_(std::max<uint32_t>(config.windowSize, 1), 0),
      issue_slots_(kSlotBuckets, 0)
{
}

void
OooCore::schedule(const vm::DynInstr *batch, size_t n)
{
    if (log_)
        scheduleChunk<true>(batch, n);
    else
        scheduleChunk<false>(batch, n);
}

template <bool kLogged>
void
OooCore::scheduleChunk(const vm::DynInstr *batch, size_t n)
{
    // Widths, bases and the carried state live in locals for the
    // chunk: stores through the scoreboard and the rings could
    // otherwise alias the members and force a reload of each around
    // every instruction.
    const uint32_t fetch_width = config_.fetchWidth;
    const uint32_t issue_width = config_.issueWidth;
    const uint32_t retire_width = config_.retireWidth;
    const uint64_t penalty = config_.mispredictPenalty;
    const Resolved &r = resolved_;
    uint64_t *const rv = ready_.data();
    uint64_t *const rob = rob_.data();
    const size_t rob_size = rob_.size();
    uint64_t *const slots = issue_slots_.data();
    Hot h = hot_;
    uint64_t cycles = cycles_;

    // The per-instruction decisions below (group full, window full,
    // retire slot) flip with the data; they are written as selects,
    // not branches, since the host mispredicts them.
    for (size_t i = 0; i < n; i++) {
        const DecodedInstr &d = r.decoded[i];

        // --- dispatch: fetch bandwidth + window occupancy -----------------
        // A full fetch group moves to the next cycle; a full window
        // stalls dispatch until the oldest entry retires. Either
        // starts a fresh group.
        const bool group_full = h.fetchSlotsUsed >= fetch_width;
        uint64_t dispatch = h.fetchCycle + group_full;
        uint32_t slots_used = group_full ? 0 : h.fetchSlotsUsed;
        const uint64_t oldest_retire = rob[h.robPos];
        const bool window_full = oldest_retire > dispatch;
        dispatch = window_full ? oldest_retire : dispatch;
        slots_used = window_full ? 0 : slots_used;
        h.fetchCycle = dispatch;
        h.fetchSlotsUsed = slots_used + 1;

        // --- operand readiness --------------------------------------------
        // DecodeTable pre-sized the scoreboard and padded reads[] with
        // the always-zero sentinel, so this is four unchecked loads and
        // branchless maxes (dispatch+1 >= 1 outranks the sentinel).
        const uint64_t r01 = std::max(rv[d.reads[0]], rv[d.reads[1]]);
        const uint64_t r23 = std::max(rv[d.reads[2]], rv[d.reads[3]]);
        const uint64_t ready = std::max(dispatch + 1, std::max(r01, r23));

        // --- issue: bandwidth-limited --------------------------------------
        // Buckets pack (cycle << 8) | used; widths are far below 256.
        // A bucket tagged with another cycle counts as empty. The
        // zero-initialised buckets read as cycle 0, which no request
        // can name (ready >= 2).
        uint64_t issue = ready;
        uint64_t *slot = &slots[issue & (kSlotBuckets - 1)];
        uint64_t bucket = (*slot >> 8) == issue ? *slot : issue << 8;
        while ((bucket & 0xff) >= issue_width) {
            issue++;
            slot = &slots[issue & (kSlotBuckets - 1)];
            bucket = (*slot >> 8) == issue ? *slot : issue << 8;
        }
        *slot = bucket + 1;

        // --- execute and writeback -----------------------------------------
        // Unconditional: dst-less instructions target the trash slot.
        const uint64_t complete = issue + r.latency[i];
        rv[d.dst] = complete;

        // --- branch resolution ---------------------------------------------
        // Fetch redirect: nothing useful enters the pipeline until the
        // branch resolves (complete) plus the refill penalty. Correctly
        // predicted taken branches fetch the target without a bubble
        // (21264-style line/way prediction); no group break.
        if (r.mispredicted[i]) {
            const uint64_t redirect = complete + penalty;
            if (redirect > h.fetchCycle) {
                h.fetchCycle = redirect;
                h.fetchSlotsUsed = 0;
            }
        }

        // --- retire (in order, bandwidth-limited) --------------------------
        // Requests are monotone (never before cycles_), so one counter
        // suffices: either the request moves to a later (hence
        // untouched) cycle, or it lands on the current one and spills
        // at most one cycle forward when the width is spent.
        const bool later = complete > cycles;
        const bool retire_full = h.retireUsed >= retire_width;
        cycles = later ? complete : cycles + retire_full;
        h.retireUsed = later || retire_full ? 1 : h.retireUsed + 1;
        rob[h.robPos] = cycles;
        h.robPos = h.robPos + 1 == rob_size ? 0 : h.robPos + 1;

        if constexpr (kLogged) {
            PipelineTimes t;
            t.dispatch = dispatch;
            t.issue = issue;
            t.complete = complete;
            t.retire = cycles;
            t.mispredicted = r.mispredicted[i];
            if (d.kind == DecodedInstr::kLoad)
                t.memLatency = r.latency[i];
            log_(batch[i], t);
        }
    }

    hot_ = h;
    cycles_ = cycles;
}

void
OooCore::reset()
{
    TimingCore::reset();
    hot_ = Hot{};
    std::fill(rob_.begin(), rob_.end(), 0);
    std::fill(issue_slots_.begin(), issue_slots_.end(), 0);
}

} // namespace bioperf::cpu
