#include "cpu/ooo_core.h"

#include <algorithm>
#include <cassert>

namespace bioperf::cpu {

namespace {

constexpr size_t kSlotBuckets = 1 << 15; // power of two, cycle-tagged

} // namespace

OooCore::OooCore(const CoreConfig &config, mem::CacheHierarchy *caches,
                 branch::BranchPredictor *predictor)
    : TimingCore(config, caches, predictor, false),
      rob_(std::max<uint32_t>(config.windowSize, 1), 0),
      issue_slots_(kSlotBuckets, 0)
{
}

void
OooCore::setTraceLog(TraceLog log)
{
    makeCurrent();
    log_ = std::move(log);
}

void
OooCore::step(const Resolved &r, size_t from, size_t to)
{
    if (log_)
        stepRange<true>(r, from, to);
    else
        stepRange<false>(r, from, to);
}

template <bool kLogged>
void
OooCore::stepRange(const Resolved &r, size_t from, size_t to)
{
    // Widths, bases and the carried state live in locals for the
    // chunk: stores through the scoreboard and the rings could
    // otherwise alias the members and force a reload of each around
    // every instruction.
    const uint32_t fetch_width = config_.fetchWidth;
    const uint32_t issue_width = config_.issueWidth;
    const uint32_t retire_width = config_.retireWidth;
    const uint64_t penalty = config_.mispredictPenalty;
    uint64_t *const rv = ready_.data();
    uint64_t *const rob = rob_.data();
    const size_t rob_size = rob_.size();
    uint64_t *const slots = issue_slots_.data();
    Hot h = hot_;
    uint64_t cycles = cycles_;

    // The per-instruction decisions below (group full, window full,
    // retire slot) flip with the data; they are written as selects,
    // not branches, since the host mispredicts them.
    for (size_t i = from; i < to; i++) {
        const DecodedInstr &d = decode_.at(r.sid[i]);

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
            log_(batch_[i], t);
        }
    }

    hot_ = h;
    cycles_ = cycles;
}

/*
 * The canonical state at a boundary, as 16-bit words relative to
 * F = fetchCycle (span = cycles_ - F, |span| <= kMaxSpan):
 *
 *   [0]  span (two's complement)
 *   [1]  fetchSlotsUsed | retireUsed << 8
 *   [2]  R, then R runs of equal entries of the ROB ring from robPos
 *        (the entry the next dispatch reads): (cycle - F) << 4 |
 *        (entries - 1), at most 16 entries a run. An entry that
 *        retires before the dispatch reading it can happen cannot
 *        stall it and reads as 0.
 *   then N, and N pairs (slot, ready - F) of the scoreboard entries
 *        after F + 1 (no operand can be ready before dispatch + 1);
 *   then (cycle - F) << 4 | used of each issue-slot bucket with
 *        issues in F + 1 .. cycles_. No request can name an earlier
 *        cycle, and no instruction issues after cycles_.
 *
 * The ring's stale buckets (tags at or before F) never match a later
 * request, so two boundaries with equal words behave alike for as
 * long as their spans stay below the ring's 32K buckets.
 */
bool
OooCore::canonicalize(std::vector<uint16_t> &words) const
{
    const uint64_t f = hot_.fetchCycle;
    const uint64_t c = cycles_;
    const size_t rob_size = rob_.size();
    if (ready_.size() > 0x10000)
        return false;
    // Room for every section at its largest.
    words.resize(4 + rob_size + 2 * ready_.size() + (c > f ? c - f : 0));
    uint16_t *w = words.data();
    *w++ = static_cast<uint16_t>(c - f);
    *w++ = static_cast<uint16_t>(hot_.fetchSlotsUsed | hot_.retireUsed << 8);

    // The n-th dispatch after F reads the ROB entry n places after
    // robPos. At most fetchWidth dispatch in a cycle, so it happens no
    // earlier than F + lead, and an entry retiring by then cannot
    // stall it: it reads as absent (0).
    const uint32_t fw = std::max<uint32_t>(config_.fetchWidth, 1);
    uint32_t left = fw - std::min(hot_.fetchSlotsUsed, fw);
    uint64_t lead = 0;
    uint16_t *runs = w++;
    const uint16_t *first = w;
    size_t k = hot_.robPos;
    for (size_t n = 0; n < rob_size; n++) {
        if (left == 0) {
            lead++;
            left = fw;
        }
        left--;
        const uint64_t retire = rob_[k];
        k = k + 1 == rob_size ? 0 : k + 1;
        const uint16_t rel = retire > f + lead
                                 ? static_cast<uint16_t>((retire - f) << 4)
                                 : 0;
        if (w > first && (w[-1] & ~0xfu) == rel && (w[-1] & 0xf) < 0xf)
            w[-1]++;
        else
            *w++ = rel;
    }
    *runs = static_cast<uint16_t>(w - first);

    uint16_t *regs = w++;
    const uint64_t *rv = ready_.data();
    for (size_t slot = DecodedInstr::kWriteTrash + 1; slot < ready_.size();
         slot++) {
        if (rv[slot] > f + 1) {
            *w++ = static_cast<uint16_t>(slot);
            *w++ = static_cast<uint16_t>(rv[slot] - f);
        }
    }
    *regs = static_cast<uint16_t>((w - regs - 1) / 2);

    for (uint64_t cyc = f + 1; cyc <= c; cyc++) {
        const uint64_t bucket = issue_slots_[cyc & (kSlotBuckets - 1)];
        if ((bucket >> 8) == cyc && (bucket & 0xff) != 0)
            *w++ = static_cast<uint16_t>((cyc - f) << 4 | (bucket & 0xff));
    }
    words.resize(static_cast<size_t>(w - words.data()));
    return true;
}

void
OooCore::materialize(const uint16_t *w, size_t len, uint64_t f)
{
    const uint16_t *end = w + len;
    const uint64_t c = f + static_cast<int16_t>(w[0]);
    cycles_ = c;
    hot_.fetchCycle = f;
    hot_.fetchSlotsUsed = w[1] & 0xff;
    hot_.retireUsed = w[1] >> 8;
    hot_.robPos = 0;
    w += 2;

    const uint16_t *runs = w + 1;
    w = runs + *w;
    size_t k = 0;
    for (const uint16_t *p = runs; p < w; p++) {
        const uint64_t retire = *p >> 4 ? f + (*p >> 4) : 0;
        for (uint32_t e = 0; e <= (*p & 0xfu); e++)
            rob_[k++] = retire;
    }
    assert(k == rob_.size());

    std::fill(ready_.begin(), ready_.end(), 0);
    const uint16_t *regs_end = w + 1 + 2 * size_t(*w);
    for (w++; w < regs_end; w += 2)
        ready_[w[0]] = f + w[1];

    // The ring is stale, not wrong: replay only added issues after the
    // ring was last stepped, so a stale bucket of F + 1 .. cycles_
    // counts no more than the state does for its cycle (and the state
    // lists every cycle whose count is not 0), and no bucket is tagged
    // after cycles_.
    for (; w < end; w++) {
        const uint64_t cyc = f + (*w >> 4);
        issue_slots_[cyc & (kSlotBuckets - 1)] = cyc << 8 | (*w & 0xf);
    }
}

void
OooCore::clearPipeline()
{
    hot_ = Hot{};
    std::fill(rob_.begin(), rob_.end(), 0);
    std::fill(issue_slots_.begin(), issue_slots_.end(), 0);
}

} // namespace bioperf::cpu
