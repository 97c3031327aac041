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

uint64_t
OooCore::allocIssueSlot(uint64_t earliest)
{
    // Entries pack (cycle << 8) | used; widths are far below 256.
    // The zero-initialised buckets read as cycle 0, which no request
    // can name (earliest >= dispatch + 1 >= 2), so they always
    // mismatch and reset on first use.
    for (uint64_t c = earliest;; c++) {
        uint64_t &b = issue_slots_[c & (kSlotBuckets - 1)];
        if ((b >> 8) != c)
            b = c << 8;
        if ((b & 0xff) < config_.issueWidth) {
            b++;
            return c;
        }
    }
}

uint64_t
OooCore::allocRetireSlot(uint64_t earliest)
{
    // step() clamps earliest to cycles_, so requests are
    // monotone and two counters suffice: either the request moves to
    // a later (hence untouched) cycle, or it lands on the current one
    // and spills at most one cycle forward when the width is spent.
    if (earliest > retire_cycle_) {
        retire_cycle_ = earliest;
        retire_used_ = 0;
    } else if (retire_used_ >= config_.retireWidth) {
        retire_cycle_++;
        retire_used_ = 0;
    }
    retire_used_++;
    return retire_cycle_;
}

void
OooCore::onInstr(const vm::DynInstr &di)
{
    step(di);
}

void
OooCore::onBatch(const vm::DynInstr *batch, size_t n)
{
    for (size_t i = 0; i < n; i++)
        step(batch[i]);
}

void
OooCore::step(const vm::DynInstr &di)
{
    const ir::Instr &in = *di.instr;
    const DecodedInstr &d = decode_.lookup(in, ready_);
    PipelineTimes t;

    // --- dispatch: fetch bandwidth + window occupancy ---------------------
    if (fetch_slots_used_ >= config_.fetchWidth) {
        fetch_cycle_++;
        fetch_slots_used_ = 0;
    }
    uint64_t dispatch = fetch_cycle_;
    const uint64_t oldest_retire = rob_[rob_pos_];
    if (oldest_retire > dispatch) {
        // Window full: dispatch stalls until the oldest entry retires.
        dispatch = oldest_retire;
        fetch_cycle_ = dispatch;
        fetch_slots_used_ = 0;
    }
    fetch_slots_used_++;
    t.dispatch = dispatch;

    // --- operand readiness ------------------------------------------------
    // DecodeTable pre-sized the scoreboard and padded reads[] with the
    // always-zero sentinel, so this is four unchecked loads and
    // branchless maxes (dispatch+1 >= 1 outranks the sentinel).
    const uint64_t *rv = ready_.data();
    const uint64_t r01 = std::max(rv[d.reads[0]], rv[d.reads[1]]);
    const uint64_t r23 = std::max(rv[d.reads[2]], rv[d.reads[3]]);
    const uint64_t ready = std::max(dispatch + 1, std::max(r01, r23));

    // --- issue: bandwidth-limited ------------------------------------------
    const uint64_t issue = allocIssueSlot(ready);
    t.issue = issue;

    // --- execute ------------------------------------------------------------
    // The common fixed-latency case takes one predictable branch; only
    // memory operations enter the switch.
    uint32_t latency = d.fixedLatency;
    if (d.kind != DecodedInstr::kFixed) {
        switch (d.kind) {
          case DecodedInstr::kLoad: {
            latency = caches_->access(di.addr, false).latency;
            if (accel_) {
                latency = accel_->adjustLatency(
                    in.sid, di.addr, di.loadValueBits, latency);
            }
            t.memLatency = latency;
            break;
          }
          case DecodedInstr::kStore:
            // Stores commit through a write buffer: they update the
            // cache but complete in one cycle from the pipeline's
            // perspective.
            caches_->access(di.addr, true);
            latency = 1;
            break;
          default:
            // Prefetch: fire-and-forget — warms the hierarchy, never
            // stalls.
            caches_->access(di.addr, false);
            latency = 1;
            break;
        }
    }
    const uint64_t complete = issue + latency;
    t.complete = complete;

    // --- writeback ----------------------------------------------------------
    // Unconditional: dst-less instructions target the trash slot.
    ready_[d.dst] = complete;

    // --- branch resolution ---------------------------------------------------
    if (d.isBranch) {
        const bool correct = predictor_->predictAndTrain(in.sid, di.taken);
        if (!correct) {
            mispredicts_++;
            t.mispredicted = true;
            // Fetch redirect: nothing useful enters the pipeline until
            // the branch resolves (complete) plus the refill penalty.
            const uint64_t redirect = complete + config_.mispredictPenalty;
            if (redirect > fetch_cycle_) {
                fetch_cycle_ = redirect;
                fetch_slots_used_ = 0;
            }
        }
        // Correctly predicted taken branches fetch the target without
        // a bubble (21264-style line/way prediction); no group break.
    }

    // --- retire (in order, bandwidth-limited) -------------------------------
    const uint64_t retire =
        allocRetireSlot(std::max(complete, cycles_));
    cycles_ = retire;
    rob_[rob_pos_] = retire;
    if (++rob_pos_ == rob_.size())
        rob_pos_ = 0;
    t.retire = retire;

    instructions_++;
    if (log_)
        log_(di, t);
}

void
OooCore::reset()
{
    TimingCore::reset();
    fetch_cycle_ = 1;
    fetch_slots_used_ = 0;
    std::fill(rob_.begin(), rob_.end(), 0);
    rob_pos_ = 0;
    std::fill(issue_slots_.begin(), issue_slots_.end(), 0);
    retire_cycle_ = 0;
    retire_used_ = 0;
}

} // namespace bioperf::cpu
