#include "profile/load_branch.h"

#include <algorithm>
#include <cassert>

namespace bioperf::profile {

LoadBranchProfiler::LoadBranchProfiler()
{
    resetWindows();
}

void
LoadBranchProfiler::resetWindows()
{
    hot_.lastHardBranch = hot_.gseq - kAfterWindow - 1;
    hot_.lastTightPush = hot_.gseq - kTightWindow - 1;
}

void
LoadBranchProfiler::decodeSid(const ir::Instr &in)
{
    if (in.sid >= sid_info_.size())
        sid_info_.resize(in.sid + 1);
    SidInfo &si = sid_info_[in.sid];

    switch (ir::classOf(in.op)) {
      case ir::InstrClass::Load:
      case ir::InstrClass::FpLoad:
        si.kind = SidInfo::kLoad;
        next_branch_.resize(sid_info_.size());
        break;
      case ir::InstrClass::CondBranch:
        si.kind = SidInfo::kBranch;
        break;
      case ir::InstrClass::Store:
      case ir::InstrClass::FpStore:
      case ir::InstrClass::Prefetch:
      case ir::InstrClass::Jump:
      case ir::InstrClass::Halt:
        si.kind = SidInfo::kNoDst;
        break;
      case ir::InstrClass::IntAlu:
      case ir::InstrClass::FpAlu:
        si.kind =
            (in.op == ir::Opcode::MovImm || in.op == ir::Opcode::FMovImm)
                ? SidInfo::kMovImm
                : SidInfo::kAlu;
        break;
    }

    const ir::RegClass dc = ir::dstClass(in);
    // Taint operands, resolved to slots: the destination and the
    // sources in merge order (a branch's one source is its condition).
    // The table grows here, so the hot path indexes it unchecked.
    uint32_t max_slot = 0;
    if (dc != ir::RegClass::None) {
        si.dst = slotOf(in.dst, dc == ir::RegClass::Fp);
        max_slot = si.dst;
    }
    const int n = ir::numSrcs(in);
    for (int i = 0; i < n; i++) {
        if (in.src[i] == ir::kNoReg)
            continue;
        const uint32_t slot =
            slotOf(in.src[i], ir::srcClass(in, i) == ir::RegClass::Fp);
        si.srcs[si.numSrcs++] = slot;
        max_slot = std::max(max_slot, slot);
    }
    if (max_slot >= taint_.size())
        taint_.resize(size_t(max_slot) + 1);

    std::vector<std::pair<ir::RegClass, uint32_t>> reads;
    ir::gatherReads(in, reads);
    for (const auto &[cls, reg] : reads)
        si.reads[si.numReads++] = slotOf(reg, cls == ir::RegClass::Fp);

    // Single-register-source ALU ops (moves, converts, op-with-
    // immediate) dominate the ALU mix and merge trivially.
    if (si.kind == SidInfo::kAlu && si.numSrcs == 1)
        si.kind = SidInfo::kAlu1;

    si.decoded = true;
}

void
LoadBranchProfiler::onInstr(const vm::DynInstr &di)
{
    onBatch(&di, 1);
}

void
LoadBranchProfiler::onBatch(const vm::DynInstr *batch, size_t n)
{
    Hot h = hot_;
    TaintSet *taint = taint_.data();
    const SidInfo *info = sid_info_.data();
    size_t num_info = sid_info_.size();
    for (size_t i = 0; i < n; i++) {
        const vm::DynInstr &di = batch[i];
        assert(di.matchesInstr());
        if (di.sid >= num_info || !info[di.sid].decoded) [[unlikely]] {
            decodeSid(*di.instr);
            taint = taint_.data();
            info = sid_info_.data();
            num_info = sid_info_.size();
        }
        const SidInfo &si = info[di.sid];
        const uint64_t g = ++h.gseq;

        // Is this instruction the first consumer of a tight-chain
        // candidate? Only loads of the last kTightWindow instructions
        // can be live, each in its own slot.
        if (g - h.lastTightPush <= kTightWindow) {
            for (uint32_t d = 1; d <= kTightWindow; d++) {
                TightCandidate &cand = tight_[(g - d) % kTightSlots];
                if (cand.gseq != g - d || cand.slot == kNoSlot)
                    continue;
                for (uint8_t j = 0; j < si.numReads; j++) {
                    if (si.reads[j] == cand.slot) {
                        h.afterHardLoads++;
                        cand.slot = kNoSlot;
                        break;
                    }
                }
            }
        }

        switch (si.kind) {
          case SidInfo::kLoad: {
            h.totalLoads++;
            fed_[g % kFedSlots] = 0;
            // The loaded value is a fresh origin, replacing any taint
            // the destination register carried.
            TaintSet &dst = taint[si.dst];
            dst.origins[0] = g;
            dst.count = 1;
            // Its next branch is charged to it (kBranch below).
            pending_.push_back(di.sid);

            // Branch-to-load detection (Table 4b): right after a
            // branch that has proven hard to predict.
            if (g - h.lastHardBranch <= kAfterWindow) {
                tight_[g % kTightSlots] = { g, si.dst };
                h.lastTightPush = g;
            }
            break;
          }

          case SidInfo::kBranch: {
            // Load-to-branch detection: taint on the condition
            // register. A live origin's fed_ entry is still its own.
            const TaintSet &cond = taint[si.srcs[0]];
            bool terminated_chain = false;
            for (uint32_t t = 0; t < cond.count; t++) {
                const uint64_t o = cond.origins[t];
                if (g - o > kChainWindow)
                    continue;
                terminated_chain = true;
                if (!fed_[o % kFedSlots]) {
                    fed_[o % kFedSlots] = 1;
                    h.ltbLoads++;
                }
            }

            bool correct;
            const branch::HybridPredictor::Branch &b =
                pred_.update(di.sid, di.taken, correct);
            if (terminated_chain) {
                h.ltbBranchExec++;
                if (!correct)
                    h.ltbBranchMiss++;
            }
            // This is the next branch of every load since the last.
            for (uint32_t sid : pending_) {
                next_branch_[sid].execs++;
                next_branch_[sid].misses += !correct;
            }
            pending_.clear();

            // Is this branch statically hard to predict so far? The
            // record the update just touched holds its counts (the
            // test is BranchPredictor::missRate()'s).
            if (b.executions >= kMinBranchExecs &&
                static_cast<double>(b.mispredictions) /
                        static_cast<double>(b.executions) >=
                    kHardThreshold)
                h.lastHardBranch = g;
            break;
          }

          case SidInfo::kNoDst:
            break;

          case SidInfo::kMovImm:
            taint[si.dst].count = 0;
            break;

          case SidInfo::kAlu1: {
            // The generic merge below for one source: filter the
            // source's live origins straight into the destination.
            // When src == dst the in-place compaction is safe: each
            // write lands at or before the position just read.
            const TaintSet &src = taint[si.srcs[0]];
            TaintSet &dst = taint[si.dst];
            uint32_t m = 0;
            for (uint32_t t = 0; t < src.count; t++)
                if (g - src.origins[t] <= kChainWindow)
                    dst.origins[m++] = src.origins[t];
            dst.count = m;
            break;
          }

          case SidInfo::kAlu: {
            // Propagate the ordered union of the sources' live origins,
            // capped at kMaxOrigins in merge order. Origins within one
            // set are unique, so only other sources' can duplicate.
            uint64_t merged[TaintSet::kMaxOrigins];
            uint32_t m = 0;
            for (uint8_t s = 0; s < si.numSrcs; s++) {
                const TaintSet &src = taint[si.srcs[s]];
                const uint32_t before = m;
                for (uint32_t t = 0; t < src.count; t++) {
                    const uint64_t o = src.origins[t];
                    if (g - o > kChainWindow ||
                        m == TaintSet::kMaxOrigins)
                        continue;
                    bool dup = false;
                    for (uint32_t k = 0; k < before; k++)
                        dup |= merged[k] == o;
                    if (!dup)
                        merged[m++] = o;
                }
            }
            TaintSet &dst = taint[si.dst];
            dst.count = m;
            for (uint32_t k = 0; k < m; k++)
                dst.origins[k] = merged[k];
            break;
          }
        }
    }
    hot_ = h;
}

void
LoadBranchProfiler::onRunEnd()
{
    // Register state does not survive a run; neither do chains, nor
    // loads awaiting their next branch.
    for (TaintSet &t : taint_)
        t.count = 0;
    pending_.clear();
    resetWindows();
}

namespace {

double
frac(uint64_t a, uint64_t b)
{
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

} // namespace

LoadBranchSummary
LoadBranchProfiler::summary() const
{
    LoadBranchSummary s;
    s.dynamicLoads = hot_.totalLoads;
    s.loadToBranchFraction = frac(hot_.ltbLoads, hot_.totalLoads);
    s.ltbBranchMissRate = frac(hot_.ltbBranchMiss, hot_.ltbBranchExec);
    s.loadAfterHardBranchFraction =
        frac(hot_.afterHardLoads, hot_.totalLoads);
    return s;
}

util::json::Value
LoadBranchSummary::report() const
{
    util::json::Value v = util::json::Value::object();
    v["dynamic_loads"] = dynamicLoads;
    v["load_to_branch_fraction"] = loadToBranchFraction;
    v["ltb_branch_miss_rate"] = ltbBranchMissRate;
    v["load_after_hard_branch_fraction"] =
        loadAfterHardBranchFraction;
    return v;
}

} // namespace bioperf::profile
