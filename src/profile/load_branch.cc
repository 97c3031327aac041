#include "profile/load_branch.h"

#include <algorithm>

namespace bioperf::profile {

LoadBranchProfiler::LoadBranchProfiler()
{
    // Live entries span at most one window of instructions, one load
    // per instruction: the chain window's W + 1 instructions, and the
    // tight window's (consumed entries are tombstoned in place and
    // expire with it).
    window_loads_.reset(kChainWindow + 1);
    tight_pending_.reset(kTightWindow + 2);
}

void
LoadBranchProfiler::growTaint(std::vector<TaintSet> &v, uint32_t reg)
{
    v.resize(reg + 1);
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
        break;
      case ir::InstrClass::CondBranch:
        si.kind = SidInfo::kBranch;
        si.src0 = in.src[0];
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
    si.dstNone = dc == ir::RegClass::None;
    si.dstFp = dc == ir::RegClass::Fp;
    si.dst = in.dst;

    const int n = ir::numSrcs(in);
    for (int i = 0; i < n; i++) {
        if (in.src[i] == ir::kNoReg)
            continue;
        si.srcs[si.numSrcs].fp =
            ir::srcClass(in, i) == ir::RegClass::Fp;
        si.srcs[si.numSrcs].reg = in.src[i];
        si.numSrcs++;
    }

    std::vector<std::pair<ir::RegClass, uint32_t>> reads;
    ir::gatherReads(in, reads);
    for (const auto &[cls, reg] : reads) {
        si.reads[si.numReads].fp = cls == ir::RegClass::Fp;
        si.reads[si.numReads].reg = reg;
        si.numReads++;
    }

    // Single-register-source ALU ops (moves, converts, op-with-
    // immediate) dominate the ALU mix and merge trivially.
    if (si.kind == SidInfo::kAlu && si.numSrcs == 1 && !si.dstNone)
        si.kind = SidInfo::kAlu1;

    si.decoded = true;
}

void
LoadBranchProfiler::onInstr(const vm::DynInstr &di)
{
    step(di);
}

#if defined(__GNUC__)
__attribute__((flatten))
#endif
void
LoadBranchProfiler::onBatch(const vm::DynInstr *batch, size_t n)
{
    // flatten keeps the whole step() body in this loop, so the
    // profiler's scalar state stays in registers across the batch.
    for (size_t i = 0; i < n; i++)
        step(batch[i]);
}

void
LoadBranchProfiler::step(const vm::DynInstr &di)
{
    const ir::Instr &in = *di.instr;
    const SidInfo &si = infoOf(in);
    gseq_++;

    // Expire window entries (and tight candidates already consumed,
    // which are tombstoned rather than erased in place).
    while (!window_loads_.empty() &&
           gseq_ - window_loads_.front().gseq > kChainWindow) {
        window_loads_.pop_front();
    }
    while (!tight_pending_.empty() &&
           (tight_pending_.front().reg == ir::kNoReg ||
            gseq_ - tight_pending_.front().gseq >
                kTightWindow)) {
        tight_pending_.pop_front();
    }

    // Check whether this instruction is the first consumer of a
    // pending tight-chain candidate.
    if (!tight_pending_.empty()) {
        for (uint32_t i = tight_pending_.head;
             i != tight_pending_.tail; i++) {
            TightCandidate &cand =
                tight_pending_.buf[i & tight_pending_.mask];
            if (cand.reg == ir::kNoReg)
                continue;
            for (uint8_t j = 0; j < si.numReads; j++) {
                if (si.reads[j].reg == cand.reg &&
                    (si.reads[j].fp != 0) == cand.fp) {
                    after_hard_loads_++;
                    cand.reg = ir::kNoReg;
                    break;
                }
            }
        }
    }

    switch (si.kind) {
      case SidInfo::kLoad: {
        total_loads_++;
        const uint32_t slot = window_loads_.tail;
        window_loads_.push_back({gseq_, false});
        // The loaded value is a fresh origin, replacing any taint the
        // destination register carried.
        TaintSet &dst = taintOf(si.dstFp, si.dst);
        dst.origins[0] = {gseq_, in.sid, slot};
        dst.count = 1;

        // Branch-to-load detection (Table 4b): right after a branch
        // that has proven hard to predict.
        if (last_hard_branch_ != UINT64_MAX &&
            gseq_ - last_hard_branch_ <= kAfterWindow) {
            tight_pending_.push_back({gseq_, si.dstFp, si.dst});
        }
        return;
      }

      case SidInfo::kBranch: {
        // Load-to-branch detection: taint on the condition register.
        const TaintSet &taint = taintOf(false, si.src0);
        bool terminated_chain = false;
        for (uint8_t t = 0; t < taint.count; t++) {
            const Origin &o = taint.origins[t];
            if (gseq_ - o.gseq > kChainWindow)
                continue;
            terminated_chain = true;
            // Mark the originating load. An origin inside the chain
            // window implies its ring entry has not expired (the ring
            // expires on the same window), so its recorded slot still
            // addresses it directly.
            PendingLoad &pl =
                window_loads_.buf[o.slot & window_loads_.mask];
            if (pl.gseq == o.gseq && !pl.fed) {
                pl.fed = true;
                ltb_loads_++;
            }
        }

        const bool correct = pred_.predictAndTrain(in.sid, di.taken);
        if (terminated_chain) {
            ltb_branch_exec_++;
            if (!correct)
                ltb_branch_miss_++;
        }

        // Is this branch statically hard to predict so far?
        if (pred_.executions(in.sid) >= kMinBranchExecs &&
            pred_.missRate(in.sid) >= kHardThreshold) {
            last_hard_branch_ = gseq_;
        }
        return;
      }

      case SidInfo::kNoDst:
        return; // no register result

      case SidInfo::kMovImm:
        taintOf(si.dstFp, si.dst).count = 0;
        return;

      case SidInfo::kAlu1: {
        // Exactly the generic merge below for one source: filter the
        // source's live origins straight into the destination. The
        // first call grows the taint table in the same order as the
        // generic path; the re-fetch after the dst lookup guards
        // against that growth invalidating the src reference. When
        // src == dst the in-place compaction is safe: each write
        // lands at or before the position just read.
        taintOf(si.srcs[0].fp != 0, si.srcs[0].reg);
        TaintSet &dst = taintOf(si.dstFp, si.dst);
        const TaintSet &src =
            taintOf(si.srcs[0].fp != 0, si.srcs[0].reg);
        uint8_t m = 0;
        for (uint8_t t = 0; t < src.count; t++)
            if (gseq_ - src.origins[t].gseq <= kChainWindow)
                dst.origins[m++] = src.origins[t];
        dst.count = m;
        return;
      }

      case SidInfo::kAlu:
        break;
    }

    // Register-producing ALU operation: propagate the union of the
    // source operands' origins to the destination.
    TaintSet merged;
    for (uint8_t i = 0; i < si.numSrcs; i++) {
        const TaintSet &src =
            taintOf(si.srcs[i].fp != 0, si.srcs[i].reg);
        if (merged.count == 0) {
            // Origins within one set are unique by construction, so
            // the first contributing source needs no duplicate checks.
            for (uint8_t t = 0;
                 t < src.count && merged.count < TaintSet::kMaxOrigins;
                 t++) {
                if (gseq_ - src.origins[t].gseq <= kChainWindow)
                    merged.origins[merged.count++] = src.origins[t];
            }
            continue;
        }
        for (uint8_t t = 0; t < src.count; t++) {
            const Origin &o = src.origins[t];
            if (gseq_ - o.gseq > kChainWindow)
                continue;
            bool dup = false;
            for (uint8_t m = 0; m < merged.count; m++)
                if (merged.origins[m].gseq == o.gseq)
                    dup = true;
            if (!dup && merged.count < TaintSet::kMaxOrigins)
                merged.origins[merged.count++] = o;
        }
    }
    if (!si.dstNone) {
        // Copy only the live origins; a full TaintSet assignment
        // moves the whole inline array on every ALU instruction.
        TaintSet &dst = taintOf(si.dstFp, si.dst);
        dst.count = merged.count;
        for (uint8_t m = 0; m < merged.count; m++)
            dst.origins[m] = merged.origins[m];
    }
}

void
LoadBranchProfiler::onRunEnd()
{
    // Register state does not survive a run; neither do chains.
    for (auto &t : int_taint_)
        t.count = 0;
    for (auto &t : fp_taint_)
        t.count = 0;
    window_loads_.clear();
    tight_pending_.clear();
    last_hard_branch_ = UINT64_MAX;
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
    s.dynamicLoads = total_loads_;
    s.loadToBranchFraction = frac(ltb_loads_, total_loads_);
    s.ltbBranchMissRate = frac(ltb_branch_miss_, ltb_branch_exec_);
    s.loadAfterHardBranchFraction = frac(after_hard_loads_, total_loads_);
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
