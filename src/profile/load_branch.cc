#include "profile/load_branch.h"

#include <algorithm>
#include <cassert>
#include <numeric>

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
      case ir::InstrClass::Halt:
        si.kind = SidInfo::kHalt;
        break;
      case ir::InstrClass::Store:
      case ir::InstrClass::FpStore:
      case ir::InstrClass::Prefetch:
      case ir::InstrClass::Jump:
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

inline bool
LoadBranchProfiler::applyRules(const SidInfo &si, uint64_t g,
                               TaintSet *taint)
{
    // Is this instruction the first consumer of a tight-chain
    // candidate? Only loads of the last kTightWindow instructions
    // can be live, each in its own slot.
    if (g - hot_.lastTightPush <= kTightWindow) {
        for (uint32_t d = 1; d <= kTightWindow; d++) {
            TightCandidate &cand = tight_[(g - d) % kTightSlots];
            if (cand.gseq != g - d || cand.slot == kNoSlot)
                continue;
            for (uint8_t j = 0; j < si.numReads; j++) {
                if (si.reads[j] == cand.slot) {
                    hot_.afterHardLoads++;
                    cand.slot = kNoSlot;
                    break;
                }
            }
        }
    }

    switch (si.kind) {
      case SidInfo::kLoad: {
        hot_.totalLoads++;
        fed_[g % kFedSlots] = 0;
        // The loaded value is a fresh origin, replacing any taint the
        // destination register carried.
        TaintSet &dst = taint[si.dst];
        dst.origins[0] = g;
        dst.count = 1;

        // Branch-to-load detection (Table 4b): right after a branch
        // that has proven hard to predict.
        if (g - hot_.lastHardBranch <= kAfterWindow) {
            tight_[g % kTightSlots] = { g, si.dst };
            hot_.lastTightPush = g;
        }
        return false;
      }

      case SidInfo::kBranch: {
        // Load-to-branch detection: taint on the condition register.
        // A live origin's fed entry is still its own.
        const TaintSet &cond = taint[si.srcs[0]];
        bool terminated_chain = false;
        for (uint32_t t = 0; t < cond.count; t++) {
            const uint64_t o = cond.origins[t];
            if (g - o > kChainWindow)
                continue;
            terminated_chain = true;
            if (!fed_[o % kFedSlots]) {
                fed_[o % kFedSlots] = 1;
                hot_.ltbLoads++;
            }
        }
        return terminated_chain;
      }

      case SidInfo::kNoDst:
      case SidInfo::kHalt:
        return false;

      case SidInfo::kMovImm:
        taint[si.dst].count = 0;
        return false;

      case SidInfo::kAlu1: {
        // The generic merge below for one source: filter the source's
        // live origins straight into the destination. When src == dst
        // the in-place compaction is safe: each write lands at or
        // before the position just read.
        const TaintSet &src = taint[si.srcs[0]];
        TaintSet &dst = taint[si.dst];
        uint32_t m = 0;
        for (uint32_t t = 0; t < src.count; t++)
            if (g - src.origins[t] <= kChainWindow)
                dst.origins[m++] = src.origins[t];
        dst.count = m;
        return false;
      }

      case SidInfo::kAlu: {
        // Propagate the ordered union of the sources' live origins,
        // capped at kMaxOrigins in merge order. Origins within one set
        // are unique, so only other sources' can duplicate.
        uint64_t merged[TaintSet::kMaxOrigins];
        uint32_t m = 0;
        for (uint8_t s = 0; s < si.numSrcs; s++) {
            const TaintSet &src = taint[si.srcs[s]];
            const uint32_t before = m;
            for (uint32_t t = 0; t < src.count; t++) {
                const uint64_t o = src.origins[t];
                if (g - o > kChainWindow || m == TaintSet::kMaxOrigins)
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
        return false;
      }
    }
    return false;
}

inline bool
LoadBranchProfiler::judge(const vm::DynInstr &br, bool &correct)
{
    const branch::HybridPredictor::Branch &b =
        pred_.update(br.sid, br.taken, correct);
    // Is this branch statically hard to predict so far? The record the
    // update just touched holds its counts (the test is
    // BranchPredictor::missRate()'s).
    return b.executions >= kMinBranchExecs &&
           static_cast<double>(b.mispredictions) /
                   static_cast<double>(b.executions) >=
               kHardThreshold;
}

namespace {

/** A codec word as two memo words, low half first. */
void
put(std::vector<uint16_t> &words, uint32_t w)
{
    words.push_back(static_cast<uint16_t>(w));
    words.push_back(static_cast<uint16_t>(w >> 16));
}

uint32_t
get(const uint16_t *words)
{
    return words[0] | static_cast<uint32_t>(words[1]) << 16;
}

/** An edge's client word: what its segment counted. */
uint32_t
clientWord(uint64_t ltb_loads, uint64_t after_hard_loads, bool chain)
{
    assert(ltb_loads <= 0xff && after_hard_loads <= 0xff);
    return static_cast<uint32_t>(ltb_loads | after_hard_loads << 8) |
           static_cast<uint32_t>(chain) << 16;
}

} // namespace

/*
 * A state is a run of 32-bit codec words, each stored as two 16-bit
 * memo words (put()), relative to the gseq of the boundary it
 * describes:
 *
 *   [0]  distance to the last hard branch (capped at kAfterWindow + 1)
 *        | distance to the last tight push (capped at
 *        kTightWindow + 1) << 4 | number of candidates << 8
 *   then one word per unconsumed tight candidate: age | slot << 8
 *   then two words per taint slot with live origins, in slot order:
 *        slot << 3 | count, and one byte per origin in merge order:
 *        age | fed << 7.
 *
 * Dead origins (too old to reach a branch) never change a result, so
 * they are left out; two boundaries with equal words behave alike. A
 * slot last written kChainWindow or more events ago holds only dead
 * origins, so the slots worth visiting are the ones the segment's
 * start state names plus the destinations the segment wrote.
 */
bool
LoadBranchProfiler::saveState(std::vector<uint16_t> &words, int16_t &span,
                              const uint32_t *sids, size_t len)
{
    // live_ names the start state's slots, in order: insert the
    // segment's destinations (a few) in order.
    for (size_t k = 0; k < len; k++) {
        const SidInfo &si = sid_info_[sids[k]];
        if (si.kind == SidInfo::kBranch || si.kind == SidInfo::kNoDst ||
            si.kind == SidInfo::kHalt)
            continue;
        size_t j = live_.size();
        live_.push_back(si.dst);
        for (; j > 0 && live_[j - 1] > si.dst; j--)
            live_[j] = live_[j - 1];
        live_[j] = si.dst;
    }
    live_.erase(std::unique(live_.begin(), live_.end()), live_.end());

    const uint64_t g = hot_.gseq;
    auto encode = [&](std::vector<uint32_t> &visit,
                      std::vector<uint16_t> &out) {
        out.clear();
        uint32_t cands = 0;
        put(out, 0);
        for (uint32_t age = 0; age < kTightWindow; age++) {
            const TightCandidate &c = tight_[(g - age) % kTightSlots];
            if (c.gseq != g - age || c.slot == kNoSlot)
                continue;
            assert(c.slot < (1u << 24));
            put(out, age | c.slot << 8);
            cands++;
        }
        const uint64_t hard =
            std::min<uint64_t>(g - hot_.lastHardBranch, kAfterWindow + 1);
        const uint64_t push =
            std::min<uint64_t>(g - hot_.lastTightPush, kTightWindow + 1);
        out[0] = static_cast<uint16_t>(hard | push << 4 | cands << 8);

        size_t kept = 0;
        for (const uint32_t slot : visit) {
            const TaintSet &t = taint_[slot];
            uint32_t m = 0;
            uint32_t packed = 0;
            for (uint32_t k = 0; k < t.count; k++) {
                const uint64_t age = g - t.origins[k];
                if (age >= kChainWindow)
                    continue;
                const uint32_t fed = fed_[t.origins[k] % kFedSlots];
                packed |= static_cast<uint32_t>(age | fed << 7)
                          << (8 * m++);
            }
            if (m > 0) {
                assert(slot < (1u << 29));
                put(out, slot << 3 | m);
                put(out, packed);
                visit[kept++] = slot;
            }
        }
        visit.resize(kept);
    };
    encode(live_, words);
#ifndef NDEBUG
    // The reference: a scan of the whole taint table.
    std::vector<uint32_t> all(taint_.size());
    std::iota(all.begin(), all.end(), 0u);
    std::vector<uint16_t> full;
    encode(all, full);
    assert(full == words);
#endif
    span = 0;
    return true;
}

void
LoadBranchProfiler::loadState(const uint16_t *w, size_t len)
{
    // Only the slots of the state the arrays last held can hold an
    // origin that still looks live.
    for (const uint32_t slot : live_)
        taint_[slot].count = 0;
    const uint64_t g = hot_.gseq;
    const uint16_t *end = w + len;
    const uint32_t head = get(w);
    w += 2;
    hot_.lastHardBranch = g - (head & 0xf);
    hot_.lastTightPush = g - ((head >> 4) & 0xf);
    for (TightCandidate &c : tight_)
        c = {};
    for (uint32_t c = 0; c < head >> 8; c++, w += 2) {
        const uint32_t cand = get(w);
        const uint64_t cg = g - (cand & 0xff);
        tight_[cg % kTightSlots] = { cg, cand >> 8 };
    }
    live_.clear();
    for (; w < end; w += 4) {
        const uint32_t key = get(w);
        const uint32_t packed = get(w + 2);
        live_.push_back(key >> 3);
        TaintSet &t = taint_[key >> 3];
        t.count = key & 7;
        for (uint32_t k = 0; k < t.count; k++) {
            const uint32_t byte = (packed >> (8 * k)) & 0xff;
            t.origins[k] = g - (byte & 0x7f);
            fed_[t.origins[k] % kFedSlots] = byte >> 7;
        }
    }
}

void
LoadBranchProfiler::newSegment(uint32_t seg, const Recording &rec,
                               bool branch)
{
    if (seg != kNone) {
        assert(seg == seg_counts_.size());
        SegmentCounts counts;
        for (const uint32_t sid : rec.sids)
            counts.loads += sid_info_[sid].kind == SidInfo::kLoad;
        counts.execs = branch;
        counts.misses = !correct_;
        seg_counts_.push_back(counts);
        return;
    }
    for (const uint32_t sid : rec.sids) {
        if (sid_info_[sid].kind != SidInfo::kLoad)
            continue;
        next_branch_[sid].execs += branch;
        next_branch_[sid].misses += !correct_;
    }
}

inline uint32_t
LoadBranchProfiler::terminal(size_t t, uint32_t seg, const Recording *rec)
{
    const vm::DynInstr &br = batch_[t];
    const bool branch = br.op != ir::Opcode::Halt;
    correct_ = true;
    hard_ = branch && judge(br, correct_);
    // This branch is the next branch of every load in the segment.
    if (rec) [[unlikely]] {
        newSegment(seg, *rec, branch);
    } else if (seg != kNone) {
        seg_counts_[seg].execs += branch;
        seg_counts_[seg].misses += !correct_;
    }
    return hard_;
}

inline void
LoadBranchProfiler::applyEdge(const vm::SegmentMemo::Edge &e, uint32_t len,
                              bool)
{
    hot_.gseq += len;
    hot_.totalLoads += seg_counts_[e.seg].loads;
    hot_.ltbLoads += e.client & 0xff;
    hot_.afterHardLoads += (e.client >> 8) & 0xff;
    const bool chain = e.client >> 16;
    hot_.ltbBranchExec += chain;
    hot_.ltbBranchMiss += chain && !correct_;
}

uint32_t
LoadBranchProfiler::segmentEnd()
{
    hot_.ltbBranchExec += chain_;
    hot_.ltbBranchMiss += chain_ && !correct_;
    if (hard_)
        hot_.lastHardBranch = hot_.gseq;
    return clientWord(hot_.ltbLoads - start_ltb_,
                      hot_.afterHardLoads - start_after_hard_, chain_);
}

void
LoadBranchProfiler::stepRecorded(const vm::SegmentMemo::Segment &s,
                                 uint32_t len, const uint32_t *)
{
    const uint32_t *sids = memo().sidsOf(s);
    TaintSet *taint = taint_.data();
    for (uint32_t k = 0; k < len; k++)
        chain_ = applyRules(sid_info_[sids[k]], ++hot_.gseq, taint);
}

size_t
LoadBranchProfiler::stepLive(size_t i, size_t n, Recording *rec,
                             bool &ended)
{
    TaintSet *taint = taint_.data();
    const SidInfo *info = sid_info_.data();
    size_t num_info = sid_info_.size();
    while (i < n) {
        const vm::DynInstr &di = batch_[i++];
        assert(di.matchesInstr());
        if (di.sid >= num_info || !info[di.sid].decoded) [[unlikely]] {
            decodeSid(*di.instr);
            taint = taint_.data();
            info = sid_info_.data();
            num_info = sid_info_.size();
        }
        const SidInfo &si = info[di.sid];
        if (rec)
            rec->sids.push_back(di.sid);
        const bool chain = applyRules(si, ++hot_.gseq, taint);
        if (si.kind == SidInfo::kBranch || si.kind == SidInfo::kHalt) {
            chain_ = chain;
            ended = true;
            break;
        }
    }
    return i;
}

void
LoadBranchProfiler::onBatch(const vm::DynInstr *batch, size_t n)
{
    batch_ = batch;
    feed(n);
}

void
LoadBranchProfiler::clearRun()
{
    // Register state does not survive a run; neither do chains, nor
    // loads awaiting their next branch.
    for (TaintSet &t : taint_)
        t.count = 0;
    live_.clear();
    for (TightCandidate &c : tight_)
        c = {};
    resetWindows();
}

std::vector<LoadBranchProfiler::NextBranch>
LoadBranchProfiler::nextBranchBySid() const
{
    // Each recorded segment's branch outcomes go to all its loads.
    std::vector<NextBranch> next = next_branch_;
    for (uint32_t id = 0; id < seg_counts_.size(); id++) {
        const vm::SegmentMemo::Segment &seg = memo().segment(id);
        const uint32_t *sids = memo().sidsOf(seg);
        for (uint32_t k = 0; k < seg.len; k++) {
            if (sid_info_[sids[k]].kind != SidInfo::kLoad)
                continue;
            next[sids[k]].execs += seg_counts_[id].execs;
            next[sids[k]].misses += seg_counts_[id].misses;
        }
    }
    return next;
}

namespace {

double
frac(uint64_t a, uint64_t b)
{
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
}

} // namespace

LoadBranchSummary
LoadBranchProfiler::summary()
{
    catchUp();
    const Hot &h = hot_;
    LoadBranchSummary s;
    s.dynamicLoads = h.totalLoads;
    s.loadToBranchFraction = frac(h.ltbLoads, h.totalLoads);
    s.ltbBranchMissRate = frac(h.ltbBranchMiss, h.ltbBranchExec);
    s.loadAfterHardBranchFraction = frac(h.afterHardLoads, h.totalLoads);
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
