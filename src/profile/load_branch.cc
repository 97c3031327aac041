#include "profile/load_branch.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace bioperf::profile {

LoadBranchProfiler::LoadBranchProfiler()
{
    resetWindows();
    // State 0: a run start's (no taint, no windows open).
    canonicalize(hot_, arrays(), live_, words_);
    cur_ = memo_.intern(words_, 0);
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
LoadBranchProfiler::applyRules(const SidInfo &si, uint64_t g, Hot &h,
                               const Arrays &a)
{
    // Is this instruction the first consumer of a tight-chain
    // candidate? Only loads of the last kTightWindow instructions
    // can be live, each in its own slot.
    if (g - h.lastTightPush <= kTightWindow) {
        for (uint32_t d = 1; d <= kTightWindow; d++) {
            TightCandidate &cand = a.tight[(g - d) % kTightSlots];
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
        a.fed[g % kFedSlots] = 0;
        // The loaded value is a fresh origin, replacing any taint the
        // destination register carried.
        TaintSet &dst = a.taint[si.dst];
        dst.origins[0] = g;
        dst.count = 1;

        // Branch-to-load detection (Table 4b): right after a branch
        // that has proven hard to predict.
        if (g - h.lastHardBranch <= kAfterWindow) {
            a.tight[g % kTightSlots] = { g, si.dst };
            h.lastTightPush = g;
        }
        return false;
      }

      case SidInfo::kBranch: {
        // Load-to-branch detection: taint on the condition register.
        // A live origin's fed entry is still its own.
        const TaintSet &cond = a.taint[si.srcs[0]];
        bool terminated_chain = false;
        for (uint32_t t = 0; t < cond.count; t++) {
            const uint64_t o = cond.origins[t];
            if (g - o > kChainWindow)
                continue;
            terminated_chain = true;
            if (!a.fed[o % kFedSlots]) {
                a.fed[o % kFedSlots] = 1;
                h.ltbLoads++;
            }
        }
        return terminated_chain;
      }

      case SidInfo::kNoDst:
      case SidInfo::kHalt:
        return false;

      case SidInfo::kMovImm:
        a.taint[si.dst].count = 0;
        return false;

      case SidInfo::kAlu1: {
        // The generic merge below for one source: filter the source's
        // live origins straight into the destination. When src == dst
        // the in-place compaction is safe: each write lands at or
        // before the position just read.
        const TaintSet &src = a.taint[si.srcs[0]];
        TaintSet &dst = a.taint[si.dst];
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
            const TaintSet &src = a.taint[si.srcs[s]];
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
        TaintSet &dst = a.taint[si.dst];
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
void
LoadBranchProfiler::canonicalize(const Hot &h, const Arrays &a,
                                 std::vector<uint32_t> &slots,
                                 std::vector<uint16_t> &words) const
{
    const uint64_t g = h.gseq;
    auto encode = [&](std::vector<uint32_t> &visit,
                      std::vector<uint16_t> &out) {
        out.clear();
        uint32_t cands = 0;
        put(out, 0);
        for (uint32_t age = 0; age < kTightWindow; age++) {
            const TightCandidate &c = a.tight[(g - age) % kTightSlots];
            if (c.gseq != g - age || c.slot == kNoSlot)
                continue;
            assert(c.slot < (1u << 24));
            put(out, age | c.slot << 8);
            cands++;
        }
        const uint64_t hard =
            std::min<uint64_t>(g - h.lastHardBranch, kAfterWindow + 1);
        const uint64_t push =
            std::min<uint64_t>(g - h.lastTightPush, kTightWindow + 1);
        out[0] = static_cast<uint16_t>(hard | push << 4 | cands << 8);

        size_t kept = 0;
        for (const uint32_t slot : visit) {
            const TaintSet &t = a.taint[slot];
            uint32_t m = 0;
            uint32_t packed = 0;
            for (uint32_t k = 0; k < t.count; k++) {
                const uint64_t age = g - t.origins[k];
                if (age >= kChainWindow)
                    continue;
                const uint32_t fed = a.fed[t.origins[k] % kFedSlots];
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
    encode(slots, words);
#ifndef NDEBUG
    // The reference: a scan of the whole taint table.
    std::vector<uint32_t> all(taint_.size());
    std::iota(all.begin(), all.end(), 0u);
    std::vector<uint16_t> full;
    encode(all, full);
    assert(full == words);
#endif
}

void
LoadBranchProfiler::materialize(uint32_t state, Hot &h, const Arrays &a,
                                std::vector<uint32_t> &slots) const
{
    const uint64_t g = h.gseq;
    const vm::SegmentMemo::State &s = memo_.state(state);
    const uint16_t *w = memo_.wordsOf(s);
    const uint16_t *end = w + s.len;
    const uint32_t head = get(w);
    w += 2;
    h.lastHardBranch = g - (head & 0xf);
    h.lastTightPush = g - ((head >> 4) & 0xf);
    for (uint32_t k = 0; k < kTightSlots; k++)
        a.tight[k] = {};
    for (uint32_t c = 0; c < head >> 8; c++, w += 2) {
        const uint32_t cand = get(w);
        const uint64_t cg = g - (cand & 0xff);
        a.tight[cg % kTightSlots] = { cg, cand >> 8 };
    }
    slots.clear();
    for (; w < end; w += 4) {
        const uint32_t key = get(w);
        const uint32_t packed = get(w + 2);
        slots.push_back(key >> 3);
        TaintSet &t = a.taint[key >> 3];
        t.count = key & 7;
        for (uint32_t k = 0; k < t.count; k++) {
            const uint32_t byte = (packed >> (8 * k)) & 0xff;
            t.origins[k] = g - (byte & 0x7f);
            a.fed[t.origins[k] % kFedSlots] = byte >> 7;
        }
    }
#ifndef NDEBUG
    std::vector<uint32_t> named = slots;
    std::vector<uint16_t> back;
    canonicalize(h, a, named, back);
    assert(back.size() == s.len &&
           std::equal(back.begin(), back.end(), memo_.wordsOf(s)));
#endif
}

void
LoadBranchProfiler::restore(Hot &h)
{
    // Only the slots of the state the arrays last held can hold an
    // origin that still looks live.
    for (const uint32_t slot : live_)
        taint_[slot].count = 0;
    materialize(cur_, h, arrays(), live_);
    stepped_ = true;
}

void
LoadBranchProfiler::remember(const Hot &h, uint32_t seg,
                             const uint32_t *sids, size_t n, bool hard,
                             uint32_t client)
{
    const uint32_t from = cur_;
    cur_ = kNone;
    last_ = kNone;
    if (!memo_.on())
        return;
    // live_ names the start state's slots, in order: insert the
    // segment's destinations (a few) in order.
    for (size_t k = 0; k < n; k++) {
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
    canonicalize(h, arrays(), live_, words_);
    cur_ = memo_.intern(words_, 0);
    const uint32_t input = hard;
    if (seg != kNone && cur_ != kNone)
        memo_.addEdge(from, seg, &input, cur_, client);
}

bool
LoadBranchProfiler::atBoundary(uint32_t sid, Hot &h)
{
    at_boundary_ = false;
    const uint32_t seg = memo_.segmentAt(sid);
    if (memo_.on() && seg != kNone) {
        seg_ = seg;
        left_ = memo_.segment(seg).len;
        return true;
    }
    if (!stepped_)
        restore(h);
    step_seg_ = seg;
    rec_.clear();
    step_start_ = h;
    return false;
}

size_t
LoadBranchProfiler::replay(const vm::DynInstr *batch, size_t i, size_t n,
                           Hot &h)
{
    for (;;) {
        if (left_ > n - i) {
            left_ -= static_cast<uint32_t>(n - i);
            h.gseq += n - i;
            return n;
        }
        i += left_;
        h.gseq += left_;
        left_ = 0;
        const vm::DynInstr &t = batch[i - 1];
        assert(t.sid == memo_.sidsOf(memo_.segment(seg_))
                            [memo_.segment(seg_).len - 1]);
        SegmentCounts &counts = seg_counts_[seg_];
        h.totalLoads += counts.loads;
        bool correct = true;
        bool hard = false;
        if (t.op != ir::Opcode::Halt) {
            hard = judge(t, correct);
            counts.execs++;
            counts.misses += !correct;
        }
        const uint32_t input = hard;
        const uint32_t e = memo_.replay(last_, cur_, seg_, &input);
        uint32_t client;
        if (e != kNone) {
            stepped_ = false;
            client = memo_.edge(e).client;
            cur_ = memo_.edge(e).next;
            last_ = e;
        } else {
            client = learn(hard, h);
        }
        h.ltbLoads += client & 0xff;
        h.afterHardLoads += (client >> 8) & 0xff;
        const bool chain = client >> 16;
        h.ltbBranchExec += chain;
        h.ltbBranchMiss += chain && !correct;
        at_boundary_ = true;
        if (i == n || !atBoundary(batch[i].sid, h))
            return i;
    }
}

uint32_t
LoadBranchProfiler::learn(bool hard, Hot &h)
{
    const vm::SegmentMemo::Segment &seg = memo_.segment(seg_);
    const uint32_t *sids = memo_.sidsOf(seg);
    Hot s = h;
    s.gseq -= seg.len;
    if (!stepped_)
        restore(s);
    const Hot start = s;
    const Arrays a = arrays();
    bool chain = false;
    for (uint32_t k = 0; k < seg.len; k++)
        chain = applyRules(sid_info_[sids[k]], ++s.gseq, s, a);
    assert(s.totalLoads - start.totalLoads == seg_counts_[seg_].loads);
    if (hard)
        s.lastHardBranch = s.gseq;
    h.lastHardBranch = s.lastHardBranch;
    h.lastTightPush = s.lastTightPush;
    const uint32_t client =
        clientWord(s.ltbLoads - start.ltbLoads,
                   s.afterHardLoads - start.afterHardLoads, chain);
    remember(s, seg_, sids, seg.len, hard, client);
    return client;
}

size_t
LoadBranchProfiler::step(const vm::DynInstr *batch, size_t i, size_t n,
                         Hot &h)
{
    Arrays a = arrays();
    const SidInfo *info = sid_info_.data();
    size_t num_info = sid_info_.size();
    bool recording = step_seg_ == kNone;
    while (i < n) {
        const vm::DynInstr &di = batch[i++];
        assert(di.matchesInstr());
        if (di.sid >= num_info || !info[di.sid].decoded) [[unlikely]] {
            decodeSid(*di.instr);
            a = arrays();
            info = sid_info_.data();
            num_info = sid_info_.size();
        }
        const SidInfo &si = info[di.sid];
        if (recording)
            rec_.push_back(di.sid);
        const bool chain = applyRules(si, ++h.gseq, h, a);
        if (si.kind == SidInfo::kBranch || si.kind == SidInfo::kHalt) {
            endSegment(di, chain, h);
            if (i < n && atBoundary(batch[i].sid, h))
                return i;
            recording = step_seg_ == kNone;
        }
    }
    return n;
}

void
LoadBranchProfiler::endSegment(const vm::DynInstr &t, bool chain, Hot &h)
{
    const bool is_branch = sid_info_[t.sid].kind == SidInfo::kBranch;
    bool correct = true;
    bool hard = false;
    if (is_branch) {
        hard = judge(t, correct);
        h.ltbBranchExec += chain;
        h.ltbBranchMiss += chain && !correct;
    }
    if (step_seg_ == kNone) {
        step_seg_ = memo_.addSegment(rec_, {});
        if (step_seg_ != kNone) {
            SegmentCounts counts;
            for (const uint32_t sid : rec_)
                counts.loads += sid_info_[sid].kind == SidInfo::kLoad;
            seg_counts_.push_back(counts);
        }
    }

    // This branch is the next branch of every load in the segment.
    if (is_branch && step_seg_ != kNone) {
        seg_counts_[step_seg_].execs++;
        seg_counts_[step_seg_].misses += !correct;
    } else if (is_branch) {
        for (const uint32_t sid : rec_) {
            if (sid_info_[sid].kind != SidInfo::kLoad)
                continue;
            next_branch_[sid].execs++;
            next_branch_[sid].misses += !correct;
        }
    }

    if (hard)
        h.lastHardBranch = h.gseq;
    // A segment is stepped while the memo is on only when it is new,
    // so rec_ holds its sids.
    remember(h, step_seg_, rec_.data(), rec_.size(), hard,
             clientWord(h.ltbLoads - step_start_.ltbLoads,
                        h.afterHardLoads - step_start_.afterHardLoads,
                        chain));
    at_boundary_ = true;
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
    size_t i = 0;
    while (i < n) {
        if (at_boundary_)
            atBoundary(batch[i].sid, h);
        i = left_ > 0 ? replay(batch, i, n, h) : step(batch, i, n, h);
    }
    hot_ = h;
}

void
LoadBranchProfiler::addOpenPrefix(Hot &out) const
{
    if (left_ == 0)
        return;
    const vm::SegmentMemo::Segment &seg = memo_.segment(seg_);
    const uint32_t done = seg.len - left_;
    Hot h = out;
    h.gseq -= done;
    std::vector<TaintSet> taint(taint_.size());
    uint8_t fed[kFedSlots];
    TightCandidate tight[kTightSlots];
    const Arrays a{ taint.data(), fed, tight };
    std::vector<uint32_t> slots;
    materialize(cur_, h, a, slots);
    const uint32_t *sids = memo_.sidsOf(seg);
    for (uint32_t k = 0; k < done; k++)
        applyRules(sid_info_[sids[k]], ++h.gseq, h, a);
    assert(h.ltbLoads == out.ltbLoads);
    out.totalLoads = h.totalLoads;
    out.afterHardLoads = h.afterHardLoads;
}

void
LoadBranchProfiler::onRunEnd()
{
    // Register state does not survive a run; neither do chains, nor
    // loads awaiting their next branch. A replayed segment cut short
    // still counts what its executed prefix did.
    addOpenPrefix(hot_);
    left_ = 0;
    at_boundary_ = true;
    last_ = kNone;
    cur_ = 0;
    stepped_ = true;
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
        const vm::SegmentMemo::Segment &seg = memo_.segment(id);
        const uint32_t *sids = memo_.sidsOf(seg);
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
LoadBranchProfiler::summary() const
{
    Hot h = hot_;
    addOpenPrefix(h);
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
