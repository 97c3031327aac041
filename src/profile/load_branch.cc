#include "profile/load_branch.h"

#include <algorithm>
#include <cassert>

namespace bioperf::profile {

LoadBranchProfiler::LoadBranchProfiler()
{
    resetWindows();
    // Reserved, not filled: pages the memo never uses stay untouched.
    segments_.reserve(kMaxSegments);
    seg_sids_.reserve(kMaxSegmentSids);
    states_.reserve(kMaxStates);
    state_words_.reserve(kMaxStateWords);
    edges_.reserve(kMaxEdges);
    state_index_.assign(2 * kMaxStates, kNone);
    edge_index_.assign(2 * kMaxEdges, kNone);
    // State 0: a run start's (no taint, no windows open).
    canonicalize(hot_, arrays(), words_);
    cur_state_ = intern(words_);
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
    if (in.sid >= sid_info_.size()) {
        sid_info_.resize(in.sid + 1);
        seg_at_sid_.resize(in.sid + 1, kNone);
    }
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
LoadBranchProfiler::judge(const vm::DynInstr &br, bool chain, Hot &h,
                          bool &correct)
{
    const branch::HybridPredictor::Branch &b =
        pred_.update(br.sid, br.taken, correct);
    if (chain) {
        h.ltbBranchExec++;
        if (!correct)
            h.ltbBranchMiss++;
    }
    // Is this branch statically hard to predict so far? The record the
    // update just touched holds its counts (the test is
    // BranchPredictor::missRate()'s).
    return b.executions >= kMinBranchExecs &&
           static_cast<double>(b.mispredictions) /
                   static_cast<double>(b.executions) >=
               kHardThreshold;
}

/*
 * A state is a run of 32-bit words, relative to the gseq of the
 * boundary it describes:
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
 * they are left out; two boundaries with equal words behave alike.
 */
void
LoadBranchProfiler::canonicalize(const Hot &h, const Arrays &a,
                                 std::vector<uint32_t> &words) const
{
    const uint64_t g = h.gseq;
    words.assign(1, 0);
    uint32_t cands = 0;
    for (uint32_t age = 0; age < kTightWindow; age++) {
        const TightCandidate &c = a.tight[(g - age) % kTightSlots];
        if (c.gseq != g - age || c.slot == kNoSlot)
            continue;
        assert(c.slot < (1u << 24));
        words.push_back(age | c.slot << 8);
        cands++;
    }
    const uint64_t hard =
        std::min<uint64_t>(g - h.lastHardBranch, kAfterWindow + 1);
    const uint64_t push =
        std::min<uint64_t>(g - h.lastTightPush, kTightWindow + 1);
    words[0] = static_cast<uint32_t>(hard | push << 4) | cands << 8;

    for (uint32_t slot = 0; slot < taint_.size(); slot++) {
        const TaintSet &t = a.taint[slot];
        uint32_t m = 0;
        uint32_t packed = 0;
        for (uint32_t k = 0; k < t.count; k++) {
            const uint64_t age = g - t.origins[k];
            if (age >= kChainWindow)
                continue;
            const uint32_t fed = a.fed[t.origins[k] % kFedSlots];
            packed |= static_cast<uint32_t>(age | fed << 7) << (8 * m++);
        }
        if (m > 0) {
            assert(slot < (1u << 29));
            words.push_back(slot << 3 | m);
            words.push_back(packed);
        }
    }
}

void
LoadBranchProfiler::materialize(uint32_t state, Hot &h,
                                const Arrays &a) const
{
    const uint64_t g = h.gseq;
    const uint32_t *w = &state_words_[states_[state].words];
    const uint32_t *end = w + states_[state].len;
    const uint32_t head = *w++;
    h.lastHardBranch = g - (head & 0xf);
    h.lastTightPush = g - ((head >> 4) & 0xf);
    for (uint32_t k = 0; k < kTightSlots; k++)
        a.tight[k] = {};
    for (uint32_t c = 0; c < head >> 8; c++, w++) {
        const uint64_t cg = g - (*w & 0xff);
        a.tight[cg % kTightSlots] = { cg, *w >> 8 };
    }
    for (uint32_t slot = 0; slot < taint_.size(); slot++)
        a.taint[slot].count = 0;
    for (; w < end; w += 2) {
        TaintSet &t = a.taint[w[0] >> 3];
        t.count = w[0] & 7;
        for (uint32_t k = 0; k < t.count; k++) {
            const uint32_t byte = (w[1] >> (8 * k)) & 0xff;
            t.origins[k] = g - (byte & 0x7f);
            a.fed[t.origins[k] % kFedSlots] = byte >> 7;
        }
    }
#ifndef NDEBUG
    std::vector<uint32_t> back;
    canonicalize(h, a, back);
    assert(back.size() == states_[state].len &&
           std::equal(back.begin(), back.end(),
                      &state_words_[states_[state].words]));
#endif
}

uint32_t
LoadBranchProfiler::intern(const std::vector<uint32_t> &words)
{
    uint32_t hash = 2166136261u;
    for (const uint32_t w : words)
        hash = (hash ^ w) * 16777619u;
    const uint32_t mask = static_cast<uint32_t>(state_index_.size()) - 1;
    uint32_t p = hash & mask;
    for (;; p = (p + 1) & mask) {
        const uint32_t id = state_index_[p];
        if (id == kNone)
            break;
        const StateRef &s = states_[id];
        if (s.hash == hash && s.len == words.size() &&
            std::equal(words.begin(), words.end(),
                       &state_words_[s.words]))
            return id;
    }
    if (states_.size() == kMaxStates ||
        state_words_.size() + words.size() > kMaxStateWords)
        return kNone;
    const uint32_t id = static_cast<uint32_t>(states_.size());
    states_.push_back({ static_cast<uint32_t>(state_words_.size()),
                        static_cast<uint32_t>(words.size()), hash });
    state_words_.insert(state_words_.end(), words.begin(), words.end());
    state_index_[p] = id;
    return id;
}

namespace {

uint32_t
edgeHash(uint32_t state, uint32_t seg)
{
    uint32_t x = state * 0x9e3779b1u ^ seg * 0x85ebca77u;
    return x ^ (x >> 15);
}

} // namespace

uint32_t
LoadBranchProfiler::findEdge(uint32_t state, uint32_t sid) const
{
    if (sid >= seg_at_sid_.size() || seg_at_sid_[sid] == kNone)
        return kNone;
    const uint32_t seg = seg_at_sid_[sid];
    const uint32_t mask = static_cast<uint32_t>(edge_index_.size()) - 1;
    for (uint32_t p = edgeHash(state, seg) & mask;; p = (p + 1) & mask) {
        const uint32_t id = edge_index_[p];
        if (id == kNone ||
            (edges_[id].state == state && edges_[id].seg == seg))
            return id;
    }
}

uint32_t
LoadBranchProfiler::recordSegment()
{
    if (segments_.size() == kMaxSegments ||
        seg_sids_.size() + rec_.size() > kMaxSegmentSids)
        return kNone;
    const uint32_t id = static_cast<uint32_t>(segments_.size());
    Segment seg;
    seg.sids = static_cast<uint32_t>(seg_sids_.size());
    seg.len = static_cast<uint32_t>(rec_.size());
    segments_.push_back(seg);
    seg_sids_.insert(seg_sids_.end(), rec_.begin(), rec_.end());
    seg_at_sid_[rec_[0]] = id;
    return id;
}

bool
LoadBranchProfiler::atBoundary(uint32_t sid, Hot &h)
{
    at_boundary_ = false;
    if (!full_) {
        uint32_t e = kNone;
        if (from_edge_ != kNone) {
            e = edges_[from_edge_].succ[from_outcome_];
            if (e != kNone && edges_[e].firstSid != sid)
                e = kNone;
        }
        if (e == kNone) {
            e = findEdge(cur_state_, sid);
            if (e != kNone && from_edge_ != kNone)
                edges_[from_edge_].succ[from_outcome_] = e;
        }
        if (e != kNone) {
            assert(edges_[e].state == cur_state_);
            cur_edge_ = e;
            left_ = edges_[e].len;
            return true;
        }
        // A miss steps the segment from the state's own arrays.
        materialize(cur_state_, h, arrays());
    }
    step_seg_ = sid < seg_at_sid_.size() ? seg_at_sid_[sid] : kNone;
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
        const Edge &e = edges_[cur_edge_];
        assert(t.sid == e.terminal);
        h.totalLoads += e.loads;
        h.ltbLoads += e.ltbLoads;
        h.afterHardLoads += e.afterHardLoads;
        bool hard = false;
        if (!e.halts) {
            bool correct;
            hard = judge(t, e.endsChain, h, correct);
            Segment &seg = segments_[e.seg];
            seg.execs++;
            seg.misses += !correct;
        }
        cur_state_ = e.next[hard];
        from_edge_ = cur_edge_;
        from_outcome_ = outcomeOf(t.taken, hard);
        at_boundary_ = true;
        if (i == n || !atBoundary(batch[i].sid, h))
            return i;
    }
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
    if (is_branch)
        hard = judge(t, chain, h, correct);
    if (step_seg_ == kNone)
        step_seg_ = recordSegment();

    // This branch is the next branch of every load in the segment.
    if (is_branch && step_seg_ != kNone) {
        segments_[step_seg_].execs++;
        segments_[step_seg_].misses += !correct;
    } else if (is_branch) {
        for (const uint32_t sid : rec_) {
            if (sid_info_[sid].kind != SidInfo::kLoad)
                continue;
            next_branch_[sid].execs++;
            next_branch_[sid].misses += !correct;
        }
    }

    if (!full_)
        remember(t, chain, hard, h);
    if (hard)
        h.lastHardBranch = h.gseq;
    at_boundary_ = true;
}

void
LoadBranchProfiler::remember(const vm::DynInstr &t, bool chain, bool hard,
                             const Hot &h)
{
    // The state after the terminal, either way it was judged: only
    // the hard-branch distance differs.
    uint32_t easy_state = kNone;
    uint32_t hard_state = kNone;
    if (step_seg_ != kNone && edges_.size() < kMaxEdges) {
        canonicalize(h, arrays(), words_);
        easy_state = intern(words_);
        words_[0] &= ~0xfu;
        hard_state = intern(words_);
    }
    if (easy_state == kNone || hard_state == kNone) {
        full_ = true;
        from_edge_ = kNone;
        return;
    }

    Edge e;
    e.state = cur_state_;
    e.seg = step_seg_;
    e.firstSid = seg_sids_[segments_[step_seg_].sids];
    e.terminal = t.sid;
    e.len = segments_[step_seg_].len;
    e.loads = static_cast<uint32_t>(h.totalLoads - step_start_.totalLoads);
    e.ltbLoads = static_cast<uint32_t>(h.ltbLoads - step_start_.ltbLoads);
    e.afterHardLoads = static_cast<uint32_t>(h.afterHardLoads -
                                             step_start_.afterHardLoads);
    e.halts = sid_info_[t.sid].kind == SidInfo::kHalt;
    e.endsChain = chain;
    e.next[0] = easy_state;
    e.next[1] = hard_state;
    const uint32_t id = static_cast<uint32_t>(edges_.size());
    edges_.push_back(e);
    const uint32_t mask = static_cast<uint32_t>(edge_index_.size()) - 1;
    uint32_t p = edgeHash(e.state, e.seg) & mask;
    while (edge_index_[p] != kNone)
        p = (p + 1) & mask;
    edge_index_[p] = id;

    cur_state_ = e.next[hard];
    from_edge_ = id;
    from_outcome_ = outcomeOf(t.taken, hard);
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
    const Edge &e = edges_[cur_edge_];
    const uint32_t done = e.len - left_;
    Hot h = out;
    h.gseq -= done;
    std::vector<TaintSet> taint(taint_.size());
    uint8_t fed[kFedSlots];
    TightCandidate tight[kTightSlots];
    const Arrays a{ taint.data(), fed, tight };
    materialize(cur_state_, h, a);
    const uint32_t *sids = &seg_sids_[segments_[e.seg].sids];
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
    from_edge_ = kNone;
    cur_state_ = 0;
    for (TaintSet &t : taint_)
        t.count = 0;
    resetWindows();
}

std::vector<LoadBranchProfiler::NextBranch>
LoadBranchProfiler::nextBranchBySid() const
{
    // Each recorded segment's branch outcomes go to all its loads.
    std::vector<NextBranch> next = next_branch_;
    for (const Segment &seg : segments_) {
        for (uint32_t k = 0; k < seg.len; k++) {
            const uint32_t sid = seg_sids_[seg.sids + k];
            if (sid_info_[sid].kind != SidInfo::kLoad)
                continue;
            next[sid].execs += seg.execs;
            next[sid].misses += seg.misses;
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
