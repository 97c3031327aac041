#include "profile/per_load.h"

#include <algorithm>
#include <cassert>

namespace bioperf::profile {

double
PerLoadProfiler::Entry::l1MissRate() const
{
    return execs == 0 ? 0.0
                      : static_cast<double>(l1Misses) /
                            static_cast<double>(execs);
}

double
PerLoadProfiler::Entry::nextBranchMissRate() const
{
    return nextBranchExecs == 0
               ? 0.0
               : static_cast<double>(nextBranchMisses) /
                     static_cast<double>(nextBranchExecs);
}

PerLoadProfiler::PerLoadProfiler(const ir::Program &prog)
    : prog_(prog), caches_(mem::CacheHierarchy::referenceConfig())
{
}

void
PerLoadProfiler::onInstr(const vm::DynInstr &di)
{
    assert(di.matchesInstr());
    if (ir::isLoad(di.op)) {
        if (di.sid >= per_sid_.size())
            per_sid_.resize(di.sid + 1);
        Counters &c = per_sid_[di.sid];
        c.execs++;
        c.instr = di.instr;
        total_loads_++;
        if (caches_.access(di.addr, false).level != mem::Level::L1)
            c.l1Misses++;
        pending_.push_back(di.sid);
        return;
    }
    if (ir::isStore(di.op)) {
        caches_.access(di.addr, true);
        return;
    }
    if (di.op == ir::Opcode::Br) {
        const bool correct = pred_.predictAndTrain(di.sid, di.taken);
        // Attribute this branch's outcome to every load since the
        // previous branch: this branch is their "following branch".
        for (uint32_t sid : pending_) {
            Counters &c = per_sid_[sid];
            c.branchExecs++;
            if (!correct)
                c.branchMisses++;
        }
        pending_.clear();
    }
}

void
PerLoadProfiler::onBatch(const vm::DynInstr *batch, size_t n)
{
    for (size_t i = 0; i < n; i++)
        PerLoadProfiler::onInstr(batch[i]); // devirtualized tight loop
}

void
PerLoadProfiler::onRunEnd()
{
    pending_.clear();
}

PerLoadProfiler::Entry
PerLoadProfiler::makeEntry(uint32_t sid, const Counters &c) const
{
    Entry e;
    e.sid = sid;
    e.execs = c.execs;
    e.l1Misses = c.l1Misses;
    e.nextBranchExecs = c.branchExecs;
    e.nextBranchMisses = c.branchMisses;
    e.frequency = total_loads_ == 0
        ? 0.0
        : static_cast<double>(c.execs) / static_cast<double>(total_loads_);
    if (c.instr) {
        e.line = c.instr->line;
        if (c.instr->mem.region >= 0 &&
            c.instr->mem.region <
                static_cast<int32_t>(prog_.numRegions())) {
            e.region = prog_.region(c.instr->mem.region).name;
        }
        // Locate the enclosing function by static id.
        for (size_t f = 0; f < prog_.numFunctions(); f++) {
            const ir::Function &fn = prog_.function(f);
            for (const auto &bb : fn.blocks) {
                for (const auto &in : bb.instrs) {
                    if (in.sid == sid) {
                        e.function = fn.name;
                        e.file = fn.sourceFile;
                        return e;
                    }
                }
            }
        }
    }
    return e;
}

std::vector<PerLoadProfiler::Entry>
PerLoadProfiler::topLoads(size_t n) const
{
    std::vector<uint32_t> sids;
    for (uint32_t sid = 0; sid < per_sid_.size(); sid++)
        if (per_sid_[sid].execs > 0)
            sids.push_back(sid);
    std::sort(sids.begin(), sids.end(), [&](uint32_t a, uint32_t b) {
        return per_sid_[a].execs > per_sid_[b].execs;
    });
    if (sids.size() > n)
        sids.resize(n);
    std::vector<Entry> out;
    out.reserve(sids.size());
    for (uint32_t sid : sids)
        out.push_back(makeEntry(sid, per_sid_[sid]));
    return out;
}

PerLoadProfiler::Entry
PerLoadProfiler::entry(uint32_t sid) const
{
    if (sid >= per_sid_.size())
        return Entry{};
    return makeEntry(sid, per_sid_[sid]);
}

} // namespace bioperf::profile
