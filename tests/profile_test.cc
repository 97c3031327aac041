#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/simulator.h"
#include "ir/builder.h"
#include "profile/cache_profiler.h"
#include "profile/execution_counts.h"
#include "profile/instruction_mix.h"
#include "profile/load_branch.h"
#include "profile/load_coverage.h"
#include "util/rng.h"
#include "vm/interpreter.h"

namespace bioperf::profile {
namespace {

using ir::ArrayRef;
using ir::FunctionBuilder;
using ir::Value;

TEST(InstructionMix, CountsByClass)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 4);
    ArrayRef farr = b.fpArray("farr", 4);
    const Value v = b.ld(arr, int64_t(0));   // 1 load
    b.st(arr, int64_t(1), v);                // 1 store
    const ir::FValue fv = b.fld(farr, int64_t(0)); // 1 fp load
    b.fst(farr, 1, fv + fv);                 // 1 fadd + 1 fp store
    auto r = b.var();
    b.ifThen(v > 0, [&] { b.assign(r, int64_t(1)); }); // 1 branch
    ir::Function &fn = b.finish();

    ExecutionCounts counts;
    vm::Interpreter interp(prog);
    interp.addSink(&counts);
    const uint64_t n = interp.run(fn);

    const MixSummary s = counts.mix();
    EXPECT_EQ(s.total, n);
    EXPECT_EQ(s.loads, 2u);
    EXPECT_EQ(s.fpLoads, 1u);
    EXPECT_EQ(s.stores, 2u);
    EXPECT_EQ(s.condBranches, 1u);
    EXPECT_EQ(s.fpInstrs, 3u); // fld + fadd + fst
    EXPECT_EQ(s.loads + s.stores + s.condBranches + s.other, s.total);
    EXPECT_NEAR(s.loadFraction, 2.0 / static_cast<double>(n), 1e-12);
}

TEST(LoadCoverage, KnownDistribution)
{
    // Two static loads: one executed 90 times, one 10 times.
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 4);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(89), [&] {
        b.assign(acc, Value(acc) + b.ld(arr, int64_t(0)));
    });
    b.forLoop(i, b.constI(0), b.constI(9), [&] {
        b.assign(acc, Value(acc) + b.ld(arr, int64_t(1)));
    });
    ArrayRef o = b.longArray("out", 1);
    b.st(o, 0, acc);
    ir::Function &fn = b.finish();

    ExecutionCounts counts;
    vm::Interpreter interp(prog);
    interp.addSink(&counts);
    interp.run(fn);

    const CoverageSummary s = counts.coverage();
    EXPECT_EQ(s.dynamicLoads, 100u);
    EXPECT_EQ(s.staticLoads, 2u);
    // Coverage at N past the last static load is the curve's end.
    EXPECT_DOUBLE_EQ(s.coverageAt80, 1.0);
    EXPECT_EQ(s.loadsFor90, 1u);
    const auto &cdf = s.cdf;
    ASSERT_EQ(cdf.size(), 2u);
    EXPECT_DOUBLE_EQ(cdf[0], 0.9);
    EXPECT_DOUBLE_EQ(cdf[1], 1.0);
    // 95% needs both static loads.
    EXPECT_LT(cdf[0], 0.95);
    EXPECT_GE(cdf[1], 0.95);
}

TEST(LoadCoverage, CdfIsMonotone)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 64);
    util::Rng rng(3);
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    for (int i = 0; i < 40; i++) {
        auto j = b.var();
        const int reps = static_cast<int>(rng.nextRange(1, 5));
        b.forLoop(j, b.constI(1), b.constI(reps), [&] {
            b.assign(acc, Value(acc) +
                              b.ld(arr, static_cast<int64_t>(i)));
        });
    }
    ir::Function &fn = b.finish();
    ExecutionCounts counts;
    vm::Interpreter interp(prog);
    interp.addSink(&counts);
    interp.run(fn);
    const auto cdf = counts.coverage().cdf;
    for (size_t i = 1; i < cdf.size(); i++)
        EXPECT_GE(cdf[i], cdf[i - 1]);
    EXPECT_NEAR(cdf.back(), 1.0, 1e-12);
}

TEST(LoadCoverage, CdfClippedAtKCdfPointsKeepsTopNCoverage)
{
    // More static loads than the curve holds: static load i executes
    // i + 1 times, so the hottest n cover the n largest of 1..kStatic.
    constexpr uint32_t kStatic = CoverageSummary::kCdfPoints + 50;
    std::vector<ir::Instr> loads(kStatic);
    ExecutionCounts counts;
    for (uint32_t sid = 0; sid < kStatic; sid++) {
        loads[sid].op = ir::Opcode::Load;
        loads[sid].sid = sid;
        vm::DynInstr di;
        di.instr = &loads[sid];
        di.op = ir::Opcode::Load;
        di.sid = sid;
        for (uint32_t k = 0; k <= sid; k++)
            counts.onInstr(di);
    }

    const CoverageSummary s = counts.coverage();
    const uint64_t total = uint64_t(kStatic) * (kStatic + 1) / 2;
    EXPECT_EQ(s.dynamicLoads, total);
    EXPECT_EQ(s.staticLoads, kStatic);
    ASSERT_EQ(s.cdf.size(), CoverageSummary::kCdfPoints);
    uint64_t cum = 0;
    size_t for90 = 0;
    const auto target90 =
        static_cast<uint64_t>(0.9 * static_cast<double>(total));
    for (uint32_t n = 1; n <= kStatic; n++) {
        cum += kStatic + 1 - n;
        if (for90 == 0 && cum >= target90)
            for90 = n;
        if (n <= CoverageSummary::kCdfPoints) {
            EXPECT_DOUBLE_EQ(s.cdf[n - 1],
                             static_cast<double>(cum) /
                                 static_cast<double>(total))
                << n;
        }
    }
    EXPECT_EQ(s.loadsFor90, for90);
    EXPECT_DOUBLE_EQ(s.coverageAt80, s.cdf[79]);
    // The clipped curve stops short of full coverage.
    EXPECT_LT(s.cdf.back(), 1.0);
}

/** The event of hand-made static instruction @a in. */
vm::DynInstr
eventOf(const ir::Instr &in)
{
    vm::DynInstr di;
    di.instr = &in;
    di.op = in.op;
    di.sid = in.sid;
    return di;
}

TEST(ExecutionCounts, CountsEachSidAndRecordsItsOpcode)
{
    using ir::Opcode;
    std::vector<ir::Instr> instrs(14);
    const std::pair<uint32_t, Opcode> defs[] = {
        { 0, Opcode::Add },   { 2, Opcode::FAdd },  { 3, Opcode::Store },
        { 4, Opcode::Load },  { 5, Opcode::FStore }, { 7, Opcode::FLoad },
        { 9, Opcode::Load },  { 12, Opcode::Br },   { 13, Opcode::Prefetch },
    };
    for (const auto &[sid, op] : defs) {
        instrs[sid].sid = sid;
        instrs[sid].op = op;
    }
    // Sids first appear out of order (9 before 3 before 0) in a batch;
    // 12 and 13 grow the table late, and 5, 4 and 2 fill holes in it.
    std::vector<vm::DynInstr> batch;
    for (uint32_t sid : { 9, 3, 0, 7, 9, 0, 9 })
        batch.push_back(eventOf(instrs[sid]));
    ExecutionCounts counts;
    counts.onBatch(batch.data(), batch.size());
    for (uint32_t sid : { 12, 5, 4, 13, 2, 12, 4 })
        counts.onInstr(eventOf(instrs[sid]));

    const std::vector<uint64_t> want = { 2, 0, 1, 1, 2, 1, 0,
                                         1, 0, 3, 0, 0, 2, 1 };
    EXPECT_EQ(counts.bySid(), want);
    for (const auto &[sid, op] : defs)
        EXPECT_EQ(counts.opBySid()[sid], op) << sid;
    const std::vector<uint64_t> loads = { 0, 0, 0, 0, 2, 0, 0,
                                          1, 0, 3, 0, 0, 0, 0 };
    EXPECT_EQ(counts.loadExecsBySid(), loads);

    const MixSummary m = counts.mix();
    EXPECT_EQ(m.total, 14u);
    EXPECT_EQ(m.loads, 6u);
    EXPECT_EQ(m.fpLoads, 1u);
    EXPECT_EQ(m.stores, 2u);
    EXPECT_EQ(m.condBranches, 2u);
    EXPECT_EQ(m.other, 4u); // two Add, one FAdd, one Prefetch
    EXPECT_EQ(m.fpInstrs, 3u); // FAdd, FLoad, FStore
    EXPECT_EQ(m.loadFraction, 6.0 / 14.0);
    EXPECT_EQ(m.storeFraction, 2.0 / 14.0);
    EXPECT_EQ(m.branchFraction, 2.0 / 14.0);
    EXPECT_EQ(m.otherFraction, 4.0 / 14.0);
    EXPECT_EQ(m.fpFraction, 3.0 / 14.0);
    EXPECT_EQ(m.fpLoadFraction, 1.0 / 14.0);

    // Static loads executed 3, 2 and 1 times.
    const CoverageSummary c = counts.coverage();
    EXPECT_EQ(c.dynamicLoads, 6u);
    EXPECT_EQ(c.staticLoads, 3u);
    EXPECT_EQ(c.loadsFor90, 2u); // 5 of 6 reaches floor(0.9 * 6)
    EXPECT_EQ(c.cdf, (std::vector<double>{ 3.0 / 6.0, 5.0 / 6.0, 1.0 }));
    EXPECT_EQ(c.coverageAt80, 1.0);
}

TEST(ExecutionCounts, CoverageClippedWithLoadsSeenOutOfOrder)
{
    // kLoads static loads on the odd sids, the hottest on the lowest:
    // load k (0-based) has sid 2k + 1 and runs kLoads - k times. The
    // even sids are Adds, each hotter than any load. The highest sid
    // comes first, then the loads downwards, then the Adds.
    constexpr uint32_t kLoads = CoverageSummary::kCdfPoints + 30;
    constexpr uint64_t kAddExecs = 500;
    std::vector<ir::Instr> instrs(2 * kLoads);
    for (uint32_t sid = 0; sid < instrs.size(); sid++) {
        instrs[sid].sid = sid;
        instrs[sid].op = sid % 2 ? ir::Opcode::Load : ir::Opcode::Add;
    }
    ExecutionCounts counts;
    std::vector<vm::DynInstr> batch;
    for (uint32_t k = kLoads; k-- > 0;)
        for (uint32_t n = 0; n < kLoads - k; n++)
            batch.push_back(eventOf(instrs[2 * k + 1]));
    for (uint32_t sid = 0; sid < instrs.size(); sid += 2)
        for (uint64_t n = 0; n < kAddExecs; n++)
            batch.push_back(eventOf(instrs[sid]));
    counts.onBatch(batch.data(), batch.size());

    const uint64_t total = uint64_t(kLoads) * (kLoads + 1) / 2;
    ASSERT_EQ(counts.bySid().size(), instrs.size());
    for (uint32_t sid = 0; sid < instrs.size(); sid++) {
        const uint64_t want = sid % 2 ? kLoads - sid / 2 : kAddExecs;
        EXPECT_EQ(counts.bySid()[sid], want) << sid;
        EXPECT_EQ(counts.loadExecsBySid()[sid], sid % 2 ? want : 0) << sid;
    }
    const MixSummary m = counts.mix();
    EXPECT_EQ(m.loads, total);
    EXPECT_EQ(m.other, kLoads * kAddExecs);
    EXPECT_EQ(m.total, total + kLoads * kAddExecs);

    const CoverageSummary s = counts.coverage();
    EXPECT_EQ(s.dynamicLoads, total);
    EXPECT_EQ(s.staticLoads, kLoads);
    ASSERT_EQ(s.cdf.size(), CoverageSummary::kCdfPoints);
    const auto target90 =
        static_cast<uint64_t>(0.9 * static_cast<double>(total));
    uint64_t cum = 0;
    size_t for90 = 0;
    for (uint32_t n = 1; n <= kLoads; n++) {
        cum += kLoads + 1 - n;
        if (for90 == 0 && cum >= target90)
            for90 = n;
        if (n <= CoverageSummary::kCdfPoints) {
            EXPECT_EQ(s.cdf[n - 1], static_cast<double>(cum) /
                                        static_cast<double>(total))
                << n;
        }
    }
    EXPECT_EQ(s.loadsFor90, for90);
    EXPECT_EQ(s.coverageAt80, s.cdf[79]);
}

TEST(ExecutionCounts, CharacterizeMatchesTheBenchmarkViews)
{
    // perfbench's traced fingerprint comes from the two views, each
    // its own sink; characterize() reads one count.
    for (const char *name : { "hmmsearch", "promlk", "gcc-like" }) {
        SCOPED_TRACE(name);
        const apps::AppInfo *app = apps::findApp(name);
        apps::AppRun run =
            app->make(apps::Variant::Baseline, apps::Scale::Small, 5);
        const core::CharacterizationResult res =
            core::Simulator::characterize(core::Source(run));
        ASSERT_TRUE(res.status.ok());

        apps::AppRun again =
            app->make(apps::Variant::Baseline, apps::Scale::Small, 5);
        InstructionMixProfiler mix;
        LoadCoverageProfiler coverage;
        vm::Interpreter interp(*again.prog);
        interp.addSink(&mix);
        interp.addSink(&coverage);
        again.driver(interp);
        EXPECT_EQ(res.mix.report().dump(), mix.summary().report().dump());
        EXPECT_EQ(res.coverage.report().dump(),
                  coverage.summary().report().dump());
    }
}

TEST(CacheProfiler, PerLoadAccounting)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 1024);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    // Two passes over 4 KB: first pass compulsory misses, second hits.
    for (int pass = 0; pass < 2; pass++) {
        b.forLoop(i, b.constI(0), b.constI(1023), [&] {
            b.assign(acc, Value(acc) + b.ld(arr, Value(i)));
        });
    }
    ArrayRef o = b.longArray("out", 1);
    b.st(o, 0, acc);
    ir::Function &fn = b.finish();

    CacheProfiler prof;
    vm::Interpreter interp(prog);
    interp.addSink(&prof);
    interp.run(fn);

    const CacheSummary s = prof.summary();
    EXPECT_EQ(s.loads, 2048u);
    // 4 KB / 64 B = 64 blocks of compulsory misses.
    EXPECT_EQ(s.loadL1Misses, 64u);
    EXPECT_EQ(s.loadL2Misses, 64u); // cold L2 as well
    EXPECT_NEAR(s.l1LocalMissRate, 64.0 / 2048.0, 1e-12);
    EXPECT_NEAR(s.l2LocalMissRate, 1.0, 1e-12);
    EXPECT_NEAR(s.amat, 3.0 + (64.0 / 2048.0) * (5.0 + 1.0 * 72.0),
                1e-9);
}

TEST(CacheProfiler, AmatFollowsFormulaWithPartialL2Hits)
{
    // Random loads over 1 MB: most miss the 64 KB L1, and the 4 MB L2
    // holds the footprint, so only first touches go to memory.
    ir::Instr load;
    load.op = ir::Opcode::Load;
    CacheProfiler prof;
    util::Rng rng(2);
    for (int i = 0; i < 50000; i++) {
        vm::DynInstr di;
        di.instr = &load;
        di.op = load.op;
        di.sid = load.sid;
        di.addr = rng.nextBelow(1 << 20);
        prof.onInstr(di);
    }

    const CacheSummary s = prof.summary();
    EXPECT_EQ(s.loads, 50000u);
    EXPECT_GT(s.l2LocalMissRate, 0.0);
    EXPECT_LT(s.l2LocalMissRate, 1.0);
    const double amat_direct =
        3.0 + s.l1LocalMissRate * (5.0 + s.l2LocalMissRate * 72.0);
    EXPECT_NEAR(s.amat, amat_direct, 1e-12);
    EXPECT_GE(s.amat, 3.0);
}

TEST(CacheProfiler, OverallMissRateBounded)
{
    // Stores share the hierarchy but are not counted as loads.
    ir::Instr load;
    load.op = ir::Opcode::Load;
    ir::Instr store;
    store.op = ir::Opcode::Store;
    CacheProfiler prof;
    util::Rng rng(3);
    uint64_t loads = 0;
    for (int i = 0; i < 2000; i++) {
        vm::DynInstr di;
        const bool is_store = rng.nextBool(0.2);
        di.instr = is_store ? &store : &load;
        di.op = di.instr->op;
        di.sid = di.instr->sid;
        di.addr = rng.nextBelow(1 << 20);
        loads += is_store ? 0 : 1;
        prof.onInstr(di);
    }

    const CacheSummary s = prof.summary();
    EXPECT_EQ(s.loads, loads);
    EXPECT_GE(s.overallMissRate, 0.0);
    EXPECT_LE(s.overallMissRate, 1.0);
    EXPECT_LE(s.overallMissRate, s.l1LocalMissRate + 1e-12);
    EXPECT_NEAR(s.overallMissRate,
                s.l1LocalMissRate * s.l2LocalMissRate, 1e-12);
}

/**
 * A hand-built instruction stream fed straight to a profiler, for
 * tests that need exact instruction distances. Every instruction gets
 * a sid no other stream uses (kHardSid aside); registers are integer.
 */
class HandStream
{
  public:
    void
    load(uint32_t dst)
    {
        ir::Instr &in = push(ir::Opcode::Load);
        in.dst = dst;
    }
    void
    add(uint32_t dst, uint32_t a, uint32_t b)
    {
        ir::Instr &in = push(ir::Opcode::Add);
        in.dst = dst;
        in.src[0] = a;
        in.src[1] = b;
    }
    /** An instruction that reads no register and writes kFillerReg. */
    void
    filler(uint32_t n = 1)
    {
        for (uint32_t k = 0; k < n; k++)
            push(ir::Opcode::MovImm).dst = kFillerReg;
    }
    void
    branch(uint32_t cond, bool taken = true)
    {
        push(ir::Opcode::Br).src[0] = cond;
        taken_.back() = taken;
    }
    /**
     * 64 executions of branch kHardSid with random outcomes on an
     * untainted condition: by the last one it has proven hard to
     * predict (the tests assert so through predictor()).
     */
    void
    hardBranch()
    {
        util::Rng rng(21);
        for (int k = 0; k < 64; k++) {
            branch(kFillerReg, rng.nextBool());
            instrs_.back().sid = kHardSid;
        }
    }
    void
    feed(LoadBranchProfiler &prof) const
    {
        std::vector<vm::DynInstr> batch(instrs_.size());
        for (size_t k = 0; k < instrs_.size(); k++) {
            batch[k].instr = &instrs_[k];
            batch[k].op = instrs_[k].op;
            batch[k].sid = instrs_[k].sid;
            batch[k].taken = taken_[k];
        }
        prof.onBatch(batch.data(), batch.size());
    }

    static constexpr uint32_t kFillerReg = 100;
    static constexpr uint32_t kHardSid = 0;

  private:
    ir::Instr &
    push(ir::Opcode op)
    {
        instrs_.emplace_back();
        taken_.push_back(false);
        instrs_.back().op = op;
        static uint32_t next_sid = kHardSid + 1;
        instrs_.back().sid = next_sid++;
        return instrs_.back();
    }

    std::deque<ir::Instr> instrs_; ///< stable addresses
    std::vector<bool> taken_;
};

TEST(LoadBranch, OriginCapKeepsFirstFourInMergeOrder)
{
    // Five loads merge into r13; the cap keeps the first four in
    // merge order, so the branch on r13 counts exactly four loads and
    // the dropped one is still unfed for a later branch.
    for (const bool load5_first : { false, true }) {
        HandStream s;
        for (uint32_t r = 1; r <= 5; r++)
            s.load(r);
        s.add(10, 1, 2);
        s.add(11, 3, 4);
        s.add(12, 10, 11); // {1, 2, 3, 4}
        if (load5_first)
            s.add(13, 5, 12); // {5, 1, 2, 3}
        else
            s.add(13, 12, 5); // {1, 2, 3, 4}; 5 dropped
        s.branch(13);
        LoadBranchProfiler prof;
        s.feed(prof);
        EXPECT_EQ(prof.summary().dynamicLoads, 5u);
        EXPECT_EQ(prof.summary().loadToBranchFraction, 4.0 / 5.0);

        // The one load the cap dropped now feeds a branch of its own.
        HandStream dropped;
        dropped.branch(load5_first ? 4 : 5);
        dropped.feed(prof);
        EXPECT_EQ(prof.summary().loadToBranchFraction, 1.0)
            << "load5_first=" << load5_first;
    }

    // An origin both sources carry takes one place under the cap.
    HandStream s;
    for (uint32_t r = 1; r <= 4; r++)
        s.load(r);
    s.add(10, 1, 2);
    s.add(11, 10, 2);  // {1, 2}
    s.add(12, 3, 4);   // {3, 4}
    s.add(13, 11, 12); // {1, 2, 3, 4}
    s.branch(13);
    LoadBranchProfiler prof;
    s.feed(prof);
    EXPECT_EQ(prof.summary().loadToBranchFraction, 1.0);
}

TEST(LoadBranch, FedFlagResetWhenSlotReused)
{
    // Loads 64 instructions apart share a fed-flag index; the second
    // must count although the first already fed a branch, and each
    // counts once however many branches it reaches.
    HandStream s;
    s.load(1); // gseq 1
    s.branch(1);
    s.filler(62);
    s.load(2); // gseq 65
    s.branch(2);
    s.branch(2);
    LoadBranchProfiler prof;
    s.feed(prof);
    const LoadBranchSummary sum = prof.summary();
    EXPECT_EQ(sum.dynamicLoads, 2u);
    EXPECT_EQ(sum.loadToBranchFraction, 1.0);
}

TEST(LoadBranch, TightConsumerAtWindowEdge)
{
    // A load right after a hard branch whose first consumer is
    // kTightWindow = 2 instructions later counts; 3 later does not.
    // A second consumer inside the window does not count it again.
    for (uint32_t distance = 1; distance <= 3; distance++) {
        HandStream s;
        s.hardBranch();
        s.load(1);
        s.filler(distance - 1);
        s.add(2, 1, 3);
        s.add(4, 1, 3);
        LoadBranchProfiler prof;
        s.feed(prof);
        ASSERT_GE(prof.predictor().executions(HandStream::kHardSid),
                  LoadBranchProfiler::kMinBranchExecs);
        ASSERT_GE(prof.predictor().missRate(HandStream::kHardSid),
                  LoadBranchProfiler::kHardThreshold);
        EXPECT_EQ(prof.summary().loadAfterHardBranchFraction,
                  distance <= LoadBranchProfiler::kTightWindow ? 1.0
                                                               : 0.0)
            << "distance " << distance;
    }
}

TEST(LoadBranch, TightCandidateCrossesBranch)
{
    // A candidate pushed right before a branch that does not read it
    // stays live across the branch: its consumer two instructions
    // after the load still counts.
    HandStream s;
    s.hardBranch();
    s.load(1);
    s.branch(HandStream::kFillerReg);
    s.add(2, 1, 3);
    LoadBranchProfiler prof;
    s.feed(prof);
    EXPECT_EQ(prof.summary().loadAfterHardBranchFraction, 1.0);
}

TEST(LoadBranch, DirectLoadToBranchDetected)
{
    // Every iteration: load -> compare -> branch. 100% of loads are
    // in load-to-branch sequences.
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 64);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(499), [&] {
        const Value v = b.ld(arr, Value(i) & 63);
        b.ifThen(v > 0, [&] { b.assign(acc, Value(acc) + 1); });
    });
    ir::Function &fn = b.finish();

    LoadBranchProfiler prof;
    vm::Interpreter interp(prog);
    vm::ArrayView<int32_t> view(interp.memory(),
                                prog.region(arr.region));
    util::Rng rng(5);
    for (uint64_t k = 0; k < 64; k++)
        view.set(k, rng.nextBool() ? 1 : -1);
    interp.addSink(&prof);
    interp.run(fn);

    const LoadBranchSummary s = prof.summary();
    EXPECT_EQ(s.dynamicLoads, 500u);
    EXPECT_GT(s.loadToBranchFraction, 0.95);
    // Random data: the terminating branches are hard to predict in
    // the paper's sense (>= 5% misprediction; Table 4a reports
    // 5.9% - 19.9% on real predictors over periodic data).
    EXPECT_GT(s.ltbBranchMissRate, 0.05);
}

TEST(LoadBranch, ChainThroughAluOps)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 64);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(299), [&] {
        const Value v = b.ld(arr, Value(i) & 63);
        const Value w = (v + 3) * 2 - 1; // chain through ALU ops
        b.ifThen(w > 5, [&] { b.assign(acc, Value(acc) + 1); });
    });
    ir::Function &fn = b.finish();
    LoadBranchProfiler prof;
    vm::Interpreter interp(prog);
    interp.addSink(&prof);
    interp.run(fn);
    EXPECT_GT(prof.summary().loadToBranchFraction, 0.95);
}

TEST(LoadBranch, LoadNotFeedingBranchNotCounted)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 64);
    ArrayRef o = b.longArray("out", 1);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(299), [&] {
        // The load feeds only arithmetic/stores, never a condition.
        const Value v = b.ld(arr, Value(i) & 63);
        b.assign(acc, Value(acc) + v);
    });
    b.st(o, 0, acc);
    ir::Function &fn = b.finish();
    LoadBranchProfiler prof;
    vm::Interpreter interp(prog);
    interp.addSink(&prof);
    interp.run(fn);
    // The loop-exit compare uses i, not the loaded value.
    EXPECT_LT(prof.summary().loadToBranchFraction, 0.05);
}

TEST(LoadBranch, WindowBoundsChainLength)
{
    // A load whose value reaches a branch only after > window
    // instructions must not be counted.
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 8);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(99), [&] {
        auto v = b.var();
        b.assign(v, b.ld(arr, Value(i) & 7));
        // More filler instructions than the chain window.
        for (uint32_t k = 0; k < LoadBranchProfiler::kChainWindow + 8;
             k++)
            b.assign(v, Value(v) + 1);
        b.ifThen(Value(v) > 10,
                 [&] { b.assign(acc, Value(acc) + 1); });
    });
    ir::Function &fn = b.finish();
    LoadBranchProfiler prof;
    vm::Interpreter interp(prog);
    interp.addSink(&prof);
    interp.run(fn);
    EXPECT_LT(prof.summary().loadToBranchFraction, 0.05);
}

TEST(LoadBranch, TightLoadAfterHardBranch)
{
    // A hard-to-predict branch immediately followed by a load whose
    // first consumer is adjacent: the Table 4(b) pattern.
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 256);
    ArrayRef data = b.intArray("data", 256);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(1999), [&] {
        const Value v = b.ld(arr, Value(i) & 255);
        b.ifThen(v > 0, [&] {
            const Value w = b.ld(data, Value(i) & 255);
            b.assign(acc, Value(acc) + w); // consumer right after
        });
    });
    ir::Function &fn = b.finish();
    LoadBranchProfiler prof;
    vm::Interpreter interp(prog);
    vm::ArrayView<int32_t> view(interp.memory(),
                                prog.region(arr.region));
    util::Rng rng(8);
    for (uint64_t k = 0; k < 256; k++)
        view.set(k, rng.nextBool() ? 1 : -1);
    interp.addSink(&prof);
    interp.run(fn);
    EXPECT_GT(prof.summary().loadAfterHardBranchFraction, 0.1);
}

TEST(LoadBranch, RunEndFlushesState)
{
    LoadBranchProfiler prof;
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 8);
    auto r = b.var();
    b.assign(r, b.ld(arr, int64_t(0)));
    ir::Function &fn = b.finish();
    vm::Interpreter interp(prog);
    interp.addSink(&prof);
    interp.run(fn);
    const double frac1 = prof.summary().loadToBranchFraction;
    interp.run(fn); // chains must not leak across runs
    EXPECT_DOUBLE_EQ(prof.summary().loadToBranchFraction, frac1);

    // A tight candidate pending at run end must not find its consumer
    // in the next run.
    HandStream s;
    s.hardBranch();
    s.load(1);
    for (const bool end_run : { false, true }) {
        LoadBranchProfiler p;
        s.feed(p);
        if (end_run)
            p.onRunEnd();
        HandStream next;
        next.add(2, 1, 3);
        next.feed(p);
        EXPECT_EQ(p.summary().loadAfterHardBranchFraction,
                  end_run ? 0.0 : 1.0);
    }
}

/**
 * Forwards a stream to @a inner up to its first @a cut events, then
 * acts at the cut: ends the inner sink's run (kRunEnd), reports a gap
 * (kGap), or forwards nothing more (kStop).
 */
class CutSink : public vm::TraceSink
{
  public:
    enum Mode { kRunEnd, kGap, kStop };

    CutSink(vm::TraceSink &inner, uint64_t cut, Mode mode)
        : inner_(inner), cut_(cut), mode_(mode)
    {
    }

    void onInstr(const vm::DynInstr &di) override { onBatch(&di, 1); }

    void
    onBatch(const vm::DynInstr *batch, size_t n) override
    {
        const size_t head =
            seen_ < cut_ ? static_cast<size_t>(std::min<uint64_t>(
                               n, cut_ - seen_))
                         : 0;
        if (head > 0) {
            inner_.onBatch(batch, head);
            seen_ += head;
            last_op_ = batch[head - 1].op;
            if (seen_ == cut_ && mode_ == kRunEnd)
                inner_.onRunEnd();
            else if (seen_ == cut_ && mode_ == kGap)
                inner_.onGap();
        }
        if (head < n && mode_ != kStop)
            inner_.onBatch(batch + head, n - head);
        seen_ += n - head;
    }

    void
    onRunEnd() override
    {
        if (seen_ < cut_ || mode_ != kStop)
            inner_.onRunEnd();
    }

    /** The opcode of the last event before the cut. */
    ir::Opcode lastOpBeforeCut() const { return last_op_; }

  private:
    vm::TraceSink &inner_;
    uint64_t cut_;
    Mode mode_;
    uint64_t seen_ = 0;
    ir::Opcode last_op_ = ir::Opcode::Halt;
};

/** What a profiler reported after a cut stream. */
struct CutResult
{
    LoadBranchSummary summary;
    std::vector<LoadBranchProfiler::NextBranch> next;
    ir::Opcode lastOp;
};

/** hmmsearch Small, seed 1, cut after @a cut events. */
CutResult
runCut(uint64_t cut, CutSink::Mode mode)
{
    apps::AppRun run = apps::findApp("hmmsearch")->make(
        apps::Variant::Baseline, apps::Scale::Small, 1);
    LoadBranchProfiler prof;
    CutSink sink(prof, cut, mode);
    vm::Interpreter interp(*run.prog);
    interp.addSink(&sink);
    run.driver(interp);
    return { prof.summary(), prof.nextBranchBySid(),
             sink.lastOpBeforeCut() };
}

/** FNV-1a over the (sid, execs, misses) of a table's nonzero rows. */
uint64_t
digestOf(const std::vector<LoadBranchProfiler::NextBranch> &next)
{
    uint64_t h = 1469598103934665603ull;
    for (uint64_t sid = 0; sid < next.size(); sid++) {
        if (next[sid].execs == 0)
            continue;
        for (const uint64_t v : { sid, next[sid].execs, next[sid].misses }) {
            h ^= v;
            h *= 1099511628211ull;
        }
    }
    return h;
}

/** Two cut points in hmmsearch Small (seed 1), well after warm-up. */
constexpr uint64_t kCutInsideSegment = 360372; ///< 5 of a 9-event segment
constexpr uint64_t kCutAtBoundary = 360362;    ///< right after a branch

TEST(LoadBranch, GapEndsTheProfilersRun)
{
    // A load->branch chain cut by a gap is not counted, and the load
    // is not charged with a branch the trace lost sight of.
    for (const bool gap : { false, true }) {
        HandStream before;
        before.load(1);
        HandStream after;
        after.branch(1);
        LoadBranchProfiler prof;
        before.feed(prof);
        if (gap)
            prof.onGap();
        else
            prof.onRunEnd();
        after.feed(prof);
        EXPECT_EQ(prof.summary().dynamicLoads, 1u);
        EXPECT_EQ(prof.summary().loadToBranchFraction, 0.0)
            << "gap=" << gap;
        for (const auto &nb : prof.nextBranchBySid())
            EXPECT_EQ(nb.execs, 0u) << "gap=" << gap;
    }

    // On a real stream, a gap is a run end at the same point.
    for (const uint64_t cut : { kCutInsideSegment, kCutAtBoundary }) {
        SCOPED_TRACE("cut " + std::to_string(cut));
        const CutResult run_end = runCut(cut, CutSink::kRunEnd);
        const CutResult gap = runCut(cut, CutSink::kGap);
        EXPECT_EQ(gap.summary.dynamicLoads, run_end.summary.dynamicLoads);
        EXPECT_EQ(gap.summary.loadToBranchFraction,
                  run_end.summary.loadToBranchFraction);
        EXPECT_EQ(gap.summary.ltbBranchMissRate,
                  run_end.summary.ltbBranchMissRate);
        EXPECT_EQ(gap.summary.loadAfterHardBranchFraction,
                  run_end.summary.loadAfterHardBranchFraction);
        ASSERT_EQ(gap.next.size(), run_end.next.size());
        for (size_t sid = 0; sid < gap.next.size(); sid++) {
            EXPECT_EQ(gap.next[sid].execs, run_end.next[sid].execs);
            EXPECT_EQ(gap.next[sid].misses, run_end.next[sid].misses);
        }
    }
}

TEST(LoadBranch, StreamStoppedMidSegmentMatchesRecorded)
{
    // hmmsearch Small, seed 1, stopped after `cut` events: the
    // summary and the next-branch table (sums and digestOf()) recorded
    // with %.17g from the profiler before it memoized segments.
    struct Recorded
    {
        uint64_t cut;
        bool atBranch; ///< the last event delivered is a branch
        uint64_t dynamicLoads;
        double loadToBranch;
        double ltbMissRate;
        double afterHard;
        uint64_t nextExecs;
        uint64_t nextMisses;
        uint64_t nextDigest;
    };
    const Recorded recorded[] = {
        { kCutInsideSegment, false, 92907u, 0.88539076711119724,
          0.091708801981219695, 0.26249905819798292, 92903u, 11182u,
          5867097865874033675ull },
        { kCutAtBoundary, true, 92904u, 0.88540859381727377,
          0.091711167866264223, 0.26247524326186172, 92902u, 11182u,
          4001621326787090120ull },
    };
    for (const Recorded &r : recorded) {
        SCOPED_TRACE("cut " + std::to_string(r.cut));
        apps::AppRun run = apps::findApp("hmmsearch")->make(
            apps::Variant::Baseline, apps::Scale::Small, 1);
        LoadBranchProfiler prof;
        CutSink sink(prof, r.cut, CutSink::kStop);
        vm::Interpreter interp(*run.prog);
        interp.addSink(&sink);
        run.driver(interp);
        EXPECT_EQ(sink.lastOpBeforeCut() == ir::Opcode::Br, r.atBranch);

        for (const bool ended : { false, true }) {
            // Ending the run must not change what the stream counted.
            if (ended)
                prof.onRunEnd();
            const LoadBranchSummary s = prof.summary();
            EXPECT_EQ(s.dynamicLoads, r.dynamicLoads);
            EXPECT_EQ(s.loadToBranchFraction, r.loadToBranch);
            EXPECT_EQ(s.ltbBranchMissRate, r.ltbMissRate);
            EXPECT_EQ(s.loadAfterHardBranchFraction, r.afterHard);
            const auto &next = prof.nextBranchBySid();
            uint64_t execs = 0;
            uint64_t misses = 0;
            for (const auto &nb : next) {
                execs += nb.execs;
                misses += nb.misses;
            }
            EXPECT_EQ(execs, r.nextExecs);
            EXPECT_EQ(misses, r.nextMisses);
            EXPECT_EQ(digestOf(next), r.nextDigest);
        }
    }
}

TEST(LoadBranch, SummaryBitIdenticalToRecordedGolden)
{
    // Every Table 4 number of every registered app at Small, seed 1,
    // recorded with %.17g before the profiler's fixed-array rewrite,
    // and the digestOf() of its next-branch table, recorded before the
    // profiler moved onto vm::SegmentMemo: any change in what it
    // counts fails here, not only a change large enough to cross a
    // threshold. The two Large rows are programs whose memo switches
    // off (gcc-like) or keeps missing (crafty-like).
    struct Golden
    {
        const char *app;
        apps::Variant variant;
        uint64_t dynamicLoads;
        double loadToBranch;
        double ltbMissRate;
        double afterHard;
        uint64_t nextDigest;
        apps::Scale scale = apps::Scale::Small;
    };
    constexpr apps::Variant kBase = apps::Variant::Baseline;
    constexpr apps::Variant kXform = apps::Variant::Transformed;
    const Golden golden[] = {
        { "blast", kBase, 4482u,
          0.34136546184738958, 0.1288156288156288, 0.85095939312806779,
          8481554794175816584ull },
        { "blast", kXform, 4482u,
          0.34136546184738958, 0.1288156288156288, 0.85095939312806779,
          8481554794175816584ull },
        { "clustalw", kBase, 61564u,
          0.39776492755506465, 0.17869977131656323, 0.39727762978363979,
          225107589625874545ull },
        { "clustalw", kXform, 49320u, 0, 0, 0,
          7956495347072473916ull },
        { "dnapenny", kBase, 8466u,
          0.94117647058823528, 0.15261044176706828, 0,
          5776369007520303289ull },
        { "dnapenny", kXform, 8466u,
          0.94117647058823528, 0.14382530120481929, 0,
          2222034230947751326ull },
        { "fasta", kBase, 2974u,
          0.56254203093476796, 0.07830245068738792, 0.43712172158708812,
          7073940211039959957ull },
        { "fasta", kXform, 2974u,
          0.56254203093476796, 0.07830245068738792, 0.43712172158708812,
          7073940211039959957ull },
        { "hmmcalibrate", kBase, 171324u,
          0.88428941654409188, 0.096302521008403363, 0.24992412038009854,
          3464689305124697238ull },
        { "hmmcalibrate", kXform, 171324u, 0, 0, 0,
          4080386629116564083ull },
        { "hmmpfam", kBase, 120587u,
          0.86825279673596656, 0.12940222897669706, 0.33566636536276712,
          694709408012014557ull },
        { "hmmpfam", kXform, 120587u,
          0.28941759891198887, 0.13617021276595745, 0.11875243600056391,
          3391048094470616866ull },
        { "hmmsearch", kBase, 185755u,
          0.88500982476918522, 0.093119917387375753, 0.24580226642620656,
          535965834804917702ull },
        { "hmmsearch", kXform, 185755u, 0, 0, 0,
          14655606658277223597ull },
        { "predator", kBase, 12276u,
          0.85361681329423267, 0.11852275980532494, 0.84929944607363961,
          2255349155896586778ull },
        { "predator", kXform, 12537u,
          0.78966259870782485, 0.095382439122966553, 0.73239211932679271,
          16473145466161223551ull },
        { "promlk", kBase, 15616u, 0, 0, 0.0057633196721311479,
          4681097409103004751ull },
        { "promlk", kXform, 15616u, 0, 0, 0.0057633196721311479,
          4681097409103004751ull },
        { "crafty-like", kBase, 27500u,
          0.090909090909090912, 0.33932822004760643, 0.17392727272727274,
          1487053203286821984ull },
        { "crafty-like", kXform, 27500u,
          0.090909090909090912, 0.33932822004760643, 0.17392727272727274,
          1487053203286821984ull },
        { "vortex-like", kBase, 27500u,
          0.090909090909090912, 0.44570783786129675, 0.17414545454545455,
          2883719716090186411ull },
        { "vortex-like", kXform, 27500u,
          0.090909090909090912, 0.44570783786129675, 0.17414545454545455,
          2883719716090186411ull },
        { "gcc-like", kBase, 27500u,
          0.090909090909090912, 0.48847014283255896, 0.1744,
          325665570242010864ull },
        { "gcc-like", kXform, 27500u,
          0.090909090909090912, 0.48847014283255896, 0.1744,
          325665570242010864ull },
        { "megamerger-like", kBase, 47981u,
          0.99960400992059362, 0.43259246903798843, 0,
          3101442413717833645ull },
        { "megamerger-like", kXform, 47981u,
          0.99960400992059362, 0.43259246903798843, 0,
          3101442413717833645ull },
        { "gcc-like", kBase, 1210000u, 0.090909090909090912,
          0.49152352532685034, 0.1803495867768595,
          16906410226033859703ull, apps::Scale::Large },
        { "crafty-like", kBase, 1210000u, 0.090909090909090912,
          0.29192557008704911, 0.18035123966942149,
          14020061598490355604ull, apps::Scale::Large },
    };
    for (const Golden &g : golden) {
        SCOPED_TRACE(std::string(g.app) + " " +
                     apps::toString(g.variant) + " " +
                     apps::toString(g.scale));
        const apps::AppInfo *app = apps::findApp(g.app);
        ASSERT_NE(app, nullptr);
        apps::AppRun run = app->make(g.variant, g.scale, 1);
        const core::CharacterizationResult res =
            core::Simulator::characterize(run);
        const LoadBranchSummary &s = res.loadBranch;
        EXPECT_EQ(s.dynamicLoads, g.dynamicLoads);
        // EXPECT_EQ compares doubles with ==, bit for bit.
        EXPECT_EQ(s.loadToBranchFraction, g.loadToBranch);
        EXPECT_EQ(s.ltbBranchMissRate, g.ltbMissRate);
        EXPECT_EQ(s.loadAfterHardBranchFraction, g.afterHard);
        // The per-load table carries nextBranchBySid() of every
        // executed load, and only a load has next-branch counts.
        std::vector<LoadBranchProfiler::NextBranch> next;
        for (const core::LoadProfile &e : res.loads) {
            next.resize(std::max<size_t>(next.size(), e.sid + 1));
            next[e.sid] = { e.nextBranchExecs, e.nextBranchMisses };
        }
        EXPECT_EQ(digestOf(next), g.nextDigest);
    }
}

TEST(LoadBranch, MemoReplaysBioPerfAndSwitchesOffOnGccLike)
{
    // Every BioPerf app at Small replays most of its events from the
    // memo. gcc-like at Large (8K registers, states that never repeat)
    // fails the memo's probation and steps nearly everything.
    auto replayed_share = [](const char *name, apps::Scale scale) {
        apps::AppRun run = apps::findApp(name)->make(
            apps::Variant::Baseline, scale, 1);
        LoadBranchProfiler prof;
        vm::Interpreter interp(*run.prog);
        interp.addSink(&prof);
        run.driver(interp);
        return static_cast<double>(prof.replayedInstructions()) /
               static_cast<double>(interp.totalInstrs());
    };
    for (const apps::AppInfo &app : apps::bioperfApps())
        EXPECT_GT(replayed_share(app.name.c_str(), apps::Scale::Small), 0.5)
            << app.name;
    EXPECT_LT(replayed_share("gcc-like", apps::Scale::Large), 0.01);
}

/** Hands the stream on in batches of @a n events; a run end flushes. */
class ReframeSink : public vm::TraceSink
{
  public:
    ReframeSink(vm::TraceSink &inner, size_t n) : inner_(inner), n_(n) {}

    void
    onInstr(const vm::DynInstr &di) override
    {
        buf_.push_back(di);
        if (buf_.size() == n_)
            flush();
    }

    void
    onRunEnd() override
    {
        flush();
        inner_.onRunEnd();
    }

  private:
    void
    flush()
    {
        if (!buf_.empty())
            inner_.onBatch(buf_.data(), buf_.size());
        buf_.clear();
    }

    vm::TraceSink &inner_;
    const size_t n_;
    std::vector<vm::DynInstr> buf_;
};

/**
 * The memo's oracle: a profiler fed one event at a time and read after
 * each, which steps every segment longer than one event.
 */
struct SteppingOracle : vm::TraceSink
{
    void
    onInstr(const vm::DynInstr &di) override
    {
        prof.onInstr(di);
        prof.summary();
    }
    void onRunEnd() override { prof.onRunEnd(); }

    LoadBranchProfiler prof;
};

void
expectSameCounts(LoadBranchProfiler &memo, LoadBranchProfiler &oracle)
{
    const LoadBranchSummary a = memo.summary();
    const LoadBranchSummary b = oracle.summary();
    EXPECT_EQ(a.dynamicLoads, b.dynamicLoads);
    // EXPECT_EQ compares doubles with ==, bit for bit.
    EXPECT_EQ(a.loadToBranchFraction, b.loadToBranchFraction);
    EXPECT_EQ(a.ltbBranchMissRate, b.ltbBranchMissRate);
    EXPECT_EQ(a.loadAfterHardBranchFraction, b.loadAfterHardBranchFraction);
    const auto next_a = memo.nextBranchBySid();
    const auto next_b = oracle.nextBranchBySid();
    ASSERT_EQ(next_a.size(), next_b.size());
    for (size_t sid = 0; sid < next_a.size(); sid++) {
        EXPECT_EQ(next_a[sid].execs, next_b[sid].execs) << "sid " << sid;
        EXPECT_EQ(next_a[sid].misses, next_b[sid].misses) << "sid " << sid;
    }
}

TEST(LoadBranchMemo, ReplayEqualsSteppingOnEveryApp)
{
    constexpr size_t kFramings[] = { 1, 7, 255, 256, 257, 512 };
    std::vector<apps::AppInfo> all = apps::bioperfApps();
    const size_t num_bioperf = all.size();
    for (const apps::AppInfo &a : apps::specLikeApps())
        all.push_back(a);
    for (const apps::AppInfo &a : apps::memoryBoundApps())
        all.push_back(a);
    for (size_t k = 0; k < all.size(); k++) {
        const apps::AppInfo &app = all[k];
        SCOPED_TRACE(app.name);
        apps::AppRun run =
            app.make(apps::Variant::Baseline, apps::Scale::Small, 1);
        vm::Interpreter interp(*run.prog);
        SteppingOracle oracle;
        interp.addSink(&oracle);
        std::vector<std::unique_ptr<LoadBranchProfiler>> memos;
        std::vector<std::unique_ptr<ReframeSink>> framers;
        for (const size_t n : kFramings) {
            memos.push_back(std::make_unique<LoadBranchProfiler>());
            framers.push_back(std::make_unique<ReframeSink>(*memos.back(), n));
            interp.addSink(framers.back().get());
        }
        run.driver(interp);
        for (size_t f = 0; f < memos.size(); f++) {
            SCOPED_TRACE("batches of " + std::to_string(kFramings[f]));
            expectSameCounts(*memos[f], oracle.prof);
            if (k < num_bioperf) {
                EXPECT_GT(memos[f]->replayedInstructions(),
                          interp.totalInstrs() / 2);
            }
        }
    }
}

/**
 * Wraps a hand-built program in an AppRun whose driver runs @a fn
 * @a runs times, after @a setup has filled memory.
 */
apps::AppRun
wrapRun(std::unique_ptr<ir::Program> prog, const ir::Function &fn,
        std::function<void(vm::Interpreter &)> setup = nullptr,
        int runs = 1)
{
    apps::AppRun run;
    run.name = "hand-built";
    run.prog = std::move(prog);
    run.driver = [&fn, setup, runs](vm::Interpreter &interp) {
        if (setup)
            setup(interp);
        for (int k = 0; k < runs; k++)
            interp.run(fn);
    };
    run.verify = [] { return true; };
    return run;
}

/** The table row of the load that reads region @a name. */
const core::LoadProfile *
rowOf(const std::vector<core::LoadProfile> &loads, const std::string &name)
{
    for (const core::LoadProfile &e : loads)
        if (e.region == name)
            return &e;
    return nullptr;
}

TEST(LoadTable, FrequencyAndBranchAttribution)
{
    auto prog = std::make_unique<ir::Program>();
    FunctionBuilder b(*prog, "f", "kernel.c");
    ArrayRef arr = b.intArray("arr", 64);
    ArrayRef rare = b.intArray("rare", 64);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(499), [&] {
        b.line(10);
        const Value v = b.ld(arr, Value(i) & 63);
        b.ifThen(v > 0, [&] { b.assign(acc, Value(acc) + 1); });
    });
    b.line(20);
    const Value r = b.ld(rare, int64_t(0));
    ArrayRef o = b.longArray("out", 1);
    b.st(o, 0, Value(acc) + r);
    ir::Function &fn = b.finish();

    const ir::Region &arr_region = prog->region(arr.region);
    apps::AppRun run =
        wrapRun(std::move(prog), fn, [&](vm::Interpreter &interp) {
            vm::ArrayView<int32_t> view(interp.memory(), arr_region);
            util::Rng rng(4);
            for (uint64_t k = 0; k < 64; k++)
                view.set(k, rng.nextBool() ? 1 : -1);
        });
    const auto loads = core::Simulator::characterize(run).loads;

    ASSERT_GE(loads.size(), 2u);
    // The hot load dominates; its profile carries the source tag and
    // the hard following branch.
    EXPECT_EQ(loads[0].execs, 500u);
    EXPECT_GT(loads[0].frequency, 0.9);
    EXPECT_EQ(loads[0].line, 10);
    EXPECT_EQ(loads[0].function, "f");
    EXPECT_EQ(loads[0].file, "kernel.c");
    EXPECT_EQ(loads[0].region, "arr");
    EXPECT_GT(loads[0].nextBranchMissRate(), 0.05);
    // The rare load executed once.
    const core::LoadProfile *r_row = rowOf(loads, "rare");
    ASSERT_NE(r_row, nullptr);
    EXPECT_EQ(r_row->execs, 1u);
    EXPECT_EQ(r_row->line, 20);
}

TEST(LoadTable, L1MissRatePerLoad)
{
    auto prog = std::make_unique<ir::Program>();
    FunctionBuilder b(*prog, "f");
    // Streaming load: touches a new block every 16 iterations.
    ArrayRef big = b.intArray("big", 1 << 16);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(9999), [&] {
        b.assign(acc, Value(acc) + b.ld(big, Value(i)));
    });
    ArrayRef o = b.longArray("out", 1);
    b.st(o, 0, acc);
    ir::Function &fn = b.finish();
    apps::AppRun run = wrapRun(std::move(prog), fn);
    const auto loads = core::Simulator::characterize(run).loads;
    ASSERT_EQ(loads.size(), 1u);
    // One compulsory miss per 64-byte block = 1/16 of accesses.
    EXPECT_NEAR(loads[0].l1MissRate(), 1.0 / 16.0, 0.01);
}

TEST(LoadTable, LastSegmentLoadIsNotChargedToTheNextRun)
{
    // head -> branch -> tail -> halt, run twice: the tail load has no
    // next branch in its own run, and the next run's first branch is
    // not its.
    auto prog = std::make_unique<ir::Program>();
    FunctionBuilder b(*prog, "f");
    ArrayRef head = b.intArray("head", 1);
    ArrayRef tail = b.intArray("tail", 1);
    ArrayRef o = b.longArray("out", 1);
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    const Value h = b.ld(head, int64_t(0));
    b.ifThen(h > 0, [&] { b.assign(acc, int64_t(1)); });
    b.st(o, 0, Value(acc) + b.ld(tail, int64_t(0)));
    ir::Function &fn = b.finish();

    apps::AppRun run = wrapRun(std::move(prog), fn, nullptr, 2);
    const auto loads = core::Simulator::characterize(run).loads;
    const core::LoadProfile *head_row = rowOf(loads, "head");
    const core::LoadProfile *tail_row = rowOf(loads, "tail");
    ASSERT_NE(head_row, nullptr);
    ASSERT_NE(tail_row, nullptr);
    EXPECT_EQ(head_row->execs, 2u);
    EXPECT_EQ(head_row->nextBranchExecs, 2u);
    EXPECT_EQ(tail_row->execs, 2u);
    EXPECT_EQ(tail_row->nextBranchExecs, 0u);
    EXPECT_EQ(tail_row->nextBranchMissRate(), 0.0);
}

} // namespace
} // namespace bioperf::profile
