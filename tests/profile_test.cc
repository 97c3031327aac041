#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ir/builder.h"
#include "profile/cache_profiler.h"
#include "profile/instruction_mix.h"
#include "profile/load_branch.h"
#include "profile/load_coverage.h"
#include "profile/per_load.h"
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

    InstructionMixProfiler mix;
    vm::Interpreter interp(prog);
    interp.addSink(&mix);
    const uint64_t n = interp.run(fn);

    const MixSummary s = mix.summary();
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

    LoadCoverageProfiler cov;
    vm::Interpreter interp(prog);
    interp.addSink(&cov);
    interp.run(fn);

    const CoverageSummary s = cov.summary();
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
    LoadCoverageProfiler cov;
    vm::Interpreter interp(prog);
    interp.addSink(&cov);
    interp.run(fn);
    const auto cdf = cov.summary().cdf;
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
    LoadCoverageProfiler cov;
    for (uint32_t sid = 0; sid < kStatic; sid++) {
        loads[sid].op = ir::Opcode::Load;
        loads[sid].sid = sid;
        vm::DynInstr di;
        di.instr = &loads[sid];
        for (uint32_t k = 0; k <= sid; k++)
            cov.onInstr(di);
    }

    const CoverageSummary s = cov.summary();
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
}

TEST(PerLoad, FrequencyAndBranchAttribution)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f", "kernel.c");
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

    PerLoadProfiler prof(prog);
    vm::Interpreter interp(prog);
    vm::ArrayView<int32_t> view(interp.memory(),
                                prog.region(arr.region));
    util::Rng rng(4);
    for (uint64_t k = 0; k < 64; k++)
        view.set(k, rng.nextBool() ? 1 : -1);
    interp.addSink(&prof);
    interp.run(fn);

    const auto top = prof.topLoads(5);
    ASSERT_GE(top.size(), 2u);
    // The hot load dominates; its profile carries the source tag and
    // the hard following branch.
    EXPECT_EQ(top[0].execs, 500u);
    EXPECT_GT(top[0].frequency, 0.9);
    EXPECT_EQ(top[0].line, 10);
    EXPECT_EQ(top[0].function, "f");
    EXPECT_EQ(top[0].file, "kernel.c");
    EXPECT_EQ(top[0].region, "arr");
    EXPECT_GT(top[0].nextBranchMissRate(), 0.05);
    // The rare load executed once.
    bool found_rare = false;
    for (const auto &e : top) {
        if (e.region == "rare") {
            EXPECT_EQ(e.execs, 1u);
            EXPECT_EQ(e.line, 20);
            found_rare = true;
        }
    }
    EXPECT_TRUE(found_rare);
}

TEST(PerLoad, L1MissRatePerLoad)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
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
    PerLoadProfiler prof(prog);
    vm::Interpreter interp(prog);
    interp.addSink(&prof);
    interp.run(fn);
    const auto top = prof.topLoads(1);
    ASSERT_EQ(top.size(), 1u);
    // One compulsory miss per 64-byte block = 1/16 of accesses.
    EXPECT_NEAR(top[0].l1MissRate(), 1.0 / 16.0, 0.01);
}

} // namespace
} // namespace bioperf::profile
