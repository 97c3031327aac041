#include <gtest/gtest.h>

#include "apps/app.h"
#include "branch/predictors.h"
#include "cpu/inorder_core.h"
#include "core/simulator.h"
#include "cpu/load_accel.h"
#include "cpu/ooo_core.h"
#include "ir/builder.h"
#include "ir/verify.h"
#include "mem/hierarchy.h"
#include "profile/load_branch.h"
#include "profile/cache_profiler.h"
#include "profile/load_coverage.h"
#include "util/rng.h"
#include "vm/interpreter.h"

namespace bioperf {
namespace {

using ir::ArrayRef;
using ir::FunctionBuilder;
using ir::Value;

// --- builder corner cases ---------------------------------------------------

TEST(BuilderEdge, AssignFoldOnlyRetargetsFreshRegisters)
{
    // assign() may fold into the defining instruction only when the
    // value was freshly produced; reusing an older value must emit a
    // real copy, not corrupt the source.
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    auto a = b.var();
    auto c = b.var();
    const Value t = x * 2; // older value
    b.assign(a, t);
    b.assign(c, t); // t must still be x*2, not clobbered by a
    ArrayRef o = b.longArray("out", 1);
    b.st(o, 0, Value(a) * 1000 + Value(c));
    ir::Function &fn = b.finish();
    vm::Interpreter interp(prog);
    interp.run(fn, { 3 });
    vm::ArrayView<int64_t> view(interp.memory(), prog.region(o.region));
    EXPECT_EQ(view.get(0), 6 * 1000 + 6);
}

TEST(BuilderEdge, NestedLoopsAndBreak)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    auto i = b.var();
    auto j = b.var();
    auto count = b.var();
    b.assign(count, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(9), [&] {
        b.whileLoop([&] { return Value(j) < 100; }, [&] {
            b.assign(count, Value(count) + 1);
            // breakLoop exits the *inner* loop only.
            b.ifThen(Value(count) % b.constI(3) == 0,
                     [&] { b.breakLoop(); });
            b.assign(j, Value(j) + 1);
        });
        b.assign(j, int64_t(0));
    });
    ir::Function &fn = b.finish();
    EXPECT_EQ(ir::verify(prog), "");
    vm::Interpreter interp(prog);
    interp.run(fn);
    EXPECT_EQ(interp.intReg(count.reg), 30); // 3 per outer iteration
}

TEST(BuilderEdge, EmptyBodyLoop)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    auto i = b.var();
    b.forLoop(i, b.constI(0), b.constI(99), [] {});
    ir::Function &fn = b.finish();
    vm::Interpreter interp(prog);
    interp.run(fn);
    EXPECT_EQ(interp.intReg(i.reg), 100);
}

TEST(BuilderEdge, ShiftAmountsAreMasked)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    auto r = b.var();
    b.assign(r, (x << 65) + (x >> 64)); // 65 & 63 = 1, 64 & 63 = 0
    ir::Function &fn = b.finish();
    vm::Interpreter interp(prog);
    interp.run(fn, { 8 });
    EXPECT_EQ(interp.intReg(r.reg), 16 + 8);
}

TEST(BuilderEdge, NegativeForLoopStep)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    auto i = b.var();
    auto sum = b.var();
    b.assign(sum, int64_t(0));
    b.forLoop(i, b.constI(5), b.constI(1), [&] {
        b.assign(sum, Value(sum) + Value(i));
    }, -1);
    ir::Function &fn = b.finish();
    vm::Interpreter interp(prog);
    interp.run(fn);
    EXPECT_EQ(interp.intReg(sum.reg), 5 + 4 + 3 + 2 + 1);
}

// --- hierarchy write-back path ----------------------------------------------

TEST(HierarchyEdge, DirtyL1VictimLandsInL2)
{
    // Write a block, evict it from L1 via a conflict, then re-read:
    // it must come from L2 (the write-back installed it there).
    mem::CacheConfig l1;
    l1.sizeBytes = 128; // 2 sets, direct mapped
    l1.assoc = 1;
    l1.blockSize = 64;
    mem::CacheConfig l2;
    l2.sizeBytes = 64 * 1024;
    l2.assoc = 4;
    l2.blockSize = 64;
    mem::CacheHierarchy h(l1, l2, mem::LatencyConfig{ 3, 5, 72 });

    h.access(0, true);          // dirty in L1, missed L2 (installed)
    h.access(128, false);       // evicts block 0 (write-back to L2)
    const auto res = h.access(0, false);
    EXPECT_EQ(res.level, mem::Level::L2);
}

// --- timing model corner cases ----------------------------------------------

TEST(CpuEdge, RetireWidthBoundsThroughput)
{
    // Independent single-cycle ops with retire width 1 cannot exceed
    // one instruction per cycle even at issue width 4.
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    std::vector<FunctionBuilder::Var> vars;
    for (int i = 0; i < 8; i++) {
        vars.push_back(b.var());
        b.assign(vars.back(), int64_t(i));
    }
    for (int i = 0; i < 2000; i++)
        b.assign(vars[static_cast<size_t>(i) % 8],
                 Value(vars[static_cast<size_t>(i) % 8]) + 1);
    ir::Function &fn = b.finish();

    mem::CacheHierarchy caches(mem::CacheConfig{}, mem::CacheConfig{},
                               mem::LatencyConfig{ 3, 5, 72 });
    auto pred = branch::makePredictor("hybrid");
    cpu::CoreConfig cfg;
    cfg.fetchWidth = 4;
    cfg.issueWidth = 4;
    cfg.retireWidth = 1;
    cfg.windowSize = 64;
    cpu::OooCore core(cfg, &caches, pred.get());
    vm::Interpreter interp(prog);
    interp.addSink(&core);
    interp.run(fn);
    EXPECT_LE(core.ipc(), 1.01);
}

TEST(CpuEdge, WindowOfOneSerializes)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    std::vector<FunctionBuilder::Var> vars;
    for (int i = 0; i < 4; i++) {
        vars.push_back(b.var());
        b.assign(vars.back(), int64_t(0));
    }
    for (int i = 0; i < 1000; i++)
        b.assign(vars[static_cast<size_t>(i) % 4],
                 Value(vars[static_cast<size_t>(i) % 4]) + 1);
    ir::Function &fn = b.finish();
    mem::CacheHierarchy caches(mem::CacheConfig{}, mem::CacheConfig{},
                               mem::LatencyConfig{ 3, 5, 72 });
    auto pred = branch::makePredictor("hybrid");
    cpu::CoreConfig cfg;
    cfg.windowSize = 1;
    cpu::OooCore core(cfg, &caches, pred.get());
    vm::Interpreter interp(prog);
    interp.addSink(&core);
    interp.run(fn);
    EXPECT_LE(core.ipc(), 1.01);
}

TEST(CpuEdge, InorderNeverFasterThanOooAcrossApps)
{
    for (const char *name : { "hmmsearch", "predator", "fasta" }) {
        apps::AppRun run1 = apps::findApp(name)->make(
            apps::Variant::Baseline, apps::Scale::Small, 4);
        apps::AppRun run2 = apps::findApp(name)->make(
            apps::Variant::Baseline, apps::Scale::Small, 4);

        auto run_core = [](apps::AppRun &run, bool ooo) {
            mem::CacheHierarchy caches(
                mem::CacheConfig{}, mem::CacheConfig{},
                mem::LatencyConfig{ 3, 5, 72 });
            auto pred = branch::makePredictor("hybrid");
            cpu::CoreConfig cfg; // same widths both ways
            vm::Interpreter interp(*run.prog);
            uint64_t cycles = 0;
            if (ooo) {
                cpu::OooCore core(cfg, &caches, pred.get());
                interp.addSink(&core);
                run.driver(interp);
                cycles = core.cycles();
            } else {
                cfg.outOfOrder = false;
                cpu::InorderCore core(cfg, &caches, pred.get());
                interp.addSink(&core);
                run.driver(interp);
                cycles = core.cycles();
            }
            return cycles;
        };
        EXPECT_LE(run_core(run1, true), run_core(run2, false))
            << name;
    }
}

// --- load/branch chain window -----------------------------------------------

class ChainWindowTest : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(ChainWindowTest, ChainsLongerThanTheWindowAreNotCounted)
{
    // The loaded value reaches the branch through GetParam() filler
    // adds, then the compare: the branch sits filler + 2 instructions
    // after the load. Chains within the window must report ~1, longer
    // ones ~0.
    const uint32_t filler = GetParam();
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 16);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(199), [&] {
        auto v = b.var();
        b.assign(v, b.ld(arr, Value(i) & 15));
        for (uint32_t k = 0; k < filler; k++)
            b.assign(v, Value(v) + 1);
        b.ifThen(Value(v) > 5, [&] { b.assign(acc, Value(acc) + 1); });
    });
    ir::Function &fn = b.finish();

    profile::LoadBranchProfiler prof;
    vm::Interpreter interp(prog);
    interp.addSink(&prof);
    interp.run(fn);
    const double frac = prof.summary().loadToBranchFraction;
    if (filler + 2 <= profile::LoadBranchProfiler::kChainWindow)
        EXPECT_GT(frac, 0.9) << filler;
    else
        EXPECT_LT(frac, 0.1) << filler;
}

// Both sides of the 32-instruction window, and its exact edge.
INSTANTIATE_TEST_SUITE_P(Fillers, ChainWindowTest,
                         ::testing::Values(8u, 20u, 30u, 31u, 40u));

// --- application-level properties -------------------------------------------

TEST(AppEdge, TransformedVariantsAgreeAcrossScales)
{
    // Medium-scale equivalence for one seed (Small is covered
    // extensively elsewhere).
    for (const char *name : { "hmmsearch", "dnapenny" }) {
        apps::AppRun run = apps::findApp(name)->make(
            apps::Variant::Transformed, apps::Scale::Medium, 11);
        vm::Interpreter interp(*run.prog);
        run.driver(interp);
        EXPECT_TRUE(run.verify()) << name;
    }
}

TEST(AppEdge, PredatorGuardBranchIsHard)
{
    // The tt guard must mispredict in the Table 4-ish band, which is
    // what gives the transformation its (small) win.
    apps::AppRun run = apps::findApp("predator")->make(
        apps::Variant::Baseline, apps::Scale::Medium, 11);
    profile::LoadBranchProfiler prof;
    vm::Interpreter interp(*run.prog);
    interp.addSink(&prof);
    run.driver(interp);
    EXPECT_GT(prof.predictor().overallMissRate(), 0.03);
    EXPECT_LT(prof.predictor().overallMissRate(), 0.30);
}

TEST(AppEdge, SpecLikeSkewOrderingIsStable)
{
    // Across seeds, the three SPEC-like programs keep their Figure 2
    // ordering (crafty > vortex > gcc at 80 static loads).
    for (uint64_t seed : { 3ull, 1234ull }) {
        auto cov = [&](const char *name) {
            apps::AppRun run = apps::findApp(name)->make(
                apps::Variant::Baseline, apps::Scale::Small, seed);
            profile::LoadCoverageProfiler c;
            vm::Interpreter interp(*run.prog);
            interp.addSink(&c);
            run.driver(interp);
            return c.summary().coverageAt80;
        };
        const double crafty = cov("crafty-like");
        const double vortex = cov("vortex-like");
        const double gcc = cov("gcc-like");
        EXPECT_GT(crafty, vortex) << seed;
        EXPECT_GT(vortex, gcc) << seed;
    }
}

TEST(AppEdge, DriversAreRerunnable)
{
    // Running the same driver twice on one interpreter must verify
    // both times (memory state is reinitialized by the driver).
    apps::AppRun run = apps::findApp("clustalw")->make(
        apps::Variant::Baseline, apps::Scale::Small, 6);
    vm::Interpreter interp(*run.prog);
    run.driver(interp);
    EXPECT_TRUE(run.verify());
    run.driver(interp);
    EXPECT_TRUE(run.verify());
}

TEST(AppEdge, HmmerRescoreSharesKernelShape)
{
    // hmmpfam builds three functions; all must verify structurally.
    apps::AppRun run = apps::findApp("hmmpfam")->make(
        apps::Variant::Transformed, apps::Scale::Small, 6);
    EXPECT_EQ(run.prog->numFunctions(), 3u);
    EXPECT_EQ(ir::verify(*run.prog), "");
}

// --- predictor stress ---------------------------------------------------------

TEST(PredictorEdge, HugeSidSpace)
{
    branch::HybridPredictor p;
    util::Rng rng(1);
    for (int i = 0; i < 20000; i++) {
        const auto sid = static_cast<uint32_t>(rng.nextBelow(100000));
        p.predictAndTrain(sid, rng.nextBool(0.8));
    }
    EXPECT_EQ(p.totalExecutions(), 20000u);
    EXPECT_LT(p.overallMissRate(), 0.5);
}

TEST(PredictorEdge, MissRateOfUnseenBranchIsZero)
{
    branch::BimodalPredictor p;
    EXPECT_EQ(p.missRate(424242), 0.0);
}

} // namespace
} // namespace bioperf

namespace bioperf {
namespace {

TEST(MemoryBoundContrast, MissesUnlikeBioperf)
{
    // Section 2.1's exclusion, demonstrated: the EMBOSS-style
    // streaming merge has a high L1 miss rate and an AMAT far above
    // the 3-cycle hit latency, unlike every BioPerf code.
    apps::AppRun run = apps::findApp("megamerger-like")
                           ->make(apps::Variant::Baseline,
                                  apps::Scale::Small, 5);
    profile::CacheProfiler cache;
    vm::Interpreter interp(*run.prog);
    interp.addSink(&cache);
    run.driver(interp);
    EXPECT_TRUE(run.verify());
    const profile::CacheSummary s = cache.summary();
    EXPECT_GT(s.l1LocalMissRate, 0.02);
    EXPECT_GT(s.amat, 3.5);
    EXPECT_GT(s.overallMissRate, 0.01);
}

TEST(MemoryBoundContrast, StillLoadToBranchHeavy)
{
    // Its loads feed branches too — what distinguishes it from
    // BioPerf is the misses, not the chains.
    apps::AppRun run = apps::findApp("megamerger-like")
                           ->make(apps::Variant::Baseline,
                                  apps::Scale::Small, 5);
    profile::LoadBranchProfiler chains;
    vm::Interpreter interp(*run.prog);
    interp.addSink(&chains);
    run.driver(interp);
    EXPECT_GT(chains.summary().loadToBranchFraction, 0.6);
}

} // namespace
} // namespace bioperf

namespace bioperf {
namespace {

TEST(LoadAccel, ZeroCycleUnitLearnsStrides)
{
    cpu::ZeroCycleLoadUnit zcl;
    // Strided stream: after warm-up every access is predicted.
    for (uint64_t i = 0; i < 100; i++)
        zcl.adjustLatency(7, 0x1000 + i * 4, 0, 3);
    EXPECT_GT(zcl.hitRate(), 0.9);
    // Predicted hits collapse to 1 cycle; deep misses keep latency.
    EXPECT_EQ(zcl.adjustLatency(7, 0x1000 + 100 * 4, 0, 3), 1u);
    EXPECT_EQ(zcl.adjustLatency(7, 0x1000 + 101 * 4, 0, 80), 80u);
}

TEST(LoadAccel, ZeroCycleUnitMissesRandomAddresses)
{
    cpu::ZeroCycleLoadUnit zcl;
    util::Rng rng(3);
    for (int i = 0; i < 500; i++)
        zcl.adjustLatency(1, rng.next() & 0xffff8, 0, 3);
    EXPECT_LT(zcl.hitRate(), 0.05);
}

TEST(LoadAccel, LastValuePredictorConfidenceGate)
{
    cpu::LastValuePredictor lvp(7);
    // First sightings never speculate (confidence must build).
    EXPECT_EQ(lvp.adjustLatency(4, 0, 42, 3), 3u);
    EXPECT_EQ(lvp.adjustLatency(4, 0, 42, 3), 3u);
    EXPECT_EQ(lvp.adjustLatency(4, 0, 42, 3), 3u);
    // Confidence reached: constant value predicts at 1 cycle.
    EXPECT_EQ(lvp.adjustLatency(4, 0, 42, 3), 1u);
    EXPECT_EQ(lvp.adjustLatency(4, 0, 42, 3), 1u);
    // A changed value while confident pays latency + replay.
    EXPECT_EQ(lvp.adjustLatency(4, 0, 99, 3), 10u);
}

TEST(LoadAccel, ZeroCycleSpeedsUpInorderMoreThanOoo)
{
    // The Austin & Sohi observation, as a property of our models.
    auto run = [](bool ooo, bool accel) {
        apps::AppRun r = apps::findApp("hmmsearch")->make(
            apps::Variant::Baseline, apps::Scale::Small, 21);
        mem::CacheHierarchy caches(
            mem::CacheConfig{}, mem::CacheConfig{},
            mem::LatencyConfig{ 3, 5, 72 });
        auto pred = branch::makePredictor("hybrid");
        cpu::ZeroCycleLoadUnit zcl;
        cpu::CoreConfig cfg;
        vm::Interpreter interp(*r.prog);
        uint64_t cycles = 0;
        if (ooo) {
            cpu::OooCore core(cfg, &caches, pred.get());
            if (accel)
                core.setLoadAccelerator(&zcl);
            interp.addSink(&core);
            r.driver(interp);
            cycles = core.cycles();
        } else {
            cfg.outOfOrder = false;
            cpu::InorderCore core(cfg, &caches, pred.get());
            if (accel)
                core.setLoadAccelerator(&zcl);
            interp.addSink(&core);
            r.driver(interp);
            cycles = core.cycles();
        }
        EXPECT_TRUE(r.verify());
        return cycles;
    };
    const double ooo_gain =
        static_cast<double>(run(true, false)) /
        static_cast<double>(run(true, true));
    const double inorder_gain =
        static_cast<double>(run(false, false)) /
        static_cast<double>(run(false, true));
    EXPECT_GT(inorder_gain, ooo_gain);
    EXPECT_GE(ooo_gain, 0.999); // never hurts
}

} // namespace
} // namespace bioperf

#include "ir/loops.h"
#include "opt/prefetch.h"

namespace bioperf {
namespace {

TEST(Loops, DetectsCountedLoopAndInductionVar)
{
    ir::Program prog;
    ir::FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 64);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(63), [&] {
        b.assign(acc, Value(acc) + b.ld(arr, i));
    });
    ir::Function &fn = b.finish();
    ir::Cfg cfg(fn);
    ir::Dominators dom(fn, cfg);
    ir::LoopAnalysis loops(fn, cfg, dom);
    ASSERT_EQ(loops.loops().size(), 1u);
    const auto &loop = loops.loops()[0];
    EXPECT_EQ(loop.header, 1u); // builder layout: for.header
    EXPECT_EQ(loop.latches.size(), 1u);
    EXPECT_TRUE(loop.contains(2)); // for.body

    const auto ivs = loops.inductionVars(loop);
    ASSERT_EQ(ivs.size(), 1u);
    EXPECT_EQ(ivs[0].reg, i.reg);
    EXPECT_EQ(ivs[0].step, 1);
}

TEST(Loops, NestedLoopsFound)
{
    ir::Program prog;
    ir::FunctionBuilder b(prog, "f");
    auto i = b.var();
    auto j = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(4), [&] {
        b.forLoop(j, b.constI(0), b.constI(4), [&] {
            // acc += j is not a basic IV (non-immediate update).
            b.assign(acc, Value(acc) + Value(j));
        }, 2);
    });
    ir::Function &fn = b.finish();
    ir::Cfg cfg(fn);
    ir::Dominators dom(fn, cfg);
    ir::LoopAnalysis loops(fn, cfg, dom);
    ASSERT_EQ(loops.loops().size(), 2u);
    // The outer loop contains the inner loop's header; steps differ.
    int64_t steps = 0;
    for (const auto &loop : loops.loops())
        for (const auto &iv : loops.inductionVars(loop))
            steps += iv.step;
    EXPECT_EQ(steps, 1 + 2);
}

TEST(Prefetch, InsertsForStridedLoadsOnly)
{
    ir::Program prog;
    ir::FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 128);
    ArrayRef table = b.intArray("table", 128);
    auto i = b.var();
    auto acc = b.var();
    b.assign(acc, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(99), [&] {
        const Value v = b.ld(arr, i);          // strided: prefetch
        const Value w = b.ld(table, v & 127);  // data-dependent: no
        b.assign(acc, Value(acc) + w);
    });
    ArrayRef o = b.longArray("out", 1);
    b.st(o, 0, acc);
    ir::Function &fn = b.finish();

    opt::PrefetchInsertionPass pass(8);
    const opt::PassResult res = pass.run(prog, fn);
    EXPECT_EQ(res.transformed, 1u);
    size_t prefetches = 0;
    for (const auto &bb : fn.blocks)
        for (const auto &in : bb.instrs)
            if (in.op == ir::Opcode::Prefetch)
                prefetches++;
    EXPECT_EQ(prefetches, 1u);
    EXPECT_EQ(ir::verify(prog, fn), "");

    // Semantics unchanged.
    vm::Interpreter interp(prog);
    interp.run(fn);
    vm::ArrayView<int64_t> view(interp.memory(), prog.region(o.region));
    EXPECT_EQ(view.get(0), 0); // all-zero memory
}

TEST(Prefetch, HelpsTheMemoryBoundAppOnly)
{
    auto cycles_with = [](const char *name, bool prefetch) {
        apps::AppRun run = apps::findApp(name)->make(
            apps::Variant::Baseline, apps::Scale::Small, 17);
        if (prefetch) {
            opt::PrefetchInsertionPass pass(16);
            for (size_t f = 0; f < run.prog->numFunctions(); f++)
                pass.run(*run.prog, run.prog->function(f));
            run.prog->renumber();
        }
        const auto res =
            core::Simulator::time(run, cpu::alpha21264());
        EXPECT_TRUE(res.verified) << name;
        return res.cycles;
    };
    // Streaming merge: prefetching must clearly help.
    EXPECT_LT(cycles_with("megamerger-like", true),
              cycles_with("megamerger-like", false) * 0.9);
    // L1-resident hmmsearch: within noise either way.
    const uint64_t plain = cycles_with("hmmsearch", false);
    const uint64_t pf = cycles_with("hmmsearch", true);
    EXPECT_LT(static_cast<double>(pf),
              static_cast<double>(plain) * 1.1);
}

} // namespace
} // namespace bioperf
