#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/simulator.h"
#include "cpu/inorder_core.h"
#include "cpu/load_accel.h"
#include "cpu/ooo_core.h"
#include "cpu/platforms.h"
#include "util/rng.h"
#include "ir/builder.h"
#include "vm/interpreter.h"

namespace bioperf::cpu {
namespace {

using ir::ArrayRef;
using ir::FunctionBuilder;
using ir::Value;

struct SimOut
{
    uint64_t cycles = 0;
    uint64_t instrs = 0;
    uint64_t mispredicts = 0;
    double ipc = 0.0;
};

SimOut
simulateOoo(ir::Program &prog, ir::Function &fn,
            const std::vector<int64_t> &params, const CoreConfig &cfg,
            const std::string &predictor = "hybrid",
            mem::LatencyConfig lat = mem::LatencyConfig{ 3, 5, 72 })
{
    mem::CacheHierarchy caches(mem::CacheConfig{}, mem::CacheConfig{},
                               lat);
    auto pred = branch::makePredictor(predictor);
    OooCore core(cfg, &caches, pred.get());
    vm::Interpreter interp(prog);
    interp.addSink(&core);
    interp.run(fn, params);
    return { core.cycles(), core.instructions(),
             core.branchMispredictions(), core.ipc() };
}

SimOut
simulateInorder(ir::Program &prog, ir::Function &fn,
                const std::vector<int64_t> &params,
                const CoreConfig &cfg,
                const std::string &predictor = "hybrid")
{
    mem::CacheHierarchy caches(mem::CacheConfig{}, mem::CacheConfig{},
                               mem::LatencyConfig{ 3, 5, 72 });
    auto pred = branch::makePredictor(predictor);
    InorderCore core(cfg, &caches, pred.get());
    vm::Interpreter interp(prog);
    interp.addSink(&core);
    interp.run(fn, params);
    return { core.cycles(), core.instructions(),
             core.branchMispredictions(), core.ipc() };
}

CoreConfig
wideCore()
{
    CoreConfig cfg;
    cfg.fetchWidth = 4;
    cfg.issueWidth = 4;
    cfg.retireWidth = 4;
    cfg.windowSize = 64;
    cfg.mispredictPenalty = 7;
    return cfg;
}

/** N independent add-immediates on rotating registers. */
void
buildIndependentOps(FunctionBuilder &b, int n)
{
    std::vector<FunctionBuilder::Var> vars;
    for (int i = 0; i < 8; i++) {
        vars.push_back(b.var());
        b.assign(vars.back(), int64_t(i));
    }
    for (int i = 0; i < n; i++) {
        auto &v = vars[static_cast<size_t>(i) % 8];
        b.assign(v, Value(v) + 1);
    }
}

TEST(OooCore, IndependentOpsApproachIssueWidth)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    buildIndependentOps(b, 4000);
    ir::Function &fn = b.finish();
    const SimOut out = simulateOoo(prog, fn, {}, wideCore());
    EXPECT_GT(out.ipc, 3.2);
    EXPECT_LE(out.ipc, 4.01);
}

TEST(OooCore, DependentChainIsLatencyBound)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    auto v = b.var();
    b.assign(v, int64_t(0));
    for (int i = 0; i < 2000; i++)
        b.assign(v, Value(v) + 1);
    ir::Function &fn = b.finish();
    const SimOut out = simulateOoo(prog, fn, {}, wideCore());
    // One new result per cycle regardless of width.
    EXPECT_NEAR(out.ipc, 1.0, 0.1);
}

TEST(OooCore, LoadChainPaysL1HitLatency)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 4);
    auto v = b.var();
    b.assign(v, int64_t(0));
    const int n = 500;
    for (int i = 0; i < n; i++)
        b.assign(v, b.ld(arr, Value(v) & 3)); // address depends on value
    ir::Function &fn = b.finish();
    const SimOut out = simulateOoo(prog, fn, {}, wideCore());
    // Each load costs the 3-cycle hit latency plus the address AND.
    EXPECT_GT(out.cycles, static_cast<uint64_t>(n) * 3);
}

TEST(OooCore, CyclesMonotoneInL1Latency)
{
    uint64_t prev = 0;
    for (uint32_t lat = 1; lat <= 5; lat++) {
        ir::Program prog;
        FunctionBuilder b(prog, "f");
        ArrayRef arr = b.intArray("arr", 8);
        auto v = b.var();
        b.assign(v, int64_t(0));
        for (int i = 0; i < 300; i++)
            b.assign(v, b.ld(arr, Value(v) & 7) + 1);
        ir::Function &fn = b.finish();
        const SimOut out =
            simulateOoo(prog, fn, {}, wideCore(), "hybrid",
                        mem::LatencyConfig{ lat, 5, 72 });
        EXPECT_GT(out.cycles, prev);
        prev = out.cycles;
    }
}

TEST(OooCore, SmallerWindowCannotBeFaster)
{
    auto run = [](uint32_t window) {
        ir::Program prog;
        FunctionBuilder b(prog, "f");
        ArrayRef arr = b.intArray("arr", 64);
        // Independent loads: a big window overlaps them all.
        for (int i = 0; i < 400; i++) {
            auto v = b.var();
            b.assign(v, b.ld(arr, int64_t(i % 64)));
        }
        ir::Function &fn = b.finish();
        CoreConfig cfg = wideCore();
        cfg.windowSize = window;
        return simulateOoo(prog, fn, {}, cfg).cycles;
    };
    EXPECT_GE(run(4), run(64));
}

TEST(OooCore, MispredictionCostsCycles)
{
    auto run = [](bool predictable) {
        ir::Program prog;
        FunctionBuilder b(prog, "f");
        ArrayRef arr = b.intArray("arr", 256);
        vm::Interpreter *interp_for_fill = nullptr;
        (void)interp_for_fill;
        auto i = b.var();
        auto acc = b.var();
        b.assign(acc, int64_t(0));
        b.forLoop(i, b.constI(0), b.constI(2000), [&] {
            const Value v = b.ld(arr, Value(i) & 255);
            b.ifThen(v > 0, [&] {
                b.st(arr, Value(i) & 255, Value(acc));
                b.assign(acc, Value(acc) + 1);
            });
        });
        ir::Function &fn = b.finish();

        // Fill the array: all positive (predictable) or alternating
        // noise (hard).
        vm::Interpreter interp(prog);
        mem::CacheHierarchy caches(
            mem::CacheConfig{}, mem::CacheConfig{},
            mem::LatencyConfig{ 3, 5, 72 });
        auto pred = branch::makePredictor("hybrid");
        CoreConfig cfg;
        cfg.fetchWidth = 4;
        cfg.issueWidth = 4;
        cfg.retireWidth = 4;
        cfg.windowSize = 64;
        cfg.mispredictPenalty = 7;
        OooCore core(cfg, &caches, pred.get());
        vm::ArrayView<int32_t> view(interp.memory(),
                                    prog.region(arr.region));
        util::Rng rng(31);
        for (uint64_t k = 0; k < 256; k++)
            view.set(k, predictable ? 1
                                    : (rng.nextBool() ? 1 : -1));
        interp.addSink(&core);
        interp.run(fn);
        return std::make_pair(core.cycles(),
                              core.branchMispredictions());
    };
    const auto [easy_cycles, easy_miss] = run(true);
    const auto [hard_cycles, hard_miss] = run(false);
    EXPECT_GT(hard_miss, easy_miss + 100);
    EXPECT_GT(hard_cycles, easy_cycles + 1000);
}

TEST(OooCore, PerfectPredictorNeverSlower)
{
    for (uint64_t seed : { 1ull, 2ull, 3ull }) {
        ir::Program prog;
        FunctionBuilder b(prog, "f");
        ArrayRef arr = b.intArray("arr", 128);
        auto i = b.var();
        auto acc = b.var();
        b.assign(acc, int64_t(0));
        b.forLoop(i, b.constI(0), b.constI(500), [&] {
            const Value v = b.ld(arr, Value(i) & 127);
            b.ifThen((v & 1) == 0,
                     [&] { b.assign(acc, Value(acc) + 1); });
        });
        ir::Function &fn = b.finish();

        auto run = [&](const std::string &pred_name) {
            mem::CacheHierarchy caches(
                mem::CacheConfig{}, mem::CacheConfig{},
                mem::LatencyConfig{ 3, 5, 72 });
            auto pred = branch::makePredictor(pred_name);
            OooCore core(wideCore(), &caches, pred.get());
            vm::Interpreter interp(prog);
            vm::ArrayView<int32_t> view(interp.memory(),
                                        prog.region(arr.region));
            util::Rng rng(seed);
            for (uint64_t k = 0; k < 128; k++)
                view.set(k, static_cast<int32_t>(rng.next()));
            interp.addSink(&core);
            interp.run(fn);
            return core.cycles();
        };
        EXPECT_LE(run("perfect"), run("hybrid"));
        EXPECT_LE(run("hybrid"), run("static"));
    }
}

TEST(OooCore, LoadFeedingBranchDelaysResolution)
{
    // The paper's Section 2.2 mechanism in isolation: when a
    // mispredicted branch's condition comes straight from a load,
    // the load's hit latency delays resolution and is added to the
    // misprediction penalty. Raising the L1 hit latency on a
    // load-to-branch kernel must therefore cost roughly
    // (mispredictions x latency delta) extra cycles.
    auto run = [](uint32_t l1_lat) {
        ir::Program prog;
        FunctionBuilder b(prog, "f");
        ArrayRef arr = b.intArray("arr", 256);
        auto i = b.var();
        auto acc = b.var();
        b.assign(acc, int64_t(0));
        b.forLoop(i, b.constI(0), b.constI(3000), [&] {
            const Value cond = b.ld(arr, Value(i) & 255) > 0;
            b.ifThen(cond, [&] { b.assign(acc, Value(acc) + 1); });
        });
        ir::Function &fn = b.finish();

        mem::CacheHierarchy caches(
            mem::CacheConfig{}, mem::CacheConfig{},
            mem::LatencyConfig{ l1_lat, 5, 72 });
        auto pred = branch::makePredictor("static");
        CoreConfig cfg;
        cfg.fetchWidth = 2;
        cfg.issueWidth = 2;
        cfg.retireWidth = 2;
        cfg.windowSize = 64;
        cfg.mispredictPenalty = 7;
        OooCore core(cfg, &caches, pred.get());
        vm::Interpreter interp(prog);
        vm::ArrayView<int32_t> view(interp.memory(),
                                    prog.region(arr.region));
        util::Rng rng(77);
        for (uint64_t k = 0; k < 256; k++)
            view.set(k, rng.nextBool() ? 1 : -1);
        interp.addSink(&core);
        interp.run(fn);
        return std::make_pair(core.cycles(),
                              core.branchMispredictions());
    };
    const auto [cycles1, miss1] = run(1);
    const auto [cycles8, miss8] = run(8);
    EXPECT_EQ(miss1, miss8); // same prediction behaviour
    // Each misprediction's cost grew by ~7 cycles of load latency.
    EXPECT_GT(cycles8, cycles1 + miss1 * 4);
}

TEST(OooCore, SecondsFollowClock)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    buildIndependentOps(b, 1000);
    ir::Function &fn = b.finish();
    CoreConfig cfg = wideCore();
    cfg.clockGhz = 2.0;
    const SimOut out = simulateOoo(prog, fn, {}, cfg);
    mem::CacheHierarchy caches(mem::CacheConfig{}, mem::CacheConfig{},
                               mem::LatencyConfig{ 3, 5, 72 });
    auto pred = branch::makePredictor("hybrid");
    OooCore core(cfg, &caches, pred.get());
    vm::Interpreter interp(prog);
    interp.addSink(&core);
    interp.run(fn);
    EXPECT_NEAR(core.seconds(),
                static_cast<double>(out.cycles) / 2.0e9, 1e-12);
}

TEST(OooCore, TraceLogLeavesTimingUnchanged)
{
    const PlatformConfig alpha = alpha21264();
    auto time = [&](bool logged) {
        apps::AppRun run = apps::findApp("predator")->make(
            apps::Variant::Baseline, apps::Scale::Small, 42);
        mem::CacheHierarchy caches = alpha.makeHierarchy();
        auto pred = alpha.makePredictor();
        OooCore core(alpha.core, &caches, pred.get());
        uint64_t logged_instrs = 0;
        uint64_t last_retire = 0;
        bool retire_monotone = true;
        if (logged)
            core.setTraceLog([&](const vm::DynInstr &,
                                 const PipelineTimes &t) {
                logged_instrs++;
                retire_monotone = retire_monotone && t.retire >= last_retire;
                last_retire = t.retire;
            });
        vm::Interpreter interp(*run.prog);
        interp.addSink(&core);
        run.driver(interp);
        if (logged) {
            EXPECT_EQ(logged_instrs, core.instructions());
            EXPECT_TRUE(retire_monotone);
            EXPECT_EQ(last_retire, core.cycles());
        }
        return SimOut{ core.cycles(), core.instructions(),
                       core.branchMispredictions(), core.ipc() };
    };
    const SimOut plain = time(false);
    const SimOut logged = time(true);
    EXPECT_GT(plain.cycles, 0u);
    EXPECT_EQ(plain.cycles, logged.cycles);
    EXPECT_EQ(plain.mispredicts, logged.mispredicts);
    EXPECT_EQ(plain.instrs, logged.instrs);
}

TEST(InorderCore, StallOnUseSlowerThanOoo)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 64);
    // Loads immediately followed by uses: in-order stalls, OoO
    // overlaps independent pairs.
    for (int i = 0; i < 200; i++) {
        auto v = b.var();
        b.assign(v, b.ld(arr, int64_t(i % 64)) + 1);
    }
    ir::Function &fn = b.finish();
    CoreConfig ooo_cfg = wideCore();
    CoreConfig in_cfg = wideCore();
    in_cfg.outOfOrder = false;
    const SimOut ooo = simulateOoo(prog, fn, {}, ooo_cfg);
    const SimOut inorder = simulateInorder(prog, fn, {}, in_cfg);
    EXPECT_GT(inorder.cycles, ooo.cycles);
}

TEST(InorderCore, WidthImprovesIndependentCode)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    buildIndependentOps(b, 2000);
    ir::Function &fn = b.finish();
    CoreConfig narrow;
    narrow.outOfOrder = false;
    narrow.issueWidth = 1;
    CoreConfig wide;
    wide.outOfOrder = false;
    wide.issueWidth = 6;
    const SimOut n1 = simulateInorder(prog, fn, {}, narrow);
    const SimOut n6 = simulateInorder(prog, fn, {}, wide);
    EXPECT_LT(n6.cycles, n1.cycles);
}

TEST(InorderCore, TakenBranchEndsIssueGroup)
{
    // A tight loop (taken back-edge every iteration) on a 6-wide
    // in-order core cannot reach 6 IPC even with independent work.
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    auto i = b.var();
    std::vector<FunctionBuilder::Var> acc;
    for (int k = 0; k < 4; k++) {
        acc.push_back(b.var());
        b.assign(acc.back(), int64_t(0));
    }
    b.forLoop(i, b.constI(0), b.constI(1000), [&] {
        for (int k = 0; k < 4; k++)
            b.assign(acc[static_cast<size_t>(k)],
                     Value(acc[static_cast<size_t>(k)]) + 1);
    });
    ir::Function &fn = b.finish();
    CoreConfig cfg;
    cfg.outOfOrder = false;
    cfg.issueWidth = 6;
    const SimOut out = simulateInorder(prog, fn, {}, cfg);
    EXPECT_LT(out.ipc, 5.0);
}

TEST(Timing, ResultsBitIdenticalToRecordedGolden)
{
    // Cycles, mispredicts and instructions of every registered app,
    // Baseline and Transformed, at Small, seed 1, on each evaluation
    // platform with the register-pressure rewrite, recorded before
    // the cores split into resolve() and schedule(): a core change
    // that moves one simulated cycle fails here.
    struct Golden
    {
        const char *app;
        apps::Variant variant;
        size_t platform; ///< index into evaluationPlatforms()
        uint64_t cycles;
        uint64_t mispredicts;
        uint64_t instructions;
    };
    constexpr apps::Variant kBase = apps::Variant::Baseline;
    constexpr apps::Variant kXform = apps::Variant::Transformed;
    const Golden golden[] = {
        { "blast", kBase, 0, 15084u, 224u, 28577u },
        { "blast", kBase, 1, 26641u, 224u, 28577u },
        { "blast", kBase, 2, 30678u, 223u, 54431u },
        { "blast", kBase, 3, 38000u, 224u, 28577u },
        { "blast", kXform, 0, 15084u, 224u, 28577u },
        { "blast", kXform, 1, 26641u, 224u, 28577u },
        { "blast", kXform, 2, 30678u, 223u, 54431u },
        { "blast", kXform, 3, 38000u, 224u, 28577u },
        { "clustalw", kBase, 0, 223445u, 4631u, 592638u },
        { "clustalw", kBase, 1, 251940u, 4631u, 592638u },
        { "clustalw", kBase, 2, 632508u, 4621u, 1539634u },
        { "clustalw", kBase, 3, 332182u, 4631u, 592638u },
        { "clustalw", kXform, 0, 183785u, 2419u, 592638u },
        { "clustalw", kXform, 1, 190039u, 2419u, 592638u },
        { "clustalw", kXform, 2, 598708u, 2420u, 1588610u },
        { "clustalw", kXform, 3, 287619u, 2419u, 592638u },
        { "dnapenny", kBase, 0, 28760u, 821u, 60428u },
        { "dnapenny", kBase, 1, 29748u, 821u, 60428u },
        { "dnapenny", kBase, 2, 59796u, 817u, 115635u },
        { "dnapenny", kBase, 3, 44113u, 821u, 60428u },
        { "dnapenny", kXform, 0, 25252u, 709u, 55647u },
        { "dnapenny", kXform, 1, 26321u, 709u, 55647u },
        { "dnapenny", kXform, 2, 57170u, 705u, 114838u },
        { "dnapenny", kXform, 3, 31679u, 709u, 55647u },
        { "fasta", kBase, 0, 9375u, 155u, 20117u },
        { "fasta", kBase, 1, 14432u, 155u, 20117u },
        { "fasta", kBase, 2, 18377u, 155u, 34538u },
        { "fasta", kBase, 3, 25178u, 155u, 20117u },
        { "fasta", kXform, 0, 9375u, 155u, 20117u },
        { "fasta", kXform, 1, 14432u, 155u, 20117u },
        { "fasta", kXform, 2, 18377u, 155u, 34538u },
        { "fasta", kXform, 3, 25178u, 155u, 20117u },
        { "hmmcalibrate", kBase, 0, 284763u, 7510u, 664374u },
        { "hmmcalibrate", kBase, 1, 287378u, 7510u, 664374u },
        { "hmmcalibrate", kBase, 2, 624119u, 7786u, 1224218u },
        { "hmmcalibrate", kBase, 3, 477022u, 7510u, 664374u },
        { "hmmcalibrate", kXform, 0, 192142u, 611u, 726150u },
        { "hmmcalibrate", kXform, 1, 202297u, 611u, 726150u },
        { "hmmcalibrate", kXform, 2, 533093u, 611u, 1518204u },
        { "hmmcalibrate", kXform, 3, 347391u, 611u, 726150u },
        { "hmmpfam", kBase, 0, 240351u, 6963u, 477328u },
        { "hmmpfam", kBase, 1, 246228u, 6963u, 477328u },
        { "hmmpfam", kBase, 2, 497847u, 7096u, 865385u },
        { "hmmpfam", kBase, 3, 369179u, 6963u, 477328u },
        { "hmmpfam", kXform, 0, 182982u, 2741u, 505383u },
        { "hmmpfam", kXform, 1, 193169u, 2741u, 505383u },
        { "hmmpfam", kXform, 2, 428419u, 2703u, 1000080u },
        { "hmmpfam", kXform, 3, 301614u, 2741u, 505383u },
        { "hmmsearch", kBase, 0, 305158u, 7899u, 720723u },
        { "hmmsearch", kBase, 1, 307950u, 7899u, 720723u },
        { "hmmsearch", kBase, 2, 669501u, 8150u, 1328035u },
        { "hmmsearch", kBase, 3, 516433u, 7899u, 720723u },
        { "hmmsearch", kXform, 0, 207708u, 628u, 786970u },
        { "hmmsearch", kXform, 1, 218656u, 628u, 786970u },
        { "hmmsearch", kXform, 2, 576804u, 628u, 1645895u },
        { "hmmsearch", kXform, 3, 376390u, 628u, 786970u },
        { "predator", kBase, 0, 54872u, 1480u, 75402u },
        { "predator", kBase, 1, 66952u, 1480u, 75402u },
        { "predator", kBase, 2, 90557u, 1540u, 112866u },
        { "predator", kBase, 3, 111666u, 1480u, 75402u },
        { "predator", kXform, 0, 52084u, 1363u, 77364u },
        { "predator", kXform, 1, 65272u, 1363u, 77364u },
        { "predator", kXform, 2, 83004u, 1281u, 134862u },
        { "predator", kXform, 3, 109992u, 1363u, 77364u },
        { "promlk", kBase, 0, 22770u, 30u, 71112u },
        { "promlk", kBase, 1, 36114u, 30u, 71112u },
        { "promlk", kBase, 2, 58677u, 30u, 149096u },
        { "promlk", kBase, 3, 51791u, 30u, 71112u },
        { "promlk", kXform, 0, 22770u, 30u, 71112u },
        { "promlk", kXform, 1, 36114u, 30u, 71112u },
        { "promlk", kXform, 2, 58677u, 30u, 149096u },
        { "promlk", kXform, 3, 51791u, 30u, 71112u },
        { "crafty-like", kBase, 0, 188095u, 3850u, 151537u },
        { "crafty-like", kBase, 1, 286785u, 3850u, 151537u },
        { "crafty-like", kBase, 2, 355954u, 3850u, 151537u },
        { "crafty-like", kBase, 3, 281409u, 3850u, 151537u },
        { "crafty-like", kXform, 0, 188095u, 3850u, 151537u },
        { "crafty-like", kXform, 1, 286785u, 3850u, 151537u },
        { "crafty-like", kXform, 2, 355954u, 3850u, 151537u },
        { "crafty-like", kXform, 3, 281409u, 3850u, 151537u },
        { "vortex-like", kBase, 0, 189170u, 5136u, 152071u },
        { "vortex-like", kBase, 1, 290145u, 5136u, 152071u },
        { "vortex-like", kBase, 2, 415265u, 5136u, 152071u },
        { "vortex-like", kBase, 3, 295455u, 5136u, 152071u },
        { "vortex-like", kXform, 0, 189170u, 5136u, 152071u },
        { "vortex-like", kXform, 1, 290145u, 5136u, 152071u },
        { "vortex-like", kXform, 2, 415265u, 5136u, 152071u },
        { "vortex-like", kXform, 3, 295455u, 5136u, 152071u },
        { "gcc-like", kBase, 0, 189610u, 5678u, 152374u },
        { "gcc-like", kBase, 1, 291621u, 5678u, 152374u },
        { "gcc-like", kBase, 2, 435888u, 5678u, 152374u },
        { "gcc-like", kBase, 3, 302811u, 5678u, 152374u },
        { "gcc-like", kXform, 0, 189610u, 5678u, 152374u },
        { "gcc-like", kXform, 1, 291621u, 5678u, 152374u },
        { "gcc-like", kXform, 2, 435888u, 5678u, 152374u },
        { "gcc-like", kXform, 3, 302811u, 5678u, 152374u },
        { "megamerger-like", kBase, 0, 338818u, 10377u, 431884u },
        { "megamerger-like", kBase, 1, 684556u, 10377u, 431884u },
        { "megamerger-like", kBase, 2, 681473u, 10377u, 431884u },
        { "megamerger-like", kBase, 3, 1204716u, 10377u, 431884u },
        { "megamerger-like", kXform, 0, 338818u, 10377u, 431884u },
        { "megamerger-like", kXform, 1, 684556u, 10377u, 431884u },
        { "megamerger-like", kXform, 2, 681473u, 10377u, 431884u },
        { "megamerger-like", kXform, 3, 1204716u, 10377u, 431884u },
    };
    const std::vector<PlatformConfig> platforms = evaluationPlatforms();
    std::vector<core::SweepJob> jobs;
    for (const Golden &g : golden) {
        core::SweepJob job;
        job.app = apps::findApp(g.app);
        ASSERT_NE(job.app, nullptr) << g.app;
        job.platform = platforms.at(g.platform);
        job.variant = g.variant;
        job.scale = apps::Scale::Small;
        job.seed = 1;
        jobs.push_back(job);
    }
    const std::vector<core::TimingResult> results =
        core::Simulator::sweep(jobs, 1);
    ASSERT_EQ(results.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); i++) {
        const Golden &g = golden[i];
        SCOPED_TRACE(std::string(g.app) + " " +
                     apps::toString(g.variant) + " on " +
                     platforms[g.platform].name);
        EXPECT_TRUE(results[i].status.ok());
        EXPECT_EQ(results[i].cycles, g.cycles);
        EXPECT_EQ(results[i].mispredicts, g.mispredicts);
        EXPECT_EQ(results[i].instructions, g.instructions);
    }
}

/** An app's recorded event stream and where each of its runs ended. */
struct Stream
{
    apps::AppRun run; ///< owns the program the events point into
    std::vector<vm::DynInstr> events;
    std::vector<size_t> runEnds; ///< event counts at each onRunEnd()
};

struct StreamCollector : vm::TraceSink
{
    explicit StreamCollector(Stream &s) : s(s) {}
    void onInstr(const vm::DynInstr &di) override { s.events.push_back(di); }
    void onRunEnd() override { s.runEnds.push_back(s.events.size()); }
    Stream &s;
};

Stream
collect(const apps::AppInfo &app)
{
    Stream s;
    s.run = app.make(apps::Variant::Baseline, apps::Scale::Small, 1);
    StreamCollector sink(s);
    vm::Interpreter interp(*s.run.prog);
    interp.addSink(&sink);
    s.run.driver(interp);
    return s;
}

/** A core with its own hierarchy and predictor. */
struct CoreStack
{
    CoreStack(const PlatformConfig &p, const CoreConfig &core)
        : caches(p.makeHierarchy()), predictor(p.makePredictor())
    {
        if (core.outOfOrder)
            this->core = std::make_unique<OooCore>(core, &caches,
                                                   predictor.get());
        else
            this->core = std::make_unique<InorderCore>(core, &caches,
                                                       predictor.get());
    }

    /** Back to a new shard's start, as the sampler resets a worker. */
    void reset()
    {
        caches.reset();
        predictor->reset();
        core->reset();
    }

    mem::CacheHierarchy caches;
    std::unique_ptr<branch::BranchPredictor> predictor;
    std::unique_ptr<TimingCore> core;
};

/**
 * The memo's oracle: the same core stepping every instruction. An
 * out-of-order core steps while it has a trace log; an in-order one
 * has none, so it is fed one event at a time and read after each,
 * which steps every segment longer than one instruction.
 */
struct Oracle : CoreStack
{
    Oracle(const PlatformConfig &p, const CoreConfig &cfg) : CoreStack(p, cfg)
    {
        if (cfg.outOfOrder)
            static_cast<OooCore &>(*core).setTraceLog(
                [](const vm::DynInstr &, const PipelineTimes &) {});
    }

    void feed(const vm::DynInstr *batch, size_t n)
    {
        if (core->config().outOfOrder) {
            core->onBatch(batch, n);
            return;
        }
        for (size_t k = 0; k < n; k++) {
            core->onInstr(batch[k]);
            core->cycles();
        }
    }
};

/**
 * Feeds events [@a from, @a to) of @a s to @a memo and @a oracle in
 * batches of @a n (a batch never spans a run end, where both see
 * onRunEnd()), and checks their counters after every batch.
 */
void
feedBoth(const Stream &s, size_t from, size_t to, size_t n, TimingCore &memo,
         Oracle &oracle)
{
    auto end = std::lower_bound(s.runEnds.begin(), s.runEnds.end(), from);
    for (size_t i = from; i < to;) {
        size_t stop = std::min(i + n, to);
        if (end != s.runEnds.end() && *end < stop)
            stop = *end;
        memo.onBatch(&s.events[i], stop - i);
        oracle.feed(&s.events[i], stop - i);
        if (end != s.runEnds.end() && *end == stop) {
            memo.onRunEnd();
            oracle.core->onRunEnd();
            ++end;
        }
        ASSERT_EQ(memo.cycles(), oracle.core->cycles()) << "event " << stop;
        ASSERT_EQ(memo.instructions(), oracle.core->instructions());
        ASSERT_EQ(memo.branchMispredictions(),
                  oracle.core->branchMispredictions());
        i = stop;
    }
}

/** Batch sizes that straddle the cores' 256-event chunks. */
constexpr size_t kFramings[] = { 1, 7, 255, 256, 257, 512 };

TEST(TimingMemo, ReplayEqualsSteppingOnEveryAppAndPlatform)
{
    // Every app at Small on the four evaluation platforms and on odd
    // cores, each (app, core) pair at one of the framings in turn.
    std::vector<std::pair<PlatformConfig, CoreConfig>> cores;
    for (const PlatformConfig &p : evaluationPlatforms())
        cores.emplace_back(p, p.core);
    const PlatformConfig alpha = alpha21264();
    for (uint32_t window : { 1u, 3u }) {
        CoreConfig c = alpha.core;
        c.windowSize = window;
        cores.emplace_back(alpha, c);
    }
    CoreConfig narrow = alpha.core;
    narrow.issueWidth = 1;
    cores.emplace_back(alpha, narrow);
    CoreConfig retire2 = alpha.core;
    retire2.retireWidth = 2;
    cores.emplace_back(alpha, retire2);
    const PlatformConfig itanium = itanium2();
    CoreConfig single = itanium.core;
    single.issueWidth = 1;
    cores.emplace_back(itanium, single);

    std::vector<apps::AppInfo> all = apps::bioperfApps();
    for (const apps::AppInfo &a : apps::specLikeApps())
        all.push_back(a);
    for (const apps::AppInfo &a : apps::memoryBoundApps())
        all.push_back(a);
    uint64_t instructions = 0;
    uint64_t replayed = 0;
    size_t turn = 0;
    for (const apps::AppInfo &app : all) {
        const Stream s = collect(app);
        for (const auto &[platform, cfg] : cores) {
            const size_t n = kFramings[turn++ % std::size(kFramings)];
            SCOPED_TRACE(app.name + " on " + cfg.name + ", window " +
                         std::to_string(cfg.windowSize) + ", widths " +
                         std::to_string(cfg.issueWidth) + "/" +
                         std::to_string(cfg.retireWidth) + ", batches of " +
                         std::to_string(n));
            CoreStack memo(platform, cfg);
            Oracle oracle(platform, cfg);
            feedBoth(s, 0, s.events.size(), n, *memo.core, oracle);
            if (n > 1) {
                instructions += memo.core->instructions();
                replayed += memo.core->replayedInstructions();
            }
        }
    }
    // The memo is on: most instructions were replayed, not stepped.
    EXPECT_GT(replayed, instructions / 2);
}

TEST(TimingMemo, GapsResetsAndSkippedStretchesEqualStepping)
{
    // The sampler's pattern: shards separated by reset(), a salvage
    // gap inside a shard, and stretches the core never sees (warmed
    // functionally elsewhere), so its stream jumps mid-segment; each
    // jump is announced, as the router does. Every other window is fed
    // without reading the core, so a segment the memo holds open meets
    // the jump.
    const Stream s = collect(*apps::findApp("predator"));
    const size_t total = s.events.size();
    for (const PlatformConfig &p : evaluationPlatforms()) {
        SCOPED_TRACE(p.name);
        CoreStack memo(p, p.core);
        Oracle oracle(p, p.core);
        for (size_t shard = 0; shard < 3; shard++) {
            memo.reset();
            oracle.reset();
            const size_t begin = total * shard / 3;
            const size_t end = total * (shard + 1) / 3;
            const size_t gap = (begin + end) / 2;
            bool read = false;
            for (size_t i = begin; i < end; i += 1000, read = !read) {
                const size_t stop = std::min(i + 700, end);
                if (i > begin)
                    memo.core->onJump();
                if (i <= gap && gap < stop) {
                    feedBoth(s, i, gap, 257, *memo.core, oracle);
                    memo.core->onGap();
                    oracle.core->onGap();
                    feedBoth(s, gap, stop, 257, *memo.core, oracle);
                } else if (read) {
                    feedBoth(s, i, stop, 257, *memo.core, oracle);
                } else {
                    memo.core->onBatch(&s.events[i], stop - i);
                    oracle.feed(&s.events[i], stop - i);
                }
                if (::testing::Test::HasFatalFailure())
                    return;
            }
            EXPECT_EQ(memo.core->cycles(), oracle.core->cycles());
        }
        EXPECT_GT(memo.core->replayedInstructions(), 0u);
    }
}

TEST(TimingMemo, ReplayWithLoadAcceleratorsEqualsStepping)
{
    // A skipped segment's loads reach the accelerator in gather(), a
    // stepped one's in resolve(). The last-value predictor holds state
    // per load, so a call out of order would show in its counts.
    for (const char *name : { "predator", "hmmsearch" }) {
        const Stream s = collect(*apps::findApp(name));
        for (const PlatformConfig &p : evaluationPlatforms())
            for (const bool last_value : { false, true })
                for (const size_t n : { 1u, 255u, 257u }) {
                    SCOPED_TRACE(std::string(name) + " on " + p.name +
                                 (last_value ? ", last-value"
                                             : ", zero-cycle") +
                                 ", batches of " + std::to_string(n));
                    CoreStack memo(p, p.core);
                    Oracle oracle(p, p.core);
                    std::unique_ptr<LoadAccelerator> a, b;
                    if (last_value) {
                        a = std::make_unique<LastValuePredictor>();
                        b = std::make_unique<LastValuePredictor>();
                    } else {
                        a = std::make_unique<ZeroCycleLoadUnit>();
                        b = std::make_unique<ZeroCycleLoadUnit>();
                    }
                    memo.core->setLoadAccelerator(a.get());
                    oracle.core->setLoadAccelerator(b.get());
                    for (size_t i = 0; i < s.events.size(); i += n) {
                        feedBoth(s, i, std::min(i + n, s.events.size()), n,
                                 *memo.core, oracle);
                        if (HasFatalFailure())
                            return;
                        ASSERT_EQ(a->hits(), b->hits()) << "event " << i;
                        ASSERT_EQ(a->misses(), b->misses()) << "event " << i;
                    }
                    EXPECT_GT(a->hits() + a->misses(), 0u);
                    // A read after every event steps each segment.
                    if (n > 1) {
                        EXPECT_GT(memo.core->replayedInstructions(), 0u);
                    }
                }
    }
}

TEST(TimingMemo, MissChainBeyondTheSpanBoundEqualsStepping)
{
    // Dependent loads that all miss to a 300-cycle memory: a window's
    // worth of them puts the last retire thousands of cycles past the
    // fetch frontier, beyond what the memo interns.
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 1 << 14);
    auto i = b.var();
    auto v = b.var();
    b.assign(v, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(3000), [&] {
        b.assign(v, b.ld(arr, (Value(v) * 97 + Value(i)) & ((1 << 14) - 1)));
    });
    ir::Function &fn = b.finish();

    PlatformConfig p = alpha21264();
    p.l1.sizeBytes = 1024;
    p.l2.sizeBytes = 2048;
    p.latencies = mem::LatencyConfig{ 3, 5, 300 };
    for (uint32_t window : { 16u, 80u }) {
        p.core.windowSize = window;
        CoreStack memo(p, p.core);
        Oracle oracle(p, p.core);
        vm::Interpreter interp(prog);
        interp.addSink(memo.core.get());
        interp.addSink(oracle.core.get());
        interp.run(fn);
        EXPECT_EQ(memo.core->cycles(), oracle.core->cycles());
        EXPECT_EQ(memo.core->branchMispredictions(),
                  oracle.core->branchMispredictions());
        EXPECT_GT(memo.core->cycles(), 3000u * 300 / window);
    }
}

TEST(Platforms, PresetsMatchTable7)
{
    const PlatformConfig alpha = alpha21264();
    EXPECT_EQ(alpha.l1.sizeBytes, 64u * 1024);
    EXPECT_EQ(alpha.l1.assoc, 2u);
    EXPECT_EQ(alpha.latencies.l1HitLatency, 3u);
    EXPECT_TRUE(alpha.core.outOfOrder);
    EXPECT_NEAR(alpha.core.clockGhz, 0.833, 1e-9);
    EXPECT_EQ(alpha.core.numIntRegs, 32u);

    const PlatformConfig ppc = powerpcG5();
    EXPECT_EQ(ppc.l1.sizeBytes, 32u * 1024);
    EXPECT_EQ(ppc.latencies.l1HitLatency, 3u);
    EXPECT_NEAR(ppc.core.clockGhz, 2.7, 1e-9);

    const PlatformConfig p4 = pentium4();
    EXPECT_EQ(p4.l1.sizeBytes, 8u * 1024);
    EXPECT_EQ(p4.l1.assoc, 4u);
    EXPECT_EQ(p4.latencies.l1HitLatency, 2u);
    EXPECT_EQ(p4.core.numIntRegs, 8u);

    const PlatformConfig ita = itanium2();
    EXPECT_FALSE(ita.core.outOfOrder);
    EXPECT_EQ(ita.latencies.l1HitLatency, 1u);
    EXPECT_EQ(ita.core.numIntRegs, 128u);

    EXPECT_EQ(evaluationPlatforms().size(), 4u);
}

TEST(Platforms, FactoriesProduceWorkingComponents)
{
    for (const auto &p : evaluationPlatforms()) {
        auto hierarchy = p.makeHierarchy();
        EXPECT_EQ(hierarchy.access(0, false).level,
                  mem::Level::Memory);
        auto pred = p.makePredictor();
        ASSERT_NE(pred, nullptr);
    }
}

} // namespace
} // namespace bioperf::cpu
