#include <cctype>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "apps/app.h"
#include "ir/builder.h"
#include "ir/verify.h"
#include "regalloc/linear_scan.h"
#include "vm/interpreter.h"

namespace bioperf::regalloc {
namespace {

using ir::ArrayRef;
using ir::FunctionBuilder;
using ir::Value;

/** A function with ~20 simultaneously live values. */
ir::Function &
buildHighPressure(ir::Program &prog, uint32_t *out_reg)
{
    FunctionBuilder b(prog, "pressure");
    Value x = b.param("x");
    std::vector<Value> vals;
    for (int i = 0; i < 20; i++)
        vals.push_back(x * (i + 1));
    auto sum = b.var();
    b.assign(sum, int64_t(0));
    for (auto &v : vals)
        b.assign(sum, Value(sum) + v);
    ArrayRef out = b.longArray("out", 1);
    b.st(out, 0, sum);
    *out_reg = out.region;
    return b.finish();
}

int64_t
runAndRead(ir::Program &prog, ir::Function &fn, int32_t out_region,
           const std::vector<int64_t> &params)
{
    vm::Interpreter interp(prog);
    interp.run(fn, params);
    vm::ArrayView<int64_t> view(interp.memory(),
                                prog.region(out_region));
    return view.get(0);
}

TEST(LinearScan, NoSpillsWhenRegistersPlentiful)
{
    ir::Program prog;
    uint32_t out_region = 0;
    ir::Function &fn = buildHighPressure(prog, &out_region);
    const AllocResult res = allocate(prog, fn, 32, 32);
    EXPECT_EQ(res.intSpilledRegs, 0u);
    EXPECT_EQ(res.spillInstrs, 0u);
    EXPECT_EQ(ir::verify(prog, fn), "");
    EXPECT_EQ(runAndRead(prog, fn, static_cast<int32_t>(out_region),
                         { 3 }),
              3 * 210);
}

TEST(LinearScan, SpillsUnderPressureButStaysCorrect)
{
    ir::Program prog;
    uint32_t out_region = 0;
    ir::Function &fn = buildHighPressure(prog, &out_region);
    const AllocResult res = allocate(prog, fn, 8, 8);
    EXPECT_GT(res.intSpilledRegs, 0u);
    EXPECT_GT(res.spillInstrs, 0u);
    EXPECT_GE(res.stackRegion, 0);
    EXPECT_EQ(ir::verify(prog, fn), "");
    EXPECT_EQ(runAndRead(prog, fn, static_cast<int32_t>(out_region),
                         { 3 }),
              3 * 210);
}

TEST(LinearScan, RewritesAllRegistersBelowLimit)
{
    ir::Program prog;
    uint32_t out_region = 0;
    ir::Function &fn = buildHighPressure(prog, &out_region);
    allocate(prog, fn, 8, 8);
    EXPECT_EQ(fn.numIntRegs, 8u);
    for (const auto &bb : fn.blocks) {
        for (const auto &in : bb.instrs) {
            std::vector<std::pair<ir::RegClass, uint32_t>> reads;
            ir::gatherReads(in, reads);
            for (auto &[cls, reg] : reads) {
                const uint32_t limit =
                    cls == ir::RegClass::Fp ? 8u : 8u;
                EXPECT_LT(reg, limit);
            }
            if (ir::dstClass(in) != ir::RegClass::None)
                EXPECT_LT(in.dst, 8u);
        }
    }
}

TEST(LinearScan, ParametersKeepWorkingAfterAllocation)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    Value y = b.param("y");
    ArrayRef out = b.longArray("out", 1);
    b.st(out, 0, x * 100 + y);
    ir::Function &fn = b.finish();
    allocate(prog, fn, 8, 8);
    EXPECT_EQ(runAndRead(prog, fn, out.region, { 7, 9 }), 709);
}

TEST(LinearScan, LoopCarriedValuesSurviveSpilling)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    Value n = b.param("n");
    ArrayRef out = b.longArray("out", 1);
    // Many live accumulators across a loop forces loop-carried spills.
    std::vector<FunctionBuilder::Var> accs;
    for (int i = 0; i < 12; i++) {
        accs.push_back(b.var());
        b.assign(accs.back(), int64_t(i));
    }
    auto i_var = b.var();
    b.forLoop(i_var, b.constI(1), n, [&] {
        for (auto &a : accs)
            b.assign(a, Value(a) + Value(i_var));
    });
    auto sum = b.var();
    b.assign(sum, int64_t(0));
    for (auto &a : accs)
        b.assign(sum, Value(sum) + Value(a));
    b.st(out, 0, sum);
    ir::Function &fn = b.finish();

    // Reference result: acc_i = i + n(n+1)/2, summed over 12.
    const int64_t n_val = 10;
    const int64_t expect = 66 + 12 * (n_val * (n_val + 1) / 2);

    const AllocResult res = allocate(prog, fn, 8, 8);
    EXPECT_GT(res.spillInstrs, 0u);
    EXPECT_EQ(runAndRead(prog, fn, out.region, { n_val }), expect);
}

TEST(LinearScan, FpSpillsWork)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    ArrayRef out = b.fpArray("out", 1);
    std::vector<ir::FValue> vals;
    for (int i = 0; i < 14; i++)
        vals.push_back(b.fcvt(x * (i + 1)));
    auto sum = b.fvar();
    b.assign(sum, 0.0);
    for (auto &v : vals)
        b.assign(sum, ir::FValue(sum) + v);
    b.fst(out, 0, sum);
    ir::Function &fn = b.finish();
    const AllocResult res = allocate(prog, fn, 16, 6);
    EXPECT_GT(res.fpSpilledRegs, 0u);
    vm::Interpreter interp(prog);
    interp.run(fn, { 2 });
    vm::ArrayView<double> view(interp.memory(), prog.region(out.region));
    EXPECT_DOUBLE_EQ(view.get(0), 2.0 * 105.0);
}

TEST(LinearScan, SpillRegionHasAliasIdentity)
{
    ir::Program prog;
    uint32_t out_region = 0;
    ir::Function &fn = buildHighPressure(prog, &out_region);
    const AllocResult res = allocate(prog, fn, 8, 8);
    ASSERT_GE(res.stackRegion, 0);
    EXPECT_NE(prog.region(res.stackRegion).name.find("spill"),
              std::string::npos);
}

/** Property: every kernel computes identical results for any budget. */
class AppAllocationTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(AppAllocationTest, KernelOutputsUnchanged)
{
    const auto [app_name, num_regs] = GetParam();
    const apps::AppInfo *app = apps::findApp(app_name);
    ASSERT_NE(app, nullptr);
    apps::AppRun run =
        app->make(apps::Variant::Baseline, apps::Scale::Small, 99);
    for (size_t f = 0; f < run.prog->numFunctions(); f++) {
        allocate(*run.prog, run.prog->function(f),
                 static_cast<uint32_t>(num_regs),
                 static_cast<uint32_t>(num_regs));
    }
    EXPECT_EQ(ir::verify(*run.prog), "");
    vm::Interpreter interp(*run.prog);
    run.driver(interp);
    EXPECT_TRUE(run.verify())
        << app_name << " with " << num_regs << " registers";
}

INSTANTIATE_TEST_SUITE_P(
    AcrossAppsAndBudgets, AppAllocationTest,
    ::testing::Combine(::testing::Values("hmmsearch", "predator",
                                         "dnapenny", "clustalw",
                                         "promlk", "blast"),
                       ::testing::Values(8, 12, 32)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>
           &info) {
        // The app name, with characters gtest rejects as '_', then
        // the register budget.
        std::string name = std::get<0>(info.param);
        for (char &c : name)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return name + "_" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace bioperf::regalloc
