/**
 * @file
 * Quickstart: build a tiny kernel with the IR DSL, run it through the
 * interpreter, and attach analysis sinks — the five-minute tour of
 * the library's moving parts.
 *
 *   ./examples/quickstart
 */
#include <cstdio>

#include "branch/predictors.h"
#include "cpu/ooo_core.h"
#include "ir/builder.h"
#include "ir/printer.h"
#include "mem/hierarchy.h"
#include "profile/instruction_mix.h"
#include "profile/load_branch.h"
#include "util/rng.h"
#include "vm/interpreter.h"

using namespace bioperf;

int
main()
{
    // 1. Express a kernel in the builder DSL. This one is the paper's
    //    archetype: a load whose value immediately decides a branch.
    ir::Program prog("quickstart");
    ir::FunctionBuilder b(prog, "count_positives", "quickstart.c");
    const ir::Value n = b.param("n");
    const ir::ArrayRef data = b.intArray("data", 4096);
    auto count = b.var("count");
    auto i = b.var("i");
    b.assign(count, int64_t(0));
    b.forLoop(i, b.constI(0), n - 1, [&] {
        b.line(7);
        const ir::Value v = b.ld(data, i); // load ...
        b.ifThen(v > 0, [&] {              // ... to branch
            b.assign(count, ir::Value(count) + 1);
        });
    });
    const ir::ArrayRef out = b.longArray("out", 1);
    b.st(out, 0, count);
    ir::Function &fn = b.finish();

    std::printf("--- the kernel, as RISC-style IR ---\n%s\n",
                ir::toString(prog, fn).c_str());

    // 2. Give it inputs and run it with analysis sinks attached.
    vm::Interpreter interp(prog);
    vm::ArrayView<int32_t> view(interp.memory(),
                                prog.region(data.region));
    util::Rng rng(1);
    for (uint64_t k = 0; k < 4096; k++)
        view.set(k, static_cast<int32_t>(rng.nextRange(-50, 50)));

    profile::InstructionMixProfiler mix;
    profile::LoadBranchProfiler chains;
    mem::CacheHierarchy caches = mem::CacheHierarchy::referenceConfig();
    auto predictor = branch::makePredictor("hybrid");
    cpu::CoreConfig core_cfg; // a generic 4-wide out-of-order core
    cpu::OooCore core(core_cfg, &caches, predictor.get());

    interp.addSink(&mix);
    interp.addSink(&chains);
    interp.addSink(&core);
    interp.run(fn, { 4096 });

    vm::ArrayView<int64_t> out_view(interp.memory(),
                                    prog.region(out.region));
    std::printf("--- functional result ---\n");
    std::printf("positives found: %lld of 4096\n\n",
                static_cast<long long>(out_view.get(0)));

    // Each profiler reports through its value-type summary.
    const profile::MixSummary m = mix.summary();
    const profile::LoadBranchSummary lb = chains.summary();
    std::printf("--- what the analysis stack saw ---\n");
    std::printf("instructions: %llu (%.1f%% loads, %.1f%% branches)\n",
                static_cast<unsigned long long>(m.total),
                100.0 * m.loadFraction, 100.0 * m.branchFraction);
    std::printf("loads feeding branches: %.1f%% "
                "(the paper's load-to-branch pattern)\n",
                100.0 * lb.loadToBranchFraction);
    std::printf("those branches mispredict: %.1f%%\n",
                100.0 * lb.ltbBranchMissRate);
    std::printf("simulated: %llu cycles, IPC %.2f, %llu mispredicts\n",
                static_cast<unsigned long long>(core.cycles()),
                core.ipc(),
                static_cast<unsigned long long>(
                    core.branchMispredictions()));
    return 0;
}
