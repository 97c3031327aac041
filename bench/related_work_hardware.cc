/**
 * @file
 * Ablation (Section 6 related work): hardware load-latency-hiding
 * alternatives versus the paper's software transformation.
 *
 * Austin & Sohi's zero-cycle loads "tolerate the load latency in an
 * in-order issue machine well, but do not see much benefit in an
 * out-of-order issue machine"; Calder & Reinman survey load value
 * speculation. This harness runs the baseline hmmsearch with each
 * mechanism on both core types and compares against the source-level
 * transformation — testing whether the paper's implicit claim (the
 * software fix beats the hardware fixes on the machines that matter)
 * holds in this model.
 */
#include <cstdio>
#include <memory>

#include "apps/app.h"
#include "cpu/load_accel.h"
#include "cpu/platforms.h"
#include "harness.h"
#include "util/table.h"
#include "vm/interpreter.h"

using namespace bioperf;

namespace {

struct RunOut
{
    uint64_t cycles = 0;
    double accel_hit_rate = -1.0;
};

RunOut
timeWith(const cpu::PlatformConfig &platform, apps::Variant variant,
         cpu::LoadAccelerator *accel)
{
    apps::AppRun run = apps::findApp("hmmsearch")
                           ->make(variant, apps::Scale::Small, 42);
    mem::CacheHierarchy caches = platform.makeHierarchy();
    auto pred = platform.makePredictor();
    const std::unique_ptr<cpu::TimingCore> core =
        platform.makeCore(&caches, pred.get());
    core->setLoadAccelerator(accel);
    vm::Interpreter interp(*run.prog);
    interp.addSink(core.get());
    run.driver(interp);
    RunOut out;
    out.cycles = core->cycles();
    if (!run.verify()) {
        std::printf("VERIFICATION FAILED\n");
        std::exit(1);
    }
    if (accel)
        out.accel_hit_rate = accel->hitRate();
    return out;
}

util::json::Value
evaluate(const cpu::PlatformConfig &platform)
{
    const RunOut base =
        timeWith(platform, apps::Variant::Baseline, nullptr);
    const RunOut sw =
        timeWith(platform, apps::Variant::Transformed, nullptr);

    cpu::ZeroCycleLoadUnit zcl;
    const RunOut zc = timeWith(platform, apps::Variant::Baseline, &zcl);
    cpu::LastValuePredictor lvp_unit;
    const RunOut lvp =
        timeWith(platform, apps::Variant::Baseline, &lvp_unit);

    auto pct = [&](uint64_t cycles) {
        return 100.0 * (static_cast<double>(base.cycles) /
                            static_cast<double>(cycles) -
                        1.0);
    };
    util::TextTable t({ "mechanism", "cycles", "speedup vs baseline",
                        "mechanism hit rate" });
    t.row().cell("baseline").cell(base.cycles).cell("-").cell("-");
    t.row()
        .cell("zero-cycle loads (hw)")
        .cell(zc.cycles)
        .cellPercent(pct(zc.cycles), 1)
        .cellPercent(100.0 * zc.accel_hit_rate, 1);
    t.row()
        .cell("last-value prediction (hw)")
        .cell(lvp.cycles)
        .cellPercent(pct(lvp.cycles), 1)
        .cellPercent(100.0 * lvp.accel_hit_rate, 1);
    t.row()
        .cell("source-level scheduling (sw)")
        .cell(sw.cycles)
        .cellPercent(pct(sw.cycles), 1)
        .cell("-");
    std::printf("--- %s ---\n%s\n", platform.name.c_str(),
                t.str().c_str());

    util::json::Value node = util::json::Value::object();
    node["baseline_cycles"] = base.cycles;
    util::json::Value zc_node = util::json::Value::object();
    zc_node["cycles"] = zc.cycles;
    zc_node["hit_rate"] = zc.accel_hit_rate;
    node["zero_cycle_loads"] = std::move(zc_node);
    util::json::Value lvp_node = util::json::Value::object();
    lvp_node["cycles"] = lvp.cycles;
    lvp_node["hit_rate"] = lvp.accel_hit_rate;
    node["last_value_prediction"] = std::move(lvp_node);
    node["software_transform_cycles"] = sw.cycles;
    return node;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h("related_work_hardware", argc, argv);
    h.manifest().app = "hmmsearch";
    h.manifest().scale = apps::toString(apps::Scale::Small);

    std::printf("=== Related work (Section 6): hardware load-latency "
                "hiding vs the software transformation, hmmsearch "
                "===\n\n");
    const double t0 = bench::now();
    util::json::Value per_platform = util::json::Value::object();
    per_platform["alpha21264"] = evaluate(cpu::alpha21264());
    // The Itanium 2 preset has a 1-cycle L1, which leaves zero-cycle
    // loads nothing to remove; use an in-order core with the Alpha's
    // 3-cycle L1 to expose the Austin & Sohi in-order benefit.
    cpu::PlatformConfig inorder3 = cpu::alpha21264();
    inorder3.name = "generic in-order, 3-cycle L1";
    inorder3.core.outOfOrder = false;
    inorder3.core.issueWidth = 4;
    per_platform["inorder_3cycle_l1"] = evaluate(inorder3);
    h.manifest().addStage("evaluate", bench::now() - t0);
    std::printf("expected shape (Austin & Sohi): zero-cycle loads "
                "help the in-order machine far more than the "
                "out-of-order one, where speculation already issues "
                "loads early; on both, the branch-aware software "
                "transformation wins because the bottleneck is branch "
                "resolution, not load issue.\n");

    h.metrics()["platforms"] = std::move(per_platform);
    return h.finish(true);
}
