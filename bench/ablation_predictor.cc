/**
 * @file
 * Ablation (ours): how branch prediction quality modulates the
 * transformation's benefit. With a perfect predictor the baseline's
 * load-to-branch chains stop mattering (no exposure after squash),
 * so the speedup collapses to the scheduling/cmov share; with weak
 * predictors the baseline bleeds and the transformation shines —
 * the other axis of the paper's Section 2.2 mechanism.
 */
#include <cstdio>
#include <iterator>
#include <vector>

#include "apps/app.h"
#include "core/simulator.h"
#include "cpu/platforms.h"
#include "harness.h"
#include "util/table.h"

using namespace bioperf;

int
main(int argc, char **argv)
{
    bench::Harness h("ablation_predictor", argc, argv);
    h.manifest().app = "hmmsearch";
    h.manifest().scale = apps::toString(apps::Scale::Small);
    h.manifest().platform = "alpha21264 (predictor swept)";

    std::printf("=== Ablation: hmmsearch speedup vs branch predictor "
                "(Alpha 21264 core) ===\n\n");
    util::TextTable t({ "predictor", "baseline IPC",
                        "baseline mispredicts", "speedup" });
    const auto &app = *apps::findApp("hmmsearch");
    util::json::Value points = util::json::Value::object();
    uint64_t total_instrs = 0;
    // All six configurations time the same two workloads (baseline
    // and transformed, same register file), so one sweep runs two live
    // passes, each with the six predictors' cores on it.
    const char *const predictors[] = { "static", "bimodal", "gshare",
                                       "local",  "hybrid",  "perfect" };
    std::vector<core::SweepJob> jobs;
    for (const char *pred : predictors)
        for (const apps::Variant v :
             { apps::Variant::Baseline, apps::Variant::Transformed }) {
            core::SweepJob job;
            job.app = &app;
            job.platform = cpu::alpha21264();
            job.platform.predictor = pred;
            job.variant = v;
            job.scale = apps::Scale::Small;
            jobs.push_back(job);
        }
    const double t0 = bench::now();
    const std::vector<core::TimingResult> timed =
        core::Simulator::sweep(jobs, 1u);
    for (size_t i = 0; i < std::size(predictors); i++) {
        const char *pred = predictors[i];
        const core::SpeedupResult r =
            core::SpeedupResult::of(timed[2 * i], timed[2 * i + 1]);
        if (!r.verified()) {
            std::printf("VERIFICATION FAILED\n");
            return h.finish(false);
        }
        total_instrs +=
            r.baseline.instructions + r.transformed.instructions;
        points[pred] = r.report();
        t.row()
            .cell(pred)
            .cell(r.baseline.ipc, 2)
            .cell(r.baseline.mispredicts)
            .cellPercent(100.0 * (r.speedup - 1.0), 1);
    }
    h.manifest().addStage("predictor_sweep", bench::now() - t0,
                          total_instrs);
    std::printf("%s\n", t.str().c_str());
    std::printf("expected shape: the benefit shrinks as prediction "
                "improves, and with a *perfect* predictor the "
                "transformation turns into a small loss (its extra "
                "temporaries cost instructions while the baseline's "
                "branches become free) — i.e., the speedup exists "
                "exactly because the guarding branches mispredict, "
                "the paper's Section 2.2 premise. Table 4's rates "
                "correspond to the hybrid row.\n");

    h.metrics()["predictors"] = std::move(points);
    return h.finish(true);
}
