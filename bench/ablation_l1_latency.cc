/**
 * @file
 * Ablation (ours): sensitivity of the transformation's benefit to the
 * L1 hit latency. The paper attributes the speedups to the 2-3 cycle
 * L1 *hit* latency around hard branches; if that is the mechanism,
 * the hmmsearch speedup must grow with the modeled hit latency and
 * shrink toward the pure-cmov benefit at one cycle. Also explains
 * the Pentium 4 column of Figure 9 (2-cycle L1).
 */
#include <cstdio>
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
    bench::Harness h("ablation_l1_latency", argc, argv);
    h.manifest().app = "hmmsearch";
    h.manifest().scale = apps::toString(apps::Scale::Small);
    h.manifest().platform = "alpha21264 (L1 latency swept)";

    std::printf("=== Ablation: hmmsearch speedup vs L1 hit latency "
                "(Alpha 21264 core otherwise) ===\n\n");
    util::TextTable t({ "L1 hit latency (cycles)", "baseline cycles",
                        "transformed cycles", "speedup" });
    const auto &app = *apps::findApp("hmmsearch");
    util::json::Value points = util::json::Value::array();
    uint64_t total_instrs = 0;
    // Every latency times the same two workloads (baseline and
    // transformed, one register file), so one sweep runs two live
    // passes, each with the five latencies' cores on it.
    constexpr uint32_t kMaxLatency = 5;
    std::vector<core::SweepJob> jobs;
    for (uint32_t lat = 1; lat <= kMaxLatency; lat++)
        for (const apps::Variant v :
             { apps::Variant::Baseline, apps::Variant::Transformed }) {
            core::SweepJob job;
            job.app = &app;
            job.platform = cpu::alpha21264();
            job.platform.latencies.l1HitLatency = lat;
            job.variant = v;
            job.scale = apps::Scale::Small;
            jobs.push_back(job);
        }
    const double t0 = bench::now();
    const std::vector<core::TimingResult> timed =
        core::Simulator::sweep(jobs, 1u);
    for (uint32_t lat = 1; lat <= kMaxLatency; lat++) {
        const size_t i = 2 * (lat - 1);
        const core::SpeedupResult r =
            core::SpeedupResult::of(timed[i], timed[i + 1]);
        if (!r.verified()) {
            std::printf("VERIFICATION FAILED\n");
            return h.finish(false);
        }
        total_instrs +=
            r.baseline.instructions + r.transformed.instructions;
        util::json::Value pt = r.report();
        pt["l1_hit_latency"] = static_cast<uint64_t>(lat);
        points.push(std::move(pt));
        t.row()
            .cell(static_cast<uint64_t>(lat))
            .cell(r.baseline.cycles)
            .cell(r.transformed.cycles)
            .cellPercent(100.0 * (r.speedup - 1.0), 1);
    }
    h.manifest().addStage("latency_sweep", bench::now() - t0,
                          total_instrs);
    std::printf("%s\n", t.str().c_str());
    std::printf("expected shape: monotone growth with the hit "
                "latency; the residual speedup at 1 cycle is the "
                "branch-elimination (cmov) share.\n");

    h.metrics()["points"] = std::move(points);
    return h.finish(true);
}
