/**
 * @file
 * Regenerates Figure 2: cumulative fraction of executed loads covered
 * by the N most frequently executed static loads, for representative
 * BioPerf programs versus SPEC-CPU2000-integer-like contrast codes.
 *
 * Paper reference points: ~80 static loads cover >90% of the dynamic
 * loads of the bioinformatics codes, but only ~10% (gcc) to ~58%
 * (crafty) of the SPEC integer codes.
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/app.h"
#include "core/simulator.h"
#include "harness.h"
#include "util/table.h"

using namespace bioperf;

int
main(int argc, char **argv)
{
    bench::Harness h("fig2_load_coverage", argc, argv);
    h.manifest().app = "suite";
    h.manifest().scale = apps::toString(apps::Scale::Medium);

    const std::vector<const char *> programs = {
        "hmmsearch", "hmmpfam", "clustalw",
        "crafty-like", "vortex-like", "gcc-like",
    };
    const std::vector<size_t> points = { 1,  5,   10,  20,  40,
                                         80, 120, 160, 200 };

    std::printf("=== Figure 2: cumulative dynamic-load coverage vs "
                "number of static loads ===\n\n");
    std::vector<std::string> headers = { "static loads" };
    for (const char *p : programs)
        headers.push_back(p);
    util::TextTable t(headers);

    std::vector<std::vector<double>> cdfs;
    util::TextTable summary(
        { "program", "dynamic loads", "static loads",
          "loads for 90%", "coverage @80" });
    util::json::Value per_app = util::json::Value::object();
    uint64_t total_instrs = 0;
    const double t0 = bench::now();
    for (const char *p : programs) {
        apps::AppRun run = apps::findApp(p)->make(
            apps::Variant::Baseline, apps::Scale::Medium, 42);
        auto res = core::Simulator::characterize(run);
        if (!res.verified) {
            std::printf("VERIFICATION FAILED for %s\n", p);
            return h.finish(false);
        }
        total_instrs += res.instructions;
        per_app[p] = res.coverage.report();
        summary.row()
            .cell(p)
            .cell(res.coverage.dynamicLoads)
            .cell(res.coverage.staticLoads)
            .cell(static_cast<uint64_t>(res.coverage.loadsFor90))
            .cellPercent(100.0 * res.coverage.coverageAt80, 1);
        cdfs.push_back(std::move(res.coverage.cdf));
    }
    h.manifest().addStage("characterize", bench::now() - t0,
                          total_instrs);

    for (size_t n : points) {
        t.row().cell(static_cast<uint64_t>(n));
        // The cdf holds kCdfPoints (200) entries, the table's last
        // point; a shorter one has covered every load by its end.
        for (const auto &cdf : cdfs)
            t.cellPercent(
                100.0 * cdf[std::min(n, cdf.size()) - 1], 1);
    }
    std::printf("%s\n", t.str().c_str());
    std::printf("%s\n", summary.str().c_str());
    std::printf("paper shape: BioPerf curves saturate above 90%% by "
                "~80 loads; SPEC-like curves stay at 10-58%%\n");

    h.metrics()["apps"] = std::move(per_app);
    return h.finish(true);
}
