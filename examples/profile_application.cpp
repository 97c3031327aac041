/**
 * @file
 * The Section 3 methodology end to end on a real application: one
 * characterization pass over hmmsearch gives its summary numbers and
 * its Table 5-style hot-load profile, and findCandidates() points at
 * the source lines worth transforming.
 *
 *   ./examples/profile_application [app-name]
 */
#include <cstdio>
#include <string>

#include "apps/app.h"
#include "core/candidate_finder.h"
#include "core/simulator.h"
#include "util/table.h"

using namespace bioperf;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "hmmsearch";
    const apps::AppInfo *app = apps::findApp(name);
    if (!app) {
        std::printf("unknown application '%s'\n", name.c_str());
        std::printf("known:");
        for (const auto &a : apps::bioperfApps())
            std::printf(" %s", a.name.c_str());
        std::printf("\n");
        return 1;
    }

    std::printf("profiling %s (%s)...\n\n", app->name.c_str(),
                app->area.c_str());

    // Step 1: whole-program characterization.
    apps::AppRun run =
        app->make(apps::Variant::Baseline, apps::Scale::Small, 7);
    const auto res = core::Simulator::characterize(run);
    std::printf("instructions executed : %llu (verified: %s)\n",
                static_cast<unsigned long long>(res.instructions),
                res.verified ? "yes" : "NO");
    std::printf("load fraction         : %.1f%%\n",
                100.0 * res.mix.loadFraction);
    std::printf("static loads for 90%%  : %zu\n",
                res.coverage.loadsFor90);
    std::printf("L1 miss rate (loads)  : %.2f%%   AMAT: %.2f cycles\n",
                100.0 * res.cache.l1LocalMissRate, res.cache.amat);
    std::printf("load-to-branch loads  : %.1f%%, their branches "
                "mispredict %.1f%%\n\n",
                100.0 * res.loadBranch.loadToBranchFraction,
                100.0 * res.loadBranch.ltbBranchMissRate);

    // Step 2: the same pass's per-load profile (the Table 5 view).
    util::TextTable t({ "array", "function", "line", "frequency",
                        "L1 miss", "next-branch mispredict" });
    for (size_t i = 0; i < res.loads.size() && i < 10; i++) {
        const core::LoadProfile &e = res.loads[i];
        t.row()
            .cell(e.region)
            .cell(e.function)
            .cell(static_cast<int64_t>(e.line))
            .cellPercent(100.0 * e.frequency, 2)
            .cellPercent(100.0 * e.l1MissRate(), 2)
            .cellPercent(100.0 * e.nextBranchMissRate(), 1);
    }
    std::printf("hottest static loads:\n%s\n", t.str().c_str());

    // Step 3: the ranked optimization candidates.
    const auto candidates = core::findCandidates(res.loads);
    if (candidates.empty()) {
        std::printf("no load-scheduling candidates found (frequent "
                    "loads with hard following branches)\n");
    } else {
        std::printf("recommended load-scheduling candidates "
                    "(frequent + hard following branch):\n");
        for (const auto &e : candidates) {
            std::printf("  %s:%d  array '%s'  (%.2f%% of loads, "
                        "branch mispredicts %.1f%%)\n",
                        e.file.c_str(), e.line, e.region.c_str(),
                        100.0 * e.frequency,
                        100.0 * e.nextBranchMissRate());
        }
    }
    return 0;
}
