/**
 * @file
 * Regenerates Table 8 (absolute runtimes of original and
 * load-transformed code on the four evaluation platforms) and
 * Figure 9 (the speedups and their harmonic mean).
 *
 * Paper reference points (speedups): hmmsearch is the headline (up
 * to 92% on Alpha); harmonic means 25.4% (Alpha), 15.1% (PowerPC),
 * 4.3% (Pentium 4), 12.7% (Itanium 2). Absolute runtimes cannot
 * match (synthetic inputs are far smaller than class-C), but the
 * who-wins/by-how-much shape is the reproduction target. Note the
 * paper could not compile dnapenny on Itanium (n.a. there).
 *
 * The (app x platform x variant) timing jobs run through
 * core::Simulator::sweep(), one task per distinct workload spread
 * over the thread pool; set BIOPERF_THREADS to control the worker
 * count.
 */
#include <cstdio>
#include <map>
#include <vector>

#include "apps/app.h"
#include "core/simulator.h"
#include "cpu/platforms.h"
#include "harness.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace bioperf;

int
main(int argc, char **argv)
{
    // Default to the class-C-like Large inputs; pass "small" to get a
    // quick run.
    apps::Scale scale = apps::Scale::Medium;
    if (argc > 1 && std::string(argv[1]) == "small")
        scale = apps::Scale::Small;

    bench::Harness h("table8_fig9_speedup", argc, argv);
    h.manifest().app = "suite";
    h.manifest().scale = apps::toString(scale);
    h.manifest().threads = util::ThreadPool::defaultThreads();

    const auto platforms = cpu::evaluationPlatforms();
    const auto apps_list = apps::transformableApps();

    // One job per (app, platform, variant); results come back in job
    // order, so index arithmetic recovers the pairing below.
    std::vector<core::SweepJob> jobs;
    for (const auto &app : apps_list) {
        for (const auto &platform : platforms) {
            for (apps::Variant v : { apps::Variant::Baseline,
                                     apps::Variant::Transformed }) {
                core::SweepJob job;
                job.app = &app;
                job.platform = platform;
                job.variant = v;
                job.scale = scale;
                job.seed = 42;
                jobs.push_back(job);
            }
        }
    }
    // Baseline and transformed variants are distinct workloads, but
    // the four platforms of each variant share one where their
    // register files coincide: the sweep times those platforms in
    // one live pass, on the calling thread or on one pool worker.
    const double t0 = bench::now();
    const auto results = core::Simulator::sweep(jobs);
    uint64_t total_instrs = 0;
    for (const auto &r : results)
        total_instrs += r.instructions;
    h.manifest().addStage("timing_sweep", bench::now() - t0,
                          total_instrs);

    std::vector<std::string> time_headers = { "program", "version" };
    for (const auto &p : platforms)
        time_headers.push_back(p.name);
    util::TextTable t8(time_headers);

    std::vector<std::string> sp_headers = { "program" };
    for (const auto &p : platforms)
        sp_headers.push_back(p.name);
    util::TextTable fig9(sp_headers);

    std::map<std::string, std::vector<double>> speedups;
    util::json::Value per_app = util::json::Value::object();
    size_t j = 0;
    for (const auto &app : apps_list) {
        std::vector<double> base_s, xform_s, sp;
        util::json::Value app_node = util::json::Value::object();
        for (const auto &platform : platforms) {
            const core::TimingResult &tb = results[j++];
            const core::TimingResult &tx = results[j++];
            if (!tb.verified || !tx.verified) {
                std::printf("VERIFICATION FAILED for %s on %s\n",
                            app.name.c_str(), platform.name.c_str());
                return h.finish(false);
            }
            const double s = tx.cycles == 0
                ? 0.0
                : static_cast<double>(tb.cycles) /
                      static_cast<double>(tx.cycles);
            base_s.push_back(tb.seconds);
            xform_s.push_back(tx.seconds);
            sp.push_back(s);
            speedups[platform.name].push_back(s);
            util::json::Value cell = util::json::Value::object();
            cell["baseline"] = tb.report();
            cell["transformed"] = tx.report();
            cell["speedup"] = s;
            app_node[platform.name] = std::move(cell);
        }
        per_app[app.name] = std::move(app_node);
        t8.row().cell(app.name).cell("original");
        for (double s : base_s)
            t8.cell(s * 1e3, 3);
        t8.row().cell("").cell("load-transformed");
        for (double s : xform_s)
            t8.cell(s * 1e3, 3);
        fig9.row().cell(app.name);
        for (double s : sp)
            fig9.cellPercent(100.0 * (s - 1.0), 1);
    }

    fig9.row().cell("harmonic mean");
    std::printf("=== Table 8: simulated runtime in milliseconds "
                "(synthetic inputs; the paper reports seconds on "
                "class-C) ===\n\n%s\n", t8.str().c_str());
    util::json::Value hmeans = util::json::Value::object();
    for (const auto &p : platforms) {
        hmeans[p.name] = util::harmonicMean(speedups[p.name]);
        fig9.cellPercent(
            100.0 * (util::harmonicMean(speedups[p.name]) - 1.0), 1);
    }
    std::printf("=== Figure 9: speedup of load-transformed over "
                "original code ===\n\n%s\n", fig9.str().c_str());
    std::printf("paper reference: harmonic means 25.4%% / 15.1%% / "
                "4.3%% / 12.7%% on Alpha / PowerPC / Pentium 4 / "
                "Itanium 2; hmmsearch largest everywhere; predator "
                "and clustalw marginal; dnapenny n.a. on Itanium in "
                "the paper (did not compile there).\n");

    h.metrics()["apps"] = std::move(per_app);
    h.metrics()["harmonic_mean_speedup"] = std::move(hmeans);
    return h.finish(true);
}
