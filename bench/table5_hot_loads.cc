/**
 * @file
 * Regenerates Table 5: the per-static-load profile of hmmsearch's
 * hottest loads — execution frequency, L1 miss rate, misprediction
 * rate of the following branch, and the source mapping — i.e., the
 * Section 3 methodology that points the optimizer at the P7Viterbi
 * box-1 IF conditions.
 *
 * Paper reference points: four loads, each ~3.97% of all dynamic
 * loads, L1 miss rates under 0.1%, following-branch misprediction
 * 11-38% (0.5% for the bounds check), all on lines 132-136 of
 * fast_algorithms.c in P7Viterbi.
 */
#include <cstdio>

#include "apps/app.h"
#include "core/candidate_finder.h"
#include "core/simulator.h"
#include "harness.h"
#include "util/table.h"

using namespace bioperf;

namespace {

util::json::Value
loadEntry(const core::LoadProfile &e)
{
    util::json::Value v = util::json::Value::object();
    v["sid"] = static_cast<uint64_t>(e.sid);
    v["frequency"] = e.frequency;
    v["l1_miss_rate"] = e.l1MissRate();
    v["next_branch_miss_rate"] = e.nextBranchMissRate();
    v["array"] = e.region;
    v["function"] = e.function;
    v["line"] = static_cast<int64_t>(e.line);
    v["file"] = e.file;
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness h("table5_hot_loads", argc, argv);
    h.manifest().app = "hmmsearch";
    h.manifest().scale = apps::toString(apps::Scale::Medium);

    const double t0 = bench::now();
    apps::AppRun run = apps::findApp("hmmsearch")
                           ->make(apps::Variant::Baseline,
                                  apps::Scale::Medium, 42);
    const core::CharacterizationResult res =
        core::Simulator::characterize(run);

    std::printf("=== Table 5: profile of the most frequently executed "
                "loads in hmmsearch ===\n\n");
    util::TextTable t({ "sid", "frequency", "L1 miss rate",
                        "branch mispredict", "array", "in function",
                        "line", "in file" });
    util::json::Value hot = util::json::Value::array();
    for (size_t i = 0; i < res.loads.size() && i < 12; i++) {
        const core::LoadProfile &e = res.loads[i];
        hot.push(loadEntry(e));
        t.row()
            .cell(static_cast<uint64_t>(e.sid))
            .cellPercent(100.0 * e.frequency, 2)
            .cellPercent(100.0 * e.l1MissRate(), 2)
            .cellPercent(100.0 * e.nextBranchMissRate(), 2)
            .cell(e.region)
            .cell(e.function)
            .cell(static_cast<int64_t>(e.line))
            .cell(e.file);
    }
    std::printf("%s\n", t.str().c_str());

    std::printf("=== Section 3: ranked optimization candidates "
                "(frequent + hard following branch) ===\n\n");
    util::TextTable c({ "array", "line", "frequency",
                        "branch mispredict" });
    util::json::Value cands = util::json::Value::array();
    for (const auto &e : core::findCandidates(res.loads)) {
        cands.push(loadEntry(e));
        c.row()
            .cell(e.region)
            .cell(static_cast<int64_t>(e.line))
            .cellPercent(100.0 * e.frequency, 2)
            .cellPercent(100.0 * e.nextBranchMissRate(), 2);
    }
    std::printf("%s\n", c.str().c_str());
    std::printf("paper shape: the candidates are the box-1 loads of "
                "the P7Viterbi loop (lines 132-136), rarely missing "
                "in L1, guarding hard-to-predict IFs\n");

    h.manifest().addStage("profile", bench::now() - t0,
                          res.instructions);
    h.metrics()["hot_loads"] = std::move(hot);
    h.metrics()["candidates"] = std::move(cands);
    return h.finish(res.verified);
}
