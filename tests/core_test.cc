#include <gtest/gtest.h>

#include "apps/app.h"
#include "core/candidate_finder.h"
#include "core/simulator.h"
#include "core/transform_pipeline.h"
#include "cpu/platforms.h"

namespace bioperf::core {
namespace {

TEST(Simulator, CharacterizeRunsAllProfilersInOnePass)
{
    apps::AppRun run = apps::findApp("hmmsearch")
                           ->make(apps::Variant::Baseline,
                                  apps::Scale::Small, 17);
    const CharacterizationResult res = Simulator::characterize(run);
    EXPECT_TRUE(res.verified);
    EXPECT_GT(res.instructions, 10000u);
    EXPECT_EQ(res.mix.total, res.instructions);
    EXPECT_EQ(res.coverage.dynamicLoads, res.mix.loads);
    EXPECT_EQ(res.cache.loads, res.mix.loads);
    EXPECT_EQ(res.loadBranch.dynamicLoads, res.mix.loads);
}

TEST(Simulator, TimeProducesConsistentResults)
{
    apps::AppRun run = apps::findApp("predator")
                           ->make(apps::Variant::Baseline,
                                  apps::Scale::Small, 17);
    const TimingResult t = Simulator::time(run, cpu::alpha21264());
    EXPECT_TRUE(t.verified);
    EXPECT_GT(t.cycles, 0u);
    EXPECT_GT(t.instructions, 0u);
    EXPECT_NEAR(t.ipc,
                static_cast<double>(t.instructions) /
                    static_cast<double>(t.cycles),
                1e-9);
    EXPECT_NEAR(t.seconds,
                static_cast<double>(t.cycles) / 0.833e9, 1e-9);
}

TEST(Simulator, InorderPlatformWorks)
{
    apps::AppRun run = apps::findApp("predator")
                           ->make(apps::Variant::Baseline,
                                  apps::Scale::Small, 17);
    const TimingResult t = Simulator::time(run, cpu::itanium2());
    EXPECT_TRUE(t.verified);
    EXPECT_GT(t.cycles, 0u);
}

TEST(Simulator, RegisterPressureSpillsOnlyOnSmallFiles)
{
    apps::AppRun run32 = apps::findApp("hmmsearch")
                             ->make(apps::Variant::Transformed,
                                    apps::Scale::Small, 17);
    EXPECT_EQ(Simulator::applyRegisterPressure(run32,
                                               cpu::alpha21264()),
              0u);
    apps::AppRun run8 = apps::findApp("hmmsearch")
                            ->make(apps::Variant::Transformed,
                                   apps::Scale::Small, 17);
    EXPECT_GT(Simulator::applyRegisterPressure(run8, cpu::pentium4()),
              0u);
    // Both still verify after allocation.
    const TimingResult t = Simulator::time(run8, cpu::pentium4());
    EXPECT_TRUE(t.verified);
}

TEST(Simulator, HmmsearchSpeedupOnAlpha)
{
    // The headline result, in miniature: the transformed hmmsearch
    // must be substantially faster on the Alpha model.
    const SpeedupResult r = Simulator::speedup(
        *apps::findApp("hmmsearch"), cpu::alpha21264(),
        apps::Scale::Small, 7);
    EXPECT_TRUE(r.verified());
    EXPECT_GT(r.baseline.cycles, r.transformed.cycles);
    EXPECT_GT(r.speedup, 1.25);
}

TEST(Simulator, PentiumSpeedupSmallerThanAlpha)
{
    // Section 5.1: the 2-cycle L1 and 8 registers shrink the gain.
    const auto &app = *apps::findApp("hmmsearch");
    const double alpha =
        Simulator::speedup(app, cpu::alpha21264(),
                           apps::Scale::Small, 7)
            .speedup;
    const double p4 = Simulator::speedup(app, cpu::pentium4(),
                                         apps::Scale::Small, 7)
                          .speedup;
    EXPECT_GT(alpha, p4);
    (void)p4;
}

TEST(Simulator, PredatorSpeedupIsMarginal)
{
    const double sp = Simulator::speedup(*apps::findApp("predator"),
                                         cpu::alpha21264(),
                                         apps::Scale::Small, 7)
                          .speedup;
    EXPECT_GT(sp, 0.95);
    EXPECT_LT(sp, 1.15);
}

TEST(CandidateFinder, FindsTheP7ViterbiLoads)
{
    apps::AppRun run = apps::findApp("hmmsearch")
                           ->make(apps::Variant::Baseline,
                                  apps::Scale::Small, 17);
    CandidateFinder finder;
    const auto candidates = finder.findCandidates(run);
    ASSERT_FALSE(candidates.empty());
    // The top candidates must point into the P7Viterbi box-1 code
    // with their Table 5 attributes populated.
    bool saw_box1 = false;
    for (const auto &c : candidates) {
        EXPECT_EQ(c.function, "P7Viterbi");
        EXPECT_EQ(c.file, "fast_algorithms.c");
        EXPECT_GE(c.nextBranchMissRate(), 0.05);
        EXPECT_LT(c.l1MissRate(), 0.05); // they hit in L1
        if (c.line >= 132 && c.line <= 136)
            saw_box1 = true;
    }
    EXPECT_TRUE(saw_box1);
}

TEST(CandidateFinder, ProfileLoadsSortedByFrequency)
{
    apps::AppRun run = apps::findApp("hmmsearch")
                           ->make(apps::Variant::Baseline,
                                  apps::Scale::Small, 17);
    CandidateFinder finder;
    const auto top = finder.profileLoads(run, 10);
    ASSERT_GE(top.size(), 2u);
    for (size_t i = 1; i < top.size(); i++)
        EXPECT_GE(top[i - 1].execs, top[i].execs);
}

TEST(CandidateFinder, RespectsThresholds)
{
    apps::AppRun run = apps::findApp("hmmsearch")
                           ->make(apps::Variant::Baseline,
                                  apps::Scale::Small, 17);
    CandidateFinder::Params strict;
    strict.minFrequency = 0.9; // nothing is that frequent
    CandidateFinder finder(strict);
    EXPECT_TRUE(finder.findCandidates(run).empty());
}

TEST(TransformPipeline, ReportsForAllSixApps)
{
    const auto reports =
        TransformPipeline::analyzeAll(apps::Scale::Small, 4);
    ASSERT_EQ(reports.size(), 6u);
    for (const auto &r : reports) {
        EXPECT_TRUE(r.baselineVerified) << r.app;
        EXPECT_TRUE(r.transformedVerified) << r.app;
        EXPECT_GT(r.staticLoadsConsidered, 0u) << r.app;
        EXPECT_GT(r.linesInvolved, 0u) << r.app;
        EXPECT_GT(r.baselineStaticInstrs, 0u) << r.app;
    }
}

TEST(TransformPipeline, HmmsearchLosesBranchesGainsFootprint)
{
    const auto rep = TransformPipeline::analyze(
        *apps::findApp("hmmsearch"), apps::Scale::Small, 4);
    // The transformation converts the box IF chains to conditional
    // moves: far fewer static branches afterwards.
    EXPECT_LT(rep.transformedStaticBranches,
              rep.baselineStaticBranches);
    // predator's footprint is tiny, hmmsearch's larger (Table 6).
    const auto pred = TransformPipeline::analyze(
        *apps::findApp("predator"), apps::Scale::Small, 4);
    EXPECT_LT(pred.linesInvolved, rep.linesInvolved);
}

} // namespace
} // namespace bioperf::core
