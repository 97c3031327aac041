#include <algorithm>

#include <gtest/gtest.h>

#include "apps/app.h"
#include "core/simulator.h"
#include "cpu/platforms.h"

namespace bioperf {
namespace {

/**
 * End-to-end characterization bands: every application, run through
 * the full simulator stack, must land in the qualitative regions the
 * paper reports (Figures 1-2, Tables 1-4). These are the repository's
 * "does the reproduction reproduce" tests.
 */
class CharacterizationBandTest
    : public ::testing::TestWithParam<const char *>
{
  protected:
    static core::CharacterizationResult &
    resultFor(const std::string &name)
    {
        static std::map<std::string, core::CharacterizationResult>
            cache;
        auto it = cache.find(name);
        if (it == cache.end()) {
            // Medium scale: the Table 2 steady-state rates need the
            // caches warmed past the compulsory-miss start-up phase.
            apps::AppRun run = apps::findApp(name)->make(
                apps::Variant::Baseline, apps::Scale::Medium, 31);
            it = cache.emplace(name, core::Simulator::characterize(run))
                     .first;
        }
        return it->second;
    }
};

TEST_P(CharacterizationBandTest, Verifies)
{
    EXPECT_TRUE(resultFor(GetParam()).verified);
}

TEST_P(CharacterizationBandTest, LoadsAreMajorFraction)
{
    // Figure 1: loads average ~30%; individual apps 15-45%. Our
    // synthetic kernels land in a band around that.
    const auto &res = resultFor(GetParam());
    EXPECT_GT(res.mix.loadFraction, 0.05) << GetParam();
    EXPECT_LT(res.mix.loadFraction, 0.55) << GetParam();
}

TEST_P(CharacterizationBandTest, CachesSatisfyAlmostAllLoads)
{
    // Table 2: L1 miss rates under ~2%, overall (to memory) under
    // ~0.1%, AMAT dominated by the 3-cycle L1 hit latency.
    const auto &res = resultFor(GetParam());
    EXPECT_LT(res.cache.l1LocalMissRate, 0.03) << GetParam();
    EXPECT_LT(res.cache.overallMissRate, 0.005) << GetParam();
    EXPECT_GE(res.cache.amat, 3.0) << GetParam();
    EXPECT_LT(res.cache.amat, 3.5) << GetParam();
}

TEST_P(CharacterizationBandTest, FewStaticLoadsCoverExecution)
{
    // Figure 2: ~80 static loads cover >90% of dynamic loads.
    const auto &res = resultFor(GetParam());
    const auto &cdf = res.coverage.cdf;
    ASSERT_FALSE(cdf.empty()) << GetParam();
    EXPECT_GT(cdf[std::min<size_t>(120, cdf.size()) - 1], 0.9)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    NineApps, CharacterizationBandTest,
    ::testing::Values("blast", "clustalw", "dnapenny", "fasta",
                      "hmmcalibrate", "hmmpfam", "hmmsearch",
                      "predator", "promlk"));

TEST(CharacterizationShape, HmmerTrioHasHighestLoadToBranch)
{
    // Table 4(a): hmmcalibrate/hmmpfam/hmmsearch > 90%, promlk 15%.
    auto ltb = [](const char *name) {
        apps::AppRun run = apps::findApp(name)->make(
            apps::Variant::Baseline, apps::Scale::Small, 31);
        const auto res = core::Simulator::characterize(run);
        return res.loadBranch.loadToBranchFraction;
    };
    const double hmmsearch = ltb("hmmsearch");
    const double hmmpfam = ltb("hmmpfam");
    const double promlk = ltb("promlk");
    const double clustalw = ltb("clustalw");
    EXPECT_GT(hmmsearch, 0.7);
    EXPECT_GT(hmmpfam, 0.7);
    EXPECT_LT(promlk, 0.3);
    EXPECT_GT(hmmsearch, promlk);
    EXPECT_GT(clustalw, promlk);
}

TEST(CharacterizationShape, LtbBranchesAreHardToPredict)
{
    // Table 4(a) column 2: 5.9% - 19.9% misprediction on the
    // terminating branches.
    apps::AppRun run = apps::findApp("hmmsearch")->make(
        apps::Variant::Baseline, apps::Scale::Small, 31);
    const auto res = core::Simulator::characterize(run);
    EXPECT_GT(res.loadBranch.ltbBranchMissRate, 0.04);
    EXPECT_LT(res.loadBranch.ltbBranchMissRate, 0.35);
}

TEST(CharacterizationShape, SpecLikeCoverageContrast)
{
    // Figure 2: BioPerf ~80 loads => >90%; SPEC-like codes cover far
    // less, ordered by their skew (crafty > vortex > gcc).
    auto cov80 = [](const char *name) {
        apps::AppRun run = apps::findApp(name)->make(
            apps::Variant::Baseline, apps::Scale::Small, 31);
        const auto res = core::Simulator::characterize(run);
        return res.coverage.coverageAt80;
    };
    const double bio = cov80("hmmsearch");
    const double crafty = cov80("crafty-like");
    const double vortex = cov80("vortex-like");
    const double gcc = cov80("gcc-like");
    EXPECT_GT(bio, 0.9);
    EXPECT_GT(crafty, vortex);
    EXPECT_GT(vortex, gcc);
    EXPECT_LT(crafty, 0.85);
    EXPECT_GT(gcc, 0.02);
}

TEST(SpeedupShape, TransformedNeverMeaningfullySlower)
{
    // No transformation may lose more than a few percent anywhere.
    for (const auto &app : apps::transformableApps()) {
        for (const auto &platform : cpu::evaluationPlatforms()) {
            const double sp =
                core::Simulator::speedup(app, platform,
                                         apps::Scale::Small, 13)
                    .speedup;
            EXPECT_GT(sp, 0.93) << app.name << " on " << platform.name;
        }
    }
}

TEST(SpeedupShape, HmmsearchIsTheHeadline)
{
    // Figure 9: hmmsearch shows the largest speedup on Alpha.
    const auto alpha = cpu::alpha21264();
    const double hmmsearch =
        core::Simulator::speedup(*apps::findApp("hmmsearch"), alpha,
                                 apps::Scale::Small, 13)
            .speedup;
    for (const char *other : { "clustalw", "dnapenny", "predator" }) {
        const double sp =
            core::Simulator::speedup(*apps::findApp(other), alpha,
                                     apps::Scale::Small, 13)
                .speedup;
        EXPECT_GT(hmmsearch, sp) << other;
    }
    EXPECT_GT(hmmsearch, 1.25);
}

TEST(SpeedupShape, PlatformOrderingMatchesFigure9)
{
    // Harmonic-mean speedups: Alpha and PPC largest, Pentium 4
    // clearly smallest, Itanium in between.
    std::map<std::string, std::vector<double>> sp;
    for (const auto &app : apps::transformableApps()) {
        for (const auto &platform : cpu::evaluationPlatforms()) {
            sp[platform.core.name].push_back(
                core::Simulator::speedup(app, platform,
                                         apps::Scale::Small, 13)
                    .speedup);
        }
    }
    auto hm = [&](const std::string &p) {
        double inv = 0;
        for (double s : sp[p])
            inv += 1.0 / s;
        return static_cast<double>(sp[p].size()) / inv;
    };
    const double alpha = hm("alpha21264");
    const double p4 = hm("pentium4");
    const double ppc = hm("ppc970");
    const double ita = hm("itanium2");
    EXPECT_GT(alpha, p4 + 0.05);
    EXPECT_GT(ppc, p4 + 0.05);
    EXPECT_GT(ita, p4);
    EXPECT_GT(alpha, 1.1); // paper: 25.4%
    EXPECT_LT(p4, 1.15);   // paper: 4.3%
}

TEST(SpeedupShape, RegisterPressureMattersOnPentium)
{
    // Rerunning the P4 with generous registers must increase the
    // transformed code's benefit: the paper's Section 5.1 claim.
    const auto &app = *apps::findApp("hmmsearch");
    cpu::PlatformConfig p4 = cpu::pentium4();
    const double constrained =
        core::Simulator::speedup(app, p4, apps::Scale::Small, 13)
            .speedup;
    p4.core.numIntRegs = 32;
    p4.core.numFpRegs = 32;
    const double roomy =
        core::Simulator::speedup(app, p4, apps::Scale::Small, 13)
            .speedup;
    EXPECT_GT(roomy, constrained);
}

TEST(SpeedupShape, L1LatencySensitivity)
{
    // The mechanism check: shrink the Alpha's L1 hit latency to one
    // cycle and the transformation's benefit must shrink with it.
    const auto &app = *apps::findApp("hmmsearch");
    cpu::PlatformConfig alpha = cpu::alpha21264();
    const double at3 =
        core::Simulator::speedup(app, alpha, apps::Scale::Small, 13)
            .speedup;
    alpha.latencies.l1HitLatency = 1;
    const double at1 =
        core::Simulator::speedup(app, alpha, apps::Scale::Small, 13)
            .speedup;
    EXPECT_GT(at3, at1);
}

} // namespace
} // namespace bioperf
