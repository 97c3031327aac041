#include <gtest/gtest.h>

#include "branch/predictors.h"
#include "util/rng.h"

namespace bioperf::branch {
namespace {

/** Feeds a repeating pattern and returns the steady-state miss rate. */
double
steadyStateMissRate(BranchPredictor &p, uint32_t sid,
                    const std::vector<bool> &pattern, int warmup_reps,
                    int measure_reps)
{
    for (int r = 0; r < warmup_reps; r++)
        for (bool t : pattern)
            p.predictAndTrain(sid, t);
    uint64_t miss = 0, total = 0;
    for (int r = 0; r < measure_reps; r++) {
        for (bool t : pattern) {
            if (!p.predictAndTrain(sid, t))
                miss++;
            total++;
        }
    }
    return static_cast<double>(miss) / static_cast<double>(total);
}

TEST(Perfect, NeverMispredicts)
{
    PerfectPredictor p;
    util::Rng rng(1);
    for (int i = 0; i < 1000; i++)
        EXPECT_TRUE(p.predictAndTrain(i % 7, rng.nextBool()));
    EXPECT_EQ(p.totalMispredictions(), 0u);
    EXPECT_EQ(p.totalExecutions(), 1000u);
}

TEST(Static, PredictTakenMissRateEqualsNotTakenFraction)
{
    StaticPredictor p(true);
    for (int i = 0; i < 100; i++)
        p.predictAndTrain(0, i % 4 != 0); // 25% not taken
    EXPECT_NEAR(p.missRate(0), 0.25, 1e-12);
}

TEST(Bimodal, LearnsBiasedBranch)
{
    BimodalPredictor p;
    EXPECT_LT(steadyStateMissRate(p, 0, { true }, 4, 100), 0.01);
    BimodalPredictor q;
    EXPECT_LT(steadyStateMissRate(q, 0, { false }, 4, 100), 0.01);
}

TEST(Bimodal, AlternatingIsHard)
{
    BimodalPredictor p;
    const double rate =
        steadyStateMissRate(p, 0, { true, false }, 16, 100);
    EXPECT_GT(rate, 0.4); // 2-bit counters cannot track T/N/T/N
}

TEST(Bimodal, HysteresisSurvivesSingleFlip)
{
    BimodalPredictor p;
    for (int i = 0; i < 8; i++)
        p.predictAndTrain(0, true);
    // One not-taken outlier should not flip the next prediction.
    p.predictAndTrain(0, false);
    EXPECT_TRUE(p.predictAndTrain(0, true));
}

TEST(Local, LearnsPeriodicPattern)
{
    LocalPredictor p(10);
    const double rate = steadyStateMissRate(
        p, 0, { true, true, true, false }, 32, 100);
    EXPECT_LT(rate, 0.01);
}

TEST(Local, SeparateHistoriesPerBranch)
{
    LocalPredictor p(10);
    // Branch 0: alternating; branch 1: always taken. Interleaved.
    for (int i = 0; i < 400; i++) {
        p.predictAndTrain(0, i % 2 == 0);
        p.predictAndTrain(1, true);
    }
    EXPECT_LT(p.missRate(0), 0.05); // local history tracks T/N
    EXPECT_LT(p.missRate(1), 0.05);
}

TEST(LocalPredictor, SparseSidsPredictLikeDenseSids)
{
    // Tables are per branch and private, so which sids name the two
    // branches cannot change a prediction or a statistic.
    LocalPredictor dense(10);
    LocalPredictor sparse(10);
    const uint32_t dense_sids[2] = { 0, 1 };
    const uint32_t sparse_sids[2] = { 3, 200000 };
    util::Rng rng(17);
    for (int i = 0; i < 4000; i++) {
        const int b = rng.nextBool() ? 1 : 0;
        // Branch 0: period-3 pattern; branch 1: biased random.
        const bool taken = b == 0 ? i % 3 != 0 : rng.nextBool(0.8);
        ASSERT_EQ(dense.rawPredict(dense_sids[b]),
                  sparse.rawPredict(sparse_sids[b]))
            << "step " << i;
        ASSERT_EQ(dense.predictAndTrain(dense_sids[b], taken),
                  sparse.predictAndTrain(sparse_sids[b], taken))
            << "step " << i;
    }
    for (int b = 0; b < 2; b++) {
        EXPECT_GT(dense.executions(dense_sids[b]), 0u);
        EXPECT_EQ(dense.executions(dense_sids[b]),
                  sparse.executions(sparse_sids[b]));
        EXPECT_EQ(dense.mispredictions(dense_sids[b]),
                  sparse.mispredictions(sparse_sids[b]));
    }
    EXPECT_EQ(dense.totalMispredictions(), sparse.totalMispredictions());
    EXPECT_EQ(sparse.executions(4), 0u);
}

TEST(Gshare, LearnsGlobalCorrelation)
{
    GsharePredictor p(12);
    // Branch 1's outcome equals branch 0's previous outcome.
    util::Rng rng(5);
    bool prev = false;
    uint64_t miss = 0, total = 0;
    for (int i = 0; i < 4000; i++) {
        const bool b0 = rng.nextBool();
        p.predictAndTrain(0, b0);
        const bool correct = p.predictAndTrain(1, prev);
        if (i > 1000) {
            total++;
            if (!correct)
                miss++;
        }
        prev = b0;
    }
    EXPECT_LT(static_cast<double>(miss) / total, 0.25);
}

TEST(Hybrid, AtLeastAsGoodAsComponentsOnMix)
{
    // Branch 0: period-4 local pattern; branch 1: biased random.
    auto run = [](BranchPredictor &p) {
        util::Rng rng(9);
        for (int i = 0; i < 6000; i++) {
            p.predictAndTrain(0, i % 4 != 3);
            p.predictAndTrain(1, rng.nextBool(0.8));
        }
        return p.overallMissRate();
    };
    HybridPredictor hybrid;
    BimodalPredictor bimodal;
    const double h = run(hybrid);
    const double bi = run(bimodal);
    EXPECT_LE(h, bi + 0.02);
    EXPECT_LT(h, 0.15);
}

TEST(Hybrid, RandomBranchMissesNearHalf)
{
    HybridPredictor p;
    util::Rng rng(4);
    for (int i = 0; i < 8000; i++)
        p.predictAndTrain(3, rng.nextBool());
    EXPECT_GT(p.missRate(3), 0.40);
    EXPECT_LT(p.missRate(3), 0.60);
}

TEST(Stats, PerBranchAccounting)
{
    BimodalPredictor p;
    for (int i = 0; i < 10; i++)
        p.predictAndTrain(2, true);
    for (int i = 0; i < 5; i++)
        p.predictAndTrain(7, i % 2 == 0);
    EXPECT_EQ(p.executions(2), 10u);
    EXPECT_EQ(p.executions(7), 5u);
    EXPECT_EQ(p.executions(99), 0u);
    EXPECT_EQ(p.totalExecutions(), 15u);
    EXPECT_EQ(p.mispredictions(2) + p.mispredictions(7),
              p.totalMispredictions());
    EXPECT_EQ(p.missRate(99), 0.0);
}

TEST(Factory, ByName)
{
    for (const char *name :
         { "perfect", "static", "bimodal", "gshare", "local",
           "hybrid" }) {
        auto p = makePredictor(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_STREQ(p->name(),
                     std::string(name) == "static" ? "static-taken"
                                                   : name);
    }
    EXPECT_EQ(makePredictor("nonsense"), nullptr);
}

TEST(Hybrid, NoAliasingAcrossManyStaticBranches)
{
    // One entry per static branch: thousands of branches with
    // conflicting biases must not disturb each other (bimodal-style
    // per-sid state). The paper's measurement methodology requires
    // alias-free per-branch tracking.
    HybridPredictor p;
    for (int rep = 0; rep < 30; rep++) {
        for (uint32_t sid = 0; sid < 2000; sid++)
            p.predictAndTrain(sid, sid % 2 == 0);
    }
    uint64_t late_miss = 0;
    for (uint32_t sid = 0; sid < 2000; sid++) {
        if (!p.predictAndTrain(sid, sid % 2 == 0))
            late_miss++;
    }
    EXPECT_LT(late_miss, 40u);
}

} // namespace
} // namespace bioperf::branch
