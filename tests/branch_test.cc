#include <gtest/gtest.h>

#include <vector>

#include "apps/app.h"
#include "branch/predictors.h"
#include "util/rng.h"
#include "vm/interpreter.h"

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

/**
 * The hybrid composed the way it was before it became one record per
 * branch: a LocalPredictor and a GsharePredictor reached through
 * rawPredict()/rawTrain(), a sid-indexed 2-bit chooser (>=2 prefers
 * local) and per-branch counts of its own.
 */
class ReferenceHybrid
{
  public:
    bool
    predict(uint32_t sid)
    {
        grow(sid);
        local_pred_ = local_.rawPredict(sid);
        gshare_pred_ = gshare_.rawPredict(sid);
        return detail::counterTaken(chooser_[sid]) ? local_pred_
                                                   : gshare_pred_;
    }

    bool
    predictAndTrain(uint32_t sid, bool taken)
    {
        const bool p = predict(sid);
        const bool local_ok = local_pred_ == taken;
        if (local_ok != (gshare_pred_ == taken)) {
            uint8_t &c = chooser_[sid];
            if (local_ok && c < 3)
                c++;
            else if (!local_ok && c > 0)
                c--;
        }
        local_.rawTrain(sid, taken);
        gshare_.rawTrain(sid, taken);
        const bool correct = p == taken;
        exec_[sid]++;
        total_exec_++;
        if (!correct) {
            miss_[sid]++;
            total_miss_++;
        }
        return correct;
    }

    void
    reset()
    {
        local_.reset();
        gshare_.reset();
        std::fill(chooser_.begin(), chooser_.end(), 2);
        std::fill(exec_.begin(), exec_.end(), 0);
        std::fill(miss_.begin(), miss_.end(), 0);
        total_exec_ = total_miss_ = 0;
    }

    /** Expects @a h to hold this reference's counts, branch by branch. */
    void
    expectSameCounts(const HybridPredictor &h) const
    {
        for (uint32_t sid = 0; sid < exec_.size(); sid++) {
            ASSERT_EQ(h.executions(sid), exec_[sid]) << "sid " << sid;
            ASSERT_EQ(h.mispredictions(sid), miss_[sid]) << "sid " << sid;
        }
        EXPECT_EQ(h.executions(uint32_t(exec_.size())), 0u);
        EXPECT_EQ(h.totalExecutions(), total_exec_);
        EXPECT_EQ(h.totalMispredictions(), total_miss_);
    }

  private:
    void
    grow(uint32_t sid)
    {
        if (sid >= chooser_.size()) {
            chooser_.resize(sid + 1, 2);
            exec_.resize(sid + 1, 0);
            miss_.resize(sid + 1, 0);
        }
    }

    LocalPredictor local_{ 10 };
    GsharePredictor gshare_{ 12 };
    std::vector<uint8_t> chooser_;
    std::vector<uint64_t> exec_;
    std::vector<uint64_t> miss_;
    uint64_t total_exec_ = 0;
    uint64_t total_miss_ = 0;
    bool local_pred_ = false;
    bool gshare_pred_ = false;
};

/**
 * Feeds one branch to both predictors. @return false at the first
 * disagreement in prediction, outcome or the updated record's counts.
 */
bool
agree(HybridPredictor &h, ReferenceHybrid &ref, uint32_t sid, bool taken)
{
    if (h.rawPredict(sid) != ref.predict(sid))
        return false;
    bool correct;
    const HybridPredictor::Branch &b = h.update(sid, taken, correct);
    return correct == ref.predictAndTrain(sid, taken) &&
           b.executions == h.executions(sid) &&
           b.mispredictions == h.mispredictions(sid);
}

TEST(Hybrid, MatchesComposedReferenceOnEveryAppBranchStream)
{
    /** Drives both predictors from every conditional branch. */
    struct Sink : vm::TraceSink
    {
        HybridPredictor hybrid;
        ReferenceHybrid ref;
        uint64_t branches = 0;
        uint64_t disagreements = 0;
        void
        onInstr(const vm::DynInstr &di) override
        {
            if (di.op != ir::Opcode::Br)
                return;
            branches++;
            disagreements += !agree(hybrid, ref, di.sid, di.taken);
        }
    };
    for (const auto &app : apps::bioperfApps()) {
        SCOPED_TRACE(app.name);
        apps::AppRun run =
            app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
        vm::Interpreter interp(*run.prog);
        Sink sink;
        interp.addSink(&sink);
        run.driver(interp);
        EXPECT_GT(sink.branches, 0u);
        EXPECT_EQ(sink.disagreements, 0u);
        EXPECT_GT(sink.hybrid.totalMispredictions(), 0u);
        sink.ref.expectSameCounts(sink.hybrid);
    }
}

TEST(Hybrid, MatchesComposedReferenceOnSparseSidsAcrossReset)
{
    // Sparse sids far apart; each branch has its own bias, and every
    // fourth is periodic so the local component wins some of them.
    const uint32_t sids[] = { 0, 3, 17, 1000, 4096, 65537, 200000 };
    HybridPredictor hybrid;
    ReferenceHybrid ref;
    util::Rng rng(29);
    for (int phase = 0; phase < 2; phase++) {
        SCOPED_TRACE("phase " + std::to_string(phase));
        for (int i = 0; i < 40000; i++) {
            const size_t k = rng.nextBelow(std::size(sids));
            const bool taken = k % 4 == 0
                ? i % 5 != 0
                : rng.nextBool(0.1 + 0.8 * double(k) / std::size(sids));
            ASSERT_TRUE(agree(hybrid, ref, sids[k], taken))
                << "step " << i << ", sid " << sids[k];
        }
        ref.expectSameCounts(hybrid);
        EXPECT_GT(hybrid.totalMispredictions(), 0u);
        // Reset keeps allocated branches but forgets everything they
        // learned: the second phase replays from the initial state.
        hybrid.reset();
        ref.reset();
        ref.expectSameCounts(hybrid);
        EXPECT_EQ(hybrid.totalExecutions(), 0u);
    }
}

} // namespace
} // namespace bioperf::branch
