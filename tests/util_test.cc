#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace bioperf::util {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; i++)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; i++)
        if (a.next() == b.next())
            same++;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (uint64_t bound : { 1ull, 2ull, 3ull, 10ull, 1000ull }) {
        for (int i = 0; i < 200; i++)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(11);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; i++)
        seen.insert(rng.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; i++) {
        const int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        const double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 10000; i++)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double v : { 2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0 })
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.stderror(), 0.0);
    EXPECT_EQ(s.ci95(), 0.0);
    EXPECT_EQ(s.cv(), 0.0);
}

TEST(RunningStats, ConfidenceHelpers)
{
    RunningStats s;
    for (double v : { 2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0 })
        s.add(v);
    const double sd = std::sqrt(32.0 / 7.0);
    EXPECT_NEAR(s.stddev(), sd, 1e-12);
    EXPECT_NEAR(s.stderror(), sd / std::sqrt(8.0), 1e-12);
    EXPECT_NEAR(s.ci95(), 1.96 * sd / std::sqrt(8.0), 1e-12);
    EXPECT_NEAR(s.cv(), sd / 5.0, 1e-12);
}

TEST(RunningStats, SingleSampleHasNoSpread)
{
    RunningStats s;
    s.add(3.5);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_EQ(s.ci95(), 0.0);
    EXPECT_EQ(s.cv(), 0.0);
}

TEST(Means, KnownValues)
{
    const std::vector<double> xs = { 1.0, 2.0, 4.0 };
    EXPECT_NEAR(arithmeticMean(xs), 7.0 / 3.0, 1e-12);
    EXPECT_NEAR(harmonicMean(xs), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
}

TEST(Means, OrderingInequality)
{
    // HM <= AM for positive values.
    const std::vector<double> xs = { 1.1, 3.7, 2.9, 0.4, 8.0 };
    EXPECT_LE(harmonicMean(xs), arithmeticMean(xs) + 1e-12);
}

TEST(Means, EmptyIsZero)
{
    EXPECT_EQ(arithmeticMean({}), 0.0);
    EXPECT_EQ(harmonicMean({}), 0.0);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({ "name", "value" });
    t.row().cell("alpha").cell(uint64_t(42));
    t.row().cell("b").cellPercent(12.345, 1);
    const std::string s = t.str();
    EXPECT_NE(s.find("| name  | value |"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("12.3%"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TextTable, DoubleFormatting)
{
    TextTable t({ "x" });
    t.row().cell(3.14159, 3);
    EXPECT_NE(t.str().find("3.142"), std::string::npos);
}

TEST(ThreadPool, ThrowingTaskSurfacesOnGetWithoutWedgingTheQueue)
{
    ThreadPool pool(2);
    std::future<int> boom = pool.submit([]() -> int {
        throw std::runtime_error("task exploded");
    });

    // Tasks submitted after (and alongside) the throwing one must
    // still run to completion: the exception belongs to its future,
    // not to the worker or the queue.
    std::atomic<int> completed{ 0 };
    std::vector<std::future<int>> after;
    for (int i = 0; i < 8; i++)
        after.push_back(pool.submit([i, &completed]() {
            completed.fetch_add(1);
            return i * i;
        }));

    EXPECT_THROW(boom.get(), std::runtime_error);
    for (int i = 0; i < 8; i++)
        EXPECT_EQ(after[static_cast<size_t>(i)].get(), i * i);
    EXPECT_EQ(completed.load(), 8);
}

TEST(ThreadPool, EveryTaskThrowingLeavesPoolDestructible)
{
    std::vector<std::future<void>> futures;
    {
        ThreadPool pool(3);
        for (int i = 0; i < 12; i++)
            futures.push_back(pool.submit(
                [] { throw std::runtime_error("all fail"); }));
        for (auto &f : futures)
            EXPECT_THROW(f.get(), std::runtime_error);
        // Pool destructor joins workers; a wedged queue would hang
        // here and trip the test timeout.
    }
    SUCCEED();
}

} // namespace
} // namespace bioperf::util
