/**
 * @file
 * Golden-equivalence tests for the batched trace pipeline: the
 * interpreter's stream re-framed into batches of any size, batches of
 * one included, must expose bit-identical DynInstr streams to every
 * sink, and Simulator::sweep() must return bit-identical timing
 * results for any worker count.
 */
#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/simulator.h"
#include "cpu/inorder_core.h"
#include "cpu/ooo_core.h"
#include "cpu/platforms.h"
#include "profile/cache_profiler.h"
#include "profile/execution_counts.h"
#include "profile/load_branch.h"
#include "vm/interpreter.h"

#include "stream_sinks.h"

namespace bioperf::vm {
namespace {

using test::ReframeSink;
using test::StreamHashSink;

/**
 * Delivery shapes the tests compare: 0 is the interpreter's own
 * batches of kBatchCapacity; the rest re-frame them (ReframeSink), so
 * batches start and end across the cores' 256-event chunks. Batches
 * of 1 are the reference.
 */
constexpr size_t kShapes[] = { 0, 1, 7, 255, 256, 257, kBatchCapacity };

/** @a sink itself at shape 0, else @a reframe, which wraps it. */
TraceSink *
framed(TraceSink &sink, ReframeSink &reframe, size_t shape)
{
    return shape == 0 ? &sink : &reframe;
}

/** Same hash, but consumed through a native onBatch() override. */
struct BatchHashSink : StreamHashSink
{
    uint64_t batches = 0;
    size_t largest_batch = 0;

    void onBatch(const DynInstr *batch, size_t n) override
    {
        batches++;
        if (n > largest_batch)
            largest_batch = n;
        for (size_t i = 0; i < n; i++)
            StreamHashSink::onInstr(batch[i]);
    }
};

TEST(TraceBatch, AllAppsStreamIdenticalAcrossDeliveryModes)
{
    for (const auto &app : apps::bioperfApps()) {
        SCOPED_TRACE(app.name);

        // Batches of one: the reference.
        apps::AppRun ref_run =
            app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
        Interpreter ref_interp(*ref_run.prog);
        StreamHashSink ref;
        ReframeSink ref_reframe(ref, 1);
        ref_interp.addSink(&ref_reframe);
        ref_run.driver(ref_interp);
        EXPECT_GT(ref.instrs, 0u);
        EXPECT_EQ(ref.mismatched, 0u);

        for (const size_t shape : kShapes) {
            SCOPED_TRACE("batches of " + std::to_string(shape));
            // Delivery into a sink that only implements onInstr()
            // (default onBatch loop) and into one that consumes
            // batches natively; both attach to one interpreter so
            // they see the same run.
            apps::AppRun run =
                app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
            Interpreter interp(*run.prog);
            StreamHashSink adapted;
            BatchHashSink native;
            ReframeSink reframe_adapted(adapted, shape);
            ReframeSink reframe_native(native, shape);
            interp.addSink(framed(adapted, reframe_adapted, shape));
            interp.addSink(framed(native, reframe_native, shape));
            run.driver(interp);

            EXPECT_EQ(ref.instrs, adapted.instrs);
            EXPECT_EQ(ref.instrs, native.instrs);
            EXPECT_EQ(ref.hash, adapted.hash);
            EXPECT_EQ(ref.hash, native.hash);
            EXPECT_EQ(native.mismatched, 0u);

            // Flush-before-onRunEnd: each run boundary must observe
            // the same cumulative count at every shape.
            EXPECT_EQ(ref.run_end_counts, adapted.run_end_counts);
            EXPECT_EQ(ref.run_end_counts, native.run_end_counts);

            EXPECT_GT(native.batches, 0u);
            EXPECT_LE(native.largest_batch,
                      shape == 0 ? kBatchCapacity : shape);
        }
    }
}

/** The bits of a double: equal bits, not merely equal values. */
uint64_t
bitsOf(double d)
{
    return std::bit_cast<uint64_t>(d);
}

TEST(TraceBatch, ProfilerCountersIdenticalAcrossDeliveryModes)
{
    const apps::AppInfo *app = apps::findApp("hmmsearch");

    struct Counters
    {
        std::vector<uint64_t> count;
        std::vector<ir::Opcode> op;
        uint64_t l1_miss, l2_miss;
        profile::LoadBranchSummary lb;
        std::vector<profile::LoadBranchProfiler::NextBranch> next;
    };
    // Re-framed, the count grows mid-batch at every offset, and the
    // load/branch profiler's segments straddle batch boundaries.
    auto characterize = [&](size_t shape) {
        apps::AppRun run = app->make(apps::Variant::Baseline,
                                     apps::Scale::Small, 42);
        Interpreter interp(*run.prog);
        profile::ExecutionCounts counts;
        profile::CacheProfiler cache;
        profile::LoadBranchProfiler lb;
        ReframeSink reframe_counts(counts, shape);
        ReframeSink reframe_cache(cache, shape);
        ReframeSink reframe_lb(lb, shape);
        interp.addSink(framed(counts, reframe_counts, shape));
        interp.addSink(framed(cache, reframe_cache, shape));
        interp.addSink(framed(lb, reframe_lb, shape));
        run.driver(interp);
        const profile::CacheSummary c = cache.summary();
        return Counters{ counts.bySid(),
                         counts.opBySid(),
                         c.loadL1Misses,
                         c.loadL2Misses,
                         lb.summary(),
                         lb.nextBranchBySid() };
    };

    const Counters a = characterize(1);
    EXPECT_GT(a.lb.dynamicLoads, 0u);
    EXPECT_GT(a.count.size(), 0u);
    for (const size_t shape : kShapes) {
        SCOPED_TRACE("batches of " + std::to_string(shape));
        const Counters b = characterize(shape);
        EXPECT_EQ(a.count, b.count);
        EXPECT_EQ(a.op, b.op);
        EXPECT_EQ(a.l1_miss, b.l1_miss);
        EXPECT_EQ(a.l2_miss, b.l2_miss);
        EXPECT_EQ(a.lb.dynamicLoads, b.lb.dynamicLoads);
        EXPECT_EQ(bitsOf(a.lb.loadToBranchFraction),
                  bitsOf(b.lb.loadToBranchFraction));
        EXPECT_EQ(bitsOf(a.lb.ltbBranchMissRate),
                  bitsOf(b.lb.ltbBranchMissRate));
        EXPECT_EQ(bitsOf(a.lb.loadAfterHardBranchFraction),
                  bitsOf(b.lb.loadAfterHardBranchFraction));
        ASSERT_EQ(a.next.size(), b.next.size());
        for (size_t sid = 0; sid < a.next.size(); sid++) {
            EXPECT_EQ(a.next[sid].execs, b.next[sid].execs) << sid;
            EXPECT_EQ(a.next[sid].misses, b.next[sid].misses) << sid;
        }
    }
}

TEST(TraceBatch, TimingCoresIdenticalAcrossDeliveryModes)
{
    const apps::AppInfo *app = apps::findApp("predator");
    for (const auto &platform :
         { cpu::alpha21264(), cpu::itanium2() }) {
        SCOPED_TRACE(platform.name);
        auto time = [&](size_t shape) {
            apps::AppRun run = app->make(apps::Variant::Baseline,
                                         apps::Scale::Small, 42);
            mem::CacheHierarchy caches = platform.makeHierarchy();
            auto predictor = platform.makePredictor();
            Interpreter interp(*run.prog);
            std::unique_ptr<cpu::TimingCore> core;
            if (platform.core.outOfOrder)
                core = std::make_unique<cpu::OooCore>(
                    platform.core, &caches, predictor.get());
            else
                core = std::make_unique<cpu::InorderCore>(
                    platform.core, &caches, predictor.get());
            ReframeSink reframe(*core, shape);
            interp.addSink(framed(*core, reframe, shape));
            run.driver(interp);
            return std::pair<uint64_t, uint64_t>(
                core->cycles(), core->branchMispredictions());
        };
        const auto a = time(1);
        EXPECT_GT(a.first, 0u);
        for (const size_t shape : kShapes) {
            SCOPED_TRACE("batches of " + std::to_string(shape));
            const auto b = time(shape);
            EXPECT_EQ(a.first, b.first);
            EXPECT_EQ(a.second, b.second);
        }
    }
}

TEST(TraceBatch, SweepBitIdenticalForAnyThreadCount)
{
    std::vector<core::SweepJob> jobs;
    for (const char *name : { "hmmsearch", "predator" }) {
        for (const auto &platform :
             { cpu::alpha21264(), cpu::pentium4() }) {
            for (apps::Variant v : { apps::Variant::Baseline,
                                     apps::Variant::Transformed }) {
                core::SweepJob job;
                job.app = apps::findApp(name);
                job.platform = platform;
                job.variant = v;
                job.scale = apps::Scale::Small;
                job.seed = 42;
                jobs.push_back(job);
            }
        }
    }

    const auto serial = core::Simulator::sweep(jobs, 1);
    const auto parallel = core::Simulator::sweep(jobs, 4);
    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); i++) {
        SCOPED_TRACE(i);
        EXPECT_TRUE(serial[i].verified);
        EXPECT_TRUE(parallel[i].verified);
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles);
        EXPECT_EQ(serial[i].instructions, parallel[i].instructions);
        EXPECT_EQ(serial[i].mispredicts, parallel[i].mispredicts);
    }
}

TEST(TraceBatch, CharacterizeSweepMatchesSerialCharacterize)
{
    std::vector<core::CharacterizeJob> jobs;
    for (const char *name : { "hmmsearch", "clustalw" }) {
        core::CharacterizeJob job;
        job.app = apps::findApp(name);
        job.scale = apps::Scale::Small;
        job.seed = 42;
        jobs.push_back(job);
    }
    const auto swept = core::Simulator::characterizeSweep(jobs, 2);
    ASSERT_EQ(swept.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); i++) {
        SCOPED_TRACE(jobs[i].app->name);
        apps::AppRun run = jobs[i].app->make(
            apps::Variant::Baseline, apps::Scale::Small, 42);
        const auto direct = core::Simulator::characterize(run);
        EXPECT_TRUE(swept[i].verified);
        EXPECT_EQ(swept[i].instructions, direct.instructions);
        EXPECT_EQ(swept[i].mix.loads, direct.mix.loads);
        EXPECT_EQ(swept[i].cache.loadL1Misses,
                  direct.cache.loadL1Misses);
        // Each job gets the per-load table of its own sequential pass.
        EXPECT_FALSE(swept[i].loads.empty());
        EXPECT_EQ(swept[i].loads, direct.loads);
    }
}

} // namespace
} // namespace bioperf::vm
