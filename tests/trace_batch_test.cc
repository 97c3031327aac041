/**
 * @file
 * Golden-equivalence tests for the batched trace pipeline: every batch
 * capacity, per-instruction delivery (capacity 1) included, must
 * expose bit-identical DynInstr streams to every sink, and
 * Simulator::sweep() must return bit-identical timing results for any
 * worker count.
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

namespace bioperf::vm {
namespace {

/** Batch capacities the delivery tests compare; 1 is the reference. */
constexpr size_t kCapacities[] = { 1, 7, kBatchCapacity };

/**
 * Hashes the observed stream (FNV-1a over sid, op, addr,
 * loadValueBits, taken) so whole-suite comparisons stay O(1) in
 * memory, counts events whose sid or op disagrees with their static
 * instruction, and records the instruction count at every onRunEnd()
 * to check that batches are flushed before run boundaries.
 */
struct StreamHashSink : TraceSink
{
    uint64_t hash = 1469598103934665603ull;
    uint64_t instrs = 0;
    uint64_t mismatched = 0;
    std::vector<uint64_t> run_end_counts;

    void mix(uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ull;
        }
    }

    void onInstr(const DynInstr &di) override
    {
        mix(di.instr->sid);
        mix(di.sid);
        mix(static_cast<uint64_t>(di.op));
        mismatched += !di.matchesInstr();
        mix(di.addr);
        mix(di.loadValueBits);
        mix(di.taken ? 1 : 0);
        instrs++;
    }

    void onRunEnd() override { run_end_counts.push_back(instrs); }
};

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

        // Per-instruction delivery (capacity 1): the reference.
        apps::AppRun ref_run =
            app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
        Interpreter ref_interp(*ref_run.prog, 1);
        StreamHashSink ref;
        ref_interp.addSink(&ref);
        ref_run.driver(ref_interp);
        EXPECT_GT(ref.instrs, 0u);
        EXPECT_EQ(ref.mismatched, 0u);

        for (const size_t capacity : kCapacities) {
            SCOPED_TRACE("capacity " + std::to_string(capacity));
            // Delivery into a sink that only implements onInstr()
            // (default onBatch adapter) and into one that consumes
            // batches natively; both attach to one interpreter so
            // they see the same run.
            apps::AppRun run =
                app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
            Interpreter interp(*run.prog, capacity);
            ASSERT_EQ(interp.batchCapacity(), capacity);
            StreamHashSink adapted;
            BatchHashSink native;
            interp.addSink(&adapted);
            interp.addSink(&native);
            run.driver(interp);

            EXPECT_EQ(ref.instrs, adapted.instrs);
            EXPECT_EQ(ref.instrs, native.instrs);
            EXPECT_EQ(ref.hash, adapted.hash);
            EXPECT_EQ(ref.hash, native.hash);
            EXPECT_EQ(native.mismatched, 0u);

            // Flush-before-onRunEnd: each run boundary must observe
            // the same cumulative count at every capacity.
            EXPECT_EQ(ref.run_end_counts, adapted.run_end_counts);
            EXPECT_EQ(ref.run_end_counts, native.run_end_counts);

            EXPECT_GT(native.batches, 0u);
            EXPECT_LE(native.largest_batch, capacity);
        }
    }
}

/**
 * Re-frames the stream it receives into batches of exactly @a size
 * events for @a inner (the last one before a run end may be shorter),
 * so a consumer sees batch boundaries the interpreter never makes.
 */
struct ReframeSink : TraceSink
{
    ReframeSink(TraceSink &inner, size_t size) : inner(inner), size(size)
    {
    }

    void onInstr(const DynInstr &di) override
    {
        buf.push_back(di);
        if (buf.size() == size)
            flush();
    }

    void onRunEnd() override
    {
        flush();
        inner.onRunEnd();
    }

    void flush()
    {
        if (!buf.empty())
            inner.onBatch(buf.data(), buf.size());
        buf.clear();
    }

    TraceSink &inner;
    size_t size;
    std::vector<DynInstr> buf;
};

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
    // The count and the load/branch profiler also see the stream
    // re-framed (shape > 0): the count grows mid-batch at every offset,
    // and the profiler's segments straddle batch boundaries.
    auto characterize = [&](size_t capacity, size_t shape) {
        apps::AppRun run = app->make(apps::Variant::Baseline,
                                     apps::Scale::Small, 42);
        Interpreter interp(*run.prog, capacity);
        profile::ExecutionCounts counts;
        profile::CacheProfiler cache;
        profile::LoadBranchProfiler lb;
        ReframeSink reframe_counts(counts, shape);
        ReframeSink reframe(lb, shape);
        interp.addSink(shape == 0 ? static_cast<TraceSink *>(&counts)
                                  : &reframe_counts);
        interp.addSink(&cache);
        interp.addSink(shape == 0 ? static_cast<TraceSink *>(&lb)
                                  : &reframe);
        run.driver(interp);
        const profile::CacheSummary c = cache.summary();
        return Counters{ counts.bySid(),
                         counts.opBySid(),
                         c.loadL1Misses,
                         c.loadL2Misses,
                         lb.summary(),
                         lb.nextBranchBySid() };
    };

    const size_t shapes[] = { 0, 1, 7, 255, 256, 257, 512 };
    const Counters a = characterize(1, 0);
    EXPECT_GT(a.lb.dynamicLoads, 0u);
    EXPECT_GT(a.count.size(), 0u);
    for (const size_t capacity : kCapacities) {
        for (const size_t shape : shapes) {
            SCOPED_TRACE("capacity " + std::to_string(capacity) +
                         ", batches of " + std::to_string(shape));
            const Counters b = characterize(capacity, shape);
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
}

TEST(TraceBatch, TimingCoresIdenticalAcrossDeliveryModes)
{
    // Delivery shapes: 0 is the interpreter's own batching; the rest
    // re-frame it so the cores' 256-event chunks start and end
    // mid-batch.
    const size_t shapes[] = { 0, 1, 7, 255, 256, 257, 512 };
    const apps::AppInfo *app = apps::findApp("predator");
    for (const auto &platform :
         { cpu::alpha21264(), cpu::itanium2() }) {
        SCOPED_TRACE(platform.name);
        auto time = [&](size_t capacity, size_t shape) {
            apps::AppRun run = app->make(apps::Variant::Baseline,
                                         apps::Scale::Small, 42);
            mem::CacheHierarchy caches = platform.makeHierarchy();
            auto predictor = platform.makePredictor();
            Interpreter interp(*run.prog, capacity);
            std::unique_ptr<cpu::TimingCore> core;
            if (platform.core.outOfOrder)
                core = std::make_unique<cpu::OooCore>(
                    platform.core, &caches, predictor.get());
            else
                core = std::make_unique<cpu::InorderCore>(
                    platform.core, &caches, predictor.get());
            ReframeSink reframe(*core, shape);
            interp.addSink(shape == 0 ? static_cast<TraceSink *>(core.get())
                                      : &reframe);
            run.driver(interp);
            return std::pair<uint64_t, uint64_t>(
                core->cycles(), core->branchMispredictions());
        };
        const auto a = time(1, 0);
        EXPECT_GT(a.first, 0u);
        for (const size_t capacity : kCapacities) {
            for (const size_t shape : shapes) {
                SCOPED_TRACE("capacity " + std::to_string(capacity) +
                             ", batches of " + std::to_string(shape));
                const auto b = time(capacity, shape);
                EXPECT_EQ(a.first, b.first);
                EXPECT_EQ(a.second, b.second);
            }
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
