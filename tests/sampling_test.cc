/**
 * @file
 * Sampled-timing estimator suite: sampled CPI must track full
 * detailed-replay CPI within its stated error bars on real workloads,
 * keyframe entry points must reproduce the sequential stream exactly
 * (suffix replay from any keyframe is bit-identical to skipping the
 * prefix of a sequential replay), sharded parallel sampling must merge
 * to the bit-identical result of the sequential run for any thread
 * count, file-based sampling must equal in-memory sampling, and traces
 * too short for one interval must fall back to exhaustive detailed
 * replay with exact CPI.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/sampling.h"
#include "core/simulator.h"
#include "core/trace_cache.h"
#include "core/trace_file.h"
#include "cpu/platforms.h"
#include "vm/interpreter.h"
#include "vm/trace_codec.h"

namespace bioperf::core {
namespace {

TraceKey
keyFor(const apps::AppInfo &app)
{
    TraceKey key;
    key.app = &app;
    key.variant = apps::Variant::Baseline;
    key.scale = apps::Scale::Small;
    key.seed = 42;
    return key;
}

/**
 * Sampling knobs scaled for Small traces (a few hundred thousand
 * instructions): short warm, fine interval cadence. These are the same
 * knobs the CI accuracy job passes to bioperfsim --sample at Small
 * scale.
 */
SamplingOptions
smallScaleOptions()
{
    SamplingOptions o;
    o.minWarm = 5'000;
    o.interval = 10'000;
    o.detailLen = 7'000;
    o.warmupLen = 2'000;
    return o;
}

TEST(SampledTiming, TracksFullReplayCpiOnSmallWorkloads)
{
    // Apps whose Small traces are long enough for genuine sampling
    // (promlk's 71k instructions are not; it gets the exhaustive
    // fallback, covered below).
    for (const char *name : { "hmmsearch", "clustalw", "hmmcalibrate" }) {
        SCOPED_TRACE(name);
        const apps::AppInfo &app = *apps::findApp(name);
        const TraceCache::Ptr trace =
            TraceCache::record(keyFor(app)).value();

        const cpu::PlatformConfig platform = cpu::alpha21264();
        const TimingResult full = Simulator::time(*trace, platform);
        const double full_cpi =
            static_cast<double>(full.cycles) / full.instructions;

        const SampledTimingResult sampled = sampleTiming(
            *trace, platform, smallScaleOptions());

        EXPECT_FALSE(sampled.exhaustive);
        EXPECT_GT(sampled.intervals, 2u);
        EXPECT_GT(sampled.coverage, 0.0);
        EXPECT_LT(sampled.coverage, 1.0);
        EXPECT_EQ(sampled.instructions, trace->instructions);
        EXPECT_TRUE(sampled.verified);

        // Accept the larger of the estimator's own 95% confidence
        // interval and the 2% acceptance bound.
        const double tolerance =
            std::max(sampled.ci95, 0.02 * full_cpi);
        EXPECT_NEAR(sampled.cpi, full_cpi, tolerance)
            << "sampled " << sampled.cpi << " vs full " << full_cpi
            << " (ci95 " << sampled.ci95 << ")";

        // The projection is just cpi × instructions.
        EXPECT_NEAR(sampled.projectedCycles,
                    sampled.cpi * sampled.instructions,
                    1e-6 * sampled.projectedCycles);
    }
}

TEST(SampledTiming, ShortTraceFallsBackToExhaustiveReplay)
{
    const apps::AppInfo &app = *apps::findApp("promlk");
    const TraceCache::Ptr trace =
        TraceCache::record(keyFor(app)).value();

    const cpu::PlatformConfig platform = cpu::alpha21264();
    // Library defaults want 1M warm instructions; promlk Small has
    // ~71k, far too short for even one interval.
    const SampledTimingResult sampled =
        sampleTiming(*trace, platform, SamplingOptions{});

    EXPECT_TRUE(sampled.exhaustive);
    EXPECT_DOUBLE_EQ(sampled.coverage, 1.0);
    EXPECT_EQ(sampled.ci95, 0.0);

    // Exhaustive fallback IS full detailed replay: CPI is exact.
    const TimingResult full = Simulator::time(*trace, platform);
    const double full_cpi =
        static_cast<double>(full.cycles) / full.instructions;
    EXPECT_DOUBLE_EQ(sampled.cpi, full_cpi);
    EXPECT_EQ(sampled.measuredInstructions, full.instructions);
    EXPECT_EQ(sampled.measuredCycles, full.cycles);
}

/**
 * FNV-1a over DynInstr fields and run-boundary positions, skipping
 * the first @a skip instrs.
 */
struct SuffixHashSink : vm::TraceSink
{
    uint64_t skip = 0;
    uint64_t hash = 1469598103934665603ull;
    uint64_t instrs = 0;

    void mix(uint64_t v)
    {
        for (int i = 0; i < 8; i++) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ull;
        }
    }

    void onInstr(const vm::DynInstr &di) override
    {
        if (skip > 0) {
            skip--;
            return;
        }
        mix(di.instr->sid);
        mix(di.addr);
        mix(di.loadValueBits);
        mix(di.taken ? 1 : 0);
        instrs++;
    }

    /** Run ends inside the hashed suffix, by instruction count. */
    void
    onRunEnd() override
    {
        if (instrs > 0)
            mix(~instrs);
    }
};

/** Counts instructions only. */
struct CountSink : vm::TraceSink
{
    uint64_t instrs = 0;
    void onInstr(const vm::DynInstr &) override { instrs++; }
    void onRunEnd() override {}
};

TEST(SampledTiming, KeyframeSuffixReplayIdenticalToSequential)
{
    const apps::AppInfo &app = *apps::findApp("clustalw");
    apps::AppRun run =
        app.make(apps::Variant::Baseline, apps::Scale::Small, 42);

    // A tight keyframe cadence so a Small trace has several entry
    // points to exercise.
    vm::Interpreter interp(*run.prog);
    vm::TraceRecorder recorder(*run.prog, /*keyframe_interval=*/2);
    interp.addSink(&recorder);
    run.driver(interp);
    const vm::EncodedTrace trace = recorder.finish();
    const auto &chunks = trace.chunks();
    ASSERT_GT(chunks.size(), 4u);

    // Streams chunks [begin, end) into @a sink the way a sampling
    // shard enters its keyframe, with no prefix decoded.
    auto stream = [&](size_t begin, size_t end, vm::TraceSink &sink) {
        vm::TraceReplayer rep(*run.prog);
        rep.addSink(&sink);
        rep.beginStream();
        for (size_t i = begin; i < end; i++)
            EXPECT_TRUE(rep.streamChunk(chunks[i]).ok()) << i;
        return rep.endStream();
    };

    for (size_t k = 0; k < chunks.size(); k += 2) {
        SCOPED_TRACE("keyframe chunk " + std::to_string(k));
        ASSERT_TRUE(trace.isKeyframe(k));

        // Instructions in the prefix [0, k), counted via replay from
        // the top (chunk numEvents includes run-end markers, so it
        // cannot be summed directly).
        CountSink prefix_count;
        stream(0, k, prefix_count);

        // Reference: sequential full replay, hashing the suffix only.
        vm::TraceReplayer sequential(trace, *run.prog);
        SuffixHashSink expect;
        expect.skip = prefix_count.instrs;
        sequential.addSink(&expect);
        ASSERT_TRUE(sequential.replay().ok());

        // Entry straight at the keyframe, no prefix decoded.
        SuffixHashSink got;
        const uint64_t n = stream(k, chunks.size(), got);

        EXPECT_EQ(n, expect.instrs);
        EXPECT_EQ(got.instrs, expect.instrs);
        EXPECT_EQ(got.hash, expect.hash);
    }
}

TEST(SampledTiming, ShardedResultBitIdenticalToSequential)
{
    // Shard sizes round up to the trace's keyframe interval, and a
    // Small trace is shorter than one default (16-chunk) keyframe
    // group — so record with a 2-chunk cadence to get several shards.
    const apps::AppInfo &app = *apps::findApp("hmmsearch");
    apps::AppRun run =
        app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
    vm::Interpreter interp(*run.prog);
    vm::TraceRecorder recorder(*run.prog, /*keyframe_interval=*/2);
    interp.addSink(&recorder);
    run.driver(interp);

    CachedTrace cached;
    cached.prog = std::move(run.prog);
    cached.trace = recorder.finish();
    cached.instructions = cached.trace.instructions();
    cached.verified = true;
    const cpu::PlatformConfig platform = cpu::alpha21264();

    SamplingOptions base = smallScaleOptions();
    // Small shards so a Small trace splits into several of them.
    base.shardChunks = 2;
    base.windowChunks = 2;

    SamplingOptions seq = base;
    seq.threads = 1;
    const SampledTimingResult sequential =
        sampleTiming(cached, platform, seq);
    EXPECT_GT(sequential.shards, 1u);

    for (unsigned threads : { 0u, 2u, 4u }) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        SamplingOptions par = base;
        par.threads = threads;
        const SampledTimingResult sharded =
            sampleTiming(cached, platform, par);
        // report() serializes every number with exact typed
        // round-trip semantics, so string equality is bit equality.
        EXPECT_EQ(sequential.report().dump(), sharded.report().dump());
    }
}

TEST(SampledTiming, SeedChangesPlacementNotValidity)
{
    const apps::AppInfo &app = *apps::findApp("hmmsearch");
    const TraceCache::Ptr trace =
        TraceCache::record(keyFor(app)).value();
    const cpu::PlatformConfig platform = cpu::alpha21264();
    const TimingResult full = Simulator::time(*trace, platform);
    const double full_cpi =
        static_cast<double>(full.cycles) / full.instructions;

    for (uint64_t seed : { 7ull, 99ull, 1234ull }) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        SamplingOptions o = smallScaleOptions();
        o.seed = seed;
        const SampledTimingResult sampled =
            sampleTiming(*trace, platform, o);
        EXPECT_FALSE(sampled.exhaustive);
        const double tolerance =
            std::max(sampled.ci95, 0.02 * full_cpi);
        EXPECT_NEAR(sampled.cpi, full_cpi, tolerance);
    }
}

TEST(SampledTiming, FileSamplingEqualsInMemorySampling)
{
    const apps::AppInfo &app = *apps::findApp("hmmcalibrate");
    const TraceKey key = keyFor(app);
    const TraceCache::Ptr trace = TraceCache::record(key).value();
    const cpu::PlatformConfig platform = cpu::alpha21264();

    const std::string path =
        ::testing::TempDir() + "bioperf_sampling_test.bptrace";
    ASSERT_TRUE(saveTraceFile(path, key, *trace).ok());

    const SamplingOptions opts = smallScaleOptions();
    const SampledTimingResult mem =
        sampleTiming(*trace, platform, opts);
    const SampledFileResult file =
        sampleTimingFile(path, platform, opts);

    EXPECT_TRUE(file.status.ok()) << file.status.str();
    EXPECT_EQ(file.key.str(), key.str());
    EXPECT_EQ(mem.report().dump(), file.result.report().dump());

    std::remove(path.c_str());
}

} // namespace
} // namespace bioperf::core
