/**
 * @file
 * Fault-injection suite: every byte of a .bptrace is covered by a
 * checksum, so any single corruption — truncation at any depth, a
 * payload bit-flip, a metadata bit-flip, a short write — must surface
 * as a Status, never a wrong result; salvage must recover exactly the
 * intact keyframe-aligned regions and the recovered stream must
 * replay and sample through the normal APIs; a failed recording must
 * surface as a Status; and a sweep, which never records, must time
 * every job live with a recording fault armed.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/sampling.h"
#include "core/simulator.h"
#include "core/trace_cache.h"
#include "core/trace_file.h"
#include "cpu/platforms.h"
#include "util/failpoint.h"
#include "vm/interpreter.h"
#include "vm/trace_codec.h"

namespace bioperf::core {
namespace {

/** Disarms every fail point when a test exits, pass or fail. */
struct FailPointGuard
{
    ~FailPointGuard() { util::FailPoints::clearAll(); }
};

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

std::string
tempTrace(const std::string &name)
{
    return ::testing::TempDir() + "bioperf_fault_" + name + ".bptrace";
}

long
fileSize(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return -1;
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    return size;
}

void
flipByteAt(const std::string &path, long offset)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    std::fseek(f, offset, SEEK_SET);
    std::fputc(c ^ 0x40, f);
    std::fclose(f);
}

void
truncateTo(const std::string &src, const std::string &dst, long bytes)
{
    std::FILE *in = std::fopen(src.c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::vector<char> buf(static_cast<size_t>(bytes));
    ASSERT_EQ(std::fread(buf.data(), 1, buf.size(), in), buf.size());
    std::fclose(in);
    std::FILE *out = std::fopen(dst.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), out), buf.size());
    std::fclose(out);
}

void
copyFile(const std::string &src, const std::string &dst)
{
    truncateTo(src, dst, fileSize(src));
}

/**
 * Records @a app Small with a 2-chunk keyframe cadence so that even a
 * Small trace holds several self-contained keyframe groups (the
 * default 16-chunk cadence would make the whole file one group and
 * leave salvage nothing to recover after any damage).
 */
CachedTrace
recordTightKeyframes(const apps::AppInfo &app)
{
    apps::AppRun run =
        app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
    vm::Interpreter interp(*run.prog);
    vm::TraceRecorder recorder(*run.prog, /*keyframe_interval=*/2);
    interp.addSink(&recorder);
    run.driver(interp);
    CachedTrace cached;
    cached.verified = run.verify();
    cached.instructions = interp.totalInstrs();
    cached.trace = recorder.finish();
    cached.prog = std::move(run.prog);
    return cached;
}

// --- fail-point plumbing ----------------------------------------------

TEST(FailPoints, DisarmedCostsNothingAndNeverFires)
{
    util::FailPoints::clearAll();
    EXPECT_FALSE(util::FailPoints::anyArmed());
    EXPECT_FALSE(BIOPERF_FAILPOINT("cache.record.fail"));
    EXPECT_EQ(util::FailPoints::hits("cache.record.fail"), 0u);
}

TEST(FailPoints, SpecParserArmsAndRejects)
{
    FailPointGuard guard;
    ASSERT_TRUE(util::FailPoints::armFromSpec(
                    "trace.write.short=hit:2,codec.chunk.corrupt")
                    .ok());
    std::vector<std::string> names = util::FailPoints::armedNames();
    std::sort(names.begin(), names.end());
    EXPECT_EQ(names, (std::vector<std::string>{
                         "codec.chunk.corrupt", "trace.write.short" }));

    // hit:2 fires on exactly the second hit.
    EXPECT_FALSE(BIOPERF_FAILPOINT("trace.write.short"));
    EXPECT_TRUE(BIOPERF_FAILPOINT("trace.write.short"));
    EXPECT_FALSE(BIOPERF_FAILPOINT("trace.write.short"));
    EXPECT_EQ(util::FailPoints::hits("trace.write.short"), 3u);
    EXPECT_EQ(util::FailPoints::fired("trace.write.short"), 1u);

    // Bare name means always.
    EXPECT_TRUE(BIOPERF_FAILPOINT("codec.chunk.corrupt"));
    EXPECT_TRUE(BIOPERF_FAILPOINT("codec.chunk.corrupt"));

    for (const char *bad : { "=always", "x=hit:0", "x=hit:junk",
                             "x=prob:1.5", "x=prob:0.5:junk",
                             "x=sometimes" }) {
        SCOPED_TRACE(bad);
        EXPECT_FALSE(util::FailPoints::armFromSpec(bad).ok());
    }
}

TEST(FailPoints, SeededProbabilityIsReproducible)
{
    FailPointGuard guard;
    auto sequence = [] {
        EXPECT_TRUE(
            util::FailPoints::armFromSpec("p.test=prob:0.5:1234").ok());
        std::vector<bool> fires;
        for (int i = 0; i < 64; i++)
            fires.push_back(BIOPERF_FAILPOINT("p.test"));
        util::FailPoints::disarm("p.test");
        return fires;
    };
    const std::vector<bool> first = sequence();
    const std::vector<bool> second = sequence();
    EXPECT_EQ(first, second);
    EXPECT_GT(std::count(first.begin(), first.end(), true), 0);
    EXPECT_GT(std::count(first.begin(), first.end(), false), 0);
}

// --- integrity: every corruption is detected --------------------------

TEST(TraceFault, TruncationDetectedAtEveryDepth)
{
    const apps::AppInfo &app = *apps::findApp("promlk");
    const TraceKey key = keyFor(app);
    const TraceCache::Ptr trace = TraceCache::record(key).value();
    const std::string path = tempTrace("trunc_src");
    ASSERT_TRUE(saveTraceFile(path, key, *trace).ok());
    const long size = fileSize(path);
    ASSERT_GT(size, 64);

    // Depths spanning the header, identity block, chunk region and
    // trailer (cutting even one byte must fail the trailer check).
    const std::string cut = tempTrace("trunc_cut");
    for (const long keep :
         { 4L, 16L, 40L, size / 4, size / 2, size - 12, size - 1 }) {
        SCOPED_TRACE("keep " + std::to_string(keep) + " of " +
                     std::to_string(size));
        truncateTo(path, cut, keep);
        const TraceLoadResult loaded = loadTraceFile(cut);
        EXPECT_FALSE(loaded.status.ok());
        EXPECT_EQ(loaded.trace, nullptr);
    }
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(TraceFault, AnySingleByteFlipIsDetected)
{
    const apps::AppInfo &app = *apps::findApp("promlk");
    const TraceKey key = keyFor(app);
    const TraceCache::Ptr trace = TraceCache::record(key).value();
    const std::string path = tempTrace("flip_src");
    ASSERT_TRUE(saveTraceFile(path, key, *trace).ok());
    const long size = fileSize(path);

    // Offsets across the whole layout: magic, version, identity
    // block (metadata digest), chunk framing and payloads (per-chunk
    // CRC32C), trailer. Every flip must be caught by some layer.
    const std::string hurt = tempTrace("flip_hurt");
    for (const long off : { 2L, 9L, 20L, 48L, size / 4, size / 2,
                            3 * size / 4, size - 6, size - 2 }) {
        SCOPED_TRACE("offset " + std::to_string(off) + " of " +
                     std::to_string(size));
        copyFile(path, hurt);
        flipByteAt(hurt, off);
        const TraceLoadResult loaded = loadTraceFile(hurt);
        EXPECT_FALSE(loaded.status.ok());
        EXPECT_EQ(loaded.trace, nullptr);
    }
    std::remove(path.c_str());
    std::remove(hurt.c_str());
}

TEST(TraceFault, ShortWriteFailPointLeavesDetectablyBrokenFile)
{
    FailPointGuard guard;
    const apps::AppInfo &app = *apps::findApp("promlk");
    const TraceKey key = keyFor(app);
    const TraceCache::Ptr trace = TraceCache::record(key).value();
    const std::string path = tempTrace("short_write");

    ASSERT_TRUE(
        util::FailPoints::armFromSpec("trace.write.short").ok());
    const util::Status serr = saveTraceFile(path, key, *trace);
    EXPECT_FALSE(serr.ok());
    EXPECT_EQ(serr.code(), util::StatusCode::kIoError);
    util::FailPoints::clearAll();

    // The interrupted file is on disk but must never load as valid.
    ASSERT_GT(fileSize(path), 0);
    const TraceLoadResult loaded = loadTraceFile(path);
    EXPECT_FALSE(loaded.status.ok());

    // A clean retry of the same save must succeed and round-trip.
    ASSERT_TRUE(saveTraceFile(path, key, *trace).ok());
    const TraceLoadResult reloaded = loadTraceFile(path);
    EXPECT_TRUE(reloaded.status.ok()) << reloaded.status.str();
    EXPECT_EQ(reloaded.trace->instructions, trace->instructions);
    std::remove(path.c_str());
}

TEST(TraceFault, CorruptChunkFailPointIsCaughtOnRead)
{
    FailPointGuard guard;
    const apps::AppInfo &app = *apps::findApp("promlk");
    const TraceKey key = keyFor(app);
    const TraceCache::Ptr trace = TraceCache::record(key).value();
    const std::string path = tempTrace("codec_corrupt");

    // The writer flips a payload bit after computing its CRC: the
    // save itself reports success — exactly the silent-corruption
    // scenario the per-chunk checksums exist for.
    ASSERT_TRUE(
        util::FailPoints::armFromSpec("codec.chunk.corrupt").ok());
    ASSERT_TRUE(saveTraceFile(path, key, *trace).ok());
    util::FailPoints::clearAll();

    const TraceLoadResult loaded = loadTraceFile(path);
    EXPECT_FALSE(loaded.status.ok());
    EXPECT_EQ(loaded.status.code(), util::StatusCode::kCorruptData);
    std::remove(path.c_str());
}

TEST(TraceFault, CorruptChunkCountIsRejectedBeforeSizingAnything)
{
    const apps::AppInfo &app = *apps::findApp("promlk");
    const TraceKey key = keyFor(app);
    const TraceCache::Ptr trace = TraceCache::record(key).value();
    const std::string path = tempTrace("chunk_count");
    ASSERT_TRUE(saveTraceFile(path, key, *trace).ok());

    // The high byte of numChunks, which follows the 68-byte fixed
    // identity fields and the app name: the count becomes ~2^30, far
    // more 25-byte frames than the file holds.
    flipByteAt(path, 68 + static_cast<long>(app.name.size()) + 3);
    const TraceLoadResult loaded = loadTraceFile(path);
    EXPECT_EQ(loaded.status.code(), util::StatusCode::kCorruptData)
        << loaded.status.str();
    EXPECT_EQ(loaded.trace, nullptr);
    TraceFileStream stream;
    EXPECT_EQ(stream.open(path).code(), util::StatusCode::kCorruptData);
    const TraceSalvageResult sr = salvageTraceFile(path);
    EXPECT_FALSE(sr.status.ok());
    EXPECT_EQ(sr.trace, nullptr);
    std::remove(path.c_str());
}

// --- salvage ----------------------------------------------------------

TEST(TraceFault, SalvageRecoversIntactKeyframeRegions)
{
    const apps::AppInfo &app = *apps::findApp("hmmsearch");
    CachedTrace cached = recordTightKeyframes(app);
    const size_t num_chunks = cached.trace.chunks().size();
    ASSERT_GT(num_chunks, 6u);
    const TraceKey key = keyFor(app);

    const std::string path = tempTrace("salvage");
    ASSERT_TRUE(saveTraceFile(path, key, cached).ok());

    // Damage a payload byte around the middle of the file: one
    // 2-chunk keyframe group dies, the rest must survive.
    flipByteAt(path, fileSize(path) / 2);
    ASSERT_FALSE(loadTraceFile(path).status.ok());

    const TraceSalvageResult sr = salvageTraceFile(path);
    ASSERT_TRUE(sr.status.ok()) << sr.status.str();
    ASSERT_NE(sr.trace, nullptr);
    EXPECT_EQ(sr.totalChunks, num_chunks);
    EXPECT_EQ(sr.recoveredChunks + sr.lostChunks, sr.totalChunks);
    EXPECT_GT(sr.recoveredChunks, 0u);
    EXPECT_GT(sr.lostChunks, 0u);
    EXPECT_LE(sr.lostChunks, 2u * 2u); // at most two 2-chunk groups
    EXPECT_EQ(sr.totalInstructions, cached.instructions);
    EXPECT_EQ(sr.recoveredInstructions + sr.lostInstructions,
              sr.totalInstructions);
    EXPECT_GT(sr.recoveredInstructions, 0u);
    EXPECT_LT(sr.recoveredInstructions, sr.totalInstructions);
    // A salvaged trace never claims the golden-model verdict.
    EXPECT_FALSE(sr.trace->verified);
    EXPECT_EQ(sr.trace->instructions, sr.recoveredInstructions);

    // The gap-marked stream replays through the normal timing path.
    const cpu::PlatformConfig platform = cpu::alpha21264();
    const TimingResult timed = Simulator::time(*sr.trace, platform);
    EXPECT_TRUE(timed.status.ok()) << timed.status.str();
    EXPECT_EQ(timed.instructions, sr.recoveredInstructions);
    EXPECT_GT(timed.cycles, 0u);
    std::remove(path.c_str());
}

TEST(TraceFault, GapMarkedTraceRoundTripsThroughAFile)
{
    const apps::AppInfo &app = *apps::findApp("hmmsearch");
    CachedTrace cached = recordTightKeyframes(app);
    const TraceKey key = keyFor(app);
    const std::string path = tempTrace("gap_src");
    ASSERT_TRUE(saveTraceFile(path, key, cached).ok());
    flipByteAt(path, fileSize(path) / 2);
    const TraceSalvageResult sr = salvageTraceFile(path);
    ASSERT_TRUE(sr.status.ok()) << sr.status.str();
    ASSERT_GT(sr.gaps, 0u);

    const std::string saved = tempTrace("gap_saved");
    ASSERT_TRUE(saveTraceFile(saved, key, *sr.trace).ok());
    const TraceLoadResult loaded = loadTraceFile(saved);
    ASSERT_TRUE(loaded.status.ok()) << loaded.status.str();
    const auto &chunks = loaded.trace->trace.chunks();
    EXPECT_EQ(static_cast<size_t>(std::count_if(
                  chunks.begin(), chunks.end(),
                  [](const auto &c) { return c.gapBefore; })),
              sr.gaps);

    const cpu::PlatformConfig platform = cpu::alpha21264();
    const TimingResult direct = Simulator::time(*sr.trace, platform);
    const TimingResult reloaded =
        Simulator::time(*loaded.trace, platform);
    ASSERT_TRUE(direct.status.ok()) << direct.status.str();
    EXPECT_EQ(reloaded.report().dump(), direct.report().dump());
    // Salvaging the intact gap-marked file keeps its gaps.
    const TraceSalvageResult again = salvageTraceFile(saved);
    ASSERT_TRUE(again.status.ok()) << again.status.str();
    EXPECT_EQ(again.gaps, sr.gaps);
    EXPECT_EQ(Simulator::time(*again.trace, platform).report().dump(),
              direct.report().dump());

    SamplingOptions opts;
    opts.minWarm = 5'000;
    opts.interval = 10'000;
    opts.detailLen = 7'000;
    opts.warmupLen = 2'000;
    const SampledTimingResult mem = sampleTiming(*sr.trace, platform, opts);
    const SampledFileResult file = sampleTimingFile(saved, platform, opts);
    ASSERT_TRUE(file.status.ok()) << file.status.str();
    EXPECT_GT(mem.intervals, 0u);
    EXPECT_EQ(file.result.report().dump(), mem.report().dump());
    std::remove(path.c_str());
    std::remove(saved.c_str());
}

TEST(TraceFault, SampledTimingOnSalvagedTraceTracksCleanCpi)
{
    const apps::AppInfo &app = *apps::findApp("hmmsearch");
    CachedTrace cached = recordTightKeyframes(app);
    const TraceKey key = keyFor(app);
    const std::string path = tempTrace("salvage_sample");
    ASSERT_TRUE(saveTraceFile(path, key, cached).ok());
    flipByteAt(path, fileSize(path) / 2);

    const TraceSalvageResult sr = salvageTraceFile(path);
    ASSERT_TRUE(sr.status.ok()) << sr.status.str();

    const cpu::PlatformConfig platform = cpu::alpha21264();
    // The estimator's target is the salvaged stream itself — a full
    // detailed replay of the same gap-marked trace.
    const TimingResult salvaged_full = Simulator::time(*sr.trace, platform);
    ASSERT_TRUE(salvaged_full.status.ok());
    const double salvaged_cpi =
        static_cast<double>(salvaged_full.cycles) /
        salvaged_full.instructions;

    // Small-scale warm/interval knobs, library-default shard size:
    // fine shards re-warm from cold at every boundary, a bias the
    // accuracy suite never gates this tightly.
    SamplingOptions opts;
    opts.minWarm = 5'000;
    opts.interval = 10'000;
    opts.detailLen = 7'000;
    opts.warmupLen = 2'000;
    const SampledTimingResult sampled =
        sampleTiming(*sr.trace, platform, opts);
    EXPECT_TRUE(sampled.status.ok()) << sampled.status.str();
    EXPECT_EQ(sampled.failedShards, 0u);
    EXPECT_EQ(sampled.instructions, sr.recoveredInstructions);
    EXPECT_GT(sampled.intervals, 0u);
    const double tolerance =
        std::max(sampled.ci95, 0.02 * salvaged_cpi);
    EXPECT_NEAR(sampled.cpi, salvaged_cpi, tolerance)
        << "sampled " << sampled.cpi << " vs salvaged-full "
        << salvaged_cpi;

    // And losing one group of a Small trace must not push the
    // estimate far from the clean-trace CPI either (the CI fault job
    // enforces the tight 2% gate at Medium scale, where one group is
    // a far smaller fraction of the stream).
    const TimingResult full = Simulator::time(cached, platform);
    const double full_cpi =
        static_cast<double>(full.cycles) / full.instructions;
    EXPECT_NEAR(sampled.cpi, full_cpi, 0.10 * full_cpi)
        << "salvaged " << sampled.cpi << " vs clean " << full_cpi;
    std::remove(path.c_str());
}

TEST(TraceFault, SalvageRefusesWhenHeaderOrEverythingIsGone)
{
    const apps::AppInfo &app = *apps::findApp("promlk");
    const TraceKey key = keyFor(app);
    const TraceCache::Ptr trace = TraceCache::record(key).value();
    const std::string path = tempTrace("salvage_refuse");
    ASSERT_TRUE(saveTraceFile(path, key, *trace).ok());

    // Magic damage: the recipe is unreadable, nothing to replay
    // against.
    const std::string hurt = tempTrace("salvage_refuse_hurt");
    copyFile(path, hurt);
    flipByteAt(hurt, 2);
    const TraceSalvageResult no_header = salvageTraceFile(hurt);
    EXPECT_FALSE(no_header.status.ok());
    EXPECT_EQ(no_header.trace, nullptr);

    // promlk Small is shorter than one default keyframe group, so a
    // payload flip leaves no intact group at all: salvage must say so
    // rather than fabricate a partial stream.
    copyFile(path, hurt);
    flipByteAt(hurt, fileSize(path) / 2);
    const TraceSalvageResult nothing = salvageTraceFile(hurt);
    EXPECT_FALSE(nothing.status.ok());
    EXPECT_EQ(nothing.recoveredChunks, 0u);
    std::remove(path.c_str());
    std::remove(hurt.c_str());
}

// --- recording failure ------------------------------------------------

TEST(CacheFault, PersistentRecordFailureSurfacesAndDropsEntry)
{
    FailPointGuard guard;
    const apps::AppInfo &app = *apps::findApp("promlk");
    ASSERT_TRUE(
        util::FailPoints::armFromSpec("cache.record.fail").ok());
    util::StatusOr<TraceCache::Ptr> got =
        TraceCache::record(keyFor(app));
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), util::StatusCode::kUnavailable);

    // Nothing is kept, so once the fault clears the key records.
    util::FailPoints::clearAll();
    util::StatusOr<TraceCache::Ptr> retry =
        TraceCache::record(keyFor(app));
    ASSERT_TRUE(retry.ok()) << retry.status().str();
    EXPECT_TRUE(retry.value()->verified);
}

// --- sweep degradation ------------------------------------------------

TEST(SweepFault, WorkerExceptionBecomesPerJobStatus)
{
    FailPointGuard guard;
    const apps::AppInfo &app = *apps::findApp("promlk");
    SweepJob job;
    job.app = &app;
    job.platform = cpu::alpha21264();
    job.scale = apps::Scale::Small;

    // Distinct seeds give each job its own workload, so both run live.
    SweepJob other = job;
    other.seed = job.seed + 1;

    // hit:1 kills exactly the first job; run sequentially so "first"
    // is deterministic.
    ASSERT_TRUE(
        util::FailPoints::armFromSpec("pool.task.throw=hit:1").ok());
    SweepOptions opts;
    opts.threads = 1;
    const std::vector<TimingResult> results =
        Simulator::sweep({ job, other }, opts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].status.ok());
    EXPECT_FALSE(results[0].verified);
    EXPECT_TRUE(results[1].status.ok()) << results[1].status.str();
    EXPECT_TRUE(results[1].verified);
    EXPECT_GT(results[1].cycles, 0u);
}

TEST(SweepFault, AllWorkersThrowingStillReturnsInOrder)
{
    FailPointGuard guard;
    const apps::AppInfo &app = *apps::findApp("promlk");
    SweepJob job;
    job.app = &app;
    job.platform = cpu::alpha21264();
    job.scale = apps::Scale::Small;

    // Distinct seeds give each job its own workload, so all run live.
    std::vector<SweepJob> jobs(3, job);
    for (size_t i = 0; i < jobs.size(); i++)
        jobs[i].seed = job.seed + i;

    ASSERT_TRUE(
        util::FailPoints::armFromSpec("pool.task.throw").ok());
    SweepOptions opts;
    opts.threads = 2;
    const std::vector<TimingResult> results =
        Simulator::sweep(jobs, opts);
    ASSERT_EQ(results.size(), 3u);
    for (size_t i = 0; i < results.size(); i++) {
        SCOPED_TRACE("job " + std::to_string(i));
        EXPECT_FALSE(results[i].status.ok());
        EXPECT_FALSE(results[i].verified);
    }
}

TEST(SweepFault, RecordFailureFallsBackToLivePerJob)
{
    FailPointGuard guard;
    const apps::AppInfo &app = *apps::findApp("promlk");
    // Two workloads (seeds), each shared by two platforms with the
    // same register file: two groups, so threads = 2 runs them on the
    // pool.
    std::vector<SweepJob> jobs;
    for (const uint64_t seed : { 42u, 43u })
        for (const cpu::PlatformConfig &platform :
             { cpu::alpha21264(), cpu::powerpcG5() }) {
            SweepJob job;
            job.app = &app;
            job.platform = platform;
            job.scale = apps::Scale::Small;
            job.seed = seed;
            jobs.push_back(job);
        }
    // Each job live on its own, rewritten for its register file.
    std::vector<TimingResult> reference;
    for (const SweepJob &job : jobs) {
        TraceKey key = keyFor(app);
        key.seed = job.seed;
        key.registerPressure = true;
        key.intRegs = job.platform.core.numIntRegs;
        key.fpRegs = job.platform.core.numFpRegs;
        apps::AppRun run = makeWorkload(key);
        reference.push_back(Simulator::time(run, job.platform));
    }

    // A sweep never records, so an armed record fault changes nothing.
    ASSERT_TRUE(
        util::FailPoints::armFromSpec("cache.record.fail").ok());
    for (const unsigned threads : { 1u, 2u }) {
        SCOPED_TRACE(threads);
        const std::vector<TimingResult> results =
            Simulator::sweep(jobs, threads);
        ASSERT_EQ(results.size(), jobs.size());
        for (size_t i = 0; i < results.size(); i++) {
            SCOPED_TRACE(i);
            EXPECT_TRUE(results[i].status.ok()) << results[i].status.str();
            EXPECT_TRUE(results[i].verified);
            EXPECT_EQ(reference[i].report().dump(),
                      results[i].report().dump());
        }
    }
}

} // namespace
} // namespace bioperf::core
