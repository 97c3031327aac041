/**
 * @file
 * Record-once/replay-many equivalence suite: a recorded-then-replayed
 * stream must be event-for-event identical to the live interpreter
 * stream, replayed characterization/timing results must equal live
 * results exactly, .bptrace files must round-trip through disk (and
 * fail loudly on truncation / bad magic / version skew), and
 * TraceCache-backed sweeps must be bit-identical to live sweeps for
 * any worker count.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/simulator.h"
#include "core/trace_cache.h"
#include "core/trace_file.h"
#include "cpu/platforms.h"
#include "vm/interpreter.h"
#include "vm/trace_codec.h"

namespace bioperf::core {
namespace {

/**
 * FNV-1a over every DynInstr field plus run-boundary positions, and a
 * count of events whose sid or op disagrees with their instruction.
 */
struct StreamHashSink : vm::TraceSink
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

    void onInstr(const vm::DynInstr &di) override
    {
        mix(di.instr->sid);
        mix(di.sid);
        mix(static_cast<uint64_t>(di.op));
        mismatched += !di.matchesInstr();
        mix(di.seq);
        mix(di.addr);
        mix(di.loadValueBits);
        mix(di.taken ? 1 : 0);
        instrs++;
    }

    void onRunEnd() override { run_end_counts.push_back(instrs); }
};

TraceKey
keyFor(const apps::AppInfo &app, apps::Variant v, apps::Scale s,
       uint64_t seed)
{
    TraceKey key;
    key.app = &app;
    key.variant = v;
    key.scale = s;
    key.seed = seed;
    return key;
}

TEST(TraceReplay, ReplayedStreamIdenticalToLiveForEveryApp)
{
    for (const auto &app : apps::bioperfApps()) {
        SCOPED_TRACE(app.name);

        // Live reference stream, with a recorder riding along.
        apps::AppRun live_run =
            app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
        vm::Interpreter interp(*live_run.prog);
        vm::TraceRecorder recorder(*live_run.prog);
        StreamHashSink live;
        interp.addSink(&recorder);
        interp.addSink(&live);
        live_run.driver(interp);
        const vm::EncodedTrace trace = recorder.finish();

        EXPECT_EQ(trace.instructions(), live.instrs);
        EXPECT_EQ(trace.runs(), live.run_end_counts.size());
        // The tentpole compactness target: ≤8 bytes per instruction
        // on average (typical apps are far below).
        EXPECT_LE(trace.bytesPerInstr(), 8.0)
            << "encoded " << trace.totalBytes() << " bytes for "
            << trace.instructions() << " instrs";

        // Replay against a freshly rebuilt (deterministic) program,
        // as the cache and the .bptrace loader do.
        apps::AppRun rebuilt =
            app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
        vm::TraceReplayer replayer(trace, *rebuilt.prog);
        StreamHashSink replayed;
        replayer.addSink(&replayed);
        const util::StatusOr<uint64_t> n = replayer.replay();

        EXPECT_GT(live.instrs, 0u);
        ASSERT_TRUE(n.ok()) << n.status().str();
        EXPECT_EQ(n.value(), live.instrs);
        EXPECT_EQ(replayed.instrs, live.instrs);
        EXPECT_EQ(replayed.hash, live.hash);
        EXPECT_EQ(replayed.run_end_counts, live.run_end_counts);
        EXPECT_EQ(live.mismatched, 0u);
        EXPECT_EQ(replayed.mismatched, 0u);
    }
}

TEST(TraceReplay, CharacterizeFromReplayEqualsLiveExactly)
{
    for (const char *name : { "hmmsearch", "promlk" }) {
        SCOPED_TRACE(name);
        const apps::AppInfo &app = *apps::findApp(name);

        apps::AppRun run =
            app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
        const CharacterizationResult live =
            Simulator::characterize(run);

        const TraceCache::Ptr trace =
            TraceCache::record(
                keyFor(app, apps::Variant::Baseline, apps::Scale::Small,
                       42))
                .value();
        const CharacterizationResult replayed =
            Simulator::characterize(*trace);

        // report() serializes every summary number with exact typed
        // round-trip semantics, so string equality is bit equality.
        EXPECT_EQ(live.report().dump(), replayed.report().dump());
        EXPECT_TRUE(replayed.verified);
        EXPECT_EQ(live.instructions, replayed.instructions);
    }
}

TEST(TraceReplay, TimeFromReplayEqualsLiveExactly)
{
    const apps::AppInfo &app = *apps::findApp("predator");
    for (const auto &platform :
         { cpu::alpha21264(), cpu::pentium4(), cpu::itanium2() }) {
        SCOPED_TRACE(platform.name);

        apps::AppRun run =
            app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
        Simulator::applyRegisterPressure(run, platform);
        const TimingResult live = Simulator::time(run, platform);

        TraceKey key = keyFor(app, apps::Variant::Baseline,
                              apps::Scale::Small, 42);
        key.registerPressure = true;
        key.intRegs = platform.core.numIntRegs;
        key.fpRegs = platform.core.numFpRegs;
        const TraceCache::Ptr trace = TraceCache::record(key).value();
        const TimingResult replayed = Simulator::time(*trace, platform);

        EXPECT_TRUE(replayed.verified);
        EXPECT_EQ(live.report().dump(), replayed.report().dump());
    }
}

// One pass with every platform's core attached must give the same
// results as a separate pass per platform, from a trace (one decode;
// the sequential sweep path relies on this) and from a live run (one
// interpretation).
TEST(TraceReplay, MultiPlatformTimeMatchesPerPlatformTime)
{
    const apps::AppInfo &app = *apps::findApp("hmmsearch");
    const TraceCache::Ptr trace =
        TraceCache::record(keyFor(app, apps::Variant::Baseline,
                                  apps::Scale::Small, 42))
            .value();

    const std::vector<cpu::PlatformConfig> platforms = {
        cpu::alpha21264(), cpu::pentium4(), cpu::itanium2()
    };
    std::vector<const cpu::PlatformConfig *> ptrs;
    for (const auto &p : platforms)
        ptrs.push_back(&p);

    const std::vector<TimingResult> grouped =
        Simulator::time(*trace, ptrs);
    apps::AppRun run =
        app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
    const std::vector<TimingResult> grouped_live =
        Simulator::time(run, ptrs);
    ASSERT_EQ(grouped.size(), platforms.size());
    ASSERT_EQ(grouped_live.size(), platforms.size());
    for (size_t i = 0; i < platforms.size(); i++) {
        SCOPED_TRACE(platforms[i].name);
        const TimingResult solo = Simulator::time(*trace, platforms[i]);
        EXPECT_EQ(solo.report().dump(), grouped[i].report().dump());

        apps::AppRun solo_run =
            app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
        const TimingResult solo_live =
            Simulator::time(solo_run, platforms[i]);
        EXPECT_TRUE(grouped_live[i].verified);
        EXPECT_EQ(solo_live.report().dump(),
                  grouped_live[i].report().dump());
    }
}

class BptraceFileTest : public ::testing::Test
{
  protected:
    std::string path_;

    void SetUp() override
    {
        // One file per case: ctest runs the cases as concurrent
        // processes, which must not share a path.
        path_ = ::testing::TempDir() + "trace_replay_test_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                ".bptrace";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Reads the whole file; empty when it cannot be opened. */
    static std::string slurp(const std::string &path)
    {
        FILE *f = std::fopen(path.c_str(), "rb");
        EXPECT_NE(f, nullptr);
        if (!f)
            return {};
        std::string data;
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            data.append(buf, n);
        std::fclose(f);
        return data;
    }

    static void spit(const std::string &path, const std::string &data)
    {
        FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f),
                  data.size());
        std::fclose(f);
    }
};

TEST_F(BptraceFileTest, RoundTripsThroughDisk)
{
    const apps::AppInfo &app = *apps::findApp("clustalw");
    const TraceKey key = keyFor(app, apps::Variant::Baseline,
                                apps::Scale::Small, 7);
    const TraceCache::Ptr recorded = TraceCache::record(key).value();
    ASSERT_TRUE(recorded->verified);
    ASSERT_TRUE(saveTraceFile(path_, key, *recorded).ok());

    const TraceLoadResult loaded = loadTraceFile(path_);
    ASSERT_TRUE(loaded.status.ok()) << loaded.status.str();
    ASSERT_NE(loaded.trace, nullptr);
    EXPECT_EQ(loaded.key.str(), key.str());
    EXPECT_TRUE(loaded.trace->verified);
    EXPECT_EQ(loaded.trace->instructions, recorded->instructions);
    EXPECT_EQ(loaded.trace->trace.totalBytes(),
              recorded->trace.totalBytes());

    // The loaded trace must drive analyses identically to the
    // in-memory recording.
    const CharacterizationResult a =
        Simulator::characterize(*recorded);
    const CharacterizationResult b =
        Simulator::characterize(*loaded.trace);
    EXPECT_EQ(a.report().dump(), b.report().dump());
}

TEST_F(BptraceFileTest, RejectsTruncationBadMagicAndVersionSkew)
{
    const apps::AppInfo &app = *apps::findApp("fasta");
    const TraceKey key = keyFor(app, apps::Variant::Baseline,
                                apps::Scale::Small, 42);
    const TraceCache::Ptr recorded = TraceCache::record(key).value();
    ASSERT_TRUE(saveTraceFile(path_, key, *recorded).ok());
    const std::string good = slurp(path_);
    ASSERT_GT(good.size(), 64u);

    // Truncation at several depths: header, identity, chunk payload,
    // missing trailer.
    for (const size_t keep :
         { size_t(4), size_t(20), good.size() / 2, good.size() - 4 }) {
        SCOPED_TRACE(keep);
        spit(path_, good.substr(0, keep));
        const TraceLoadResult r = loadTraceFile(path_);
        EXPECT_EQ(r.trace, nullptr);
        EXPECT_FALSE(r.status.ok());
    }

    // Bad magic.
    std::string bad = good;
    bad[0] = 'X';
    spit(path_, bad);
    EXPECT_NE(loadTraceFile(path_).status.message().find("magic"),
              std::string::npos);

    // Version skew (version field follows the 8-byte magic); only
    // the current version is read, so the retired v2 fails the same
    // way as an unknown one.
    for (const char version : { 99, 2 }) {
        SCOPED_TRACE(static_cast<int>(version));
        bad = good;
        bad[8] = version;
        spit(path_, bad);
        EXPECT_NE(loadTraceFile(path_).status.message().find("version"),
                  std::string::npos);
    }

    // Missing file.
    std::remove(path_.c_str());
    EXPECT_FALSE(loadTraceFile(path_).status.ok());
}

TEST(TraceReplay, SweepWithTraceCacheBitIdenticalForAnyThreadCount)
{
    // One workload (no register pressure, so all four platforms share
    // a single trace) plus a register-pressure pair that shares only
    // between the 32-register platforms — both cache shapes covered.
    std::vector<SweepJob> jobs;
    for (const auto &platform : cpu::evaluationPlatforms()) {
        SweepJob job;
        job.app = apps::findApp("hmmsearch");
        job.platform = platform;
        job.variant = apps::Variant::Baseline;
        job.scale = apps::Scale::Small;
        job.seed = 42;
        job.registerPressure = false;
        jobs.push_back(job);
        job.registerPressure = true;
        jobs.push_back(job);
    }

    // Reference: each job run live, as the sweep's live path runs it.
    std::vector<TimingResult> reference;
    for (const SweepJob &job : jobs) {
        TraceKey key;
        key.app = job.app;
        key.variant = job.variant;
        key.scale = job.scale;
        key.seed = job.seed;
        key.registerPressure = job.registerPressure;
        if (job.registerPressure) {
            key.intRegs = job.platform.core.numIntRegs;
            key.fpRegs = job.platform.core.numFpRegs;
        }
        apps::AppRun run = makeWorkload(key);
        reference.push_back(Simulator::time(run, job.platform));
    }

    // The calling thread times each workload's jobs in one live pass
    // and records nothing; pool workers record the shared workloads.
    // An explicit 2, not 0: the pool default is inline when
    // BIOPERF_THREADS=1 or on a one-CPU host.
    for (const unsigned threads : { 1u, 2u }) {
        SCOPED_TRACE(threads);
        SweepOptions opts;
        opts.threads = threads;
        TraceCache::Stats stats;
        opts.statsOut = &stats;
        const auto traced = Simulator::sweep(jobs, opts);
        ASSERT_EQ(traced.size(), reference.size());
        for (size_t i = 0; i < traced.size(); i++) {
            SCOPED_TRACE(i);
            EXPECT_TRUE(traced[i].verified);
            EXPECT_EQ(reference[i].report().dump(),
                      traced[i].report().dump());
        }
        if (threads == 1) {
            EXPECT_EQ(stats.records, 0u);
            EXPECT_EQ(stats.hits, 0u);
            EXPECT_EQ(stats.replayedInstructions, 0u);
            continue;
        }
        // 4 platforms share the pressure-free trace; alpha+ppc share
        // the 32-register one. p4/itanium pressure jobs run live.
        EXPECT_EQ(stats.records, 2u);
        EXPECT_EQ(stats.hits, 4u);
        EXPECT_GT(stats.replayedInstructions, 0u);
    }
}

TEST(TraceReplay, CharacterizeSweepSharesOneRecordingAcrossJobs)
{
    std::vector<CharacterizeJob> jobs(3);
    for (auto &job : jobs) {
        job.app = apps::findApp("blast");
        job.scale = apps::Scale::Small;
        job.seed = 42;
    }
    apps::AppRun run = jobs[0].app->make(apps::Variant::Baseline,
                                         apps::Scale::Small, 42);
    const CharacterizationResult live = Simulator::characterize(run);

    // On the calling thread the three jobs share one live pass and
    // nothing is recorded; pool workers share one recording (2, not
    // the pool default, which is inline on a one-CPU host).
    for (const unsigned threads : { 1u, 2u }) {
        SCOPED_TRACE(threads);
        SweepOptions opts;
        opts.threads = threads;
        TraceCache::Stats stats;
        opts.statsOut = &stats;
        const auto swept = Simulator::characterizeSweep(jobs, opts);
        ASSERT_EQ(swept.size(), jobs.size());
        for (const auto &r : swept) {
            EXPECT_TRUE(r.verified);
            EXPECT_EQ(live.report().dump(), r.report().dump());
        }
        EXPECT_EQ(stats.records, threads == 1 ? 0u : 1u);
        EXPECT_EQ(stats.hits, threads == 1 ? 0u : 2u);
    }
}

TEST(TraceReplay, PersistentCacheReusesRecordingsAcrossSpeedupCalls)
{
    const apps::AppInfo &app = *apps::findApp("hmmsearch");
    const cpu::PlatformConfig alpha = cpu::alpha21264();
    cpu::PlatformConfig weak = alpha;
    weak.predictor = "bimodal";

    const SpeedupResult live_a =
        Simulator::speedup(app, alpha, apps::Scale::Small, 42);
    const SpeedupResult live_b =
        Simulator::speedup(app, weak, apps::Scale::Small, 42);

    TraceCache cache;
    const SpeedupResult traced_a = Simulator::speedup(
        app, alpha, apps::Scale::Small, 42, 1, &cache);
    const SpeedupResult traced_b = Simulator::speedup(
        app, weak, apps::Scale::Small, 42, 1, &cache);

    EXPECT_EQ(live_a.report().dump(), traced_a.report().dump());
    EXPECT_EQ(live_b.report().dump(), traced_b.report().dump());
    // Two recordings (baseline + transformed) on the first call; the
    // second call replays both from the cache.
    EXPECT_EQ(cache.stats().records, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_GT(cache.totalBytes(), 0u);
}

TEST(TraceReplay, TraceKeyDistinguishesRegisterFiles)
{
    const apps::AppInfo &app = *apps::findApp("hmmsearch");
    TraceKey a = keyFor(app, apps::Variant::Baseline,
                        apps::Scale::Small, 42);
    TraceKey b = a;
    EXPECT_EQ(a.str(), b.str());
    b.registerPressure = true;
    b.intRegs = 8;
    b.fpRegs = 8;
    EXPECT_NE(a.str(), b.str());
    TraceKey c = b;
    c.intRegs = 32;
    c.fpRegs = 32;
    EXPECT_NE(b.str(), c.str());
    b.seed = 43;
    EXPECT_NE(a.str(), b.str());
}

} // namespace
} // namespace bioperf::core
