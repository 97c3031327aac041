/**
 * @file
 * Record-once/replay-many equivalence suite: a recorded-then-replayed
 * stream must be event-for-event identical to the live interpreter
 * stream, replayed characterization/timing results must equal live
 * results exactly, .bptrace files must round-trip through disk (and
 * fail loudly on truncation / bad magic / version skew), and
 * sweeps must equal one live run per job for any worker count.
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
#include "ir/builder.h"
#include "util/failpoint.h"
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
        // The program implies every sid, so only addresses, load
        // values, branch bits and run entries are stored: 0.2-1.4
        // bytes per instruction across the suite (promlk the most).
        EXPECT_LT(trace.bytesPerInstr(), 1.5)
            << "encoded " << trace.totalBytes() << " bytes for "
            << trace.instructions() << " instrs";

        // Replay against a freshly rebuilt (deterministic) program,
        // as the .bptrace loader does.
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
        // The per-load table stays out of report(); compare it whole.
        EXPECT_FALSE(live.loads.empty());
        EXPECT_EQ(live.loads, replayed.loads);
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
// results as a separate pass per platform, from a trace (one decode)
// and from a live run (one interpretation; every sweep relies on
// this).
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

// --- codec framing and program identity ------------------------------

/**
 * StreamHashSink's hash, cut every kChunkEvents events (run-end
 * markers count, as they do in the codec's chunk framing), so each
 * chunk of a recording can be checked on its own.
 */
struct ChunkHashSink : vm::TraceSink
{
    std::vector<uint64_t> hashes;
    /** Per chunk: its first event continues a run already under way. */
    std::vector<bool> mid_run;
    StreamHashSink cur;
    uint32_t events = 0;
    bool in_run = false;

    void count()
    {
        if (++events == vm::TraceRecorder::kChunkEvents)
            cut();
    }
    void cut()
    {
        hashes.push_back(cur.hash);
        cur = StreamHashSink{};
        events = 0;
    }
    void onInstr(const vm::DynInstr &di) override
    {
        if (events == 0)
            mid_run.push_back(in_run);
        in_run = true;
        cur.onInstr(di);
        count();
    }
    void onRunEnd() override
    {
        if (events == 0)
            mid_run.push_back(false);
        in_run = false;
        cur.mix(~0ull);
        count();
    }
    /** Hashes the trailing partial chunk. */
    void finish()
    {
        if (events > 0)
            cut();
    }
};

/**
 * A loop kernel: @a pad straight-line adds, then
 * `for (i = 1; i <= n; i++) arr[i & 7] += i`, which is a load, a
 * store and the loop's branch per iteration.
 */
ir::Function &
loopKernel(ir::Program &prog, int pad)
{
    ir::FunctionBuilder b(prog, "loop");
    const ir::ArrayRef arr = b.longArray("arr", 8);
    const ir::Value n = b.param("n");
    ir::FunctionBuilder::Var acc = b.var("acc");
    b.assign(acc, 0);
    for (int k = 0; k < pad; k++)
        b.assign(acc, ir::Value(acc) + 1);
    ir::FunctionBuilder::Var i = b.var("i");
    b.forLoop(i, b.constI(1), n, [&] {
        const ir::Value slot = ir::Value(i) & 7;
        b.st(arr, slot, b.ld(arr, slot) + ir::Value(i));
    });
    return b.finish();
}

/** Runs @a fn once per entry of @a ns with @a sinks attached. */
void
runKernel(const ir::Program &prog, const ir::Function &fn,
          const std::vector<int64_t> &ns,
          const std::vector<vm::TraceSink *> &sinks)
{
    vm::Interpreter interp(prog);
    for (vm::TraceSink *s : sinks)
        interp.addSink(s);
    for (const int64_t n : ns)
        interp.run(fn, { n });
}

uint64_t
kernelInstrs(int pad, int64_t n)
{
    ir::Program prog;
    const ir::Function &fn = loopKernel(prog, pad);
    vm::Interpreter interp(prog);
    return interp.run(fn, { n });
}

TEST(TraceCodec, HaltClosingAChunkOpensTheNextWithARunEnd)
{
    // Pick the prologue padding and trip count that make one run
    // exactly one chunk long, so its Halt is the chunk's last event.
    const uint64_t per_iter = kernelInstrs(0, 2) - kernelInstrs(0, 1);
    const uint64_t fixed = kernelInstrs(0, 1) - per_iter;
    const uint64_t target = vm::TraceRecorder::kChunkEvents;
    const int64_t trips = static_cast<int64_t>((target - fixed) / per_iter);
    const int pad = static_cast<int>((target - fixed) % per_iter);
    ir::Program prog;
    const ir::Function &fn = loopKernel(prog, pad);
    ASSERT_EQ(kernelInstrs(pad, trips), target);

    vm::TraceRecorder recorder(prog);
    StreamHashSink live;
    runKernel(prog, fn, { trips, 5, 3 }, { &recorder, &live });
    const vm::EncodedTrace trace = recorder.finish();

    ASSERT_EQ(trace.chunks().size(), 2u);
    EXPECT_EQ(trace.chunks()[0].numEvents, target);
    // The run-end marker after a chunk-closing Halt is coded (0).
    ASSERT_FALSE(trace.chunks()[1].bytes.empty());
    EXPECT_EQ(trace.chunks()[1].bytes[0], 0);

    vm::TraceReplayer replayer(trace, prog);
    StreamHashSink replayed;
    replayer.addSink(&replayed);
    const util::StatusOr<uint64_t> n = replayer.replay();
    ASSERT_TRUE(n.ok()) << n.status().str();
    EXPECT_EQ(n.value(), live.instrs);
    EXPECT_EQ(replayed.hash, live.hash);
    EXPECT_EQ(replayed.run_end_counts, live.run_end_counts);
}

TEST(TraceCodec, EveryChunkDecodesAloneAtKeyframeIntervalOne)
{
    const apps::AppInfo &app = *apps::findApp("hmmsearch");
    apps::AppRun run =
        app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
    vm::Interpreter interp(*run.prog);
    vm::TraceRecorder recorder(*run.prog, /*keyframe_interval=*/1);
    ChunkHashSink live;
    interp.addSink(&recorder);
    interp.addSink(&live);
    run.driver(interp);
    live.finish();
    const vm::EncodedTrace trace = recorder.finish();
    const auto &chunks = trace.chunks();
    ASSERT_EQ(chunks.size(), live.hashes.size());
    ASSERT_GT(chunks.size(), 2u);

    // Each chunk is entered on its own, as a sampling shard enters a
    // keyframe; most resume a run that began in an earlier chunk.
    size_t mid_run = 0;
    for (size_t i = 0; i < chunks.size(); i++) {
        SCOPED_TRACE(i);
        mid_run += live.mid_run[i];
        vm::TraceReplayer replayer(*run.prog);
        ChunkHashSink replayed;
        replayer.addSink(&replayed);
        replayer.beginStream();
        const util::Status s = replayer.streamChunk(chunks[i]);
        ASSERT_TRUE(s.ok()) << s.str();
        replayer.endStream();
        replayed.finish();
        ASSERT_EQ(replayed.hashes.size(), 1u);
        EXPECT_EQ(replayed.hashes[0], live.hashes[i]);
    }
    EXPECT_GT(mid_run, 0u);
}

TEST(TraceCodec, MalformedChunksAreCorruptData)
{
    ir::Program prog;
    const ir::Function &fn = loopKernel(prog, 0);
    vm::TraceRecorder recorder(prog);
    runKernel(prog, fn, { 40 }, { &recorder });
    const vm::EncodedTrace trace = recorder.finish();
    ASSERT_EQ(trace.chunks().size(), 1u);
    const vm::EncodedTrace::Chunk &good = trace.chunks()[0];
    ASSERT_GT(good.bitmapOffset, 4u);

    auto decode = [](const ir::Program &p,
                     const vm::EncodedTrace::Chunk &c) {
        vm::TraceReplayer replayer(p);
        replayer.beginStream();
        return replayer.streamChunk(c).code();
    };
    auto coded = [](std::vector<uint8_t> bytes, uint32_t events) {
        vm::EncodedTrace::Chunk c;
        c.bytes = std::move(bytes);
        c.numEvents = events;
        c.bitmapOffset = static_cast<uint32_t>(c.bytes.size());
        c.keyframe = true;
        return c;
    };
    ASSERT_EQ(decode(prog, good), util::StatusCode::kOk);

    std::vector<uint8_t> beyond;
    vm::appendVarint(beyond, uint64_t(prog.sidLimit()) + 1);
    {
        SCOPED_TRACE("opening sid out of range");
        EXPECT_EQ(decode(prog, coded(beyond, 1)),
                  util::StatusCode::kCorruptData);
    }
    {
        SCOPED_TRACE("entry sid after a run-end marker out of range");
        std::vector<uint8_t> bytes{ 0 };
        bytes.insert(bytes.end(), beyond.begin(), beyond.end());
        EXPECT_EQ(decode(prog, coded(bytes, 2)),
                  util::StatusCode::kCorruptData);
    }
    {
        SCOPED_TRACE("truncated payload");
        vm::EncodedTrace::Chunk cut = good;
        cut.bytes.resize(good.bitmapOffset / 2);
        cut.bitmapOffset = static_cast<uint32_t>(cut.bytes.size());
        EXPECT_EQ(decode(prog, cut), util::StatusCode::kCorruptData);
    }
    {
        // Straight-line loads and stores, so the decoder reads payload
        // well before its first branch bit; shrunk to fit, so a
        // sanitized build would also catch a read past the bytes.
        SCOPED_TRACE("bitmap offset beyond the payload");
        ir::Program line;
        ir::FunctionBuilder b(line, "line");
        const ir::ArrayRef arr = b.longArray("arr", 8);
        for (int64_t k = 0; k < 16; k++)
            b.st(arr, k & 7, b.ld(arr, (k + 1) & 7));
        const ir::Function &line_fn = b.finish();
        vm::TraceRecorder line_rec(line);
        vm::Interpreter interp(line);
        interp.addSink(&line_rec);
        interp.run(line_fn);
        vm::EncodedTrace::Chunk cut = line_rec.finish().chunks()[0];
        ASSERT_GT(cut.bitmapOffset, 16u);
        cut.bytes.resize(cut.bitmapOffset / 2);
        cut.bytes.shrink_to_fit();
        EXPECT_EQ(decode(line, cut), util::StatusCode::kCorruptData);
    }
    {
        // A block that falls off its end: no verified program has one,
        // so the only way to reach it is a corrupt chunk.
        SCOPED_TRACE("walk off the program");
        ir::Program open_ended;
        ir::Function &f = open_ended.addFunction("f");
        f.blocks.emplace_back();
        ir::Instr add;
        add.op = ir::Opcode::Add;
        add.sid = open_ended.nextSid();
        f.blocks[0].instrs.push_back(add);
        EXPECT_EQ(decode(open_ended, coded({ 1 }, 2)),
                  util::StatusCode::kCorruptData);
    }
}

TEST(TraceCodec, RecorderRefusesAStreamItsProgramDoesNotImply)
{
    ir::Program prog;
    const ir::Function &fn = loopKernel(prog, 0);
    auto event = [](const ir::Instr &in) {
        vm::DynInstr di;
        di.instr = &in;
        di.op = in.op;
        di.sid = in.sid;
        return di;
    };
    const vm::DynInstr entry = event(fn.blocks[0].instrs[0]);
    auto code_of = [](vm::TraceRecorder &rec, auto feed) {
        try {
            feed(rec);
        } catch (const util::StatusError &e) {
            return e.status().code();
        }
        return util::StatusCode::kOk;
    };
    {
        SCOPED_TRACE("an instruction that is not the successor");
        vm::TraceRecorder rec(prog);
        EXPECT_EQ(code_of(rec,
                          [&](vm::TraceRecorder &r) {
                              r.onInstr(entry);
                              r.onInstr(entry);
                          }),
                  util::StatusCode::kInternal);
    }
    {
        SCOPED_TRACE("a run that ends before Halt");
        vm::TraceRecorder rec(prog);
        EXPECT_EQ(code_of(rec,
                          [&](vm::TraceRecorder &r) {
                              r.onInstr(entry);
                              r.onRunEnd();
                          }),
                  util::StatusCode::kInternal);
    }
}

TEST(TraceCodec, ReplayRefusesAProgramWithOtherControlFlow)
{
    const apps::AppInfo &app = *apps::findApp("fasta");
    apps::AppRun run =
        app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
    vm::Interpreter interp(*run.prog);
    vm::TraceRecorder recorder(*run.prog);
    interp.addSink(&recorder);
    run.driver(interp);
    const vm::EncodedTrace trace = recorder.finish();
    EXPECT_EQ(trace.controlFlowDigest(),
              vm::controlFlowDigest(*run.prog));

    // Same recipe, same sid space, one branch target changed.
    apps::AppRun other =
        app.make(apps::Variant::Baseline, apps::Scale::Small, 42);
    ir::Instr *br = nullptr;
    for (auto &bb : other.prog->function(0).blocks) {
        if (!br && bb.terminator().op == ir::Opcode::Br)
            br = &bb.terminator();
    }
    ASSERT_NE(br, nullptr);
    ASSERT_NE(br->taken, br->notTaken);
    br->taken = br->notTaken;
    ASSERT_EQ(other.prog->sidLimit(), run.prog->sidLimit());

    vm::TraceReplayer replayer(trace, *other.prog);
    StreamHashSink replayed;
    replayer.addSink(&replayed);
    const util::StatusOr<uint64_t> n = replayer.replay();
    ASSERT_FALSE(n.ok());
    EXPECT_EQ(n.status().code(), util::StatusCode::kFailedPrecondition);
    EXPECT_EQ(replayed.instrs, 0u);
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
    // the current version is read, so the retired v2, v3 and v4 fail
    // the same way as an unknown one.
    for (const char version : { 99, 2, 3, 4 }) {
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

TEST_F(BptraceFileTest, RefusesATraceOfOtherControlFlow)
{
    const apps::AppInfo &app = *apps::findApp("fasta");
    const TraceKey key = keyFor(app, apps::Variant::Baseline,
                                apps::Scale::Small, 42);
    const TraceCache::Ptr recorded = TraceCache::record(key).value();
    // A file whose recording program differs from the one its recipe
    // rebuilds (as after a change to the app's kernel).
    CachedTrace skewed;
    skewed.trace = recorded->trace;
    skewed.trace.setControlFlowDigest(
        recorded->trace.controlFlowDigest() ^ 1);
    ASSERT_TRUE(saveTraceFile(path_, key, skewed).ok());

    const TraceLoadResult loaded = loadTraceFile(path_);
    EXPECT_EQ(loaded.status.code(), util::StatusCode::kFailedPrecondition)
        << loaded.status.str();
    EXPECT_EQ(loaded.trace, nullptr);
    EXPECT_EQ(salvageTraceFile(path_).status.code(),
              util::StatusCode::kFailedPrecondition);
}

/**
 * One workload on the four platforms, each rewritten for its register
 * file: the 32-register platforms share one workload, so three
 * distinct keys over four jobs.
 */
std::vector<SweepJob>
platformJobs()
{
    std::vector<SweepJob> jobs;
    for (const auto &platform : cpu::evaluationPlatforms()) {
        SweepJob job;
        job.app = apps::findApp("hmmsearch");
        job.platform = platform;
        job.variant = apps::Variant::Baseline;
        job.scale = apps::Scale::Small;
        job.seed = 42;
        jobs.push_back(job);
    }
    return jobs;
}

/** Each job run live on its own, as the sweep's live path runs it. */
std::vector<TimingResult>
liveReference(const std::vector<SweepJob> &jobs)
{
    std::vector<TimingResult> reference;
    for (const SweepJob &job : jobs) {
        TraceKey key = keyFor(*job.app, job.variant, job.scale, job.seed);
        key.registerPressure = true;
        key.intRegs = job.platform.core.numIntRegs;
        key.fpRegs = job.platform.core.numFpRegs;
        apps::AppRun run = makeWorkload(key);
        reference.push_back(Simulator::time(run, job.platform));
    }
    return reference;
}

TEST(TraceReplay, SweepWithTraceCacheBitIdenticalForAnyThreadCount)
{
    const std::vector<SweepJob> jobs = platformJobs();
    const std::vector<TimingResult> reference = liveReference(jobs);

    // Each workload's jobs ride one live pass, on the calling thread
    // or on one pool worker, and nothing is recorded without a cache.
    // An explicit 2, not 0: the pool default is inline when
    // BIOPERF_THREADS=1 or on a one-CPU host.
    for (const unsigned threads : { 1u, 2u }) {
        SCOPED_TRACE(threads);
        SweepOptions opts;
        opts.threads = threads;
        // Non-zero going in, so the check sees the sweep's zero-fill.
        TraceCache::Stats stats{ 1, 1, 1.0, 1.0 };
        opts.statsOut = &stats;
        const auto traced = Simulator::sweep(jobs, opts);
        ASSERT_EQ(traced.size(), reference.size());
        for (size_t i = 0; i < traced.size(); i++) {
            SCOPED_TRACE(i);
            EXPECT_TRUE(traced[i].verified);
            EXPECT_EQ(reference[i].report().dump(),
                      traced[i].report().dump());
        }
        EXPECT_EQ(stats.records, 0u);
        EXPECT_EQ(stats.hits, 0u);
        EXPECT_EQ(stats.recordSeconds, 0.0);
        EXPECT_EQ(stats.replaySeconds, 0.0);
    }
}

TEST(TraceReplay, CharacterizeSweepSharesOneLivePassAcrossJobs)
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

    // The three jobs share one live pass, on the calling thread or on
    // one pool worker (2, not the pool default, which is inline on a
    // one-CPU host), and nothing is recorded: the armed record fault
    // is never reached.
    struct Disarm
    {
        ~Disarm() { util::FailPoints::clearAll(); }
    } disarm;
    ASSERT_TRUE(
        util::FailPoints::armFromSpec("cache.record.fail").ok());
    for (const unsigned threads : { 1u, 2u }) {
        SCOPED_TRACE(threads);
        const auto swept = Simulator::characterizeSweep(jobs, threads);
        ASSERT_EQ(swept.size(), jobs.size());
        for (const auto &r : swept) {
            EXPECT_TRUE(r.verified);
            EXPECT_EQ(live.report().dump(), r.report().dump());
            EXPECT_EQ(live.loads, r.loads);
        }
        EXPECT_EQ(util::FailPoints::hits("cache.record.fail"), 0u);
    }
}

TEST(TraceReplay, PredictorSweepMatchesOneSpeedupPerPredictor)
{
    const apps::AppInfo &app = *apps::findApp("hmmsearch");

    // The predictor ablation's shape: jobs that differ only in the
    // predictor share the baseline and the transformed workload, so
    // the sweep times them on two live passes.
    std::vector<cpu::PlatformConfig> platforms;
    std::vector<SweepJob> jobs;
    for (const char *pred : { "bimodal", "hybrid", "perfect" }) {
        cpu::PlatformConfig p = cpu::alpha21264();
        p.predictor = pred;
        platforms.push_back(p);
        for (const apps::Variant v :
             { apps::Variant::Baseline, apps::Variant::Transformed }) {
            SweepJob job;
            job.app = &app;
            job.platform = p;
            job.variant = v;
            job.scale = apps::Scale::Small;
            jobs.push_back(job);
        }
    }
    const std::vector<TimingResult> swept = Simulator::sweep(jobs, 1u);
    ASSERT_EQ(swept.size(), 2 * platforms.size());
    for (size_t i = 0; i < platforms.size(); i++) {
        SCOPED_TRACE(platforms[i].predictor);
        const SpeedupResult one =
            Simulator::speedup(app, platforms[i], apps::Scale::Small, 42);
        EXPECT_TRUE(one.verified());
        EXPECT_EQ(one.report().dump(),
                  SpeedupResult::of(swept[2 * i], swept[2 * i + 1])
                      .report()
                      .dump());
    }
    // Each core on a shared pass kept its own predictor.
    EXPECT_GT(swept[0].mispredicts, 0u);
    EXPECT_EQ(swept[4].mispredicts, 0u);
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
