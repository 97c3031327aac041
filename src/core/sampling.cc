#include "core/sampling.h"

#include <algorithm>
#include <cassert>
#include <future>

#include "util/failpoint.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "vm/trace_codec.h"

namespace bioperf::core {

namespace {

/** Warm actions, precomputed per sid like the codec's decode kinds. */
enum WarmKind : uint8_t {
    kWarmNone = 0,
    kWarmRead = 1,   ///< loads and prefetches: read access
    kWarmWrite = 2,  ///< stores: write access
    kWarmBranch = 3, ///< conditional branches: train the predictor
};

/** Per-shard observations, merged in shard order on the main thread. */
struct ShardResult
{
    std::vector<double> cpis; ///< one CPI per completed interval
    uint64_t measuredInstructions = 0;
    uint64_t measuredCycles = 0;
    uint64_t measuredMispredicts = 0;
    /** Failure that dropped this shard from the estimate. */
    util::Status status;
};

/**
 * Routing sink implementing one shard's warm/measure schedule: the
 * first @a first_warm instructions of the shard warm functionally
 * (the random phase offset), then the stream cycles through detailed
 * warm-up, detailed measurement and a functional-warm gap. Batches
 * are split at phase boundaries, so phase lengths are exact
 * regardless of batch framing.
 */
class SampleRouter : public vm::TraceSink
{
  public:
    SampleRouter(WarmupSink *warm, cpu::TimingCore *core)
        : warm_(warm), core_(core)
    {
    }

    void beginShard(ShardResult *out, uint64_t first_warm,
                    uint64_t warmup_len, uint64_t detail_len,
                    uint64_t warm_gap)
    {
        out_ = out;
        warmup_len_ = warmup_len;
        detail_len_ = detail_len;
        warm_gap_ = warm_gap;
        phase_ = Phase::Gap;
        remaining_ = first_warm;
    }

    void onInstr(const vm::DynInstr &di) override { onBatch(&di, 1); }

    void onBatch(const vm::DynInstr *batch, size_t n) override
    {
        while (n > 0) {
            while (remaining_ == 0)
                advance();
            const size_t m =
                n < remaining_ ? n : static_cast<size_t>(remaining_);
            if (phase_ == Phase::Gap)
                warm_->onBatch(batch, m);
            else
                core_->onBatch(batch, m);
            remaining_ -= m;
            batch += m;
            n -= m;
            // Close a completed measurement immediately: a shard may
            // end exactly here, and its last interval still counts.
            if (remaining_ == 0)
                advance();
        }
    }

    void onRunEnd() override
    {
        // The run boundary's scoreboard semantics apply to the core
        // whatever the phase; warming holds no per-run state.
        core_->onRunEnd();
    }

    void onGap() override
    {
        // Salvaged traces: the producers of in-flight dependencies
        // were lost with the gap, so the core drains. Warm state
        // (caches, predictor) is kept — stale but unbiased, same as
        // after any functional-warm stretch.
        core_->onGap();
    }

  private:
    enum class Phase : uint8_t { Gap, Warmup, Measure };

    void advance()
    {
        switch (phase_) {
          case Phase::Gap:
            phase_ = Phase::Warmup;
            remaining_ = warmup_len_;
            break;
          case Phase::Warmup:
            phase_ = Phase::Measure;
            remaining_ = detail_len_;
            cycles0_ = core_->cycles();
            instr0_ = core_->instructions();
            miss0_ = core_->branchMispredictions();
            break;
          case Phase::Measure: {
            const uint64_t d_cycles = core_->cycles() - cycles0_;
            const uint64_t d_instr = core_->instructions() - instr0_;
            if (d_instr > 0) {
                out_->cpis.push_back(
                    static_cast<double>(d_cycles) /
                    static_cast<double>(d_instr));
                out_->measuredInstructions += d_instr;
                out_->measuredCycles += d_cycles;
                out_->measuredMispredicts +=
                    core_->branchMispredictions() - miss0_;
            }
            phase_ = Phase::Gap;
            remaining_ = warm_gap_;
            break;
          }
        }
    }

    WarmupSink *warm_;
    cpu::TimingCore *core_;
    ShardResult *out_ = nullptr;
    uint64_t warmup_len_ = 0;
    uint64_t detail_len_ = 1;
    uint64_t warm_gap_ = 0;
    uint64_t remaining_ = 0;
    Phase phase_ = Phase::Gap;
    uint64_t cycles0_ = 0;
    uint64_t instr0_ = 0;
    uint64_t miss0_ = 0;
};

/**
 * What runSampled() samples: a recorded trace in memory, or a .bptrace
 * file that every worker streams through its own TraceFileStream.
 */
struct SampleInput
{
    const ir::Program *prog = nullptr;
    const vm::EncodedTrace *trace = nullptr; ///< in memory, or null
    const std::string *path = nullptr;       ///< the file otherwise
    size_t numChunks = 0;
    uint32_t keyframeInterval = 1;
    uint64_t instructions = 0;
    bool verified = false;
};

/**
 * One worker's chunk feed: indexes the in-memory chunk vector, or
 * seeks the worker's own stream (a stream owns a file position, so
 * workers never share one).
 */
class ChunkFeed
{
  public:
    util::Status open(const SampleInput &in)
    {
        trace_ = in.trace;
        return trace_ ? util::Status() : stream_.open(*in.path);
    }

    /** Feeds chunks [begin, end) into @a rep; OK on success. */
    util::Status feed(size_t begin, size_t end, vm::TraceReplayer &rep)
    {
        if (!trace_) {
            if (util::Status s = stream_.seekToChunk(begin); !s.ok())
                return s;
        }
        for (size_t i = begin; i < end; i++) {
            const vm::EncodedTrace::Chunk *chunk = &chunk_;
            util::Status io;
            if (trace_)
                chunk = &trace_->chunks()[i];
            else if (!stream_.next(chunk_, io))
                return io.ok() ? util::Status::corruptData(
                                     "unexpected end of chunk stream")
                               : io;
            if (util::Status s = rep.streamChunk(*chunk); !s.ok())
                return s;
        }
        return {};
    }

  private:
    const vm::EncodedTrace *trace_ = nullptr;
    TraceFileStream stream_;
    vm::EncodedTrace::Chunk chunk_; ///< reused file read buffer
};

/** One worker's whole simulation stack, reused across its shards. */
struct WorkerStack
{
    mem::CacheHierarchy caches;
    std::unique_ptr<branch::BranchPredictor> predictor;
    std::unique_ptr<cpu::TimingCore> core;
    WarmupSink warm;
    SampleRouter router;
    vm::TraceReplayer replayer;

    WorkerStack(const ir::Program &prog,
                const cpu::PlatformConfig &platform)
        : caches(platform.makeHierarchy()),
          predictor(platform.makePredictor()),
          core(platform.makeCore(&caches, predictor.get())),
          warm(prog, &caches, predictor.get()),
          router(&warm, core.get()), replayer(prog)
    {
        replayer.addSink(&router);
    }
};

struct ShardGeometry
{
    size_t numShards = 0;
    size_t chunksPerShard = 0;
};

size_t
roundUpToKeyframe(size_t chunks, uint32_t keyframe_interval)
{
    return (chunks + keyframe_interval - 1) / keyframe_interval *
           keyframe_interval;
}

ShardGeometry
shardGeometry(size_t num_chunks, uint32_t keyframe_interval,
              uint32_t shard_chunks)
{
    ShardGeometry g;
    if (num_chunks == 0)
        return g;
    // Shards must enter the stream at keyframes.
    const size_t per = roundUpToKeyframe(
        shard_chunks == 0 ? 8u * keyframe_interval : shard_chunks,
        keyframe_interval);
    g.chunksPerShard = per;
    g.numShards = (num_chunks + per - 1) / per;
    return g;
}

/** What one shard actually decodes and how its schedule starts. */
struct ShardPlan
{
    size_t w0 = 0; ///< first decoded chunk (a keyframe)
    size_t w1 = 0; ///< one past the last decoded chunk
    /** Functional-warm instructions before the first warmup phase. */
    uint64_t firstWarm = 0;
};

/**
 * Plans shard @a shard spanning chunks [c0, c1): places the decode
 * window at a random keyframe-aligned slot inside the span and draws
 * the random phase offset. A fresh Rng (and a fixed draw order:
 * window slot first, then offset) keeps the plan a pure function of
 * (seed, shard), independent of which worker replays it.
 */
ShardPlan
planShard(const SamplingOptions &o, size_t shard, size_t c0, size_t c1,
          size_t window_chunks, uint32_t keyframe_interval)
{
    util::Rng rng(o.seed + 0x9e3779b97f4a7c15ull * (shard + 1));
    const size_t span = c1 - c0;
    const size_t slots =
        span > window_chunks
            ? (span - window_chunks) / keyframe_interval + 1
            : 1;
    ShardPlan plan;
    plan.w0 = c0 + keyframe_interval * rng.nextBelow(slots);
    plan.w1 = std::min(c1, plan.w0 + window_chunks);
    plan.firstWarm = o.minWarm + rng.nextBelow(o.interval);
    return plan;
}

SampledTimingResult
mergeShards(const std::vector<ShardResult> &results,
            uint64_t total_instructions, double clock_ghz,
            bool verified)
{
    SampledTimingResult out;
    util::RunningStats stats;
    for (const ShardResult &r : results) {
        if (!r.status.ok()) {
            out.failedShards++;
            out.shardErrors.push_back(r.status.str());
            continue;
        }
        for (double c : r.cpis)
            stats.add(c);
        out.measuredInstructions += r.measuredInstructions;
        out.measuredCycles += r.measuredCycles;
        out.measuredMispredicts += r.measuredMispredicts;
    }
    out.intervals = stats.count();
    out.shards = results.size();
    out.instructions = total_instructions;
    out.verified = verified;
    if (stats.count() > 0) {
        out.cpi = stats.mean();
        out.ipc = out.cpi > 0.0 ? 1.0 / out.cpi : 0.0;
        out.ci95 = stats.ci95();
        out.cv = stats.cv();
        out.coverage =
            total_instructions == 0
                ? 0.0
                : static_cast<double>(out.measuredInstructions) /
                      static_cast<double>(total_instructions);
        out.projectedCycles =
            out.cpi * static_cast<double>(total_instructions);
        out.seconds = out.projectedCycles / (clock_ghz * 1e9);
    }
    return out;
}

/** Full detailed replay, for traces too short to sample. */
SampledTimingResult
runExhaustive(const SampleInput &in, const cpu::PlatformConfig &platform)
{
    SampledTimingResult out;
    ChunkFeed feed;
    if (util::Status s = feed.open(in); !s.ok()) {
        out.status = std::move(s);
        return out;
    }
    out.exhaustive = true;
    out.shards = 1;
    out.instructions = in.instructions;
    out.verified = in.verified;

    mem::CacheHierarchy caches = platform.makeHierarchy();
    auto predictor = platform.makePredictor();
    const std::unique_ptr<cpu::TimingCore> core =
        platform.makeCore(&caches, predictor.get());
    vm::TraceReplayer rep(*in.prog);
    rep.addSink(core.get());
    rep.beginStream();
    if (util::Status s = feed.feed(0, in.numChunks, rep); !s.ok()) {
        out.status = s.withContext("exhaustive replay");
        return out;
    }
    rep.endStream();

    out.measuredInstructions = core->instructions();
    out.measuredCycles = core->cycles();
    out.measuredMispredicts = core->branchMispredictions();
    if (core->cycles() > 0 && core->instructions() > 0) {
        out.cpi = static_cast<double>(core->cycles()) /
                  static_cast<double>(core->instructions());
        out.ipc = 1.0 / out.cpi;
    }
    out.coverage = 1.0;
    out.projectedCycles = static_cast<double>(core->cycles());
    out.seconds = out.projectedCycles / (platform.core.clockGhz * 1e9);
    return out;
}

SampledTimingResult
runSampled(const SampleInput &in, const cpu::PlatformConfig &platform,
           const SamplingOptions &opts)
{
    SampledTimingResult out;
    SamplingOptions o = opts;
    if (o.detailLen == 0)
        o.detailLen = 1;
    if (o.interval < o.warmupLen + o.detailLen)
        o.interval = o.warmupLen + o.detailLen;
    const uint64_t warm_gap = o.interval - o.warmupLen - o.detailLen;
    const uint32_t keyframe_interval = in.keyframeInterval;

    const ShardGeometry geo =
        shardGeometry(in.numChunks, keyframe_interval, o.shardChunks);
    if (geo.numShards == 0) {
        out.verified = in.verified;
        out.instructions = in.instructions;
        return out;
    }
    const size_t window_chunks = std::min<size_t>(
        geo.chunksPerShard,
        roundUpToKeyframe(
            o.windowChunks == 0
                ? std::max<size_t>(keyframe_interval,
                                   geo.chunksPerShard * 3 / 8)
                : o.windowChunks,
            keyframe_interval));
    std::vector<ShardResult> results(geo.numShards);

    // One worker: its own chunk feed and simulation stack, replaying
    // shards [s0, s1). A failing shard is dropped, not fatal: its
    // observations never enter the estimator (per-shard state resets
    // keep the survivors independent of it), so the merged CPI stays
    // valid — just with fewer intervals behind it.
    auto work = [&](size_t s0, size_t s1) -> util::Status {
        ChunkFeed feed;
        if (util::Status s = feed.open(in); !s.ok())
            return s;
        WorkerStack ws(*in.prog, platform);
        for (size_t s = s0; s < s1; s++) {
            if (BIOPERF_FAILPOINT("sample.shard.fail")) {
                results[s] = ShardResult{};
                results[s].status = util::Status::unavailable(
                    "fail point sample.shard.fail fired (shard " +
                    std::to_string(s) + ")");
                continue;
            }
            const size_t c0 = s * geo.chunksPerShard;
            const size_t c1 =
                std::min(in.numChunks, c0 + geo.chunksPerShard);
            const ShardPlan plan = planShard(
                o, s, c0, c1, window_chunks, keyframe_interval);
            // The per-shard reset is what makes shards independent —
            // and therefore mergeable in any execution order.
            ws.caches.reset();
            ws.predictor->reset();
            ws.core->reset();
            ws.router.beginShard(&results[s], plan.firstWarm,
                                 o.warmupLen, o.detailLen, warm_gap);
            ws.replayer.beginStream();
            if (util::Status st =
                    feed.feed(plan.w0, plan.w1, ws.replayer);
                !st.ok()) {
                // Decode state is undefined after a failure; discard
                // whatever the router observed mid-window.
                ws.replayer.endStream();
                results[s] = ShardResult{};
                results[s].status = st.withContext(
                    "shard " + std::to_string(s));
                continue;
            }
            ws.replayer.endStream();
        }
        return {};
    };

    unsigned threads = o.threads == 0
                           ? util::ThreadPool::defaultThreads()
                           : o.threads;
    if (threads > geo.numShards)
        threads = static_cast<unsigned>(geo.numShards);

    util::Status first;
    if (threads <= 1) {
        first = work(0, geo.numShards);
    } else {
        util::ThreadPool pool(threads);
        std::vector<std::future<util::Status>> futures;
        for (unsigned w = 0; w < threads; w++) {
            const size_t s0 = geo.numShards * w / threads;
            const size_t s1 = geo.numShards * (w + 1) / threads;
            if (s0 != s1)
                futures.push_back(
                    pool.submit([&, s0, s1] { return work(s0, s1); }));
        }
        for (auto &f : futures) {
            util::Status s = f.get();
            if (!s.ok() && first.ok())
                first = std::move(s);
        }
    }
    if (!first.ok()) {
        out.status = std::move(first);
        return out;
    }

    out = mergeShards(results, in.instructions, platform.core.clockGhz,
                      in.verified);
    if (out.failedShards == out.shards && out.shards > 0) {
        // Nothing survived; surface the first shard's failure rather
        // than an empty estimate (and don't mask it with the
        // exhaustive fallback, which would re-run the whole trace).
        for (const ShardResult &r : results)
            if (!r.status.ok()) {
                util::Status s = r.status;
                out.status = s.withContext("every shard failed");
                break;
            }
        return out;
    }
    if (out.intervals == 0) {
        // Too short for even one completed interval anywhere: measure
        // the whole trace in detail instead of reporting nothing.
        SampledTimingResult ex = runExhaustive(in, platform);
        // Keep the sampled attempt's shard incidents visible: the
        // fallback covers the whole trace, but the caller still wants
        // the degradation on record (manifest failures).
        ex.failedShards = out.failedShards;
        ex.shardErrors = std::move(out.shardErrors);
        return ex;
    }
    return out;
}

} // namespace

// --- WarmupSink -------------------------------------------------------

WarmupSink::WarmupSink(const ir::Program &prog,
                       mem::CacheHierarchy *caches,
                       branch::BranchPredictor *predictor)
    : caches_(caches), predictor_(predictor)
{
    kind_of_sid_.assign(prog.sidLimit(), kWarmNone);
    for (const ir::Instr *in : vm::buildSidTable(prog)) {
        if (!in)
            continue;
        if (ir::isLoad(in->op) || in->op == ir::Opcode::Prefetch)
            kind_of_sid_[in->sid] = kWarmRead;
        else if (ir::isStore(in->op))
            kind_of_sid_[in->sid] = kWarmWrite;
        else if (in->op == ir::Opcode::Br)
            kind_of_sid_[in->sid] = kWarmBranch;
    }
}

void
WarmupSink::onInstr(const vm::DynInstr &di)
{
    onBatch(&di, 1);
}

void
WarmupSink::onBatch(const vm::DynInstr *batch, size_t n)
{
    // Same update semantics as the detailed cores' memory and branch
    // paths, minus every cycle computation — keeping warm state
    // unbiased relative to what a detailed interval would have built.
    const uint8_t *kinds = kind_of_sid_.data();
    for (size_t i = 0; i < n; i++) {
        const vm::DynInstr &di = batch[i];
        assert(di.matchesInstr());
        switch (kinds[di.sid]) {
          case kWarmNone:
            break;
          case kWarmRead:
            caches_->access(di.addr, false);
            break;
          case kWarmWrite:
            caches_->access(di.addr, true);
            break;
          case kWarmBranch:
            predictor_->predictAndTrain(di.sid, di.taken);
            break;
        }
    }
}

// --- Entry points -----------------------------------------------------

SampledTimingResult
sampleTiming(const CachedTrace &trace,
             const cpu::PlatformConfig &platform,
             const SamplingOptions &opts)
{
    return runSampled({ .prog = trace.prog.get(),
                        .trace = &trace.trace,
                        .numChunks = trace.trace.chunks().size(),
                        .keyframeInterval = trace.trace.keyframeInterval(),
                        .instructions = trace.trace.instructions(),
                        .verified = trace.verified },
                      platform, opts);
}

SampledFileResult
sampleTimingFile(const std::string &path,
                 const cpu::PlatformConfig &platform,
                 const SamplingOptions &opts)
{
    SampledFileResult res;
    TraceFileStream head;
    if (util::Status s = head.open(path); !s.ok()) {
        res.status = s.withContext("sampling '" + path + "'");
        return res;
    }
    const TraceFileHeader &h = head.header();
    res.key = h.key;
    std::unique_ptr<ir::Program> prog;
    if (util::Status s = buildReplayProgram(h.key, h.controlFlowDigest, prog);
        !s.ok()) {
        res.status = std::move(s);
        return res;
    }
    res.result = runSampled({ .prog = prog.get(),
                              .path = &path,
                              .numChunks = h.numChunks,
                              .keyframeInterval = h.keyframeInterval,
                              .instructions = h.instructions,
                              .verified = h.verified },
                            platform, opts);
    res.status = res.result.status;
    return res;
}

util::json::Value
SampledTimingResult::report() const
{
    util::json::Value v = util::json::Value::object();
    v["mode"] = "sampled";
    v["cpi"] = cpi;
    v["ipc"] = ipc;
    v["ci95"] = ci95;
    v["cv"] = cv;
    v["coverage"] = coverage;
    v["projected_cycles"] = projectedCycles;
    v["seconds"] = seconds;
    v["instructions"] = instructions;
    v["measured_instructions"] = measuredInstructions;
    v["measured_cycles"] = measuredCycles;
    v["measured_mispredicts"] = measuredMispredicts;
    v["intervals"] = intervals;
    v["shards"] = shards;
    v["failed_shards"] = failedShards;
    v["verified"] = verified;
    v["exhaustive"] = exhaustive;
    return v;
}

} // namespace bioperf::core
