/**
 * @file
 * Simulator-throughput benchmark: how many simulated instructions per
 * wall-clock second the trace pipeline sustains, in the two modes
 * every experiment in the repository uses:
 *
 *  - characterize: the four ATOM-style profilers of
 *    Simulator::characterize() attached (instruction mix, load
 *    coverage, cache, load/branch sequences);
 *  - timing: the Alpha 21264 out-of-order core model attached.
 *
 * Each mode runs in four deliveries:
 *
 *  - per-instr: one virtual onInstr call per sink per instruction
 *    (the pre-batching pipeline);
 *  - batched: an L1-sized DynInstr buffer flushed with one onBatch
 *    call per sink;
 *  - record+replay: interpret once into a compact encoded trace,
 *    then decode it into the sinks (the cold cost of the
 *    record-once/replay-many pipeline);
 *  - replay: decode an already-recorded trace into the sinks (the
 *    warm cost — what every repeated sweep job actually pays).
 *
 * Results are bit-identical across all four deliveries (the bench
 * fails if not); only wall-clock changes. A further section times a
 * four-platform Simulator::sweep() over one workload with the trace
 * cache off versus on, and a final section compares full detailed
 * replay against sampled timing (core::sampleTiming) per trace:
 * single-threaded and keyframe-sharded, checking the sampled CPI
 * projection lands within 2% of the full-replay CPI and that the
 * sharded run merges bit-identically to the single-threaded one.
 *
 * Writes BENCH_sim_throughput.json into the current directory.
 *
 *   ./bench/sim_throughput [small] [reps]
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/simulator.h"
#include "core/trace_cache.h"
#include "cpu/ooo_core.h"
#include "cpu/platforms.h"
#include "harness.h"
#include "profile/cache_profiler.h"
#include "profile/instruction_mix.h"
#include "profile/load_branch.h"
#include "profile/load_coverage.h"
#include "util/table.h"
#include "vm/interpreter.h"
#include "vm/trace_codec.h"

using namespace bioperf;

namespace {

using bench::now;

enum class Delivery { PerInstr, Batched, RecordReplay, Replay };

const char *
deliveryName(Delivery d)
{
    switch (d) {
    case Delivery::PerInstr: return "per-instr";
    case Delivery::Batched: return "batched";
    case Delivery::RecordReplay: return "record+replay";
    case Delivery::Replay: return "replay";
    }
    return "?";
}

struct Measurement
{
    std::string mode;     ///< "characterize" or "timing"
    std::string delivery; ///< deliveryName() of the delivery
    uint64_t instructions = 0;
    double seconds = 0.0;
    /** Portion of `seconds` spent recording (record+replay only). */
    double recordSeconds = 0.0;
    /** Combined hash of every sink's results across the app list. */
    uint64_t fingerprint = 0;

    double mips() const
    {
        return seconds == 0.0
            ? 0.0
            : static_cast<double>(instructions) / seconds / 1e6;
    }
};

/**
 * Runs every app in @a list with the given sinks attached. Each app
 * runs @a reps times and the fastest wall time counts, which filters
 * scheduling noise out of the MIPS figures. Replay deliveries pull
 * recordings from @a traces; record+replay refreshes them.
 */
Measurement
measure(const std::vector<apps::AppInfo> &list, apps::Scale scale,
        const std::string &mode, Delivery delivery, int reps,
        std::map<std::string, core::TraceCache::Ptr> &traces)
{
    Measurement m;
    m.mode = mode;
    m.delivery = deliveryName(delivery);
    for (const auto &app : list) {
        double best = 0.0;
        double best_record = 0.0;
        uint64_t instrs = 0;
        uint64_t fp = 0;
        for (int rep = 0; rep < reps; rep++) {
            profile::InstructionMixProfiler mix;
            profile::LoadCoverageProfiler coverage;
            profile::CacheProfiler cache;
            profile::LoadBranchProfiler load_branch;
            const cpu::PlatformConfig platform = cpu::alpha21264();
            mem::CacheHierarchy caches = platform.makeHierarchy();
            auto predictor = platform.makePredictor();
            cpu::OooCore core(platform.core, &caches,
                              predictor.get());
            std::vector<vm::TraceSink *> sinks;
            if (mode == "characterize")
                sinks = { &mix, &coverage, &cache, &load_branch };
            else
                sinks = { &core };

            double dt = 0.0;
            double record_dt = 0.0;
            if (delivery == Delivery::PerInstr ||
                delivery == Delivery::Batched) {
                apps::AppRun run =
                    app.make(apps::Variant::Baseline, scale, 42);
                vm::Interpreter interp(*run.prog);
                interp.setTraceMode(
                    delivery == Delivery::Batched
                        ? vm::Interpreter::TraceMode::Batched
                        : vm::Interpreter::TraceMode::PerInstr);
                for (auto *s : sinks)
                    interp.addSink(s);
                const double t0 = now();
                run.driver(interp);
                dt = now() - t0;
                instrs = interp.totalInstrs();
            } else {
                core::TraceKey key;
                key.app = &app;
                key.variant = apps::Variant::Baseline;
                key.scale = scale;
                key.seed = 42;
                core::TraceCache::Ptr trace = traces[app.name];
                const double t0 = now();
                if (delivery == Delivery::RecordReplay) {
                    trace = core::TraceCache::record(key).value();
                    record_dt = now() - t0;
                }
                vm::TraceReplayer replayer(trace->trace,
                                           *trace->prog);
                for (auto *s : sinks)
                    replayer.addSink(s);
                replayer.replay().value();
                dt = now() - t0;
                if (delivery == Delivery::RecordReplay)
                    traces[app.name] = trace;
                instrs = trace->instructions;
            }

            if (mode == "characterize") {
                fp = std::hash<std::string>{}(
                    mix.report().dump() + coverage.report().dump() +
                    cache.report().dump() +
                    load_branch.report().dump());
            } else {
                fp = core.cycles() * 1000003ull +
                     core.branchMispredictions();
            }
            if (rep == 0 || dt < best) {
                best = dt;
                best_record = record_dt;
            }
        }
        m.seconds += best;
        m.recordSeconds += best_record;
        m.instructions += instrs;
        m.fingerprint = m.fingerprint * 1099511628211ull ^ fp;
    }
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const apps::Scale scale =
        (argc > 1 && std::string(argv[1]) == "small")
            ? apps::Scale::Small : apps::Scale::Medium;
    const int reps =
        argc > 2 ? std::max(1, std::atoi(argv[2])) : 3;

    bench::Harness h("sim_throughput", argc, argv);
    h.manifest().app = "suite";
    h.manifest().scale = apps::toString(scale);

    // A representative slice of the suite: the headline integer
    // kernel, an alignment code, and an FP-heavy phylogeny code.
    std::vector<apps::AppInfo> list;
    for (const char *name : { "hmmsearch", "clustalw", "promlk" })
        list.push_back(*apps::findApp(name));

    const Delivery deliveries[] = {
        Delivery::PerInstr, Delivery::Batched,
        Delivery::RecordReplay, Delivery::Replay
    };
    std::map<std::string, core::TraceCache::Ptr> traces;
    std::vector<Measurement> ms;
    bool identical = true;
    for (const char *mode : { "characterize", "timing" }) {
        const size_t first = ms.size();
        for (const Delivery d : deliveries)
            ms.push_back(
                measure(list, scale, mode, d, reps, traces));
        for (size_t i = first + 1; i < ms.size(); i++)
            identical &=
                ms[i].fingerprint == ms[first].fingerprint;
    }

    util::TextTable t({ "mode", "delivery", "instructions",
                        "wall s", "MIPS" });
    for (const auto &m : ms) {
        t.row()
            .cell(m.mode)
            .cell(m.delivery)
            .cell(m.instructions)
            .cell(m.seconds, 3)
            .cell(m.mips(), 1);
    }
    std::printf("=== simulator throughput (simulated MIPS) ===\n\n%s\n",
                t.str().c_str());
    std::printf("results bit-identical across deliveries: %s\n",
                identical ? "yes" : "NO");

    const auto &char_per = ms[0], &char_batch = ms[1];
    const auto &char_replay = ms[3];
    const auto &time_batch = ms[5], &time_replay = ms[7];
    const double char_speedup = char_batch.seconds == 0.0
        ? 0.0 : char_per.seconds / char_batch.seconds;
    const double timing_speedup = time_batch.seconds == 0.0
        ? 0.0 : ms[4].seconds / time_batch.seconds;
    const double char_replay_speedup = char_replay.seconds == 0.0
        ? 0.0 : char_batch.seconds / char_replay.seconds;
    const double timing_replay_speedup = time_replay.seconds == 0.0
        ? 0.0 : time_batch.seconds / time_replay.seconds;
    std::printf("batched over per-instruction: characterize %.2fx, "
                "timing %.2fx\n", char_speedup, timing_speedup);
    std::printf("warm replay over batched interpretation: "
                "characterize %.2fx, timing %.2fx\n",
                char_replay_speedup, timing_replay_speedup);

    // Encoded-trace footprint, instruction-weighted across the list.
    uint64_t trace_bytes = 0, trace_instrs = 0;
    for (const auto &[name, trace] : traces) {
        trace_bytes += trace->trace.totalBytes();
        trace_instrs += trace->instructions;
    }
    const double bytes_per_instr = trace_instrs == 0
        ? 0.0
        : static_cast<double>(trace_bytes) /
              static_cast<double>(trace_instrs);
    std::printf("encoded traces: %.2f bytes/instr\n", bytes_per_instr);

    // Four-platform sweep over one workload: the trace cache records
    // hmmsearch once and replays it per platform instead of
    // re-interpreting it four times.
    std::vector<core::SweepJob> jobs;
    for (const auto &platform : cpu::evaluationPlatforms()) {
        core::SweepJob job;
        job.app = apps::findApp("hmmsearch");
        job.platform = platform;
        job.variant = apps::Variant::Baseline;
        job.scale = scale;
        job.seed = 42;
        job.registerPressure = false;
        jobs.push_back(job);
    }
    uint64_t sweep_instrs = 0;
    core::SweepOptions off;
    off.threads = 1;
    off.trace = core::SweepOptions::Trace::Off;
    double t0 = now();
    const auto sweep_live = core::Simulator::sweep(jobs, off);
    const double sweep_wall_live = now() - t0;
    core::SweepOptions cached;
    cached.threads = 1;
    core::TraceCache::Stats sweep_stats;
    cached.statsOut = &sweep_stats;
    t0 = now();
    const auto sweep_cached = core::Simulator::sweep(jobs, cached);
    const double sweep_wall_cached = now() - t0;
    for (size_t i = 0; i < sweep_live.size(); i++) {
        identical &= sweep_live[i].report().dump() ==
                     sweep_cached[i].report().dump();
        sweep_instrs += sweep_live[i].instructions;
    }
    const double sweep_speedup = sweep_wall_cached == 0.0
        ? 0.0 : sweep_wall_live / sweep_wall_cached;
    std::printf("4-platform sweep: %.3f s live, %.3f s with trace "
                "cache (%.2fx)\n", sweep_wall_live, sweep_wall_cached,
                sweep_speedup);

    // Sampled timing versus full detailed replay, per recorded trace.
    // Library-default sampling options: on Medium each shard decodes
    // only a keyframe-aligned window and skips the rest outright; on
    // Small the traces are shorter than one sampling unit and the
    // estimator falls back to exhaustive replay (error 0 by
    // construction), so the accuracy gate stays meaningful at both
    // scales.
    const cpu::PlatformConfig sample_platform = cpu::alpha21264();
    double sampled_full_wall = 0.0, sampled_wall = 0.0;
    double sharded_wall = 0.0;
    double sampled_err = 0.0;
    uint64_t sampled_instrs = 0, sampled_measured = 0;
    bool sampled_identical = true;
    for (const auto &app : list) {
        const core::TraceCache::Ptr trace = traces[app.name];
        double best_full = 0.0, best_sampled = 0.0;
        double best_sharded = 0.0;
        core::TimingResult full;
        core::SampledTimingResult sampled, sharded;
        for (int rep = 0; rep < reps; rep++) {
            double t = now();
            full = core::Simulator::time(*trace, sample_platform);
            double dt = now() - t;
            if (rep == 0 || dt < best_full)
                best_full = dt;
            core::SamplingOptions so;
            so.threads = 1;
            t = now();
            sampled = core::sampleTiming(*trace, sample_platform, so);
            dt = now() - t;
            if (rep == 0 || dt < best_sampled)
                best_sampled = dt;
            so.threads = 0;
            t = now();
            sharded = core::sampleTiming(*trace, sample_platform, so);
            dt = now() - t;
            if (rep == 0 || dt < best_sharded)
                best_sharded = dt;
        }
        sampled_identical &=
            sampled.report().dump() == sharded.report().dump();
        const double err = full.cycles == 0
            ? 0.0
            : std::abs(sampled.projectedCycles -
                       static_cast<double>(full.cycles)) /
                  static_cast<double>(full.cycles);
        sampled_err = std::max(sampled_err, err);
        sampled_full_wall += best_full;
        sampled_wall += best_sampled;
        sharded_wall += best_sharded;
        sampled_instrs += trace->instructions;
        sampled_measured += sampled.measuredInstructions;
        std::printf("sampled timing %-12s: full %.3f s, sampled "
                    "%.3f s (%.2fx), CPI error %.2f%%%s\n",
                    app.name.c_str(), best_full, best_sampled,
                    best_sampled == 0.0 ? 0.0
                                        : best_full / best_sampled,
                    100.0 * err,
                    sampled.exhaustive ? " [exhaustive]" : "");
    }
    const double sampled_speedup = sampled_wall == 0.0
        ? 0.0 : sampled_full_wall / sampled_wall;
    const double sharded_speedup = sharded_wall == 0.0
        ? 0.0 : sampled_full_wall / sharded_wall;
    const double sampled_coverage = sampled_instrs == 0
        ? 0.0
        : static_cast<double>(sampled_measured) /
              static_cast<double>(sampled_instrs);
    const bool sampled_ok = sampled_identical && sampled_err <= 0.02;
    std::printf("sampled timing: %.2fx single-thread, %.2fx sharded, "
                "max CPI error %.2f%%, coverage %.1f%%, sharded "
                "merge identical: %s\n", sampled_speedup,
                sharded_speedup, 100.0 * sampled_err,
                100.0 * sampled_coverage,
                sampled_identical ? "yes" : "NO");

    util::json::Value runs = util::json::Value::array();
    for (const auto &m : ms) {
        h.manifest().addStage(m.mode + "/" + m.delivery, m.seconds,
                              m.instructions);
        util::json::Value one = util::json::Value::object();
        one["mode"] = m.mode;
        one["delivery"] = m.delivery;
        one["instructions"] = m.instructions;
        one["seconds"] = m.seconds;
        one["mips"] = m.mips();
        if (m.recordSeconds > 0.0)
            one["record_seconds"] = m.recordSeconds;
        runs.push(std::move(one));
    }
    for (const char *delivery : { "sampled", "sampled-sharded" }) {
        const bool sharded = delivery[7] != '\0';
        const double secs = sharded ? sharded_wall : sampled_wall;
        util::json::Value one = util::json::Value::object();
        one["mode"] = "timing";
        one["delivery"] = delivery;
        one["instructions"] = sampled_instrs;
        one["seconds"] = secs;
        one["mips"] = secs == 0.0
            ? 0.0
            : static_cast<double>(sampled_instrs) / secs / 1e6;
        one["coverage"] = sampled_coverage;
        one["cpi_error"] = sampled_err;
        runs.push(std::move(one));
        h.manifest().addStage(std::string("timing/") + delivery, secs,
                              sampled_instrs);
    }
    h.manifest().addStage("sweep/live", sweep_wall_live,
                          sweep_instrs);
    h.manifest().addStage("sweep/cached", sweep_wall_cached,
                          sweep_instrs);
    sweep_stats.addStagesTo(h.manifest());
    h.metrics()["runs"] = std::move(runs);
    h.metrics()["characterize_speedup"] = char_speedup;
    h.metrics()["timing_speedup"] = timing_speedup;
    h.metrics()["characterize_replay_speedup"] = char_replay_speedup;
    h.metrics()["timing_replay_speedup"] = timing_replay_speedup;
    h.metrics()["bytes_per_instr"] = bytes_per_instr;
    h.metrics()["replay_mips"] = time_replay.mips();
    h.metrics()["record_mips"] = ms[2].recordSeconds == 0.0
        ? 0.0
        : static_cast<double>(ms[2].instructions) /
              ms[2].recordSeconds / 1e6;
    h.metrics()["sweep_wall_live_seconds"] = sweep_wall_live;
    h.metrics()["sweep_wall_cached_seconds"] = sweep_wall_cached;
    h.metrics()["sweep_cached_speedup"] = sweep_speedup;
    h.metrics()["sampled_full_wall_seconds"] = sampled_full_wall;
    h.metrics()["sampled_wall_seconds"] = sampled_wall;
    h.metrics()["sharded_sampled_wall_seconds"] = sharded_wall;
    h.metrics()["sampled_speedup"] = sampled_speedup;
    h.metrics()["sharded_sampled_speedup"] = sharded_speedup;
    h.metrics()["sampled_cpi_error"] = sampled_err;
    h.metrics()["sampled_coverage"] = sampled_coverage;
    h.metrics()["sampled_results_identical"] = sampled_identical;
    h.metrics()["results_identical"] = identical;
    return h.finish(identical && sampled_ok);
}
