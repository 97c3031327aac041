/**
 * @file
 * bioperfsim: command-line driver for the library. Run it without
 * arguments for its commands and options. kOptions and kCommands below
 * describe each option and each command once; the usage text, the
 * parser, the "has no effect here" check and dispatch all read them.
 *
 * This is the only layer that maps util::Status to exit codes; the
 * library never terminates the process. Exit codes:
 *   0  success
 *   1  usage error (bad command, operand or option, or an option the
 *      command would ignore)
 *   2  bad input (unknown app, mismatched trace identity/registers)
 *   3  trace load or integrity failure (corrupt/truncated .bptrace)
 *   4  golden-model verification failure
 *   5  simulation failure (recording failed, sweep entry failed)
 *   6  output write failure (JSON report, .bptrace save)
 */
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "apps/app.h"
#include "branch/predictors.h"
#include "core/candidate_finder.h"
#include "core/simulator.h"
#include "core/trace_file.h"
#include "cpu/platforms.h"
#include "ir/printer.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/table.h"

using namespace bioperf;

namespace {

/** The command line; kOptions says what each option sets. */
struct Options
{
    std::string command;
    std::string app; ///< the operand: an app, or salvage's trace file
    apps::Scale scale = apps::Scale::Small;
    apps::Variant variant = apps::Variant::Baseline;
    cpu::PlatformConfig platform = cpu::alpha21264();
    uint64_t seed = 42;
    unsigned threads = 1;
    std::string jsonPath;
    std::string traceOut;
    std::string traceIn;
    bool sample = false;
    bool salvage = false;
    core::SamplingOptions sampling; ///< seed/threads folded in later
};

/** Exit codes (see the file comment). */
constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitBadInput = 2;
constexpr int kExitTrace = 3;
constexpr int kExitVerify = 4;
constexpr int kExitSimFailure = 5;
constexpr int kExitWriteFailure = 6;

/** Fallback Status -> exit code mapping for uncaught library errors. */
int
exitCodeFor(const util::Status &s)
{
    switch (s.code()) {
      case util::StatusCode::kInvalidArgument:
      case util::StatusCode::kNotFound:
      case util::StatusCode::kFailedPrecondition:
        return kExitBadInput;
      case util::StatusCode::kCorruptData:
        return kExitTrace;
      case util::StatusCode::kIoError:
        return kExitWriteFailure;
      default:
        return kExitSimFailure;
    }
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Option setters: each stores its value in the Options member @a Path
 * leads to and returns null, or what was expected instead of @a v.
 * A number must be all unsigned decimal digits and fit the member.
 */
template <auto... Path>
const char *
number(Options &o, const char *v)
{
    auto &field = (o .* ... .* Path);
    const char *end = v + std::strlen(v);
    const auto [stop, err] = std::from_chars(v, end, field);
    return err == std::errc() && stop == end ? nullptr : "an unsigned integer";
}

template <auto F>
const char *
store(Options &o, const char *v)
{
    if constexpr (std::is_same_v<decltype(o.*F), bool &>)
        o.*F = true; // a switch
    else
        o.*F = v;
    return nullptr;
}

/** When an option its command takes still has no effect. */
struct OptionRule
{
    const char *command = nullptr; ///< the one command it holds on
    std::vector<std::string_view> needs = {}; ///< options it needs
    const char *excludes = nullptr; ///< an option it cannot go with
};
const OptionRule kNeedsSample = { .needs = { "--sample" } };

struct OptionSpec
{
    const char *name;
    const char *value; ///< its name in the usage text; null: a switch
    const char *help;
    const char *(*set)(Options &, const char *value);
    OptionRule rule = {};
};

using Sampling = core::SamplingOptions;

/** Every option, once. */
const OptionSpec kOptions[] = {
    { "--scale", "s|m|l", "workload size (default s)",
      [](Options &o, const char *v) -> const char * {
          const std::string_view s = v;
          if (s != "s" && s != "m" && s != "l")
              return "s|m|l";
          o.scale = s == "s"   ? apps::Scale::Small
                    : s == "m" ? apps::Scale::Medium
                               : apps::Scale::Large;
          return nullptr;
      } },
    { "--variant", "base|xform", "kernel version (default base)",
      [](Options &o, const char *v) -> const char * {
          const std::string_view s = v;
          if (s != "base" && s != "xform")
              return "base|xform";
          o.variant = s == "base" ? apps::Variant::Baseline
                                  : apps::Variant::Transformed;
          return nullptr;
      } },
    { "--platform", "alpha|ppc|p4|itanium",
      "timing platform (default alpha; the core names alpha21264, "
      "ppc970, pentium4, itanium2 also work)",
      [](Options &o, const char *v) -> const char * {
          using Make = cpu::PlatformConfig (*)();
          const std::pair<std::string_view, Make> platforms[] = {
              { "alpha", cpu::alpha21264 }, { "ppc", cpu::powerpcG5 },
              { "p4", cpu::pentium4 }, { "itanium", cpu::itanium2 } };
          for (const auto &[flag, make] : platforms)
              if (v == flag || v == make().core.name) {
                  o.platform = make();
                  return nullptr;
              }
          return "alpha|ppc|p4|itanium";
      } },
    { "--predictor", "NAME",
      "branch predictor: perfect/static/bimodal/gshare/local/hybrid",
      [](Options &o, const char *v) -> const char * {
          if (branch::makePredictor(v) == nullptr)
              return "perfect|static|bimodal|gshare|local|hybrid";
          o.platform.predictor = v;
          return nullptr;
      } },
    { "--seed", "N", "workload seed (default 42)", number<&Options::seed> },
    { "--threads", "N", "workers (default 1 = inline; 0 = pool default, "
      "honours BIOPERF_THREADS)", number<&Options::threads>,
      { .command = "time", .needs = { "--sample" } } },
    { "--json", "FILE", "also write the result as a JSON report "
      "(manifest + metrics)", store<&Options::jsonPath> },
    { "--trace-out", "FILE", "record the workload once, save it as a "
      ".bptrace file, and analyse the replayed stream",
      store<&Options::traceOut>, { .excludes = "--trace-in" } },
    { "--trace-in", "FILE", "replay a saved .bptrace instead of "
      "interpreting; results are bit-identical to the live run",
      store<&Options::traceIn> },
    { "--sample", nullptr, "sampled timing: mean CPI with a 95% confidence "
      "interval over detailed intervals between functional warming; a "
      "--trace-in file is streamed", store<&Options::sample> },
    { "--sample-interval", "N", "instructions per unit (default 200000)",
      number<&Options::sampling, &Sampling::interval>, kNeedsSample },
    { "--sample-detail", "N", "measured instructions per unit (default 20000)",
      number<&Options::sampling, &Sampling::detailLen>, kNeedsSample },
    { "--sample-warmup", "N", "detailed warm-up per unit (default 5000)",
      number<&Options::sampling, &Sampling::warmupLen>, kNeedsSample },
    { "--sample-shard-chunks", "N", "chunks per shard (0 = library default)",
      number<&Options::sampling, &Sampling::shardChunks>, kNeedsSample },
    { "--sample-window-chunks", "N",
      "decoded chunks per shard (0 = three eighths of it)",
      number<&Options::sampling, &Sampling::windowChunks>, kNeedsSample },
    { "--sample-min-warm", "N",
      "functional warming before a window's first unit (default 1000000)",
      number<&Options::sampling, &Sampling::minWarm>, kNeedsSample },
    { "--salvage", nullptr, "recover what a damaged .bptrace still "
      "holds and sample the salvaged shards", store<&Options::salvage>,
      { .needs = { "--sample", "--trace-in" } } },
};

/** Whether the command times a platform: it takes --platform. */
bool runsPlatform(const Options &opt);

util::RunManifest
makeManifest(const Options &opt, const apps::AppInfo &app)
{
    util::RunManifest m;
    m.bench = "bioperfsim-" + opt.command;
    m.app = app.name;
    m.variant = apps::toString(opt.variant);
    m.scale = apps::toString(opt.scale);
    m.seed = opt.seed;
    if (runsPlatform(opt))
        m.platform = opt.platform.name;
    m.threads = opt.threads;
    return m;
}

/**
 * Writes the "bioperf.run.v1" document (run manifest plus the command's
 * metric tree) to --json, when given.
 *
 * @return false only when the write itself failed
 */
bool
writeJsonReport(const Options &opt, bool ok,
                const util::RunManifest &manifest,
                util::json::Value metrics)
{
    if (opt.jsonPath.empty())
        return true;
    util::json::Value report = util::json::Value::object();
    report["schema"] = "bioperf.run.v1";
    report["command"] = opt.command;
    report["ok"] = ok;
    report["manifest"] = manifest.report();
    report["metrics"] = std::move(metrics);
    if (!util::json::writeFile(opt.jsonPath, report)) {
        std::printf("failed to write %s\n", opt.jsonPath.c_str());
        return false;
    }
    std::printf("wrote %s\n", opt.jsonPath.c_str());
    return true;
}

/**
 * Failure epilogue shared by every metric command: prints @a why,
 * records it in the manifest's failures, and still writes the JSON
 * report (ok=false) so a failed run leaves a parseable artifact.
 *
 * @return @a code, the command's exit status
 */
int
failCommand(const Options &opt, util::RunManifest &manifest,
            const std::string &stage, const util::Status &why,
            int code)
{
    std::printf("%s\n", why.str().c_str());
    manifest.addFailure(manifest.app, manifest.variant, stage,
                        why.str());
    writeJsonReport(opt, false, manifest,
                    util::json::Value::object());
    return code;
}

/**
 * Epilogue shared by every command that ran to the end: records a
 * verify failure when the run did not verify, writes the JSON report
 * and returns kExitOk, kExitVerify or kExitWriteFailure.
 */
int
finishCommand(const Options &opt, util::RunManifest &manifest,
              bool verified, util::json::Value metrics)
{
    if (!verified)
        manifest.addFailure(manifest.app, manifest.variant, "verify",
                            "output does not match the golden model");
    if (!writeJsonReport(opt, verified, manifest, std::move(metrics)))
        return kExitWriteFailure;
    return verified ? kExitOk : kExitVerify;
}

/**
 * The workload a characterize or time command runs; time rewrites it
 * for the platform's architectural register file.
 */
core::TraceKey
commandKey(const Options &opt, const apps::AppInfo &app)
{
    core::TraceKey key;
    key.app = &app;
    key.variant = opt.variant;
    key.scale = opt.scale;
    key.seed = opt.seed;
    key.registerPressure = runsPlatform(opt);
    if (key.registerPressure) {
        key.intRegs = opt.platform.core.numIntRegs;
        key.fpRegs = opt.platform.core.numFpRegs;
    }
    return key;
}

/**
 * Checks that a trace recorded under @a key can stand in for this
 * command's workload: the right app and, for time, the platform's
 * register file (characterize expects the unrewritten kernel).
 * Variant, scale and seed come from the trace.
 *
 * @return OK, or kFailedPrecondition describing the mismatch
 */
util::Status
checkTraceKey(const Options &opt, const apps::AppInfo &app,
              const core::TraceKey &key)
{
    if (key.app != &app)
        return util::Status::failedPrecondition(
            opt.traceIn + " holds a trace of " + key.app->name +
            ", not " + app.name);
    const core::TraceKey want = commandKey(opt, app);
    if (!want.registerPressure) {
        if (key.registerPressure)
            return util::Status::failedPrecondition(
                opt.traceIn +
                " was recorded with register pressure; "
                "characterize expects the unrewritten kernel");
        return util::Status();
    }
    if (!key.registerPressure || key.intRegs != want.intRegs ||
        key.fpRegs != want.fpRegs)
        return util::Status::failedPrecondition(
            opt.traceIn + " was recorded " +
            (key.registerPressure ? "for a different register file"
                                  : "without register pressure") +
            "; timing on " + opt.platform.name +
            " needs a trace recorded with a matching --platform (" +
            std::to_string(want.intRegs) + " int / " +
            std::to_string(want.fpRegs) + " fp registers)");
    return util::Status();
}

/** Describes the run in @a manifest by the identity of its trace. */
void
describeTrace(util::RunManifest &manifest, const core::TraceKey &key)
{
    manifest.app = key.app->name;
    manifest.variant = apps::toString(key.variant);
    manifest.scale = apps::toString(key.scale);
    manifest.seed = key.seed;
}

/**
 * Reports a successful salvage of @a path, started at @a t0: describes
 * the run by the trace, stages trace_salvage, records any lost chunks
 * as a failure and prints the recovered/lost line.
 */
void
reportSalvage(const std::string &path, const core::TraceSalvageResult &sr,
              double t0, util::RunManifest &manifest)
{
    describeTrace(manifest, sr.key);
    manifest.addStage("trace_salvage", now() - t0,
                      sr.recoveredInstructions);
    if (sr.lostChunks)
        manifest.addFailure(
            manifest.app, manifest.variant, "trace_salvage",
            "lost " + std::to_string(sr.lostChunks) + " of " +
                std::to_string(sr.totalChunks) + " chunks (" +
                std::to_string(sr.lostInstructions) + " instructions)");
    std::printf("%s: recovered %zu/%zu chunks, %llu/%llu "
                "instructions, %zu gap%s\n",
                path.c_str(), sr.recoveredChunks, sr.totalChunks,
                static_cast<unsigned long long>(sr.recoveredInstructions),
                static_cast<unsigned long long>(sr.totalInstructions),
                sr.gaps, sr.gaps == 1 ? "" : "s");
}

/** Exit code for a trace-load failure: bad input vs bad file. */
int
loadExitCode(const util::Status &why)
{
    return why.code() == util::StatusCode::kFailedPrecondition
               ? kExitBadInput
               : kExitTrace;
}

/**
 * Records @a key once into @a trace and, when --trace-out was given,
 * saves it there, staging both costs into @a manifest.
 *
 * @return kExitOk, or the exit code of a failure already reported
 *         through failCommand()
 */
int
recordTrace(const Options &opt, const core::TraceKey &key,
            util::RunManifest &manifest, core::TraceCache::Ptr &trace)
{
    const double t0 = now();
    util::StatusOr<core::TraceCache::Ptr> got =
        core::TraceCache::record(key);
    if (!got.ok())
        return failCommand(opt, manifest, "trace_record", got.status(),
                           kExitSimFailure);
    trace = std::move(got).value();
    manifest.traceMode = "replay";
    manifest.addStage("trace_record", now() - t0,
                      trace->instructions);
    if (opt.traceOut.empty())
        return kExitOk;
    const double t1 = now();
    const util::Status err =
        core::saveTraceFile(opt.traceOut, key, *trace);
    if (!err.ok())
        return failCommand(opt, manifest, "trace_save", err,
                           kExitWriteFailure);
    manifest.addStage("trace_save", now() - t1);
    std::printf("wrote %s (%llu instructions, %.2f bytes/instr)\n",
                opt.traceOut.c_str(),
                static_cast<unsigned long long>(trace->instructions),
                trace->trace.bytesPerInstr());
    return kExitOk;
}

/**
 * The stream a characterize or time command analyses, with the storage
 * its core::Source refers to: a replayed trace, or a live run.
 */
struct CommandInput
{
    core::TraceCache::Ptr trace;
    apps::AppRun run;
    /** Start of the analysis stage (live: includes building the run). */
    double start = 0.0;

    core::Source source()
    {
        return trace ? core::Source(*trace) : core::Source(run);
    }
};

/**
 * Opens the input of a characterize or time command: loads
 * --trace-in (checking that it fits the command), records the
 * workload and saves it to --trace-out, or builds it live.
 *
 * @return kExitOk, or the exit code of a failure already reported
 *         through failCommand()
 */
int
openInput(const Options &opt, const apps::AppInfo &app,
          util::RunManifest &manifest, CommandInput &in)
{
    const core::TraceKey key = commandKey(opt, app);
    if (!opt.traceIn.empty()) {
        const double t0 = now();
        const core::TraceLoadResult loaded =
            core::loadTraceFile(opt.traceIn);
        const util::Status fit = loaded.status.ok()
                                     ? checkTraceKey(opt, app, loaded.key)
                                     : loaded.status;
        // A trace of this app describes the run even when it does not
        // fit the command; one of another app leaves the manifest be.
        if (!loaded.status.ok() || loaded.key.app != &app)
            return failCommand(opt, manifest, "trace_load", fit,
                               loadExitCode(fit));
        manifest.traceMode = "replay";
        describeTrace(manifest, loaded.key);
        manifest.addStage("trace_load", now() - t0,
                          loaded.trace->instructions);
        if (!fit.ok())
            return failCommand(opt, manifest, "trace_load", fit,
                               kExitBadInput);
        in.trace = loaded.trace;
    } else if (!opt.traceOut.empty()) {
        if (const int code = recordTrace(opt, key, manifest, in.trace))
            return code;
    }
    in.start = now();
    if (!in.trace)
        in.run = core::makeWorkload(key);
    return kExitOk;
}

int
cmdList(const Options &, const apps::AppInfo *)
{
    util::TextTable t({ "name", "area", "transformable" });
    for (const auto &a : apps::bioperfApps())
        t.row().cell(a.name).cell(a.area).cell(
            a.transformable ? "yes" : "no");
    for (const auto &a : apps::specLikeApps())
        t.row().cell(a.name).cell(a.area).cell("n/a");
    for (const auto &a : apps::memoryBoundApps())
        t.row().cell(a.name).cell(a.area).cell("n/a");
    std::printf("%s", t.str().c_str());
    return 0;
}

int
cmdCharacterize(const Options &opt, const apps::AppInfo *app)
{
    util::RunManifest manifest = makeManifest(opt, *app);
    CommandInput in;
    if (const int code = openInput(opt, *app, manifest, in))
        return code;
    const core::CharacterizationResult res =
        core::Simulator::characterize(in.source());
    manifest.addStage(in.trace ? "characterize_replay" : "characterize",
                      now() - in.start, res.instructions);
    if (!res.status.ok())
        return failCommand(opt, manifest, "characterize", res.status,
                           kExitSimFailure);

    std::printf("application      : %s (%s)\n", app->name.c_str(),
                app->area.c_str());
    std::printf("verified         : %s\n",
                res.verified ? "yes" : "NO");
    std::printf("instructions     : %llu\n",
                static_cast<unsigned long long>(res.instructions));
    std::printf("loads            : %.1f%%  stores: %.1f%%  "
                "branches: %.1f%%  fp: %.1f%%\n",
                100.0 * res.mix.loadFraction,
                100.0 * res.mix.storeFraction,
                100.0 * res.mix.branchFraction,
                100.0 * res.mix.fpFraction);
    std::printf("static loads     : %llu executed, %zu cover 90%%\n",
                static_cast<unsigned long long>(
                    res.coverage.staticLoads),
                res.coverage.loadsFor90);
    std::printf("cache            : L1 miss %.2f%%, L2 local %.2f%%, "
                "overall %.3f%%, AMAT %.2f\n",
                100.0 * res.cache.l1LocalMissRate,
                100.0 * res.cache.l2LocalMissRate,
                100.0 * res.cache.overallMissRate, res.cache.amat);
    std::printf("load-to-branch   : %.1f%% of loads; those branches "
                "mispredict %.1f%%\n",
                100.0 * res.loadBranch.loadToBranchFraction,
                100.0 * res.loadBranch.ltbBranchMissRate);
    std::printf("after hard branch: %.1f%% of loads\n",
                100.0 * res.loadBranch.loadAfterHardBranchFraction);
    return finishCommand(opt, manifest, res.verified, res.report());
}

/**
 * `time --sample`: streams a --trace-in file without materializing it;
 * otherwise records the workload once and samples it in memory.
 */
int
cmdTimeSampled(const Options &opt, const apps::AppInfo &app)
{
    util::RunManifest manifest = makeManifest(opt, app);
    core::SamplingOptions sopts = opt.sampling;
    sopts.seed = opt.seed;
    sopts.threads = opt.threads;

    core::SampledTimingResult res;
    core::TraceCache::Ptr trace; // sampled in memory when set
    if (opt.salvage) {
        // Recover whatever keyframe-aligned regions of the file still
        // pass their checksums, then sample the salvaged shards in
        // memory. The estimate is over the surviving instructions
        // only; the loss is recorded as a manifest failure.
        const double t0 = now();
        const core::TraceSalvageResult sr =
            core::salvageTraceFile(opt.traceIn);
        if (!sr.status.ok())
            return failCommand(opt, manifest, "trace_salvage",
                               sr.status, kExitTrace);
        const util::Status kerr = checkTraceKey(opt, app, sr.key);
        if (!kerr.ok())
            return failCommand(opt, manifest, "trace_salvage", kerr,
                               kExitBadInput);
        reportSalvage(opt.traceIn, sr, t0, manifest);
        trace = sr.trace;
    } else if (!opt.traceIn.empty()) {
        const double t0 = now();
        const core::SampledFileResult fr =
            core::sampleTimingFile(opt.traceIn, opt.platform, sopts);
        if (!fr.status.ok())
            return failCommand(opt, manifest, "sample_stream",
                               fr.status, loadExitCode(fr.status));
        const util::Status kerr = checkTraceKey(opt, app, fr.key);
        if (!kerr.ok())
            return failCommand(opt, manifest, "sample_stream", kerr,
                               kExitBadInput);
        res = fr.result;
        describeTrace(manifest, fr.key);
        manifest.addStage("sample_stream", now() - t0,
                          res.instructions);
    } else if (const int code = recordTrace(opt, commandKey(opt, app),
                                            manifest, trace)) {
        return code;
    }
    if (trace) {
        const double t0 = now();
        res = core::sampleTiming(*trace, opt.platform, sopts);
        manifest.addStage("sample_replay", now() - t0,
                          res.instructions);
    }
    manifest.traceMode = opt.salvage ? "salvage" : "sampled";
    if (!res.status.ok())
        return failCommand(opt, manifest, "sample", res.status,
                           kExitSimFailure);
    for (const auto &e : res.shardErrors)
        manifest.addFailure(manifest.app, manifest.variant,
                            "sample_shard", e);

    std::printf("%s (%s) on %s, sampled%s:\n", app.name.c_str(),
                manifest.variant.c_str(), opt.platform.name.c_str(),
                res.exhaustive ? " (exhaustive fallback)" : "");
    std::printf("  verified    : %s\n", res.verified ? "yes" : "NO");
    std::printf("  instructions: %llu\n",
                static_cast<unsigned long long>(res.instructions));
    std::printf("  CPI         : %.4f +/- %.4f (95%% CI, %llu "
                "intervals, cv %.3f)\n",
                res.cpi, res.ci95,
                static_cast<unsigned long long>(res.intervals),
                res.cv);
    std::printf("  coverage    : %.2f%% (%llu instructions measured, "
                "%llu shards)\n", 100.0 * res.coverage,
                static_cast<unsigned long long>(
                    res.measuredInstructions),
                static_cast<unsigned long long>(res.shards));
    std::printf("  proj cycles : %.0f  (IPC %.2f)\n",
                res.projectedCycles, res.ipc);
    std::printf("  proj time   : %.6f s at %.3f GHz\n", res.seconds,
                opt.platform.core.clockGhz);
    if (res.failedShards)
        std::printf("  degraded    : %llu shard%s failed and %s "
                    "skipped\n",
                    static_cast<unsigned long long>(res.failedShards),
                    res.failedShards == 1 ? "" : "s",
                    res.failedShards == 1 ? "was" : "were");
    // A salvaged trace can't verify (the stream has gaps); success on
    // this path means the recovered shards sampled cleanly.
    return finishCommand(opt, manifest, res.verified || opt.salvage,
                         res.report());
}

int
cmdTime(const Options &opt, const apps::AppInfo *app)
{
    if (opt.sample)
        return cmdTimeSampled(opt, *app);
    util::RunManifest manifest = makeManifest(opt, *app);
    CommandInput in;
    if (const int code = openInput(opt, *app, manifest, in))
        return code;
    const core::TimingResult res =
        core::Simulator::time(in.source(), opt.platform);
    manifest.addStage(in.trace ? "time_replay" : "time", now() - in.start,
                      res.instructions);
    if (!res.status.ok())
        return failCommand(opt, manifest, "time", res.status,
                           kExitSimFailure);

    std::printf("%s (%s) on %s:\n", app->name.c_str(),
                manifest.variant.c_str(),
                opt.platform.name.c_str());
    std::printf("  verified    : %s\n", res.verified ? "yes" : "NO");
    std::printf("  instructions: %llu\n",
                static_cast<unsigned long long>(res.instructions));
    std::printf("  cycles      : %llu  (IPC %.2f)\n",
                static_cast<unsigned long long>(res.cycles), res.ipc);
    std::printf("  mispredicts : %llu\n",
                static_cast<unsigned long long>(res.mispredicts));
    std::printf("  time        : %.6f s at %.3f GHz\n", res.seconds,
                opt.platform.core.clockGhz);
    return finishCommand(opt, manifest, res.verified, res.report());
}

int
cmdSpeedup(const Options &opt, const apps::AppInfo *app)
{
    if (!app->transformable) {
        std::printf("%s has no transformed variant (try: bioperfsim "
                    "list)\n", app->name.c_str());
        return kExitBadInput;
    }
    util::RunManifest manifest = makeManifest(opt, *app);
    const double t0 = now();
    const core::SpeedupResult r = core::Simulator::speedup(
        *app, opt.platform, opt.scale, opt.seed, opt.threads);
    manifest.addStage("speedup", now() - t0,
                      r.baseline.instructions +
                          r.transformed.instructions);
    if (!r.baseline.status.ok())
        manifest.addFailure(manifest.app, "baseline", "speedup",
                            r.baseline.status.str());
    if (!r.transformed.status.ok())
        manifest.addFailure(manifest.app, "transformed", "speedup",
                            r.transformed.status.str());
    if (!manifest.failures.empty()) {
        std::printf("%s\n", manifest.failures.front().error.c_str());
        writeJsonReport(opt, false, manifest, r.report());
        return kExitSimFailure;
    }

    std::printf("%s on %s: %llu -> %llu cycles, speedup %.1f%%\n",
                app->name.c_str(), opt.platform.name.c_str(),
                static_cast<unsigned long long>(r.baseline.cycles),
                static_cast<unsigned long long>(r.transformed.cycles),
                100.0 * (r.speedup - 1.0));
    return finishCommand(opt, manifest, r.verified(), r.report());
}

int
cmdCandidates(const Options &opt, const apps::AppInfo *app)
{
    util::RunManifest manifest = makeManifest(opt, *app);
    const double start = now();
    apps::AppRun run = app->make(apps::Variant::Baseline, opt.scale,
                                opt.seed);
    const core::CharacterizationResult res =
        core::Simulator::characterize(run);
    manifest.addStage("characterize", now() - start, res.instructions);
    if (!res.status.ok())
        return failCommand(opt, manifest, "characterize", res.status,
                           kExitSimFailure);
    const auto cands = core::findCandidates(res.loads);
    util::json::Value list = util::json::Value::array();
    util::TextTable t({ "file", "line", "array", "frequency",
                        "branch mispredict" });
    for (const auto &e : cands) {
        t.row()
            .cell(e.file)
            .cell(static_cast<int64_t>(e.line))
            .cell(e.region)
            .cellPercent(100.0 * e.frequency, 2)
            .cellPercent(100.0 * e.nextBranchMissRate(), 1);
        util::json::Value c = util::json::Value::object();
        c["file"] = e.file;
        c["line"] = static_cast<int64_t>(e.line);
        c["array"] = e.region;
        c["frequency"] = e.frequency;
        c["next_branch_miss_rate"] = e.nextBranchMissRate();
        list.push(std::move(c));
    }
    if (cands.empty())
        std::printf("no candidates found\n");
    else
        std::printf("%s", t.str().c_str());
    util::json::Value metrics = util::json::Value::object();
    metrics["candidates"] = std::move(list);
    return finishCommand(opt, manifest, res.verified, std::move(metrics));
}

/** --trace-out saves what was recovered as a clean, checksummed file. */
int
cmdSalvage(const Options &opt, const apps::AppInfo *)
{
    const std::string &path = opt.app; // argv[2] is the file here
    util::RunManifest manifest;
    manifest.bench = "bioperfsim-salvage";
    manifest.app = path;
    manifest.variant = "";
    manifest.scale = "";
    manifest.traceMode = "salvage";

    const double t0 = now();
    const core::TraceSalvageResult sr = core::salvageTraceFile(path);
    if (!sr.status.ok()) {
        if (sr.key.app)
            describeTrace(manifest, sr.key);
        return failCommand(opt, manifest, "trace_salvage", sr.status,
                           kExitTrace);
    }
    reportSalvage(path, sr, t0, manifest);
    if (!opt.traceOut.empty()) {
        const double t1 = now();
        const util::Status serr =
            core::saveTraceFile(opt.traceOut, sr.key, *sr.trace);
        if (!serr.ok())
            return failCommand(opt, manifest, "trace_save", serr,
                               kExitWriteFailure);
        manifest.addStage("trace_save", now() - t1);
        std::printf("wrote %s (%llu instructions)\n",
                    opt.traceOut.c_str(),
                    static_cast<unsigned long long>(
                        sr.trace->instructions));
    }

    util::json::Value metrics = util::json::Value::object();
    metrics["total_instructions"] =
        static_cast<int64_t>(sr.totalInstructions);
    metrics["recovered_instructions"] =
        static_cast<int64_t>(sr.recoveredInstructions);
    metrics["lost_instructions"] =
        static_cast<int64_t>(sr.lostInstructions);
    metrics["total_chunks"] = static_cast<int64_t>(sr.totalChunks);
    metrics["recovered_chunks"] =
        static_cast<int64_t>(sr.recoveredChunks);
    metrics["lost_chunks"] = static_cast<int64_t>(sr.lostChunks);
    metrics["gaps"] = static_cast<int64_t>(sr.gaps);
    return finishCommand(opt, manifest, true, std::move(metrics));
}

int
cmdDump(const Options &opt, const apps::AppInfo *app)
{
    apps::AppRun run = app->make(opt.variant, opt.scale, opt.seed);
    for (size_t f = 0; f < run.prog->numFunctions(); f++) {
        std::printf("%s\n",
                    ir::toString(*run.prog, run.prog->function(f))
                        .c_str());
    }
    return 0;
}

/** The operand main() resolves to an application. */
constexpr const char *kApp = "<app>";

struct Command
{
    const char *name;
    const char *operand; ///< what follows the name: kApp, a file or null
    std::vector<std::string_view> options; ///< any other: usage error
    /** The handler; @a app is the <app> operand, null for the others. */
    int (*run)(const Options &opt, const apps::AppInfo *app);
    const char *help;
};

/** Every command, once. */
const Command kCommands[] = {
    { "list", nullptr, {}, cmdList, "all applications" },
    { "characterize", kApp,
      { "--scale", "--variant", "--seed", "--json", "--trace-out",
        "--trace-in" },
      cmdCharacterize, "instruction mix, coverage, cache, load/branch" },
    { "time", kApp,
      { "--scale", "--variant", "--platform", "--predictor", "--seed",
        "--threads", "--json", "--trace-out", "--trace-in", "--sample",
        "--sample-interval", "--sample-detail", "--sample-warmup",
        "--sample-shard-chunks", "--sample-window-chunks",
        "--sample-min-warm", "--salvage" },
      cmdTime, "cycle-level timing on a platform" },
    { "speedup", kApp,
      { "--scale", "--platform", "--predictor", "--seed", "--threads",
        "--json" },
      cmdSpeedup, "baseline vs transformed" },
    { "candidates", kApp, { "--scale", "--seed", "--json" },
      cmdCandidates, "ranked load-scheduling candidates" },
    { "dump", kApp, { "--scale", "--variant", "--seed" }, cmdDump,
      "print the kernel IR" },
    { "salvage", "<file.bptrace>", { "--json", "--trace-out" },
      cmdSalvage, "recover the intact keyframe regions of a damaged "
      "trace file (--trace-out FILE rewrites the recovered trace)" },
};

bool
contains(const std::vector<std::string_view> &list, std::string_view item)
{
    return std::ranges::find(list, item) != list.end();
}

/** The row of @a table named @a name, or null. */
template <typename Row, size_t N>
const Row *
findRow(const Row (&table)[N], std::string_view name)
{
    for (const Row &row : table)
        if (name == row.name)
            return &row;
    return nullptr;
}

bool
runsPlatform(const Options &opt)
{
    return contains(findRow(kCommands, opt.command)->options, "--platform");
}

/** @a r in words, for the usage text and the usage error. */
std::string
ruleText(const OptionRule &r)
{
    std::string s = r.command ? std::string("on ") + r.command + ", " : "";
    for (size_t i = 0; i < r.needs.size(); i++)
        s += (i ? " and " : "needs ") + std::string(r.needs[i]);
    if (r.excludes)
        s += std::string("not with ") + r.excludes;
    return s;
}

/**
 * Why @a o has no effect beside the @a given options: @a cmd does not
 * take it, or its rule does not hold. Empty when it has an effect.
 */
std::string
whyIgnored(const Command &cmd, const OptionSpec &o,
           const std::vector<std::string_view> &given)
{
    if (!contains(cmd.options, o.name))
        return std::string(cmd.name) + " does not take it";
    const OptionRule &r = o.rule;
    if (r.command && r.command != std::string_view(cmd.name))
        return {};
    for (std::string_view need : r.needs)
        if (!contains(given, need))
            return ruleText(r);
    if (r.excludes && contains(given, r.excludes))
        return ruleText(r);
    return {};
}

/** Prints @a head, then @a text word-wrapped into the help column. */
void
printRow(const std::string &head, const std::string &text)
{
    std::string line = "  " + head;
    std::istringstream words(text);
    std::string word;
    while (words >> word) {
        if (line.size() + 1 + word.size() > 76) {
            std::printf("%s\n", line.c_str());
            line.clear();
        }
        line.resize(std::max<size_t>(line.size() + 1, 28), ' ');
        line += word;
    }
    std::printf("%s\n", line.c_str());
}

void
usage()
{
    std::printf("usage: bioperfsim <command> [operand] [options]\n\n"
                "commands:\n");
    for (const Command &c : kCommands) {
        printRow(c.operand ? c.name + std::string(" ") + c.operand : c.name,
                 c.help);
        std::string takes = "options:";
        for (std::string_view option : c.options) {
            takes += ' ';
            takes += option;
        }
        if (!c.options.empty())
            printRow("", takes);
    }
    std::printf("\noptions:\n");
    for (const OptionSpec &o : kOptions) {
        const std::string rule = ruleText(o.rule);
        printRow(o.value ? std::string(o.name) + " " + o.value : o.name,
                 o.help + (rule.empty() ? "" : "; " + rule));
    }
    std::printf("\nexit codes: 0 ok, 1 usage, 2 bad input, 3 trace load "
                "or\nintegrity failure, 4 verification failure, 5 "
                "simulation\nfailure, 6 output write failure\n");
}

/** Prints @a why, and the usage when @a withUsage, then exits 1. */
[[noreturn]] void
usageError(const std::string &why, bool withUsage = false)
{
    if (!why.empty())
        std::printf("%s\n", why.c_str());
    if (withUsage)
        usage();
    std::exit(kExitUsage);
}

/**
 * Parses the command line against the two tables. A line without a
 * known command, its operand and known options, a missing or malformed
 * value, or an option the command would ignore is a usage error.
 */
const Command &
parse(int argc, char **argv, Options &opt)
{
    const Command *cmd = argc < 2 ? nullptr : findRow(kCommands, argv[1]);
    if (!cmd)
        usageError(argc < 2 ? "" : "unknown command " + std::string(argv[1]),
                   true);
    opt.command = cmd->name;
    int i = 2;
    if (cmd->operand) {
        if (argc < 3)
            usageError("", true);
        opt.app = argv[i++];
    }
    std::vector<std::string_view> given;
    for (; i < argc; i++) {
        const OptionSpec *o = findRow(kOptions, argv[i]);
        if (!o)
            usageError("unknown option " + std::string(argv[i]), true);
        given.push_back(o->name);
        if (o->value && i + 1 >= argc)
            usageError("missing value for " + std::string(o->name));
        const char *v = o->value ? argv[++i] : nullptr;
        if (const char *expected = o->set(opt, v))
            usageError("bad value '" + std::string(v) + "' for " + o->name +
                       " (expected " + expected + ")");
    }
    for (std::string_view option : given) {
        const std::string why =
            whyIgnored(*cmd, *findRow(kOptions, option), given);
        if (!why.empty())
            usageError(std::string(option) + " has no effect here (" +
                       why + ")");
    }
    return *cmd;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    const Command &cmd = parse(argc, argv, opt);
    const apps::AppInfo *app = nullptr;
    if (cmd.operand == kApp && !(app = apps::findApp(opt.app))) {
        std::printf("unknown application '%s' (try: bioperfsim list)\n",
                    opt.app.c_str());
        return kExitBadInput;
    }
    try {
        return cmd.run(opt, app);
    } catch (const util::StatusError &e) {
        // Last-resort mapping for statuses thrown through value()
        // deep in the library; commands handle their own failures
        // above, so reaching this is itself worth reporting loudly.
        std::printf("unhandled failure: %s\n",
                    e.status().str().c_str());
        return exitCodeFor(e.status());
    }
}
