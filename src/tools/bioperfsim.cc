/**
 * @file
 * bioperfsim: command-line driver for the library.
 *
 *   bioperfsim list
 *   bioperfsim characterize <app> [--scale s|m|l] [--seed N]
 *   bioperfsim time <app> [--platform alpha|ppc|p4|itanium]
 *                        [--variant base|xform] [--scale s|m|l]
 *                        [--predictor NAME] [--seed N]
 *   bioperfsim speedup <app> [--platform ...] [--scale ...] [--seed N]
 *                           [--threads N]
 *   bioperfsim candidates <app> [--scale ...] [--seed N]
 *   bioperfsim dump <app> [--variant base|xform] [--seed N]
 *   bioperfsim salvage <file.bptrace> [--json FILE]
 *
 * Every metric-bearing command accepts --json <file> to additionally
 * emit its full result as a machine-readable report (schema
 * "bioperf.run.v1": run manifest plus the command's metric tree). The
 * report is written on failure paths too, with every incident listed
 * in the manifest's `failures` array — a partial run still produces a
 * parseable artifact.
 *
 * This is the only layer that maps util::Status to exit codes; the
 * library never terminates the process. Exit codes:
 *   0  success
 *   1  usage error (unknown command or option, missing or bad
 *      option value)
 *   2  bad input (unknown app, mismatched trace identity/registers)
 *   3  trace load or integrity failure (corrupt/truncated .bptrace)
 *   4  golden-model verification failure
 *   5  simulation failure (recording failed, sweep entry failed)
 *   6  output write failure (JSON report, .bptrace save)
 */
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
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

struct Options
{
    std::string command;
    std::string app;
    apps::Scale scale = apps::Scale::Small;
    apps::Variant variant = apps::Variant::Baseline;
    cpu::PlatformConfig platform = cpu::alpha21264();
    uint64_t seed = 42;
    /** Worker threads for sweeps (1 = inline, 0 = pool default). */
    unsigned threads = 1;
    /** When non-empty, also write the result as JSON to this path. */
    std::string jsonPath;
    /** Record the workload and save it as a .bptrace file here. */
    std::string traceOut;
    /** Replay a saved .bptrace file instead of interpreting. */
    std::string traceIn;
    /** time: sampled (approximate) timing instead of full replay. */
    bool sample = false;
    /**
     * time --sample --trace-in: recover what a corrupt/truncated
     * .bptrace still holds and sample the salvaged shards.
     */
    bool salvage = false;
    /** Sampling knobs (seed/threads are folded in from above). */
    core::SamplingOptions sampling;
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

void
usage()
{
    std::printf(
        "usage: bioperfsim <command> [app] [options]\n"
        "\n"
        "commands:\n"
        "  list                      all applications\n"
        "  characterize <app>        instruction mix, coverage, cache,\n"
        "                            load/branch sequences\n"
        "  time <app>                cycle-level timing on a platform\n"
        "  speedup <app>             baseline vs transformed\n"
        "  candidates <app>          ranked load-scheduling candidates\n"
        "  dump <app>                print the kernel IR\n"
        "  salvage <file.bptrace>    recover the intact keyframe\n"
        "                            regions of a damaged trace file\n"
        "                            (--trace-out FILE rewrites the\n"
        "                            recovered trace)\n"
        "\n"
        "options:\n"
        "  --scale s|m|l             workload size (default s)\n"
        "  --variant base|xform      kernel version (default base;\n"
        "                            not speedup or candidates)\n"
        "  --platform alpha|ppc|p4|itanium   (time, speedup; default\n"
        "                            alpha; the core names alpha21264,\n"
        "                            ppc970, pentium4, itanium2 also\n"
        "                            work)\n"
        "  --predictor NAME          (time, speedup) perfect/static/\n"
        "                            bimodal/gshare/local/hybrid\n"
        "  --seed N                  workload seed (default 42)\n"
        "  --threads N               (speedup, time --sample) workers\n"
        "                            (default 1 = inline; 0 = pool\n"
        "                            default, honours BIOPERF_THREADS)\n"
        "  --json FILE               also write the result as a JSON\n"
        "                            report (manifest + metrics)\n"
        "  --trace-out FILE          (characterize, time; not with\n"
        "                            --trace-in) record the workload\n"
        "                            once, save it as a .bptrace\n"
        "                            file, and analyse the replayed\n"
        "                            stream\n"
        "  --trace-in FILE           (characterize, time) replay a\n"
        "                            saved .bptrace instead of\n"
        "                            interpreting; results are bit-\n"
        "                            identical to the live run the\n"
        "                            trace was recorded from\n"
        "  --sample                  (time) sampled timing: alternate\n"
        "                            functional warming with detailed\n"
        "                            measurement intervals and report\n"
        "                            mean CPI with a 95%% confidence\n"
        "                            interval; with --trace-in the\n"
        "                            file streams chunk-at-a-time and\n"
        "                            workers seek straight to their\n"
        "                            shards' keyframes; the\n"
        "                            --sample-* knobs need it\n"
        "  --sample-interval N       instructions per sampling unit\n"
        "                            (default 200000)\n"
        "  --sample-detail N         measured instructions per unit\n"
        "                            (default 20000)\n"
        "  --sample-warmup N         detailed-but-unmeasured warm-up\n"
        "                            before each measurement\n"
        "                            (default 5000)\n"
        "  --sample-shard-chunks N   chunks per shard, rounded up to\n"
        "                            a keyframe multiple (0 = the\n"
        "                            library default)\n"
        "  --sample-window-chunks N  decoded chunks per shard; the\n"
        "                            rest of each shard is skipped\n"
        "                            without decoding (0 = three\n"
        "                            eighths of the shard)\n"
        "  --sample-min-warm N       functional-warm instructions\n"
        "                            before a window's first\n"
        "                            measurement (default 1000000)\n"
        "  --salvage                 (time --sample --trace-in)\n"
        "                            recover what a damaged .bptrace\n"
        "                            still holds and sample the\n"
        "                            salvaged shards\n"
        "\n"
        "exit codes: 0 ok, 1 usage, 2 bad input, 3 trace load or\n"
        "integrity failure, 4 verification failure, 5 simulation\n"
        "failure, 6 output write failure\n");
}

/** The --platform values: short name or the core's own name. */
struct PlatformFlag
{
    const char *flag;
    cpu::PlatformConfig (*make)();
};
constexpr PlatformFlag kPlatformFlags[] = {
    { "alpha", cpu::alpha21264 },
    { "ppc", cpu::powerpcG5 },
    { "p4", cpu::pentium4 },
    { "itanium", cpu::itanium2 },
};

/** Whether the command runs a timing platform (and its predictor). */
bool
runsPlatform(const Options &opt)
{
    return opt.command == "time" || opt.command == "speedup";
}

/**
 * Why this command line leaves @a flag without effect, or null when
 * the command uses it.
 */
const char *
unusedBecause(const Options &opt, const std::string &flag)
{
    const bool traced =
        opt.command == "characterize" || opt.command == "time";
    if ((flag == "--platform" || flag == "--predictor") &&
        !runsPlatform(opt))
        return "only time and speedup run a platform";
    if (flag == "--threads" && opt.command != "speedup" &&
        !(opt.command == "time" && opt.sample))
        return "only speedup and time --sample run workers";
    if (flag == "--variant" && opt.command == "speedup")
        return "speedup runs both variants";
    if (flag == "--variant" && opt.command == "candidates")
        return "candidates analyses the baseline";
    if (flag == "--trace-in" && !traced)
        return "only characterize and time replay a trace";
    if (flag == "--trace-out" && !traced && opt.command != "salvage")
        return "only characterize, time and salvage write a trace";
    if (flag == "--trace-out" && !opt.traceIn.empty())
        return "--trace-in replays a saved trace, nothing is recorded";
    if (flag.starts_with("--sample") && opt.command != "time")
        return "only time samples";
    if (flag.starts_with("--sample-") && !opt.sample)
        return "sampling knobs need --sample";
    if (flag == "--salvage" && (!opt.sample || opt.traceIn.empty()))
        return "it needs time --sample --trace-in";
    return nullptr;
}

/**
 * Parses the command line. A missing, unknown or malformed value, or
 * an option the command would ignore, is a usage error naming it: the
 * command never runs on a default it silently substituted or without
 * an option it was given.
 */
bool
parse(int argc, char **argv, Options &opt)
{
    if (argc < 2)
        return false;
    opt.command = argv[1];
    int i = 2;
    if (opt.command != "list") {
        if (argc < 3)
            return false;
        opt.app = argv[2];
        i = 3;
    }
    std::vector<std::string> given;
    for (; i < argc; i++) {
        const std::string a = argv[i];
        given.push_back(a);
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::printf("missing value for %s\n", a.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        auto reject = [&](const std::string &v, const char *expected) {
            std::printf("bad value '%s' for %s (expected %s)\n",
                        v.c_str(), a.c_str(), expected);
            std::exit(kExitUsage);
        };
        // The whole value must be an unsigned decimal that fits.
        auto number = [&](auto &field) {
            const char *v = next();
            char *end = nullptr;
            errno = 0;
            const unsigned long long n = std::strtoull(v, &end, 10);
            using T = std::remove_reference_t<decltype(field)>;
            if (!std::isdigit(static_cast<unsigned char>(*v)) ||
                *end != '\0' || errno == ERANGE ||
                n > std::numeric_limits<T>::max())
                reject(v, "an unsigned integer");
            field = static_cast<T>(n);
        };
        if (a == "--scale") {
            const std::string v = next();
            if (v == "s")
                opt.scale = apps::Scale::Small;
            else if (v == "m")
                opt.scale = apps::Scale::Medium;
            else if (v == "l")
                opt.scale = apps::Scale::Large;
            else
                reject(v, "s|m|l");
        } else if (a == "--variant") {
            const std::string v = next();
            if (v == "base")
                opt.variant = apps::Variant::Baseline;
            else if (v == "xform")
                opt.variant = apps::Variant::Transformed;
            else
                reject(v, "base|xform");
        } else if (a == "--platform") {
            const std::string v = next();
            bool found = false;
            for (const PlatformFlag &f : kPlatformFlags)
                if (v == f.flag || v == f.make().core.name) {
                    opt.platform = f.make();
                    found = true;
                }
            if (!found)
                reject(v, "alpha|ppc|p4|itanium");
        } else if (a == "--predictor") {
            const std::string v = next();
            if (branch::makePredictor(v) == nullptr)
                reject(v, "perfect|static|bimodal|gshare|local|hybrid");
            opt.platform.predictor = v;
        } else if (a == "--seed") {
            number(opt.seed);
        } else if (a == "--threads") {
            number(opt.threads);
        } else if (a == "--json") {
            opt.jsonPath = next();
        } else if (a == "--trace-out") {
            opt.traceOut = next();
        } else if (a == "--trace-in") {
            opt.traceIn = next();
        } else if (a == "--sample") {
            opt.sample = true;
        } else if (a == "--salvage") {
            opt.salvage = true;
        } else if (a == "--sample-interval") {
            number(opt.sampling.interval);
        } else if (a == "--sample-detail") {
            number(opt.sampling.detailLen);
        } else if (a == "--sample-warmup") {
            number(opt.sampling.warmupLen);
        } else if (a == "--sample-shard-chunks") {
            number(opt.sampling.shardChunks);
        } else if (a == "--sample-window-chunks") {
            number(opt.sampling.windowChunks);
        } else if (a == "--sample-min-warm") {
            number(opt.sampling.minWarm);
        } else {
            std::printf("unknown option %s\n", a.c_str());
            return false;
        }
    }
    for (const std::string &flag : given)
        if (const char *why = unusedBecause(opt, flag)) {
            std::printf("%s has no effect here (%s)\n", flag.c_str(),
                        why);
            std::exit(kExitUsage);
        }
    return true;
}

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
 * Assembles the "bioperf.run.v1" document and writes it to
 * opt.jsonPath (no-op when --json was not given).
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
 * Failure epilogue shared by every metric command: prints the reason,
 * records it in the manifest's failures array, and still writes the
 * JSON report (ok=false) so a failed run leaves a parseable artifact.
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
    key.registerPressure = opt.command == "time";
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
 *         through failCommand() (recording: kExitSimFailure; save:
 *         kExitWriteFailure)
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
cmdList()
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
cmdCharacterize(const Options &opt, const apps::AppInfo &app)
{
    util::RunManifest manifest = makeManifest(opt, app);
    CommandInput in;
    if (const int code = openInput(opt, app, manifest, in))
        return code;
    const core::CharacterizationResult res =
        core::Simulator::characterize(in.source());
    manifest.addStage(in.trace ? "characterize_replay" : "characterize",
                      now() - in.start, res.instructions);
    if (!res.status.ok())
        return failCommand(opt, manifest, "characterize", res.status,
                           kExitSimFailure);
    if (!res.verified)
        manifest.addFailure(manifest.app, manifest.variant, "verify",
                            "output does not match the golden model");

    std::printf("application      : %s (%s)\n", app.name.c_str(),
                app.area.c_str());
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
    if (!writeJsonReport(opt, res.verified, manifest, res.report()))
        return kExitWriteFailure;
    return res.verified ? kExitOk : kExitVerify;
}

/**
 * `time --sample`: sampled (approximate) timing. With --trace-in the
 * .bptrace streams chunk-at-a-time — workers seek directly to their
 * shards' keyframes and the full trace is never materialized;
 * otherwise the workload is recorded once (and saved when --trace-out
 * was given) and sampled in memory.
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
        const util::Status kerr =
            checkTraceKey(opt, app, sr.key);
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
        const util::Status kerr =
            checkTraceKey(opt, app, fr.key);
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
    // A salvaged trace can't verify (the stream has gaps); success on
    // this path means the recovered shards sampled cleanly.
    const bool okRun = res.verified || opt.salvage;
    if (!okRun)
        manifest.addFailure(manifest.app, manifest.variant, "verify",
                            "output does not match the golden model");

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
    if (!writeJsonReport(opt, okRun, manifest, res.report()))
        return kExitWriteFailure;
    return okRun ? kExitOk : kExitVerify;
}

int
cmdTime(const Options &opt, const apps::AppInfo &app)
{
    if (opt.sample)
        return cmdTimeSampled(opt, app);
    util::RunManifest manifest = makeManifest(opt, app);
    CommandInput in;
    if (const int code = openInput(opt, app, manifest, in))
        return code;
    const core::TimingResult res =
        core::Simulator::time(in.source(), opt.platform);
    manifest.addStage(in.trace ? "time_replay" : "time", now() - in.start,
                      res.instructions);
    if (!res.status.ok())
        return failCommand(opt, manifest, "time", res.status,
                           kExitSimFailure);
    if (!res.verified)
        manifest.addFailure(manifest.app, manifest.variant, "verify",
                            "output does not match the golden model");

    std::printf("%s (%s) on %s:\n", app.name.c_str(),
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
    if (!writeJsonReport(opt, res.verified, manifest, res.report()))
        return kExitWriteFailure;
    return res.verified ? kExitOk : kExitVerify;
}

int
cmdSpeedup(const Options &opt, const apps::AppInfo &app)
{
    if (!app.transformable) {
        std::printf("%s has no transformed variant (try: bioperfsim "
                    "list)\n", app.name.c_str());
        return kExitBadInput;
    }
    util::RunManifest manifest = makeManifest(opt, app);
    const double t0 = now();
    const core::SpeedupResult r = core::Simulator::speedup(
        app, opt.platform, opt.scale, opt.seed, opt.threads);
    manifest.addStage("speedup", now() - t0,
                      r.baseline.instructions +
                          r.transformed.instructions);
    if (!r.baseline.status.ok())
        manifest.addFailure(manifest.app, "baseline", "speedup",
                            r.baseline.status.str());
    if (!r.transformed.status.ok())
        manifest.addFailure(manifest.app, "transformed", "speedup",
                            r.transformed.status.str());
    const bool failed =
        !r.baseline.status.ok() || !r.transformed.status.ok();
    if (failed) {
        const util::Status &why = !r.baseline.status.ok()
                                      ? r.baseline.status
                                      : r.transformed.status;
        std::printf("%s\n", why.str().c_str());
        writeJsonReport(opt, false, manifest, r.report());
        return kExitSimFailure;
    }
    if (!r.verified())
        manifest.addFailure(manifest.app, manifest.variant, "verify",
                            "output does not match the golden model");

    std::printf("%s on %s: %llu -> %llu cycles, speedup %.1f%%\n",
                app.name.c_str(), opt.platform.name.c_str(),
                static_cast<unsigned long long>(r.baseline.cycles),
                static_cast<unsigned long long>(r.transformed.cycles),
                100.0 * (r.speedup - 1.0));
    if (!writeJsonReport(opt, r.verified(), manifest, r.report()))
        return kExitWriteFailure;
    return r.verified() ? kExitOk : kExitVerify;
}

int
cmdCandidates(const Options &opt, const apps::AppInfo &app)
{
    apps::AppRun run = app.make(apps::Variant::Baseline, opt.scale,
                                opt.seed);
    core::CandidateFinder finder;
    const auto cands = finder.findCandidates(run);
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
    if (!writeJsonReport(opt, true, makeManifest(opt, app),
                         std::move(metrics)))
        return kExitWriteFailure;
    return kExitOk;
}

/**
 * `salvage <file.bptrace>`: recover the intact keyframe-aligned
 * regions of a damaged trace file, report recovered/lost counts, and
 * optionally (--trace-out) rewrite the recovered trace as a clean,
 * fully-checksummed v3 file.
 */
int
cmdSalvage(const Options &opt)
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
    if (!writeJsonReport(opt, true, manifest, std::move(metrics)))
        return kExitWriteFailure;
    return kExitOk;
}

int
cmdDump(const Options &opt, const apps::AppInfo &app)
{
    apps::AppRun run = app.make(opt.variant, opt.scale, opt.seed);
    for (size_t f = 0; f < run.prog->numFunctions(); f++) {
        std::printf("%s\n",
                    ir::toString(*run.prog, run.prog->function(f))
                        .c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt)) {
        usage();
        return 1;
    }
    if (opt.command == "list")
        return cmdList();
    if (opt.command == "salvage")
        return cmdSalvage(opt);

    const apps::AppInfo *app = apps::findApp(opt.app);
    if (!app) {
        std::printf("unknown application '%s' (try: bioperfsim "
                    "list)\n", opt.app.c_str());
        return kExitBadInput;
    }
    try {
        if (opt.command == "characterize")
            return cmdCharacterize(opt, *app);
        if (opt.command == "time")
            return cmdTime(opt, *app);
        if (opt.command == "speedup")
            return cmdSpeedup(opt, *app);
        if (opt.command == "candidates")
            return cmdCandidates(opt, *app);
        if (opt.command == "dump")
            return cmdDump(opt, *app);
    } catch (const util::StatusError &e) {
        // Last-resort mapping for statuses thrown through value()
        // deep in the library; commands handle their own failures
        // above, so reaching this is itself worth reporting loudly.
        std::printf("unhandled failure: %s\n",
                    e.status().str().c_str());
        return exitCodeFor(e.status());
    }
    usage();
    return kExitUsage;
}
