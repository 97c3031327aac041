#ifndef BIOPERF_UTIL_METRICS_H_
#define BIOPERF_UTIL_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace bioperf::util {

/**
 * Identity and cost of one run, attached to every emitted report so
 * results from different benches, scales and machines stay
 * comparable (the paper's methodology tables, made machine-readable).
 */
struct RunManifest
{
    /** One timed phase of the run. */
    struct Stage
    {
        std::string name;
        double wallSeconds = 0.0;
        /** Simulated instructions executed during the stage. */
        uint64_t instructions = 0;

        /** Simulated MIPS: instructions per wall-clock second. */
        double simulatedMips() const
        {
            return wallSeconds <= 0.0
                       ? 0.0
                       : static_cast<double>(instructions) /
                             wallSeconds / 1e6;
        }
    };

    /**
     * One failure or degradation event observed during the run: a
     * sweep entry that errored, a recording that failed, a sampling
     * shard that was skipped. A clean run has an empty
     * failures array; partial runs still emit their JSON with every
     * incident listed here.
     */
    struct Failure
    {
        std::string app;     ///< workload (or trace key) affected
        std::string variant; ///< "" when not entry-specific
        std::string stage;   ///< "sweep", "trace_record", ...
        std::string error;   ///< formatted Status
    };

    std::string bench;   ///< producing binary or tool
    std::string app;     ///< application, or "suite" for multi-app runs
    std::string variant = "baseline";
    std::string scale = "medium";
    uint64_t seed = 42;
    std::string platform; ///< timing platform; "" for pure profiling
    unsigned threads = 1;
    std::string traceMode = "batched";
    std::vector<Stage> stages;
    std::vector<Failure> failures;

    void
    addStage(const std::string &name, double wall_seconds,
             uint64_t instructions = 0)
    {
        stages.push_back(Stage{ name, wall_seconds, instructions });
    }

    void
    addFailure(const std::string &failed_app,
               const std::string &failed_variant,
               const std::string &stage, const std::string &error)
    {
        failures.push_back(
            Failure{ failed_app, failed_variant, stage, error });
    }

    /**
     * The manifest as a JSON object. Every key is always present
     * (empty string / zero / empty array when not applicable) so
     * consumers can rely on the shape: bench, app, variant, scale,
     * seed, platform, threads, trace_mode, stages[{name,
     * wall_seconds, instructions, simulated_mips}], failures[{app,
     * variant, stage, error}].
     */
    json::Value report() const;
};

} // namespace bioperf::util

#endif // BIOPERF_UTIL_METRICS_H_
