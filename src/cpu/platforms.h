#ifndef BIOPERF_CPU_PLATFORMS_H_
#define BIOPERF_CPU_PLATFORMS_H_

#include <memory>
#include <string>
#include <vector>

#include "branch/predictors.h"
#include "cpu/core_config.h"
#include "cpu/timing_core.h"
#include "mem/hierarchy.h"

namespace bioperf::cpu {

/**
 * A complete evaluation platform: core, cache hierarchy, predictor
 * choice. The four presets model the machines of Table 7; where the
 * paper does not list a parameter (window size, misprediction
 * penalty, memory latency), standard published figures for the 2006
 * parts are used and noted inline.
 */
struct PlatformConfig
{
    std::string name;
    CoreConfig core;
    mem::CacheConfig l1;
    mem::CacheConfig l2;
    mem::LatencyConfig latencies;
    std::string predictor = "hybrid";

    mem::CacheHierarchy makeHierarchy() const
    {
        return mem::CacheHierarchy(l1, l2, latencies);
    }
    std::unique_ptr<branch::BranchPredictor> makePredictor() const
    {
        return branch::makePredictor(predictor);
    }
    /**
     * The platform's core model (out-of-order or in-order per
     * core.outOfOrder) over @a caches and @a predictor, both borrowed.
     */
    std::unique_ptr<TimingCore> makeCore(
        mem::CacheHierarchy *caches,
        branch::BranchPredictor *predictor) const;
};

/** 833 MHz Alpha 21264: 4-wide OoO, 3-cycle L1 hit, 64 KB 2-way L1. */
PlatformConfig alpha21264();

/** 2.7 GHz PowerPC G5: 4-wide OoO, 3-cycle L1 hit, 32 KB 2-way L1. */
PlatformConfig powerpcG5();

/**
 * 2.0 GHz Pentium 4: 3-wide OoO, 2-cycle L1 hit, 8 KB 4-way L1, long
 * pipeline, and only 8 architectural integer registers — the register
 * pressure that limits the transformation's benefit (Section 5.1).
 */
PlatformConfig pentium4();

/** 1.6 GHz Itanium 2: 6-wide in-order, 1-cycle L1 hit, 128 registers. */
PlatformConfig itanium2();

/**
 * The ATOM characterization reference: Alpha 21264 core with the
 * Table 3 cache model and the paper's hybrid, no-aliasing predictor.
 */
PlatformConfig atomReference();

/** All four evaluation platforms, in the paper's column order. */
std::vector<PlatformConfig> evaluationPlatforms();

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_PLATFORMS_H_
