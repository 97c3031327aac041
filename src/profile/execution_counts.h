#ifndef BIOPERF_PROFILE_EXECUTION_COUNTS_H_
#define BIOPERF_PROFILE_EXECUTION_COUNTS_H_

#include <cstdint>
#include <vector>

#include "util/json.h"
#include "vm/trace.h"

namespace bioperf::profile {

/** Value-type snapshot of an instruction-mix profile (Fig 1/Table 1). */
struct MixSummary
{
    uint64_t total = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t condBranches = 0;
    uint64_t other = 0;
    uint64_t fpInstrs = 0;
    uint64_t fpLoads = 0;
    double loadFraction = 0.0;
    double storeFraction = 0.0;
    double branchFraction = 0.0;
    double otherFraction = 0.0;
    double fpFraction = 0.0;
    double fpLoadFraction = 0.0;

    util::json::Value report() const;
};

/** Value-type snapshot of a static-load coverage profile (Figure 2). */
struct CoverageSummary
{
    uint64_t dynamicLoads = 0;
    uint64_t staticLoads = 0;
    /** Smallest number of static loads covering 90% (paper headline). */
    size_t loadsFor90 = 0;
    /** Coverage of the 80 hottest static loads (paper headline). */
    double coverageAt80 = 0.0;
    /**
     * Cumulative coverage curve: entry i is the fraction of dynamic
     * loads covered by the (i+1) hottest static loads, clipped to
     * kCdfPoints entries (fewer when fewer static loads executed).
     */
    std::vector<double> cdf;

    static constexpr size_t kCdfPoints = 200;

    util::json::Value report() const;
};

/**
 * Executions of each static instruction, indexed by sid: the one
 * count behind the instruction mix (Figure 1, Table 1), static-load
 * coverage (Figure 2) and the per-load table's execution counts.
 *
 * A static instruction's opcode never changes, so every class total
 * is a sum over sids. As with ATOM's basic-block counts, an event
 * only bumps its sid's count (and stores its opcode, so no Program is
 * needed); the summaries are computed when read.
 */
class ExecutionCounts : public vm::TraceSink
{
  public:
    void onBatch(const vm::DynInstr *batch, size_t n) override;

    /** Executions of each sid (ends at the highest executed sid). */
    const std::vector<uint64_t> &bySid() const { return count_; }

    /** Opcode of each sid; meaningful where bySid() is non-zero. */
    const std::vector<ir::Opcode> &opBySid() const { return op_; }

    /** Executions of each static load by sid; 0 for other sids. */
    std::vector<uint64_t> loadExecsBySid() const;

    /**
     * Executed instructions by class (Figure 1) and the floating-point
     * fraction (Table 1). Categories follow the paper: "loads" and
     * "stores" are the memory classes (integer and floating-point),
     * "conditional branches" are Br, everything else (ALU, jumps) is
     * "other". Floating-point instructions are FP ALU ops plus FP
     * loads and stores.
     */
    MixSummary mix() const;

    /**
     * How much of the dynamic load execution the N most frequently
     * executed static loads account for (Figure 2). In the BioPerf
     * codes ~80 static loads cover >90% of all executed loads; in
     * SPEC CPU2000 integer codes the same count covers only 10-58%.
     */
    CoverageSummary coverage() const;

  private:
    std::vector<uint64_t> count_;
    std::vector<ir::Opcode> op_;
};

} // namespace bioperf::profile

#endif // BIOPERF_PROFILE_EXECUTION_COUNTS_H_
