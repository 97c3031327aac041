#include "cpu/platforms.h"

#include "cpu/inorder_core.h"
#include "cpu/ooo_core.h"

namespace bioperf::cpu {

namespace {

mem::CacheConfig
cache(const std::string &name, uint64_t kb, uint32_t assoc,
      uint32_t block = 64)
{
    mem::CacheConfig c;
    c.name = name;
    c.sizeBytes = kb * 1024;
    c.assoc = assoc;
    c.blockSize = block;
    return c;
}

} // namespace

std::unique_ptr<TimingCore>
PlatformConfig::makeCore(mem::CacheHierarchy *caches,
                         branch::BranchPredictor *predictor) const
{
    if (core.outOfOrder)
        return std::make_unique<OooCore>(core, caches, predictor);
    return std::make_unique<InorderCore>(core, caches, predictor);
}

PlatformConfig
alpha21264()
{
    PlatformConfig p;
    p.name = "Alpha 21264";
    p.core.name = "alpha21264";
    p.core.outOfOrder = true;
    p.core.fetchWidth = 4;
    p.core.issueWidth = 4;
    p.core.retireWidth = 4;
    p.core.windowSize = 80;        // 21264 in-flight window
    p.core.mispredictPenalty = 9;  // effective: 7-stage front end
                                   // plus map/slot refill
    p.core.clockGhz = 0.833;
    p.core.numIntRegs = 32;
    p.core.numFpRegs = 32;
    p.l1 = cache("L1D", 64, 2);
    p.l2 = cache("L2", 4096, 1);
    // Table 7: L1 hit 3 cycles, L2 hit 8 cycles (penalty 5); the
    // 72-cycle memory penalty matches the paper's AMAT arithmetic.
    p.latencies = { 3, 5, 72 };
    return p;
}

PlatformConfig
powerpcG5()
{
    PlatformConfig p;
    p.name = "Power PC G5";
    p.core.name = "ppc970";
    p.core.outOfOrder = true;
    p.core.fetchWidth = 4;
    p.core.issueWidth = 4;
    p.core.retireWidth = 4;
    p.core.windowSize = 36;         // PPC970 tracks ~100 in flight,
                                    // but 5-wide *group*-based issue
                                    // limits extractable ILP; modeled
                                    // as a smaller effective window
    p.core.mispredictPenalty = 8;   // 16+-stage pipeline, offset by
                                    // group-commit fast redirect
    p.core.clockGhz = 2.7;
    p.core.numIntRegs = 32;
    p.core.numFpRegs = 32;
    p.l1 = cache("L1D", 32, 2);
    p.l2 = cache("L2", 512, 8);
    // Table 7: L1 hit 3 cycles, L2 hit 11-12 cycles (penalty 9);
    // ~90 ns memory at 2.7 GHz.
    p.latencies = { 3, 9, 240 };
    return p;
}

PlatformConfig
pentium4()
{
    PlatformConfig p;
    p.name = "Pentium 4";
    p.core.name = "pentium4";
    p.core.outOfOrder = true;
    p.core.fetchWidth = 3;
    p.core.issueWidth = 3;
    p.core.retireWidth = 3;
    p.core.windowSize = 126;        // Willamette/Northwood ROB
    p.core.mispredictPenalty = 20;  // 20-stage Netburst pipeline
    p.core.clockGhz = 2.0;
    p.core.numIntRegs = 8;          // IA-32 architectural registers
    p.core.numFpRegs = 8;
    p.l1 = cache("L1D", 8, 4);
    p.l2 = cache("L2", 512, 8);
    // Table 7: L1 hit 2 cycles; L2 hit ~18 cycles (penalty 16);
    // ~125 ns memory at 2.0 GHz.
    p.latencies = { 2, 16, 250 };
    return p;
}

PlatformConfig
itanium2()
{
    PlatformConfig p;
    p.name = "Itanium 2";
    p.core.name = "itanium2";
    p.core.outOfOrder = false;
    p.core.fetchWidth = 6;
    p.core.issueWidth = 6;
    p.core.retireWidth = 6;
    p.core.windowSize = 1;          // unused when in-order
    p.core.mispredictPenalty = 4;   // short in-order pipeline
    p.core.clockGhz = 1.6;
    p.core.numIntRegs = 128;
    p.core.numFpRegs = 128;
    p.core.fpAluLatency = 4;
    p.l1 = cache("L1D", 16, 4);
    p.l2 = cache("L2", 256, 8);
    // Table 7: 1-cycle integer L1 hit; L2 hit ~5 cycles (penalty 4).
    p.latencies = { 1, 4, 200 };
    return p;
}

PlatformConfig
atomReference()
{
    PlatformConfig p = alpha21264();
    p.name = "ATOM reference (Alpha 21264)";
    p.predictor = "hybrid";
    return p;
}

std::vector<PlatformConfig>
evaluationPlatforms()
{
    return { alpha21264(), powerpcG5(), pentium4(), itanium2() };
}

} // namespace bioperf::cpu
