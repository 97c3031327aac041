#ifndef BIOPERF_CPU_DECODED_INSTR_H_
#define BIOPERF_CPU_DECODED_INSTR_H_

#include <cassert>
#include <cstdint>
#include <vector>

#include "cpu/core_config.h"
#include "ir/ir.h"

namespace bioperf::cpu {

/**
 * Pre-decoded per-static-instruction facts for the timing cores.
 *
 * The cores' per-dynamic-instruction work used to re-derive, for every
 * one of the hundreds of millions of events a timing run processes,
 * facts that only depend on the static instruction: the source
 * register list (via ir::gatherReads into a scratch vector), the
 * latency class (two opcode switches) and the destination class.
 * Profiling put that rediscovery at roughly a third of core-model wall
 * time. DecodeTable computes each sid's facts once, on first sight,
 * and the hot loop indexes a flat array thereafter. Timing results are
 * bit-identical; only wall clock changes.
 *
 * Registers are renamed into one dense scoreboard shared by both
 * classes, with two reserved slots that make the hot loop branchless:
 * slot 0 (kReadSentinel) is never written and stays 0, so reads[] can
 * always hold four indices — unused sources point at the sentinel and
 * can never raise the operand-ready cycle; slot 1 (kWriteTrash) is
 * never read, so instructions without a destination still perform an
 * unconditional writeback.
 */
struct DecodedInstr
{
    enum Kind : uint8_t {
        kFixed = 0,  ///< fixedLatency cycles, no memory access
        kLoad,       ///< latency from the cache hierarchy
        kStore,      ///< writes the hierarchy, completes in 1 cycle
        kPrefetch,   ///< warms the hierarchy, completes in 1 cycle
        kUnknown = 0xff,
    };

    /** Scoreboard slot that is always 0 (pads unused reads[]). */
    static constexpr uint32_t kReadSentinel = 0;
    /** Scoreboard slot absorbing writebacks of dst-less instructions. */
    static constexpr uint32_t kWriteTrash = 1;

    Kind kind = kUnknown;
    bool isBranch = false;
    bool isJump = false;
    uint32_t fixedLatency = 1;
    uint32_t dst = kWriteTrash;
    /** Scoreboard slots of every source (address registers included). */
    uint32_t reads[4] = {kReadSentinel, kReadSentinel, kReadSentinel,
                         kReadSentinel};
};

/**
 * Lazily built sid-indexed table of DecodedInstr. One table serves one
 * program (sids are unique per static instruction); the cores own one
 * for the lifetime of a simulation. The table also owns the register
 * renaming: architectural (class, number) pairs get dense scoreboard
 * slots in first-use order, and lookup() grows the caller's scoreboard
 * to cover them, so the hot path indexes it unchecked.
 */
class DecodeTable
{
  public:
    explicit DecodeTable(const CoreConfig &config) : config_(config) {}

    /**
     * The decoded entry for static instruction @a sid, decoding @a in
     * (the instruction with that sid) on first sight. Keyed by the
     * event's sid, so a hit never reads @a in.
     */
    const DecodedInstr &lookup(uint32_t sid, const ir::Instr &in,
                               std::vector<uint64_t> &ready)
    {
        if (sid < entries_.size() &&
            entries_[sid].kind != DecodedInstr::kUnknown)
            return entries_[sid];
        return decode(in, ready);
    }

    /**
     * The entry of @a sid, already decoded by lookup(). Entries move
     * only when lookup() decodes a new sid.
     */
    const DecodedInstr &at(uint32_t sid) const
    {
        assert(sid < entries_.size() &&
               entries_[sid].kind != DecodedInstr::kUnknown);
        return entries_[sid];
    }

  private:
    uint32_t slotOf(ir::RegClass rc, uint32_t reg)
    {
        auto &index = rc == ir::RegClass::Fp ? fp_slot_ : int_slot_;
        if (reg >= index.size())
            index.resize(reg + 1, UINT32_MAX);
        if (index[reg] == UINT32_MAX)
            index[reg] = next_slot_++;
        return index[reg];
    }

    const DecodedInstr &decode(const ir::Instr &in,
                               std::vector<uint64_t> &ready)
    {
        if (in.sid >= entries_.size())
            entries_.resize(in.sid + 1);
        DecodedInstr d;

        std::vector<std::pair<ir::RegClass, uint32_t>> reads;
        ir::gatherReads(in, reads);
        assert(reads.size() <= 4);
        for (size_t i = 0; i < reads.size(); i++)
            d.reads[i] = slotOf(reads[i].first, reads[i].second);

        switch (ir::classOf(in.op)) {
          case ir::InstrClass::IntAlu:
            d.kind = DecodedInstr::kFixed;
            if (in.op == ir::Opcode::Mul)
                d.fixedLatency = config_.intMulLatency;
            else if (in.op == ir::Opcode::Div ||
                     in.op == ir::Opcode::Rem)
                d.fixedLatency = config_.intDivLatency;
            else
                d.fixedLatency = config_.intAluLatency;
            break;
          case ir::InstrClass::FpAlu:
            d.kind = DecodedInstr::kFixed;
            d.fixedLatency = in.op == ir::Opcode::FDiv
                ? config_.fpDivLatency : config_.fpAluLatency;
            break;
          case ir::InstrClass::Load:
          case ir::InstrClass::FpLoad:
            d.kind = DecodedInstr::kLoad;
            break;
          case ir::InstrClass::Store:
          case ir::InstrClass::FpStore:
            d.kind = DecodedInstr::kStore;
            break;
          case ir::InstrClass::Prefetch:
            d.kind = DecodedInstr::kPrefetch;
            break;
          default:
            d.kind = DecodedInstr::kFixed;
            d.fixedLatency = 1;
            break;
        }

        const ir::RegClass dc = ir::dstClass(in);
        if (dc != ir::RegClass::None)
            d.dst = slotOf(dc, in.dst);
        d.isBranch = in.op == ir::Opcode::Br;
        d.isJump = in.op == ir::Opcode::Jmp;

        if (ready.size() < next_slot_)
            ready.resize(next_slot_, 0);

        entries_[in.sid] = d;
        return entries_[in.sid];
    }

    CoreConfig config_;
    std::vector<DecodedInstr> entries_;
    /** Architectural register -> dense scoreboard slot, per class. */
    std::vector<uint32_t> int_slot_;
    std::vector<uint32_t> fp_slot_;
    /** Slots 0/1 are the read sentinel and the writeback trash. */
    uint32_t next_slot_ = 2;
};

} // namespace bioperf::cpu

#endif // BIOPERF_CPU_DECODED_INSTR_H_
