#ifndef BIOPERF_IR_IR_H_
#define BIOPERF_IR_IR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace bioperf::ir {

/**
 * @file
 * A small register-based micro-ISA in which the benchmark kernels are
 * expressed.
 *
 * The original study instrumented Alpha binaries with ATOM; here the
 * kernels are compiled (by hand, through the FunctionBuilder DSL) into
 * this IR, interpreted by bioperf::vm::Interpreter, and observed by
 * trace sinks. The IR deliberately looks like a scheduled RISC
 * instruction stream: virtual registers, explicit loads/stores with
 * base+index*scale+offset addressing, compare results in registers,
 * conditional branches, and conditional moves (Select), so the
 * load-to-branch dependence chains the paper analyzes exist verbatim
 * at this level.
 */

/** Operation codes. Comparison results are 0/1 in an integer register. */
enum class Opcode : uint8_t {
    // Integer ALU. All support an optional immediate second operand.
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor, Shl, Shr,
    CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
    Select,     ///< dst = src0 != 0 ? src1 : src2 (conditional move)
    MovImm,     ///< dst = imm
    Mov,        ///< dst = src0

    // Floating point (double precision).
    FAdd, FSub, FMul, FDiv,
    FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe, ///< int dst
    FSelect,    ///< fdst = src0 != 0 ? fsrc1 : fsrc2
    FMovImm,    ///< fdst = fimm
    FMov,       ///< fdst = fsrc0
    CvtIF,      ///< fdst = double(isrc0)
    CvtFI,      ///< idst = int64(trunc(fsrc0))

    // Memory.
    Load,       ///< idst = sign-extended mem.size bytes at address
    FLoad,      ///< fdst = double at address (mem.size must be 8)
    Store,      ///< mem.size low bytes of isrc0 -> address
    FStore,     ///< double fsrc0 -> address
    Prefetch,   ///< touch the block at address; no register result

    // Control flow (basic block terminators).
    Br,         ///< if isrc0 != 0 goto taken else goto notTaken
    Jmp,        ///< goto taken
    Halt,       ///< end of function
};

/** Coarse instruction classes used by profilers and timing models. */
enum class InstrClass : uint8_t {
    IntAlu,
    FpAlu,
    Load,
    FpLoad,
    Store,
    FpStore,
    Prefetch,
    CondBranch,
    Jump,
    Halt,
};

/** Number of InstrClass values (for fixed-size count arrays). */
constexpr size_t kNumInstrClasses = 10;

/** Register file class: integer or floating point. */
enum class RegClass : uint8_t { Int, Fp, None };

constexpr uint32_t kNoReg = 0xffffffffu;
constexpr uint32_t kNoBlock = 0xffffffffu;

/**
 * Memory operand: effective address =
 *   (base == kNoReg ? 0 : regs[base])
 * + (index == kNoReg ? 0 : regs[index] * scale)
 * + offset.
 *
 * For direct array accesses the builder folds the region's base
 * address into @a offset, so `a[k]` becomes {index=k, scale=elem,
 * offset=regionBase}. For pointer chasing, @a base holds the pointer.
 *
 * The @a region field carries the alias identity the optimizer relies
 * on: two accesses with distinct non-negative regions never alias; a
 * region of -1 means "unknown" and conservatively aliases everything.
 * This is exactly the programmer-level knowledge the paper's manual
 * transformations exploit and compilers cannot prove (Section 2.2.2).
 */
struct MemRef
{
    int32_t region = -1;
    uint32_t base = kNoReg;
    uint32_t index = kNoReg;
    uint8_t scale = 1;
    uint8_t size = 8;
    int64_t offset = 0;

    bool operator==(const MemRef &) const = default;
};

/** One IR instruction. */
struct Instr
{
    Opcode op = Opcode::Halt;
    /** Program-unique static instruction id (the "static load" id). */
    uint32_t sid = 0;
    uint32_t dst = kNoReg;
    uint32_t src[3] = { kNoReg, kNoReg, kNoReg };
    bool hasImm = false;
    int64_t imm = 0;
    double fimm = 0.0;
    MemRef mem;
    /** Branch targets (block ids); Jmp uses only @a taken. */
    uint32_t taken = kNoBlock;
    uint32_t notTaken = kNoBlock;
    /** Source tag for profile mapping (Table 5); -1 = untagged. */
    int32_t line = -1;

    bool operator==(const Instr &) const = default;
};

/**
 * Returns the coarse class of an opcode.
 *
 * This and the operand-shape helpers below are pure functions of the
 * static instruction and sit on every per-dynamic-instruction hot
 * path (profilers, timing cores, the interpreter's flattener), so
 * they are defined inline: each call site compiles down to a jump
 * table instead of an out-of-line call.
 */
constexpr InstrClass
classOf(Opcode op)
{
    switch (op) {
      case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
      case Opcode::Div: case Opcode::Rem:
      case Opcode::And: case Opcode::Or: case Opcode::Xor:
      case Opcode::Shl: case Opcode::Shr:
      case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLt:
      case Opcode::CmpLe: case Opcode::CmpGt: case Opcode::CmpGe:
      case Opcode::Select: case Opcode::MovImm: case Opcode::Mov:
      case Opcode::CvtFI:
        return InstrClass::IntAlu;
      case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FCmpEq: case Opcode::FCmpNe: case Opcode::FCmpLt:
      case Opcode::FCmpLe: case Opcode::FCmpGt: case Opcode::FCmpGe:
      case Opcode::FSelect: case Opcode::FMovImm: case Opcode::FMov:
      case Opcode::CvtIF:
        return InstrClass::FpAlu;
      case Opcode::Load:
        return InstrClass::Load;
      case Opcode::FLoad:
        return InstrClass::FpLoad;
      case Opcode::Store:
        return InstrClass::Store;
      case Opcode::FStore:
        return InstrClass::FpStore;
      case Opcode::Prefetch:
        return InstrClass::Prefetch;
      case Opcode::Br:
        return InstrClass::CondBranch;
      case Opcode::Jmp:
        return InstrClass::Jump;
      case Opcode::Halt:
        return InstrClass::Halt;
    }
    return InstrClass::Halt; // unreachable for valid opcodes
}

/** True for Load/FLoad. */
constexpr bool
isLoad(Opcode op)
{
    return op == Opcode::Load || op == Opcode::FLoad;
}

/** True for Store/FStore. */
constexpr bool
isStore(Opcode op)
{
    return op == Opcode::Store || op == Opcode::FStore;
}

/** True for any opcode with a memory operand. */
constexpr bool
hasMemOperand(Opcode op)
{
    return isLoad(op) || isStore(op) || op == Opcode::Prefetch;
}

/** True for Br/Jmp/Halt. */
constexpr bool
isTerminator(Opcode op)
{
    return op == Opcode::Br || op == Opcode::Jmp || op == Opcode::Halt;
}

/** Number of register source operands actually used by @a in. */
constexpr int
numSrcs(const Instr &in)
{
    switch (in.op) {
      case Opcode::MovImm: case Opcode::FMovImm:
      case Opcode::Jmp: case Opcode::Halt:
        return 0;
      case Opcode::Load: case Opcode::FLoad: case Opcode::Prefetch:
        return 0; // address regs live in mem; see gatherReads()
      case Opcode::Store: case Opcode::FStore:
        return 1; // the stored value
      case Opcode::Mov: case Opcode::FMov:
      case Opcode::CvtIF: case Opcode::CvtFI:
      case Opcode::Br:
        return 1;
      case Opcode::Select: case Opcode::FSelect:
        return 3;
      default:
        return in.hasImm ? 1 : 2;
    }
}

/** Register class of source operand @a i (defined for i < numSrcs). */
constexpr RegClass
srcClass(const Instr &in, int i)
{
    switch (in.op) {
      case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FCmpEq: case Opcode::FCmpNe: case Opcode::FCmpLt:
      case Opcode::FCmpLe: case Opcode::FCmpGt: case Opcode::FCmpGe:
      case Opcode::FMov: case Opcode::CvtFI:
      case Opcode::FStore:
        return RegClass::Fp;
      case Opcode::FSelect:
        return i == 0 ? RegClass::Int : RegClass::Fp;
      default:
        return RegClass::Int;
    }
}

/** Register class of the destination (None if no dst). */
constexpr RegClass
dstClass(const Instr &in)
{
    switch (in.op) {
      case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
      case Opcode::FDiv: case Opcode::FSelect: case Opcode::FMovImm:
      case Opcode::FMov: case Opcode::CvtIF: case Opcode::FLoad:
        return RegClass::Fp;
      case Opcode::Store: case Opcode::FStore: case Opcode::Prefetch:
      case Opcode::Br: case Opcode::Jmp: case Opcode::Halt:
        return RegClass::None;
      default:
        return RegClass::Int;
    }
}

/**
 * Appends every register the instruction reads — explicit sources plus
 * address registers of memory operands — as (class, reg) pairs.
 */
inline void
gatherReads(const Instr &in,
            std::vector<std::pair<RegClass, uint32_t>> &out)
{
    const int n = numSrcs(in);
    for (int i = 0; i < n; i++) {
        if (in.src[i] != kNoReg)
            out.emplace_back(srcClass(in, i), in.src[i]);
    }
    if (hasMemOperand(in.op)) {
        if (in.mem.base != kNoReg)
            out.emplace_back(RegClass::Int, in.mem.base);
        if (in.mem.index != kNoReg)
            out.emplace_back(RegClass::Int, in.mem.index);
    }
}

/** Human-readable mnemonic. */
const char *opcodeName(Opcode op);

/**
 * A named, contiguous memory region (an "array" at the source level).
 * Regions give loads/stores their alias identity and let host code
 * exchange data with kernels through typed views.
 */
struct Region
{
    std::string name;
    uint64_t base = 0;       ///< byte address in the flat memory
    uint64_t sizeBytes = 0;
    uint32_t elemSize = 8;

    bool operator==(const Region &) const = default;
};

/** A basic block: straight-line instructions ending in a terminator. */
struct BasicBlock
{
    uint32_t id = 0;
    std::string name;
    std::vector<Instr> instrs;

    const Instr &terminator() const { return instrs.back(); }
    Instr &terminator() { return instrs.back(); }
    bool hasTerminator() const
    {
        return !instrs.empty() && isTerminator(instrs.back().op);
    }

    bool operator==(const BasicBlock &) const = default;
};

/** A function: a CFG of basic blocks; execution starts at block 0. */
struct Function
{
    std::string name;
    /** Source file tag used when mapping profiles back to code. */
    std::string sourceFile;
    std::vector<BasicBlock> blocks;
    uint32_t numIntRegs = 0;
    uint32_t numFpRegs = 0;
    /** Integer registers the host initializes before execution. */
    std::vector<std::pair<std::string, uint32_t>> params;

    /** Total static instruction count. */
    size_t numInstrs() const;
    /** Count of static instructions in class @a c. */
    size_t numInstrsOfClass(InstrClass c) const;
};

/**
 * A program: functions plus the memory region table. Regions are laid
 * out sequentially in a flat address space starting at
 * Program::kBaseAddress, 64-byte aligned (one cache block).
 */
class Program
{
  public:
    static constexpr uint64_t kBaseAddress = 0x1000;

    explicit Program(std::string name = "program");

    const std::string &name() const { return name_; }

    /** Creates a region of @a count elements of @a elemSize bytes. */
    int32_t addRegion(const std::string &name, uint32_t elem_size,
                      uint64_t count);

    const Region &region(int32_t id) const { return regions_[id]; }
    Region &region(int32_t id) { return regions_[id]; }
    size_t numRegions() const { return regions_.size(); }

    /** Region id whose [base, base+size) contains @a addr, or -1. */
    int32_t regionContaining(uint64_t addr) const;

    /** Bytes of flat memory needed to hold all regions. */
    uint64_t memoryBytes() const { return next_addr_; }

    Function &addFunction(const std::string &name);
    Function &function(size_t i) { return *functions_[i]; }
    const Function &function(size_t i) const { return *functions_[i]; }
    size_t numFunctions() const { return functions_.size(); }

    /** Allocates the next program-unique static instruction id. */
    uint32_t nextSid() { return next_sid_++; }
    /** One past the largest sid handed out so far. */
    uint32_t sidLimit() const { return next_sid_; }

    /**
     * Re-numbers every instruction with fresh consecutive sids.
     * Passes that clone or insert instructions call this afterwards so
     * profilers see a dense static id space.
     */
    void renumber();

  private:
    std::string name_;
    std::vector<Region> regions_;
    std::vector<std::unique_ptr<Function>> functions_;
    uint64_t next_addr_ = kBaseAddress;
    uint32_t next_sid_ = 0;
};

} // namespace bioperf::ir

#endif // BIOPERF_IR_IR_H_
