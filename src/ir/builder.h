#ifndef BIOPERF_IR_BUILDER_H_
#define BIOPERF_IR_BUILDER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ir/ir.h"

namespace bioperf::ir {

class FunctionBuilder;

/**
 * An integer value: a handle to a virtual integer register plus the
 * builder that owns it. Arithmetic and comparison operators emit
 * instructions into the builder's current block, so kernels written
 * against this DSL read like the C listings in the paper while
 * producing a RISC-style instruction stream.
 */
class Value
{
  public:
    Value() = default;

    uint32_t reg() const { return reg_; }
    bool valid() const { return b_ != nullptr; }

    Value operator+(const Value &o) const;
    Value operator-(const Value &o) const;
    Value operator*(const Value &o) const;
    Value operator/(const Value &o) const;
    Value operator%(const Value &o) const;
    Value operator&(const Value &o) const;
    Value operator|(const Value &o) const;
    Value operator==(const Value &o) const;
    Value operator<(const Value &o) const;
    Value operator<=(const Value &o) const;
    Value operator>(const Value &o) const;
    Value operator>=(const Value &o) const;

    Value operator+(int64_t imm) const;
    Value operator-(int64_t imm) const;
    Value operator*(int64_t imm) const;
    Value operator&(int64_t imm) const;
    Value operator^(int64_t imm) const;
    Value operator<<(int64_t imm) const;
    Value operator>>(int64_t imm) const;
    Value operator==(int64_t imm) const;
    Value operator!=(int64_t imm) const;
    Value operator<(int64_t imm) const;
    Value operator<=(int64_t imm) const;
    Value operator>(int64_t imm) const;
    Value operator>=(int64_t imm) const;

  private:
    friend class FunctionBuilder;
    Value(FunctionBuilder *b, uint32_t reg) : b_(b), reg_(reg) {}

    FunctionBuilder *b_ = nullptr;
    uint32_t reg_ = kNoReg;
};

/** A floating-point (double) value; see Value. */
class FValue
{
  public:
    FValue() = default;

    uint32_t reg() const { return reg_; }
    bool valid() const { return b_ != nullptr; }

    FValue operator+(const FValue &o) const;
    FValue operator*(const FValue &o) const;
    FValue operator/(const FValue &o) const;
    Value operator==(const FValue &o) const;
    Value operator<(const FValue &o) const;

  private:
    friend class FunctionBuilder;
    FValue(FunctionBuilder *b, uint32_t reg) : b_(b), reg_(reg) {}

    FunctionBuilder *b_ = nullptr;
    uint32_t reg_ = kNoReg;
};

/**
 * A handle to an array region usable in load/store expressions.
 * Carries the region id (alias identity) and element size.
 */
struct ArrayRef
{
    int32_t region = -1;
    uint64_t base = 0;
    uint32_t elemSize = 8;
};

/**
 * Builds one IR function through structured-programming helpers.
 *
 * Typical kernel shape:
 * @code
 *   FunctionBuilder b(prog, "p7viterbi");
 *   ArrayRef mpp = b.intArray("mpp", n);
 *   Value m = b.param("M");
 *   Var k = b.var("k");
 *   b.forLoop(k, b.constI(1), m, [&] {
 *       Value sc = b.ld(mpp, k - 1) + b.ld(tpmm, k - 1);
 *       b.st(mc, k, sc);
 *       b.ifThen(sc > limit, [&] { ... });
 *   });
 *   b.finish();
 * @endcode
 */
class FunctionBuilder
{
  public:
    /** A mutable variable bound to a fixed register. */
    struct Var
    {
        uint32_t reg = kNoReg;
        operator Value() const;
        FunctionBuilder *b = nullptr;
    };

    /** Mutable floating-point variable. */
    struct FVar
    {
        uint32_t reg = kNoReg;
        operator FValue() const;
        FunctionBuilder *b = nullptr;
    };

    FunctionBuilder(Program &prog, const std::string &name,
                    const std::string &source_file = "");

    Program &program() { return prog_; }
    Function &function() { return fn_; }

    // --- registers, parameters, constants -------------------------------

    /** Fresh integer register initialized by the host before the run. */
    Value param(const std::string &name);
    /** Fresh mutable integer variable (uninitialized). */
    Var var(const std::string &name = "");
    /** Fresh mutable floating-point variable. */
    FVar fvar(const std::string &name = "");
    /** Materializes an integer constant (emits movi). */
    Value constI(int64_t v);
    /** Materializes a floating-point constant. */
    FValue constF(double v);

    /** var = value. Folds into the defining instruction when legal. */
    void assign(const Var &v, const Value &val);
    void assign(const FVar &v, const FValue &val);
    void assign(const Var &v, int64_t imm);
    void assign(const FVar &v, double imm);

    // --- memory ----------------------------------------------------------

    /** Creates an array of 32-bit signed integers. */
    ArrayRef intArray(const std::string &name, uint64_t count);
    /** Creates an array of 64-bit signed integers. */
    ArrayRef longArray(const std::string &name, uint64_t count);
    /** Creates an array of doubles. */
    ArrayRef fpArray(const std::string &name, uint64_t count);
    /** Creates a raw byte array. */
    ArrayRef byteArray(const std::string &name, uint64_t count);
    /** Wraps an already-created program region. */
    ArrayRef wrap(int32_t region_id) const;

    /** Integer load a[idx] (sign-extended to 64 bits). */
    Value ld(const ArrayRef &a, const Value &idx);
    Value ld(const ArrayRef &a, int64_t idx);
    /** a[idx + idx_offset], with the constant folded into the
     * address (no extra add instruction). */
    Value ld(const ArrayRef &a, const Value &idx, int64_t idx_offset);
    /** Floating-point load a[idx]. */
    FValue fld(const ArrayRef &a, const Value &idx);
    FValue fld(const ArrayRef &a, int64_t idx);
    FValue fld(const ArrayRef &a, const Value &idx, int64_t idx_offset);
    /** Integer store a[idx] = v. */
    void st(const ArrayRef &a, const Value &idx, const Value &v);
    void st(const ArrayRef &a, int64_t idx, const Value &v);
    void st(const ArrayRef &a, const Value &idx, int64_t idx_offset,
            const Value &v);
    /** Floating-point store a[idx] = v. */
    void fst(const ArrayRef &a, const Value &idx, const FValue &v);
    void fst(const ArrayRef &a, int64_t idx, const FValue &v);

    /**
     * Pointer-style load: value at byte address (ptr + offset). Used
     * for linked structures (predator's pair list). @a region supplies
     * the alias identity of the pointed-to pool (-1 = unknown).
     */
    Value ldAt(const Value &ptr, int64_t offset, uint8_t size,
               int32_t region = -1);
    void stAt(const Value &ptr, int64_t offset, uint8_t size,
              const Value &v, int32_t region = -1);

    // --- expressions -----------------------------------------------------

    /** Conditional move: cond ? a : b. */
    Value select(const Value &cond, const Value &a, const Value &b);
    FValue fselect(const Value &cond, const FValue &a, const FValue &b);
    FValue fcvt(const Value &v);  ///< int -> double
    Value icvt(const FValue &v);  ///< double -> int (truncating)

    // --- control flow ----------------------------------------------------

    void ifThen(const Value &cond, const std::function<void()> &then_fn);
    void ifThenElse(const Value &cond, const std::function<void()> &then_fn,
                    const std::function<void()> &else_fn);

    /**
     * for (v = lo; v <= hi; v += step) body(). The classic inclusive
     * counted loop of the paper's kernels.
     */
    void forLoop(const Var &v, const Value &lo, const Value &hi,
                 const std::function<void()> &body, int64_t step = 1);

    /** while (cond()) body(). cond emits code into the header block. */
    void whileLoop(const std::function<Value()> &cond,
                   const std::function<void()> &body);

    /** Branches to the innermost loop's exit block. */
    void breakLoop();

    /** Appends the final Halt and performs sanity checks. */
    Function &finish();

    // --- source tagging ---------------------------------------------------

    /** Sets the source line recorded on subsequently emitted instrs. */
    void line(int32_t l) { cur_line_ = l; }

    // --- low-level emission (used by opt tests and the printer demos) ----

    Value emitBin(Opcode op, const Value &a, const Value &b);
    Value emitBinImm(Opcode op, const Value &a, int64_t imm);
    FValue emitFBin(Opcode op, const FValue &a, const FValue &b);
    Value emitFCmp(Opcode op, const FValue &a, const FValue &b);
    uint32_t newIntReg() { return fn_.numIntRegs++; }
    uint32_t newFpReg() { return fn_.numFpRegs++; }

    /** Starts a new basic block and makes it current. */
    uint32_t newBlock(const std::string &name = "");
    void setBlock(uint32_t id);
    BasicBlock &block(uint32_t id) { return fn_.blocks[id]; }

  private:
    friend class Value;
    friend class FValue;

    Instr &emit(Instr in);
    void terminate(Instr in);
    /** Ends the current block with Jmp @a target unless terminated. */
    void jumpTo(uint32_t target);

    /**
     * Folding an assign retargets the defining instruction's dst to
     * the variable's register. The original register then never gets
     * written, so Value handles still pointing at it are redirected
     * through this alias map (until the variable is overwritten,
     * which invalidates the alias).
     */
    uint32_t resolveAlias(RegClass cls, uint32_t reg) const;
    void invalidateAliasesTo(RegClass cls, uint32_t reg);
    void recordAlias(RegClass cls, uint32_t from, uint32_t to);

    Program &prog_;
    Function &fn_;
    uint32_t cur_ = 0;
    int32_t cur_line_ = -1;
    struct LoopCtx { uint32_t header; uint32_t exit; };
    std::vector<LoopCtx> loops_;
    std::vector<std::pair<uint32_t, uint32_t>> int_aliases_;
    std::vector<std::pair<uint32_t, uint32_t>> fp_aliases_;
};

} // namespace bioperf::ir

#endif // BIOPERF_IR_BUILDER_H_
