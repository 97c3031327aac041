#ifndef BIOPERF_VM_INTERPRETER_H_
#define BIOPERF_VM_INTERPRETER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/ir.h"
#include "vm/memory.h"
#include "vm/trace.h"

namespace bioperf::vm {

/**
 * Executes IR functions over a flat memory, streaming every retired
 * instruction to the attached trace sinks.
 *
 * The interpreter plays the role ATOM played in the original study:
 * functional execution plus complete observability. Timing is not
 * modeled here — timing models are sinks.
 *
 * Two hot-path mechanisms keep tracing overhead off the critical
 * path:
 *
 *  - *Register-resolved dispatch*: on first execution of a function
 *    its blocks are flattened into one contiguous array with one
 *    record per instruction. A record holds an execution opcode with
 *    the access size folded in (Load1..Load8, Store1..Store8), every
 *    register operand as an index, the immediate, the memory offset
 *    and scale, the flat successor indices and the instruction's
 *    event prototype. The main loop is a single indexed fetch and
 *    never reads ir::Instr. One extra integer register, always zero,
 *    stands in for an absent base or index register and for the
 *    register slot of an immediate operand, so the second ALU operand
 *    is always R[b] + imm and every address is
 *    offset + R[base] + R[index] * scale, with no branch on the
 *    operand form. Operand registers are validated once at flatten
 *    time (via ir::verify). Callers must not mutate a Function
 *    between runs on the same Interpreter (the AppRun contract
 *    already requires transforms to happen before the Interpreter is
 *    constructed).
 *
 *  - *Batched tracing*: retired instructions accumulate in a buffer
 *    of batchCapacity() events that is flushed to every sink with one
 *    TraceSink::onBatch() call, collapsing per-instruction virtual
 *    dispatch into one indirect call per batch per sink. The buffer
 *    is always flushed before run() returns (and thus before
 *    onRunEnd()), so the stream a sink observes does not depend on
 *    the capacity; capacity 1 is per-instruction delivery.
 */
class Interpreter
{
  public:
    /**
     * Allocates memory sized for all of @a prog's regions. Events are
     * flushed to the sinks every @a batch_capacity instructions (at
     * least 1).
     */
    explicit Interpreter(const ir::Program &prog,
                         size_t batch_capacity = kBatchCapacity);

    Memory &memory() { return mem_; }
    const ir::Program &program() const { return prog_; }

    void addSink(TraceSink *sink) { sinks_.push_back(sink); }
    void clearSinks() { sinks_.clear(); }

    size_t batchCapacity() const { return batch_.size(); }

    /**
     * Runs @a fn from its entry block until Halt.
     *
     * @param fn     function to execute (must belong to the program)
     * @param params values for fn.params, in declaration order
     * @param max_instrs safety cap; exceeding it is a fatal error
     * @return the number of instructions executed
     */
    uint64_t run(const ir::Function &fn,
                 const std::vector<int64_t> &params = {},
                 uint64_t max_instrs = uint64_t(1) << 40);

    /** Register values after the most recent run (for result readout). */
    int64_t intReg(uint32_t r) const { return iregs_[r]; }
    double fpReg(uint32_t r) const { return fregs_[r]; }

    /** Instructions executed across all runs so far. */
    uint64_t totalInstrs() const { return total_instrs_; }

  private:
    /**
     * What run() executes: the IR opcode with the access size folded
     * into loads and stores. Mov and MovImm execute as Add (R[a] +
     * R[b] + imm with the zero register in the unused slots).
     */
    enum class ExecOp : uint8_t {
        Add, Sub, Mul, Div, Rem,
        And, Or, Xor, Shl, Shr,
        CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe,
        Select,
        FAdd, FSub, FMul, FDiv,
        FCmpEq, FCmpNe, FCmpLt, FCmpLe, FCmpGt, FCmpGe,
        FSelect, FMovImm, FMov, CvtIF, CvtFI,
        Load1, Load2, Load4, Load8, FLoad,
        Store1, Store2, Store4, Store8, FStore,
        Prefetch,
        Br, Jmp, Halt,
    };

    /**
     * One flattened instruction. Register fields index the integer
     * file (with the zero register for an absent operand) or the FP
     * file, as the opcode reads them; all were validated at flatten
     * time, so the dispatch loop indexes both files unchecked.
     */
    struct Decoded
    {
        /**
         * The instruction's event with its static fields (instr, sid,
         * op) set and its dynamic fields zeroed; run() copies it into
         * the batch in one go.
         */
        DynInstr event;
        ExecOp exec = ExecOp::Halt;
        uint8_t scale = 1;
        uint32_t dst = 0;
        /** Register operands: sources 0-2 (Store: a is the value). */
        uint32_t a = 0;
        uint32_t b = 0;
        uint32_t c = 0;
        /** Address registers. */
        uint32_t base = 0;
        uint32_t index = 0;
        /** Successor for straight-line flow, Jmp and a not-taken Br. */
        uint32_t next = 0;
        /** Br's taken target. */
        uint32_t takenIdx = 0;
        /** ALU immediate (0 for a register operand). */
        int64_t imm = 0;
        /** Memory offset. */
        int64_t offset = 0;
        double fimm = 0.0;
    };

    /** A function flattened for execution. */
    struct FlatFunction
    {
        std::vector<Decoded> code;
        // Shape fingerprint used to detect (unsupported) mutation.
        size_t numBlocks = 0;
        size_t numInstrs = 0;
        uint32_t numIntRegs = 0;
        uint32_t numFpRegs = 0;
    };

    const FlatFunction &flatten(const ir::Function &fn);
    void flush(size_t n);

    const ir::Program &prog_;
    Memory mem_;
    std::vector<TraceSink *> sinks_;
    /** The function's integer registers, then the zero register. */
    std::vector<int64_t> iregs_;
    std::vector<double> fregs_;
    std::vector<DynInstr> batch_;
    std::unordered_map<const ir::Function *, FlatFunction> flat_cache_;
    uint64_t total_instrs_ = 0;
};

} // namespace bioperf::vm

#endif // BIOPERF_VM_INTERPRETER_H_
