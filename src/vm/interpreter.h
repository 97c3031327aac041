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
 *  - *Predecoded dispatch*: on first execution of a function its
 *    blocks are flattened into one contiguous decoded-instruction
 *    array with precomputed fall-through and branch-target indices,
 *    so the main loop is a single indexed fetch with no nested
 *    blocks[bb].instrs[pc] lookups. Operand registers are validated
 *    once at flatten time (via ir::verify); the per-instruction
 *    bounds checks the old loop carried are gone. Callers must not
 *    mutate a Function between runs on the same Interpreter (the
 *    AppRun contract already requires transforms to happen before the
 *    Interpreter is constructed).
 *
 *  - *Batched tracing*: retired instructions accumulate in a
 *    kBatchCapacity-entry buffer that is flushed to every sink with
 *    one TraceSink::onBatch() call, collapsing per-instruction
 *    virtual dispatch into one indirect call per batch per sink. The
 *    buffer is always flushed before run() returns (and thus before
 *    onRunEnd()), so sinks observe exactly the same stream as the
 *    per-instruction mode, in the same order.
 */
class Interpreter
{
  public:
    /**
     * Trace events buffered between sink flushes. Every attached sink
     * streams the whole buffer per flush, so it is sized to keep the
     * buffer (~20 KiB at 40 bytes/entry) plus the hot sink tables
     * resident in a typical 32-48 KiB L1D across all passes; larger
     * buffers push every sink pass out to L2.
     */
    static constexpr size_t kBatchCapacity = 512;

    /**
     * How trace events reach the sinks. Batched is the default;
     * PerInstr issues one onInstr() virtual call per sink per
     * instruction (the pre-batching pipeline, kept only as the
     * reference the batched-delivery equivalence tests compare
     * against).
     */
    enum class TraceMode : uint8_t { Batched, PerInstr };

    /** Allocates memory sized for all of @a prog's regions. */
    explicit Interpreter(const ir::Program &prog);

    Memory &memory() { return mem_; }
    const ir::Program &program() const { return prog_; }

    void addSink(TraceSink *sink) { sinks_.push_back(sink); }
    void clearSinks() { sinks_.clear(); }

    void setTraceMode(TraceMode mode) { trace_mode_ = mode; }
    TraceMode traceMode() const { return trace_mode_; }

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
     * One predecoded instruction: the static instruction plus the
     * flat successor indices, so the dispatch loop never touches the
     * block structure.
     */
    struct Decoded
    {
        const ir::Instr *in = nullptr;
        /** Successor index for straight-line flow and Jmp. */
        uint32_t next = 0;
        /** Flat indices of the Br targets. */
        uint32_t takenIdx = 0;
        uint32_t notTakenIdx = 0;
        /**
         * Integer register of the second ALU operand, or kNoReg when
         * the instruction has an immediate or no integer second
         * operand. Validated at flatten time, so the dispatch loop
         * indexes iregs_ without a bounds check.
         */
        uint32_t bReg = ir::kNoReg;
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
    uint64_t effectiveAddress(const ir::Instr &in) const;
    void flush(size_t n);

    const ir::Program &prog_;
    Memory mem_;
    std::vector<TraceSink *> sinks_;
    std::vector<int64_t> iregs_;
    std::vector<double> fregs_;
    std::vector<DynInstr> batch_;
    std::unordered_map<const ir::Function *, FlatFunction> flat_cache_;
    TraceMode trace_mode_ = TraceMode::Batched;
    uint64_t total_instrs_ = 0;
};

} // namespace bioperf::vm

#endif // BIOPERF_VM_INTERPRETER_H_
