#ifndef BIOPERF_VM_TRACE_H_
#define BIOPERF_VM_TRACE_H_

#include <cstddef>
#include <cstdint>

#include "ir/ir.h"

namespace bioperf::vm {

/**
 * One dynamically executed instruction, as observed by trace sinks.
 *
 * The event carries copies of its static instruction's `sid` and `op`,
 * so a sink's per-event work (count by class, index a per-sid table,
 * pick the memory or branch path) reads the event it already has in
 * hand instead of chasing `instr`. `instr` stays for what the copies
 * do not cover: decoding a static instruction the first time a sink
 * sees it. The pointed-to instruction stays valid for the lifetime of
 * the Program. This event stream is the repository's equivalent of
 * the paper's ATOM instrumentation output.
 */
struct DynInstr
{
    const ir::Instr *instr = nullptr;
    /** Effective address for loads/stores/prefetches; 0 otherwise. */
    uint64_t addr = 0;
    /**
     * Raw bits of the loaded value (sign-extended integer or double
     * bit pattern) for Load/FLoad; 0 otherwise. Used by the
     * value-prediction hardware models.
     */
    uint64_t loadValueBits = 0;
    /** Branch direction for Br; false otherwise. */
    bool taken = false;
    /** instr->op, copied by the producer. */
    ir::Opcode op = ir::Opcode::Halt;
    /** instr->sid, copied by the producer. */
    uint32_t sid = 0;

    /**
     * True when the copied fields agree with the static instruction.
     * Sinks assert it in Debug builds.
     */
    bool
    matchesInstr() const
    {
        return sid == instr->sid && op == instr->op;
    }
};

// sid and op sit in the padding after `taken`: batches stay 32 bytes
// per event. An event's position in its run is implied by the stream,
// not stored.
static_assert(sizeof(DynInstr) == 32);

/**
 * Trace events a producer (Interpreter, TraceReplayer) buffers between
 * sink flushes. Every attached sink streams the whole buffer per
 * flush, so it is sized to keep the buffer (16 KiB at 32 bytes per
 * event) plus the hot sink tables resident in a typical 32-48 KiB L1D
 * across all passes; larger buffers push every sink pass out to L2.
 */
constexpr size_t kBatchCapacity = 512;

/**
 * Observer of the dynamic instruction stream. Multiple sinks can be
 * attached to one Interpreter; each sees every instruction in program
 * order (the profilers, cache models and timing cores all implement
 * this interface).
 *
 * Producers (the interpreter, the trace replayer) buffer retired
 * instructions and hand each sink a whole batch at once via
 * onBatch(), which costs one virtual call per batch instead of one
 * per instruction. Sinks that only implement onInstr() keep working
 * unchanged through the default onBatch() adapter; the hot sinks
 * override onBatch() with a tight native loop.
 *
 * Batch entries arrive in program order and are only valid for the
 * duration of the onBatch() call (the interpreter reuses the buffer).
 * A batch never spans an Interpreter::run() boundary: all buffered
 * instructions are flushed before onRunEnd() fires.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    virtual void onInstr(const DynInstr &di) = 0;

    /**
     * Delivers @a n consecutive trace events in program order.
     * Default implementation forwards to onInstr() one by one, so the
     * batched and per-instruction paths observe identical streams.
     */
    virtual void onBatch(const DynInstr *batch, size_t n)
    {
        for (size_t i = 0; i < n; i++)
            onInstr(batch[i]);
    }

    /** Called when one Interpreter::run() invocation finishes. */
    virtual void onRunEnd() {}

    /**
     * Called by trace replay when the stream skips over a region lost
     * to corruption (salvaged traces only): instructions between the
     * previous event and the next one are missing, though the run did
     * not end. A sink whose state links one instruction to later ones
     * treats it as a run boundary: the timing cores drain in-flight
     * work, and LoadBranchProfiler ends its run, so no chain, tight
     * candidate or next-branch charge spans the lost instructions.
     * Profilers that only accumulate per-event counts can ignore it.
     * Never fires on live execution or on intact traces.
     */
    virtual void onGap() {}
};

} // namespace bioperf::vm

#endif // BIOPERF_VM_TRACE_H_
