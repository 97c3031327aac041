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
 * A stretch of the stream reduced to what functional warming reads:
 * the address and direction of each memory operation (loads and
 * prefetches read, stores write), and the sid and direction of each
 * conditional branch. Each list is in program order; how the two
 * interleave is not kept, since caches and predictors are independent
 * models. Valid only for the duration of the onWarm() call.
 */
struct WarmBatch
{
    struct Access
    {
        uint64_t addr;
        bool write;
    };
    struct Branch
    {
        uint32_t sid;
        bool taken;
    };

    const Access *accesses = nullptr;
    size_t numAccesses = 0;
    const Branch *branches = nullptr;
    size_t numBranches = 0;
    /** Instructions the stretch spans, of every kind. */
    uint64_t instructions = 0;
};

/**
 * Observer of the dynamic instruction stream. Multiple sinks can be
 * attached to one producer; each sees every instruction in program
 * order (the profilers, cache models and timing cores all implement
 * this interface).
 *
 * Producers (the interpreter, the trace replayer) buffer retired
 * instructions and hand each sink up to kBatchCapacity of them at once
 * via onBatch(), one virtual call per batch. A sink overrides at least
 * one of the two delivery calls: onBatch() with a native loop (every
 * library sink), or onInstr() for a sink written per event, which
 * receives batches through the default onBatch() loop. onInstr()'s
 * default is a batch of one, so either kind takes single events too.
 *
 * Batch entries arrive in program order and are only valid for the
 * duration of the onBatch() call (the producer reuses the buffer).
 * A batch never spans a run boundary: all buffered instructions are
 * flushed before onRunEnd() fires.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Delivers one trace event: a batch of one by default. */
    virtual void onInstr(const DynInstr &di) { onBatch(&di, 1); }

    /**
     * Delivers @a n consecutive trace events in program order. The
     * default forwards them to onInstr() one by one.
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

    /**
     * How many of the coming instructions the sink only warms on: it
     * reads nothing of them but what a WarmBatch holds. The trace
     * replayer asks whenever it has no events buffered; when every
     * attached sink answers non-zero, it decodes the smallest answer
     * (or less, if the trace ends first) straight into WarmBatches,
     * never building their events. The interpreter never asks.
     */
    virtual uint64_t warmAhead() const { return 0; }

    /**
     * Delivers the next @a batch.instructions instructions, inside a
     * stretch warmAhead() announced, as a WarmBatch. Run ends and gaps
     * within the stretch still arrive through onRunEnd() and onGap(),
     * after the WarmBatch of the instructions before them.
     */
    virtual void onWarm(const WarmBatch &) {}
};

} // namespace bioperf::vm

#endif // BIOPERF_VM_TRACE_H_
