#include "vm/interpreter.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "ir/verify.h"
#include "util/status.h"

namespace bioperf::vm {

using ir::Opcode;

Interpreter::Interpreter(const ir::Program &prog)
    : prog_(prog), mem_(prog.memoryBytes()), batch_(kBatchCapacity)
{
}

const Interpreter::FlatFunction &
Interpreter::flatten(const ir::Function &fn)
{
    FlatFunction &flat = flat_cache_[&fn];
    const size_t n_instrs = fn.numInstrs();
    if (!flat.code.empty() && flat.numBlocks == fn.blocks.size() &&
        flat.numInstrs == n_instrs && flat.numIntRegs == fn.numIntRegs &&
        flat.numFpRegs == fn.numFpRegs) {
        return flat;
    }

    // Validate the whole function once so the dispatch loop can index
    // register files unchecked: malformed IR fails loudly here
    // instead of silently as out-of-bounds reads mid-run.
    const std::string err = ir::verify(prog_, fn);
    if (!err.empty())
        throw util::StatusError(util::Status::invalidArgument(
            "interpreter: refusing to execute invalid IR: " + err));

    std::vector<uint32_t> block_start(fn.blocks.size(), 0);
    uint32_t at = 0;
    for (size_t b = 0; b < fn.blocks.size(); b++) {
        block_start[b] = at;
        at += static_cast<uint32_t>(fn.blocks[b].instrs.size());
    }

    static_assert(int(ExecOp::CmpGe) - int(ExecOp::Add) ==
                  int(Opcode::CmpGe) - int(Opcode::Add));
    static_assert(int(ExecOp::CvtFI) - int(ExecOp::FAdd) ==
                  int(Opcode::CvtFI) - int(Opcode::FAdd));
    static_assert(int(ExecOp::Load8) - int(ExecOp::Load1) == 3 &&
                  int(ExecOp::Store8) - int(ExecOp::Store1) == 3);

    // The zero register sits just past the function's own.
    const uint32_t zero = fn.numIntRegs;
    auto reg = [zero](uint32_t r) { return r == ir::kNoReg ? zero : r; };
    auto sized = [](uint8_t size, ExecOp op1) {
        const int step = size == 1 ? 0 : size == 2 ? 1 : size == 4 ? 2 : 3;
        return static_cast<ExecOp>(static_cast<int>(op1) + step);
    };

    flat.code.clear();
    flat.code.reserve(n_instrs);
    for (const auto &bb : fn.blocks) {
        for (const auto &in : bb.instrs) {
            Decoded d;
            d.event.instr = &in;
            d.event.op = in.op;
            d.event.sid = in.sid;
            d.next = static_cast<uint32_t>(flat.code.size()) + 1;
            d.dst = reg(in.dst);
            d.a = reg(in.src[0]);
            d.b = reg(in.src[1]);
            d.c = reg(in.src[2]);
            d.base = reg(in.mem.base);
            d.index = reg(in.mem.index);
            d.scale = in.mem.scale;
            d.offset = in.mem.offset;
            d.fimm = in.fimm;
            switch (in.op) {
              case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
              case Opcode::Div: case Opcode::Rem:
              case Opcode::And: case Opcode::Or: case Opcode::Xor:
              case Opcode::Shl: case Opcode::Shr:
              case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLt:
              case Opcode::CmpLe: case Opcode::CmpGt: case Opcode::CmpGe:
                // The ExecOps of these opcodes share their order.
                d.exec = static_cast<ExecOp>(
                    static_cast<int>(ExecOp::Add) +
                    (static_cast<int>(in.op) -
                     static_cast<int>(Opcode::Add)));
                if (in.hasImm) {
                    d.b = zero;
                    d.imm = in.imm;
                }
                break;
              case Opcode::Select:
                d.exec = ExecOp::Select;
                break;
              case Opcode::MovImm:
                d.exec = ExecOp::Add;
                d.a = d.b = zero;
                d.imm = in.imm;
                break;
              case Opcode::Mov:
                d.exec = ExecOp::Add;
                d.b = zero;
                break;
              case Opcode::FAdd: case Opcode::FSub: case Opcode::FMul:
              case Opcode::FDiv:
              case Opcode::FCmpEq: case Opcode::FCmpNe:
              case Opcode::FCmpLt: case Opcode::FCmpLe:
              case Opcode::FCmpGt: case Opcode::FCmpGe:
              case Opcode::FSelect: case Opcode::FMovImm:
              case Opcode::FMov: case Opcode::CvtIF: case Opcode::CvtFI:
                d.exec = static_cast<ExecOp>(
                    static_cast<int>(ExecOp::FAdd) +
                    (static_cast<int>(in.op) -
                     static_cast<int>(Opcode::FAdd)));
                break;
              case Opcode::Load:
                d.exec = sized(in.mem.size, ExecOp::Load1);
                break;
              case Opcode::FLoad:
                d.exec = ExecOp::FLoad;
                break;
              case Opcode::Store:
                d.exec = sized(in.mem.size, ExecOp::Store1);
                break;
              case Opcode::FStore:
                d.exec = ExecOp::FStore;
                break;
              case Opcode::Prefetch:
                d.exec = ExecOp::Prefetch;
                break;
              case Opcode::Br:
                d.exec = ExecOp::Br;
                d.next = block_start[in.notTaken];
                d.takenIdx = block_start[in.taken];
                break;
              case Opcode::Jmp:
                d.exec = ExecOp::Jmp;
                d.next = block_start[in.taken];
                break;
              case Opcode::Halt:
                d.exec = ExecOp::Halt;
                break;
            }
            flat.code.push_back(d);
        }
    }
    flat.numBlocks = fn.blocks.size();
    flat.numInstrs = n_instrs;
    flat.numIntRegs = fn.numIntRegs;
    flat.numFpRegs = fn.numFpRegs;
    return flat;
}

void
Interpreter::flush(size_t n)
{
    for (TraceSink *s : sinks_)
        s->onBatch(batch_.data(), n);
}

uint64_t
Interpreter::run(const ir::Function &fn,
                 const std::vector<int64_t> &params, uint64_t max_instrs)
{
    const FlatFunction &flat = flatten(fn);
    const Decoded *const code = flat.code.data();

    iregs_.assign(size_t(fn.numIntRegs) + 1, 0);
    fregs_.assign(fn.numFpRegs, 0.0);
    assert(params.size() == fn.params.size() &&
           "parameter count mismatch");
    for (size_t i = 0; i < params.size(); i++)
        iregs_[fn.params[i].second] = params[i];

    // Locals for the whole run: nothing the loop stores (register
    // values, simulated memory bytes, events) can then alias them.
    int64_t *const R = iregs_.data();
    double *const F = fregs_.data();
    uint8_t *const mem = mem_.data();
    DynInstr *const batch = batch_.data();
    auto host = [&](uint64_t addr, [[maybe_unused]] uint8_t size) {
        assert(mem_.contains(addr, size));
        return mem + (addr - ir::Program::kBaseAddress);
    };

    uint64_t count = 0;
    uint32_t idx = 0;
    size_t bn = 0;

    for (;;) {
        const Decoded &d = code[idx];
        DynInstr &di = batch[bn];
        di = d.event;

        uint32_t next = d.next;
        bool halt = false;
        // The second integer ALU operand: one of the two terms is
        // always zero.
        auto b = [&] { return R[d.b] + d.imm; };
        auto address = [&] {
            return static_cast<uint64_t>(d.offset) +
                   static_cast<uint64_t>(R[d.base]) +
                   static_cast<uint64_t>(R[d.index]) * d.scale;
        };
        // Integer accesses of sizeof(T) bytes: loads sign-extend,
        // stores truncate.
        auto load = [&](auto t) {
            using T = decltype(t);
            const uint64_t addr = address();
            const int64_t v = loadAs<T>(host(addr, sizeof(T)));
            R[d.dst] = v;
            di.addr = addr;
            di.loadValueBits = static_cast<uint64_t>(v);
        };
        auto store = [&](auto t) {
            using T = decltype(t);
            const uint64_t addr = address();
            storeAs<T>(host(addr, sizeof(T)), R[d.a]);
            di.addr = addr;
        };

        switch (d.exec) {
          case ExecOp::Add:
            R[d.dst] = R[d.a] + b();
            break;
          case ExecOp::Sub:
            R[d.dst] = R[d.a] - b();
            break;
          case ExecOp::Mul:
            R[d.dst] = R[d.a] * b();
            break;
          case ExecOp::Div: {
            // Division by zero is defined as 0 (the IR has no traps).
            const int64_t v = b();
            R[d.dst] = v == 0 ? 0 : R[d.a] / v;
            break;
          }
          case ExecOp::Rem: {
            const int64_t v = b();
            R[d.dst] = v == 0 ? 0 : R[d.a] % v;
            break;
          }
          case ExecOp::And:
            R[d.dst] = R[d.a] & b();
            break;
          case ExecOp::Or:
            R[d.dst] = R[d.a] | b();
            break;
          case ExecOp::Xor:
            R[d.dst] = R[d.a] ^ b();
            break;
          case ExecOp::Shl:
            R[d.dst] = static_cast<int64_t>(
                static_cast<uint64_t>(R[d.a]) << (b() & 63));
            break;
          case ExecOp::Shr:
            R[d.dst] = R[d.a] >> (b() & 63);
            break;
          case ExecOp::CmpEq:
            R[d.dst] = R[d.a] == b();
            break;
          case ExecOp::CmpNe:
            R[d.dst] = R[d.a] != b();
            break;
          case ExecOp::CmpLt:
            R[d.dst] = R[d.a] < b();
            break;
          case ExecOp::CmpLe:
            R[d.dst] = R[d.a] <= b();
            break;
          case ExecOp::CmpGt:
            R[d.dst] = R[d.a] > b();
            break;
          case ExecOp::CmpGe:
            R[d.dst] = R[d.a] >= b();
            break;
          case ExecOp::Select:
            R[d.dst] = R[d.a] != 0 ? R[d.b] : R[d.c];
            break;

          case ExecOp::FAdd:
            F[d.dst] = F[d.a] + F[d.b];
            break;
          case ExecOp::FSub:
            F[d.dst] = F[d.a] - F[d.b];
            break;
          case ExecOp::FMul:
            F[d.dst] = F[d.a] * F[d.b];
            break;
          case ExecOp::FDiv:
            F[d.dst] = F[d.a] / F[d.b];
            break;
          case ExecOp::FCmpEq:
            R[d.dst] = F[d.a] == F[d.b];
            break;
          case ExecOp::FCmpNe:
            R[d.dst] = F[d.a] != F[d.b];
            break;
          case ExecOp::FCmpLt:
            R[d.dst] = F[d.a] < F[d.b];
            break;
          case ExecOp::FCmpLe:
            R[d.dst] = F[d.a] <= F[d.b];
            break;
          case ExecOp::FCmpGt:
            R[d.dst] = F[d.a] > F[d.b];
            break;
          case ExecOp::FCmpGe:
            R[d.dst] = F[d.a] >= F[d.b];
            break;
          case ExecOp::FSelect:
            F[d.dst] = R[d.a] != 0 ? F[d.b] : F[d.c];
            break;
          case ExecOp::FMovImm:
            F[d.dst] = d.fimm;
            break;
          case ExecOp::FMov:
            F[d.dst] = F[d.a];
            break;
          case ExecOp::CvtIF:
            F[d.dst] = static_cast<double>(R[d.a]);
            break;
          case ExecOp::CvtFI:
            R[d.dst] = static_cast<int64_t>(F[d.a]);
            break;

          case ExecOp::Load1:
            load(int8_t());
            break;
          case ExecOp::Load2:
            load(int16_t());
            break;
          case ExecOp::Load4:
            load(int32_t());
            break;
          case ExecOp::Load8:
            load(int64_t());
            break;
          case ExecOp::FLoad: {
            const uint64_t addr = address();
            uint64_t bits;
            std::memcpy(&bits, host(addr, 8), 8);
            std::memcpy(&F[d.dst], &bits, 8);
            di.addr = addr;
            di.loadValueBits = bits;
            break;
          }
          case ExecOp::Store1:
            store(int8_t());
            break;
          case ExecOp::Store2:
            store(int16_t());
            break;
          case ExecOp::Store4:
            store(int32_t());
            break;
          case ExecOp::Store8:
            store(int64_t());
            break;
          case ExecOp::FStore: {
            const uint64_t addr = address();
            std::memcpy(host(addr, 8), &F[d.a], 8);
            di.addr = addr;
            break;
          }
          case ExecOp::Prefetch:
            // Architecturally a no-op; sinks see the address.
            di.addr = address();
            break;

          case ExecOp::Br: {
            const bool taken = R[d.a] != 0;
            di.taken = taken;
            next = taken ? d.takenIdx : d.next;
            break;
          }
          case ExecOp::Jmp:
            break; // d.next already points at the target
          case ExecOp::Halt:
            halt = true;
            break;
        }

        count++;
        if (++bn == kBatchCapacity) {
            flush(bn);
            bn = 0;
        }

        if (halt)
            break;
        if (count >= max_instrs) {
            // Flush what already retired so sinks are not left with a
            // partial batch, then surface the runaway as a status the
            // sweep boundary can record per app.
            if (bn > 0)
                flush(bn);
            total_instrs_ += count;
            throw util::StatusError(util::Status::resourceExhausted(
                "interpreter: instruction cap (" +
                std::to_string(max_instrs) + ") exceeded in " + fn.name +
                " — likely a non-terminating kernel"));
        }
        idx = next;
    }

    if (bn > 0)
        flush(bn);
    total_instrs_ += count;
    for (TraceSink *s : sinks_)
        s->onRunEnd();
    return count;
}

} // namespace bioperf::vm
