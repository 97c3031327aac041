#include "ir/builder.h"

#include <cassert>

namespace bioperf::ir {

// --------------------------------------------------------------------------
// Value operators
// --------------------------------------------------------------------------

#define BIOPERF_VALUE_REG(OP, OPC)                                        \
    Value Value::operator OP(const Value &o) const                        \
    { return b_->emitBin(Opcode::OPC, *this, o); }
#define BIOPERF_VALUE_IMM(OP, OPC)                                        \
    Value Value::operator OP(int64_t imm) const                           \
    { return b_->emitBinImm(Opcode::OPC, *this, imm); }
#define BIOPERF_VALUE_BIN(OP, OPC)                                        \
    BIOPERF_VALUE_REG(OP, OPC)                                            \
    BIOPERF_VALUE_IMM(OP, OPC)

BIOPERF_VALUE_BIN(+, Add)
BIOPERF_VALUE_BIN(-, Sub)
BIOPERF_VALUE_BIN(*, Mul)
BIOPERF_VALUE_BIN(&, And)
BIOPERF_VALUE_BIN(==, CmpEq)
BIOPERF_VALUE_BIN(<, CmpLt)
BIOPERF_VALUE_BIN(<=, CmpLe)
BIOPERF_VALUE_BIN(>, CmpGt)
BIOPERF_VALUE_BIN(>=, CmpGe)
BIOPERF_VALUE_REG(/, Div)
BIOPERF_VALUE_REG(%, Rem)
BIOPERF_VALUE_REG(|, Or)
BIOPERF_VALUE_IMM(^, Xor)
BIOPERF_VALUE_IMM(<<, Shl)
BIOPERF_VALUE_IMM(>>, Shr)
BIOPERF_VALUE_IMM(!=, CmpNe)
#undef BIOPERF_VALUE_BIN
#undef BIOPERF_VALUE_IMM
#undef BIOPERF_VALUE_REG

#define BIOPERF_FVALUE_BIN(OP, OPC)                                       \
    FValue FValue::operator OP(const FValue &o) const                     \
    { return b_->emitFBin(Opcode::OPC, *this, o); }

BIOPERF_FVALUE_BIN(+, FAdd)
BIOPERF_FVALUE_BIN(*, FMul)
BIOPERF_FVALUE_BIN(/, FDiv)
#undef BIOPERF_FVALUE_BIN

#define BIOPERF_FVALUE_CMP(OP, OPC)                                       \
    Value FValue::operator OP(const FValue &o) const                      \
    { return b_->emitFCmp(Opcode::OPC, *this, o); }

BIOPERF_FVALUE_CMP(==, FCmpEq)
BIOPERF_FVALUE_CMP(<, FCmpLt)
#undef BIOPERF_FVALUE_CMP

FunctionBuilder::Var::operator Value() const
{
    return Value(b, reg);
}

FunctionBuilder::FVar::operator FValue() const
{
    return FValue(b, reg);
}

// --------------------------------------------------------------------------
// FunctionBuilder
// --------------------------------------------------------------------------

FunctionBuilder::FunctionBuilder(Program &prog, const std::string &name,
                                 const std::string &source_file)
    : prog_(prog), fn_(prog.addFunction(name))
{
    fn_.sourceFile = source_file;
    cur_ = newBlock("entry");
}

Value
FunctionBuilder::param(const std::string &name)
{
    const uint32_t r = newIntReg();
    fn_.params.emplace_back(name, r);
    return Value(this, r);
}

FunctionBuilder::Var
FunctionBuilder::var(const std::string &)
{
    return Var{newIntReg(), this};
}

FunctionBuilder::FVar
FunctionBuilder::fvar(const std::string &)
{
    return FVar{newFpReg(), this};
}

Value
FunctionBuilder::constI(int64_t v)
{
    Instr in;
    in.op = Opcode::MovImm;
    in.dst = newIntReg();
    in.hasImm = true;
    in.imm = v;
    emit(in);
    return Value(this, in.dst);
}

FValue
FunctionBuilder::constF(double v)
{
    Instr in;
    in.op = Opcode::FMovImm;
    in.dst = newFpReg();
    in.fimm = v;
    emit(in);
    return FValue(this, in.dst);
}

void
FunctionBuilder::assign(const Var &v, const Value &val)
{
    // If `val` was just produced by the previous instruction in this
    // block and went into a fresh register, retarget that instruction
    // instead of emitting a copy. This keeps the instruction stream as
    // tight as compiled code. The original register is recorded as an
    // alias of the variable, so a still-held Value handle keeps
    // reading the right data until the variable is overwritten.
    const uint32_t src = resolveAlias(RegClass::Int, val.reg());
    BasicBlock &bb = fn_.blocks[cur_];
    if (!bb.instrs.empty()) {
        Instr &last = bb.instrs.back();
        if (last.dst == src && dstClass(last) == RegClass::Int &&
            src == fn_.numIntRegs - 1 && src != v.reg) {
            last.dst = v.reg;
            invalidateAliasesTo(RegClass::Int, v.reg);
            recordAlias(RegClass::Int, src, v.reg);
            return;
        }
    }
    if (src == v.reg)
        return;
    Instr in;
    in.op = Opcode::Mov;
    in.dst = v.reg;
    in.src[0] = src;
    emit(in);
}

void
FunctionBuilder::assign(const FVar &v, const FValue &val)
{
    const uint32_t src = resolveAlias(RegClass::Fp, val.reg());
    BasicBlock &bb = fn_.blocks[cur_];
    if (!bb.instrs.empty()) {
        Instr &last = bb.instrs.back();
        if (last.dst == src && dstClass(last) == RegClass::Fp &&
            src == fn_.numFpRegs - 1 && src != v.reg) {
            last.dst = v.reg;
            invalidateAliasesTo(RegClass::Fp, v.reg);
            recordAlias(RegClass::Fp, src, v.reg);
            return;
        }
    }
    if (src == v.reg)
        return;
    Instr in;
    in.op = Opcode::FMov;
    in.dst = v.reg;
    in.src[0] = src;
    emit(in);
}

void
FunctionBuilder::assign(const Var &v, int64_t imm)
{
    Instr in;
    in.op = Opcode::MovImm;
    in.dst = v.reg;
    in.hasImm = true;
    in.imm = imm;
    emit(in);
}

void
FunctionBuilder::assign(const FVar &v, double imm)
{
    Instr in;
    in.op = Opcode::FMovImm;
    in.dst = v.reg;
    in.fimm = imm;
    emit(in);
}

ArrayRef
FunctionBuilder::intArray(const std::string &name, uint64_t count)
{
    const int32_t id = prog_.addRegion(name, 4, count);
    return ArrayRef{id, prog_.region(id).base, 4};
}

ArrayRef
FunctionBuilder::longArray(const std::string &name, uint64_t count)
{
    const int32_t id = prog_.addRegion(name, 8, count);
    return ArrayRef{id, prog_.region(id).base, 8};
}

ArrayRef
FunctionBuilder::fpArray(const std::string &name, uint64_t count)
{
    const int32_t id = prog_.addRegion(name, 8, count);
    return ArrayRef{id, prog_.region(id).base, 8};
}

ArrayRef
FunctionBuilder::byteArray(const std::string &name, uint64_t count)
{
    const int32_t id = prog_.addRegion(name, 1, count);
    return ArrayRef{id, prog_.region(id).base, 1};
}

ArrayRef
FunctionBuilder::wrap(int32_t region_id) const
{
    const Region &r = prog_.region(region_id);
    return ArrayRef{region_id, r.base, r.elemSize};
}

Value
FunctionBuilder::ld(const ArrayRef &a, const Value &idx)
{
    Instr in;
    in.op = Opcode::Load;
    in.dst = newIntReg();
    in.mem.region = a.region;
    in.mem.index = idx.reg();
    in.mem.scale = static_cast<uint8_t>(a.elemSize);
    in.mem.size = static_cast<uint8_t>(a.elemSize);
    in.mem.offset = static_cast<int64_t>(a.base);
    emit(in);
    return Value(this, in.dst);
}

Value
FunctionBuilder::ld(const ArrayRef &a, int64_t idx)
{
    Instr in;
    in.op = Opcode::Load;
    in.dst = newIntReg();
    in.mem.region = a.region;
    in.mem.size = static_cast<uint8_t>(a.elemSize);
    in.mem.offset = static_cast<int64_t>(a.base) + idx * a.elemSize;
    emit(in);
    return Value(this, in.dst);
}

Value
FunctionBuilder::ld(const ArrayRef &a, const Value &idx,
                    int64_t idx_offset)
{
    Instr in;
    in.op = Opcode::Load;
    in.dst = newIntReg();
    in.mem.region = a.region;
    in.mem.index = idx.reg();
    in.mem.scale = static_cast<uint8_t>(a.elemSize);
    in.mem.size = static_cast<uint8_t>(a.elemSize);
    in.mem.offset = static_cast<int64_t>(a.base) +
                    idx_offset * a.elemSize;
    emit(in);
    return Value(this, in.dst);
}

FValue
FunctionBuilder::fld(const ArrayRef &a, const Value &idx,
                     int64_t idx_offset)
{
    Instr in;
    in.op = Opcode::FLoad;
    in.dst = newFpReg();
    in.mem.region = a.region;
    in.mem.index = idx.reg();
    in.mem.scale = 8;
    in.mem.size = 8;
    in.mem.offset = static_cast<int64_t>(a.base) + idx_offset * 8;
    emit(in);
    return FValue(this, in.dst);
}

FValue
FunctionBuilder::fld(const ArrayRef &a, const Value &idx)
{
    Instr in;
    in.op = Opcode::FLoad;
    in.dst = newFpReg();
    in.mem.region = a.region;
    in.mem.index = idx.reg();
    in.mem.scale = 8;
    in.mem.size = 8;
    in.mem.offset = static_cast<int64_t>(a.base);
    emit(in);
    return FValue(this, in.dst);
}

FValue
FunctionBuilder::fld(const ArrayRef &a, int64_t idx)
{
    Instr in;
    in.op = Opcode::FLoad;
    in.dst = newFpReg();
    in.mem.region = a.region;
    in.mem.size = 8;
    in.mem.offset = static_cast<int64_t>(a.base) + idx * 8;
    emit(in);
    return FValue(this, in.dst);
}

void
FunctionBuilder::st(const ArrayRef &a, const Value &idx, const Value &v)
{
    Instr in;
    in.op = Opcode::Store;
    in.src[0] = v.reg();
    in.mem.region = a.region;
    in.mem.index = idx.reg();
    in.mem.scale = static_cast<uint8_t>(a.elemSize);
    in.mem.size = static_cast<uint8_t>(a.elemSize);
    in.mem.offset = static_cast<int64_t>(a.base);
    emit(in);
}

void
FunctionBuilder::st(const ArrayRef &a, int64_t idx, const Value &v)
{
    Instr in;
    in.op = Opcode::Store;
    in.src[0] = v.reg();
    in.mem.region = a.region;
    in.mem.size = static_cast<uint8_t>(a.elemSize);
    in.mem.offset = static_cast<int64_t>(a.base) + idx * a.elemSize;
    emit(in);
}

void
FunctionBuilder::fst(const ArrayRef &a, const Value &idx, const FValue &v)
{
    Instr in;
    in.op = Opcode::FStore;
    in.src[0] = v.reg();
    in.mem.region = a.region;
    in.mem.index = idx.reg();
    in.mem.scale = 8;
    in.mem.size = 8;
    in.mem.offset = static_cast<int64_t>(a.base);
    emit(in);
}

void
FunctionBuilder::fst(const ArrayRef &a, int64_t idx, const FValue &v)
{
    Instr in;
    in.op = Opcode::FStore;
    in.src[0] = v.reg();
    in.mem.region = a.region;
    in.mem.size = 8;
    in.mem.offset = static_cast<int64_t>(a.base) + idx * 8;
    emit(in);
}

void
FunctionBuilder::st(const ArrayRef &a, const Value &idx,
                    int64_t idx_offset, const Value &v)
{
    Instr in;
    in.op = Opcode::Store;
    in.src[0] = v.reg();
    in.mem.region = a.region;
    in.mem.index = idx.reg();
    in.mem.scale = static_cast<uint8_t>(a.elemSize);
    in.mem.size = static_cast<uint8_t>(a.elemSize);
    in.mem.offset = static_cast<int64_t>(a.base) +
                    idx_offset * a.elemSize;
    emit(in);
}

Value
FunctionBuilder::ldAt(const Value &ptr, int64_t offset, uint8_t size,
                      int32_t region)
{
    Instr in;
    in.op = Opcode::Load;
    in.dst = newIntReg();
    in.mem.region = region;
    in.mem.base = ptr.reg();
    in.mem.size = size;
    in.mem.offset = offset;
    emit(in);
    return Value(this, in.dst);
}

void
FunctionBuilder::stAt(const Value &ptr, int64_t offset, uint8_t size,
                      const Value &v, int32_t region)
{
    Instr in;
    in.op = Opcode::Store;
    in.src[0] = v.reg();
    in.mem.region = region;
    in.mem.base = ptr.reg();
    in.mem.size = size;
    in.mem.offset = offset;
    emit(in);
}

Value
FunctionBuilder::select(const Value &cond, const Value &a, const Value &b)
{
    Instr in;
    in.op = Opcode::Select;
    in.dst = newIntReg();
    in.src[0] = cond.reg();
    in.src[1] = a.reg();
    in.src[2] = b.reg();
    emit(in);
    return Value(this, in.dst);
}

FValue
FunctionBuilder::fselect(const Value &cond, const FValue &a, const FValue &b)
{
    Instr in;
    in.op = Opcode::FSelect;
    in.dst = newFpReg();
    in.src[0] = cond.reg();
    in.src[1] = a.reg();
    in.src[2] = b.reg();
    emit(in);
    return FValue(this, in.dst);
}

FValue
FunctionBuilder::fcvt(const Value &v)
{
    Instr in;
    in.op = Opcode::CvtIF;
    in.dst = newFpReg();
    in.src[0] = v.reg();
    emit(in);
    return FValue(this, in.dst);
}

Value
FunctionBuilder::icvt(const FValue &v)
{
    Instr in;
    in.op = Opcode::CvtFI;
    in.dst = newIntReg();
    in.src[0] = v.reg();
    emit(in);
    return Value(this, in.dst);
}

void
FunctionBuilder::ifThen(const Value &cond, const std::function<void()> &then_fn)
{
    const uint32_t then_bb = newBlock("then");
    const uint32_t join_bb = newBlock("join");

    Instr br;
    br.op = Opcode::Br;
    br.src[0] = cond.reg();
    br.taken = then_bb;
    br.notTaken = join_bb;
    terminate(br);

    setBlock(then_bb);
    then_fn();
    jumpTo(join_bb);

    setBlock(join_bb);
}

void
FunctionBuilder::ifThenElse(const Value &cond,
                            const std::function<void()> &then_fn,
                            const std::function<void()> &else_fn)
{
    const uint32_t then_bb = newBlock("then");
    const uint32_t else_bb = newBlock("else");
    const uint32_t join_bb = newBlock("join");

    Instr br;
    br.op = Opcode::Br;
    br.src[0] = cond.reg();
    br.taken = then_bb;
    br.notTaken = else_bb;
    terminate(br);

    setBlock(then_bb);
    then_fn();
    jumpTo(join_bb);

    setBlock(else_bb);
    else_fn();
    jumpTo(join_bb);

    setBlock(join_bb);
}

void
FunctionBuilder::forLoop(const Var &v, const Value &lo, const Value &hi,
                         const std::function<void()> &body, int64_t step)
{
    assign(v, lo);
    const uint32_t header = newBlock("for.header");
    const uint32_t body_bb = newBlock("for.body");
    const uint32_t exit_bb = newBlock("for.exit");

    jumpTo(header);
    setBlock(header);
    Value in_range = step > 0 ? (Value(v) <= hi) : (Value(v) >= hi);
    Instr br;
    br.op = Opcode::Br;
    br.src[0] = in_range.reg();
    br.taken = body_bb;
    br.notTaken = exit_bb;
    terminate(br);

    loops_.push_back({header, exit_bb});
    setBlock(body_bb);
    body();
    // Latch: v += step; back to header.
    assign(v, Value(v) + step);
    jumpTo(header);
    loops_.pop_back();

    setBlock(exit_bb);
}

void
FunctionBuilder::whileLoop(const std::function<Value()> &cond,
                           const std::function<void()> &body)
{
    const uint32_t header = newBlock("while.header");
    const uint32_t body_bb = newBlock("while.body");
    const uint32_t exit_bb = newBlock("while.exit");

    jumpTo(header);
    setBlock(header);
    Value c = cond();
    Instr br;
    br.op = Opcode::Br;
    br.src[0] = c.reg();
    br.taken = body_bb;
    br.notTaken = exit_bb;
    terminate(br);

    loops_.push_back({header, exit_bb});
    setBlock(body_bb);
    body();
    jumpTo(header);
    loops_.pop_back();

    setBlock(exit_bb);
}

void
FunctionBuilder::breakLoop()
{
    assert(!loops_.empty() && "breakLoop outside a loop");
    Instr jmp;
    jmp.op = Opcode::Jmp;
    jmp.taken = loops_.back().exit;
    terminate(jmp);
    // Open an unreachable continuation block so subsequent emissions in
    // the same lexical scope have somewhere to go; the structured
    // helpers will seal it.
    setBlock(newBlock("dead"));
}

Function &
FunctionBuilder::finish()
{
    if (!fn_.blocks[cur_].hasTerminator()) {
        Instr h;
        h.op = Opcode::Halt;
        terminate(h);
    }
    // Every block must be terminated.
    for (auto &bb : fn_.blocks) {
        if (!bb.hasTerminator()) {
            Instr h;
            h.op = Opcode::Halt;
            h.sid = prog_.nextSid();
            bb.instrs.push_back(h);
        }
    }
    return fn_;
}

uint32_t
FunctionBuilder::newBlock(const std::string &name)
{
    BasicBlock bb;
    bb.id = static_cast<uint32_t>(fn_.blocks.size());
    bb.name = name;
    fn_.blocks.push_back(std::move(bb));
    return fn_.blocks.back().id;
}

void
FunctionBuilder::setBlock(uint32_t id)
{
    cur_ = id;
}

Value
FunctionBuilder::emitBin(Opcode op, const Value &a, const Value &b)
{
    Instr in;
    in.op = op;
    in.dst = newIntReg();
    in.src[0] = a.reg();
    in.src[1] = b.reg();
    emit(in);
    return Value(this, in.dst);
}

Value
FunctionBuilder::emitBinImm(Opcode op, const Value &a, int64_t imm)
{
    Instr in;
    in.op = op;
    in.dst = newIntReg();
    in.src[0] = a.reg();
    in.hasImm = true;
    in.imm = imm;
    emit(in);
    return Value(this, in.dst);
}

FValue
FunctionBuilder::emitFBin(Opcode op, const FValue &a, const FValue &b)
{
    Instr in;
    in.op = op;
    in.dst = newFpReg();
    in.src[0] = a.reg();
    in.src[1] = b.reg();
    emit(in);
    return FValue(this, in.dst);
}

Value
FunctionBuilder::emitFCmp(Opcode op, const FValue &a, const FValue &b)
{
    Instr in;
    in.op = op;
    in.dst = newIntReg();
    in.src[0] = a.reg();
    in.src[1] = b.reg();
    emit(in);
    return Value(this, in.dst);
}

uint32_t
FunctionBuilder::resolveAlias(RegClass cls, uint32_t reg) const
{
    const auto &aliases =
        cls == RegClass::Fp ? fp_aliases_ : int_aliases_;
    // Aliases may chain (a fold onto a variable that was itself the
    // target of a fold); resolve to a fixpoint.
    bool moved = true;
    while (moved) {
        moved = false;
        for (const auto &[from, to] : aliases) {
            if (from == reg) {
                reg = to;
                moved = true;
                break;
            }
        }
    }
    return reg;
}

void
FunctionBuilder::invalidateAliasesTo(RegClass cls, uint32_t reg)
{
    auto &aliases = cls == RegClass::Fp ? fp_aliases_ : int_aliases_;
    for (auto it = aliases.begin(); it != aliases.end();) {
        if (it->second == reg)
            it = aliases.erase(it);
        else
            ++it;
    }
}

void
FunctionBuilder::recordAlias(RegClass cls, uint32_t from, uint32_t to)
{
    auto &aliases = cls == RegClass::Fp ? fp_aliases_ : int_aliases_;
    aliases.emplace_back(from, to);
}

Instr &
FunctionBuilder::emit(Instr in)
{
    assert(!fn_.blocks[cur_].hasTerminator() &&
           "emitting into a sealed block");

    // Redirect reads of registers whose defining instruction was
    // retargeted by an assign() fold.
    const int n = numSrcs(in);
    for (int i = 0; i < n; i++) {
        if (in.src[i] != kNoReg)
            in.src[i] = resolveAlias(srcClass(in, i), in.src[i]);
    }
    if (isLoad(in.op) || isStore(in.op)) {
        if (in.mem.base != kNoReg)
            in.mem.base = resolveAlias(RegClass::Int, in.mem.base);
        if (in.mem.index != kNoReg)
            in.mem.index = resolveAlias(RegClass::Int, in.mem.index);
    }
    // Overwriting a register invalidates aliases pointing at it.
    const RegClass dcls = dstClass(in);
    if (dcls != RegClass::None)
        invalidateAliasesTo(dcls, in.dst);

    in.sid = prog_.nextSid();
    in.line = cur_line_;
    fn_.blocks[cur_].instrs.push_back(in);
    return fn_.blocks[cur_].instrs.back();
}

void
FunctionBuilder::terminate(Instr in)
{
    assert(isTerminator(in.op));
    emit(in);
}

void
FunctionBuilder::jumpTo(uint32_t target)
{
    if (fn_.blocks[cur_].hasTerminator())
        return;
    Instr jmp;
    jmp.op = Opcode::Jmp;
    jmp.taken = target;
    terminate(jmp);
}

} // namespace bioperf::ir
