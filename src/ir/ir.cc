#include "ir/ir.h"

#include <cassert>

namespace bioperf::ir {

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::Mul: return "mul";
      case Opcode::Div: return "div";
      case Opcode::Rem: return "rem";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::CmpEq: return "cmpeq";
      case Opcode::CmpNe: return "cmpne";
      case Opcode::CmpLt: return "cmplt";
      case Opcode::CmpLe: return "cmple";
      case Opcode::CmpGt: return "cmpgt";
      case Opcode::CmpGe: return "cmpge";
      case Opcode::Select: return "select";
      case Opcode::MovImm: return "movi";
      case Opcode::Mov: return "mov";
      case Opcode::FAdd: return "fadd";
      case Opcode::FSub: return "fsub";
      case Opcode::FMul: return "fmul";
      case Opcode::FDiv: return "fdiv";
      case Opcode::FCmpEq: return "fcmpeq";
      case Opcode::FCmpNe: return "fcmpne";
      case Opcode::FCmpLt: return "fcmplt";
      case Opcode::FCmpLe: return "fcmple";
      case Opcode::FCmpGt: return "fcmpgt";
      case Opcode::FCmpGe: return "fcmpge";
      case Opcode::FSelect: return "fselect";
      case Opcode::FMovImm: return "fmovi";
      case Opcode::FMov: return "fmov";
      case Opcode::CvtIF: return "cvtif";
      case Opcode::CvtFI: return "cvtfi";
      case Opcode::Load: return "ld";
      case Opcode::FLoad: return "fld";
      case Opcode::Store: return "st";
      case Opcode::FStore: return "fst";
      case Opcode::Prefetch: return "prefetch";
      case Opcode::Br: return "br";
      case Opcode::Jmp: return "jmp";
      case Opcode::Halt: return "halt";
    }
    return "?";
}

size_t
Function::numInstrs() const
{
    size_t n = 0;
    for (const auto &bb : blocks)
        n += bb.instrs.size();
    return n;
}

size_t
Function::numInstrsOfClass(InstrClass c) const
{
    size_t n = 0;
    for (const auto &bb : blocks)
        for (const auto &in : bb.instrs)
            if (classOf(in.op) == c)
                n++;
    return n;
}

Program::Program(std::string name)
    : name_(std::move(name))
{
}

int32_t
Program::addRegion(const std::string &name, uint32_t elem_size,
                   uint64_t count)
{
    Region r;
    r.name = name;
    r.elemSize = elem_size;
    r.sizeBytes = elem_size * count;
    // Align every region to a cache block so synthetic arrays never
    // share a block, mirroring separately allocated C arrays.
    next_addr_ = (next_addr_ + 63) & ~uint64_t(63);
    r.base = next_addr_;
    next_addr_ += r.sizeBytes;
    regions_.push_back(std::move(r));
    return static_cast<int32_t>(regions_.size() - 1);
}

Function &
Program::addFunction(const std::string &name)
{
    functions_.push_back(std::make_unique<Function>());
    functions_.back()->name = name;
    return *functions_.back();
}

void
Program::renumber()
{
    next_sid_ = 0;
    for (auto &f : functions_)
        for (auto &bb : f->blocks)
            for (auto &in : bb.instrs)
                in.sid = next_sid_++;
}

} // namespace bioperf::ir
