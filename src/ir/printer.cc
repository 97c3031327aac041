#include "ir/printer.h"

#include <sstream>

namespace bioperf::ir {

namespace {

std::string
regName(RegClass c, uint32_t r)
{
    if (r == kNoReg)
        return "r?";
    std::string name = c == RegClass::Fp ? "f" : "r";
    name += std::to_string(r);
    return name;
}

std::string
memString(const Program &prog, const MemRef &m)
{
    std::ostringstream os;
    os << "[";
    bool first = true;
    if (m.base != kNoReg) {
        os << regName(RegClass::Int, m.base);
        first = false;
    }
    if (m.index != kNoReg) {
        if (!first)
            os << " + ";
        os << regName(RegClass::Int, m.index) << "*" << int(m.scale);
        first = false;
    }
    if (m.offset != 0 || first) {
        if (!first)
            os << " + ";
        os << m.offset;
    }
    os << "]";
    if (m.region >= 0 &&
        m.region < static_cast<int32_t>(prog.numRegions())) {
        os << " {" << prog.region(m.region).name << "}";
    } else {
        os << " {?}";
    }
    return os.str();
}

} // namespace

std::string
toString(const Program &prog, const Instr &in)
{
    std::ostringstream os;
    os << opcodeName(in.op);

    const RegClass dc = dstClass(in);
    bool need_comma = false;
    if (dc != RegClass::None) {
        os << " " << regName(dc, in.dst);
        need_comma = true;
    }
    const int n = numSrcs(in);
    for (int i = 0; i < n; i++) {
        os << (need_comma ? ", " : " ");
        os << regName(srcClass(in, i), in.src[i]);
        need_comma = true;
    }
    if (in.hasImm) {
        os << (need_comma ? ", " : " ") << "#" << in.imm;
        need_comma = true;
    }
    if (in.op == Opcode::FMovImm) {
        os << (need_comma ? ", " : " ") << "#" << in.fimm;
        need_comma = true;
    }
    if (hasMemOperand(in.op)) {
        os << (need_comma ? ", " : " ") << memString(prog, in.mem);
    }
    if (in.op == Opcode::Br)
        os << " -> bb" << in.taken << " / bb" << in.notTaken;
    if (in.op == Opcode::Jmp)
        os << " -> bb" << in.taken;
    if (in.line >= 0)
        os << "    ; line " << in.line;
    return os.str();
}

std::string
toString(const Program &prog, const Function &fn)
{
    std::ostringstream os;
    os << "function " << fn.name << " (intRegs=" << fn.numIntRegs
       << ", fpRegs=" << fn.numFpRegs << ")\n";
    for (const auto &bb : fn.blocks) {
        os << "bb" << bb.id;
        if (!bb.name.empty())
            os << " <" << bb.name << ">";
        os << ":\n";
        for (const auto &in : bb.instrs)
            os << "    " << toString(prog, in) << "\n";
    }
    return os.str();
}

} // namespace bioperf::ir
