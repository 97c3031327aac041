#include <gtest/gtest.h>

#include "ir/builder.h"
#include "ir/ir.h"
#include "ir/printer.h"
#include "ir/verify.h"
#include "vm/interpreter.h"

namespace bioperf::ir {
namespace {

TEST(Opcode, Classification)
{
    EXPECT_EQ(classOf(Opcode::Add), InstrClass::IntAlu);
    EXPECT_EQ(classOf(Opcode::Select), InstrClass::IntAlu);
    EXPECT_EQ(classOf(Opcode::FAdd), InstrClass::FpAlu);
    EXPECT_EQ(classOf(Opcode::FSelect), InstrClass::FpAlu);
    EXPECT_EQ(classOf(Opcode::Load), InstrClass::Load);
    EXPECT_EQ(classOf(Opcode::FLoad), InstrClass::FpLoad);
    EXPECT_EQ(classOf(Opcode::Store), InstrClass::Store);
    EXPECT_EQ(classOf(Opcode::FStore), InstrClass::FpStore);
    EXPECT_EQ(classOf(Opcode::Br), InstrClass::CondBranch);
    EXPECT_EQ(classOf(Opcode::Jmp), InstrClass::Jump);
}

TEST(Opcode, Predicates)
{
    EXPECT_TRUE(isLoad(Opcode::Load));
    EXPECT_TRUE(isLoad(Opcode::FLoad));
    EXPECT_FALSE(isLoad(Opcode::Store));
    EXPECT_TRUE(isStore(Opcode::FStore));
    EXPECT_TRUE(isTerminator(Opcode::Br));
    EXPECT_TRUE(isTerminator(Opcode::Jmp));
    EXPECT_TRUE(isTerminator(Opcode::Halt));
    EXPECT_FALSE(isTerminator(Opcode::Add));
}

TEST(Instr, OperandMetadata)
{
    Instr add;
    add.op = Opcode::Add;
    add.src[0] = 1;
    add.src[1] = 2;
    EXPECT_EQ(numSrcs(add), 2);
    EXPECT_EQ(srcClass(add, 0), RegClass::Int);
    EXPECT_EQ(dstClass(add), RegClass::Int);

    add.hasImm = true;
    EXPECT_EQ(numSrcs(add), 1);

    Instr fsel;
    fsel.op = Opcode::FSelect;
    EXPECT_EQ(numSrcs(fsel), 3);
    EXPECT_EQ(srcClass(fsel, 0), RegClass::Int);
    EXPECT_EQ(srcClass(fsel, 1), RegClass::Fp);
    EXPECT_EQ(dstClass(fsel), RegClass::Fp);

    Instr st;
    st.op = Opcode::Store;
    EXPECT_EQ(numSrcs(st), 1);
    EXPECT_EQ(dstClass(st), RegClass::None);
}

TEST(Instr, GatherReadsIncludesAddressRegs)
{
    Instr ld;
    ld.op = Opcode::Load;
    ld.dst = 9;
    ld.mem.base = 3;
    ld.mem.index = 4;
    std::vector<std::pair<RegClass, uint32_t>> reads;
    gatherReads(ld, reads);
    ASSERT_EQ(reads.size(), 2u);
    EXPECT_EQ(reads[0].second, 3u);
    EXPECT_EQ(reads[1].second, 4u);

    Instr st;
    st.op = Opcode::FStore;
    st.src[0] = 7; // fp value
    st.mem.index = 5;
    reads.clear();
    gatherReads(st, reads);
    ASSERT_EQ(reads.size(), 2u);
    EXPECT_EQ(reads[0].first, RegClass::Fp);
    EXPECT_EQ(reads[1].first, RegClass::Int);
}

TEST(Program, RegionLayoutIsAlignedAndDisjoint)
{
    Program prog;
    const int32_t a = prog.addRegion("a", 4, 10);
    const int32_t b = prog.addRegion("b", 8, 3);
    EXPECT_EQ(prog.region(a).base % 64, 0u);
    EXPECT_EQ(prog.region(b).base % 64, 0u);
    EXPECT_GE(prog.region(b).base,
              prog.region(a).base + prog.region(a).sizeBytes);
    EXPECT_GE(prog.memoryBytes(),
              prog.region(b).base + prog.region(b).sizeBytes);
}

TEST(Program, RenumberProducesDenseSids)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    auto x = b.var();
    b.assign(x, int64_t(1));
    b.assign(x, Value(x) + 1);
    Function &fn = b.finish();
    prog.renumber();
    uint32_t expected = 0;
    for (const auto &bb : fn.blocks)
        for (const auto &in : bb.instrs)
            EXPECT_EQ(in.sid, expected++);
    EXPECT_EQ(prog.sidLimit(), expected);
}

// --- builder + interpreter round trips ---------------------------------

int64_t
runScalar(Program &prog, Function &fn, uint32_t out_reg,
          const std::vector<int64_t> &params = {})
{
    EXPECT_EQ(verify(prog), "");
    vm::Interpreter interp(prog);
    interp.run(fn, params);
    return interp.intReg(out_reg);
}

TEST(Builder, ArithmeticExpressions)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    Value y = b.param("y");
    auto r = b.var();
    b.assign(r, (x + y) * 3 - (x - y) / b.constI(2));
    Function &fn = b.finish();
    // x=10, y=4: (14*3) - (6/2) = 39.
    EXPECT_EQ(runScalar(prog, fn, r.reg, { 10, 4 }), 39);
}

TEST(Builder, ComparisonsProduceZeroOne)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    auto r = b.var();
    b.assign(r, (x > 5) + (x == 7) * 10 + (x <= 100));
    Function &fn = b.finish();
    EXPECT_EQ(runScalar(prog, fn, r.reg, { 7 }), 12);
}

TEST(Builder, ForLoopTripCount)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    Value n = b.param("n");
    auto sum = b.var();
    auto i = b.var();
    b.assign(sum, int64_t(0));
    b.forLoop(i, b.constI(1), n, [&] {
        b.assign(sum, Value(sum) + Value(i));
    });
    Function &fn = b.finish();
    EXPECT_EQ(runScalar(prog, fn, sum.reg, { 10 }), 55);
    EXPECT_EQ(runScalar(prog, fn, sum.reg, { 0 }), 0);
    EXPECT_EQ(runScalar(prog, fn, sum.reg, { 1 }), 1);
}

TEST(Builder, ForLoopWithStep)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    Value n = b.param("n");
    auto count = b.var();
    auto i = b.var();
    b.assign(count, int64_t(0));
    b.forLoop(i, b.constI(0), n, [&] {
        b.assign(count, Value(count) + 1);
    }, 2);
    Function &fn = b.finish();
    EXPECT_EQ(runScalar(prog, fn, count.reg, { 9 }), 5); // 0,2,4,6,8
}

TEST(Builder, IfThenElse)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    auto r = b.var();
    b.ifThenElse(x > 0, [&] { b.assign(r, int64_t(1)); },
                 [&] { b.assign(r, int64_t(-1)); });
    Function &fn = b.finish();
    EXPECT_EQ(runScalar(prog, fn, r.reg, { 5 }), 1);
    EXPECT_EQ(runScalar(prog, fn, r.reg, { -5 }), -1);
    EXPECT_EQ(runScalar(prog, fn, r.reg, { 0 }), -1);
}

TEST(Builder, WhileLoopAndBreak)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    Value limit = b.param("limit");
    auto i = b.var();
    b.assign(i, int64_t(0));
    b.whileLoop([&] { return Value(i) < 100; }, [&] {
        b.ifThen(Value(i) == limit, [&] { b.breakLoop(); });
        b.assign(i, Value(i) + 1);
    });
    Function &fn = b.finish();
    EXPECT_EQ(runScalar(prog, fn, i.reg, { 7 }), 7);
    EXPECT_EQ(runScalar(prog, fn, i.reg, { 1000 }), 100);
}

TEST(Builder, SelectAndSmax)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    Value y = b.param("y");
    auto r = b.var();
    b.assign(r, b.select(x > y, x, y));
    Function &fn = b.finish();
    EXPECT_EQ(runScalar(prog, fn, r.reg, { 3, 9 }), 9);
    EXPECT_EQ(runScalar(prog, fn, r.reg, { 9, 3 }), 9);
    EXPECT_EQ(runScalar(prog, fn, r.reg, { -5, -2 }), -2);
}

TEST(Builder, ArrayLoadStore)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 8);
    Value i = b.param("i");
    b.st(arr, i, b.constI(77));
    auto r = b.var();
    b.assign(r, b.ld(arr, i) + b.ld(arr, i, 0));
    Function &fn = b.finish();
    EXPECT_EQ(runScalar(prog, fn, r.reg, { 3 }), 154);
}

TEST(Builder, SignExtensionOfSmallElements)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.byteArray("arr", 4);
    b.st(arr, 0, b.constI(-1)); // stores 0xff
    auto r = b.var();
    b.assign(r, b.ld(arr, int64_t(0)));
    Function &fn = b.finish();
    EXPECT_EQ(runScalar(prog, fn, r.reg), -1);
}

TEST(Builder, FloatingPointExpressions)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.fpArray("arr", 2);
    FValue x = b.constF(1.5);
    FValue y = b.constF(2.0);
    b.fst(arr, 0, x * y + x / y);
    auto flag = b.var();
    b.assign(flag, (x < y) + (x * y == b.constF(3.0)) * 10);
    Function &fn = b.finish();
    EXPECT_EQ(verify(prog), "");
    vm::Interpreter interp(prog);
    interp.run(fn);
    vm::ArrayView<double> view(interp.memory(), prog.region(arr.region));
    EXPECT_DOUBLE_EQ(view.get(0), 3.75);
    EXPECT_EQ(interp.intReg(flag.reg), 11);
}

TEST(Builder, CvtRoundTrip)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    auto r = b.var();
    b.assign(r, b.icvt(b.fcvt(x) * b.constF(0.5)));
    Function &fn = b.finish();
    EXPECT_EQ(runScalar(prog, fn, r.reg, { 9 }), 4); // trunc(4.5)
    EXPECT_EQ(runScalar(prog, fn, r.reg, { -9 }), -4);
}

TEST(Builder, PointerStyleAccess)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef pool = b.intArray("pool", 4);
    // Write 42 at pool[2] through a raw pointer.
    Value addr = b.constI(
        static_cast<int64_t>(prog.region(pool.region).base) + 2 * 4);
    b.stAt(addr, 0, 4, b.constI(42), pool.region);
    auto r = b.var();
    b.assign(r, b.ldAt(addr, 0, 4, pool.region));
    Function &fn = b.finish();
    EXPECT_EQ(runScalar(prog, fn, r.reg), 42);
}

TEST(Builder, SourceLineTags)
{
    Program prog;
    FunctionBuilder b(prog, "f", "file.c");
    b.line(42);
    auto x = b.var();
    b.assign(x, int64_t(1));
    Function &fn = b.finish();
    EXPECT_EQ(fn.sourceFile, "file.c");
    EXPECT_EQ(fn.blocks[0].instrs[0].line, 42);
}

// --- verifier ------------------------------------------------------------

TEST(Verify, AcceptsWellFormed)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    auto x = b.var();
    b.assign(x, int64_t(1));
    b.ifThen(Value(x) > 0, [&] { b.assign(x, int64_t(2)); });
    b.finish();
    EXPECT_EQ(verify(prog), "");
}

TEST(Verify, RejectsBranchTargetOutOfRange)
{
    Program prog;
    Function &fn = prog.addFunction("f");
    BasicBlock bb;
    bb.id = 0;
    Instr movi;
    movi.op = Opcode::MovImm;
    movi.dst = 0;
    movi.hasImm = true;
    bb.instrs.push_back(movi);
    Instr br;
    br.op = Opcode::Br;
    br.src[0] = 0;
    br.taken = 5;
    br.notTaken = 0;
    bb.instrs.push_back(br);
    fn.blocks.push_back(bb);
    fn.numIntRegs = 1;
    EXPECT_NE(verify(prog, fn), "");
}

TEST(Verify, RejectsMissingTerminator)
{
    Program prog;
    Function &fn = prog.addFunction("f");
    BasicBlock bb;
    bb.id = 0;
    Instr movi;
    movi.op = Opcode::MovImm;
    movi.dst = 0;
    movi.hasImm = true;
    bb.instrs.push_back(movi);
    fn.blocks.push_back(bb);
    fn.numIntRegs = 1;
    EXPECT_NE(verify(prog, fn), "");
}

TEST(Verify, RejectsRegisterOutOfRange)
{
    Program prog;
    Function &fn = prog.addFunction("f");
    BasicBlock bb;
    bb.id = 0;
    Instr add;
    add.op = Opcode::Add;
    add.dst = 0;
    add.src[0] = 3; // out of range
    add.src[1] = 0;
    bb.instrs.push_back(add);
    Instr halt;
    halt.op = Opcode::Halt;
    bb.instrs.push_back(halt);
    fn.blocks.push_back(bb);
    fn.numIntRegs = 1;
    EXPECT_NE(verify(prog, fn), "");
}

TEST(Verify, RejectsBadMemSize)
{
    Program prog;
    Function &fn = prog.addFunction("f");
    BasicBlock bb;
    bb.id = 0;
    Instr ld;
    ld.op = Opcode::Load;
    ld.dst = 0;
    ld.mem.size = 3;
    bb.instrs.push_back(ld);
    Instr halt;
    halt.op = Opcode::Halt;
    bb.instrs.push_back(halt);
    fn.blocks.push_back(bb);
    fn.numIntRegs = 1;
    EXPECT_NE(verify(prog, fn), "");
}

// --- printer ---------------------------------------------------------------

TEST(Printer, RendersInstructions)
{
    Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("mpp", 4);
    auto x = b.var();
    b.assign(x, b.ld(arr, int64_t(1)) + 5);
    Function &fn = b.finish();
    const std::string s = toString(prog, fn);
    EXPECT_NE(s.find("function f"), std::string::npos);
    EXPECT_NE(s.find("ld"), std::string::npos);
    EXPECT_NE(s.find("{mpp}"), std::string::npos);
    EXPECT_NE(s.find("#5"), std::string::npos);
    EXPECT_NE(s.find("halt"), std::string::npos);
}

} // namespace
} // namespace bioperf::ir
