#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "ir/builder.h"
#include "vm/interpreter.h"
#include "vm/memory.h"
#include "vm/segment_memo.h"
#include "vm/trace.h"

namespace bioperf::vm {
namespace {

using ir::ArrayRef;
using ir::FunctionBuilder;
using ir::Opcode;
using ir::Value;

TEST(Memory, IntSizesSignExtendAndTruncate)
{
    Memory mem(ir::Program::kBaseAddress + 64);
    const uint64_t a = ir::Program::kBaseAddress;
    mem.storeInt(a, 1, 0x1ff);
    EXPECT_EQ(mem.loadInt(a, 1), -1);
    mem.storeInt(a, 2, 0x18000);
    EXPECT_EQ(mem.loadInt(a, 2), -32768);
    mem.storeInt(a, 4, 0x1ffffffffll);
    EXPECT_EQ(mem.loadInt(a, 4), -1);
    mem.storeInt(a, 8, -42);
    EXPECT_EQ(mem.loadInt(a, 8), -42);
}

TEST(Memory, FpRoundTrip)
{
    Memory mem(ir::Program::kBaseAddress + 64);
    const uint64_t a = ir::Program::kBaseAddress;
    mem.storeFp(a, 3.14159);
    EXPECT_DOUBLE_EQ(mem.loadFp(a), 3.14159);
}

TEST(Memory, ClearZeroes)
{
    Memory mem(ir::Program::kBaseAddress + 64);
    const uint64_t a = ir::Program::kBaseAddress;
    mem.storeInt(a, 8, 99);
    mem.clear();
    EXPECT_EQ(mem.loadInt(a, 8), 0);
}

TEST(Memory, LittleEndianLayout)
{
    Memory mem(ir::Program::kBaseAddress + 64);
    const uint64_t a = ir::Program::kBaseAddress;
    mem.storeInt(a, 4, 0x04030201);
    EXPECT_EQ(mem.loadInt(a, 1), 0x01);
    EXPECT_EQ(mem.loadInt(a + 1, 1), 0x02);
}

// --- parameterized binary integer op semantics -----------------------------

using BinOpCase = std::tuple<Opcode, int64_t, int64_t, int64_t>;

class BinOpTest : public ::testing::TestWithParam<BinOpCase>
{
};

TEST_P(BinOpTest, MatchesHostSemantics)
{
    const auto [op, a, b_val, expect] = GetParam();
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    Value y = b.param("y");
    auto r = b.var();
    b.assign(r, b.emitBin(op, x, y));
    ir::Function &fn = b.finish();
    Interpreter interp(prog);
    interp.run(fn, { a, b_val });
    EXPECT_EQ(interp.intReg(r.reg), expect)
        << ir::opcodeName(op) << " " << a << ", " << b_val;
}

INSTANTIATE_TEST_SUITE_P(
    AllBinOps, BinOpTest,
    ::testing::Values(
        BinOpCase{ Opcode::Add, 7, -3, 4 },
        BinOpCase{ Opcode::Sub, 7, -3, 10 },
        BinOpCase{ Opcode::Mul, -4, 6, -24 },
        BinOpCase{ Opcode::Div, 17, 5, 3 },
        BinOpCase{ Opcode::Div, -17, 5, -3 },
        BinOpCase{ Opcode::Div, 17, 0, 0 },  // defined: no trap
        BinOpCase{ Opcode::Rem, 17, 5, 2 },
        BinOpCase{ Opcode::Rem, 17, 0, 0 },
        BinOpCase{ Opcode::And, 0b1100, 0b1010, 0b1000 },
        BinOpCase{ Opcode::Or, 0b1100, 0b1010, 0b1110 },
        BinOpCase{ Opcode::Xor, 0b1100, 0b1010, 0b0110 },
        BinOpCase{ Opcode::Shl, 3, 4, 48 },
        BinOpCase{ Opcode::Shr, -16, 2, -4 }, // arithmetic shift
        BinOpCase{ Opcode::CmpEq, 5, 5, 1 },
        BinOpCase{ Opcode::CmpEq, 5, 6, 0 },
        BinOpCase{ Opcode::CmpNe, 5, 6, 1 },
        BinOpCase{ Opcode::CmpLt, -2, -1, 1 },
        BinOpCase{ Opcode::CmpLe, -1, -1, 1 },
        BinOpCase{ Opcode::CmpGt, 0, -1, 1 },
        BinOpCase{ Opcode::CmpGe, -1, 0, 0 }));

TEST(Interpreter, ImmediateForms)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    auto r = b.var();
    b.assign(r, ((x + 5) << 1) - 3);
    ir::Function &fn = b.finish();
    Interpreter interp(prog);
    interp.run(fn, { 10 });
    EXPECT_EQ(interp.intReg(r.reg), 27);
}

TEST(Interpreter, SelectSemantics)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    Value c = b.param("c");
    auto r = b.var();
    b.assign(r, b.select(c, b.constI(10), b.constI(20)));
    ir::Function &fn = b.finish();
    Interpreter interp(prog);
    interp.run(fn, { 1 });
    EXPECT_EQ(interp.intReg(r.reg), 10);
    interp.run(fn, { 0 });
    EXPECT_EQ(interp.intReg(r.reg), 20);
    interp.run(fn, { -7 }); // any nonzero condition selects
    EXPECT_EQ(interp.intReg(r.reg), 10);
}

TEST(Interpreter, FSelectSemantics)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    Value c = b.param("c");
    ArrayRef out = b.fpArray("out", 1);
    b.fst(out, 0, b.fselect(c, b.constF(1.5), b.constF(2.5)));
    ir::Function &fn = b.finish();
    Interpreter interp(prog);
    interp.run(fn, { 1 });
    ArrayView<double> view(interp.memory(), prog.region(out.region));
    EXPECT_DOUBLE_EQ(view.get(0), 1.5);
    interp.run(fn, { 0 });
    EXPECT_DOUBLE_EQ(view.get(0), 2.5);
}

TEST(Interpreter, RegistersZeroInitializedPerRun)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    auto r = b.var();
    b.assign(r, Value(r) + 1); // reads its own pre-state
    ir::Function &fn = b.finish();
    Interpreter interp(prog);
    interp.run(fn);
    EXPECT_EQ(interp.intReg(r.reg), 1);
    interp.run(fn);
    EXPECT_EQ(interp.intReg(r.reg), 1); // not 2: fresh registers
}

TEST(Interpreter, MemoryPersistsAcrossRuns)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 1);
    b.st(arr, int64_t(0), b.ld(arr, int64_t(0)) + 1);
    ir::Function &fn = b.finish();
    Interpreter interp(prog);
    interp.run(fn);
    interp.run(fn);
    interp.run(fn);
    ArrayView<int32_t> view(interp.memory(), prog.region(arr.region));
    EXPECT_EQ(view.get(0), 3);
}

/** Collects the full dynamic trace for inspection. */
class CollectingSink : public TraceSink
{
  public:
    struct Rec
    {
        Opcode op;
        uint64_t addr;
        bool taken;
    };
    std::vector<Rec> recs;
    int run_ends = 0;

    void
    onInstr(const DynInstr &di) override
    {
        recs.push_back({ di.instr->op, di.addr, di.taken });
    }
    void onRunEnd() override { run_ends++; }
};

TEST(Trace, StreamContents)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    ArrayRef arr = b.intArray("arr", 4);
    Value x = b.param("x");
    b.st(arr, int64_t(2), x);
    b.ifThen(x > 0, [&] { b.st(arr, int64_t(3), x); });
    ir::Function &fn = b.finish();

    CollectingSink sink;
    Interpreter interp(prog);
    interp.addSink(&sink);
    const uint64_t n = interp.run(fn, { 5 });
    EXPECT_EQ(sink.recs.size(), n);
    EXPECT_EQ(sink.run_ends, 1);

    // The first store's address is arr base + 2*4.
    bool found_store = false, found_branch = false;
    const uint64_t base = prog.region(arr.region).base;
    for (const auto &r : sink.recs) {
        if (r.op == Opcode::Store && !found_store) {
            EXPECT_EQ(r.addr, base + 8);
            found_store = true;
        }
        if (r.op == Opcode::Br) {
            EXPECT_TRUE(r.taken); // x=5 > 0
            found_branch = true;
        }
    }
    EXPECT_TRUE(found_store);
    EXPECT_TRUE(found_branch);
}

TEST(Trace, BranchNotTakenReported)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    Value x = b.param("x");
    auto r = b.var();
    b.ifThen(x > 0, [&] { b.assign(r, int64_t(1)); });
    ir::Function &fn = b.finish();
    CollectingSink sink;
    Interpreter interp(prog);
    interp.addSink(&sink);
    interp.run(fn, { -1 });
    bool saw = false;
    for (const auto &rec : sink.recs) {
        if (rec.op == Opcode::Br) {
            EXPECT_FALSE(rec.taken);
            saw = true;
        }
    }
    EXPECT_TRUE(saw);
}

TEST(Trace, MultipleSinksSeeIdenticalStream)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    auto i = b.var();
    auto s = b.var();
    b.assign(s, int64_t(0));
    b.forLoop(i, b.constI(0), b.constI(9), [&] {
        b.assign(s, Value(s) + Value(i));
    });
    ir::Function &fn = b.finish();
    CollectingSink s1, s2;
    Interpreter interp(prog);
    interp.addSink(&s1);
    interp.addSink(&s2);
    interp.run(fn);
    ASSERT_EQ(s1.recs.size(), s2.recs.size());
    for (size_t i2 = 0; i2 < s1.recs.size(); i2++) {
        EXPECT_EQ(s1.recs[i2].op, s2.recs[i2].op);
        EXPECT_EQ(s1.recs[i2].addr, s2.recs[i2].addr);
    }
}

// --- the interpreter's own memory path ---------------------------------------

/**
 * One block of hand-written instructions over a 256-byte region, so a
 * test sets every memory-operand field itself. Integer registers 0-7
 * and FP registers 0-1 exist; the block ends in Halt when run.
 */
class RawFunction
{
  public:
    RawFunction()
        : region_(prog_.addRegion("buf", 1, 256)),
          fn_(prog_.addFunction("f"))
    {
        fn_.blocks.emplace_back();
        fn_.numIntRegs = 8;
        fn_.numFpRegs = 2;
    }

    uint64_t base() const { return prog_.region(region_).base; }

    ir::Instr &
    add(Opcode op)
    {
        ir::Instr in;
        in.op = op;
        in.sid = prog_.nextSid();
        fn_.blocks[0].instrs.push_back(in);
        return fn_.blocks[0].instrs.back();
    }
    void
    movImm(uint32_t dst, int64_t v)
    {
        ir::Instr &in = add(Opcode::MovImm);
        in.dst = dst;
        in.imm = v;
    }
    /** A memory instruction with every address field given. */
    ir::Instr &
    mem(Opcode op, uint8_t size, uint32_t base, uint32_t index,
        uint8_t scale, int64_t offset)
    {
        ir::Instr &in = add(op);
        in.mem.region = region_;
        in.mem.size = size;
        in.mem.base = base;
        in.mem.index = index;
        in.mem.scale = scale;
        in.mem.offset = offset;
        return in;
    }

    /** Appends Halt, runs the block once and returns its events. */
    std::vector<DynInstr>
    run(Interpreter &interp)
    {
        add(Opcode::Halt);
        struct Sink : TraceSink
        {
            std::vector<DynInstr> events;
            void onInstr(const DynInstr &di) override
            {
                events.push_back(di);
            }
        } sink;
        interp.addSink(&sink);
        interp.run(fn_);
        interp.clearSinks();
        return sink.events;
    }

    ir::Program &program() { return prog_; }

  private:
    ir::Program prog_;
    int32_t region_;
    ir::Function &fn_;
};

TEST(InterpreterMemory, LoadsSignExtendAndStoresTruncateAtEverySize)
{
    // Every byte of the value has its top bit set, so each size's load
    // sign-extends a negative value.
    const int64_t value = static_cast<int64_t>(0x8182838485868788ull);
    const int64_t expect[4] = { static_cast<int8_t>(value),
                                static_cast<int16_t>(value),
                                static_cast<int32_t>(value), value };
    const uint8_t sizes[4] = { 1, 2, 4, 8 };
    for (int k = 0; k < 4; k++) {
        const uint8_t size = sizes[k];
        SCOPED_TRACE("size " + std::to_string(size));
        RawFunction f;
        const uint64_t at = f.base() + 16;
        f.movImm(1, value);
        f.mem(Opcode::Store, size, ir::kNoReg, ir::kNoReg, 1,
              static_cast<int64_t>(at))
            .src[0] = 1;
        f.mem(Opcode::Load, size, ir::kNoReg, ir::kNoReg, 1,
              static_cast<int64_t>(at))
            .dst = 2;
        Interpreter interp(f.program());
        // Bytes around the store hold a marker it must not touch.
        for (uint64_t a = f.base(); a < f.base() + 64; a++)
            interp.memory().storeInt(a, 1, 0x5a);
        const std::vector<DynInstr> ev = f.run(interp);

        ASSERT_EQ(ev.size(), 4u);
        EXPECT_EQ(interp.intReg(2), expect[k]);
        EXPECT_EQ(interp.memory().loadInt(at, size), expect[k]);
        EXPECT_EQ(interp.memory().loadInt(at + size, 1), 0x5a);
        EXPECT_EQ(interp.memory().loadInt(at - 1, 1), 0x5a);
        EXPECT_EQ(ev[1].addr, at);
        EXPECT_EQ(ev[1].loadValueBits, 0u);
        EXPECT_EQ(ev[2].addr, at);
        EXPECT_EQ(ev[2].loadValueBits, static_cast<uint64_t>(expect[k]));
        for (const DynInstr &di : ev)
            EXPECT_TRUE(di.matchesInstr());
    }
}

TEST(InterpreterMemory, EveryAddressForm)
{
    RawFunction f;
    const uint64_t b = f.base();
    f.movImm(3, static_cast<int64_t>(b + 16)); // base register
    f.movImm(4, 5);                            // index register
    // base only, index only, base + index * scale, register-free.
    f.mem(Opcode::Load, 4, 3, ir::kNoReg, 1, 8).dst = 0;
    f.mem(Opcode::Load, 8, ir::kNoReg, 4, 8, static_cast<int64_t>(b))
        .dst = 1;
    f.mem(Opcode::Load, 4, 3, 4, 4, -8).dst = 2;
    f.mem(Opcode::Load, 2, ir::kNoReg, ir::kNoReg, 1,
          static_cast<int64_t>(b + 48))
        .dst = 5;
    const uint64_t want[4] = { b + 24, b + 40, b + 28, b + 48 };

    Interpreter interp(f.program());
    for (uint64_t k = 0; k < 4; k++)
        interp.memory().storeInt(want[k], 2, int64_t(100 + k));
    const std::vector<DynInstr> ev = f.run(interp);

    ASSERT_EQ(ev.size(), 7u);
    const uint32_t dst[4] = { 0, 1, 2, 5 };
    for (int k = 0; k < 4; k++) {
        SCOPED_TRACE("form " + std::to_string(k));
        EXPECT_EQ(ev[2 + k].op, Opcode::Load);
        EXPECT_EQ(ev[2 + k].addr, want[k]);
        EXPECT_EQ(interp.intReg(dst[k]), 100 + k);
        EXPECT_EQ(ev[2 + k].loadValueBits, uint64_t(100 + k));
    }
    // The address registers are unchanged.
    EXPECT_EQ(interp.intReg(3), static_cast<int64_t>(b + 16));
    EXPECT_EQ(interp.intReg(4), 5);
}

TEST(InterpreterMemory, FpLoadStoreAndPrefetchEvents)
{
    RawFunction f;
    const uint64_t b = f.base();
    const double v = -3.75;
    f.movImm(3, static_cast<int64_t>(b));
    f.movImm(4, 6);
    f.add(Opcode::FMovImm).dst = 0;
    f.program().function(0).blocks[0].instrs.back().fimm = v;
    f.mem(Opcode::FStore, 8, 3, 4, 8, 0).src[0] = 0; // b + 48
    f.mem(Opcode::FLoad, 8, ir::kNoReg, 4, 8, static_cast<int64_t>(b))
        .dst = 1;
    f.mem(Opcode::Prefetch, 8, 3, 4, 2, 4); // b + 16
    Interpreter interp(f.program());
    const std::vector<DynInstr> ev = f.run(interp);

    ASSERT_EQ(ev.size(), 7u);
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    EXPECT_DOUBLE_EQ(interp.memory().loadFp(b + 48), v);
    EXPECT_DOUBLE_EQ(interp.fpReg(1), v);
    EXPECT_EQ(ev[3].op, Opcode::FStore);
    EXPECT_EQ(ev[3].addr, b + 48);
    EXPECT_EQ(ev[3].loadValueBits, 0u);
    EXPECT_EQ(ev[4].op, Opcode::FLoad);
    EXPECT_EQ(ev[4].addr, b + 48);
    EXPECT_EQ(ev[4].loadValueBits, bits);
    EXPECT_EQ(ev[5].op, Opcode::Prefetch);
    EXPECT_EQ(ev[5].addr, b + 16);
    EXPECT_EQ(ev[5].loadValueBits, 0u);
    // A prefetch writes nothing.
    EXPECT_EQ(interp.memory().loadInt(b + 16, 8), 0);
    for (const DynInstr &di : ev)
        EXPECT_TRUE(di.matchesInstr());
}

TEST(Interpreter, TotalInstrsAccumulates)
{
    ir::Program prog;
    FunctionBuilder b(prog, "f");
    auto x = b.var();
    b.assign(x, int64_t(1));
    ir::Function &fn = b.finish();
    Interpreter interp(prog);
    const uint64_t n1 = interp.run(fn);
    const uint64_t n2 = interp.run(fn);
    EXPECT_EQ(n1, n2);
    EXPECT_EQ(interp.totalInstrs(), n1 + n2);
}

/** A state of two words that encode @a n. */
std::vector<uint16_t>
stateWords(uint32_t n)
{
    return { static_cast<uint16_t>(n), static_cast<uint16_t>(n >> 16) };
}

TEST(SegmentMemo, EqualWordsInternToOneIdAcrossIndexGrowth)
{
    // The state index starts at 1024 slots and doubles once half
    // full: at 512 and again at 1024 states.
    SegmentMemo memo;
    std::vector<uint32_t> ids;
    for (uint32_t n = 0; n < 2000; n++) {
        ids.push_back(memo.intern(stateWords(n), 0));
        EXPECT_EQ(ids.back(), n);
    }
    for (uint32_t n = 0; n < 2000; n++)
        EXPECT_EQ(memo.intern(stateWords(n), 0), ids[n]) << n;
    // Words of another length are another state.
    EXPECT_EQ(memo.intern({ 7 }, 0), 2000u);
    EXPECT_TRUE(memo.on());
}

TEST(SegmentMemo, EdgeFoundOnlyWithItsOwnInputs)
{
    SegmentMemo memo;
    const uint32_t a = memo.intern(stateWords(1), 0);
    const uint32_t b = memo.intern(stateWords(2), 0);
    // One segment with a recorded load (two input words), one without.
    const uint32_t with_load = memo.addSegment({ 10, 11, 12 }, { 1 });
    const uint32_t no_load = memo.addSegment({ 20, 21 }, {});
    ASSERT_EQ(memo.segmentAt(10), with_load);
    ASSERT_EQ(memo.segmentAt(20), no_load);
    EXPECT_EQ(memo.segmentAt(11), SegmentMemo::kNone);

    const uint32_t in_a[] = { 3, 1 };
    const uint32_t in_b[] = { 3, 0 };
    const uint32_t one[] = { 1 };
    ASSERT_TRUE(memo.addEdge(a, with_load, in_a, b, 42));
    ASSERT_TRUE(memo.addEdge(a, no_load, one, a, 43));
    const uint32_t e = memo.replay(SegmentMemo::kNone, a, with_load, in_a);
    ASSERT_NE(e, SegmentMemo::kNone);
    EXPECT_EQ(memo.edge(e).next, b);
    EXPECT_EQ(memo.edge(e).client, 42u);
    EXPECT_EQ(memo.replayed(), 3u);
    const uint32_t none = SegmentMemo::kNone;
    EXPECT_EQ(memo.replay(none, a, with_load, in_b), none);
    EXPECT_EQ(memo.replay(none, b, with_load, in_a), none);
    const uint32_t zero[] = { 0 };
    EXPECT_EQ(memo.replay(none, a, no_load, zero), none);
    // The successor cache of edge e holds the edge that followed it,
    // and is checked like a lookup.
    const uint32_t f = memo.replay(e, a, no_load, one);
    ASSERT_NE(f, none);
    EXPECT_EQ(memo.edge(e).succ, f);
    EXPECT_EQ(memo.edge(f).client, 43u);
    EXPECT_EQ(memo.replay(e, a, no_load, zero), none);
    EXPECT_EQ(memo.replay(e, b, no_load, one), none);
    EXPECT_EQ(memo.replayed(), 5u);
}

TEST(SegmentMemo, FullTableReturnsNone)
{
    SegmentMemo memo;
    for (uint32_t n = 0; n < SegmentMemo::kMaxSegments; n++)
        ASSERT_NE(memo.addSegment({ n }, {}), SegmentMemo::kNone);
    // A too-long segment is refused but leaves the memo on.
    std::vector<uint32_t> longest(SegmentMemo::kMaxSegmentLen + 1, 1u << 20);
    EXPECT_EQ(memo.addSegment(longest, {}), SegmentMemo::kNone);
    EXPECT_TRUE(memo.on());
    EXPECT_EQ(memo.addSegment({ 1u << 20 }, {}), SegmentMemo::kNone);
    EXPECT_FALSE(memo.on());

    SegmentMemo states;
    for (uint32_t n = 0; n < SegmentMemo::kMaxStates; n++)
        ASSERT_NE(states.intern(stateWords(n), 0), SegmentMemo::kNone);
    EXPECT_TRUE(states.on());
    EXPECT_EQ(states.intern(stateWords(SegmentMemo::kMaxStates), 0),
              SegmentMemo::kNone);
    EXPECT_FALSE(states.on());
    // Known states are still found.
    EXPECT_EQ(states.intern(stateWords(5), 0), 5u);
}

TEST(SegmentMemo, SwitchesOffAtProbationOnlyWhenReplayingTooLittle)
{
    // Edges over one segment of 2 events: at kProbationEdges edges the
    // memo stays on iff it has replayed at least one event per edge.
    for (const uint32_t hits : { 0u, 511u, 512u }) {
        SCOPED_TRACE(hits);
        SegmentMemo memo;
        const uint32_t seg = memo.addSegment({ 1, 2 }, {});
        const uint32_t to = memo.intern(stateWords(0), 0);
        const uint32_t in[] = { 0 };
        for (uint32_t n = 1; n < SegmentMemo::kProbationEdges; n++) {
            const uint32_t from = memo.intern(stateWords(n), 0);
            ASSERT_TRUE(memo.addEdge(from, seg, in, to, 0));
        }
        // Below the probation, replaying nothing keeps it on.
        EXPECT_TRUE(memo.on());
        for (uint32_t k = 0; k < hits; k++)
            ASSERT_NE(memo.replay(SegmentMemo::kNone, 1 + k % 7, seg, in),
                      SegmentMemo::kNone);
        const bool stays = 2 * hits >= SegmentMemo::kProbationEdges;
        EXPECT_EQ(memo.addEdge(to, seg, in, to, 0), stays);
        EXPECT_EQ(memo.on(), stays);
    }
}

} // namespace
} // namespace bioperf::vm
