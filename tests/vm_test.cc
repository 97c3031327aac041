#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "ir/builder.h"
#include "util/rng.h"
#include "vm/interpreter.h"
#include "vm/memory.h"
#include "vm/segment_driver.h"
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
    const uint32_t with_load = memo.addSegment({ 10, 11, 12 }, 1);
    const uint32_t no_load = memo.addSegment({ 20, 21 }, 0);
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
        ASSERT_NE(memo.addSegment({ n }, 0), SegmentMemo::kNone);
    // A too-long segment is refused but leaves the memo on.
    std::vector<uint32_t> longest(SegmentMemo::kMaxSegmentLen + 1, 1u << 20);
    EXPECT_EQ(memo.addSegment(longest, 0), SegmentMemo::kNone);
    EXPECT_TRUE(memo.on());
    EXPECT_EQ(memo.addSegment({ 1u << 20 }, 0), SegmentMemo::kNone);
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
        const uint32_t seg = memo.addSegment({ 1, 2 }, 0);
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

/**
 * An event of ToyClient's stream: a sid at or above kTerminal ends a
 * segment, an odd sid below it is a load; the value of either is the
 * event's input, and any other event's value is its sid.
 */
struct ToyEvent
{
    uint32_t sid = 0;
    uint32_t value = 0;
};

constexpr uint32_t kTerminal = 1u << 20;

bool
isLoad(uint32_t sid)
{
    return sid < kTerminal && (sid & 1);
}

/** The toy rule, the only copy: a state acc (mod 7) and a counter. */
void
toyStep(uint32_t &acc, uint64_t &total, uint32_t value)
{
    acc = (3 * acc + value) % 7;
    total += acc + 1;
}

/**
 * The smallest SegmentDriver client: its state is acc, its counter
 * total (what a read returns); an edge's client word is how far total
 * moved. It counts the driver's calls, so a test can tell a hit from a
 * miss and a whole step from a prefix's.
 */
class ToyClient : public SegmentDriver<ToyClient>
{
  public:
    void
    onEvents(const ToyEvent *events, size_t n)
    {
        events_ = events;
        feed(n);
    }
    uint64_t
    total()
    {
        catchUp();
        return total_;
    }
    void onRunEnd() { endRun(); }
    void onJump() { makeCurrent(); }
    bool memoOn() const { return memo().on(); }
    /** The recorded segment starting at @a sid: its length, or 0. */
    uint32_t
    recordedLength(uint32_t sid) const
    {
        const uint32_t seg = memo().segmentAt(sid);
        return seg == kNone ? 0 : memo().segment(seg).len;
    }

    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t prefixes = 0;

  private:
    friend class SegmentDriver<ToyClient>;

    uint32_t sidAt(size_t i) const { return events_[i].sid; }
    void
    gather(uint32_t seg, uint32_t pos, size_t i, size_t k,
           uint32_t *inputs) const
    {
        const uint32_t *sids = memo().sidsOf(memo().segment(seg));
        uint32_t load = 0;
        for (uint32_t j = 0; j < pos + k; j++) {
            if (!isLoad(sids[j]))
                continue;
            if (j >= pos)
                inputs[load] = events_[i + j - pos].value;
            load++;
        }
    }
    uint32_t
    terminal(size_t t, uint32_t, const Recording *) const
    {
        return events_[t].value;
    }
    void
    applyEdge(const SegmentMemo::Edge &e, uint32_t, bool)
    {
        total_ += e.client;
        hits++;
    }
    size_t
    stepLive(size_t i, size_t n, Recording *rec, bool &ended)
    {
        while (i < n) {
            const ToyEvent &e = events_[i++];
            const bool input = isLoad(e.sid) || e.sid >= kTerminal;
            if (rec && isLoad(e.sid))
                rec->inputs.push_back(e.value);
            if (rec)
                rec->sids.push_back(e.sid);
            toyStep(acc_, total_, input ? e.value : e.sid);
            if (e.sid >= kTerminal) {
                ended = true;
                break;
            }
        }
        return i;
    }
    void
    stepRecorded(const SegmentMemo::Segment &s, uint32_t len,
                 const uint32_t *inputs)
    {
        const uint32_t *sids = memo().sidsOf(s);
        uint32_t load = 0;
        for (uint32_t k = 0; k < len; k++) {
            const uint32_t value = isLoad(sids[k])         ? inputs[load++]
                                   : sids[k] >= kTerminal ? inputs[s.numLoads]
                                                          : sids[k];
            toyStep(acc_, total_, value);
        }
        (len == s.len ? misses : prefixes)++;
    }
    void segmentStart() { start_ = total_; }
    uint32_t segmentEnd() { return static_cast<uint32_t>(total_ - start_); }
    bool
    saveState(std::vector<uint16_t> &words, int16_t &span, const uint32_t *,
              size_t)
    {
        words.assign(1, static_cast<uint16_t>(acc_));
        span = 0;
        return true;
    }
    void loadState(const uint16_t *words, size_t) { acc_ = words[0]; }
    void clearRun() { acc_ = 0; }

    const ToyEvent *events_ = nullptr;
    uint32_t acc_ = 0;
    uint64_t total_ = 0;
    uint64_t start_ = 0;
};

/** A stream of @a segments segments, each one of @a shapes. */
std::vector<ToyEvent>
toyStream(const std::vector<std::vector<uint32_t>> &shapes, size_t segments,
          uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<ToyEvent> events;
    for (size_t k = 0; k < segments; k++) {
        for (const uint32_t sid : shapes[rng.nextBelow(shapes.size())]) {
            const bool input = isLoad(sid) || sid >= kTerminal;
            events.push_back({ sid, input ? uint32_t(rng.nextBelow(3)) : sid });
        }
    }
    return events;
}

/**
 * Feeds @a events to @a toy in batches of @a n, with a run end after
 * event @a run_end and a jump announced before each event in @a jumps
 * (ascending), and checks total() against stepping after every batch
 * when @a read (else at the end only).
 */
void
feedAndCheck(ToyClient &toy, const std::vector<ToyEvent> &events, size_t n,
             bool read, size_t run_end = SIZE_MAX,
             const std::vector<size_t> &jumps = {})
{
    uint32_t acc = 0;
    uint64_t total = 0;
    auto jump = jumps.begin();
    for (size_t i = 0; i < events.size();) {
        if (jump != jumps.end() && *jump == i) {
            toy.onJump();
            ++jump;
        }
        size_t stop = std::min(i + n, events.size());
        if (i < run_end && run_end < stop)
            stop = run_end;
        if (jump != jumps.end() && *jump < stop)
            stop = *jump;
        toy.onEvents(&events[i], stop - i);
        for (; i < stop; i++) {
            const ToyEvent &e = events[i];
            const bool input = isLoad(e.sid) || e.sid >= kTerminal;
            toyStep(acc, total, input ? e.value : e.sid);
        }
        if (i == run_end) {
            toy.onRunEnd();
            acc = 0;
        }
        if (read) {
            ASSERT_EQ(toy.total(), total) << "event " << i;
        }
    }
    EXPECT_EQ(toy.total(), total);
}

/** Four segments: loads at odd sids, a terminal last. */
const std::vector<std::vector<uint32_t>> kShapes = {
    { 10, 11, 12, kTerminal },
    { 20, 22, 23, 24, 25, kTerminal + 1 },
    { 30, kTerminal + 2 },
    { kTerminal + 3 },
};

TEST(SegmentDriver, HitsAndMissesEqualStepping)
{
    const std::vector<ToyEvent> events = toyStream(kShapes, 3000, 1);
    for (const size_t n : { size_t(1), size_t(3), size_t(64), events.size() }) {
        SCOPED_TRACE(n);
        ToyClient toy;
        feedAndCheck(toy, events, n, false, events.size() / 2);
        EXPECT_GT(toy.hits, 1000u);
        EXPECT_GT(toy.misses, 0u);
        EXPECT_GT(toy.replayedInstructions(), events.size() / 2);
    }
}

TEST(SegmentDriver, ReadMidSegmentEqualsStepping)
{
    // A read inside a skipped segment steps its executed prefix from
    // the recording, and the rest of it live.
    const std::vector<ToyEvent> events = toyStream(kShapes, 3000, 2);
    ToyClient toy;
    feedAndCheck(toy, events, 2, true, 1001);
    EXPECT_GT(toy.prefixes, 0u);
    EXPECT_GT(toy.hits, 0u);
}

TEST(SegmentDriver, AnnouncedJumpsEqualStepping)
{
    // A sampler's stream: windows of the program's stream, with
    // stretches the client never sees between them, so it jumps
    // mid-segment; each jump is announced.
    const std::vector<ToyEvent> program = toyStream(kShapes, 3000, 3);
    std::vector<ToyEvent> events;
    std::vector<size_t> jumps;
    for (size_t i = 0; i < program.size(); i += 97) {
        jumps.push_back(events.size());
        events.insert(events.end(), program.begin() + i,
                      program.begin() + std::min(i + 61, program.size()));
    }
    for (const bool read : { false, true }) {
        SCOPED_TRACE(read);
        ToyClient toy;
        feedAndCheck(toy, events, 5, read, SIZE_MAX, jumps);
        EXPECT_GT(toy.prefixes, 0u);
        EXPECT_GT(toy.hits, 0u);
    }

    // A jump while a new segment is recorded: the segment is not
    // stored across it, so later visits to its first sid record the
    // program's segment once and then replay it whole.
    std::vector<ToyEvent> cut = { { 10, 10 }, { 11, 1 }, { 12, 12 },
                                  { 24, 24 }, { 25, 2 }, { kTerminal + 1, 0 } };
    const ToyEvent visit[] = { { 10, 10 }, { 11, 1 }, { 12, 12 },
                               { kTerminal, 1 } };
    for (size_t k = 0; k < 40; k++)
        cut.insert(cut.end(), std::begin(visit), std::end(visit));
    ToyClient toy;
    feedAndCheck(toy, cut, 2, false, SIZE_MAX, { 3 });
    EXPECT_EQ(toy.recordedLength(10), 4u);
    EXPECT_EQ(toy.prefixes, 0u);
    EXPECT_GT(toy.hits, 30u);
}

TEST(SegmentDriver, FullTableSwitchesTheMemoOffAndSteps)
{
    // More first sids than the segment table holds: once it is full
    // the memo is off, and what follows is stepped, not replayed.
    std::vector<ToyEvent> events = toyStream(kShapes, 500, 4);
    for (uint32_t k = 0; k <= SegmentMemo::kMaxSegments; k++) {
        events.push_back({ 100 + 2 * k, 100 + 2 * k });
        events.push_back({ kTerminal, 1 });
    }
    const size_t filled = events.size();
    for (const ToyEvent &e : toyStream(kShapes, 1000, 5))
        events.push_back(e);
    ToyClient toy;
    feedAndCheck(toy, { events.begin(), events.begin() + filled }, 7, false);
    EXPECT_FALSE(toy.memoOn());
    EXPECT_GT(toy.hits, 0u);
    const uint64_t replayed = toy.replayedInstructions();
    ToyClient fresh;
    feedAndCheck(fresh, events, 7, false);
    EXPECT_EQ(fresh.replayedInstructions(), replayed);
}

} // namespace
} // namespace bioperf::vm
