/**
 * @file
 * PE pipeline tests: a single PE driven by a hand-held instruction
 * pipeline. Verifies 3-stage timing, exact forwarding for
 * back-to-back accumulation, VFlush's recycle-zeroing, routing
 * pass-through, port discipline panics, and memory/register
 * semantics. The differential tests at the end run randomized
 * instruction streams through this PE and the frozen reference PE
 * (tests/reference/) side by side and require identical state every
 * cycle.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/main_memory.hh"
#include "pe/pe.hh"
#include "reference/pe.hh"
#include "sim/simulator.hh"

namespace canon
{
namespace
{

namespace as = addrspace;

/**
 * Single-PE harness with channels on all four sides. The PE sits at
 * column @p col of a row pipeline, so it taps depth 3 * col.
 */
class PeHarness
{
  public:
    explicit PeHarness(int col = 0)
        : stats("t"), pe(PeGeometry{0, col}, 64, 8, stats), pipe(col + 1),
          north(8, "n"), south(8, "s"), east(8, "e"), west(8, "w")
    {
        pe.bindPipeline(&pipe);
        pe.router().bindIn(Dir::North, &north);
        pe.router().bindOut(Dir::South, &south);
        pe.router().bindIn(Dir::West, &west);
        pe.router().bindOut(Dir::East, &east);
        for (auto *ch : {&north, &south, &east, &west})
            commits.add(ch);
        sim.addTyped(&pipe);
        sim.addTyped(&pe);
        sim.addTyped(&commits);
    }

    void
    issue(const Instruction &i)
    {
        pipe.issue(i);
    }

    void step() { sim.step(); }

    void
    run(int cycles)
    {
        for (int i = 0; i < cycles; ++i)
            step();
    }

    StatGroup stats;
    Simulator sim;
    Pe pe;
    InstPipeline pipe;
    DataChannel north, south, east, west;
    FifoCommitList<Vec4> commits;
};

Instruction
inst(OpCode op, Addr a, Addr b, Addr r, std::uint8_t route = 0)
{
    Instruction i;
    i.op = op;
    i.op1 = a;
    i.op2 = b;
    i.res = r;
    i.route = route;
    return i;
}

TEST(PePipeline, VMovThreeStageLatency)
{
    PeHarness h;
    h.pe.dmem().poke(3, Vec4{{7, 8, 9, 10}});
    h.issue(inst(OpCode::VMov, as::dmem(3), as::kNullAddr, as::reg(0)));
    // Tap at cycle 1 (issue latch), LOAD 1, EXEC 2, COMMIT 3.
    h.run(3);
    EXPECT_TRUE(h.pe.reg(0).isZero());
    h.run(1);
    EXPECT_EQ(h.pe.reg(0), (Vec4{{7, 8, 9, 10}}));
}

TEST(PePipeline, BackToBackAccumulationForwards)
{
    // Three consecutive SvMacs into the same register must see each
    // other's results exactly (the dense inner loop).
    PeHarness h;
    h.pe.dmem().poke(0, Vec4{{1, 2, 3, 4}});
    h.west.push(Vec4{{2, 0, 0, 0}});
    h.west.push(Vec4{{3, 0, 0, 0}});
    h.west.push(Vec4{{5, 0, 0, 0}});
    h.west.commit();

    const auto mac = inst(OpCode::SvMac, as::portIn(Dir::West),
                          as::dmem(0), as::reg(1));
    h.issue(mac);
    h.step();
    h.issue(mac);
    h.step();
    h.issue(mac);
    h.run(5);
    // (2+3+5) * [1,2,3,4]
    EXPECT_EQ(h.pe.reg(1), (Vec4{{10, 20, 30, 40}}));
}

TEST(PePipeline, VFlushZeroesSourceAndSendsSouth)
{
    PeHarness h;
    h.pe.spad().poke(2, Vec4{{5, 6, 7, 8}});
    h.issue(inst(OpCode::VFlush, as::spad(2), as::kNullAddr,
                 as::portOut(Dir::South)));
    h.run(5);
    EXPECT_TRUE(h.pe.spad().peek(2).isZero());
    ASSERT_FALSE(h.south.empty());
    EXPECT_EQ(h.south.front(), (Vec4{{5, 6, 7, 8}}));
}

TEST(PePipeline, VFlushThenImmediateMacSeesZero)
{
    // The recycled-slot hazard: a MAC issued right after a flush of
    // the same slot must accumulate from zero, not the stale psum.
    PeHarness h;
    h.pe.spad().poke(0, Vec4{{100, 100, 100, 100}});
    h.pe.dmem().poke(0, Vec4{{1, 1, 1, 1}});
    h.west.push(Vec4{{4, 0, 0, 0}});
    h.west.commit();

    h.issue(inst(OpCode::VFlush, as::spad(0), as::kNullAddr,
                 as::portOut(Dir::South)));
    h.step();
    h.issue(inst(OpCode::SvMac, as::portIn(Dir::West), as::dmem(0),
                 as::spad(0)));
    h.run(5);
    EXPECT_EQ(h.pe.spad().peek(0), (Vec4{{4, 4, 4, 4}}));
}

TEST(PePipeline, RoutePassThroughNorthToSouth)
{
    PeHarness h;
    h.north.push(Vec4{{9, 9, 9, 9}});
    h.north.commit();
    h.issue(inst(OpCode::Nop, as::kNullAddr, as::kNullAddr,
                 as::kNullAddr, kRouteN2S));
    h.run(5);
    ASSERT_FALSE(h.south.empty());
    EXPECT_EQ(h.south.front(), (Vec4{{9, 9, 9, 9}}));
    EXPECT_TRUE(h.north.empty());
}

TEST(PePipeline, SharedPortPopFeedsOperandAndRoute)
{
    // SvMac consuming W_IN while also routing W->E: one physical pop.
    PeHarness h;
    h.pe.dmem().poke(0, Vec4{{1, 1, 1, 1}});
    h.west.push(Vec4{{6, 0, 0, 0}});
    h.west.commit();
    h.issue(inst(OpCode::SvMac, as::portIn(Dir::West), as::dmem(0),
                 as::reg(0), kRouteW2E));
    h.run(5);
    EXPECT_EQ(h.pe.reg(0), (Vec4{{6, 6, 6, 6}}));
    ASSERT_FALSE(h.east.empty());
    EXPECT_EQ(h.east.front()[0], 6);
    EXPECT_TRUE(h.west.empty());
}

TEST(PePipeline, VvMacWChainsWestPsum)
{
    PeHarness h;
    h.pe.spad().poke(0, Vec4{{1, 2, 3, 4}});
    h.pe.dmem().poke(0, Vec4{{2, 2, 2, 2}});
    h.west.push(Vec4{{10, 20, 30, 40}});
    h.west.commit();
    h.issue(inst(OpCode::VvMacW, as::spad(0), as::dmem(0),
                 as::portOut(Dir::East)));
    h.run(5);
    ASSERT_FALSE(h.east.empty());
    EXPECT_EQ(h.east.front(), (Vec4{{12, 24, 36, 48}}));
}

TEST(PePipeline, ReadingEmptyPortPanics)
{
    PeHarness h;
    h.issue(inst(OpCode::VMov, as::portIn(Dir::North), as::kNullAddr,
                 as::reg(0)));
    EXPECT_THROW(h.run(3), PanicError);
}

TEST(PePipeline, TwoSpadReadsPanics)
{
    PeHarness h;
    h.issue(inst(OpCode::VAdd, as::spad(0), as::spad(1), as::reg(0)));
    EXPECT_THROW(h.run(3), PanicError);
}

TEST(PePipeline, ZeroAddrReadsZero)
{
    PeHarness h;
    h.pe.pokeReg(2, Vec4{{5, 5, 5, 5}});
    h.issue(inst(OpCode::VAdd, as::kZeroAddr, as::reg(2), as::reg(3)));
    h.run(4);
    EXPECT_EQ(h.pe.reg(3), (Vec4{{5, 5, 5, 5}}));
}

TEST(PePipeline, NullDestinationDiscards)
{
    PeHarness h;
    h.pe.pokeReg(0, Vec4{{1, 1, 1, 1}});
    h.issue(
        inst(OpCode::VMov, as::reg(0), as::kNullAddr, as::kNullAddr));
    EXPECT_NO_THROW(h.run(4));
}

TEST(PePipeline, IdleWhenDrained)
{
    PeHarness h;
    EXPECT_TRUE(h.pe.idle());
    h.issue(inst(OpCode::VMov, as::kZeroAddr, as::kNullAddr,
                 as::reg(0)));
    h.run(2); // issue latch + LOAD
    EXPECT_FALSE(h.pe.idle());
    h.run(4);
    EXPECT_TRUE(h.pe.idle());
}

// ---------------------------------------------------------------------
// Differential tests against the frozen reference PE.
// ---------------------------------------------------------------------

/** The reference PE on the reference pipeline and channels. */
class RefHarness
{
  public:
    explicit RefHarness(int col)
        : stats("t"), pe(PeGeometry{0, col}, 64, 8, stats), pipe(col + 1),
          north(8, "n"), south(8, "s"), east(8, "e"), west(8, "w")
    {
        pe.bindPipeline(&pipe);
        pe.router().bindIn(Dir::North, &north);
        pe.router().bindOut(Dir::South, &south);
        pe.router().bindIn(Dir::West, &west);
        pe.router().bindOut(Dir::East, &east);
    }

    /** One two-phase cycle, in the order a Simulator would run it. */
    void
    step()
    {
        pipe.tickCompute();
        pe.tickCompute();
        pipe.tickCommit();
        pe.tickCommit();
        for (auto *ch : {&north, &south, &east, &west})
            ch->commit();
    }

    StatGroup stats;
    ref::Pe pe;
    ref::InstPipeline pipe;
    ref::DataChannel north, south, east, west;
};

/**
 * Both PEs driven with identical instructions, modes and channel
 * traffic. Every step compares the complete observable state; a panic
 * must hit both models in the same cycle with the same message.
 */
class Lockstep
{
  public:
    Lockstep(int col, std::uint64_t seed)
        : dut(col), ref(col), rng(seed), col_(col)
    {
        for (int s = 0; s < 64; ++s) {
            const Vec4 v = smallVec();
            dut.pe.dmem().poke(s, v);
            ref.pe.dmem().poke(s, v);
        }
        for (int s = 0; s < 8; ++s) {
            const Vec4 v = smallVec();
            dut.pe.spad().poke(s, v);
            ref.pe.spad().poke(s, v);
        }
        for (int r = 0; r < 16; ++r) {
            const Vec4 v = smallVec();
            dut.pe.pokeReg(r, v);
            ref.pe.pokeReg(r, v);
        }
    }

    Vec4
    smallVec()
    {
        Vec4 v;
        for (int i = 0; i < kSimdWidth; ++i)
            v[i] = static_cast<Word>(rng.nextRange(-4, 4));
        return v;
    }

    void
    issue(const Instruction &i)
    {
        dut.issue(i);
        ref.pipe.issue(i);
    }

    void
    setMode(PeMode m)
    {
        dut.pe.setMode(m);
        ref.pe.setMode(m);
    }

    void
    freeze(bool on)
    {
        dut.pipe.freeze(on);
        ref.pipe.freeze(on);
    }

    /** Stage one input vector on each input port with probability @p p. */
    void
    feed(double p)
    {
        if (rng.nextBool(p) && ref.north.canPush()) {
            const Vec4 v = smallVec();
            dut.north.push(v);
            ref.north.push(v);
        }
        if (rng.nextBool(p) && ref.west.canPush()) {
            const Vec4 v = smallVec();
            dut.west.push(v);
            ref.west.push(v);
        }
    }

    /** Consume each output port's head with probability @p p. */
    void
    drain(double p)
    {
        if (rng.nextBool(p) && !ref.south.empty()) {
            dut.south.pop();
            ref.south.pop();
        }
        if (rng.nextBool(p) && !ref.east.empty()) {
            dut.east.pop();
            ref.east.pop();
        }
    }

    /**
     * Advance both models one cycle and compare them. Returns false
     * once both have panicked (with the same message) and the run
     * must stop.
     */
    bool
    step()
    {
        const std::string dut_panic = panicOf([&] { dut.step(); });
        panic = panicOf([&] { ref.step(); });
        EXPECT_EQ(dut_panic, panic) << "cycle " << cycle;
        ++cycle;
        if (!panic.empty())
            return false;
        compare();
        return true;
    }

    void
    compare()
    {
        for (int r = 0; r < 16; ++r)
            ASSERT_EQ(dut.pe.reg(r), ref.pe.reg(r))
                << "R" << r << " cycle " << cycle;
        for (int s = 0; s < 64; ++s)
            ASSERT_EQ(dut.pe.dmem().peek(s), ref.pe.dmem().peek(s))
                << "DMEM[" << s << "] cycle " << cycle;
        for (int s = 0; s < 8; ++s)
            ASSERT_EQ(dut.pe.spad().peek(s), ref.pe.spad().peek(s))
                << "SPAD[" << s << "] cycle " << cycle;
        ASSERT_EQ(dut.stats.flatten(), ref.stats.flatten())
            << "counters, cycle " << cycle;
        ASSERT_EQ(dut.pe.idle(), ref.pe.idle()) << "cycle " << cycle;
        ASSERT_EQ(dut.pipe.drained(), ref.pipe.drained());
        ASSERT_EQ(dut.pipe.tap(col_).inst, ref.pipe.tap(col_));
        comparePort(dut.north, ref.north, "north");
        comparePort(dut.south, ref.south, "south");
        comparePort(dut.east, ref.east, "east");
        comparePort(dut.west, ref.west, "west");
    }

    PeHarness dut;
    RefHarness ref;
    Rng rng;
    int cycle = 0;
    std::string panic; //!< message of the panic that stopped the run

  private:
    static std::string
    panicOf(const std::function<void()> &op)
    {
        try {
            op();
        } catch (const PanicError &e) {
            return e.what();
        }
        return "";
    }

    void
    comparePort(const DataChannel &d, const ref::DataChannel &r,
                const char *name)
    {
        ASSERT_EQ(d.size(), r.size()) << name << " cycle " << cycle;
        ASSERT_EQ(d.canPush(), r.canPush()) << name;
        if (!r.empty()) {
            ASSERT_EQ(d.front(), r.front()) << name << " cycle " << cycle;
        }
    }

    int col_;
};

/**
 * Random *legal* instructions: at most one DMEM and one SPAD read per
 * instruction, one write per memory per COMMIT, one transfer per port
 * direction, and port reads only from the bound North/West inputs.
 * Values stay far from overflow: "input" locations only ever receive
 * copies of small values, and accumulating results go to "accumulator"
 * locations, ports or NULL.
 */
class StreamGen
{
  public:
    explicit StreamGen(Rng &rng) : rng_(rng) {}

    Addr
    input()
    {
        switch (rng_.nextBounded(6)) {
          case 0:
            return as::portIn(Dir::North);
          case 1:
            return as::portIn(Dir::West);
          case 2:
            return as::kZeroAddr;
          default:
            return localInput();
        }
    }

    Addr
    accumulator()
    {
        switch (rng_.nextBounded(3)) {
          case 0:
            return as::dmem(32 + static_cast<int>(rng_.nextBounded(32)));
          case 1:
            return as::spad(4 + static_cast<int>(rng_.nextBounded(4)));
          default:
            return as::reg(8 + static_cast<int>(rng_.nextBounded(8)));
        }
    }

    /** A local (writable) input location. */
    Addr
    localInput()
    {
        switch (rng_.nextBounded(3)) {
          case 0:
            return as::dmem(static_cast<int>(rng_.nextBounded(32)));
          case 1:
            return as::spad(static_cast<int>(rng_.nextBounded(4)));
          default:
            return as::reg(static_cast<int>(rng_.nextBounded(8)));
        }
    }

    /** Destination of a result that may be large. */
    Addr
    sink()
    {
        switch (rng_.nextBounded(5)) {
          case 0:
            return as::portOut(Dir::South);
          case 1:
            return as::portOut(Dir::East);
          case 2:
            return as::kNullAddr;
          default:
            return accumulator();
        }
    }

    std::uint8_t
    route()
    {
        static const std::uint8_t kRoutes[] = {0, 0, kRouteN2S, kRouteW2E,
                                               kRouteN2S | kRouteW2E};
        return kRoutes[rng_.nextBounded(5)];
    }

    Instruction
    mac(Addr res)
    {
        static const OpCode kMacs[] = {OpCode::SvMac, OpCode::VvMac};
        return inst(kMacs[rng_.nextBounded(2)], input(), input(), res,
                    route());
    }

    /** The first legal instruction @p draw produces. */
    template <typename Draw>
    Instruction
    redraw(Draw draw)
    {
        for (;;) {
            const Instruction i = draw();
            if (legal(i))
                return i;
        }
    }

    Instruction
    any()
    {
        return redraw([&] { return draw(); });
    }

    static bool
    legal(const Instruction &i)
    {
        auto count = [](AddrRegion want, std::initializer_list<Addr> as_) {
            int n = 0;
            for (Addr a : as_)
                n += as::region(a) == want;
            return n;
        };
        switch (i.op) {
          case OpCode::SvMac:
          case OpCode::VvMac:
            if (count(AddrRegion::Dmem, {i.op1, i.op2, i.res}) > 1 ||
                count(AddrRegion::Spad, {i.op1, i.op2, i.res}) > 1)
                return false;
            break;
          case OpCode::VvMacW:
          case OpCode::VAdd:
            if (count(AddrRegion::Dmem, {i.op1, i.op2}) > 1 ||
                count(AddrRegion::Spad, {i.op1, i.op2}) > 1)
                return false;
            break;
          case OpCode::VFlush:
            if (as::region(i.op1) == as::region(i.res) &&
                (as::region(i.res) == AddrRegion::Dmem ||
                 as::region(i.res) == AddrRegion::Spad))
                return false;
            break;
          default:
            break;
        }
        const bool writes = i.op != OpCode::Nop && i.op != OpCode::Hold;
        if (writes && (i.route & kRouteN2S) &&
            i.res == as::portOut(Dir::South))
            return false;
        if (writes && (i.route & kRouteW2E) &&
            i.res == as::portOut(Dir::East))
            return false;
        return true;
    }

  private:
    Instruction
    draw()
    {
        switch (rng_.nextBounded(10)) {
          case 0: // bubble, sometimes with live (ignored) fields
            return rng_.nextBool(0.5)
                       ? nopInst()
                       : inst(OpCode::Nop, input(), input(), sink());
          case 1: // pass-through routes only, or a held no-op
            return inst(rng_.nextBool(0.7) ? OpCode::Nop : OpCode::Hold,
                        input(), input(), sink(), route());
          case 2:
          case 3:
            return mac(accumulator());
          case 4:
            return inst(OpCode::VvMacW, input(), input(), sink(), route());
          case 5:
            return inst(OpCode::VAdd, input(), input(), sink(), route());
          case 6: // copy a small value anywhere
            return inst(OpCode::VMov, input(), as::kNullAddr,
                        rng_.nextBool(0.5) ? localInput() : sink(),
                        route());
          case 7: // move an accumulator on
            return inst(OpCode::VMov, accumulator(), as::kNullAddr,
                        sink(), route());
          default: { // flush a psum slot (or zero an input slot)
            const bool psum = rng_.nextBool(0.7);
            return inst(OpCode::VFlush,
                        psum ? accumulator() : localInput(),
                        as::kNullAddr, sink(), route());
          }
        }
    }

    Rng &rng_;
};

TEST(PeDifferential, StreamingMatchesReference)
{
    // Random legal streams in streaming mode, with back-to-back
    // accumulation runs into one location and VFlush recycling of the
    // flushed slot by the very next MAC -- the forwarding and
    // write-coalescing cases the dense and SpMM kernels rely on.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Lockstep ls(static_cast<int>(seed % 3), seed);
        StreamGen gen(ls.rng);
        std::vector<Instruction> pending;
        for (int i = 0; i < 8; ++i)
            ls.feed(1.0), ls.dut.step(), ls.ref.step();
        for (int cycle = 0; cycle < 3000; ++cycle) {
            if (pending.empty()) {
                if (ls.rng.nextBool(0.2)) {
                    // An accumulation run, then maybe a flush whose
                    // slot the next run reuses immediately.
                    const Addr acc = gen.accumulator();
                    auto mac = [&] { return gen.mac(acc); };
                    const auto len = 2 + ls.rng.nextBounded(5);
                    for (std::uint64_t k = 0; k < len; ++k)
                        pending.push_back(gen.redraw(mac));
                    if (ls.rng.nextBool(0.6)) {
                        pending.push_back(gen.redraw([&] {
                            return inst(OpCode::VFlush, acc,
                                        as::kNullAddr, gen.sink(),
                                        gen.route());
                        }));
                        pending.push_back(gen.redraw(mac));
                    }
                } else {
                    pending.push_back(gen.any());
                }
            }
            ls.issue(pending.front());
            pending.erase(pending.begin());
            ls.feed(1.0);
            ls.drain(1.0);
            ASSERT_TRUE(ls.step()) << "seed " << seed;
            if (::testing::Test::HasFatalFailure())
                return;
        }
        // Both pipelines drain to idle together.
        for (int i = 0; i < 12; ++i)
            ASSERT_TRUE(ls.step());
        EXPECT_TRUE(ls.dut.pe.idle());
        EXPECT_GT(ls.dut.stats.sumCounter("macOps"), 0u);
    }
}

TEST(PeDifferential, ConfigAndSpatialMatchReference)
{
    // Streaming traffic, then a configuration phase (taps pass
    // through inert while in-flight work drains), then a frozen
    // spatial phase with random port traffic so the firing rule
    // toggles between ready and stalled.
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Lockstep ls(static_cast<int>(seed % 3), 100 + seed);
        StreamGen gen(ls.rng);
        for (int i = 0; i < 8; ++i)
            ls.feed(1.0), ls.dut.step(), ls.ref.step();
        bool alive = true;
        for (int cycle = 0; alive && cycle < 200; ++cycle) {
            ls.issue(gen.any());
            ls.feed(1.0);
            ls.drain(1.0);
            alive = ls.step();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        ASSERT_TRUE(alive) << "seed " << seed;

        const Instruction held = gen.any();
        ls.setMode(PeMode::Config);
        for (int cycle = 0; cycle < 3 * 2 + 4; ++cycle) {
            ls.issue(held);
            ls.feed(1.0);
            ls.drain(1.0);
            ASSERT_TRUE(ls.step()) << "seed " << seed;
        }
        ls.freeze(true);
        ls.setMode(PeMode::Spatial);
        for (int cycle = 0; alive && cycle < 1000; ++cycle) {
            // Free-running, then input starvation, then output
            // backpressure.
            ls.feed(cycle >= 100 && cycle < 200 ? 0.1 : 0.7);
            ls.drain(cycle >= 200 ? 0.35 : 0.9);
            alive = ls.step();
            if (::testing::Test::HasFatalFailure())
                return;
            // The firing rule checks output space at LOAD but does not
            // count the pushes of the instruction already in flight,
            // so sustained backpressure can overflow the output
            // channel. Both models must then panic alike; before the
            // backpressure phase, no run may panic.
            ASSERT_TRUE(alive || cycle >= 200)
                << "seed " << seed << ": " << ls.panic;
        }
    }
}

TEST(PeDifferential, IllegalStreamsPanicAlike)
{
    // Every structural violation panics in the same cycle with the
    // same message as the reference model.
    struct Case
    {
        Instruction inst;
        const char *message;
    };
    const Case cases[] = {
        {inst(OpCode::VAdd, as::dmem(0), as::dmem(1), as::reg(0)),
         "two data-memory reads in one instruction"},
        {inst(OpCode::VvMac, as::spad(0), as::reg(1), as::spad(1)),
         "two scratchpad reads in one instruction"},
        {inst(OpCode::VFlush, as::dmem(2), as::kNullAddr, as::dmem(3)),
         "two data-memory writes in one instruction window"},
        {inst(OpCode::VFlush, as::spad(2), as::kNullAddr, as::spad(3)),
         "two scratchpad writes in one instruction window"},
        {inst(OpCode::VMov, as::kNullAddr, as::kNullAddr, as::reg(0)),
         "illegal operand address NULL"},
        {inst(OpCode::VAdd, as::portOut(Dir::East), as::reg(0),
              as::reg(1)),
         "illegal operand address E_OUT"},
        {inst(OpCode::VMov, as::reg(0), as::kNullAddr,
              as::portIn(Dir::North)),
         "illegal destination address N_IN"},
        {inst(OpCode::VMov, as::reg(0), as::kNullAddr, as::kZeroAddr),
         "illegal destination address ZERO"},
        {inst(OpCode::VMov, as::reg(0), as::kNullAddr,
              static_cast<Addr>(0x0700)),
         "illegal destination address INVALID"},
        {inst(OpCode::VMov, as::reg(0), as::kNullAddr,
              as::portOut(Dir::South), kRouteN2S),
         "second S_OUT transfer in one cycle"},
        {inst(OpCode::VMov, as::portIn(Dir::East), as::kNullAddr,
              as::reg(0)),
         "no channel bound at E_IN"},
        {inst(OpCode::VMov, as::portIn(Dir::North), as::kNullAddr,
              as::reg(0)),
         "front() on empty"},
        {inst(OpCode::NumOpCodes, as::reg(0), as::reg(1), as::reg(2)),
         "corrupt opcode at LOAD"},
    };
    for (const Case &c : cases) {
        Lockstep ls(1, 7);
        if (c.inst.route != 0)
            ls.feed(1.0), ls.dut.step(), ls.ref.step();
        ls.issue(c.inst);
        for (int cycle = 0; cycle < 12 && ls.step(); ++cycle) {
        }
        const std::string &message = ls.panic;
        EXPECT_NE(message.find(c.message), std::string::npos)
            << "got: " << message;
    }
}

TEST(VecRam, BoundsAndStats)
{
    StatGroup stats("t");
    VecRam ram("dmem", 8, 1, stats);
    EXPECT_EQ(ram.sizeBytes(), 32u);
    ram.write(3, Vec4{{1, 2, 3, 4}});
    EXPECT_EQ(ram.read(3), (Vec4{{1, 2, 3, 4}}));
    EXPECT_THROW(ram.read(8), PanicError);
    EXPECT_THROW(ram.write(-1, Vec4{}), PanicError);
    EXPECT_EQ(stats.sumCounter("dmemReads"), 1u);
    EXPECT_EQ(stats.sumCounter("dmemWrites"), 1u);
}

TEST(TrafficModel, BandwidthArithmetic)
{
    TrafficModel t;
    t.addRead(1'000'000'000); // 1 GB over 1e9 cycles @1GHz = 1 GB/s
    EXPECT_NEAR(t.requiredBandwidthGBps(1'000'000'000), 1.0, 1e-9);
    const auto dev = lpddr5x16();
    EXPECT_NEAR(static_cast<double>(t.transferCycles(dev)),
                1e9 / 17.0, 1e5);
}

} // namespace
} // namespace canon
