/**
 * @file
 * Simulation-kernel tests: two-phase latch/channel semantics, the
 * watchdog, the staggered instruction pipeline (the 3-cycle offset of
 * Figure 2/3), and message-channel timing alignment. The ring channel
 * and the ring pipeline are also checked step by step against their
 * frozen reference models (tests/reference/).
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "noc/inst_pipeline.hh"
#include "orch/msg_channel.hh"
#include "sim/latch.hh"
#include "sim/schedule.hh"
#include "sim/simulator.hh"
#include "reference/channel_fifo.hh"
#include "reference/inst_pipeline.hh"

namespace canon
{
namespace
{

TEST(Latch, StagedVisibility)
{
    Latch<int> l(1);
    EXPECT_EQ(l.get(), 1);
    l.set(2);
    EXPECT_EQ(l.get(), 1); // not yet visible
    l.commit();
    EXPECT_EQ(l.get(), 2);
    l.commit(); // idempotent without a pending set
    EXPECT_EQ(l.get(), 2);
}

TEST(ChannelFifo, PushPopOrdering)
{
    ChannelFifo<int> ch(4, "t");
    ch.push(1);
    ch.push(2);
    EXPECT_TRUE(ch.empty()); // staged, not visible
    ch.commit();
    EXPECT_EQ(ch.size(), 2u);
    EXPECT_EQ(ch.front(), 1);
    ch.pop();
    EXPECT_EQ(ch.front(), 1); // pop applies at commit
    ch.commit();
    EXPECT_EQ(ch.front(), 2);
}

TEST(ChannelFifo, OverflowPanics)
{
    ChannelFifo<int> ch(2, "t");
    ch.push(1);
    ch.push(2);
    EXPECT_FALSE(ch.canPush());
    EXPECT_THROW(ch.push(3), PanicError);
}

TEST(ChannelFifo, PopEmptyPanics)
{
    ChannelFifo<int> ch(2, "t");
    EXPECT_THROW(ch.pop(), PanicError);
    EXPECT_THROW(ch.front(), PanicError);
}

TEST(ChannelFifo, DoublePopPanics)
{
    ChannelFifo<int> ch(2, "t");
    ch.push(1);
    ch.commit();
    ch.pop();
    EXPECT_THROW(ch.pop(), PanicError);
}

TEST(ChannelFifo, StagedPushCountsAgainstCapacity)
{
    ChannelFifo<int> ch(2, "t");
    ch.push(1);
    ch.commit();
    ch.pop();     // frees space only next cycle
    ch.push(2);   // 1 resident + 1 staged = at capacity
    EXPECT_FALSE(ch.canPush());
}

namespace
{

class TickCounter : public Clocked
{
  public:
    int computes = 0;
    int commits = 0;
    void tickCompute() override { ++computes; }
    void tickCommit() override { ++commits; }
};

} // namespace

/** Message of the panic @p op raises, or "" when it returns. */
template <typename Op>
std::string
panicMessage(Op op)
{
    try {
        op();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(ChannelFifo, RingMatchesDequeReference)
{
    // Random push / pop / commit / clear traffic against the frozen
    // deque-backed channel, including illegal pushes and pops (both
    // must panic with the same message and keep their state). Every
    // pushed value is unique, so a ring that loses, duplicates or
    // reorders an entry shows up at front().
    for (std::size_t cap = 1; cap <= 16; ++cap) {
        Rng rng(1000 + cap);
        ChannelFifo<int> ring(cap, "t");
        ref::ChannelFifo<int> deq(cap, "t");
        int next_value = 0;
        std::size_t popped = 0;
        for (int cycle = 0; cycle < 3000; ++cycle) {
            const auto pushes = rng.nextBounded(cap + 2);
            for (std::uint64_t i = 0; i < pushes; ++i) {
                const int v = next_value++;
                ASSERT_EQ(panicMessage([&] { deq.push(v); }),
                          panicMessage([&] { ring.push(v); }))
                    << "cap " << cap << " cycle " << cycle;
            }
            const auto pops = rng.nextBounded(3);
            for (std::uint64_t i = 0; i < pops; ++i) {
                const std::string msg =
                    panicMessage([&] { deq.pop(); });
                ASSERT_EQ(msg, panicMessage([&] { ring.pop(); }))
                    << "cap " << cap << " cycle " << cycle;
                if (msg.empty())
                    ++popped;
            }
            ASSERT_EQ(ring.canPush(), deq.canPush());
            if (rng.nextBounded(200) == 0) {
                ring.clear();
                deq.clear();
            } else {
                ring.commit();
                deq.commit();
            }
            ASSERT_EQ(ring.size(), deq.size()) << "cap " << cap;
            ASSERT_EQ(ring.empty(), deq.empty());
            ASSERT_EQ(ring.canPush(), deq.canPush());
            ASSERT_EQ(ring.capacity(), cap);
            if (!deq.empty()) {
                ASSERT_EQ(ring.front(), deq.front())
                    << "cap " << cap << " cycle " << cycle;
            } else {
                ASSERT_EQ(panicMessage([&] { (void)deq.front(); }),
                          panicMessage([&] { (void)ring.front(); }));
            }
        }
        // Enough traffic to wrap the ring many times over.
        EXPECT_GT(popped, 50 * cap) << "cap " << cap;
    }
}

TEST(InstPipeline, RingMatchesShiftArrayReference)
{
    // Random issue and freeze traffic against the frozen shift-array
    // pipeline: every tap, its lowering, and drained() must agree
    // every cycle. Words with op == Nop but live fields test the
    // word-for-word drained() rule.
    namespace as = addrspace;
    const Addr addrs[] = {as::dmem(5),       as::spad(3),
                          as::reg(7),        as::portIn(Dir::West),
                          as::portOut(Dir::South), as::kZeroAddr,
                          as::kNullAddr,     static_cast<Addr>(0x0700)};
    for (int cols = 1; cols <= 6; ++cols) {
        Rng rng(77 + static_cast<std::uint64_t>(cols));
        InstPipeline ring(cols);
        ref::InstPipeline shift(cols);
        for (int cycle = 0; cycle < 2000; ++cycle) {
            if (rng.nextBool(0.6)) {
                Instruction i;
                if (rng.nextBool(0.7))
                    i.op = static_cast<OpCode>(rng.nextBounded(
                        static_cast<std::uint64_t>(OpCode::NumOpCodes)));
                if (rng.nextBool(0.5)) {
                    i.op1 = addrs[rng.nextBounded(8)];
                    i.op2 = addrs[rng.nextBounded(8)];
                    i.res = addrs[rng.nextBounded(8)];
                }
                if (rng.nextBool(0.3))
                    i.route = static_cast<std::uint8_t>(
                        rng.nextBounded(16));
                ring.issue(i);
                shift.issue(i);
            }
            if (rng.nextBounded(50) == 0) {
                const bool on = !shift.frozen();
                ring.freeze(on);
                shift.freeze(on);
            }
            ring.tickCommit();
            shift.tickCommit();
            ASSERT_EQ(ring.drained(), shift.drained())
                << "cols " << cols << " cycle " << cycle;
            for (int c = 0; c < cols; ++c) {
                const MicroOp &uop = ring.tap(c);
                const Instruction &want = shift.tap(c);
                ASSERT_EQ(uop.inst, want)
                    << "cols " << cols << " cycle " << cycle << " col "
                    << c;
                ASSERT_EQ(uop.nop, want.isNop());
                for (const auto &[o, a] :
                     {std::pair{uop.op1, want.op1},
                      std::pair{uop.op2, want.op2},
                      std::pair{uop.res, want.res}}) {
                    ASSERT_EQ(o.addr, a);
                    ASSERT_EQ(o.region, as::region(a));
                    ASSERT_EQ(o.offset, as::offset(a));
                }
            }
        }
    }
}

TEST(Simulator, PhasesAndCycleCount)
{
    Simulator sim;
    TickCounter a, b;
    sim.addTyped(&a);
    sim.addTyped(&b);
    sim.runFor(5);
    EXPECT_EQ(sim.now(), 5u);
    EXPECT_EQ(a.computes, 5);
    EXPECT_EQ(b.commits, 5);
}

TEST(Simulator, WatchdogPanics)
{
    Simulator sim;
    EXPECT_THROW(sim.run([] { return false; }, 100), PanicError);
}

TEST(Simulator, RunUntilPredicate)
{
    Simulator sim;
    const auto n = sim.run([&] { return sim.now() >= 7; });
    EXPECT_EQ(n, 7u);
}

TEST(TickSchedule, TypedComponentsShareOnePartition)
{
    TickSchedule sched;
    MsgChannel a("a"), b("b");
    sched.add(&a);
    sched.add(&b);
    EXPECT_EQ(sched.partitionCount(), 1u);
    TickCounter v;
    sched.add(&v);
    EXPECT_EQ(sched.partitionCount(), 2u);
}

TEST(TickSchedule, DeadPhaseElision)
{
    // FifoCommitList declares kHasTickCompute = false: ticking the
    // schedule's compute pass must leave its channels untouched, and
    // the commit pass must publish them.
    TickSchedule sched;
    ChannelFifo<int> ch(4, "t");
    FifoCommitList<int> commits;
    commits.add(&ch);
    sched.add(&commits);
    ch.push(7);
    sched.tickCompute();
    EXPECT_TRUE(ch.empty()); // compute pass skipped the dead phase
    sched.tickCommit();
    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(ch.front(), 7);
}

TEST(InstPipeline, StaggerIsThreeCyclesPerColumn)
{
    // "issued to the first PE in cycle 1, then traverses a 3-cycle
    // pipeline before reaching the second PE in cycle 4."
    InstPipeline pipe(4);
    Instruction marker;
    marker.op = OpCode::VMov;
    marker.op1 = addrspace::dmem(9);

    pipe.issue(marker);
    pipe.tickCommit();
    // Cycle 1: column 0 sees it.
    EXPECT_EQ(pipe.tap(0).inst, marker);
    EXPECT_TRUE(pipe.tap(1).nop);

    for (int c = 1; c < 4; ++c) {
        for (int i = 0; i < kIssueStagger; ++i)
            pipe.tickCommit();
        EXPECT_EQ(pipe.tap(c).inst, marker) << "column " << c;
        if (c + 1 < 4) {
            EXPECT_TRUE(pipe.tap(c + 1).nop);
        }
    }
}

TEST(InstPipeline, DrainsToNops)
{
    InstPipeline pipe(3);
    Instruction i;
    i.op = OpCode::VAdd;
    pipe.issue(i);
    pipe.tickCommit();
    EXPECT_FALSE(pipe.drained());
    for (int t = 0; t < kIssueStagger * 2 + 1; ++t)
        pipe.tickCommit();
    EXPECT_TRUE(pipe.drained());
}

TEST(InstPipeline, FreezeHoldsTaps)
{
    InstPipeline pipe(2);
    Instruction i;
    i.op = OpCode::SvMac;
    pipe.issue(i);
    pipe.tickCommit();
    pipe.freeze(true);
    for (int t = 0; t < 10; ++t)
        pipe.tickCommit();
    EXPECT_EQ(pipe.tap(0).inst, i); // held in place
}

TEST(InstPipeline, DoubleIssuePanics)
{
    InstPipeline pipe(2);
    pipe.issue(nopInst());
    EXPECT_THROW(pipe.issue(nopInst()), PanicError);
}

TEST(MsgChannel, FixedDeliveryLatency)
{
    // A message pushed at cycle t is consumable at t + stagger + 1:
    // aligned with the flushed vector reaching the neighbour's north
    // port.
    MsgChannel ch;
    ch.push({kMsgPsum, 42});
    int latency = 0;
    while (ch.empty()) {
        ch.tickCommit();
        ++latency;
        ASSERT_LE(latency, 10);
    }
    EXPECT_EQ(latency, kIssueStagger + 1);
    EXPECT_EQ(ch.front().value, 42);
}

TEST(MsgChannel, WindowLimitsOutstanding)
{
    MsgChannel ch;
    for (std::size_t i = 0; i < kMsgWindow; ++i) {
        ASSERT_TRUE(ch.canPush()) << i;
        ch.push({kMsgPsum, static_cast<std::uint16_t>(i)});
        ch.tickCommit();
    }
    EXPECT_FALSE(ch.canPush());
    // Consuming reopens the window.
    while (ch.empty())
        ch.tickCommit();
    ch.pop();
    ch.tickCommit();
    EXPECT_TRUE(ch.canPush());
}

TEST(MsgChannel, OrderPreserved)
{
    MsgChannel ch;
    ch.push({kMsgPsum, 1});
    ch.tickCommit();
    ch.push({kMsgPsum, 2});
    for (int i = 0; i < 8; ++i)
        ch.tickCommit();
    ASSERT_FALSE(ch.empty());
    EXPECT_EQ(ch.front().value, 1);
    ch.pop();
    ch.tickCommit();
    EXPECT_EQ(ch.front().value, 2);
}

} // namespace
} // namespace canon
