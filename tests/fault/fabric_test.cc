/** @file Fault-injection tests at the network level: re-routing
 *  around failed links, drop accounting for unreachable and dead
 *  destinations, scheduled fault plans, repair, and the inject()
 *  argument validation. */

#include <gtest/gtest.h>

#include "fault/degraded.hh"
#include "fault/injector.hh"
#include "sim/random.hh"
#include "sim/telemetry.hh"
#include "topology/torus.hh"
#include "topology/tree.hh"

namespace
{

using namespace gs;
using namespace gs::fault;
using net::MsgClass;
using net::Packet;

struct FaultFixture
{
    explicit FaultFixture(int w = 4, int h = 4)
        : base(w, h), deg(base),
          net(ctx, deg, net::NetworkParams::gs1280()),
          inj(ctx, net, deg)
    {
    }

    SimContext ctx;
    topo::Torus2D base;
    DegradedTopology deg;
    net::Network net;
    FaultInjector inj;
};

Packet
makePacket(NodeId src, NodeId dst, MsgClass cls = MsgClass::Request,
           int flits = net::headerFlits)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.cls = cls;
    p.flits = flits;
    return p;
}

TEST(FaultInjection, ReroutesAroundFailedLink)
{
    FaultFixture f;
    int got = 0, hops = 0;
    f.net.setHandler(1, [&](const Packet &p) {
        got += 1;
        hops = p.hops;
    });

    f.inj.failLink(0, topo::portEast); // the 0 -> 1 direct link
    f.net.inject(makePacket(0, 1));
    f.ctx.queue().runUntil();

    EXPECT_EQ(got, 1);
    EXPECT_GT(hops, 1) << "packet should detour around the cut link";
    EXPECT_EQ(f.net.stats().droppedPackets, 0u);
    EXPECT_EQ(f.net.inFlight(), 0);
}

TEST(FaultInjection, SaturatingTrafficDrainsOnDegradedTorus)
{
    FaultFixture f;
    f.inj.failLink(0, topo::portEast);
    f.inj.failLink(5, topo::portNorth);
    f.inj.failLink(10, topo::portWest);
    ASSERT_TRUE(f.deg.connected());

    Rng rng(42);
    int got = 0, sent = 0;
    for (NodeId n = 0; n < 16; ++n)
        f.net.setHandler(n, [&](const Packet &) { got += 1; });
    for (int burst = 0; burst < 40; ++burst) {
        for (NodeId src = 0; src < 16; ++src) {
            auto dst = static_cast<NodeId>(rng.below(16));
            if (dst == src)
                continue;
            f.net.inject(makePacket(src, dst, MsgClass::BlockResponse,
                                    net::dataFlits));
            sent += 1;
        }
    }
    f.ctx.queue().runUntil(100 * tickMs);

    EXPECT_EQ(got, sent) << "degraded fabric failed to drain";
    EXPECT_EQ(f.net.inFlight(), 0);
    EXPECT_EQ(f.net.stats().droppedPackets, 0u);
}

/**
 * Route memo invalidation. On an 8x4 torus, node 0's traffic to
 * node 2 has one minimal route, east through node 1, where it
 * competes with node 1's own traffic to node 2 for the 1 -> 2 link.
 * Node 1's input buffers back up, so router 0's injection head is
 * blocked on the credits of the 0 -> 1 link when that link fails.
 * The head's memoized route names the dead port; the failure must
 * discard it so the head reroutes over the surviving detour.
 * Nothing may be granted onto the dead link afterwards, and every
 * packet must arrive.
 */
TEST(FaultInjection, BlockedHeadReroutesWhenItsMemoizedLinkFails)
{
    FaultFixture f(8, 4);
    int got = 0, detoured = 0;
    f.net.setHandler(2, [&](const Packet &p) {
        got += 1;
        detoured += p.src == 0 && p.hops > 2 ? 1 : 0;
    });
    telem::Registry reg;
    f.net.router(0).registerTelemetry(
        reg, "r0", [](int p) { return std::to_string(p); });
    const std::string stalls = "r0.inj.blk.stalls";

    const int perSource = 100;
    for (int i = 0; i < perSource; ++i) {
        for (NodeId src : {0, 1})
            f.net.inject(makePacket(src, 2, MsgClass::BlockResponse,
                                    net::dataFlits));
    }
    // Run until router 0's head has sat on exhausted credits for a
    // few ticks, with most of its burst still queued behind it.
    while (reg.value(stalls) < 3 && f.ctx.now() < tickUs)
        f.ctx.queue().runFor(f.net.period());
    ASSERT_GE(reg.value(stalls), 3) << "head never blocked on credits";
    ASSERT_GT(f.net.router(0).injQueueDepth(MsgClass::BlockResponse),
              static_cast<std::size_t>(perSource / 2));

    f.inj.failLink(0, topo::portEast);
    const std::uint64_t deadFlits =
        f.net.linkBusyFlits(0, topo::portEast);
    f.ctx.queue().runUntil(100 * tickMs);

    EXPECT_EQ(f.net.linkBusyFlits(0, topo::portEast), deadFlits)
        << "granted onto the failed link";
    EXPECT_EQ(got, 2 * perSource);
    EXPECT_GT(detoured, 0);
    EXPECT_EQ(f.net.inFlight(), 0);
    EXPECT_EQ(f.net.stats().droppedPackets, 0u);
}

TEST(FaultInjection, ScheduledPlanAppliesAtItsTime)
{
    FaultFixture f;
    Tick cutAt = 2 * tickUs;
    FaultPlan plan;
    plan.linkDown(cutAt, 0, topo::portEast);
    f.inj.schedule(plan);

    f.net.setHandler(1, [](const Packet &) {});
    f.net.inject(makePacket(0, 1));
    f.ctx.queue().runUntil(tickUs);
    EXPECT_FALSE(f.deg.degraded()) << "fault applied early";
    EXPECT_EQ(f.net.stats().hopsPerPacket.mean(), 1.0);

    f.ctx.queue().runUntil(3 * tickUs);
    EXPECT_TRUE(f.deg.linkFailed(0, topo::portEast));
    EXPECT_EQ(f.inj.stats().linkFailures, 1);

    f.net.inject(makePacket(0, 1));
    f.ctx.queue().runUntil();
    EXPECT_GT(f.net.stats().hopsPerPacket.mean(), 1.0);
}

TEST(FaultInjection, UnroutableDestinationDropsAndAccounts)
{
    // GS320 tree: cutting QBB 0's uplink makes the other QBB
    // unreachable; packets already heading there must be dropped
    // (waiting can't help), and the fabric must still drain.
    SimContext ctx;
    topo::QbbTree base(8, 4);
    DegradedTopology deg(base);
    net::Network net(ctx, deg, net::NetworkParams::gs320());
    FaultInjector inj(ctx, net, deg);

    int got = 0;
    for (NodeId n = 0; n < 8; ++n)
        net.setHandler(n, [&](const Packet &) { got += 1; });

    inj.failLink(8, 4); // QBB 0's uplink to the global switch
    for (int i = 0; i < 10; ++i) {
        net.inject(makePacket(0, 4)); // cross-QBB: unreachable
        net.inject(makePacket(0, 3)); // intra-QBB: fine
    }
    ctx.queue().runUntil(10 * tickMs);

    EXPECT_EQ(got, 10);
    EXPECT_EQ(net.inFlight(), 0);
    EXPECT_EQ(net.stats().droppedPackets, 10u);
    EXPECT_EQ(inj.stats().dropsUnroutable, 10u);
    EXPECT_EQ(inj.stats().packetsDropped, 10u);
}

TEST(FaultInjection, DeadNodeDropsTrafficAndFlushesBuffers)
{
    FaultFixture f;
    int got = 0;
    for (NodeId n = 0; n < 16; ++n)
        f.net.setHandler(n, [&](const Packet &) { got += 1; });

    // Load up traffic through and toward node 5, then kill it.
    Rng rng(7);
    int toDead = 0, sent = 0;
    for (int i = 0; i < 200; ++i) {
        auto src = static_cast<NodeId>(rng.below(16));
        auto dst = static_cast<NodeId>(rng.below(16));
        if (src == dst)
            continue;
        f.net.inject(makePacket(src, dst, MsgClass::BlockResponse,
                                net::dataFlits));
        sent += 1;
        if (dst == 5)
            toDead += 1;
    }
    f.ctx.queue().runFor(5 * f.net.period()); // a few cycles in
    f.inj.failNode(5);
    f.ctx.queue().runUntil(100 * tickMs);

    EXPECT_EQ(f.net.inFlight(), 0) << "fabric did not drain";
    EXPECT_EQ(got + static_cast<int>(f.net.stats().droppedPackets),
              sent);
    EXPECT_GT(f.net.stats().droppedPackets, 0u);
    EXPECT_EQ(f.inj.stats().nodeFailures, 1);

    // New traffic from or to the dead node is refused at injection.
    std::uint64_t before = f.net.stats().droppedPackets;
    f.net.inject(makePacket(5, 0));
    f.net.inject(makePacket(0, 5));
    f.ctx.queue().runUntil(200 * tickMs);
    EXPECT_EQ(f.net.stats().droppedPackets, before + 2);
    EXPECT_EQ(f.net.inFlight(), 0);
}

TEST(FaultInjection, RepairRestoresDeliveryAndCredits)
{
    FaultFixture f;
    int got = 0;
    for (NodeId n = 0; n < 16; ++n)
        f.net.setHandler(n, [&](const Packet &) { got += 1; });

    f.inj.failLink(0, topo::portEast);
    f.net.inject(makePacket(0, 1));
    f.ctx.queue().runUntil();
    EXPECT_EQ(got, 1);

    f.inj.repairLink(0, topo::portEast);
    EXPECT_FALSE(f.deg.degraded());

    // Saturate across the repaired link; a credit-accounting bug
    // here would wedge or underflow.
    int sent = 0;
    for (int i = 0; i < 100; ++i) {
        f.net.inject(makePacket(0, 1, MsgClass::BlockResponse,
                                net::dataFlits));
        f.net.inject(makePacket(1, 0, MsgClass::BlockResponse,
                                net::dataFlits));
        sent += 2;
    }
    f.ctx.queue().runUntil(100 * tickMs);
    EXPECT_EQ(got, 1 + sent);
    EXPECT_EQ(f.net.inFlight(), 0);
}

TEST(FaultInjection, NodeRepairRevivesIt)
{
    FaultFixture f;
    int got = 0;
    for (NodeId n = 0; n < 16; ++n)
        f.net.setHandler(n, [&](const Packet &) { got += 1; });

    f.inj.failNode(5);
    f.inj.repairNode(5);
    EXPECT_FALSE(f.deg.degraded());

    f.net.inject(makePacket(0, 5));
    f.net.inject(makePacket(5, 0));
    f.ctx.queue().runUntil();
    EXPECT_EQ(got, 2);
    EXPECT_EQ(f.inj.stats().repairs, 1);
}

using FaultInjectionDeath = ::testing::Test;

TEST(FaultInjectionDeath, InjectValidatesArguments)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // gs_fatal exits with code 1 on malformed packets.
    EXPECT_EXIT(
        {
            FaultFixture f;
            f.net.inject(makePacket(0, 99));
        },
        ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(
        {
            FaultFixture f;
            f.net.inject(makePacket(-3, 1));
        },
        ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(
        {
            FaultFixture f;
            Packet p = makePacket(0, 1);
            p.flits = 0;
            f.net.inject(p);
        },
        ::testing::ExitedWithCode(1), "non-positive");
}

TEST(FaultInjectionDeath, FaultEventsValidateArguments)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Naming hardware that doesn't exist is a plan error, not an
    // internal assertion.
    EXPECT_EXIT(
        {
            FaultFixture f;
            f.inj.failNode(99);
        },
        ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(
        {
            FaultFixture f;
            f.inj.failLink(0, 7);
        },
        ::testing::ExitedWithCode(1), "port 7 out of range");
}

} // namespace
