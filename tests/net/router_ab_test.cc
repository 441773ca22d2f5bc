/**
 * @file
 * A/B equivalence: the production router (net::Router, its state in
 * per-router hot blocks and its queues threaded through the packet
 * pool) against the frozen original implementation
 * (tests/net/legacy_router.hh).
 *
 * The contract is bit-identity: no layout change may alter a single
 * arbitration decision, delivery tick or telemetry counter.
 * These tests replay identical randomized inject programs — source,
 * destination, class, length and injection tick all drawn from one
 * seeded Rng — on both fabrics across several torus shapes, and
 * assert the full delivery traces and every observable counter match
 * element for element. 3-D shapes cover 6-port routers, size-2 rings
 * and hop-dependent route memos. Modeled on
 * tests/sim/event_queue_ab_test.cc.
 */

#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "legacy_router.hh"
#include "net/network.hh"
#include "sim/random.hh"
#include "topology/torus.hh"
#include "topology/torus3d.hh"

namespace
{

using namespace gs;
using namespace gs::net;

/** One delivery observation, in arrival order at one fabric. */
struct Delivery
{
    Tick when;
    NodeId node;
    std::uint64_t id;
    int hops;
    int flits;

    bool
    operator==(const Delivery &o) const
    {
        return when == o.when && node == o.node && id == o.id &&
               hops == o.hops && flits == o.flits;
    }
};

/** One randomized inject op. */
struct Op
{
    Tick at;
    NodeId src;
    NodeId dst;
    MsgClass cls;
    int flits;
};

/**
 * The randomized program for (seed, shape): ~packets ops with
 * clustered injection times so the fabric sees both bursts (deep
 * arbitration, credit stalls) and quiet drains (tick-chain restarts).
 */
std::vector<Op>
makeProgram(std::uint64_t seed, int n, int packets)
{
    Rng rng(seed);
    std::vector<Op> ops;
    ops.reserve(static_cast<std::size_t>(packets));
    Tick t = 0;
    for (int i = 0; i < packets; ++i) {
        // Mostly tight bursts; occasionally a long gap that lets the
        // fabric drain completely and the tick chain die.
        t += rng.below(100) < 90 ? rng.below(3) * tickUs / 1000
                                 : tickUs * (1 + rng.below(3));
        Op op;
        op.at = t + 1; // never at tick 0 (contexts start there)
        op.src = static_cast<NodeId>(rng.below(
            static_cast<std::uint64_t>(n)));
        op.dst = static_cast<NodeId>(rng.below(
            static_cast<std::uint64_t>(n)));
        op.cls = static_cast<MsgClass>(rng.below(numClasses));
        op.flits = op.cls == MsgClass::BlockResponse ? dataFlits
                                                     : headerFlits;
        ops.push_back(op);
    }
    return ops;
}

/** Drive one fabric type through @p ops; record the delivery trace. */
template <typename Net>
std::vector<Delivery>
replay(Net &net, SimContext &ctx, const std::vector<Op> &ops,
       int nodes)
{
    std::vector<Delivery> trace;
    for (NodeId node = 0; node < nodes; ++node) {
        net.setHandler(node, [&trace, &ctx, node](const Packet &p) {
            trace.push_back(
                Delivery{ctx.now(), node, p.id, p.hops, p.flits});
        });
    }
    std::uint64_t nextId = 1;
    for (const Op &op : ops) {
        Packet p;
        p.id = nextId++;
        p.src = op.src;
        p.dst = op.dst;
        p.cls = op.cls;
        p.flits = op.flits;
        ctx.queue().scheduleAt(op.at, [&net, p] { net.inject(p); });
    }
    ctx.queue().runUntil(500 * tickMs);
    return trace;
}

/**
 * The core contract: identical delivery traces (tick, node, packet,
 * hops) and identical counters on the topology @p make_topo builds
 * (called once per fabric). ~8k packets per combination, each
 * traversing several hops with eject/nominate/grant/credit cycles at
 * every hop, comfortably exceeds 100k randomized router decisions
 * per seed.
 */
template <typename MakeTopo>
void
expectIdenticalFabrics(std::uint64_t seed, MakeTopo make_topo)
{
    auto topoA = make_topo();
    auto topoB = make_topo();
    const int n = topoA.numNodes();
    const int packets = 8000;
    const auto ops = makeProgram(seed, n, packets);

    SimContext ctxA(seed);
    Network a(ctxA, topoA, NetworkParams::gs1280());
    const auto traceA = replay(a, ctxA, ops, n);

    SimContext ctxB(seed);
    legacy::LegacyNet b(ctxB, topoB, NetworkParams::gs1280());
    const auto traceB = replay(b, ctxB, ops, n);

    // Both drained everything...
    ASSERT_EQ(a.stats().deliveredPackets,
              static_cast<std::uint64_t>(packets));
    ASSERT_EQ(a.inFlight(), 0);
    ASSERT_EQ(b.inFlight(), 0);

    // ...with the exact same delivery schedule...
    ASSERT_EQ(traceA.size(), traceB.size());
    for (std::size_t i = 0; i < traceA.size(); ++i)
        ASSERT_EQ(traceA[i], traceB[i]) << "first divergence at "
                                        << i;

    // ...the same aggregate stats...
    EXPECT_EQ(a.stats().injectedPackets, b.stats().injectedPackets);
    EXPECT_EQ(a.stats().deliveredPackets,
              b.stats().deliveredPackets);
    EXPECT_EQ(a.stats().deliveredFlits, b.stats().deliveredFlits);
    EXPECT_EQ(a.stats().latencyNs.mean(), b.stats().latencyNs.mean());
    EXPECT_EQ(a.stats().hopsPerPacket.mean(),
              b.stats().hopsPerPacket.mean());

    // ...and the same per-router telemetry, link by link and VC by
    // VC (the counters live in the router's cold arrays on side A
    // and in the per-port / per-VC structs on side B).
    for (NodeId node = 0; node < n; ++node) {
        const Router &ra = a.router(node);
        legacy::LegacyRouter &rb = b.router(node);
        for (int p = 0; p < topoA.numPorts(node); ++p) {
            EXPECT_EQ(a.linkBusyFlits(node, p),
                      b.linkBusyFlits(node, p));
            for (int vc = 0; vc < numVcs; ++vc) {
                EXPECT_EQ(ra.vcOccupancy(p, vc),
                          rb.vcOccupancy(p, vc));
                EXPECT_EQ(ra.creditsAvailable(p, vc),
                          rb.creditsAvailable(p, vc));
            }
        }
        for (int c = 0; c < numClasses; ++c) {
            auto cls = static_cast<MsgClass>(c);
            EXPECT_EQ(ra.injQueueDepth(cls), rb.injQueueDepth(cls));
        }
    }
}

class RouterAB
    : public testing::TestWithParam<std::tuple<std::uint64_t, int, int>>
{
};

/** 2-D shapes, from a degenerate ring to a 32-node torus. */
TEST_P(RouterAB, IdenticalDeliveryTraceAndCounters)
{
    const auto [seed, w, h] = GetParam();
    expectIdenticalFabrics(seed, [w = w, h = h] {
        return topo::Torus2D(w, h);
    });
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, RouterAB,
    testing::Combine(testing::Values<std::uint64_t>(1, 7, 42, 1234),
                     testing::Values(4, 8),
                     testing::Values(1, 4)),
    [](const auto &info) {
        return "seed" +
               std::to_string(std::get<0>(info.param)) + "_" +
               std::to_string(std::get<1>(info.param)) + "x" +
               std::to_string(std::get<2>(info.param));
    });

class RouterAB3D
    : public testing::TestWithParam<
          std::tuple<std::uint64_t, std::tuple<int, int, int>>>
{
};

/**
 * 3-D shapes: six-port routers (the topology of the 2048P scale
 * point), and 2x2x2, where every ring has size 2 so both directions
 * of a dimension reach the same neighbour.
 */
TEST_P(RouterAB3D, IdenticalDeliveryTraceAndCounters)
{
    const auto [seed, shape] = GetParam();
    const auto [w, h, d] = shape;
    expectIdenticalFabrics(seed, [w = w, h = h, d = d] {
        return topo::Torus3D(w, h, d);
    });
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, RouterAB3D,
    testing::Combine(testing::Values<std::uint64_t>(1, 42),
                     testing::Values(std::make_tuple(4, 2, 2),
                                     std::make_tuple(2, 2, 2))),
    [](const auto &info) {
        const auto &shape = std::get<1>(info.param);
        return "seed" + std::to_string(std::get<0>(info.param)) +
               "_" + std::to_string(std::get<0>(shape)) + "x" +
               std::to_string(std::get<1>(shape)) + "x" +
               std::to_string(std::get<2>(shape));
    });

/**
 * Telemetry counters the public accessors cannot reach (sent flits,
 * credit stalls, injection stalls) are compared through the registry
 * on side A and the frozen router's counter accessors on side B, on
 * one congested shape.
 */
TEST(RouterAB, TelemetryCountersMatchUnderCongestion)
{
    const int w = 4, h = 4, n = w * h;
    // A hotspot program: everyone hammers node 0 — deep credit
    // stalls, injection backpressure, escape-VC fallbacks.
    Rng rng(99);
    std::vector<Op> ops;
    Tick t = 0;
    for (int i = 0; i < 4000; ++i) {
        t += rng.below(2);
        Op op;
        op.at = t + 1;
        op.src = static_cast<NodeId>(rng.below(n));
        op.dst = rng.below(100) < 70
                     ? 0
                     : static_cast<NodeId>(rng.below(n));
        op.cls = static_cast<MsgClass>(rng.below(numClasses));
        op.flits = op.cls == MsgClass::BlockResponse ? dataFlits
                                                     : headerFlits;
        ops.push_back(op);
    }

    SimContext ctxA(5);
    topo::Torus2D topoA(w, h);
    Network a(ctxA, topoA, NetworkParams::gs1280());
    replay(a, ctxA, ops, n);

    SimContext ctxB(5);
    topo::Torus2D topoB(w, h);
    legacy::LegacyNet b(ctxB, topoB, NetworkParams::gs1280());
    replay(b, ctxB, ops, n);

    telem::Registry reg;
    for (NodeId node = 0; node < n; ++node) {
        a.router(node).registerTelemetry(
            reg, telem::path("node", node, "router"),
            [](int p) { return std::to_string(p); });
    }

    std::uint64_t stallsA = 0, stallsB = 0;
    for (NodeId node = 0; node < n; ++node) {
        legacy::LegacyRouter &rb = b.router(node);
        const std::string prefix =
            telem::path("node", node, "router");
        for (int p = 0; p < topoA.numPorts(node); ++p) {
            const std::string pp =
                telem::path(prefix, "port", std::to_string(p));
            EXPECT_EQ(reg.value(pp + ".flits"),
                      rb.sentFlits(p));
            EXPECT_EQ(reg.value(pp + ".packets"),
                      rb.sentPackets(p));
            for (int vc = 0; vc < numVcs; ++vc) {
                const std::string vp = telem::path(pp, "vc", vc);
                EXPECT_EQ(reg.value(vp + ".flits"),
                          rb.recvFlits(p, vc));
                EXPECT_EQ(reg.value(vp + ".stalls"),
                          rb.creditStalls(p, vc));
                stallsA += static_cast<std::uint64_t>(
                    reg.value(vp + ".stalls"));
                stallsB += rb.creditStalls(p, vc);
            }
        }
        for (int c = 0; c < numClasses; ++c) {
            auto cls = static_cast<MsgClass>(c);
            EXPECT_EQ(
                reg.value(telem::path(prefix, "inj",
                                             msgClassName(cls)) +
                                 ".stalls"),
                rb.injStallCount(cls));
        }
    }
    // The hotspot must actually have exercised the stall paths, or
    // this test proves nothing.
    EXPECT_GT(stallsA, 0u);
    EXPECT_EQ(stallsA, stallsB);
}

} // namespace
