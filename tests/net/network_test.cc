/** @file Network fabric tests: delivery, latency composition,
 *  loopback, statistics, and deadlock-freedom under load. */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "net/network.hh"
#include "sim/checkpoint.hh"
#include "sim/random.hh"
#include "sim/telemetry.hh"
#include "system/machine.hh"
#include "topology/torus.hh"
#include "topology/tree.hh"
#include "workload/gups.hh"

namespace
{

using namespace gs;
using namespace gs::net;

struct NetFixture
{
    explicit NetFixture(int w = 4, int h = 4,
                        NetworkParams p = NetworkParams::gs1280())
        : topo(w, h), net(ctx, topo, p)
    {
    }

    SimContext ctx;
    topo::Torus2D topo;
    Network net;
};

Packet
makePacket(NodeId src, NodeId dst, MsgClass cls = MsgClass::Request,
           int flits = headerFlits)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.cls = cls;
    p.flits = flits;
    return p;
}

TEST(Network, DeliversSinglePacket)
{
    NetFixture f;
    bool got = false;
    f.net.setHandler(5, [&](const Packet &p) {
        got = true;
        EXPECT_EQ(p.src, 0);
        EXPECT_EQ(p.dst, 5);
        EXPECT_GE(p.hops, 2); // (0,0)->(1,1) is 2 hops minimum
    });
    f.net.inject(makePacket(0, 5));
    f.ctx.queue().runUntil();
    EXPECT_TRUE(got);
    EXPECT_EQ(f.net.stats().deliveredPackets, 1u);
    EXPECT_EQ(f.net.inFlight(), 0);
}

TEST(Network, LoopbackBypassesFabric)
{
    NetFixture f;
    bool got = false;
    f.net.setHandler(3, [&](const Packet &p) {
        got = true;
        EXPECT_EQ(p.hops, 0);
    });
    f.net.inject(makePacket(3, 3));
    f.ctx.queue().runUntil();
    EXPECT_TRUE(got);
    // No link was used.
    for (int p = 0; p < 4; ++p)
        EXPECT_EQ(f.net.linkBusyFlits(3, p), 0u);
}

TEST(Network, LongerPathsTakeLonger)
{
    std::map<int, double> latencyByHops;
    for (NodeId dst : {1, 2, 10}) { // 1, 2 and 4 hops from 0 in 4x4
        NetFixture f;
        f.net.setHandler(dst, [](const Packet &) {});
        f.net.inject(makePacket(0, dst));
        f.ctx.queue().runUntil();
        int hops = static_cast<int>(
            f.net.stats().hopsPerPacket.mean());
        latencyByHops[hops] = f.net.stats().latencyNs.mean();
    }
    ASSERT_EQ(latencyByHops.size(), 3u);
    auto it = latencyByHops.begin();
    auto [h1, l1] = *it++;
    auto [h2, l2] = *it++;
    auto [h3, l3] = *it;
    EXPECT_LT(h1, h2);
    EXPECT_LT(l1, l2);
    EXPECT_LT(l2, l3);
}

TEST(Network, DataPacketsSlowerThanHeaders)
{
    double headerNs, dataNs;
    {
        NetFixture f;
        f.net.setHandler(2, [](const Packet &) {});
        f.net.inject(makePacket(0, 2, MsgClass::Request, headerFlits));
        f.ctx.queue().runUntil();
        headerNs = f.net.stats().latencyNs.mean();
    }
    {
        NetFixture f;
        f.net.setHandler(2, [](const Packet &) {});
        f.net.inject(
            makePacket(0, 2, MsgClass::BlockResponse, dataFlits));
        f.ctx.queue().runUntil();
        dataNs = f.net.stats().latencyNs.mean();
    }
    EXPECT_GT(dataNs, headerNs + 10.0); // 16 extra flits at 767 MHz
}

TEST(Network, MinimalHopCounts)
{
    NetFixture f;
    int hops = -1;
    f.net.setHandler(10, [&](const Packet &p) { hops = p.hops; });
    f.net.inject(makePacket(0, 10)); // (0,0)->(2,2): 4 hops minimal
    f.ctx.queue().runUntil();
    EXPECT_EQ(hops, 4);
}

TEST(Network, LinkCountersAccumulate)
{
    NetFixture f;
    f.net.setHandler(1, [](const Packet &) {});
    f.net.inject(makePacket(0, 1, MsgClass::Request, 6));
    f.ctx.queue().runUntil();
    // (0,0)->(1,0): the East link out of node 0 carried 6 flits.
    EXPECT_EQ(f.net.linkBusyFlits(0, topo::portEast), 6u);
}

TEST(Network, ManyToOneAllDelivered)
{
    NetFixture f;
    int got = 0;
    f.net.setHandler(0, [&](const Packet &) { got += 1; });
    for (NodeId src = 1; src < 16; ++src)
        for (int i = 0; i < 20; ++i)
            f.net.inject(makePacket(src, 0, MsgClass::BlockResponse,
                                    dataFlits));
    f.ctx.queue().runUntil();
    EXPECT_EQ(got, 15 * 20);
    EXPECT_EQ(f.net.inFlight(), 0);
}

/**
 * Deadlock-freedom property: saturating uniform-random traffic of
 * every class on a torus (with wraparound and adaptivity in play)
 * must fully drain. This exercises the dateline escape VCs, the
 * adaptive-to-escape fallback and the two-level arbitration.
 */
class NetworkSaturation
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(NetworkSaturation, RandomTrafficDrains)
{
    auto [w, h] = GetParam();
    NetFixture f(w, h);
    Rng rng(99);
    const int n = f.topo.numNodes();
    int got = 0;

    for (NodeId node = 0; node < n; ++node)
        f.net.setHandler(node, [&](const Packet &) { got += 1; });

    const MsgClass classes[] = {MsgClass::Request, MsgClass::Forward,
                                MsgClass::BlockResponse, MsgClass::Ack,
                                MsgClass::IO};
    int sent = 0;
    for (int burst = 0; burst < 40; ++burst) {
        for (NodeId src = 0; src < n; ++src) {
            NodeId dst =
                static_cast<NodeId>(rng.below(
                    static_cast<std::uint64_t>(n)));
            if (dst == src)
                continue;
            MsgClass cls = classes[rng.below(5)];
            int flits = cls == MsgClass::BlockResponse ? dataFlits
                                                       : headerFlits;
            f.net.inject(makePacket(src, dst, cls, flits));
            sent += 1;
        }
    }

    f.ctx.queue().runUntil(100 * tickMs);
    EXPECT_EQ(got, sent) << "network failed to drain (deadlock?)";
    EXPECT_EQ(f.net.inFlight(), 0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, NetworkSaturation,
                         ::testing::Values(std::pair{4, 4},
                                           std::pair{4, 2},
                                           std::pair{8, 4},
                                           std::pair{2, 2},
                                           std::pair{5, 3}));

TEST(Network, TreeFabricDrains)
{
    SimContext ctx;
    topo::QbbTree tree(16, 4);
    Network net(ctx, tree, NetworkParams::gs320());
    int got = 0;
    for (NodeId n = 0; n < 16; ++n)
        net.setHandler(n, [&](const Packet &) { got += 1; });

    Rng rng(7);
    int sent = 0;
    for (int i = 0; i < 400; ++i) {
        auto src = static_cast<NodeId>(rng.below(16));
        auto dst = static_cast<NodeId>(rng.below(16));
        if (src == dst)
            continue;
        net.inject(makePacket(src, dst, MsgClass::BlockResponse,
                              dataFlits));
        sent += 1;
    }
    ctx.queue().runUntil(100 * tickMs);
    EXPECT_EQ(got, sent);
}

/** One delivery observation, in arrival order. */
struct Delivery
{
    Tick when;
    NodeId node;
    std::uint64_t id;
    int hops;

    bool operator==(const Delivery &) const = default;
};

/** A Network snapshot plus the event-queue part Machine::save adds. */
struct NetSnapshot
{
    struct Pending
    {
        Tick when;
        std::uint64_t seq;
        ckpt::EventDesc desc;
    };

    EventQueue::CkptState queue;
    std::vector<Pending> events;
    std::vector<std::uint8_t> bytes;
};

NetSnapshot
saveNet(SimContext &ctx, const Network &net)
{
    NetSnapshot snap;
    snap.queue = ctx.queue().ckptState();
    ctx.queue().visitPending([&snap](Tick when, std::uint64_t seq,
                                     const ckpt::EventDesc &desc) {
        snap.events.push_back({when, seq, desc});
    });
    ckpt::Serializer s;
    net.saveCkpt(s);
    snap.bytes = s.buffer();
    return snap;
}

void
restoreNet(SimContext &ctx, Network &net, const NetSnapshot &snap)
{
    ctx.queue().restoreBegin(snap.queue);
    ckpt::Deserializer d(snap.bytes.data(), snap.bytes.size());
    net.restoreCkpt(d);
    ASSERT_TRUE(d.ok()) << d.error();
    for (const auto &e : snap.events) {
        // Every pending event is the network's own and names live
        // state of the restored fabric.
        ASSERT_GE(e.desc.kind, ckpt::NetInjStart)
            << "event kind " << ckpt::kindName(e.desc.kind);
        ASSERT_LE(e.desc.kind, ckpt::NetTick)
            << "event kind " << ckpt::kindName(e.desc.kind);
        ASSERT_EQ(net.badEvent(e.desc), nullptr)
            << "event kind " << ckpt::kindName(e.desc.kind);
        ctx.queue().insertRestored(e.when, e.seq, e.desc,
                                   net.callback(e.desc));
    }
}

/**
 * A storm of every class on @p f, injected up front: @p bursts
 * packets from every node. @p dst_shift moves every destination
 * without changing sources, classes or injection order, so two
 * fresh networks hand out the same pool handles to the same
 * source queues while routing them differently.
 */
int
injectStorm(NetFixture &f, int bursts, int dst_shift = 0)
{
    Rng rng(11);
    const int n = f.topo.numNodes();
    int sent = 0;
    for (int burst = 0; burst < bursts; ++burst) {
        for (NodeId src = 0; src < n; ++src) {
            const auto r = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(n - 1)));
            const auto dst = static_cast<NodeId>(
                (src + 1 + (r + dst_shift) % (n - 1)) % n);
            auto cls = static_cast<MsgClass>(rng.below(numClasses));
            Packet p = makePacket(src, dst, cls,
                                  cls == MsgClass::BlockResponse
                                      ? dataFlits
                                      : headerFlits);
            p.id = static_cast<std::uint64_t>(sent + 1);
            f.net.inject(p);
            sent += 1;
        }
    }
    return sent;
}

/** Every per-VC, per-port and injection counter of @p net. */
std::map<std::string, double>
routerCounters(NetFixture &f)
{
    telem::Registry reg;
    for (NodeId node = 0; node < f.topo.numNodes(); ++node) {
        f.net.router(node).registerTelemetry(
            reg, telem::path("node", node, "router"),
            [](int p) { return std::to_string(p); });
    }
    std::map<std::string, double> out;
    for (const std::string &p : reg.paths())
        out[p] = reg.value(p);
    for (NodeId node = 0; node < f.topo.numNodes(); ++node) {
        const Router &r = f.net.router(node);
        for (int p = 0; p < f.topo.numPorts(node); ++p) {
            for (int vc = 0; vc < numVcs; ++vc) {
                const std::string vp = telem::path(
                    "node", node, "port", std::to_string(p), "vc", vc);
                out[vp + ".occupancy"] = r.vcOccupancy(p, vc);
                out[vp + ".credits"] = r.creditsAvailable(p, vc);
            }
        }
    }
    return out;
}

/**
 * Save a Network mid-storm — packets buffered in VCs and waiting in
 * injection queues at several routers — and restore it twice: into
 * a fresh Network, and into a used one that is mid-way through a
 * storm whose packets hold the same pool handles with other
 * destinations (so its route memos would misroute the restored
 * heads). Both continuations must reproduce the uninterrupted run's
 * deliveries and every router counter: occupancy masks, eject
 * counts and route memos are derived, so restore must rebuild or
 * clear them.
 */
TEST(Network, RestoreMidStormMatchesUninterruptedRun)
{
    const Tick saveAt = 150 * tickNs; // the storm drains by ~400 ns
    NetFixture a;
    const int n = a.topo.numNodes();
    std::vector<Delivery> traceA;
    for (NodeId node = 0; node < n; ++node) {
        a.net.setHandler(node, [&traceA, &a, node](const Packet &p) {
            traceA.push_back(Delivery{a.ctx.now(), node, p.id, p.hops});
        });
    }
    const int sent = injectStorm(a, 60);
    a.ctx.queue().runUntil(saveAt);

    int routersWithVcs = 0, routersWithInj = 0;
    for (NodeId node = 0; node < n; ++node) {
        const Router &r = a.net.router(node);
        bool vcs = false, inj = false;
        for (int p = 0; p < a.topo.numPorts(node); ++p)
            for (int vc = 0; vc < numVcs; ++vc)
                vcs = vcs || r.vcOccupancy(p, vc) > 0;
        for (int c = 0; c < numClasses; ++c)
            inj = inj || r.injQueueDepth(static_cast<MsgClass>(c)) > 0;
        routersWithVcs += vcs ? 1 : 0;
        routersWithInj += inj ? 1 : 0;
    }
    ASSERT_GE(routersWithVcs, 2) << "save point is not mid-storm";
    ASSERT_GE(routersWithInj, 2) << "save point is not mid-storm";

    const NetSnapshot snap = saveNet(a.ctx, a.net);
    const std::size_t before = traceA.size();
    ASSERT_LT(before, static_cast<std::size_t>(sent));

    a.ctx.queue().runUntil(100 * tickMs);
    ASSERT_EQ(traceA.size(), static_cast<std::size_t>(sent));
    ASSERT_EQ(a.net.inFlight(), 0);
    const std::vector<Delivery> tail(traceA.begin() +
                                         static_cast<std::ptrdiff_t>(
                                             before),
                                     traceA.end());
    const auto countersA = routerCounters(a);

    auto expectSameContinuation = [&](NetFixture &f,
                                      const std::vector<Delivery> &t) {
        ASSERT_EQ(t.size(), tail.size());
        for (std::size_t i = 0; i < t.size(); ++i)
            ASSERT_EQ(t[i], tail[i]) << "first divergence at " << i;
        EXPECT_EQ(f.net.inFlight(), 0);
        EXPECT_EQ(f.net.stats().deliveredPackets,
                  static_cast<std::uint64_t>(sent));
        EXPECT_EQ(routerCounters(f), countersA);
    };

    // Restore into a fresh Network.
    NetFixture b;
    std::vector<Delivery> traceB;
    for (NodeId node = 0; node < n; ++node) {
        b.net.setHandler(node, [&traceB, &b, node](const Packet &p) {
            traceB.push_back(Delivery{b.ctx.now(), node, p.id, p.hops});
        });
    }
    restoreNet(b.ctx, b.net, snap);
    b.ctx.queue().runUntil(100 * tickMs);
    expectSameContinuation(b, traceB);

    // Restore into a Network mid-way through a twin storm.
    NetFixture c;
    std::vector<Delivery> traceC;
    for (NodeId node = 0; node < n; ++node) {
        c.net.setHandler(node, [&traceC, &c, node](const Packet &p) {
            traceC.push_back(Delivery{c.ctx.now(), node, p.id, p.hops});
        });
    }
    injectStorm(c, 60, n / 2);
    c.ctx.queue().runUntil(saveAt);
    restoreNet(c.ctx, c.net, snap);
    traceC.clear();
    c.ctx.queue().runUntil(100 * tickMs);
    expectSameContinuation(c, traceC);
}

TEST(Network, ClearStatsResets)
{
    NetFixture f;
    f.net.setHandler(1, [](const Packet &) {});
    f.net.inject(makePacket(0, 1));
    f.ctx.queue().runUntil();
    EXPECT_GT(f.net.stats().deliveredPackets, 0u);
    f.net.clearStats();
    EXPECT_EQ(f.net.stats().deliveredPackets, 0u);
    EXPECT_EQ(f.net.linkBusyFlits(0, topo::portEast), 0u);
}

// One grant bumps one counter: the link utilization Xmesh and the
// fault tests read is the router's per-port flit count the registry
// exports, not a second copy kept beside it.
TEST(Network, LinkBusyFlitsIsTheRouterPortCounter)
{
    auto m = sys::Machine::buildGS1280(8); // 4x2 torus
    std::vector<std::unique_ptr<wl::Gups>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < 8; ++c) {
        gens.push_back(std::make_unique<wl::Gups>(
            8, 64ULL << 20, 500, 70 + static_cast<unsigned>(c)));
        sources.push_back(gens.back().get());
    }
    ASSERT_TRUE(m->run(sources));

    const auto &topo = m->topology();
    int ports = 0;
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        for (int p = 0; p < topo.numPorts(n); ++p) {
            if (!topo.port(n, p).connected())
                continue;
            const std::string path = telem::path(
                "node", n, "router", "port", m->portName(p), "flits");
            ASSERT_TRUE(m->telemetry().has(path)) << path;
            EXPECT_GT(m->network().linkBusyFlits(n, p), 0u) << path;
            EXPECT_EQ(static_cast<double>(
                          m->network().linkBusyFlits(n, p)),
                      m->telemetry().value(path))
                << path;
            ports += 1;
        }
    }
    EXPECT_EQ(ports, 8 * 4);
}

} // namespace
