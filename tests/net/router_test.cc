/** @file Router-level tests: VC scheme, credits, arbitration and
 *  class separation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/network.hh"
#include "net/router.hh"
#include "topology/torus.hh"

namespace
{

using namespace gs;
using namespace gs::net;

TEST(VcScheme, IndexingRoundTrips)
{
    for (int c = 0; c < numClasses; ++c) {
        auto cls = static_cast<MsgClass>(c);
        for (int sub = 0; sub < vcSubCount; ++sub) {
            int vc = vcIndex(cls, sub);
            EXPECT_LT(vc, numVcs);
            EXPECT_EQ(vcClass(vc), cls);
        }
    }
}

TEST(VcScheme, OnlyIoLacksAdaptive)
{
    EXPECT_TRUE(mayAdapt(MsgClass::Request));
    EXPECT_TRUE(mayAdapt(MsgClass::Forward));
    EXPECT_TRUE(mayAdapt(MsgClass::BlockResponse));
    EXPECT_TRUE(mayAdapt(MsgClass::Ack));
    EXPECT_FALSE(mayAdapt(MsgClass::IO));
}

struct RouterFixture
{
    RouterFixture() : topo(4, 1), net(ctx, topo, NetworkParams::gs1280())
    {
    }

    Packet
    pkt(NodeId src, NodeId dst, MsgClass cls, int flits)
    {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.cls = cls;
        p.flits = flits;
        return p;
    }

    SimContext ctx;
    topo::Torus2D topo;
    Network net;
};

/**
 * Class separation: a wall of Request packets saturating a link must
 * not stop a BlockResponse from getting through promptly — the
 * paper's "a Response packet can never block behind a Request
 * packet".
 */
TEST(Router, ResponsesDoNotBlockBehindRequests)
{
    RouterFixture f;
    Tick responseDelivered = 0;
    int requestsDelivered = 0;
    f.net.setHandler(1, [&](const Packet &p) {
        if (p.cls == MsgClass::BlockResponse)
            responseDelivered = f.ctx.now();
        else
            requestsDelivered += 1;
    });

    // Saturate 0->1 with requests, then inject one response.
    for (int i = 0; i < 200; ++i)
        f.net.inject(f.pkt(0, 1, MsgClass::Request, headerFlits));
    f.net.inject(f.pkt(0, 1, MsgClass::BlockResponse, dataFlits));

    f.ctx.queue().runUntil(10 * tickMs);
    ASSERT_GT(responseDelivered, 0u);
    EXPECT_EQ(requestsDelivered, 200);

    // The response must land long before the request wall drains:
    // 200 requests serialize 400 flits; the response needs ~40
    // cycles. Allow it half the wall.
    Tick wallNs = nsToTicks(200.0 * headerFlits * 1.304);
    EXPECT_LT(responseDelivered, wallNs / 2);
}

TEST(Router, CreditsLimitBuffering)
{
    RouterFixture f;
    // Do not attach a handler delay; just check steady throughput:
    // all packets delivered despite finite VC buffers.
    int got = 0;
    f.net.setHandler(2, [&](const Packet &) { got += 1; });
    for (int i = 0; i < 300; ++i)
        f.net.inject(f.pkt(0, 2, MsgClass::BlockResponse, dataFlits));
    f.ctx.queue().runUntil(50 * tickMs);
    EXPECT_EQ(got, 300);
}

TEST(Router, BandwidthMatchesLinkRate)
{
    RouterFixture f;
    int got = 0;
    Tick last = 0;
    f.net.setHandler(1, [&](const Packet &) {
        got += 1;
        last = f.ctx.now();
    });
    const int count = 500;
    for (int i = 0; i < count; ++i)
        f.net.inject(f.pkt(0, 1, MsgClass::BlockResponse, dataFlits));
    f.ctx.queue().runUntil(50 * tickMs);
    ASSERT_EQ(got, count);

    // 500 x 18 flits at 4.04 B / 1.304 ns per flit ~ 3.1 GB/s per
    // direction: serialization dominates, so total time ~ flits x
    // period. Allow 25% slack for pipeline fill.
    double ns = ticksToNs(last);
    double idealNs = count * dataFlits * 1.304;
    EXPECT_GT(ns, idealNs * 0.95);
    EXPECT_LT(ns, idealNs * 1.25);
}

TEST(Router, AdaptiveSpreadsOverTiedPaths)
{
    // On a 4x4 torus, 0 -> 10 has X and Y ties: East/West and
    // North/South all minimal. Under sustained traffic, more than
    // one outgoing direction should carry flits.
    SimContext ctx;
    topo::Torus2D topo(4, 4);
    Network net(ctx, topo, NetworkParams::gs1280());
    net.setHandler(10, [](const Packet &) {});
    for (int i = 0; i < 400; ++i) {
        Packet p;
        p.src = 0;
        p.dst = 10;
        p.cls = MsgClass::BlockResponse;
        p.flits = dataFlits;
        net.inject(p);
    }
    ctx.queue().runUntil(50 * tickMs);

    int usedDirections = 0;
    for (int port = 0; port < 4; ++port)
        usedDirections += net.linkBusyFlits(0, port) > 0;
    EXPECT_GE(usedDirections, 2)
        << "adaptive routing failed to use tied minimal paths";
}

TEST(Router, IoTrafficUsesEscapeOnly)
{
    // IO packets have no adaptive channel; they must still flow.
    RouterFixture f;
    int got = 0;
    f.net.setHandler(3, [&](const Packet &) { got += 1; });
    for (int i = 0; i < 50; ++i)
        f.net.inject(f.pkt(0, 3, MsgClass::IO, headerFlits));
    f.ctx.queue().runUntil(10 * tickMs);
    EXPECT_EQ(got, 50);
}

TEST(Router, VcOccupancyVisible)
{
    RouterFixture f;
    // Without a consumer on node 1... there is always a consumer
    // (ejection); instead check occupancy API returns zero when idle.
    EXPECT_EQ(f.net.router(1).vcOccupancy(0, 0), 0);
    EXPECT_EQ(f.net.router(1).injQueueDepth(MsgClass::Request), 0u);
}

// The introspection the tests above rely on — occupancy, queue
// depths, credit counts — is deliberately public Router API
// (tests/net/router_ab_test.cc leans on the same surface to prove
// every router layout change bit-identical). The test below pins its
// contract.

TEST(Router, CreditsConservedAcrossTraffic)
{
    RouterFixture f;
    const NetworkParams prm = NetworkParams::gs1280();

    // Snapshot the idle credit view of every (port, vc)...
    std::vector<int> before;
    for (NodeId n = 0; n < 4; ++n)
        for (int p = 0; p < f.topo.numPorts(n); ++p)
            for (int vc = 0; vc < numVcs; ++vc)
                before.push_back(f.net.router(n).creditsAvailable(p, vc));
    // ...which must reflect the configured buffer depths, not zeros.
    int maxCredit = 0;
    for (int c : before)
        maxCredit = std::max(maxCredit, c);
    EXPECT_EQ(maxCredit,
              std::max(prm.adaptiveVcFlits, prm.escapeVcFlits));

    int got = 0;
    f.net.setHandler(2, [&](const Packet &) { got += 1; });
    for (int i = 0; i < 200; ++i)
        f.net.inject(f.pkt(0, 2, MsgClass::BlockResponse, dataFlits));
    f.ctx.queue().runUntil(50 * tickMs);
    ASSERT_EQ(got, 200);

    // Every credit lent out during the storm came back: leaks here
    // are the classic slow-strangulation bug, invisible to
    // delivery-count tests until a much longer run wedges.
    std::vector<int> after;
    for (NodeId n = 0; n < 4; ++n)
        for (int p = 0; p < f.topo.numPorts(n); ++p)
            for (int vc = 0; vc < numVcs; ++vc)
                after.push_back(f.net.router(n).creditsAvailable(p, vc));
    EXPECT_EQ(before, after);
}

} // namespace
