/** @file Protocol tracer tests: assert whole transaction flows. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "net/network.hh"
#include "protocol_tracer.hh"
#include "topology/torus.hh"

namespace
{

using namespace gs;
using namespace gs::coher;

struct TracedFixture
{
    TracedFixture() : topo(2, 2), net(ctx, topo,
                                      net::NetworkParams::gs1280())
    {
        for (NodeId n = 0; n < 4; ++n) {
            nodes.push_back(std::make_unique<CoherentNode>(
                ctx, net, n, map, NodeConfig{}));
            tracer.observe(*nodes.back());
        }
    }

    void
    access(NodeId node, mem::Addr a, bool write)
    {
        bool done = false;
        nodes[std::size_t(node)]->memAccess(a, write,
                                            [&] { done = true; });
        ctx.queue().runUntil(ctx.now() + 100 * tickUs);
        ASSERT_TRUE(done);
    }

    int
    count(mem::Addr line, MsgType type)
    {
        auto flow = tracer.flowOf(line);
        return static_cast<int>(
            std::count(flow.begin(), flow.end(), type));
    }

    SimContext ctx;
    topo::Torus2D topo;
    mem::NodeOwnedMap map;
    net::Network net;
    std::vector<std::unique_ptr<CoherentNode>> nodes;
    ProtocolTracer tracer;
};

TEST(Tracer, ColdReadIsRequestThenExclusiveFill)
{
    TracedFixture f;
    mem::Addr a = mem::regionBase(1);
    f.access(0, a, false);
    auto flow = f.tracer.flowOf(a);
    ASSERT_EQ(flow.size(), 2u);
    EXPECT_EQ(flow[0], MsgType::RdReq);
    EXPECT_EQ(flow[1], MsgType::BlkExclusive);
}

TEST(Tracer, ReadDirtyIsTheThreeHopFlow)
{
    TracedFixture f;
    mem::Addr a = mem::regionBase(2);
    f.access(0, a, true);  // RdModReq -> BlkExclusive
    f.access(1, a, false); // the read-dirty transaction
    f.ctx.queue().runUntil(f.ctx.now() + 100 * tickUs);

    // The second transaction: RdReq at home, FwdRd at owner,
    // BlkDirty at requester, WBShared (dirty data) back at home.
    EXPECT_EQ(f.count(a, MsgType::RdReq), 1);
    EXPECT_EQ(f.count(a, MsgType::FwdRd), 1);
    EXPECT_EQ(f.count(a, MsgType::BlkDirty), 1);
    EXPECT_EQ(f.count(a, MsgType::WBShared), 1);
    EXPECT_EQ(f.count(a, MsgType::FwdAckClean), 0);
}

TEST(Tracer, CleanForwardSendsNoData)
{
    TracedFixture f;
    mem::Addr a = mem::regionBase(2) + 64;
    f.access(0, a, false); // clean exclusive owner
    f.access(1, a, false);
    f.ctx.queue().runUntil(f.ctx.now() + 100 * tickUs);

    // Clean downgrade: FwdAckClean, no WBShared (memory is current).
    EXPECT_EQ(f.count(a, MsgType::FwdRd), 1);
    EXPECT_EQ(f.count(a, MsgType::FwdAckClean), 1);
    EXPECT_EQ(f.count(a, MsgType::WBShared), 0);
}

TEST(Tracer, WriteToSharedFansOutInvals)
{
    TracedFixture f;
    mem::Addr a = mem::regionBase(3);
    f.access(0, a, false);
    f.access(1, a, false);
    f.access(2, a, true);
    f.ctx.queue().runUntil(f.ctx.now() + 100 * tickUs);

    EXPECT_EQ(f.count(a, MsgType::Inval), 2);
    EXPECT_EQ(f.count(a, MsgType::InvalAck), 2);
    EXPECT_GE(f.count(a, MsgType::BlkExclusive), 1);
}

TEST(Tracer, DescribeIsHumanReadable)
{
    TracedFixture f;
    mem::Addr a = mem::regionBase(1) + 128;
    f.access(0, a, false);
    std::string text = f.tracer.describe(a);
    EXPECT_NE(text.find("RdReq@1"), std::string::npos);
    EXPECT_NE(text.find("BlkExclusive@0"), std::string::npos);
}

TEST(Tracer, FlowIsPerLine)
{
    TracedFixture f;
    f.access(0, mem::regionBase(1), false);
    f.access(0, mem::regionBase(2), false);
    EXPECT_EQ(f.tracer.flowOf(mem::regionBase(1)).size(), 2u);
    EXPECT_EQ(f.tracer.flowOf(mem::regionBase(2)).size(), 2u);
    EXPECT_EQ(f.tracer.flowOf(mem::regionBase(3)).size(), 0u);
}

TEST(Tracer, ClearEmptiesTheLog)
{
    TracedFixture f;
    f.access(0, mem::regionBase(1), false);
    EXPECT_GT(f.tracer.size(), 0u);
    f.tracer.clear();
    EXPECT_EQ(f.tracer.size(), 0u);
}

TEST(Tracer, MsgTypeNamesCoverEveryType)
{
    for (int t = 0; t <= static_cast<int>(MsgType::VictimAck); ++t) {
        EXPECT_STRNE(msgTypeName(static_cast<MsgType>(t)), "?");
    }
}

} // namespace
