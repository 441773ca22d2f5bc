/** @file Machine assembly tests for the three systems. */

#include <gtest/gtest.h>

#include "coherence/checker.hh"
#include "system/machine.hh"
#include "workload/pointer_chase.hh"

namespace
{

using namespace gs;
using namespace gs::sys;

TEST(TorusShapeFn, ShippedShapes)
{
    EXPECT_EQ(torusShape(1), (std::pair{1, 1}));
    EXPECT_EQ(torusShape(4), (std::pair{2, 2}));
    EXPECT_EQ(torusShape(8), (std::pair{4, 2}));
    EXPECT_EQ(torusShape(12), (std::pair{4, 3}));
    EXPECT_EQ(torusShape(16), (std::pair{4, 4}));
    EXPECT_EQ(torusShape(32), (std::pair{8, 4}));
    EXPECT_EQ(torusShape(64), (std::pair{8, 8}));
}

TEST(MachineGs1280, BuildsAllNodes)
{
    auto m = Machine::buildGS1280(16);
    EXPECT_EQ(m->cpuCount(), 16);
    EXPECT_EQ(m->nodeCount(), 16);
    EXPECT_EQ(m->kind(), SystemKind::GS1280);
    for (NodeId n = 0; n < 16; ++n) {
        ASSERT_TRUE(m->hasNode(n));
        EXPECT_TRUE(m->node(n).hasCache());
        EXPECT_TRUE(m->node(n).hasMemory());
        EXPECT_EQ(m->node(n).zboxCount(), 2);
    }
}

TEST(MachineGs1280, ModuleBuddiesPairRows)
{
    auto m = Machine::buildGS1280(16); // 4x4
    // (x,0) pairs with (x,1); buddy is involutive.
    for (NodeId n = 0; n < 16; ++n) {
        NodeId b = m->moduleBuddy(n);
        EXPECT_NE(b, n);
        EXPECT_EQ(m->moduleBuddy(b), n);
    }
    EXPECT_EQ(m->moduleBuddy(0), 4); // (0,0) <-> (0,1)
}

TEST(MachineGs1280, CpuAddrLandsInRegion)
{
    auto m = Machine::buildGS1280(4);
    EXPECT_EQ(mem::regionNode(m->cpuAddr(3, 12345)), 3);
    EXPECT_EQ(m->addressMap().home(m->cpuAddr(2, 0)).node, 2);
}

TEST(MachineGs1280, StripedMapAlternates)
{
    Gs1280Options opt;
    opt.striped = true;
    auto m = Machine::buildGS1280(8, opt);
    const auto &map = m->addressMap();
    mem::Addr base = m->cpuAddr(0, 0);
    EXPECT_EQ(map.home(base + 0 * 64).node, 0);
    EXPECT_EQ(map.home(base + 2 * 64).node, m->moduleBuddy(0));
}

TEST(MachineGs1280, RunsAWorkloadAndDrains)
{
    auto m = Machine::buildGS1280(4);
    wl::PointerChase chase(m->cpuAddr(1, 0), 1 << 20, 64, 500);
    EXPECT_TRUE(m->run({&chase}));
    EXPECT_TRUE(m->drained());
    EXPECT_EQ(m->core(0).stats().opsDone, 500u);

    std::vector<coher::CoherentNode *> nodes;
    for (NodeId n = 0; n < m->nodeCount(); ++n)
        nodes.push_back(&m->node(n));
    EXPECT_TRUE(coher::verifyCoherence(nodes).ok);
}

TEST(MachineGs1280, ShuffleOptionBuildsShuffleTopology)
{
    Gs1280Options opt;
    opt.shuffle = true;
    auto m = Machine::buildGS1280(8, opt);
    EXPECT_NE(m->topology().name().find("shuffle"),
              std::string::npos);
}

TEST(MachineGs320, TreeWithMemoryAtSwitches)
{
    auto m = Machine::buildGS320(16);
    EXPECT_EQ(m->cpuCount(), 16);
    EXPECT_EQ(m->nodeCount(), 21); // 16 CPUs + 4 QBBs + global
    for (NodeId n = 0; n < 16; ++n) {
        EXPECT_TRUE(m->node(n).hasCache());
        EXPECT_FALSE(m->node(n).hasMemory());
    }
    for (NodeId n = 16; n < 20; ++n) {
        ASSERT_TRUE(m->hasNode(n));
        EXPECT_FALSE(m->node(n).hasCache());
        EXPECT_TRUE(m->node(n).hasMemory());
    }
    EXPECT_FALSE(m->hasNode(20)); // global switch: pure router
}

TEST(MachineGs320, HomesAreQbbSwitches)
{
    auto m = Machine::buildGS320(8);
    EXPECT_EQ(m->addressMap().home(m->cpuAddr(0, 0)).node, 8);
    EXPECT_EQ(m->addressMap().home(m->cpuAddr(5, 0)).node, 9);
}

TEST(MachineGs320, RunsAndStaysCoherent)
{
    auto m = Machine::buildGS320(8);
    wl::PointerChase chase(m->cpuAddr(4, 0), 1 << 20, 64, 300);
    EXPECT_TRUE(m->run({&chase}));
    std::vector<coher::CoherentNode *> nodes;
    for (NodeId n = 0; n < m->nodeCount(); ++n)
        if (m->hasNode(n))
            nodes.push_back(&m->node(n));
    EXPECT_TRUE(coher::verifyCoherence(nodes).ok);
}

TEST(MachineEs45, FourCpuBus)
{
    auto m = Machine::buildES45(4);
    EXPECT_EQ(m->nodeCount(), 5);
    EXPECT_TRUE(m->node(4).hasMemory());
    wl::PointerChase chase(m->cpuAddr(0, 0), 1 << 20, 64, 300);
    EXPECT_TRUE(m->run({&chase}));
}

TEST(Machine, AnalyticTimingMatchesKind)
{
    EXPECT_EQ(Machine::buildGS1280(4)->analyticTiming().l2SizeMB,
              1.75);
    EXPECT_EQ(Machine::buildGS320(4)->analyticTiming().l2SizeMB,
              16.0);
    EXPECT_EQ(Machine::buildES45(4)->analyticTiming().name,
              "ES45/1.25GHz");
}

TEST(Machine, ClearStatsResetsCounters)
{
    auto m = Machine::buildGS1280(4);
    wl::PointerChase chase(m->cpuAddr(1, 0), 1 << 20, 64, 100);
    m->run({&chase});
    EXPECT_GT(m->node(0).stats().accesses, 0u);
    m->clearStats();
    EXPECT_EQ(m->node(0).stats().accesses, 0u);
    EXPECT_EQ(m->network().stats().deliveredPackets, 0u);
}

TEST(Machine, FootprintCountsNodesAndCoreL1s)
{
    auto m = Machine::buildGS1280(4);
    wl::PointerChase chase(m->cpuAddr(1, 0), 1 << 20, 64, 100);
    m->run({&chase});
    std::size_t live = 0;
    std::size_t dense = 0;
    for (NodeId n = 0; n < 4; ++n) {
        live += m->node(n).footprintBytes();
        dense += m->node(n).denseFootprintBytes();
    }
    for (int c = 0; c < 4; ++c) {
        live += m->core(c).footprintBytes();
        dense += m->core(c).denseFootprintBytes();
    }
    EXPECT_EQ(m->memFootprintBytes(), live);
    EXPECT_EQ(m->denseMemFootprintBytes(), dense);
    // Every core charges its L1's 4-byte set slots (512 sets), and
    // the dense figure the full 24-byte-per-line tag array; the core
    // that ran the chase also holds L1 tag storage.
    EXPECT_GE(m->core(1).footprintBytes(), 512u * 4);
    EXPECT_GE(m->core(1).denseFootprintBytes(), 1024u * 24);
    EXPECT_GT(m->core(0).footprintBytes(), m->core(1).footprintBytes());
}

} // namespace
