/** @file Xmesh monitor tests. */

#include <gtest/gtest.h>

#include <memory>

#include "system/xmesh.hh"
#include "workload/load_test.hh"
#include "workload/stream.hh"

namespace
{

using namespace gs;
using namespace gs::sys;

TEST(Xmesh, SamplesAccumulateWhileRunning)
{
    auto m = Machine::buildGS1280(4);
    Xmesh mon(*m, 20 * tickUs);
    mon.start();

    wl::StreamTriad triad(m->cpuAddr(0, 0), 2 << 20);
    ASSERT_TRUE(m->run({&triad}));
    mon.stop();

    ASSERT_GT(mon.samples().size(), 2u);
    // Node 0 streamed from its own memory: its MC utilization must
    // show up; an idle node's must not.
    bool sawBusy = false;
    for (const auto &s : mon.samples()) {
        EXPECT_EQ(s.memUtil.size(), 4u);
        sawBusy = sawBusy || s.memUtil[0] > 0.05;
        EXPECT_LT(s.memUtil[3], 0.02);
    }
    EXPECT_TRUE(sawBusy);
}

TEST(Xmesh, LinkUtilizationSeenUnderRemoteTraffic)
{
    auto m = Machine::buildGS1280(4);
    Xmesh mon(*m, 20 * tickUs);
    mon.start();

    std::vector<std::unique_ptr<wl::RandomRemoteReads>> gen;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < 4; ++c) {
        gen.push_back(std::make_unique<wl::RandomRemoteReads>(
            c, 4, 64 << 20, 3000, 10 + static_cast<unsigned>(c)));
        sources.push_back(gen.back().get());
    }
    ASSERT_TRUE(m->run(sources));
    mon.stop();

    double peakLink = 0;
    for (const auto &s : mon.samples())
        peakLink = std::max(peakLink, s.avgLinkUtil);
    EXPECT_GT(peakLink, 0.02);
}

TEST(Xmesh, UtilizationsAreBounded)
{
    auto m = Machine::buildGS1280(4);
    Xmesh mon(*m, 10 * tickUs);
    mon.start();
    wl::StreamTriad triad(m->cpuAddr(1, 0), 1 << 20);
    std::vector<cpu::TrafficSource *> sources{nullptr, &triad};
    ASSERT_TRUE(m->run(sources));
    mon.stop();
    for (const auto &s : mon.samples()) {
        for (double u : s.memUtil) {
            EXPECT_GE(u, 0.0);
            EXPECT_LE(u, 1.0);
        }
        EXPECT_GE(s.avgEastWest, 0.0);
        EXPECT_LE(s.avgNorthSouth, 1.0);
    }
}

TEST(Xmesh, RowsAreWholeWindows)
{
    auto m = Machine::buildGS1280(4);
    const Tick interval = 10 * tickUs;
    Xmesh mon(*m, interval);
    const Tick start = m->ctx().now();
    mon.start();
    wl::StreamTriad triad(m->cpuAddr(0, 0), 1 << 20);
    ASSERT_TRUE(m->run({&triad}));
    mon.stop();
    const Tick end = m->ctx().now();

    // One row per interval edge crossed; the partial window between
    // the last edge and stop() is not a row.
    ASSERT_EQ(mon.samples().size(), (end - start) / interval);
    for (std::size_t i = 0; i < mon.samples().size(); ++i)
        EXPECT_EQ(mon.samples()[i].when, start + (i + 1) * interval);
}

TEST(XmeshDeath, MachineWithoutPerNodeTelemetryIsFatal)
{
    // Past 64 nodes the registry holds no node.<n>.* paths to read.
    auto m = Machine::buildGS1280_3D(4, 4, 8);
    ASSERT_FALSE(m->perNodeTelemetry());
    EXPECT_EXIT(Xmesh(*m, 10 * tickUs), ::testing::ExitedWithCode(1),
                "Xmesh reads the per-node telemetry counters");
}

TEST(XmeshDeath, ParallelMachineIsFatal)
{
    // Domain 0's sample event would read the other domains' router
    // and Zbox counters while their workers update them.
    EXPECT_EXIT(
        {
            Gs1280Options opt;
            opt.threads = 2;
            auto m = Machine::buildGS1280(8, opt);
            Xmesh mon(*m, 10 * tickUs);
        },
        ::testing::ExitedWithCode(1), "Xmesh requires the serial engine");
}

TEST(Xmesh, HeatmapRendersGrid)
{
    auto m = Machine::buildGS1280(4);
    Xmesh mon(*m, 10 * tickUs);
    auto sample = mon.sampleNow();
    std::string map = mon.heatmap(sample);
    EXPECT_NE(map.find("Xmesh"), std::string::npos);
    // 2x2 grid: two rows with two cells each.
    EXPECT_NE(map.find("[  0.0 ]"), std::string::npos);
}

TEST(Xmesh, HotSpotShowsOnVictimNode)
{
    auto m = Machine::buildGS1280(8);
    Xmesh mon(*m, 50 * tickUs);
    mon.start();

    std::vector<std::unique_ptr<wl::HotSpotReads>> gen;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < 8; ++c) {
        gen.push_back(std::make_unique<wl::HotSpotReads>(
            0, 64 << 20, 1500, 20 + static_cast<unsigned>(c)));
        sources.push_back(gen.back().get());
    }
    ASSERT_TRUE(m->run(sources));
    mon.stop();

    // Victim node's memory controllers are the hottest in at least
    // one sample.
    double victimPeak = 0, otherPeak = 0;
    for (const auto &s : mon.samples()) {
        victimPeak = std::max(victimPeak, s.memUtil[0]);
        for (int n = 1; n < 8; ++n)
            otherPeak = std::max(otherPeak,
                                 s.memUtil[static_cast<std::size_t>(n)]);
    }
    EXPECT_GT(victimPeak, 0.2);
    EXPECT_GT(victimPeak, 4.0 * otherPeak);
}

} // namespace
