/** @file Synthetic-traffic harness tests. */

#include <gtest/gtest.h>

#include "net/synthetic.hh"
#include "topology/torus.hh"

namespace
{

using namespace gs;
using namespace gs::net;

struct SynFixture
{
    explicit SynFixture(int w = 4, int h = 4,
                        NetworkParams p = NetworkParams::gs1280())
        : topo(w, h), net(ctx, topo, p)
    {
    }

    SimContext ctx;
    topo::Torus2D topo;
    Network net;
};

TEST(Synthetic, LowLoadDeliversEverything)
{
    SynFixture f;
    SyntheticConfig cfg;
    cfg.injectionRate = 0.01;
    auto r = runSynthetic(f.ctx, f.net, cfg);
    EXPECT_TRUE(r.drained);
    EXPECT_GT(r.measuredPackets, 100u);
    EXPECT_NEAR(r.acceptedFlitsPerNodeCycle,
                r.offeredFlitsPerNodeCycle,
                0.3 * r.offeredFlitsPerNodeCycle);
    EXPECT_GT(r.avgLatencyNs, 10.0);
}

TEST(Synthetic, ThroughputSaturates)
{
    // Accepted throughput grows with offered load, then flattens.
    double accepted[3];
    int i = 0;
    for (double rate : {0.01, 0.05, 0.5}) {
        SynFixture f;
        SyntheticConfig cfg;
        cfg.injectionRate = rate;
        cfg.measureCycles = 4000;
        accepted[i++] = runSynthetic(f.ctx, f.net, cfg)
                            .acceptedFlitsPerNodeCycle;
    }
    EXPECT_GT(accepted[1], 2.0 * accepted[0]);
    EXPECT_GT(accepted[2], accepted[1]); // still more at saturation
    EXPECT_LT(accepted[2], 4.0);          // bounded by link capacity
}

TEST(Synthetic, LatencyRisesWithLoad)
{
    double lat[2];
    int i = 0;
    for (double rate : {0.01, 0.30}) {
        SynFixture f;
        SyntheticConfig cfg;
        cfg.injectionRate = rate;
        cfg.measureCycles = 4000;
        lat[i++] = runSynthetic(f.ctx, f.net, cfg).avgLatencyNs;
    }
    EXPECT_GT(lat[1], 1.2 * lat[0]);
}

TEST(Synthetic, NearestNeighborIsSingleHop)
{
    SynFixture f;
    SyntheticConfig cfg;
    cfg.pattern = TrafficPattern::NearestNeighbor;
    cfg.injectionRate = 0.02;
    auto r = runSynthetic(f.ctx, f.net, cfg);
    EXPECT_TRUE(r.drained);
    EXPECT_DOUBLE_EQ(r.avgHops, 1.0);
}

TEST(Synthetic, TransposeHopsMatchGeometry)
{
    SynFixture f(4, 4);
    SyntheticConfig cfg;
    cfg.pattern = TrafficPattern::Transpose;
    cfg.injectionRate = 0.02;
    auto r = runSynthetic(f.ctx, f.net, cfg);
    EXPECT_TRUE(r.drained);
    // Transpose on a 4x4 torus: diagonal nodes stay put (and are
    // excluded as self-traffic is dropped... they still inject to
    // themselves -> loopback 0 hops); mean is below the diameter.
    EXPECT_GT(r.avgHops, 0.5);
    EXPECT_LE(r.avgHops, 4.0);
}

TEST(Synthetic, HotSpotSkewsTraffic)
{
    SynFixture f;
    SyntheticConfig cfg;
    cfg.pattern = TrafficPattern::HotSpot;
    cfg.hotspotNode = 5;
    cfg.hotspotFraction = 0.8;
    cfg.injectionRate = 0.02;
    auto r = runSynthetic(f.ctx, f.net, cfg);
    EXPECT_TRUE(r.drained);
    // The hot node's outbound links stay quiet relative to inbound;
    // simply assert the run completed and produced samples.
    EXPECT_GT(r.measuredPackets, 50u);
}

TEST(Synthetic, AdaptiveBeatsDeterministicUnderLoad)
{
    // The ablation: with adaptive routing disabled, saturation
    // latency is worse on tied paths.
    auto measure = [](bool adaptive) {
        NetworkParams p = NetworkParams::gs1280();
        p.adaptiveEnabled = adaptive;
        SynFixture f(4, 4, p);
        SyntheticConfig cfg;
        cfg.injectionRate = 0.25;
        cfg.measureCycles = 4000;
        return runSynthetic(f.ctx, f.net, cfg);
    };
    auto adaptive = measure(true);
    auto dor = measure(false);
    EXPECT_GE(adaptive.acceptedFlitsPerNodeCycle,
              0.95 * dor.acceptedFlitsPerNodeCycle);
    EXPECT_LT(adaptive.avgLatencyNs, dor.avgLatencyNs);
}

TEST(Synthetic, StoreAndForwardIsSlower)
{
    auto measure = [](bool cut) {
        NetworkParams p = NetworkParams::gs1280();
        p.cutThrough = cut;
        SynFixture f(4, 4, p);
        SyntheticConfig cfg;
        cfg.injectionRate = 0.01;
        return runSynthetic(f.ctx, f.net, cfg);
    };
    auto ct = measure(true);
    auto sf = measure(false);
    EXPECT_TRUE(ct.drained);
    EXPECT_TRUE(sf.drained);
    EXPECT_GT(sf.avgLatencyNs, 1.1 * ct.avgLatencyNs);
}

TEST(Synthetic, DeterministicAcrossRuns)
{
    auto run = [] {
        SynFixture f;
        SyntheticConfig cfg;
        cfg.injectionRate = 0.05;
        cfg.seed = 42;
        return runSynthetic(f.ctx, f.net, cfg);
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.measuredPackets, b.measuredPackets);
    EXPECT_DOUBLE_EQ(a.avgLatencyNs, b.avgLatencyNs);
}

} // namespace
