/** @file Randomized protocol stress: many nodes, small caches, hot
 *  line sets, verified with the whole-machine coherence checker and
 *  a functional value model (single-writer serialization). */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>

#include "coherence/checker.hh"
#include "coherence/node.hh"
#include "net/network.hh"
#include "sim/random.hh"
#include "topology/torus.hh"

namespace
{

using namespace gs;
using namespace gs::coher;

struct StressParam
{
    int width;
    int height;
    int lines;   ///< distinct hot lines
    int opsPerCpu;
    std::uint64_t seed;
};

class CoherenceStress : public ::testing::TestWithParam<StressParam>
{
};

TEST_P(CoherenceStress, RandomSharingStaysCoherent)
{
    const StressParam prm = GetParam();

    SimContext ctx(prm.seed);
    topo::Torus2D topo(prm.width, prm.height);
    mem::NodeOwnedMap map;
    net::Network net(ctx, topo, net::NetworkParams::gs1280());

    NodeConfig cfg;
    cfg.l2.sizeBytes = 16 * mem::lineBytes; // tiny: force victims
    cfg.l2.ways = 2;
    cfg.victimBuffers = 4;
    cfg.mafEntries = 4;

    const int n = topo.numNodes();
    std::vector<std::unique_ptr<CoherentNode>> nodes;
    for (NodeId id = 0; id < n; ++id)
        nodes.push_back(
            std::make_unique<CoherentNode>(ctx, net, id, map, cfg));

    // Hot lines spread over every home.
    std::vector<mem::Addr> lines;
    for (int l = 0; l < prm.lines; ++l) {
        auto home = static_cast<NodeId>(l % n);
        lines.push_back(mem::regionBase(home) +
                        static_cast<std::uint64_t>(l / n) * 1024);
    }

    // Each CPU issues a random dependent stream of reads/writes.
    Rng rng(prm.seed * 7919 + 13);
    int completed = 0;
    int issued = 0;
    std::function<void(NodeId, int)> issueNext = [&](NodeId id,
                                                     int left) {
        if (left == 0)
            return;
        mem::Addr a = lines[rng.below(lines.size())];
        bool write = rng.chance(0.4);
        issued += 1;
        nodes[std::size_t(id)]->memAccess(a, write,
                                          [&, id, left] {
            completed += 1;
            issueNext(id, left - 1);
        });
    };
    for (NodeId id = 0; id < n; ++id)
        issueNext(id, prm.opsPerCpu);

    // At random points of the run, the O(1) quiesced() must agree
    // with a scan of every node's tables (MAF, victim buffer, Busy
    // directory lines, queued home requests).
    Rng probeRng(prm.seed * 31 + 5);
    int probes = 0;
    int busyProbes = 0;
    std::function<void()> probe = [&] {
        probes += 1;
        bool anyBusy = false;
        for (auto &node : nodes) {
            ASSERT_EQ(node->quiesced(), node->quiescedByScan())
                << "node " << node->id() << " at tick " << ctx.now();
            anyBusy = anyBusy || !node->quiesced();
        }
        busyProbes += anyBusy ? 1 : 0;
        if (completed < n * prm.opsPerCpu)
            ctx.queue().schedule(nsToTicks(1.0 + double(probeRng.below(
                                                     200))),
                                 probe);
    };
    ctx.queue().schedule(1, probe);

    ctx.queue().runUntil(ctx.now() + 500 * tickMs);
    ASSERT_EQ(completed, issued) << "stress run did not drain";
    ASSERT_EQ(completed, n * prm.opsPerCpu);
    EXPECT_GT(busyProbes, 10)
        << "only " << busyProbes << " of " << probes
        << " probes saw the protocol busy";
    for (auto &node : nodes)
        EXPECT_TRUE(node->quiesced() && node->quiescedByScan());

    std::vector<CoherentNode *> all;
    for (auto &node : nodes)
        all.push_back(node.get());
    auto check = verifyCoherence(all);
    EXPECT_TRUE(check.ok) << check.firstViolation;
    EXPECT_EQ(net.inFlight(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, CoherenceStress,
    ::testing::Values(StressParam{2, 2, 4, 150, 1},
                      StressParam{2, 2, 1, 200, 2},  // single hot line
                      StressParam{4, 2, 8, 120, 3},
                      StressParam{4, 4, 16, 80, 4},
                      StressParam{4, 4, 3, 100, 5},
                      StressParam{8, 4, 32, 40, 6},
                      StressParam{2, 1, 2, 300, 7},
                      StressParam{4, 4, 64, 60, 8}));

/**
 * Functional single-writer check: a chain of counter increments on
 * one line by alternating writers must serialize; we model the value
 * out-of-band and verify every increment observed the previous one.
 */
TEST(CoherenceStress, IncrementChainSerializes)
{
    SimContext ctx(42);
    topo::Torus2D topo(2, 2);
    mem::NodeOwnedMap map;
    net::Network net(ctx, topo, net::NetworkParams::gs1280());

    NodeConfig cfg;
    std::vector<std::unique_ptr<CoherentNode>> nodes;
    for (NodeId id = 0; id < 4; ++id)
        nodes.push_back(
            std::make_unique<CoherentNode>(ctx, net, id, map, cfg));

    const mem::Addr line = mem::regionBase(3);
    int value = 0;
    int rounds = 0;
    constexpr int total = 64;

    std::function<void()> step = [&] {
        if (rounds == total)
            return;
        NodeId who = static_cast<NodeId>(rounds % 4);
        int expected = rounds;
        rounds += 1;
        nodes[std::size_t(who)]->memAccess(line, true,
                                           [&, expected] {
            // The write completes while this node owns the line
            // exclusively; the increment must see the prior value.
            EXPECT_EQ(value, expected);
            value += 1;
            step();
        });
    };
    step();
    ctx.queue().runUntil(ctx.now() + 100 * tickMs);
    EXPECT_EQ(value, total);

    std::vector<CoherentNode *> all;
    for (auto &node : nodes)
        all.push_back(node.get());
    EXPECT_TRUE(verifyCoherence(all).ok);
}

} // namespace
