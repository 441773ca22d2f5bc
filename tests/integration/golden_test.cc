/**
 * @file
 * Golden-value regression tests: exact expected output committed
 * under tests/integration/golden/ for the pure-analytic benches
 * (Table 1 shuffle model, the Figure 14 latency model, the Figure 15
 * load-test model) plus one small fixed-seed simulation run. Any
 * drift in these numbers is a deliberate model change and must be
 * re-blessed by regenerating the files:
 *
 *     GS_UPDATE_GOLDEN=1 ./integration_test --gtest_filter='Golden*'
 *
 * then reviewing the diff like any other code change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analytic/latency_model.hh"
#include "analytic/loadtest_model.hh"
#include "analytic/shuffle_model.hh"
#include "sim/random.hh"
#include "sim/table.hh"
#include "system/machine.hh"
#include "system/xmesh.hh"
#include "topology/torus.hh"
#include "topology/torus3d.hh"
#include "workload/gups.hh"
#include "workload/load_test.hh"

namespace
{

using namespace gs;

/**
 * Compare @p actual against the committed golden file, or rewrite
 * the file when GS_UPDATE_GOLDEN is set in the environment.
 */
void
checkGolden(const std::string &name, const std::string &actual)
{
    const std::string path = std::string(GS_GOLDEN_DIR) + "/" + name;
    if (std::getenv("GS_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << actual;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with GS_UPDATE_GOLDEN=1 to create it)";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(actual, want.str())
        << "output of " << name << " drifted from its golden copy; "
        << "if the change is intentional, regenerate with "
        << "GS_UPDATE_GOLDEN=1 and review the diff";
}

// ---------------------------------------------------------------
// Table 1: shuffle-rewiring gains (pure graph model).
// ---------------------------------------------------------------

TEST(Golden, Table1ShuffleModel)
{
    std::ostringstream os;
    Table gains({"size", "aver. latency", "worst latency",
                 "bisection width"});
    Table abs({"size", "torus avg", "shuffle avg", "torus worst",
               "shuffle worst", "torus bisect", "shuffle bisect"});
    for (const auto &r : analytic::table1()) {
        const std::string size = std::to_string(r.width) + "x" +
                                 std::to_string(r.height);
        gains.addRow({size, Table::num(r.avgLatencyGain, 3),
                      Table::num(r.worstLatencyGain, 3),
                      Table::num(r.bisectionGain, 3)});
        abs.addRow({size, Table::num(r.torusAvg, 3),
                    Table::num(r.shuffleAvg, 3),
                    Table::num(r.torusWorst),
                    Table::num(r.shuffleWorst),
                    Table::num(r.torusBisection),
                    Table::num(r.shuffleBisection)});
    }
    gains.print(os);
    os << "\n";
    abs.print(os);
    checkGolden("table1_shuffle_model.txt", os.str());
}

// ---------------------------------------------------------------
// Figure 14 analytic layer: idle-latency scaling models.
// ---------------------------------------------------------------

TEST(Golden, LatencyModel)
{
    std::ostringstream os;
    Table t({"cpus", "torus", "GS1280 model ns", "GS320 model ns"});
    struct Shape
    {
        int w, h;
    };
    // The machine sizes of Figure 14 (GS320 capped at 32 CPUs).
    const std::vector<Shape> shapes = {{2, 2},  {4, 2},  {4, 4},
                                       {8, 4},  {8, 8},  {16, 8},
                                       {16, 16}};
    for (const auto &s : shapes) {
        const int cpus = s.w * s.h;
        topo::Torus2D torus(s.w, s.h);
        t.addRow({Table::num(cpus),
                  std::to_string(s.w) + "x" + std::to_string(s.h),
                  Table::num(
                      analytic::avgIdleLatencyNs(torus, 83.0, 44.0),
                      2),
                  cpus <= 32
                      ? Table::num(analytic::gs320AvgLatencyNs(
                                       cpus, 4, 330.0, 860.0),
                                   2)
                      : "-"});
    }
    t.print(os);

    os << "\n";
    Table q({"rho", "M/M/1 ns (service 100)"});
    for (double rho : {0.0, 0.25, 0.5, 0.75, 0.9, 0.95})
        q.addRow({Table::num(rho, 2),
                  Table::num(analytic::mm1LatencyNs(100.0, rho), 2)});
    q.print(os);
    checkGolden("latency_model.txt", os.str());
}

// ---------------------------------------------------------------
// Scale-out analytic layer: the bench/ext_scaling3d.cpp model table
// — 2-D vs 3-D torus at matched node counts (docs/SCALING.md). Pins
// the 3-D escape/adaptive routing's distance metric and the latency
// model on 6-port shapes up to 2048 nodes.
// ---------------------------------------------------------------

TEST(Golden, Scaling3DModel)
{
    std::ostringstream os;
    Table t({"nodes", "2D shape", "2D hops", "2D model ns",
             "3D shape", "3D hops", "3D model ns", "hop gain"});
    struct Shape3
    {
        int x, y, z;
    };
    const std::vector<Shape3> shapes = {
        {8, 8, 4}, {8, 8, 8}, {16, 8, 8}, {16, 16, 8}};
    auto avgHops = [](const topo::Topology &topo) {
        auto d = topo.distancesFrom(0);
        double sum = 0;
        for (int h : d)
            sum += h;
        return sum / static_cast<double>(d.size() - 1);
    };
    for (const auto &s : shapes) {
        const int nodes = s.x * s.y * s.z;
        auto [w, h] = sys::torusShape(nodes);
        topo::Torus2D t2(w, h);
        topo::Torus3D t3(s.x, s.y, s.z);
        const double h2 = avgHops(t2), h3 = avgHops(t3);
        t.addRow({Table::num(nodes),
                  std::to_string(w) + "x" + std::to_string(h),
                  Table::num(h2, 3),
                  Table::num(
                      analytic::avgIdleLatencyNs(t2, 83.0, 44.0), 2),
                  std::to_string(s.x) + "x" + std::to_string(s.y) +
                      "x" + std::to_string(s.z),
                  Table::num(h3, 3),
                  Table::num(
                      analytic::avgIdleLatencyNs(t3, 83.0, 44.0), 2),
                  Table::num(h2 / h3, 3)});
    }
    t.print(os);
    checkGolden("scaling3d_model.txt", os.str());
}

// ---------------------------------------------------------------
// Figure 15 analytic layer: load-test asymptotic bounds.
// ---------------------------------------------------------------

TEST(Golden, LoadtestModel)
{
    std::ostringstream os;
    analytic::LoadModelParams p; // the bench's defaults
    Table t({"outstanding/cpu", "bandwidth GB/s", "latency ns"});
    for (double w : {1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 30.0}) {
        auto pt = analytic::evaluateLoadPoint(p, w);
        t.addRow({Table::num(pt.outstanding, 1),
                  Table::num(pt.bandwidthGBs, 3),
                  Table::num(pt.latencyNs, 3)});
    }
    t.print(os);
    os << "\nsaturation knee: "
       << Table::num(analytic::saturationOutstanding(p), 4)
       << " outstanding/cpu\n";
    checkGolden("loadtest_model.txt", os.str());
}

// ---------------------------------------------------------------
// Fixed-seed simulation: a small GS1280 under the Figure 15 random
// remote-read generator. Exercises cores, caches, directory, torus
// routing and the stats pipeline end to end.
// ---------------------------------------------------------------

/** One fixed-seed run of the Figure 15 generator; returns the table
 *  text plus the event-kernel self-metrics of the run. */
struct SimRun
{
    std::string table;
    std::uint64_t fired;
    std::size_t peak;
};

SimRun
runFixedSeedSimulation()
{
    const std::uint64_t masterSeed = 1;
    const std::uint64_t reads = 400;
    auto m = sys::Machine::buildGS1280(8);

    std::vector<std::unique_ptr<wl::RandomRemoteReads>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < 8; ++c) {
        gens.push_back(std::make_unique<wl::RandomRemoteReads>(
            static_cast<NodeId>(c), 8, 8ULL << 20, reads,
            Rng::deriveSeed(masterSeed, static_cast<std::uint64_t>(c))));
        sources.push_back(gens.back().get());
    }
    EXPECT_TRUE(m->run(sources));

    std::ostringstream os;
    Table t({"cpu", "reads", "avg load-to-use ns"});
    for (int c = 0; c < 8; ++c) {
        const auto &st = m->core(c).stats();
        t.addRow({Table::num(c), Table::num(reads),
                  Table::num(st.elapsedNs() /
                                 static_cast<double>(reads),
                             3)});
    }
    t.print(os);
    return {os.str(), m->ctx().queue().firedCount(),
            m->ctx().queue().peakPending()};
}

TEST(Golden, FixedSeedSimulation)
{
    checkGolden("fixed_seed_simulation.txt",
                runFixedSeedSimulation().table);
}

// ---------------------------------------------------------------
// Router load test (the Figure 15 load test in miniature): a
// fixed-seed 8P random-remote-read run at two outstanding-request
// depths. Pins the router's bandwidth and latency, which must not
// move under router refactors — the SoA rework shipped against this
// file.
// ---------------------------------------------------------------

TEST(Golden, RouterLoadTest)
{
    const std::uint64_t masterSeed = 1;
    const std::uint64_t reads = 200;
    std::ostringstream os;
    Table t({"mlp", "bandwidth MB/s", "latency ns"});
    for (int mlp : {2, 8}) {
        sys::Gs1280Options opt;
        opt.mlp = mlp;
        auto m = sys::Machine::buildGS1280(8, opt);

        std::vector<std::unique_ptr<wl::RandomRemoteReads>> gens;
        std::vector<cpu::TrafficSource *> sources;
        for (int c = 0; c < 8; ++c) {
            gens.push_back(std::make_unique<wl::RandomRemoteReads>(
                static_cast<NodeId>(c), 8, 8ULL << 20, reads,
                Rng::deriveSeed(masterSeed,
                                static_cast<std::uint64_t>(c))));
            sources.push_back(gens.back().get());
        }
        Tick start = m->ctx().now();
        ASSERT_TRUE(m->run(sources, 20000 * tickMs));
        double ns = ticksToNs(m->ctx().now() - start);

        double bytes = 8.0 * static_cast<double>(reads) * 64.0;
        double lat = 0;
        for (int c = 0; c < 8; ++c)
            lat += m->node(c).stats().missLatencyNs.mean();
        t.addRow({Table::num(mlp), Table::num(bytes / ns * 1000.0, 3),
                  Table::num(lat / 8, 3)});
    }
    t.print(os);
    checkGolden("router_load_test.txt", os.str());
}

// ---------------------------------------------------------------
// Xmesh profiles (Figures 20/24/27 in miniature): an 8P hot-spot run
// and an 8P GUPS run on the 4x2 torus, monitored by sys::Xmesh. Every
// sample row is printed at full double precision, so any change to
// the monitor's windows, counters or arithmetic shows up bit for bit.
// ---------------------------------------------------------------

/** Every Xmesh row at %.17g, the mid-run heat map, and the CSV. */
std::string
xmeshProfile(const sys::Xmesh &mon)
{
    std::string out;
    char buf[64];
    auto num = [&](double v) {
        std::snprintf(buf, sizeof buf, " %.17g", v);
        out += buf;
    };
    for (const auto &s : mon.samples()) {
        out += std::to_string(s.when);
        num(s.avgMemUtil);
        num(s.avgLinkUtil);
        num(s.avgEastWest);
        num(s.avgNorthSouth);
        out += " |";
        for (double u : s.memUtil)
            num(u);
        out += '\n';
    }
    if (!mon.samples().empty())
        out += mon.heatmap(mon.samples()[mon.samples().size() / 2]);
    std::ostringstream csv;
    mon.dumpCsv(csv);
    out += csv.str();
    return out;
}

TEST(Golden, XmeshProfiles)
{
    const int cpus = 8;
    std::string out;
    {
        sys::Gs1280Options opt;
        opt.mlp = 8;
        auto m = sys::Machine::buildGS1280(cpus, opt);
        sys::Xmesh mon(*m, 25 * tickUs);
        mon.start();
        std::vector<std::unique_ptr<wl::HotSpotReads>> gens;
        std::vector<cpu::TrafficSource *> sources;
        for (int c = 0; c < cpus; ++c) {
            gens.push_back(std::make_unique<wl::HotSpotReads>(
                0, 64ULL << 20, 4000, 40 + static_cast<unsigned>(c)));
            sources.push_back(gens.back().get());
        }
        ASSERT_TRUE(m->run(sources, 20000 * tickMs));
        mon.stop();
        out += "hot spot, 8P\n" + xmeshProfile(mon);
    }
    {
        sys::Gs1280Options opt;
        opt.mlp = 8;
        auto m = sys::Machine::buildGS1280(cpus, opt);
        sys::Xmesh mon(*m, 15 * tickUs);
        mon.start();
        std::vector<std::unique_ptr<wl::Gups>> gens;
        std::vector<cpu::TrafficSource *> sources;
        for (int c = 0; c < cpus; ++c) {
            gens.push_back(std::make_unique<wl::Gups>(
                cpus, 64ULL << 20, 5000, 60 + static_cast<unsigned>(c)));
            sources.push_back(gens.back().get());
        }
        ASSERT_TRUE(m->run(sources, 20000 * tickMs));
        mon.stop();
        out += "\nGUPS, 8P\n" + xmeshProfile(mon);
    }
    checkGolden("xmesh_profiles.txt", out);
}

// The golden file pins the output against history; this pins it
// against itself. Two runs in one process must agree byte for byte
// and fire the same event count — the event kernel's (when, seq)
// order contract leaves no room for iteration-order or
// address-dependent drift.
TEST(Golden, FixedSeedSimulationRepeatsExactly)
{
    SimRun a = runFixedSeedSimulation();
    SimRun b = runFixedSeedSimulation();
    EXPECT_EQ(a.table, b.table);
    EXPECT_EQ(a.fired, b.fired);
    EXPECT_EQ(a.peak, b.peak);
}

} // namespace
