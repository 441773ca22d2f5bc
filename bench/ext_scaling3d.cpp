/**
 * @file
 * Scale-out extension (docs/SCALING.md): the 2-D vs 3-D torus at
 * matched node counts, 256P-2048P. The 2-D column is the analytic
 * model on the shape torusShape() would pick (the paper's machines
 * stop at 64P; these are the "what if HP had kept folding" shapes);
 * the 3-D column is the same model on the slab-stacked shape plus
 * simulated dependent-load probes and the lazy bytes/node gauge on
 * the real machine.
 *
 * With --gups-updates the bench also runs an aggregate-stats GUPS
 * on one 3-D machine (default 8x8x8 = 512P) — the CI scale-smoke
 * lane runs exactly that at --threads 1 vs 4 under a pinned
 * --tile-shape and byte-compares the output (docs/PARALLEL.md).
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include "analytic/latency_model.hh"
#include "common.hh"
#include "sim/args.hh"
#include "sim/random.hh"
#include "topology/torus.hh"
#include "topology/torus3d.hh"
#include "workload/gups.hh"

namespace
{

using namespace gs;

/** One machine size of the sweep: N = x*y*z nodes both ways. */
struct Shape3D
{
    int x, y, z;

    int nodes() const { return x * y * z; }
    std::string
    name() const
    {
        return std::to_string(x) + "x" + std::to_string(y) + "x" +
               std::to_string(z);
    }
};

/** Mean hop count from node 0 to every other node (the torus is
 *  vertex-transitive, so node 0's average is the machine average). */
double
avgHops(const topo::Topology &topo)
{
    auto d = topo.distancesFrom(0);
    double sum = 0;
    for (int h : d)
        sum += h;
    return sum / static_cast<double>(d.size() - 1);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(
        argc, argv,
        bench::withEngineArgs(bench::withSweepArgs(
            {{"loads", "dependent loads per probe (default 1200)"},
             {"gups-updates",
              "also run a 3-D GUPS with this many updates per CPU "
              "and print aggregate stats (default 0 = off)"},
             {"gups-shape",
              "XxYxZ shape of the GUPS machine (default 8x8x8)"}})));
    auto loads = static_cast<std::uint64_t>(args.getInt("loads", 1200));
    int threads = bench::machineThreads(args);
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Scale-out: 2-D vs 3-D torus at matched node counts");

    const std::vector<Shape3D> shapes = {
        {8, 8, 4}, {8, 8, 8}, {16, 8, 8}, {16, 16, 8}};

    // Analytic comparison (mirrored by the Golden.Scaling3DModel row
    // in tests/integration/golden_test.cc): same node count, same
    // latency model, only the fold differs.
    Table model({"nodes", "2D shape", "2D hops", "2D model ns",
                 "3D shape", "3D hops", "3D model ns", "hop gain"});
    for (const auto &s : shapes) {
        auto [w, h] = sys::torusShape(s.nodes());
        topo::Torus2D t2(w, h);
        topo::Torus3D t3(s.x, s.y, s.z);
        double h2 = avgHops(t2), h3 = avgHops(t3);
        model.addRow(
            {Table::num(s.nodes()),
             std::to_string(w) + "x" + std::to_string(h),
             Table::num(h2, 3),
             Table::num(analytic::avgIdleLatencyNs(t2, 83.0, 44.0), 2),
             s.name(), Table::num(h3, 3),
             Table::num(analytic::avgIdleLatencyNs(t3, 83.0, 44.0), 2),
             Table::num(h2 / h3, 3)});
    }
    model.print(std::cout);

    // Simulated probes on the real 3-D machines: a one-hop neighbour
    // and the far corner, plus what the lazily-built machine actually
    // costs per node in host memory.
    std::cout << "\nsimulated 3-D probes (node 0, idle machine):\n";
    auto rows = runner.map(
        shapes, [&](const Shape3D &s, SweepPoint) -> bench::Row {
            sys::Gs1280Options opt;
            opt.threads = threads;
            bench::applyTileShape(args, opt);
            auto m = sys::Machine::buildGS1280_3D(s.x, s.y, s.z, opt);
            topo::Torus3D t3(s.x, s.y, s.z);
            NodeId far = t3.nodeAt(s.x / 2, s.y / 2, s.z / 2);
            double nearNs =
                bench::dependentLoadNs(*m, 0, 1, 4 << 20, 64, loads);
            double farNs = bench::dependentLoadNs(
                *m, 0, far, 4 << 20, 64, loads, 1 << 20);
            return {s.name(), Table::num(s.nodes()),
                    Table::num(nearNs, 1), Table::num(farNs, 1),
                    Table::num(
                        analytic::avgIdleLatencyNs(t3, 83.0, 44.0), 1),
                    Table::num(m->telemetry().value(
                                   "mem.bytes_per_node") /
                                   1024.0,
                               1)};
        });
    Table sim({"shape", "nodes", "1-hop ns", "far-corner ns",
               "model avg ns", "KiB/node"});
    for (auto &r : rows)
        sim.addRow(std::move(r));
    sim.print(std::cout);

    std::cout << "\nshape: the 3-D fold halves the diameter at every "
                 "matched size; 2048P lands near the 256P 2-D "
                 "machine's average hop count\n";

    // Optional GUPS leg: aggregate (per-CPU-free) stats only, so the
    // output is byte-comparable across worker-thread counts at any
    // machine size.
    auto gupsUpdates =
        static_cast<std::uint64_t>(args.getInt("gups-updates", 0));
    if (gupsUpdates > 0) {
        const std::string shape =
            args.getString("gups-shape", "8x8x8");
        int x = 0, y = 0, z = 0;
        if (std::sscanf(shape.c_str(), "%dx%dx%d", &x, &y, &z) != 3 ||
            x < 1 || y < 1 || z < 1)
            gs_fatal("--gups-shape=", shape, ": expected XxYxZ");

        sys::Gs1280Options opt;
        opt.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
        opt.threads = threads;
        bench::applyTileShape(args, opt);
        auto m = sys::Machine::buildGS1280_3D(x, y, z, opt);

        const int cpus = m->cpuCount();
        std::vector<std::unique_ptr<wl::Gups>> gens;
        std::vector<cpu::TrafficSource *> sources;
        for (int c = 0; c < cpus; ++c) {
            gens.push_back(std::make_unique<wl::Gups>(
                cpus, 1ULL << 20, gupsUpdates,
                Rng::deriveSeed(opt.seed,
                                static_cast<std::uint64_t>(c))));
            sources.push_back(gens.back().get());
        }
        bool ok = m->run(sources);
        std::uint64_t updates = 0;
        for (auto &g : gens)
            updates += g->updatesIssued();
        const auto &st = m->network().stats();

        printBanner(std::cout, "3-D GUPS " + shape + " (" +
                                   std::to_string(cpus) + "P)");
        Table g({"metric", "value"});
        g.addRow({"completed", ok ? "yes" : "timed out"});
        g.addRow({"updates", Table::num(updates)});
        g.addRow({"sim end ns",
                  Table::num(ticksToNs(m->ctx().now()), 0)});
        g.addRow({"packets injected", Table::num(st.injectedPackets)});
        g.addRow({"packets delivered",
                  Table::num(st.deliveredPackets)});
        g.addRow({"latency min ns", Table::num(st.latencyNs.min(), 2)});
        g.addRow({"latency max ns", Table::num(st.latencyNs.max(), 2)});
        g.addRow({"latency mean ns",
                  Table::num(st.latencyNs.mean(), 2)});
        g.addRow({"KiB/node (lazy)",
                  Table::num(m->telemetry().value(
                                 "mem.bytes_per_node") /
                                 1024.0,
                             1)});
        g.addRow({"dense/lazy reduction",
                  Table::num(m->telemetry().value("mem.reduction"),
                             2)});
        g.print(std::cout);
    }
    return 0;
}
