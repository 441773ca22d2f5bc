/**
 * @file
 * Figure 15: the interconnect load test. Every CPU issues random
 * remote reads; the outstanding-request count sweeps up and the
 * curve traces delivered bandwidth (x) against observed latency (y).
 *
 * Paper shape: the GS1280 curves stay low and flat far longer than
 * the GS320's (which saturates almost immediately); past saturation
 * the GS1280's delivered bandwidth *decreases* as latency climbs —
 * the adaptive-network phenomenon the paper remarks on.
 */

#include <iostream>
#include <memory>

#include "common.hh"
#include "sim/args.hh"
#include "workload/load_test.hh"

namespace
{

using namespace gs;

struct Point
{
    double bwMBs;
    double latencyNs;
};

Point
loadPoint(sys::SystemKind kind, int cpus, int outstanding,
          std::uint64_t reads, std::uint64_t seed)
{
    std::unique_ptr<sys::Machine> m;
    if (kind == sys::SystemKind::GS1280) {
        sys::Gs1280Options opt;
        opt.mlp = outstanding;
        m = sys::Machine::buildGS1280(cpus, opt);
    } else {
        m = sys::Machine::buildGS320(cpus, 1, outstanding);
    }

    std::vector<std::unique_ptr<wl::RandomRemoteReads>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        gens.push_back(std::make_unique<wl::RandomRemoteReads>(
            c, cpus, 512ULL << 20, reads,
            Rng::deriveSeed(seed, static_cast<std::uint64_t>(c))));
        sources.push_back(gens.back().get());
    }

    Tick start = m->ctx().now();
    bool ok = m->run(sources, 20000 * tickMs);
    double ns = ticksToNs(m->ctx().now() - start);
    if (!ok)
        return Point{0, 0};

    double bytes = static_cast<double>(cpus) *
                   static_cast<double>(reads) * 64.0;
    double lat = 0;
    for (int c = 0; c < cpus; ++c)
        lat += m->node(c).stats().missLatencyNs.mean();
    return Point{bytes / ns * 1000.0, lat / cpus};
}

/** One sweep: a named (system, CPU-count) latency/bandwidth curve. */
struct Curve
{
    const char *name;
    sys::SystemKind kind;
    int cpus;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withSweepArgs(
                  {{"reads", "reads per CPU per point (default 600)"},
                   {"full", "include the 64P sweep (slow)"}}));
    auto reads = static_cast<std::uint64_t>(args.getInt("reads", 600));
    bool full = args.getBool("full", false);
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Figure 15: load test, latency (ns) vs delivered "
                "bandwidth (MB/s)");

    const std::vector<int> outs = {1, 2, 4, 8, 12, 16, 24, 30};

    std::vector<Curve> curves = {
        {"GS1280 16P", sys::SystemKind::GS1280, 16},
        {"GS1280 32P", sys::SystemKind::GS1280, 32},
    };
    if (full)
        curves.push_back({"GS1280 64P", sys::SystemKind::GS1280, 64});
    curves.push_back({"GS320 16P", sys::SystemKind::GS320, 16});
    curves.push_back({"GS320 32P", sys::SystemKind::GS320, 32});

    // Flatten (curve x outstanding) into one declared point list.
    struct Task
    {
        Curve curve;
        int outstanding;
    };
    std::vector<Task> tasks;
    for (const auto &c : curves)
        for (int o : outs)
            tasks.push_back({c, o});

    auto measured = runner.map(
        tasks, [&](const Task &tk, SweepPoint sp) -> Point {
            return loadPoint(tk.curve.kind, tk.curve.cpus,
                             tk.outstanding, reads, sp.seed);
        });

    std::size_t at = 0;
    for (const auto &c : curves) {
        Table t({"outstanding", "bandwidth MB/s", "latency ns"});
        for (int o : outs) {
            const Point &p = measured[at++];
            t.addRow({Table::num(o), Table::num(p.bwMBs, 0),
                      Table::num(p.latencyNs, 0)});
        }
        std::cout << "\n-- " << c.name << " --\n";
        t.print(std::cout);
    }

    std::cout << "\npaper shape: GS1280 gains bandwidth with modest "
                 "latency growth; GS320 latency explodes at ~1/10th "
                 "the bandwidth\n";
    return 0;
}
