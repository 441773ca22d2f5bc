/**
 * @file
 * Figure 14: average load-to-use latency vs CPU count (4-64),
 * GS1280 vs GS320 — simulated per-destination probes averaged over
 * all pairs via topology symmetry, cross-checked against the
 * closed-form model.
 */

#include <iostream>

#include "analytic/latency_model.hh"
#include "common.hh"
#include "sim/args.hh"
#include "topology/torus.hh"

namespace
{

using namespace gs;

/** One independent latency probe of the sweep. */
struct Probe
{
    sys::SystemKind kind;
    int cpus;
    int dst;
    std::uint64_t loads;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withCheckpointArgs(bench::withTelemetryArgs(
                  bench::withEngineArgs(bench::withSweepArgs(
                      {{"loads", "loads per probe (default 3000)"}})))));
    auto loads = static_cast<std::uint64_t>(args.getInt("loads", 3000));
    int threads = bench::machineThreads(args);
    auto runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Figure 14: average load-to-use latency (ns) vs CPUs");

    const std::vector<int> cpuCounts = {4, 8, 16, 32, 64};

    // Declare every probe up front: GS1280 node 0 -> every
    // destination (vertex-transitive torus, so node 0's average is
    // the machine average), GS320 local + worst remote.
    std::vector<Probe> probes;
    for (int cpus : cpuCounts) {
        for (int dst = 0; dst < cpus; ++dst)
            probes.push_back(
                {sys::SystemKind::GS1280, cpus, dst, loads});
        if (cpus <= 32) {
            probes.push_back(
                {sys::SystemKind::GS320, cpus, 0, loads / 2});
            if (cpus > 4)
                probes.push_back({sys::SystemKind::GS320, cpus,
                                  cpus - 1, loads / 2});
        }
    }

    auto ns = runner.map(
        probes, [&](const Probe &p, SweepPoint) -> double {
            if (p.kind == sys::SystemKind::GS1280) {
                sys::Gs1280Options opt;
                // bit-identical at any value for a fixed tile shape
                opt.threads = threads;
                bench::applyTileShape(args, opt);
                auto m = sys::Machine::buildGS1280(p.cpus, opt);
                return bench::dependentLoadNs(*m, 0, p.dst, 16 << 20,
                                              64, p.loads);
            }
            auto m = sys::Machine::buildGS320(p.cpus);
            return bench::dependentLoadNs(*m, 0, p.dst, 64 << 20, 64,
                                          p.loads);
        });

    Table t({"#CPUs", "GS1280 (sim)", "GS1280 (model)",
             "GS320 (sim)", "GS320 (model)"});
    std::size_t at = 0;
    for (int cpus : cpuCounts) {
        double sum = 0;
        for (int dst = 0; dst < cpus; ++dst)
            sum += ns[at++];
        double sim1280 = sum / cpus;

        auto [w, h] = sys::torusShape(cpus);
        topo::Torus2D torus(w, h);
        double model1280 =
            analytic::avgIdleLatencyNs(torus, 83.0, 44.0);

        std::string sim320 = "-", model320 = "-";
        if (cpus <= 32) {
            double local = ns[at++];
            double remote = cpus > 4 ? ns[at++] : local;
            int perQbb = std::min(cpus, 4);
            double avg = (perQbb * local + (cpus - perQbb) * remote) /
                         cpus;
            sim320 = Table::num(avg, 0);
            model320 = Table::num(
                analytic::gs320AvgLatencyNs(cpus, 4, local, remote),
                0);
        }

        t.addRow({Table::num(cpus), Table::num(sim1280, 0),
                  Table::num(model1280, 0), sim320, model320});
    }
    t.print(std::cout);

    std::cout << "\npaper shape: GS1280 grows gently (~180 ns at 16P, "
                 "~280 ns at 64P); GS320 sits at ~700-850 ns beyond "
                 "one QBB\n";

    // The probes above are sweep points on short-lived machines; the
    // observed run is a separate 16P GS1280 probe (CPU 0 chasing the
    // far-corner node) with the telemetry and checkpoint sessions
    // attached. A run restored via --restore-from reproduces the
    // uninterrupted run's --stats-out export byte-for-byte — the CI
    // determinism lane byte-compares exactly that.
    if (args.has("stats-out") || args.has("trace") ||
        args.getBool("verbose", false) ||
        args.has("checkpoint-every") || args.has("restore-from")) {
        auto master =
            static_cast<std::uint64_t>(args.getInt("seed", 1));
        sys::Gs1280Options opt;
        opt.seed = master;
        opt.threads = threads;
        bench::applyTileShape(args, opt);
        auto m = sys::Machine::buildGS1280(16, opt);
        bench::TelemetrySession session(args, *m);
        bench::CheckpointSession ckpt(args, *m, session.sampler());

        wl::PointerChase chase(m->cpuAddr(10, 0), 16 << 20, 64,
                               loads);
        std::vector<cpu::TrafficSource *> sources(16, nullptr);
        sources[0] = &chase;
        ckpt.maybeRestore(sources);
        bool ok = m->run(sources);
        session.finish();
        std::cout << "\ninstrumented 16P probe (0 -> 10): "
                  << (ok ? Table::num(
                               m->core(0).stats().elapsedNs() /
                                   static_cast<double>(loads),
                               1) + " ns/load"
                         : std::string("timed out"));
        if (args.has("stats-out"))
            std::cout << ", stats -> "
                      << args.getString("stats-out", "");
        std::cout << "\n";
    }
    return 0;
}
