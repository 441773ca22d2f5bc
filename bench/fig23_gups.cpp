/**
 * @file
 * Figure 23: GUPS (Mupdates/s) vs CPU count — the paper's strongest
 * GS1280 result (>10x the GS320 at scale), with the bend at 32P
 * where the 8x4 torus's cross-sectional bandwidth matches the 16P
 * machine's.
 */

#include <iostream>
#include <memory>

#include "common.hh"
#include "sim/args.hh"
#include "workload/gups.hh"

namespace
{

using namespace gs;

double
mups(sys::Machine &m, int cpus, std::uint64_t updates,
     std::uint64_t seed)
{
    std::vector<std::unique_ptr<wl::Gups>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        gens.push_back(std::make_unique<wl::Gups>(
            cpus, 256ULL << 20, updates,
            Rng::deriveSeed(seed, static_cast<std::uint64_t>(c))));
        sources.push_back(gens.back().get());
    }
    Tick start = m.ctx().now();
    if (!m.run(sources, 30000 * tickMs))
        return 0;
    double seconds = ticksToNs(m.ctx().now() - start) * 1e-9;
    return static_cast<double>(cpus) *
           static_cast<double>(updates) / seconds / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withCheckpointArgs(
                  bench::withTelemetryArgs(bench::withEngineArgs(
                      bench::withSweepArgs(
                          {{"updates", "updates per CPU (default 1500)"},
                           {"full", "include the 64P point (slow)"}})))));
    auto updates =
        static_cast<std::uint64_t>(args.getInt("updates", 1500));
    bool full = args.getBool("full", false);
    int threads = bench::machineThreads(args);
    auto runner = bench::makeRunner(args);

    printBanner(std::cout, "Figure 23: GUPS (Mupdates/s) vs CPUs");

    std::vector<int> points;
    for (int cpus : {2, 4, 8, 16, 32, 64}) {
        if (cpus == 64 && !full)
            break;
        points.push_back(cpus);
    }

    auto t = bench::sweepTable(
        runner,
        {"#CPUs", "GS1280/1.15GHz", "GS320/1.2GHz",
         "ES45-class/1.25GHz"},
        points, [&](int cpus, SweepPoint sp) -> bench::Row {
            sys::Gs1280Options opt;
            opt.mlp = 16; // GUPS overlaps updates aggressively
            // bit-identical at any value for a fixed tile shape
            opt.threads = threads;
            bench::applyTileShape(args, opt);
            auto gs1280 = sys::Machine::buildGS1280(cpus, opt);
            double a = mups(*gs1280, cpus, updates,
                            Rng::deriveSeed(sp.seed, 0));

            std::string b = "-";
            if (cpus <= 32 && (cpus % 4 == 0 || cpus < 4)) {
                auto gs320 = sys::Machine::buildGS320(cpus);
                b = Table::num(mups(*gs320, cpus, updates / 4,
                                    Rng::deriveSeed(sp.seed, 1)),
                               1);
            }

            std::string c = "-";
            if (cpus <= 4) {
                auto es45 = sys::Machine::buildES45(cpus);
                c = Table::num(mups(*es45, cpus, updates / 2,
                                    Rng::deriveSeed(sp.seed, 2)),
                               1);
            }
            return {Table::num(cpus), Table::num(a, 1), b, c};
        });
    t.print(std::cout);

    std::cout << "\npaper shape: GS1280 climbs toward ~1000 Mup/s at "
                 "64P with a bend at 32P (bisection-limited 8x4 "
                 "torus); GS320 stays near ~50-100\n";

    // The sweep above spreads point machines across worker threads,
    // so the observed run is a separate one: the 32P (8x4) machine of
    // the Figure 24 discussion, with the telemetry session attached
    // for --stats-out / --trace / --verbose and the checkpoint
    // session for --checkpoint-every / --restore-from. A restored run
    // reproduces the uninterrupted run's stats export byte-for-byte.
    if (args.has("stats-out") || args.has("trace") ||
        args.getBool("verbose", false) ||
        args.has("checkpoint-every") || args.has("restore-from") ||
        args.has("trace-sample") || args.has("span-trace")) {
        auto master =
            static_cast<std::uint64_t>(args.getInt("seed", 1));
        sys::Gs1280Options opt;
        opt.mlp = 16;
        opt.seed = master;
        opt.threads = threads;
        bench::applyTileShape(args, opt);
        bench::applySpanSampling(args, opt);
        auto m = sys::Machine::buildGS1280(32, opt);
        bench::TelemetrySession session(args, *m);
        bench::CheckpointSession ckpt(args, *m, session.sampler());

        const std::uint64_t seed = Rng::deriveSeed(master, 0);
        std::vector<std::unique_ptr<wl::Gups>> gens;
        std::vector<cpu::TrafficSource *> sources;
        for (int c = 0; c < 32; ++c) {
            gens.push_back(std::make_unique<wl::Gups>(
                32, 256ULL << 20, updates,
                Rng::deriveSeed(seed, static_cast<std::uint64_t>(c))));
            sources.push_back(gens.back().get());
        }
        ckpt.maybeRestore(sources);
        Tick start = m->ctx().now();
        double rate = 0;
        if (m->run(sources, 30000 * tickMs)) {
            double seconds = ticksToNs(m->ctx().now() - start) * 1e-9;
            rate = 32.0 * static_cast<double>(updates) / seconds / 1e6;
        }
        session.finish();
        std::cout << "\ninstrumented 32P run: " << Table::num(rate, 1)
                  << " Mup/s";
        if (ckpt.restoring())
            std::cout << " (measured from the restored snapshot on)";
        if (args.has("stats-out"))
            std::cout << ", stats -> "
                      << args.getString("stats-out", "");
        if (args.has("trace"))
            std::cout << ", trace -> " << args.getString("trace", "");
        if (args.has("span-trace"))
            std::cout << ", spans -> "
                      << args.getString("span-trace", "");
        std::cout << "\n";
    }
    return 0;
}
