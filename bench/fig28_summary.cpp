/**
 * @file
 * Figure 28: summary comparisons — GS1280 advantage over GS320 as
 * performance ratios, across system components and workloads.
 *
 * Every row this library reproduces is measured (simulation) or
 * evaluated (analytic model) here, next to the paper's reading. The
 * ISV application rows (Nastran/StarCD/Dyna/MM5/Nwchem/Gaussian)
 * aggregate proprietary workloads we do not model individually; see
 * EXPERIMENTS.md.
 */

#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "common.hh"
#include "cpu/analytic_core.hh"
#include "sim/args.hh"
#include "workload/gups.hh"
#include "workload/load_test.hh"
#include "workload/commercial.hh"
#include "workload/hptc_apps.hh"
#include "workload/nas_sp.hh"
#include "workload/spec_profiles.hh"
#include "workload/spec_rate.hh"

namespace
{

using namespace gs;

double
gupsMups(sys::Machine &m, int cpus, std::uint64_t updates, int mlp)
{
    (void)mlp;
    std::vector<std::unique_ptr<wl::Gups>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        gens.push_back(std::make_unique<wl::Gups>(
            cpus, 256ULL << 20, updates, 40 + static_cast<unsigned>(c)));
        sources.push_back(gens.back().get());
    }
    Tick start = m.ctx().now();
    if (!m.run(sources, 30000 * tickMs))
        return 0;
    double s = ticksToNs(m.ctx().now() - start) * 1e-9;
    return cpus * static_cast<double>(updates) / s / 1e6;
}

double
aggregateReadBw(sys::Machine &m, int cpus, std::uint64_t reads)
{
    std::vector<std::unique_ptr<wl::RandomRemoteReads>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        gens.push_back(std::make_unique<wl::RandomRemoteReads>(
            c, cpus, 512ULL << 20, reads, 77 + static_cast<unsigned>(c)));
        sources.push_back(gens.back().get());
    }
    Tick start = m.ctx().now();
    if (!m.run(sources, 30000 * tickMs))
        return 0;
    double ns = ticksToNs(m.ctx().now() - start);
    return cpus * static_cast<double>(reads) * 64.0 / ns; // GB/s
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(argc, argv,
              bench::withSweepArgs({{"fast", "skip the 32P simulations"}}));
    const bool fast = args.getBool("fast", false);
    SweepRunner runner = bench::makeRunner(args);

    printBanner(std::cout,
                "Figure 28: GS1280/1.15GHz advantage vs GS320/1.2GHz "
                "(performance ratios)");

    // One declared point per row, in table order: each builds its
    // own machines (or evaluates a model), so --jobs runs them
    // side by side and the rows come back in this order.
    using RowFn = std::function<bench::Row()>;
    std::vector<RowFn> rows;

    // CPU speed: same core, comparable clock.
    rows.push_back([] {
        return bench::Row{"CPU speed", Table::num(1.15 / 1.2, 2), "~0.96",
                          "params"};
    });

    // Memory copy bandwidth, 1 CPU (STREAM-like).
    rows.push_back([] {
        auto a = sys::Machine::buildGS1280(1);
        auto b = sys::Machine::buildGS320(4);
        double r = bench::streamTriadGBs(*a, 1, 4 << 20) /
                   bench::streamTriadGBs(*b, 1, 4 << 20);
        return bench::Row{"memory copy bw (1P)", Table::num(r, 1), "~4",
                          "sim"};
    });

    // Memory copy bandwidth, 32 CPUs.
    if (!fast) {
        rows.push_back([] {
            auto a = sys::Machine::buildGS1280(32);
            auto b = sys::Machine::buildGS320(32);
            double r = bench::streamTriadGBs(*a, 32, 1 << 20) /
                       bench::streamTriadGBs(*b, 32, 1 << 20);
            return bench::Row{"memory copy bw (32P)", Table::num(r, 1),
                              "~8", "sim"};
        });
    }

    // Local memory latency.
    rows.push_back([] {
        auto a = sys::Machine::buildGS1280(4);
        auto b = sys::Machine::buildGS320(4);
        double r = bench::dependentLoadNs(*b, 0, 0, 64 << 20, 64,
                                          2000) /
                   bench::dependentLoadNs(*a, 0, 0, 32 << 20, 64,
                                          4000);
        return bench::Row{"memory latency (local)", Table::num(r, 1),
                          "~3.9", "sim"};
    });

    // Remote (clean) latency at 16P as the dirty-remote proxy is in
    // fig12; keep the clean ratio here.
    rows.push_back([] {
        auto a = sys::Machine::buildGS1280(16);
        auto b = sys::Machine::buildGS320(16);
        double r = bench::dependentLoadNs(*b, 0, 12, 64 << 20, 64,
                                          1500) /
                   bench::dependentLoadNs(*a, 0, 10, 16 << 20, 64,
                                          3000);
        return bench::Row{"memory latency (remote)", Table::num(r, 1),
                          "4-6.6", "sim"};
    });

    // Inter-processor bandwidth at 16/32P.
    rows.push_back([fast] {
        int cpus = fast ? 16 : 32;
        sys::Gs1280Options opt;
        opt.mlp = 16;
        auto a = sys::Machine::buildGS1280(cpus, opt);
        auto b = sys::Machine::buildGS320(cpus);
        double r = aggregateReadBw(*a, cpus, 1200) /
                   aggregateReadBw(*b, cpus, 300);
        return bench::Row{"Inter-Processor bandwidth", Table::num(r, 1),
                          ">10", "sim"};
    });

    // I/O bandwidth: per-node 3.1 GB/s full duplex x nodes vs the
    // GS320's shared I/O risers (~0.4 GB/s per QBB).
    rows.push_back([] {
        return bench::Row{"I/O bandwidth (32P)",
                          Table::num(32 * 3.1 / (8 * 1.6), 1), "~8",
                          "params"};
    });

    // SPEC rate rows (analytic model).
    rows.push_back([] {
        double in = wl::specRate(wl::specInt2000(),
                                 wl::RateSystem::GS1280, 16) /
                    wl::specRate(wl::specInt2000(),
                                 wl::RateSystem::GS320, 16);
        return bench::Row{"SPECint_rate2000 (16P)", Table::num(in, 1),
                          "~1.1", "model"};
    });
    rows.push_back([] {
        return bench::Row{
            "SAP SD Transaction Processing (32P)",
            Table::num(wl::commercialAdvantage(wl::sapSd(), 32), 1),
            "~1.3", "model"};
    });
    rows.push_back([] {
        return bench::Row{
            "Decision Support (32P)",
            Table::num(wl::commercialAdvantage(wl::decisionSupport(), 32),
                       1),
            "~1.6", "model"};
    });
    rows.push_back([] {
        double fp = wl::specRate(wl::specFp2000(),
                                 wl::RateSystem::GS1280, 16) /
                    wl::specRate(wl::specFp2000(),
                                 wl::RateSystem::GS320, 16);
        return bench::Row{"SPECfp_rate2000 (16P)", Table::num(fp, 1),
                          "~2.0", "model"};
    });

    // NAS SP (simulated, 8P to keep the run short).
    rows.push_back([] {
        auto run = [](sys::Machine &m, int cpus) {
            std::vector<std::unique_ptr<wl::NasSP>> ranks;
            std::vector<cpu::TrafficSource *> sources;
            wl::NasSpParams p;
            p.sweepLines = 4096;
            for (int c = 0; c < cpus; ++c) {
                ranks.push_back(
                    std::make_unique<wl::NasSP>(c, cpus, p));
                sources.push_back(ranks.back().get());
            }
            Tick start = m.ctx().now();
            m.run(sources, 30000 * tickMs);
            return ticksToNs(m.ctx().now() - start);
        };
        auto a = sys::Machine::buildGS1280(8);
        auto b = sys::Machine::buildGS320(8);
        double r = run(*b, 8) / run(*a, 8);
        return bench::Row{"NAS Parallel SP (8P)", Table::num(r, 1), "~2.6",
                          "sim"};
    });

    // HPTC ISV application rows (modelled profiles; see
    // docs/CALIBRATION.md and src/workload/hptc_apps.cc).
    for (const wl::HptcApp &app : wl::hptcApplications()) {
        rows.push_back([&app] {
            char paper[16];
            std::snprintf(paper, sizeof paper, "~%.1f", app.paperRatio);
            return bench::Row{app.profile.name + " (" +
                                  std::to_string(app.paperCpus) + "P)",
                              Table::num(wl::hptcAdvantage(app), 1),
                              paper, "model"};
        });
    }

    // swim (the paper's SPEComp poster child).
    rows.push_back([] {
        const auto &swim = wl::specProfile("swim");
        double r =
            cpu::evaluateIpc(swim, cpu::MachineTiming::gs1280()).ipc /
            cpu::evaluateIpc(swim, cpu::MachineTiming::gs320()).ipc;
        return bench::Row{"swim (32P SPEComp)", Table::num(r, 1), "~4",
                          "model"};
    });

    // GUPS.
    rows.push_back([fast] {
        int cpus = fast ? 8 : 16;
        sys::Gs1280Options opt;
        opt.mlp = 16;
        auto a = sys::Machine::buildGS1280(cpus, opt);
        auto b = sys::Machine::buildGS320(cpus);
        double r = gupsMups(*a, cpus, 1200, 16) /
                   gupsMups(*b, cpus, 300, 16);
        return bench::Row{"GUPS", Table::num(r, 1), ">10", "sim"};
    });

    Table t = bench::sweepTable(
        runner, {"metric", "this work", "paper", "source"}, rows,
        [](const RowFn &row, SweepPoint) { return row(); });
    t.print(std::cout);
    std::cout << "\nISV rows are modelled from each code's memory "
                 "character (src/workload/hptc_apps.cc); Fluent's "
                 "class is additionally simulated in bench/fig19.\n";
    return 0;
}
