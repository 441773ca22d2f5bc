/**
 * @file
 * Extension: latency x-ray — regenerates the Figure 12/13 remote-
 * latency story as a per-stage breakdown. Every coherence miss of a
 * 16-CPU GS1280 pointer-chase sweep is span-traced (inject / VC-wait
 * / link / directory / DRAM / reply), and the table reports each
 * stage's mean and tail percentiles next to its share of the total.
 *
 * Two built-in cross-checks make this bench a regression gate:
 *  - per-stage means must sum to the end-to-end span mean within 1%
 *    (by construction every tick of a span lands in exactly one
 *    stage, so a drift means an attribution bug);
 *  - the measured load-to-use average is compared against the
 *    closed-form idle-latency model of Figure 14.
 */

#include <cmath>
#include <iostream>
#include <memory>
#include <string>

#include "analytic/latency_model.hh"
#include "common.hh"
#include "sim/args.hh"
#include "sim/trace_span.hh"

int
main(int argc, char **argv)
{
    using namespace gs;
    Args args(
        argc, argv,
        bench::withTelemetryArgs(bench::withEngineArgs(
            bench::withSweepArgs(
                {{"loads", "loads per probe (default 3000)"}}))));
    auto loads =
        static_cast<std::uint64_t>(args.getInt("loads", 3000));

    printBanner(std::cout,
                "Extension: latency x-ray, 16-CPU GS1280 (ns)");

    sys::Gs1280Options opt;
    opt.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    opt.threads = bench::machineThreads(args);
    bench::applyTileShape(args, opt);
    // Unlike the shared-plumbing benches this one IS the x-ray, so
    // sampling defaults to every miss rather than off.
    opt.spanSampleRate = args.getDouble("trace-sample", 1.0);
    if (opt.spanSampleRate <= 0.0 || opt.spanSampleRate > 1.0) {
        gs_fatal("--trace-sample=", opt.spanSampleRate,
                 ": expected a fraction in (0, 1]");
    }
    auto m = sys::Machine::buildGS1280(16, opt);
    bench::TelemetrySession session(args, *m);

    // CPU0 chases a cold chain in every CPU's region (the Figure 12
    // probe set); all 16 probes run on the one machine so the spans
    // accumulate into a single breakdown.
    double sumProbeNs = 0;
    for (int dst = 0; dst < 16; ++dst)
        sumProbeNs += bench::dependentLoadNs(*m, 0, dst, 16 << 20,
                                             64, loads);
    double measuredAvg = sumProbeNs / 16.0;

    // finish() merges the spans canonically and writes any requested
    // --stats-out / --span-trace files before we read the registry.
    session.finish();

    const auto &reg = m->telemetry();
    const double totalMean = reg.value("xray.total_ns");

    Table t({"stage", "mean", "p50", "p95", "p99", "share"});
    double stageSum = 0;
    for (int s = 0; s < trace::numStages; ++s) {
        const std::string base =
            std::string("xray.stage.") + trace::stageName(s) + "_ns";
        const double mean = reg.value(base);
        stageSum += mean;
        t.addRow({trace::stageName(s), Table::num(mean, 1),
                  Table::num(reg.value(base + ".p50"), 1),
                  Table::num(reg.value(base + ".p95"), 1),
                  Table::num(reg.value(base + ".p99"), 1),
                  Table::num(totalMean > 0
                                 ? 100.0 * mean / totalMean
                                 : 0.0,
                             1) +
                      "%"});
    }
    t.addRow({"total", Table::num(totalMean, 1),
              Table::num(reg.value("xray.total_ns.p50"), 1),
              Table::num(reg.value("xray.total_ns.p95"), 1),
              Table::num(reg.value("xray.total_ns.p99"), 1), "100%"});
    t.print(std::cout);

    const auto sampled =
        static_cast<std::uint64_t>(reg.value("xray.sampled"));
    const auto completed =
        static_cast<std::uint64_t>(reg.value("xray.completed"));
    std::cout << "\nspans: " << completed << " completed / " << sampled
              << " sampled (rate " << opt.spanSampleRate << ")\n";
    std::cout << "dram queueing: mean "
              << Table::num(reg.value("xray.dram.queue_ns"), 1)
              << " ns ahead of "
              << Table::num(reg.value("xray.dram.service_ns"), 1)
              << " ns service\n";

    // Cross-check 1: exhaustive stage attribution. Every span tick
    // lands in exactly one stage, so the stage means must sum to the
    // end-to-end mean; 1% of slack covers float accumulation only.
    const double drift =
        totalMean > 0 ? std::abs(stageSum - totalMean) / totalMean
                      : 0.0;
    std::cout << "stage-sum check: " << Table::num(stageSum, 2)
              << " vs total " << Table::num(totalMean, 2) << " ("
              << Table::num(100.0 * drift, 3) << "% drift)\n";
    if (drift > 0.01) {
        gs_fatal("per-stage breakdown drifted ",
                 100.0 * drift,
                 "% from the end-to-end span latency (budget 1%)");
    }

    // Cross-check 2: the closed-form idle model of Figure 14 on the
    // same topology. The probe average sits above the span total by
    // the core-side issue overhead the x-ray deliberately excludes.
    const double analytic =
        analytic::avgIdleLatencyNs(m->topology(), 83.0, 44.0);
    std::cout << "measured load-to-use average "
              << Table::num(measuredAvg, 0) << " ns vs analytic "
              << Table::num(analytic, 0) << " ns ("
              << Table::num(measuredAvg / analytic, 2) << "x)\n";
    return 0;
}
