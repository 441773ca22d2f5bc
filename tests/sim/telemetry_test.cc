/** @file Unit tests for the telemetry registry/sampler/exporters. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/context.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"

namespace
{

using namespace gs;
using namespace gs::telem;

TEST(TelemetryPath, JoinsWithDots)
{
    EXPECT_EQ(path("node", 12, "router"), "node.12.router");
    EXPECT_EQ(path("net"), "net");
    EXPECT_EQ(path("port", 'E', "vc", 1), "port.E.vc.1");
}

TEST(Registry, RegistersEveryKind)
{
    std::uint64_t raw = 41;
    stats::Average avg;
    avg.sample(2.0);
    avg.sample(4.0);
    stats::Histogram hist(0.0, 10.0, 5);
    hist.sample(3.0);

    Registry reg;
    reg.addCounter("a.raw", raw);
    reg.addGauge("a.gauge", [] { return 2.5; });
    reg.addAverage("b.avg", avg);
    reg.addHistogram("b.hist", hist);

    EXPECT_EQ(reg.size(), 4u);
    EXPECT_TRUE(reg.has("a.raw"));
    EXPECT_FALSE(reg.has("a.missing"));
    EXPECT_DOUBLE_EQ(reg.value("a.raw"), 41.0);
    EXPECT_DOUBLE_EQ(reg.value("a.gauge"), 2.5);
    EXPECT_DOUBLE_EQ(reg.value("b.avg"), 3.0);

    // The registry holds pointers: later increments are visible.
    raw += 1;
    EXPECT_DOUBLE_EQ(reg.value("a.raw"), 42.0);
}

TEST(Registry, PathsAreSortedAndPrefixFiltered)
{
    std::uint64_t v = 0;
    Registry reg;
    reg.addCounter("node.1.flits", v);
    reg.addCounter("node.0.flits", v);
    reg.addCounter("net.injected", v);

    auto all = reg.paths();
    ASSERT_EQ(all.size(), 3u);
    EXPECT_EQ(all[0], "net.injected");
    EXPECT_EQ(all[1], "node.0.flits");
    EXPECT_EQ(all[2], "node.1.flits");

    auto nodes = reg.paths("node.");
    ASSERT_EQ(nodes.size(), 2u);
    EXPECT_EQ(nodes[0], "node.0.flits");
}

TEST(RegistryDeath, DuplicatePathIsFatal)
{
    std::uint64_t v = 0;
    Registry reg;
    reg.addCounter("x.y", v);
    EXPECT_EXIT(reg.addCounter("x.y", v),
                ::testing::ExitedWithCode(1),
                "duplicate telemetry path: x.y");
}

TEST(RegistryDeath, UnknownPathIsFatal)
{
    Registry reg;
    EXPECT_EXIT(reg.value("no.such"), ::testing::ExitedWithCode(1),
                "unknown telemetry path: no.such");
}

TEST(Registry, PercentileSuffixQueriesHistogram)
{
    stats::Histogram hist(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        hist.sample(static_cast<double>(i) + 0.5);

    Registry reg;
    reg.addHistogram("lat.ns", hist);

    EXPECT_NEAR(reg.value("lat.ns.p50"), 50.0, 1.0);
    EXPECT_NEAR(reg.value("lat.ns.p95"), 95.0, 1.0);
    EXPECT_NEAR(reg.value("lat.ns.p99"), 99.0, 1.0);
    // Fractional percentiles spell the decimal point as '_'.
    EXPECT_NEAR(reg.value("lat.ns.p99_5"), 99.5, 1.0);
    // The pNN view never shadows a real entry: the plain path still
    // answers with the histogram's scalar summary (its mean).
    EXPECT_NEAR(reg.value("lat.ns"), 50.0, 1.0);
}

TEST(Registry, PercentileOfEmptyHistogramIsNaN)
{
    stats::Histogram hist(0.0, 100.0, 100);
    Registry reg;
    reg.addHistogram("lat.ns", hist);
    EXPECT_TRUE(std::isnan(reg.value("lat.ns.p99")));
}

TEST(RegistryDeath, PercentileOnNonHistogramIsFatal)
{
    std::uint64_t hits = 0;
    Registry reg;
    reg.addCounter("hits", hits);
    EXPECT_EXIT(reg.value("hits.p50"), ::testing::ExitedWithCode(1),
                "percentile query on non-histogram telemetry path: "
                "hits.p50");
}

TEST(RegistryDeath, PercentileOutOfRangeIsFatal)
{
    stats::Histogram hist(0.0, 100.0, 100);
    hist.sample(1.0);
    Registry reg;
    reg.addHistogram("lat.ns", hist);
    EXPECT_EXIT(reg.value("lat.ns.p200"),
                ::testing::ExitedWithCode(1),
                "percentile out of range in telemetry query");
}

TEST(RegistryDeath, PercentileOnUnknownStemIsFatal)
{
    Registry reg;
    EXPECT_EXIT(reg.value("no.such.p50"),
                ::testing::ExitedWithCode(1),
                "unknown telemetry path: no.such.p50");
}

TEST(Sampler, SamplesOnCadence)
{
    SimContext ctx;
    std::uint64_t flits = 0;
    Registry reg;
    reg.addCounter("flits", flits);

    Sampler sampler(ctx, reg, 100);
    sampler.watch("flits");
    sampler.start();

    // +3 flits in the first interval, +5 in the second.
    ctx.queue().scheduleAt(50, [&] { flits += 3; });
    ctx.queue().scheduleAt(150, [&] { flits += 5; });
    ctx.queue().runUntil(250);

    ASSERT_EQ(sampler.times().size(), 2u);
    EXPECT_EQ(sampler.times()[0], Tick(100));
    EXPECT_EQ(sampler.times()[1], Tick(200));
    const auto &s = sampler.series().front();
    EXPECT_DOUBLE_EQ(s.values[0], 3.0);
    EXPECT_DOUBLE_EQ(s.values[1], 8.0);
}

TEST(Sampler, RateModeScalesDeltas)
{
    SimContext ctx;
    std::uint64_t busy = 0;
    Registry reg;
    reg.addCounter("busy", busy);

    // scale 2.0 over a 100-tick interval: delta * 2 / 100.
    Sampler sampler(ctx, reg, 100);
    sampler.watchRate("busy", 2.0);
    sampler.start();

    ctx.queue().scheduleAt(10, [&] { busy += 25; });
    ctx.queue().scheduleAt(110, [&] { busy += 50; });
    ctx.queue().runUntil(200);

    const auto &s = sampler.series().front();
    ASSERT_EQ(s.values.size(), 2u);
    EXPECT_DOUBLE_EQ(s.values[0], 0.5);
    EXPECT_DOUBLE_EQ(s.values[1], 1.0);
}

TEST(Sampler, StopEndsTheSeries)
{
    SimContext ctx;
    std::uint64_t v = 0;
    Registry reg;
    reg.addCounter("v", v);

    Sampler sampler(ctx, reg, 100);
    sampler.watch("v");
    sampler.start();
    ctx.queue().runUntil(300);
    sampler.stop();
    ctx.queue().runUntil(1000);
    EXPECT_EQ(sampler.times().size(), 3u);
}

TEST(Sampler, StopFlushesFinalPartialInterval)
{
    SimContext ctx;
    std::uint64_t busy = 0;
    Registry reg;
    reg.addCounter("busy", busy);

    Sampler sampler(ctx, reg, 100);
    sampler.watchRate("busy", 1.0);
    sampler.start();

    // One full interval (+40), then 50 ticks of tail (+30) that no
    // periodic sample covers. stop() must flush the tail, with the
    // rate scaled to the 50-tick window actually covered.
    ctx.queue().scheduleAt(60, [&] { busy += 40; });
    ctx.queue().scheduleAt(120, [&] { busy += 30; });
    ctx.queue().runUntil(150);
    sampler.stop();

    const auto &s = sampler.series().front();
    ASSERT_EQ(sampler.times().size(), 2u);
    EXPECT_EQ(sampler.times()[0], Tick(100));
    EXPECT_EQ(sampler.times()[1], Tick(150));
    EXPECT_DOUBLE_EQ(s.values[0], 0.4);
    EXPECT_DOUBLE_EQ(s.values[1], 0.6); // 30 flits / 50 ticks
}

TEST(Sampler, StopOnIntervalEdgeAddsNothing)
{
    SimContext ctx;
    std::uint64_t v = 0;
    Registry reg;
    reg.addCounter("v", v);

    Sampler sampler(ctx, reg, 100);
    sampler.watch("v");
    sampler.start();
    ctx.queue().runUntil(200);
    sampler.stop(); // exactly on a sample edge: nothing to flush
    EXPECT_EQ(sampler.times().size(), 2u);

    sampler.stop(); // idempotent
    EXPECT_EQ(sampler.times().size(), 2u);
}

TEST(Sampler, WatchPrefixSelectsSubtree)
{
    SimContext ctx;
    std::uint64_t v = 0;
    Registry reg;
    reg.addCounter("node.0.flits", v);
    reg.addCounter("node.1.flits", v);
    reg.addCounter("net.injected", v);

    Sampler sampler(ctx, reg, 100);
    EXPECT_EQ(sampler.watchPrefix("node."), 2);
    EXPECT_EQ(sampler.series().size(), 2u);
}

TEST(TraceWriter, EmitsChromeTraceJson)
{
    TraceWriter tw;
    tw.counter(2'000'000, "util", 0.5);
    tw.instant(3'000'000, "RdReq", 4);
    tw.complete(1'000'000, 500'000, "txn", 1);

    std::ostringstream os;
    tw.write(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"displayTimeUnit\":\"ns\""),
              std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    // ts converts ps -> us.
    EXPECT_NE(out.find("\"ts\":2"), std::string::npos);
    EXPECT_NE(out.find("\"s\":\"t\""), std::string::npos);
    EXPECT_NE(out.find("\"tid\":4"), std::string::npos);
}

TEST(TraceWriter, CapCountsDrops)
{
    TraceWriter tw(2);
    tw.instant(1, "a", 0);
    tw.instant(2, "b", 0);
    tw.instant(3, "c", 0);
    EXPECT_EQ(tw.size(), 2u);
    EXPECT_EQ(tw.dropped(), 1u);
}

TEST(Export, JsonCarriesStatsAndSeries)
{
    SimContext ctx;
    std::uint64_t flits = 9;
    stats::Average lat;
    lat.sample(100.0);
    Registry reg;
    reg.addCounter("link.flits", flits);
    reg.addAverage("latency_ns", lat);
    reg.addGauge("bad", [] { return std::nan(""); });

    Sampler sampler(ctx, reg, 100);
    sampler.watch("link.flits");
    sampler.start();
    ctx.queue().runUntil(200);

    std::ostringstream os;
    exportJson(os, reg, &sampler, ctx.now());
    const std::string out = os.str();
    EXPECT_NE(out.find("\"schema\":\"gs-telemetry-1\""),
              std::string::npos);
    EXPECT_NE(out.find("\"now_ps\":200"), std::string::npos);
    EXPECT_NE(out.find("\"link.flits\":9"), std::string::npos);
    EXPECT_NE(out.find("\"count\":1"), std::string::npos);
    EXPECT_NE(out.find("\"interval_ps\":100"), std::string::npos);
    EXPECT_NE(out.find("\"link.flits\":[9,9]"), std::string::npos);
    // Non-finite gauges become JSON null, never NaN text.
    EXPECT_NE(out.find("\"bad\":null"), std::string::npos);
    EXPECT_EQ(out.find("nan"), std::string::npos);
}

TEST(Export, CsvListsScalars)
{
    std::uint64_t v = 3;
    Registry reg;
    reg.addCounter("a.b", v);
    reg.addGauge("a.c", [] { return 1.5; });

    std::ostringstream os;
    exportCsv(os, reg);
    EXPECT_EQ(os.str(),
              "path,kind,value\na.b,counter,3\na.c,gauge,1.5\n");
}

TEST(Export, SeriesCsvIsWide)
{
    SimContext ctx;
    std::uint64_t v = 1;
    Registry reg;
    reg.addCounter("x", v);
    Sampler sampler(ctx, reg, 50);
    sampler.watch("x");
    sampler.start();
    ctx.queue().runUntil(100);

    std::ostringstream os;
    exportSeriesCsv(os, sampler);
    EXPECT_EQ(os.str(), "t_ps,x\n50,1\n100,1\n");
}

TEST(Export, IdenticalStateExportsIdenticalBytes)
{
    auto render = [] {
        SimContext ctx;
        std::uint64_t flits = 0;
        Registry reg;
        reg.addCounter("link.flits", flits);
        Sampler sampler(ctx, reg, 100);
        sampler.watchRate("link.flits", 1.0 / 3.0);
        sampler.start();
        for (Tick t = 10; t < 500; t += 70)
            ctx.queue().scheduleAt(t, [&] { flits += 7; });
        ctx.queue().runUntil(500);
        std::ostringstream os;
        exportJson(os, reg, &sampler, ctx.now());
        return os.str();
    };
    EXPECT_EQ(render(), render());
}

TEST(Export, WallClockGaugesAreReadableButNotExported)
{
    // par.barrier_wait_frac depends on host timing: it must stay
    // queryable for live diagnostics but never reach a snapshot
    // file, or byte-identical re-runs would diverge.
    Registry reg;
    std::uint64_t flits = 3;
    reg.addCounter("link.flits", flits);
    reg.addWallClockGauge("par.barrier_wait_frac", [] { return 0.25; });

    EXPECT_DOUBLE_EQ(reg.value("par.barrier_wait_frac"), 0.25);

    std::ostringstream js, csv;
    exportJson(js, reg, nullptr, 0);
    exportCsv(csv, reg);
    EXPECT_EQ(js.str().find("barrier_wait_frac"), std::string::npos);
    EXPECT_EQ(csv.str().find("barrier_wait_frac"), std::string::npos);
    EXPECT_NE(js.str().find("link.flits"), std::string::npos);
    EXPECT_NE(csv.str().find("link.flits"), std::string::npos);
}

} // namespace
