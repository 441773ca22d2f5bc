/**
 * @file
 * Simulator-performance microbenchmarks (google-benchmark): how fast
 * the substrate itself runs. Useful when sizing experiments — e.g.
 * a 64P GUPS run executes millions of events and these numbers say
 * what that costs on the host.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "coherence/node.hh"
#include "mem/cache.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/telemetry.hh"
#include "system/machine.hh"
#include "topology/torus.hh"
#include "workload/gups.hh"

// The frozen original router, kept verbatim as the A/B reference
// (tests/net/router_ab_test.cc proves bit-identity; BM_RouterStorm*
// below measures what the production router's hot path buys).
#include "../tests/net/legacy_router.hh"

namespace
{

using namespace gs;

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        eq.schedule(1, [&] { fired += 1; });
        eq.step();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueScheduleFire);

void
BM_EventQueueScheduleFireFar(benchmark::State &state)
{
    // Events landing beyond the calendar window: every schedule goes
    // through the overflow heap and migrates into the ring later.
    EventQueue eq;
    std::uint64_t fired = 0;
    const Tick far = EventQueue::horizon + 1;
    for (auto _ : state) {
        eq.schedule(1, [&] { fired += 1; });  // keeps the ring live
        eq.schedule(far, [&] { fired += 1; }); // parks in the heap
        eq.step();
        eq.step();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueScheduleFireFar);

void
BM_EventQueueMixed(benchmark::State &state)
{
    // Burst-and-drain with mixed offsets: same-tick ties, in-window
    // spreads and occasional far events — the simulator's steady
    // state in miniature.
    EventQueue eq;
    std::uint64_t fired = 0;
    Rng rng(42);
    for (auto _ : state) {
        for (int k = 0; k < 16; ++k) {
            Tick d = rng.below(4 * EventQueue::bucketWidth);
            if (k == 15)
                d = EventQueue::horizon + d;
            eq.schedule(d, [&] { fired += 1; });
        }
        eq.runUntil();
    }
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueMixed);

void
BM_EventQueueCaptureLarge(benchmark::State &state)
{
    // A capture bigger than InlineFn's buffer (a Packet by value
    // plus a pointer): the heap-fallback path, the cost every event
    // paid before handles shrank the hot captures.
    EventQueue eq;
    std::uint64_t sink = 0;
    net::Packet pkt;
    pkt.flits = net::dataFlits;
    static_assert(sizeof(net::Packet) + sizeof(void *) >
                      InlineFn::inlineCapacity,
                  "capture must overflow the inline buffer");
    for (auto _ : state) {
        eq.schedule(1, [pkt, &sink] {
            sink += static_cast<std::uint64_t>(pkt.flits);
        });
        eq.step();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueCaptureLarge);

void
BM_PacketPoolAcquireRelease(benchmark::State &state)
{
    net::PacketPool pool;
    net::Packet pkt;
    pkt.src = 0;
    pkt.dst = 1;
    pkt.flits = net::dataFlits;
    for (auto _ : state) {
        net::PacketHandle h = pool.acquire(pkt);
        benchmark::DoNotOptimize(pool.get(h).flits);
        pool.release(h);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketPoolAcquireRelease);

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc ^= rng.next();
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RngNext);

void
BM_CacheLookupHit(benchmark::State &state)
{
    mem::Cache cache(mem::CacheParams::ev7L2());
    for (mem::Addr a = 0; a < 1024 * 64; a += 64)
        cache.fill(a, mem::LineState::Shared);
    mem::Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(a, false).hit);
        a = (a + 64) % (1024 * 64);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheLookupHit);

// BM_CacheLookupHit stays resident in the host's L1/L2; this one
// spreads random hits over 16 full ev7 L2s (one per node of a 16P
// machine), so each lookup pays for the tag store's layout in the
// host memory hierarchy.
void
BM_CacheLookupHitCold(benchmark::State &state)
{
    constexpr int caches = 16;
    std::vector<std::unique_ptr<mem::Cache>> l2;
    std::uint64_t lines = 0;
    for (int c = 0; c < caches; ++c) {
        l2.push_back(
            std::make_unique<mem::Cache>(mem::CacheParams::ev7L2()));
        lines = l2.back()->lines();
        for (std::uint64_t i = 0; i < lines; ++i)
            l2.back()->fill(i * mem::lineBytes, mem::LineState::Shared);
    }
    Rng rng(7);
    bool hit = true;
    for (auto _ : state) {
        mem::Cache &cache = *l2[rng.below(caches)];
        hit &= cache.lookup(rng.below(lines) * mem::lineBytes, false).hit;
    }
    if (!hit)
        state.SkipWithError("random lookup missed a full cache");
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CacheLookupHitCold);

void
BM_TorusRouteCompute(benchmark::State &state)
{
    topo::Torus2D torus(8, 8);
    Rng rng(7);
    for (auto _ : state) {
        auto src = static_cast<NodeId>(rng.below(64));
        auto dst = static_cast<NodeId>(rng.below(64));
        benchmark::DoNotOptimize(torus.adaptivePorts(src, dst, 0));
        benchmark::DoNotOptimize(torus.escapeRoute(src, dst, 0));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TorusRouteCompute);

void
BM_NetworkPacketDelivery(benchmark::State &state)
{
    // End-to-end cost of simulating one 4-hop packet on a 4x4 torus.
    SimContext ctx;
    topo::Torus2D torus(4, 4);
    net::Network network(ctx, torus, net::NetworkParams::gs1280());
    network.setHandler(10, [](const net::Packet &) {});
    for (auto _ : state) {
        net::Packet pkt;
        pkt.src = 0;
        pkt.dst = 10;
        pkt.cls = net::MsgClass::BlockResponse;
        pkt.flits = net::dataFlits;
        network.inject(pkt);
        ctx.queue().runUntil();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkPacketDelivery);

void
BM_NetworkPacketDeliveryRegistered(benchmark::State &state)
{
    // The BM_NetworkPacketDelivery hot path with the full telemetry
    // registry attached. Registration is pull-based (the registry
    // only holds pointers), so this must track the bare benchmark
    // within noise — the telemetry layer's <=2% overhead budget.
    SimContext ctx;
    topo::Torus2D torus(4, 4);
    net::Network network(ctx, torus, net::NetworkParams::gs1280());
    network.setHandler(10, [](const net::Packet &) {});

    telem::Registry reg;
    network.registerTelemetry(reg, "net");
    auto portName = [](int p) { return "p" + std::to_string(p); };
    for (NodeId n = 0; n < 16; ++n) {
        network.router(n).registerTelemetry(
            reg, telem::path("node", n, "router"), portName);
    }

    for (auto _ : state) {
        net::Packet pkt;
        pkt.src = 0;
        pkt.dst = 10;
        pkt.cls = net::MsgClass::BlockResponse;
        pkt.flits = net::dataFlits;
        network.inject(pkt);
        ctx.queue().runUntil();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_NetworkPacketDeliveryRegistered);

/**
 * The router hot-path microbenchmark: a seeded uniform-random packet
 * storm on an 8x8 torus, injected in bursts deep enough to keep every
 * VC arbitration, credit round-trip and link serialization busy, then
 * drained. Templated over the fabric so the production Network and the
 * frozen legacy router run the exact same traffic; items/sec is
 * packets delivered per wall second.
 */
template <typename Net, typename... Extra>
void
routerStorm(benchmark::State &state, Extra &&...extra)
{
    constexpr int w = 8, h = 8;
    constexpr int nodes = w * h;
    constexpr int burst = 512;
    SimContext ctx;
    topo::Torus2D torus(w, h);
    Net network(ctx, torus, std::forward<Extra>(extra)...);
    std::uint64_t delivered = 0;
    for (NodeId n = 0; n < nodes; ++n)
        network.setHandler(n, [&](const net::Packet &) {
            delivered += 1;
        });
    Rng rng(99);
    for (auto _ : state) {
        for (int k = 0; k < burst; ++k) {
            net::Packet pkt;
            pkt.src = static_cast<NodeId>(rng.below(nodes));
            do {
                pkt.dst = static_cast<NodeId>(rng.below(nodes));
            } while (pkt.dst == pkt.src);
            pkt.cls = (k % 3 == 0) ? net::MsgClass::BlockResponse
                                   : net::MsgClass::Request;
            pkt.flits = pkt.cls == net::MsgClass::BlockResponse
                            ? net::dataFlits
                            : net::headerFlits;
            network.inject(pkt);
        }
        ctx.queue().runUntil();
    }
    benchmark::DoNotOptimize(delivered);
    state.SetItemsProcessed(static_cast<std::int64_t>(delivered));
}

void
BM_RouterStorm(benchmark::State &state)
{
    routerStorm<net::Network>(state, net::NetworkParams::gs1280());
}
BENCHMARK(BM_RouterStorm);

void
BM_RouterStormLegacy(benchmark::State &state)
{
    routerStorm<net::legacy::LegacyNet>(state,
                                        net::NetworkParams::gs1280());
}
BENCHMARK(BM_RouterStormLegacy);

void
BM_CoherentLocalMiss(benchmark::State &state)
{
    // One local read miss through MAF + directory + Zbox and back.
    SimContext ctx;
    topo::Torus2D torus(2, 1);
    net::Network network(ctx, torus, net::NetworkParams::gs1280());
    mem::NodeOwnedMap map;
    coher::NodeConfig cfg;
    coher::CoherentNode node(ctx, network, 0, map, cfg);
    coher::CoherentNode other(ctx, network, 1, map, cfg);

    mem::Addr a = 0;
    for (auto _ : state) {
        bool done = false;
        node.memAccess(a, false, [&] { done = true; });
        ctx.queue().runUntil();
        benchmark::DoNotOptimize(done);
        a += 64; // fresh line every time: always a miss
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CoherentLocalMiss);

// The home directories of stream16 (perfbench) at their peak: 16
// tables of 28,682 tracked lines, held as three unit-stride windows
// (Triad's a, b and c, 2 MiB apart) in each node's region. One
// iteration slides one window of one table by a line with the lookups
// a home makes: a request inserts its line in one probe, the fill
// finds it again, and a victim finds the window's tail line and
// erases it through the entry. Tables and windows take turns, so
// consecutive lines of one window are 48 iterations apart.
void
BM_DirectoryStreamCold(benchmark::State &state)
{
    constexpr int tables = 16;
    constexpr int streams = 3;
    constexpr std::uint64_t window = 28682 / streams;
    constexpr std::uint64_t arrayLines = (2 << 20) / mem::lineBytes;
    std::vector<coher::LineTable<coher::DirEntry>> dir(tables);
    auto lineOf = [](int t, int s, std::uint64_t i) {
        return mem::regionBase(t) +
               (static_cast<std::uint64_t>(s) * arrayLines +
                i % arrayLines) *
                   mem::lineBytes;
    };
    for (int t = 0; t < tables; ++t)
        for (int s = 0; s < streams; ++s)
            for (std::uint64_t i = 0; i < window; ++i)
                dir[t].insert(lineOf(t, s, i))
                    .first->setState(coher::DirState::Exclusive);
    std::uint64_t head = window;
    int t = 0;
    int s = 0;
    bool ok = true;
    for (auto _ : state) {
        coher::LineTable<coher::DirEntry> &d = dir[t];
        const mem::Addr line = lineOf(t, s, head);
        const mem::Addr tail = lineOf(t, s, head - window);
        auto [req, inserted] = d.insert(line);
        ok &= inserted;
        req->setState(coher::DirState::Busy);
        coher::DirEntry *e = d.find(line);
        benchmark::DoNotOptimize(e);
        e->setState(coher::DirState::Exclusive);
        const coher::DirEntry *victim = d.find(tail);
        ok &= victim != nullptr;
        if (victim)
            d.erase(victim);
        if (++t == tables) {
            t = 0;
            if (++s == streams) {
                s = 0;
                head += 1;
            }
        }
    }
    if (!ok)
        state.SkipWithError("a window line went missing");
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectoryStreamCold);

/**
 * The mem.* gauge family (docs/SCALING.md): bytes of host memory per
 * simulated node, reported through the items/sec channel so the same
 * JSON machinery that gates throughput can gate footprint. Each
 * iteration takes a fixed manual "time" of 1 s and claims
 * bytes-per-node "items", so items_per_second IS the gauge — a pure
 * function of the build, not of host speed. scripts/bench_compare.py
 * treats every benchmark named mem.* as lower-is-better; the CI
 * scale-smoke lane diffs these rows against
 * bench/baselines/BENCH_scale.json with --max-regress.
 */
void
memBytesPerNode(benchmark::State &state, int x, int y, int z,
                bool dense, std::uint64_t gupsUpdates)
{
    double bytesPerNode = 0;
    for (auto _ : state) {
        sys::Gs1280Options opt;
        std::unique_ptr<sys::Machine> m =
            z > 1 ? sys::Machine::buildGS1280_3D(x, y, z, opt)
                  : sys::Machine::buildGS1280(x * y, opt);
        if (gupsUpdates > 0) {
            std::vector<std::unique_ptr<wl::Gups>> gens;
            std::vector<cpu::TrafficSource *> sources;
            for (int c = 0; c < 16; ++c) {
                gens.push_back(std::make_unique<wl::Gups>(
                    m->cpuCount(), 64ULL << 10, gupsUpdates,
                    Rng::deriveSeed(5,
                                    static_cast<std::uint64_t>(c))));
                sources.push_back(gens.back().get());
            }
            bool ok = m->run(sources);
            benchmark::DoNotOptimize(ok);
        }
        const auto nodes = static_cast<double>(m->nodeCount());
        bytesPerNode =
            static_cast<double>(dense ? m->denseMemFootprintBytes()
                                      : m->memFootprintBytes()) /
            nodes;
        state.SetIterationTime(1.0);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        static_cast<double>(state.iterations()) * bytesPerNode));
}

// One iteration each: the gauge is deterministic, repetition buys
// nothing. Registered by name (not the BENCHMARK macro) so the family
// shares one body across shapes.
const int memBenchesRegistered = [] {
    auto reg = [](const char *name, int x, int y, int z, bool dense,
                  std::uint64_t updates) {
        benchmark::RegisterBenchmark(
            name,
            [x, y, z, dense, updates](benchmark::State &st) {
                memBytesPerNode(st, x, y, z, dense, updates);
            })
            ->UseManualTime()
            ->Iterations(1);
    };
    reg("mem.bytes_per_node_2d64", 8, 8, 1, false, 0);
    reg("mem.bytes_per_node_3d512", 8, 8, 8, false, 0);
    reg("mem.bytes_per_node_3d2048", 16, 16, 8, false, 0);
    reg("mem.bytes_per_node_3d2048_gups", 16, 16, 8, false, 25);
    reg("mem.dense_bytes_per_node_3d2048", 16, 16, 8, true, 0);
    return 1;
}();

void
BM_ParallelEpoch(benchmark::State &state)
{
    // End-to-end cost of the parallel engine's epoch machinery on
    // the canonical 64P GUPS workload, swept over worker-thread
    // counts (Arg). Results are bit-identical across args — only the
    // wall clock moves — so items/sec here IS the engine speedup.
    const int threads = static_cast<int>(state.range(0));
    constexpr int cpus = 64;
    constexpr std::uint64_t updates = 200;
    for (auto _ : state) {
        state.PauseTiming();
        sys::Gs1280Options opt;
        opt.mlp = 16;
        opt.threads = threads;
        auto m = sys::Machine::buildGS1280(cpus, opt);
        std::vector<std::unique_ptr<wl::Gups>> gens;
        std::vector<cpu::TrafficSource *> sources;
        for (int c = 0; c < cpus; ++c) {
            gens.push_back(std::make_unique<wl::Gups>(
                cpus, 256ULL << 20, updates,
                Rng::deriveSeed(7, static_cast<std::uint64_t>(c))));
            sources.push_back(gens.back().get());
        }
        state.ResumeTiming();
        bool ok = m->run(sources, 30000 * tickMs);
        benchmark::DoNotOptimize(ok);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * cpus * static_cast<std::int64_t>(updates)));
}
// UseRealTime: the engine's own workers do most of the simulating,
// so main-thread CPU time shrinks with Arg and would fake scaling;
// wall clock is the number the speedup claim is about.
BENCHMARK(BM_ParallelEpoch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_ParallelEpochTile(benchmark::State &state)
{
    // Same 64P GUPS workload with the tile decomposition pinned to
    // Arg(1) x Arg(2), swept over worker-thread counts (Arg(0)).
    // Pinning the shape keeps the decomposition — and therefore the
    // simulated results — identical across the thread sweep, so this
    // family measures pure engine scaling at a fixed tiling.
    const int threads = static_cast<int>(state.range(0));
    constexpr int cpus = 64;
    constexpr std::uint64_t updates = 200;
    for (auto _ : state) {
        state.PauseTiming();
        sys::Gs1280Options opt;
        opt.mlp = 16;
        opt.threads = threads;
        opt.tileRows = static_cast<int>(state.range(1));
        opt.tileCols = static_cast<int>(state.range(2));
        auto m = sys::Machine::buildGS1280(cpus, opt);
        std::vector<std::unique_ptr<wl::Gups>> gens;
        std::vector<cpu::TrafficSource *> sources;
        for (int c = 0; c < cpus; ++c) {
            gens.push_back(std::make_unique<wl::Gups>(
                cpus, 256ULL << 20, updates,
                Rng::deriveSeed(7, static_cast<std::uint64_t>(c))));
            sources.push_back(gens.back().get());
        }
        state.ResumeTiming();
        bool ok = m->run(sources, 30000 * tickMs);
        benchmark::DoNotOptimize(ok);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * cpus * static_cast<std::int64_t>(updates)));
}
BENCHMARK(BM_ParallelEpochTile)
    ->Args({1, 4, 2})->Args({2, 4, 2})->Args({4, 4, 2})->Args({8, 4, 2})
    ->Unit(benchmark::kMillisecond)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
