/**
 * @file
 * Serial-vs-parallel A/B equivalence for the conservative parallel
 * engine (docs/PARALLEL.md). The contract under test:
 *
 *  - the same machine runs bit-identically at any --threads value
 *    (thread-count invariance, including every fired-event count and
 *    floating-point statistic, since the domain decomposition and
 *    merge order never depend on the worker count);
 *  - against the serial engine, every per-node message sequence,
 *    every integer statistic and every per-core timing is identical
 *    across seeds (the merged schedule reproduces serial order);
 *  - the committed fixed-seed golden file passes unchanged when the
 *    producing machine runs parallel.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "sim/random.hh"
#include "sim/table.hh"
#include "system/machine.hh"
#include "workload/load_test.hh"

namespace
{

using namespace gs;

/** One observed message at a node: (incoming, src, dst, cls, injected). */
using MsgRec = std::tuple<bool, NodeId, NodeId, int, Tick>;

struct RunResult
{
    bool completed = false;
    std::vector<double> coreElapsedNs; ///< exact tick-derived values
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t deliveredFlits = 0;
    std::uint64_t latCount = 0;
    double latMin = 0, latMax = 0, latMean = 0;
    std::uint64_t firedEvents = 0;
    std::uint64_t epochs = 0;
    /** Per-node message logs: the event-order witness. */
    std::vector<std::vector<MsgRec>> msgs;
};

/** Workloads the A/B matrix drives (uniform vs one-hot-tile). */
enum class Load
{
    RandomRemote,
    HotSpot,
};

RunResult
runGs1280(int cpus, int threads, std::uint64_t seed,
          std::uint64_t reads, TileShape tiles = {0, 0},
          Load load = Load::RandomRemote)
{
    sys::Gs1280Options opt;
    opt.seed = seed;
    opt.threads = threads;
    opt.tileRows = tiles.rows;
    opt.tileCols = tiles.cols;
    auto m = sys::Machine::buildGS1280(cpus, opt);

    RunResult r;
    r.msgs.resize(static_cast<std::size_t>(cpus));
    for (int n = 0; n < cpus; ++n) {
        auto *log = &r.msgs[std::size_t(n)];
        m->node(n).setMsgObserver(
            [log](const net::Packet &pkt, bool incoming) {
                log->push_back({incoming, pkt.src, pkt.dst,
                                static_cast<int>(pkt.cls),
                                pkt.injected});
            });
    }

    std::vector<std::unique_ptr<cpu::TrafficSource>> gens;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < cpus; ++c) {
        const std::uint64_t s =
            Rng::deriveSeed(seed, static_cast<std::uint64_t>(c));
        if (load == Load::HotSpot) {
            // Every CPU hammers node 0's memory: all the simulated
            // work concentrates in the tile owning node 0 while the
            // other tiles idle.
            gens.push_back(std::make_unique<wl::HotSpotReads>(
                NodeId(0), 8ULL << 20, reads, s));
        } else {
            gens.push_back(std::make_unique<wl::RandomRemoteReads>(
                static_cast<NodeId>(c), cpus, 8ULL << 20, reads, s));
        }
        sources.push_back(gens.back().get());
    }
    r.completed = m->run(sources);

    for (int c = 0; c < cpus; ++c)
        r.coreElapsedNs.push_back(m->core(c).stats().elapsedNs());
    const auto &st = m->network().stats();
    r.injected = st.injectedPackets;
    r.delivered = st.deliveredPackets;
    r.deliveredFlits = st.deliveredFlits;
    r.latCount = st.latencyNs.count();
    r.latMin = st.latencyNs.min();
    r.latMax = st.latencyNs.max();
    r.latMean = st.latencyNs.mean();
    r.firedEvents = static_cast<std::uint64_t>(
        m->telemetry().value("eq.fired"));
    if (m->isParallel())
        r.epochs = m->parallel()->epochs();
    return r;
}

/**
 * Everything that must match bit-for-bit between two parallel runs
 * of different worker counts, or between serial and parallel except
 * for the members excluded below.
 */
void
expectIdentical(const RunResult &a, const RunResult &b,
                bool same_engine)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.coreElapsedNs, b.coreElapsedNs); // exact doubles
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.deliveredFlits, b.deliveredFlits);
    EXPECT_EQ(a.latCount, b.latCount);
    EXPECT_EQ(a.latMin, b.latMin);
    EXPECT_EQ(a.latMax, b.latMax);
    EXPECT_EQ(a.msgs, b.msgs);
    if (same_engine) {
        // Same engine, different worker count: even the event count
        // and the shard-order latency sum are bitwise equal.
        EXPECT_EQ(a.latMean, b.latMean);
        EXPECT_EQ(a.firedEvents, b.firedEvents);
        EXPECT_EQ(a.epochs, b.epochs);
    } else {
        // Serial vs parallel: the mean sums the same samples in a
        // different association (per-shard subtotals), so allow the
        // summation-reorder ulps; the tick bookkeeping differs (one
        // global tick chain vs one per domain), so event counts are
        // engine-specific.
        EXPECT_NEAR(a.latMean, b.latMean,
                    1e-9 * (std::abs(a.latMean) + 1.0));
    }
}

TEST(ParallelAB, SerialVsParallelAcrossSeeds)
{
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        RunResult serial = runGs1280(16, 1, seed, 120);
        RunResult par = runGs1280(16, 2, seed, 120);
        ASSERT_TRUE(serial.completed);
        expectIdentical(serial, par, /*same_engine=*/false);
    }
}

TEST(ParallelAB, ThreadCountInvariance)
{
    // 16 CPUs = 4x4 torus, decomposition pinned at 2x2 (the auto
    // shape tracks --threads, so cross-thread-count comparisons pin
    // one); 8 threads exercises the clamp to 4 domains. All parallel
    // runs must agree bit-for-bit on everything, floating point
    // included.
    RunResult t2 = runGs1280(16, 2, 7, 150, {2, 2});
    RunResult t4 = runGs1280(16, 4, 7, 150, {2, 2});
    RunResult t8 = runGs1280(16, 8, 7, 150, {2, 2});
    ASSERT_TRUE(t2.completed);
    EXPECT_GT(t2.epochs, 0u);
    expectIdentical(t2, t4, /*same_engine=*/true);
    expectIdentical(t2, t8, /*same_engine=*/true);
}

TEST(ParallelAB, RandomizedStressMatrix)
{
    // The determinism stress lane: ~50 sampled (machine shape, tile
    // shape, thread count, workload, seed) combinations, each
    // asserting the full witness — message logs, core timings,
    // network statistics — against a serial run of the same
    // workload. Sampling is seeded, so a failure reproduces.
    struct Torus
    {
        int cpus;
        int w, h;
        std::uint64_t reads;
    };
    const Torus tori[] = {
        {8, 4, 2, 70},
        {16, 4, 4, 60},
        {32, 8, 4, 40},
    };
    const Load loads[] = {Load::RandomRemote, Load::HotSpot};
    const int threadChoices[] = {2, 3, 4, 8};

    Rng pick(0xab5712);
    int combos = 0;
    for (const Torus &t : tori) {
        for (Load load : loads) {
            const std::uint64_t seed = 10 + pick.below(90);
            RunResult serial = runGs1280(t.cpus, 1, seed, t.reads,
                                         {0, 0}, load);
            ASSERT_TRUE(serial.completed);
            // Eight sampled (tile shape, threads) variants per
            // serial reference; every legal shape divides the torus
            // into whole-row/column blocks, so sample rows | cols
            // factors directly.
            for (int v = 0; v < 8; ++v) {
                const int rows =
                    1 + static_cast<int>(pick.below(
                            static_cast<std::uint64_t>(t.h)));
                const int cols =
                    1 + static_cast<int>(pick.below(
                            static_cast<std::uint64_t>(t.w)));
                if (rows * cols < 2)
                    continue; // 1x1 is the serial engine
                const int threads =
                    threadChoices[pick.below(4)];
                SCOPED_TRACE("cpus=" + std::to_string(t.cpus) +
                             " load=" +
                             (load == Load::HotSpot ? "hot" : "rand") +
                             " seed=" + std::to_string(seed) +
                             " tiles=" + std::to_string(rows) + "x" +
                             std::to_string(cols) +
                             " threads=" + std::to_string(threads));
                RunResult par =
                    runGs1280(t.cpus, threads, seed, t.reads,
                              {rows, cols}, load);
                expectIdentical(serial, par, /*same_engine=*/false);
                combos += 1;
            }
        }
    }
    // Each sampled variant plus its serial reference is a compared
    // pair; the lane is meant to stay ~50 runs strong.
    EXPECT_GE(combos, 40);
}

TEST(ParallelAB, HotTileTortureMatchesSerial)
{
    // Every CPU of the 8x4 torus hammers node 0: the 2x2 tiling puts
    // all the load in tile 0 while three tiles idle, so three workers
    // wait at every barrier on the one that owns it. The torture run
    // must still be bit-identical to serial.
    RunResult serial =
        runGs1280(32, 1, 13, 80, {0, 0}, Load::HotSpot);
    RunResult par =
        runGs1280(32, 4, 13, 80, {2, 2}, Load::HotSpot);
    ASSERT_TRUE(serial.completed);
    expectIdentical(serial, par, /*same_engine=*/false);

    // And at any other thread count / shape, bit-identical to the
    // first parallel run given the same pinned shape.
    RunResult par8 =
        runGs1280(32, 8, 13, 80, {2, 2}, Load::HotSpot);
    expectIdentical(par, par8, /*same_engine=*/true);
}

TEST(ParallelAB, SixtyFourNodeTorusSerialVsEightThreads)
{
    // The 8x8 torus (8 domains) at the acceptance thread count.
    RunResult serial = runGs1280(64, 1, 5, 40);
    RunResult par = runGs1280(64, 8, 5, 40);
    ASSERT_TRUE(serial.completed);
    expectIdentical(serial, par, /*same_engine=*/false);
}

// The committed golden (produced by the serial engine, see
// golden_test.cc) must pass unchanged when the same machine runs on
// the parallel engine at any thread count.
TEST(ParallelAB, FixedSeedGoldenStableAcrossThreadCounts)
{
    const std::string path =
        std::string(GS_GOLDEN_DIR) + "/fixed_seed_simulation.txt";
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::stringstream want;
    want << in.rdbuf();

    for (int threads : {2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const std::uint64_t masterSeed = 1;
        const std::uint64_t reads = 400;
        sys::Gs1280Options opt;
        opt.seed = masterSeed;
        opt.threads = threads;
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
        EXPECT_EQ(os.str(), want.str())
            << "parallel run diverged from the serial golden";
    }
}

} // namespace
