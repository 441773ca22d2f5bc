/**
 * @file
 * Tile decomposition and adaptive-lookahead unit tests: the
 * chooseTileShape() selection policy (non-square and 3-D machines,
 * threads beyond the node count, the 1x1 degenerate), the
 * tileDomainOf() node->tile mapping, the AdaptiveLookahead
 * widen/shrink state machine, EventQueue::truncateDrain (the
 * widened-window abort the Network's injection path relies on),
 * per-edge mailbox parity flipping under the engine's barrier
 * discipline, and thread-count invariance on a one-hot-tile load.
 * This file is its own test binary so the sanitizer CI lane can run
 * it by name.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/parallel.hh"

namespace
{

using namespace gs;

// --- chooseTileShape -------------------------------------------------

TEST(TileShape, PrefersSquareCheapCutsOnSquareTorus)
{
    // 8 threads on the 8x8 torus: 2x4 tiles cut 2*8 + 4*8 = 48 wrap
    // links, strictly fewer than the old 8-column split's 64.
    EXPECT_EQ(chooseTileShape(8, 8, 1, 8), (TileShape{2, 4}));
    EXPECT_EQ(chooseTileShape(4, 4, 1, 4), (TileShape{2, 2}));
}

TEST(TileShape, NonSquareTorusFollowsTheCheapAxis)
{
    // 8x4 torus, 4 threads: a single row of 4 tiles cuts only the 4
    // column seams (4*4 = 16 links); 2x2 would cut 8*2 + 4*2 = 24.
    EXPECT_EQ(chooseTileShape(8, 4, 1, 4), (TileShape{1, 4}));
    // 4x2 torus, 2 threads: split the wide axis, never the short one.
    EXPECT_EQ(chooseTileShape(4, 2, 1, 2), (TileShape{1, 2}));
}

TEST(TileShape, ThreadsBeyondNodesClampToOneTilePerNode)
{
    // 4x2 torus, 8 threads: exactly one tile per node.
    EXPECT_EQ(chooseTileShape(4, 2, 1, 8), (TileShape{2, 4}));
    // More threads than nodes never inflates the tile count.
    EXPECT_EQ(chooseTileShape(4, 2, 1, 64), (TileShape{2, 4}));
    EXPECT_EQ(chooseTileShape(2, 1, 1, 8), (TileShape{1, 2}));
}

TEST(TileShape, DegenerateMachinesStaySerial)
{
    EXPECT_EQ(chooseTileShape(1, 1, 1, 8), (TileShape{1, 1}));
    EXPECT_EQ(chooseTileShape(8, 8, 1, 1), (TileShape{1, 1}));
    EXPECT_EQ(chooseTileShape(8, 8, 1, 0), (TileShape{1, 1}));
}

TEST(TileShape, AlwaysFitsAndCoversTheThreadTarget)
{
    for (int w : {1, 2, 3, 4, 5, 8}) {
        for (int h : {1, 2, 3, 4, 8}) {
            for (int t : {1, 2, 3, 4, 6, 8, 16, 100}) {
                TileShape s = chooseTileShape(w, h, 1, t);
                SCOPED_TRACE(std::to_string(w) + "x" +
                             std::to_string(h) + " t" +
                             std::to_string(t));
                EXPECT_GE(s.rows, 1);
                EXPECT_GE(s.cols, 1);
                EXPECT_LE(s.rows, h);
                EXPECT_LE(s.cols, w);
                EXPECT_GE(s.count(), std::min(t < 1 ? 1 : t, w * h));
            }
        }
    }
}

TEST(TileShape3, CutsTheCheapestPlanesFirst)
{
    // 8x8x8 torus, 8 threads: all three dimensions tie, and a
    // balanced 2x2x2 cut beats any single-axis 8-way slice.
    EXPECT_EQ(chooseTileShape(8, 8, 8, 8), (TileShape{2, 2, 2}));
    // 16x16x8, 4 threads: cutting a 16-wide axis severs 16*8 links
    // per seam; a Z cut severs 16*16. Split the cheap axes.
    TileShape s = chooseTileShape(16, 16, 8, 4);
    EXPECT_EQ(s.count(), 4);
    EXPECT_EQ(s.slabs, 1);
}

TEST(TileShape3, AlwaysFitsAndCoversTheThreadTarget)
{
    for (int w : {1, 2, 4, 8})
        for (int h : {1, 3, 4})
            for (int d : {1, 2, 4})
                for (int t : {1, 2, 4, 8, 64}) {
                    TileShape s = chooseTileShape(w, h, d, t);
                    SCOPED_TRACE(std::to_string(w) + "x" +
                                 std::to_string(h) + "x" +
                                 std::to_string(d) + " t" +
                                 std::to_string(t));
                    EXPECT_GE(s.rows, 1);
                    EXPECT_GE(s.cols, 1);
                    EXPECT_GE(s.slabs, 1);
                    EXPECT_LE(s.rows, h);
                    EXPECT_LE(s.cols, w);
                    EXPECT_LE(s.slabs, d);
                    EXPECT_GE(s.count(),
                              std::min(t < 1 ? 1 : t, w * h * d));
                }
}

// --- tileDomainOf ----------------------------------------------------

TEST(TileShape, DomainMapIsBalancedContiguousRowMajor)
{
    // 4x4 torus, 2x2 tiles: quadrants, numbered row-major.
    const TileShape s{2, 2};
    EXPECT_EQ(tileDomainOf(0, 0, 0, 4, 4, 1, s), 0);
    EXPECT_EQ(tileDomainOf(3, 0, 0, 4, 4, 1, s), 1);
    EXPECT_EQ(tileDomainOf(0, 3, 0, 4, 4, 1, s), 2);
    EXPECT_EQ(tileDomainOf(3, 3, 0, 4, 4, 1, s), 3);

    // Every tile of an evenly divisible machine owns the same number
    // of nodes, and node blocks are contiguous in x and y.
    std::array<int, 4> count{};
    for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) {
            int d = tileDomainOf(x, y, 0, 4, 4, 1, s);
            ASSERT_GE(d, 0);
            ASSERT_LT(d, 4);
            count[std::size_t(d)] += 1;
        }
    for (int d = 0; d < 4; ++d)
        EXPECT_EQ(count[std::size_t(d)], 4);
}

TEST(TileShape, DomainMapBalancesIndivisibleSplits)
{
    // 3 columns of tiles over width 8: 2-3-3 (or 3-3-2) node
    // columns; every domain in range and non-empty.
    const TileShape s{1, 3};
    std::array<int, 3> count{};
    for (int x = 0; x < 8; ++x) {
        int d = tileDomainOf(x, 0, 0, 8, 1, 1, s);
        ASSERT_GE(d, 0);
        ASSERT_LT(d, 3);
        count[std::size_t(d)] += 1;
    }
    for (int d = 0; d < 3; ++d)
        EXPECT_GE(count[std::size_t(d)], 2);
}

TEST(TileShape3, DomainMapIsBalancedContiguousSlabMajor)
{
    // 4x4x4 torus, 2x2x2 tiles: octants, slab-major numbering.
    const TileShape s{2, 2, 2};
    EXPECT_EQ(tileDomainOf(0, 0, 0, 4, 4, 4, s), 0);
    EXPECT_EQ(tileDomainOf(3, 0, 0, 4, 4, 4, s), 1);
    EXPECT_EQ(tileDomainOf(0, 3, 0, 4, 4, 4, s), 2);
    EXPECT_EQ(tileDomainOf(3, 3, 0, 4, 4, 4, s), 3);
    EXPECT_EQ(tileDomainOf(0, 0, 3, 4, 4, 4, s), 4);
    EXPECT_EQ(tileDomainOf(3, 3, 3, 4, 4, 4, s), 7);

    std::array<int, 8> count{};
    for (int z = 0; z < 4; ++z)
        for (int y = 0; y < 4; ++y)
            for (int x = 0; x < 4; ++x) {
                int d = tileDomainOf(x, y, z, 4, 4, 4, s);
                ASSERT_GE(d, 0);
                ASSERT_LT(d, 8);
                count[std::size_t(d)] += 1;
            }
    for (int d = 0; d < 8; ++d)
        EXPECT_EQ(count[std::size_t(d)], 8);
}

// --- AdaptiveLookahead ----------------------------------------------

TEST(AdaptiveLookahead, WidensGeometricallyWhileQuiet)
{
    AdaptiveLookahead a;
    a.base = 10;
    a.bound = 100;
    EXPECT_EQ(a.step(true), 20);
    EXPECT_TRUE(a.widened());
    EXPECT_EQ(a.step(true), 40);
    EXPECT_EQ(a.step(true), 80);
    EXPECT_EQ(a.step(true), 100); // capped at the provable bound
    EXPECT_EQ(a.step(true), 100);
    EXPECT_TRUE(a.widened());
}

TEST(AdaptiveLookahead, AnyTrafficSnapsBackToBase)
{
    AdaptiveLookahead a;
    a.base = 10;
    a.bound = 100;
    a.step(true);
    a.step(true);
    EXPECT_EQ(a.step(false), 10);
    EXPECT_FALSE(a.widened());
    // And the geometric climb restarts from scratch.
    EXPECT_EQ(a.step(true), 20);
}

TEST(AdaptiveLookahead, NeverWidensWhenBoundDoesNotExceedBase)
{
    AdaptiveLookahead a;
    a.base = 10;
    a.bound = 10;
    EXPECT_EQ(a.step(true), 10);
    EXPECT_FALSE(a.widened());
    a.bound = 5; // degenerate config: cap below the floor
    EXPECT_EQ(a.step(true), 10);
    EXPECT_FALSE(a.widened());
}

TEST(AdaptiveLookahead, MaxFactorCapsTheClimb)
{
    AdaptiveLookahead a;
    a.base = 1;
    a.bound = 1000;
    a.maxFactor = 4;
    a.step(true);
    a.step(true);
    EXPECT_EQ(a.step(true), 4);
    EXPECT_EQ(a.step(true), 4); // factor saturated, not the bound
}

// --- EventQueue::truncateDrain --------------------------------------

TEST(TruncateDrain, AbortsTheRestOfAWidenedWindow)
{
    // The widening protocol: a window was opened to [0, 100) on the
    // promise of zero cross-tile traffic; the event at t=10 breaks
    // the promise (an injection) and truncates the window to t+1.
    // Same-tick events still fire; everything later must wait for
    // the next (conservative) window.
    EventQueue q;
    std::vector<int> fired;
    q.scheduleAt(10, [&] {
        fired.push_back(10);
        q.truncateDrain(11);
    });
    q.scheduleAt(10, [&] { fired.push_back(100 + 10); });
    q.scheduleAt(40, [&] { fired.push_back(40); });
    q.scheduleAt(90, [&] { fired.push_back(90); });

    EXPECT_EQ(q.drainWindow(100), 2u);
    EXPECT_EQ(fired, (std::vector<int>{10, 110}));

    // The next drain picks the survivors up unharmed.
    EXPECT_EQ(q.drainWindow(100), 2u);
    EXPECT_EQ(fired, (std::vector<int>{10, 110, 40, 90}));
}

TEST(TruncateDrain, RaisingTheLimitIsIgnored)
{
    EventQueue q;
    std::vector<int> fired;
    q.scheduleAt(5, [&] {
        fired.push_back(5);
        q.truncateDrain(500); // never widens an open window
    });
    q.scheduleAt(20, [&] { fired.push_back(20); });
    q.scheduleAt(60, [&] { fired.push_back(60); });
    EXPECT_EQ(q.drainWindow(50), 2u);
    EXPECT_EQ(fired, (std::vector<int>{5, 20}));
}

// --- engine fixtures -------------------------------------------------

/**
 * Four domains in a ring, cross-posting through parity
 * double-buffered per-edge mailboxes exactly the way the Network's
 * boundary-edge boxes work: box[src] is the outbox of edge
 * src -> (src+1)%4, owned for writing by src's worker; a
 * post during epoch E lands in buffer E & 1, and the consumer's
 * merge at the start of epoch E+1 reads that buffer (parity
 * (epochOf+1) & 1 before its own increment) while fresh posts go to
 * the other one. The fixture asserts the discipline holds at any
 * thread count: every merge sees exactly the
 * previous epoch's posts, never its own epoch's.
 */
struct RingMailboxFixture
{
    struct Box
    {
        std::vector<Tick> buf[2]; ///< due times, parity-indexed
    };

    explicit RingMailboxFixture(int threads, Tick lookahead = 8)
    {
        ParallelEngine::Config cfg;
        cfg.domains = 4;
        cfg.threads = threads;
        cfg.lookahead = lookahead;
        eng = std::make_unique<ParallelEngine>(cfg);
        eng->setMergeHook([this](int d, Tick ws) { mergeFor(d, ws); });
        eng->setPendingMinHook(
            [this](int d) { return pendingMinOf(d); });
    }

    /** Post a due time on edge src -> (src+1)%4 (src's worker). */
    void
    post(int src, Tick due)
    {
        // epochOf[src] was already incremented by this epoch's
        // merge, so it names the CURRENT epoch + 1; (it + 1) & 1 is
        // the posting parity of the current epoch.
        Box &b = box[std::size_t(src)];
        b.buf[(epochOf[std::size_t(src)] + 1) & 1].push_back(due);
        posted.fetch_add(1, std::memory_order_relaxed);
    }

    void
    mergeFor(int d, Tick ws)
    {
        // Read the in-edge ((d+3)%4 -> d) at the pre-increment
        // parity: exactly the posts of the previous epoch. The
        // poster wrote them before the barrier; new posts this epoch
        // go to the other buffer, so the read is race-free.
        Box &b = box[std::size_t((d + 3) % 4)];
        auto &buf = b.buf[(epochOf[std::size_t(d)] + 1) & 1];
        for (Tick due : buf) {
            // The parity flip guarantee: nothing merged was posted
            // inside the window being opened.
            EXPECT_GE(due, ws);
            Tick at = due;
            eng->domainCtx(d).queue().scheduleMergedAt(
                at, [this, d, at] { deliver(d, at); });
            merged.fetch_add(1, std::memory_order_relaxed);
        }
        buf.clear();
        epochOf[std::size_t(d)] += 1;
    }

    Tick
    pendingMinOf(int d)
    {
        // Posting parity only: d's own outbox entries not yet
        // consumed (read by d's worker, or pre-run by the driver).
        const Box &b = box[std::size_t(d)];
        const auto &buf = b.buf[(epochOf[std::size_t(d)] + 1) & 1];
        Tick m = maxTick;
        for (Tick due : buf)
            m = std::min(m, due);
        return m;
    }

    /** Deliver at domain d and forward around the ring. */
    void
    deliver(int d, Tick now)
    {
        delivered.fetch_add(1, std::memory_order_relaxed);
        if (hops.fetch_sub(1, std::memory_order_relaxed) <= 1)
            return;
        post(d, now + crossDelay);
    }

    static constexpr Tick crossDelay = 8; // >= lookahead: legal post

    std::unique_ptr<ParallelEngine> eng;
    std::array<Box, 4> box;
    std::array<std::uint64_t, 4> epochOf{};
    std::atomic<int> hops{0};
    std::atomic<int> posted{0};
    std::atomic<int> merged{0};
    std::atomic<int> delivered{0};
};

TEST(TileEngine, MailboxParityFlipsPerEdgePerEpoch)
{
    RingMailboxFixture f(4);
    f.hops.store(64);
    // Seed one message into domain 0's inbox at t=8 (posted "from"
    // domain 3 in pre-run epoch 0).
    f.post(3, 8);
    f.eng->run(100000);
    EXPECT_EQ(f.delivered.load(), 64);
    EXPECT_EQ(f.merged.load(), f.posted.load());
    // Every mailbox buffer drained: parity never stranded a post.
    for (const auto &b : f.box) {
        EXPECT_TRUE(b.buf[0].empty());
        EXPECT_TRUE(b.buf[1].empty());
    }
}

TEST(TileEngine, MailboxDisciplineIsThreadCountInvariant)
{
    std::array<std::uint64_t, 3> epochs{};
    std::array<int, 3> i{};
    int k = 0;
    for (int threads : {1, 2, 4}) {
        RingMailboxFixture f(threads);
        f.hops.store(64);
        f.post(3, 8);
        f.eng->run(100000);
        EXPECT_EQ(f.delivered.load(), 64);
        epochs[std::size_t(k)] = f.eng->epochs();
        i[std::size_t(k)] = f.merged.load();
        k += 1;
    }
    // The epoch sequence and merge count are simulation state, not
    // scheduling state: identical at every worker count.
    EXPECT_EQ(epochs[0], epochs[1]);
    EXPECT_EQ(epochs[0], epochs[2]);
    EXPECT_EQ(i[0], i[1]);
    EXPECT_EQ(i[0], i[2]);
}

TEST(TileEngine, WindowHookWidensEpochsAwayOnIdleGaps)
{
    // A sparse chain: one event every 8 ticks for 65 events, base
    // lookahead 4 — each event schedules its successor past the
    // conservative window, so the narrow engine pays one barrier per
    // event (skip-ahead jumps the gap but cannot batch). A hook that
    // widens the window to 64 ticks fits 8 chain links per epoch and
    // must cut the epoch count several-fold, without changing what
    // fires.
    auto countEpochs = [](bool widen) {
        ParallelEngine::Config cfg;
        cfg.domains = 2;
        cfg.threads = 2;
        cfg.lookahead = 4;
        ParallelEngine eng(cfg);
        std::atomic<int> fired{0};
        std::function<void(Tick)> chain = [&](Tick t) {
            fired.fetch_add(1, std::memory_order_relaxed);
            if (t < 64 * 8) {
                Tick next = t + 8;
                eng.domainCtx(0).queue().scheduleAt(
                    next, [&chain, next] { chain(next); });
            }
        };
        eng.domainCtx(0).queue().scheduleAt(0, [&chain] { chain(0); });
        if (widen) {
            eng.setWindowHook([](Tick ws, Tick) { return ws + 64; });
        }
        eng.run(maxTick);
        EXPECT_EQ(fired.load(), 65);
        return eng.epochs();
    };
    const std::uint64_t narrow = countEpochs(false);
    const std::uint64_t wide = countEpochs(true);
    EXPECT_LT(wide, narrow);
}

TEST(TileEngine, OneHotTileIsThreadCountInvariant)
{
    // All the work lives in domain 3 — worker 1's home block under
    // the 2-thread split — so every other worker idles at the
    // barrier. Simulated results must not depend on the worker count.
    auto runOnce = [](int threads) {
        ParallelEngine::Config cfg;
        cfg.domains = 4;
        cfg.threads = threads;
        cfg.lookahead = 4;
        ParallelEngine eng(cfg);
        std::atomic<std::uint64_t> sum{0};
        for (Tick t = 1; t <= 400; ++t)
            eng.domainCtx(3).queue().scheduleAt(t, [&sum, t] {
                sum.fetch_add(t, std::memory_order_relaxed);
            });
        Tick end = eng.run(maxTick);
        return std::tuple<std::uint64_t, std::uint64_t, Tick,
                          std::uint64_t>{sum.load(), eng.firedTotal(),
                                         end, eng.epochs()};
    };
    const auto one = runOnce(1);
    EXPECT_EQ(std::get<0>(one), 400u * 401u / 2u);
    EXPECT_EQ(runOnce(2), one);
    EXPECT_EQ(runOnce(4), one);
}

} // namespace
