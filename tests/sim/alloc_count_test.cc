/**
 * @file
 * Zero-steady-state-allocation tests for the event kernel, the
 * packet pool and the coherent memory path.
 *
 * The calendar queue + InlineFn rewrite exists so that scheduling and
 * firing events allocates nothing once the structures are warm, the
 * PacketPool so that packet flight recycles slots instead of
 * allocating, and the coherence node's flat tables and reused MAF
 * slots so that a miss or a hit does not either. These tests pin
 * that property with a global operator new/delete override that
 * counts every heap allocation in the process. The file is its own test binary (see tests/CMakeLists.txt)
 * precisely because the override is global.
 *
 * Under sanitizer builds (GS_SANITIZE) the runtime intercepts the
 * allocator and allocates internally, so the exact-zero assertions
 * are skipped; the functional behavior is still exercised.
 */

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "coherence/node.hh"
#include "dense_load.hh"
#include "mem/address.hh"
#include "net/network.hh"
#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "sim/event_queue.hh"
#include "sim/parallel.hh"
#include "topology/torus.hh"

namespace
{

// Thread-local so the parallel-engine test below can take a
// per-worker baseline and delta without any cross-thread races; the
// single-threaded tests only ever see the main thread's counter.
thread_local std::uint64_t g_allocs = 0;

} // namespace

void *
operator new(std::size_t n)
{
    g_allocs += 1;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    g_allocs += 1;
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace
{

using gs::EventQueue;
using gs::Tick;

/** Allocations observed while running @p body. */
template <typename F>
std::uint64_t
allocsDuring(F &&body)
{
    const std::uint64_t before = g_allocs;
    body();
    return g_allocs - before;
}

TEST(AllocCount, OverrideIsLive)
{
    // Sanity: the counting override is actually linked in. Call the
    // allocation function directly — a new-expression paired with an
    // immediate delete may legally be elided entirely.
    const std::uint64_t delta = allocsDuring([] {
        void *p = ::operator new(16);
        ::operator delete(p);
    });
    EXPECT_GE(delta, 1u);
}

TEST(AllocCount, WarmEventLoopAllocatesNothing)
{
    EventQueue eq;

    // A capture that fills the inline buffer exactly: a reference, a
    // pointer and six 8-byte ids — 64 bytes, the InlineFn capacity.
    std::uint64_t sink[4] = {0, 0, 0, 0};
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
    auto bigCapture = [&eq, ptr = &sink[0], a, b, c, d, e, f] {
        *ptr += a + b + c + d + e + f;
        (void)eq;
    };
    static_assert(sizeof(bigCapture) == gs::InlineFn::inlineCapacity,
                  "capture sized to fill the whole inline buffer");
    static_assert(gs::InlineFn::fitsInline<decltype(bigCapture)>(),
                  "hot-path capture must stay inline");

    // Warm-up: walk the window across the whole bucket ring once so
    // every bucket's vector owns steady-state capacity (clear()
    // keeps capacity, so one lap is enough forever after).
    for (int i = 0; i < 1100; ++i) {
        eq.schedule(EventQueue::bucketWidth, bigCapture);
        eq.step();
    }

    const std::uint64_t delta = allocsDuring([&] {
        for (int i = 0; i < 10000; ++i) {
            eq.schedule(1, bigCapture);
            eq.step();
        }
    });

#ifdef GS_SANITIZE
    GTEST_SKIP() << "sanitizer runtime owns the allocator; counted "
                 << delta << " allocations";
#else
    EXPECT_EQ(delta, 0u) << "warm schedule/fire loop must not touch "
                            "the heap";
#endif
    EXPECT_EQ(sink[0], 21u * 10000u + 21u * 1100u);
}

TEST(AllocCount, WarmBurstSchedulingAllocatesNothing)
{
    EventQueue eq;
    std::uint64_t fired = 0;

    // Warm every ring bucket to the burst's high-water capacity:
    // 64 same-tick events, one bucket per lap step, a full lap.
    for (int i = 0; i < 1100; ++i) {
        for (int k = 0; k < 64; ++k)
            eq.schedule(EventQueue::bucketWidth, [&fired] {
                fired += 1;
            });
        eq.runUntil();
    }
    const std::uint64_t warmFired = fired;

    auto burst = [&] {
        for (int k = 0; k < 64; ++k)
            eq.schedule(static_cast<Tick>(1 + 7 * k), [&fired] {
                fired += 1;
            });
        eq.runUntil();
    };
    const std::uint64_t delta = allocsDuring([&] {
        for (int i = 0; i < 100; ++i)
            burst();
    });

#ifdef GS_SANITIZE
    GTEST_SKIP() << "sanitizer build; counted " << delta;
#else
    EXPECT_EQ(delta, 0u);
#endif
    EXPECT_EQ(fired, warmFired + 64u * 100u);
}

/**
 * A dense load (~640 keys per bucket, at most six buckets pending)
 * trades bucket storage with the spare stack instead of growing it:
 * after one warm lap of the ring, two more laps allocate nothing.
 */
TEST(AllocCount, DenseLoadAllocatesNothingAfterOneLap)
{
    gs::test::DenseLoad<EventQueue> load;
    load.q.runUntil(EventQueue::horizon);
    const std::uint64_t firedWarm = load.fires;
    const std::uint64_t delta = allocsDuring([&] {
        load.q.runUntil(3 * EventQueue::horizon);
    });
    EXPECT_GT(load.fires - firedWarm, 2u * 1024u * 500u);

#ifdef GS_SANITIZE
    GTEST_SKIP() << "sanitizer build; counted " << delta;
#else
    EXPECT_EQ(delta, 0u) << "dense load allocated after a warm lap";
#endif
}

TEST(AllocCount, WarmPacketPoolAllocatesNothing)
{
    gs::net::PacketPool pool;
    gs::net::Packet pkt;
    pkt.src = 0;
    pkt.dst = 1;
    pkt.flits = 3;

    // Warm: 32 slots plus freelist/live-bitmap capacity.
    std::vector<gs::net::PacketHandle> held;
    for (int i = 0; i < 32; ++i)
        held.push_back(pool.acquire(pkt));
    for (auto h : held)
        pool.release(h);
    held.clear();
    held.reserve(32);

    const std::uint64_t delta = allocsDuring([&] {
        for (int round = 0; round < 10000; ++round) {
            for (int i = 0; i < 16; ++i)
                held.push_back(pool.acquire(pkt));
            for (auto h : held)
                pool.release(h);
            held.clear();
        }
    });

#ifdef GS_SANITIZE
    GTEST_SKIP() << "sanitizer build; counted " << delta;
#else
    EXPECT_EQ(delta, 0u) << "warm acquire/release churn must recycle "
                            "slots, not allocate";
#endif
    EXPECT_EQ(pool.stats().reused, 10000u * 16u);
    EXPECT_EQ(pool.capacity(), 32u);
}

/**
 * The parallel engine's steady state must be allocation-free on
 * every worker thread: local event flow, cross-domain mailbox posts,
 * barrier merges and packet-pool recycling all reuse warm capacity.
 * A token ring over a partitioned 4x2 torus (every hop crosses a
 * domain boundary) drives all of those paths at once; each domain
 * records its worker's thread-local allocation counter at a warm
 * tick and again at the deadline, and the deltas must be zero.
 */
TEST(AllocCount, ParallelSteadyStateAllocatesNothingPerWorker)
{
    using gs::NodeId;
    using gs::SimContext;

    constexpr int w = 4, h = 2, nodes = w * h;
    SimContext mainCtx;
    gs::topo::Torus2D topo(w, h);
    gs::net::Network net(mainCtx, topo,
                         gs::net::NetworkParams::gs1280());

    gs::ParallelEngine::Config cfg;
    cfg.domains = w;
    cfg.threads = w;
    cfg.lookahead = net.conservativeLookahead();
    gs::ParallelEngine eng(cfg);

    std::vector<int> dom(nodes);
    std::vector<SimContext *> dctx;
    for (NodeId n = 0; n < nodes; ++n)
        dom[std::size_t(n)] = topo.xOf(n);
    for (int d = 0; d < w; ++d)
        dctx.push_back(&eng.domainCtx(d));
    net.setPartition(std::move(dom), std::move(dctx));
    eng.setMergeHook(
        [&net](int d, Tick ws) { net.mergeFor(d, ws); });
    eng.setPendingMinHook([&net](int d) { return net.pendingMinOf(d); });
    eng.setPublishHook([&net](int d) { net.publishFor(d); });

    // Every delivery re-injects to the next node; (n+1) % nodes
    // always lands in a different column, so every hop exercises the
    // mailbox path. The handler runs on the owning worker and the
    // re-injected packet's source is that same domain.
    for (NodeId n = 0; n < nodes; ++n) {
        net.setHandler(n, [&net, n](const gs::net::Packet &) {
            gs::net::Packet q;
            q.src = n;
            q.dst = NodeId((n + 1) % nodes);
            net.inject(q);
        });
    }
    for (NodeId n = 0; n < nodes; ++n) {
        gs::net::Packet p;
        p.src = n;
        p.dst = NodeId((n + 1) % nodes);
        net.inject(p);
    }

    // Warm past multiple full calendar-ring laps (horizon ticks
    // each) so every ring bucket, mailbox parity buffer and pool
    // freelist owns steady-state capacity, then measure over a
    // multi-lap window. The allocation counter is thread-local, so
    // sampling runs per WORKER through the epoch hook (which every
    // worker executes
    // every epoch, on its own thread): a simulation event flags the
    // end of warmup, each worker then takes its own baseline once
    // and refreshes its own end sample every epoch after.
    const Tick warmTick = 3 * EventQueue::horizon;
    const Tick endTick = 6 * EventQueue::horizon;
    std::atomic<bool> warm{false};
    eng.domainCtx(0).queue().scheduleAt(
        warmTick, [&warm] { warm.store(true, std::memory_order_release); });
    std::array<std::uint64_t, w> base{}, end{};
    std::array<bool, w> sampled{};
    eng.setEpochHook([&](int t, std::uint64_t) {
        if (!warm.load(std::memory_order_acquire))
            return;
        if (!sampled[std::size_t(t)]) {
            base[std::size_t(t)] = g_allocs;
            sampled[std::size_t(t)] = true;
            return;
        }
        end[std::size_t(t)] = g_allocs;
    });

    eng.run(endTick);

    ASSERT_GT(net.stats().deliveredPackets, 1000u);
    // Every delivery traversed exactly one cross-column link (posted
    // arrivals only exceed deliveries by packets still in flight).
    EXPECT_GE(net.crossArrivalsPosted(),
              net.stats().deliveredPackets);
#ifdef GS_SANITIZE
    GTEST_SKIP() << "sanitizer runtime owns the allocator";
#else
    for (int t = 0; t < w; ++t) {
        ASSERT_TRUE(sampled[std::size_t(t)])
            << "worker " << t << " never reached a warm epoch";
        EXPECT_EQ(end[std::size_t(t)] - base[std::size_t(t)], 0u)
            << "worker " << t << " allocated in steady state";
    }
#endif
}

/**
 * A warm coherent miss allocates nothing: on the 2-node machine of
 * BM_CoherentLocalMiss, local read misses through MAF, directory,
 * Zbox, victim buffer and fill batch, then L2 hits, each 1000 times.
 */
TEST(AllocCount, WarmCoherentPathAllocatesNothing)
{
    using namespace gs;
    SimContext ctx;
    topo::Torus2D torus(2, 1);
    net::Network network(ctx, torus, net::NetworkParams::gs1280());
    mem::NodeOwnedMap map;
    coher::NodeConfig cfg;
    coher::CoherentNode node(ctx, network, 0, map, cfg);
    coher::CoherentNode other(ctx, network, 1, map, cfg);

    int done = 0;
    auto access = [&](mem::Addr a) {
        node.memAccess(a, false, [&done] { done += 1; });
        ctx.queue().runUntil();
    };

    // Cycling through twice the L2's lines misses on every access
    // (LRU) and evicts an Exclusive line per fill. One lap warms
    // every cache set, Zbox bank, the directory and victim tables,
    // the packet pool and the event ring.
    const mem::Addr lap = 2 * cfg.l2.sizeBytes;
    mem::Addr a = 0;
    for (; a < lap; a += mem::lineBytes)
        access(a);

    const std::uint64_t missesBefore = node.stats().misses;
    const std::uint64_t missDelta = allocsDuring([&] {
        for (int i = 0; i < 1000; ++i, a += mem::lineBytes)
            access(a % lap);
    });
    EXPECT_EQ(node.stats().misses - missesBefore, 1000u);

    // The last 1000 lines are resident: read them again.
    const std::uint64_t hitsBefore = node.stats().l2Hits;
    const std::uint64_t hitDelta = allocsDuring([&] {
        for (int i = 1000; i > 0; --i)
            access((a - mem::Addr(i) * mem::lineBytes) % lap);
    });
    EXPECT_EQ(node.stats().l2Hits - hitsBefore, 1000u);
    EXPECT_EQ(done, static_cast<int>(lap / mem::lineBytes) + 2000);
    EXPECT_TRUE(node.quiesced());

#ifdef GS_SANITIZE
    GTEST_SKIP() << "sanitizer build; counted " << missDelta << " and "
                 << hitDelta;
#else
    EXPECT_EQ(missDelta, 0u) << "warm local read misses allocated";
    EXPECT_EQ(hitDelta, 0u) << "warm L2 hits allocated";
#endif
}

} // namespace
