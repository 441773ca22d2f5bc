/** @file Unit tests for the packet pool and the packet FIFO. */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "sim/checkpoint.hh"

namespace
{

using gs::net::Packet;
using gs::net::PacketHandle;
using gs::net::PacketPool;
using gs::net::PacketQueue;

Packet
mkPkt(int src, int dst, int flits)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.flits = flits;
    return p;
}

TEST(PacketPool, AcquireStoresACopy)
{
    PacketPool pool;
    Packet p = mkPkt(1, 2, 5);
    PacketHandle h = pool.acquire(p);
    p.flits = 99; // the pool owns an independent copy
    EXPECT_EQ(pool.get(h).src, 1);
    EXPECT_EQ(pool.get(h).dst, 2);
    EXPECT_EQ(pool.get(h).flits, 5);
    EXPECT_EQ(pool.inUse(), 1u);
    pool.release(h);
    EXPECT_EQ(pool.inUse(), 0u);
}

TEST(PacketPool, ReleasedSlotsRecycleLifo)
{
    PacketPool pool;
    PacketHandle a = pool.acquire(mkPkt(0, 1, 1));
    PacketHandle b = pool.acquire(mkPkt(0, 2, 1));
    EXPECT_EQ(pool.stats().allocated, 2u);
    EXPECT_EQ(pool.stats().reused, 0u);

    pool.release(a);
    pool.release(b);
    // LIFO: the most recently released slot comes back first.
    EXPECT_EQ(pool.acquire(mkPkt(0, 3, 1)), b);
    EXPECT_EQ(pool.acquire(mkPkt(0, 4, 1)), a);
    EXPECT_EQ(pool.stats().allocated, 2u);
    EXPECT_EQ(pool.stats().reused, 2u);
    EXPECT_EQ(pool.capacity(), 2u);
}

TEST(PacketPool, ReferencesStayValidAcrossGrowth)
{
    PacketPool pool;
    PacketHandle first = pool.acquire(mkPkt(7, 8, 9));
    const Packet &ref = pool.get(first);

    // Force lots of growth; a vector-backed slab would reallocate
    // and dangle `ref`, the deque must not.
    std::vector<PacketHandle> held;
    for (int i = 0; i < 4096; ++i)
        held.push_back(pool.acquire(mkPkt(i, i + 1, 1)));

    EXPECT_EQ(ref.src, 7);
    EXPECT_EQ(ref.dst, 8);
    EXPECT_EQ(ref.flits, 9);
    EXPECT_EQ(&ref, &pool.get(first));

    for (auto h : held)
        pool.release(h);
    pool.release(first);
    EXPECT_EQ(pool.inUse(), 0u);
    EXPECT_EQ(pool.stats().peakInUse, 4097u);
}

TEST(PacketPoolDeath, DoubleReleasePanics)
{
    PacketPool pool;
    PacketHandle h = pool.acquire(mkPkt(0, 1, 1));
    pool.release(h);
    EXPECT_DEATH(pool.release(h), "released twice");
}

/** Handles of @p q, front to back. */
std::vector<PacketHandle>
contents(const PacketQueue &q, const PacketPool &pool)
{
    std::vector<PacketHandle> seen;
    q.forEach(pool, [&seen](PacketHandle h) { seen.push_back(h); });
    return seen;
}

TEST(PacketQueue, IsFifo)
{
    PacketPool pool;
    const PacketHandle a = pool.acquire(mkPkt(0, 1, 1));
    const PacketHandle b = pool.acquire(mkPkt(0, 2, 1));
    const PacketHandle c = pool.acquire(mkPkt(0, 3, 1));
    PacketQueue q;
    EXPECT_TRUE(q.empty());
    q.push(pool, c);
    q.push(pool, a);
    q.push(pool, b);
    EXPECT_EQ(q.size(pool), 3u);
    EXPECT_EQ(q.front(), c);
    EXPECT_EQ(q.pop(pool), c);
    EXPECT_EQ(q.front(), a);
    EXPECT_EQ(q.pop(pool), a);
    EXPECT_EQ(q.front(), b);
    EXPECT_EQ(q.pop(pool), b);
    EXPECT_TRUE(q.empty());
}

TEST(PacketQueue, IterationSkipsConsumedPrefix)
{
    PacketPool pool;
    PacketQueue q;
    std::vector<PacketHandle> hs;
    for (int i = 0; i < 8; ++i)
        hs.push_back(pool.acquire(mkPkt(0, i, 1)));
    // Queue them in an order unlike their handle order.
    for (int i : {5, 2, 7, 0, 1, 6, 3, 4})
        q.push(pool, hs[std::size_t(i)]);
    q.pop(pool);
    q.pop(pool);
    const std::vector<PacketHandle> want{hs[7], hs[0], hs[1],
                                         hs[6], hs[3], hs[4]};
    EXPECT_EQ(contents(q, pool), want);

    // A snapshot writes the count, then the same sequence.
    gs::ckpt::Serializer s;
    q.saveCkpt(s, pool);
    gs::ckpt::Serializer w;
    w.put32(static_cast<std::uint32_t>(want.size()));
    for (PacketHandle h : want)
        w.put32(h);
    EXPECT_EQ(s.buffer(), w.buffer());
}

TEST(PacketQueue, PreservesOrderUnderChurn)
{
    // Handles recycle through the pool's freelist, so order is
    // checked on the packet ids pushed and popped.
    PacketPool pool;
    PacketQueue q;
    int nextPush = 0;
    int nextPop = 0;
    // Keep ~40 in flight through hundreds of push/pop cycles.
    for (int round = 0; round < 500; ++round) {
        for (int i = 0; i < 5; ++i)
            q.push(pool, pool.acquire(mkPkt(0, nextPush++, 1)));
        for (int i = 0; i < 4 && !q.empty(); ++i) {
            const PacketHandle h = q.pop(pool);
            ASSERT_EQ(pool.get(h).dst, nextPop);
            pool.release(h);
            nextPop += 1;
        }
    }
    while (!q.empty()) {
        const PacketHandle h = q.pop(pool);
        ASSERT_EQ(pool.get(h).dst, nextPop);
        pool.release(h);
        nextPop += 1;
    }
    EXPECT_EQ(nextPop, nextPush);
    EXPECT_EQ(pool.inUse(), 0u);
}

TEST(PacketQueue, ClearEmptiesEverything)
{
    PacketPool pool;
    PacketQueue q;
    std::vector<PacketHandle> hs;
    for (int i = 0; i < 100; ++i) {
        hs.push_back(pool.acquire(mkPkt(0, i, 1)));
        q.push(pool, hs.back());
    }
    for (int i = 0; i < 70; ++i)
        q.pop(pool);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(pool), 0u);
    q.push(pool, hs[42]);
    EXPECT_EQ(q.front(), hs[42]);
    EXPECT_EQ(contents(q, pool), std::vector<PacketHandle>{hs[42]});
}

} // namespace
