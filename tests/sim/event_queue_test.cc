/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "dense_load.hh"
#include "legacy_event_queue.hh"
#include "sim/checkpoint.hh"
#include "sim/event_queue.hh"

namespace
{

using gs::EventQueue;
using gs::Tick;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&] { order.push_back(3); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(20, [&] { order.push_back(2); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    eq.runUntil();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RelativeScheduleUsesCurrentTime)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(100, [&] {
        eq.schedule(50, [&] { seen = eq.now(); });
    });
    eq.runUntil();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(10, [&] { fired += 1; });
    eq.scheduleAt(1000, [&] { fired += 1; });
    eq.runUntil(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, RunForAdvancesRelative)
{
    EventQueue eq;
    eq.scheduleAt(10, [] {});
    eq.runUntil(50);
    eq.runFor(25);
    EXPECT_EQ(eq.now(), 75u);
}

TEST(EventQueue, EventsCanCascade)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            eq.schedule(1, chain);
    };
    eq.schedule(1, chain);
    eq.runUntil();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, ClearDropsPendingEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(10, [&] { fired += 1; });
    eq.clear();
    eq.runUntil();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.scheduleAt(100, [] {});
    eq.runUntil();
    EXPECT_DEATH(eq.scheduleAt(50, [] {}), "past");
}

// --- Calendar-queue edge cases ------------------------------------
// The internals below (bucketWidth, horizon, the overflow heap) are
// implementation geometry; the behavior asserted is the public
// (when, seq) fire-order contract at exactly the seams where the
// calendar does something different from a plain heap.

TEST(EventQueueCalendar, SameTickFifoAcrossBucketBoundary)
{
    EventQueue eq;
    std::vector<int> order;
    const Tick a = EventQueue::bucketWidth - 1; // last tick, bucket 0
    const Tick b = EventQueue::bucketWidth;     // first tick, bucket 1
    // Interleave scheduling across the boundary; FIFO must hold
    // within each tick and time order across them.
    for (int i = 0; i < 4; ++i) {
        eq.scheduleAt(b, [&order, i] { order.push_back(10 + i); });
        eq.scheduleAt(a, [&order, i] { order.push_back(i); });
    }
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13}));
}

TEST(EventQueueCalendar, ScheduleAtNowFiresImmediately)
{
    EventQueue eq;
    eq.scheduleAt(12345, [] {});
    eq.runUntil();
    ASSERT_EQ(eq.now(), 12345u);

    bool hit = false;
    eq.scheduleAt(eq.now(), [&] { hit = true; });
    EXPECT_TRUE(eq.step());
    EXPECT_TRUE(hit);
    EXPECT_EQ(eq.now(), 12345u);
}

TEST(EventQueueCalendar, EventSchedulingIntoItsOwnTickRunsLast)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(500, [&] {
        order.push_back(0);
        // Lands on the firing tick, behind the already-queued 1.
        eq.schedule(0, [&order] { order.push_back(2); });
    });
    eq.scheduleAt(500, [&order] { order.push_back(1); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueueCalendar, ClearFromInsideACallbackMidBucket)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(100, [&] {
        fired += 1;
        eq.clear(); // drops the rest of this very bucket
    });
    eq.scheduleAt(100, [&] { fired += 1; });
    eq.scheduleAt(101, [&] { fired += 1; });
    eq.runUntil();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.empty());

    // The queue must stay fully usable after a mid-bucket clear.
    eq.scheduleAt(200, [&] { fired += 10; });
    eq.runUntil();
    EXPECT_EQ(fired, 11);
    EXPECT_EQ(eq.now(), 200u);
}

TEST(EventQueueCalendar, FarEventsParkInOverflowAndMigrate)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(1, [&order] { order.push_back(0); });
    // Far beyond the ring window: must wait in the overflow heap.
    const Tick far = 3 * EventQueue::horizon + 17;
    eq.scheduleAt(far, [&order] { order.push_back(1); });
    eq.scheduleAt(far, [&order] { order.push_back(2); }); // FIFO tie
    EXPECT_EQ(eq.overflowPending(), 2u);
    EXPECT_EQ(eq.ringPending(), 1u);

    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.now(), far);
    EXPECT_EQ(eq.overflowPending(), 0u);
    EXPECT_GE(eq.overflowMigrations(), 2u);
}

TEST(EventQueueCalendar, RunUntilExactlyOnBucketEdge)
{
    EventQueue eq;
    int fired = 0;
    const Tick edge = EventQueue::bucketWidth;
    eq.scheduleAt(edge - 1, [&] { fired += 1; });
    eq.scheduleAt(edge, [&] { fired += 1; });
    eq.scheduleAt(edge + 1, [&] { fired += 1; });
    eq.runUntil(edge);
    EXPECT_EQ(fired, 2); // limit is inclusive
    EXPECT_EQ(eq.now(), edge);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueueCalendar, NearEventAfterFarReanchorStillFiresFirst)
{
    EventQueue eq;
    std::vector<int> order;
    // A lone far-future event pulls the window forward when the ring
    // runs dry...
    const Tick far = 2 * EventQueue::horizon;
    eq.scheduleAt(far, [&order] { order.push_back(1); });
    eq.runUntil(10); // advances time only; window re-anchored at far
    ASSERT_EQ(eq.now(), 10u);
    // ...and an event landing before that window must still beat it.
    eq.scheduleAt(20, [&order] { order.push_back(0); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), far);
}

TEST(EventQueueCalendar, MetricsCountFiredAndPeak)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.scheduleAt(static_cast<Tick>(10 + i), [] {});
    EXPECT_EQ(eq.peakPending(), 5u);
    eq.runUntil();
    EXPECT_EQ(eq.firedCount(), 5u);
    EXPECT_EQ(eq.peakPending(), 5u); // high-water mark persists
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueueCalendar, ClearReanchorsTheRing)
{
    EventQueue eq;
    int fired = 0;
    // Drag the calendar window deep into the future, then clear with
    // events still resident in ring AND overflow — the regression
    // was a ring left anchored at the old epoch after clear().
    const Tick far = 2 * EventQueue::horizon + 5;
    eq.scheduleAt(far, [&] { fired += 100; });
    eq.scheduleAt(far + EventQueue::horizon, [&] { fired += 100; });
    eq.runUntil(far - 1); // window now anchored near `far`
    eq.clear();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.ringPending(), 0u);
    EXPECT_EQ(eq.overflowPending(), 0u);

    // A post-clear near event must land in a live bucket, fire, and
    // fire exactly once; same-tick FIFO must survive the reset.
    std::vector<int> order;
    eq.scheduleAt(far + 1, [&] { order.push_back(0); });
    eq.scheduleAt(far + 1, [&] { order.push_back(1); });
    eq.scheduleAt(far + EventQueue::bucketWidth, [&] {
        order.push_back(2);
    });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.now(), far + EventQueue::bucketWidth);
}

TEST(EventQueueWindow, DrainWindowFiresStrictlyBefore)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(10, [&] { order.push_back(10); });
    eq.scheduleAt(20, [&] { order.push_back(20); });
    eq.scheduleAt(30, [&] { order.push_back(30); });

    EXPECT_EQ(eq.drainWindow(20), 1u);
    EXPECT_EQ(order, (std::vector<int>{10}));
    // now() stays at the last fired event (not the window edge), so
    // the domain clock matches the serial engine after those events.
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(eq.peekNext(), 20u);

    EXPECT_EQ(eq.drainWindow(31), 2u);
    EXPECT_EQ(order, (std::vector<int>{10, 20, 30}));
    EXPECT_EQ(eq.peekNext(), gs::maxTick);
    EXPECT_EQ(eq.drainWindow(1000), 0u);
}

TEST(EventQueueWindow, SyncTimeAdvancesWithoutFiring)
{
    EventQueue eq;
    int fired = 0;
    eq.syncTime(15);
    EXPECT_EQ(eq.now(), 15u);
    eq.schedule(5, [&] { fired += 1; }); // relative to synced time
    eq.runUntil();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueueWindow, MergedEventsBeatSameTickLocalEvents)
{
    EventQueue eq;
    std::vector<int> order;
    // Local events scheduled FIRST, merged events appended LAST —
    // the merge band must still fire first at the shared tick, the
    // order the serial engine gives arrivals/credits vs. tick work.
    eq.scheduleAt(100, [&] { order.push_back(2); });
    eq.scheduleAt(100, [&] { order.push_back(3); });
    eq.peekNext(); // sort the live bucket: exercises binary insert
    eq.scheduleMergedAt(100, [&] { order.push_back(0); });
    eq.scheduleMergedAt(100, [&] { order.push_back(1); });
    eq.scheduleAt(90, [&] { order.push_back(-1); });
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3}));
}

TEST(EventQueueWindow, MergedEventBeforeRingBaseStillFires)
{
    EventQueue eq;
    std::vector<int> order;
    // An idle domain whose only local work sits far ahead: the ring
    // re-anchors at the far event, then a barrier merge delivers
    // cross-domain work due much earlier. rewindTo must recover.
    const Tick far = EventQueue::horizon + 500;
    eq.scheduleAt(far, [&order] { order.push_back(1); });
    eq.peekNext(); // anchor the window at `far`
    eq.scheduleMergedAt(40, [&order] { order.push_back(0); });
    EXPECT_EQ(eq.peekNext(), 40u);
    eq.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), far);
}

// --- Payload slab lifetimes -----------------------------------------
// Callbacks live in a slab slot from schedule to fire while the
// calendar moves only keys. Every capture must be destroyed exactly
// once whichever way it leaves the queue, and freed slots recycle.

/** Per-capture destruction and call counts, plus live instances. */
struct Census
{
    int live = 0; ///< capture objects alive, moved-from ones included
    std::vector<int> destroyed; ///< per id: owning-instance destructions
    std::vector<int> calls;     ///< per id: invocations

    int
    add()
    {
        destroyed.push_back(0);
        calls.push_back(0);
        return static_cast<int>(destroyed.size()) - 1;
    }

    bool
    eachDestroyedOnce() const
    {
        return std::all_of(destroyed.begin(), destroyed.end(),
                           [](int d) { return d == 1; });
    }
};

/** A non-trivially-relocatable capture that stays inline. */
struct Counted
{
    Census *c;
    int id;
    bool owns = true;

    explicit Counted(Census *census) : c(census), id(census->add())
    {
        c->live += 1;
    }
    Counted(Counted &&o) noexcept : c(o.c), id(o.id), owns(o.owns)
    {
        o.owns = false;
        c->live += 1;
    }
    Counted(const Counted &) = delete;
    Counted &operator=(const Counted &) = delete;
    ~Counted()
    {
        c->live -= 1;
        if (owns)
            c->destroyed[static_cast<std::size_t>(id)] += 1;
    }
    void operator()() { c->calls[static_cast<std::size_t>(id)] += 1; }
};

/** The same, padded past the inline buffer: heap-backed. */
struct Bulky : Counted
{
    using Counted::Counted;
    std::array<std::uint64_t, 8> ballast{};
};

static_assert(gs::InlineFn::fitsInline<Counted>());
static_assert(!std::is_trivially_copyable_v<Counted>);
static_assert(!gs::InlineFn::fitsInline<Bulky>());

template <typename Capture>
class EventQueueSlab : public ::testing::Test
{};
using CaptureTypes = ::testing::Types<Counted, Bulky>;
TYPED_TEST_SUITE(EventQueueSlab, CaptureTypes);

TYPED_TEST(EventQueueSlab, FiredCaptureDestroyedOnce)
{
    Census census;
    {
        EventQueue eq;
        for (int i = 0; i < 20; ++i)
            eq.scheduleAt(static_cast<Tick>(10 + 7 * i),
                          TypeParam(&census));
        eq.scheduleAt(3 * EventQueue::horizon, TypeParam(&census));
        eq.runUntil();
        EXPECT_EQ(census.live, 0);
        EXPECT_TRUE(census.eachDestroyedOnce());
    }
    EXPECT_EQ(census.calls, std::vector<int>(21, 1));
    EXPECT_TRUE(census.eachDestroyedOnce());
}

TYPED_TEST(EventQueueSlab, ClearDestroysPendingOnce)
{
    Census census;
    EventQueue eq;
    for (int i = 0; i < 12; ++i)
        eq.scheduleAt(static_cast<Tick>(100 * i), TypeParam(&census));
    eq.scheduleAt(2 * EventQueue::horizon, TypeParam(&census));
    eq.runUntil(450); // fires ids 0..4
    eq.clear();
    EXPECT_EQ(census.live, 0);
    EXPECT_TRUE(census.eachDestroyedOnce());
    for (std::size_t id = 0; id < census.calls.size(); ++id)
        EXPECT_EQ(census.calls[id], id < 5 ? 1 : 0) << "id " << id;
}

TYPED_TEST(EventQueueSlab, ClearFromCallbackMidBucketDestroysOnce)
{
    Census census;
    EventQueue eq;
    eq.scheduleAt(100, TypeParam(&census));
    eq.scheduleAt(100, [&eq] { eq.clear(); });
    eq.scheduleAt(100, TypeParam(&census)); // same bucket, after it
    eq.scheduleAt(101, TypeParam(&census));
    eq.scheduleAt(EventQueue::horizon + 9, TypeParam(&census));
    eq.runUntil();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(census.live, 0);
    EXPECT_TRUE(census.eachDestroyedOnce());
    EXPECT_EQ(census.calls, (std::vector<int>{1, 0, 0, 0}));
}

TYPED_TEST(EventQueueSlab, PendingAtDestructionDestroyedOnce)
{
    Census census;
    {
        EventQueue eq;
        for (int i = 0; i < 10; ++i)
            eq.scheduleAt(static_cast<Tick>(50 * i), TypeParam(&census));
        eq.scheduleAt(5 * EventQueue::horizon, TypeParam(&census));
        eq.runUntil(120); // fires ids 0..2, leaves ring and heap work
        EXPECT_EQ(census.live, 8);
    }
    EXPECT_EQ(census.live, 0);
    EXPECT_TRUE(census.eachDestroyedOnce());
    EXPECT_EQ(census.calls,
              (std::vector<int>{1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0}));
}

TYPED_TEST(EventQueueSlab, RewindKeepsEachCaptureOnce)
{
    Census census;
    EventQueue eq;
    // The first schedule anchors the window at `far`; the next ones
    // share the ring with it and one parks in the overflow heap.
    const Tick far = 2 * EventQueue::horizon;
    for (int i = 0; i < 6; ++i)
        eq.scheduleAt(far + static_cast<Tick>(i), TypeParam(&census));
    eq.scheduleAt(far + 3 * EventQueue::horizon, TypeParam(&census));
    eq.runUntil(10);
    ASSERT_EQ(eq.now(), 10u);
    // Lands before the window: every pending key is rebuilt around it.
    eq.scheduleAt(20, TypeParam(&census));
    EXPECT_EQ(census.live, 8);
    EXPECT_EQ(eq.peekNext(), 20u);
    eq.runUntil();
    EXPECT_EQ(census.live, 0);
    EXPECT_TRUE(census.eachDestroyedOnce());
    EXPECT_EQ(census.calls, std::vector<int>(8, 1));
}

TEST(EventQueueSlab, FreedSlotsAreReusedAfterClear)
{
    EventQueue eq;
    int fired = 0;
    auto fill = [&](Tick at) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleAt(at + static_cast<Tick>(i * 37),
                          [&fired] { fired += 1; });
    };
    fill(0);
    const std::size_t slots = eq.slabSlots();
    ASSERT_GE(slots, 1000u);
    for (int lap = 0; lap < 5; ++lap) {
        eq.clear();
        fill(eq.now());
        EXPECT_EQ(eq.slabSlots(), slots) << "lap " << lap;
    }
    // Also when the clear comes from inside a firing callback.
    eq.scheduleAt(eq.now(), [&] {
        eq.clear();
        fill(eq.now());
    });
    eq.runUntil(eq.now());
    EXPECT_EQ(eq.slabSlots(), slots);
    eq.runUntil();
    EXPECT_EQ(eq.slabSlots(), slots);
    // The last lap's tick-0 event fires before the clearing one.
    EXPECT_EQ(fired, 1 + 1000);
}

TEST(EventQueueSlab, VisitPendingReportsEachEventOnce)
{
    using Seen = std::tuple<Tick, std::uint64_t>;
    EventQueue eq;
    std::map<std::uint64_t, Seen> live; // id -> (when, seq)
    std::vector<std::uint64_t> fireLog;
    std::uint64_t nextId = 0;
    auto add = [&](Tick when, bool merged) {
        const std::uint64_t id = nextId++;
        gs::ckpt::EventDesc d;
        d.u = id;
        auto fn = [&live, &fireLog, id] {
            live.erase(id);
            fireLog.push_back(id);
        };
        const auto st = eq.ckptState();
        if (merged) {
            live[id] = {when, st.nextMergedSeq};
            eq.scheduleMergedAt(when, d, fn);
        } else {
            live[id] = {when, st.nextSeq};
            eq.scheduleAt(when, d, fn);
        }
    };
    const Tick w = EventQueue::bucketWidth;
    const Tick h = EventQueue::horizon;
    add(0, false); // anchors the window at bucket 0
    // Parked in the overflow heap; the window's first slide pulls
    // the [h, h + w) ones into the ring.
    for (int i = 0; i < 40; ++i)
        add(h + static_cast<Tick>(i * 211), false);
    // A 5000-event bucket, in scrambled tick order.
    for (int i = 0; i < 5000; ++i)
        add(w + static_cast<Tick>((i * 2654435761u) % w), false);
    eq.runUntil(w + 1000); // bucket 1 is live and partly fired
    ASSERT_GT(eq.overflowMigrations(), 0u);
    ASSERT_GT(eq.overflowPending(), 0u);
    // Interleave earlier-tick, merged-band, far and next-bucket
    // inserts with fires.
    for (int i = 0; i < 600; ++i) {
        const Tick now = eq.now();
        add(now + static_cast<Tick>(i % 5), false);
        add(now + static_cast<Tick>(i % 11), true);
        if (i % 3 == 0)
            add(now + h + static_cast<Tick>(i), false);
        if (i % 4 == 0)
            add(now + w + static_cast<Tick>(i), false);
        eq.step();
    }

    std::map<std::uint64_t, Seen> visited;
    std::size_t visits = 0;
    eq.visitPending([&](Tick when, std::uint64_t seq,
                        const gs::ckpt::EventDesc &d) {
        visits += 1;
        EXPECT_TRUE(visited.emplace(d.u, Seen{when, seq}).second)
            << "id " << d.u << " visited twice";
    });
    EXPECT_EQ(visits, eq.pending());
    EXPECT_EQ(visited, live);

    // The rest fires in exact (when, seq) order.
    std::vector<std::pair<Seen, std::uint64_t>> expect;
    for (const auto &[id, key] : live)
        expect.push_back({key, id});
    std::sort(expect.begin(), expect.end());
    const std::size_t before = fireLog.size();
    eq.runUntil();
    ASSERT_EQ(fireLog.size() - before, expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(fireLog[before + i], expect[i].second) << "fire " << i;
    EXPECT_TRUE(live.empty());
}

/**
 * Bucket storage follows the buckets pending at once. The dense load
 * puts ~640 keys in every bucket over three ring laps but never has
 * more than six buckets pending, so drained buckets hand their large
 * storage to the spare stack and later buckets reuse it. A queue
 * whose 1024 buckets each kept their largest load would hold at
 * least 1024 * 640 * 24 B = 15.7 MB of keys.
 */
TEST(EventQueueStorage, DenseLoadRecyclesBucketStorage)
{
    gs::test::DenseLoad<EventQueue> load;
    const Tick w = EventQueue::bucketWidth;
    const Tick end = 3 * EventQueue::horizon;
    std::size_t maxBytes = 0, maxBuckets = 0;
    for (Tick t = w; t <= end; t += w) {
        load.q.runUntil(t);
        maxBytes = std::max(maxBytes, load.q.storageBytes());
        if ((t / w) % 16 != 0)
            continue;
        std::set<Tick> live;
        load.q.visitPending([&](Tick when, std::uint64_t,
                                const gs::ckpt::EventDesc &) {
            live.insert(when >> EventQueue::bucketBits);
        });
        maxBuckets = std::max(maxBuckets, live.size());
    }
    // The first windows fill while the tokens spread out.
    const auto full = load.perWindow.begin() + 6;
    EXPECT_GE(*std::min_element(full, load.perWindow.end()), 500u);
    EXPECT_LE(maxBuckets, 8u);
    EXPECT_EQ(load.q.pending(), gs::test::DenseLoad<EventQueue>::tokens);
    // 1.5 MiB of 64-key drained buckets, the 2048-slot slab and a
    // handful of 1024-key arrays in use or on the spare stack.
    EXPECT_LT(maxBytes, std::size_t(4) << 20);
    EXPECT_GT(maxBytes, std::size_t(1) << 20);
}

/** The dense load fires in exactly the legacy heap's order. */
TEST(EventQueueStorage, DenseLoadFiresInLegacyHeapOrder)
{
    gs::test::DenseLoad<EventQueue> cal;
    gs::test::DenseLoad<gs::test::LegacyEventQueue> heap;
    const Tick end = 3 * EventQueue::horizon;
    cal.q.runUntil(end);
    heap.q.runUntil(end);
    EXPECT_EQ(cal.perWindow, heap.perWindow);
    EXPECT_EQ(cal.fires, heap.fires);
    EXPECT_EQ(cal.digest, heap.digest);
    EXPECT_EQ(cal.q.now(), heap.q.now());
    EXPECT_EQ(cal.q.firedCount(), heap.q.firedCount());
    EXPECT_EQ(cal.q.peakPending(), heap.q.peakPending());
}

/**
 * A visitPending/restore round trip in the middle of the dense load,
 * after buckets have traded storage with the spare stack, continues
 * exactly as the uninterrupted run.
 */
TEST(EventQueueStorage, RestoreRoundTripOverRecycledStorage)
{
    using Saved = std::tuple<Tick, std::uint64_t, gs::ckpt::EventDesc>;
    gs::test::DenseLoad<EventQueue> ref, cut;
    const Tick mid = EventQueue::horizon + EventQueue::horizon / 2 + 123;
    const Tick end = 3 * EventQueue::horizon;
    cut.q.runUntil(mid);

    std::vector<Saved> saved;
    cut.q.visitPending([&](Tick when, std::uint64_t seq,
                           const gs::ckpt::EventDesc &d) {
        saved.emplace_back(when, seq, d);
    });
    ASSERT_EQ(saved.size(), cut.q.pending());
    std::sort(saved.begin(), saved.end(),
              [](const Saved &a, const Saved &b) {
                  return std::tie(std::get<0>(a), std::get<1>(a)) <
                         std::tie(std::get<0>(b), std::get<1>(b));
              });
    cut.q.restoreBegin(cut.q.ckptState());
    EXPECT_TRUE(cut.q.empty());
    for (const auto &[when, seq, d] : saved) {
        const auto id = static_cast<std::uint32_t>(d.u);
        cut.q.insertRestored(when, seq, d, [&cut, id] { cut.fire(id); });
    }

    ref.q.runUntil(end);
    cut.q.runUntil(end);
    EXPECT_EQ(cut.perWindow, ref.perWindow);
    EXPECT_EQ(cut.fires, ref.fires);
    EXPECT_EQ(cut.digest, ref.digest);
    EXPECT_EQ(cut.q.now(), ref.q.now());
    EXPECT_EQ(cut.q.firedCount(), ref.q.firedCount());
    EXPECT_EQ(cut.q.pending(), ref.q.pending());
}

} // namespace
