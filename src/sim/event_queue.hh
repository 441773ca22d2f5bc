/**
 * @file
 * Discrete-event kernel: a time-ordered queue of callbacks.
 *
 * Events scheduled for the same tick fire in FIFO order of their
 * scheduling (a monotone sequence number breaks ties), which keeps
 * component interactions deterministic and reproducible.
 *
 * Internally the queue is a hierarchical calendar: a power-of-two
 * ring of buckets covers the near future (bucketWidth ticks per
 * bucket, bucketCount buckets of horizon total), and anything
 * scheduled beyond the ring's window waits in an overflow min-heap
 * until the window slides over it. Buckets and the heap order only
 * 24-byte {when, seq, slot} keys; each event's callback and snapshot
 * descriptor sit in a per-queue slab slot from schedule to fire, so
 * sorting, out-of-order inserts and growth move keys, never
 * callables. Steady-state traffic — network cycles, memory
 * callbacks, coherence hops, all within a few hundred nanoseconds of
 * now — lands in a warm bucket with no heap ordering work and,
 * because callbacks are InlineFn rather than std::function and slab
 * slots are recycled through a freelist, no allocation. The fire
 * order is contractual and identical to a single (when, seq)
 * min-heap; see tests/sim/event_queue_ab_test.cc, which locks the two
 * implementations together, and docs/EVENT_KERNEL.md for sizing.
 */

#ifndef GS_SIM_EVENT_QUEUE_HH
#define GS_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/inline_fn.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace gs
{

/** Callback type executed when an event fires. */
using EventFn = InlineFn;

/**
 * A discrete-event queue with a current simulated time.
 *
 * The queue owns the notion of "now": callbacks observe time via
 * now() and schedule further work with schedule()/scheduleAt().
 */
class EventQueue
{
  public:
    /** @name Calendar geometry (see docs/EVENT_KERNEL.md) */
    /// @{
    /** log2 of the bucket width in ticks. */
    static constexpr int bucketBits = 12;

    /** One bucket covers this many ticks (~4.1 ns at 1 tick = 1 ps). */
    static constexpr Tick bucketWidth = Tick(1) << bucketBits;

    /** Number of buckets in the ring (power of two). */
    static constexpr std::size_t bucketCount = 1024;

    /** Ring window span; events past it go to the overflow heap. */
    static constexpr Tick horizon = bucketWidth * bucketCount;
    /// @}

    /**
     * Sequence-number bands. Locally scheduled events draw their
     * tie-breaking sequence numbers from the upper band; events
     * merged in from another domain's mailbox (scheduleMergedAt, the
     * parallel engine's barrier merge) draw from the lower band.
     * Cross-domain arrivals and credits therefore fire before any
     * same-tick locally scheduled event — exactly the order the
     * serial engine produces, where a credit or arrival for tick T
     * is always scheduled before the self-ticking network event for
     * T (see docs/PARALLEL.md). Serial runs never use the lower
     * band, so their ordering is unchanged.
     */
    static constexpr std::uint64_t localSeqBase = std::uint64_t(1) << 63;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Number of events not yet fired. */
    std::size_t pending() const { return pendingCnt; }

    bool empty() const { return pending() == 0; }

    /** @name Self-metrics (telemetry / --verbose bench reporting) */
    /// @{
    /** Events fired since construction. */
    std::uint64_t firedCount() const { return fired; }

    /** High-water mark of the pending-event count. */
    std::size_t peakPending() const { return peak; }

    /** Events currently resident in the near-future bucket ring. */
    std::size_t ringPending() const { return ringCount; }

    /** Events currently parked in the overflow heap. */
    std::size_t overflowPending() const { return heap.size(); }

    /** Events migrated overflow-heap -> ring since construction. */
    std::uint64_t overflowMigrations() const { return migrated; }

    /** Callback slots the slab owns (grows with pending, never shrinks). */
    std::size_t slabSlots() const { return slab.size(); }

    /**
     * Host bytes the calendar holds: the key capacity of the buckets,
     * the spare stacks and the overflow heap, plus the slab.
     */
    std::size_t
    storageBytes() const
    {
        std::size_t keys = heap.capacity();
        for (const auto &b : buckets)
            keys += b.keys.capacity();
        for (const auto &s : spares)
            keys += s.capacity();
        for (const auto &s : smallSpares)
            keys += s.capacity();
        return keys * sizeof(Key) + slab.capacity() * sizeof(Payload);
    }
    /// @}

    /**
     * Schedule @p fn at absolute time @p when (>= now).
     *
     * Templated on the callable so the capture is constructed
     * directly inside its slab slot — no intermediate EventFn
     * relocation on the hot path.
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        scheduleAt(when, ckpt::EventDesc{}, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at @p when, tagged with @p desc so the event
     * can be serialized into a machine snapshot and rebuilt at
     * restore. The untagged overload marks the event Opaque —
     * legal to run, fatal to checkpoint while pending.
     */
    template <typename F>
    void
    scheduleAt(Tick when, const ckpt::EventDesc &desc, F &&fn)
    {
        gs_assert(when >= curTick,
                  "event scheduled in the past: ", when, " < ", curTick);
        insert(when, nextSeq++, desc, std::forward<F>(fn));
        pendingCnt += 1;
        if (pendingCnt > peak)
            peak = pendingCnt;
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        scheduleAt(curTick + delay, ckpt::EventDesc{},
                   std::forward<F>(fn));
    }

    /** Schedule @p fn @p delay ticks from now, snapshot-tagged. */
    template <typename F>
    void
    schedule(Tick delay, const ckpt::EventDesc &desc, F &&fn)
    {
        scheduleAt(curTick + delay, desc, std::forward<F>(fn));
    }

    /**
     * Schedule a cross-domain event merged in at a parallel-epoch
     * barrier. Merged events take sequence numbers below
     * localSeqBase, so at equal @p when they fire before every
     * locally scheduled event — the serial engine's order for
     * arrivals and credits. Callers must present merged events in
     * their canonical (when, src-domain, src-seq) order; this queue
     * preserves that order among them.
     */
    template <typename F>
    void
    scheduleMergedAt(Tick when, F &&fn)
    {
        scheduleMergedAt(when, ckpt::EventDesc{}, std::forward<F>(fn));
    }

    /** Merged-band scheduling, snapshot-tagged (see scheduleAt). */
    template <typename F>
    void
    scheduleMergedAt(Tick when, const ckpt::EventDesc &desc, F &&fn)
    {
        gs_assert(when >= curTick,
                  "merged event scheduled in the past: ", when, " < ",
                  curTick);
        insert(when, nextMergedSeq++, desc, std::forward<F>(fn));
        pendingCnt += 1;
        if (pendingCnt > peak)
            peak = pendingCnt;
    }

    /**
     * Fire the single earliest event.
     * @retval false if the queue was empty.
     */
    bool
    step()
    {
        if (!ensureCurrent())
            return false;
        fireHead();
        return true;
    }

    /**
     * Run until the queue drains or time exceeds @p limit.
     * @return the tick at which execution stopped.
     */
    Tick
    runUntil(Tick limit = maxTick)
    {
        while (ensureCurrent()) {
            Bucket &b = *curb;
            if (b.keys[b.head].when > limit)
                break;
            fireHead();
        }
        if (curTick < limit && limit != maxTick)
            curTick = limit;
        return curTick;
    }

    /** Run for @p duration ticks past the current time. */
    Tick runFor(Tick duration) { return runUntil(curTick + duration); }

    /**
     * Fire every event strictly before @p limit. Unlike runUntil,
     * now() is left at the last fired event — not advanced to the
     * limit — so a parallel domain's clock after an epoch matches
     * what the serial engine would show after the same events.
     * @return the number of events fired.
     */
    std::size_t
    drainWindow(Tick limit)
    {
        drainLimit_ = limit;
        std::size_t n = 0;
        while (ensureCurrent()) {
            Bucket &b = *curb;
            if (b.keys[b.head].when >= drainLimit_)
                break;
            fireHead();
            n += 1;
        }
        return n;
    }

    /**
     * Shrink the limit of the drainWindow() call currently executing
     * on this queue to @p t (no-op if the window already ends at or
     * before @p t). Callable from inside a firing event: the parallel
     * engine's adaptive-lookahead protocol cuts a widened window
     * short at now()+1 when an injection breaks fabric quiescence, so
     * same-tick events still fire but nothing later does until the
     * barrier re-derives a safe window (see docs/PARALLEL.md).
     */
    void
    truncateDrain(Tick t)
    {
        if (t < drainLimit_)
            drainLimit_ = t;
    }

    /**
     * Time of the earliest pending event without firing it, or
     * maxTick when nothing is pending. Positions the calendar window
     * (same cost class as step()).
     */
    Tick
    peekNext()
    {
        if (!ensureCurrent())
            return maxTick;
        return curb->keys[curb->head].when;
    }

    /**
     * Advance now() to @p t (>= now) without firing anything.
     * Precondition: no pending event is earlier than @p t. The
     * parallel engine uses this to align domain clocks at epoch
     * barriers and at the end of a run.
     */
    void
    syncTime(Tick t)
    {
        gs_assert(t >= curTick, "syncTime into the past: ", t, " < ",
                  curTick);
        curTick = t;
    }

    /** Drop all pending events (used between experiment phases). */
    void
    clear()
    {
        // Every pending callback is destroyed here and its slot goes
        // back on the freelist; fired slots are already there.
        auto drop = [this](const Key &k) {
            slab[k.slot].fn = EventFn();
            freeSlot(k.slot);
        };
        for (auto &b : buckets) {
            for (std::size_t i = b.head; i < b.keys.size(); ++i)
                drop(b.keys[i]);
            drained(b);
            b.sorted = false;
        }
        for (const Key &k : heap)
            drop(k);
        heap.clear();
        ringCount = 0;
        pendingCnt = 0;
        // Re-anchor the ring at zero: leaving base/cur at the old
        // epoch would let the next insert land relative to a stale
        // window. (Today every post-clear insert takes the
        // empty-queue re-anchor path in placeKey(), but that is an
        // invariant of the current code shape, not of the API —
        // clear() must leave the queue indistinguishable from a
        // fresh one, pending-state-wise.)
        base = 0;
        cur = 0;
        curb = &buckets[0];
    }

    /**
     * Pre-size every ring bucket to hold @p perBucket keys, and the
     * slab to perBucket * 128 callback slots.
     *
     * Bucket storage grows on first touch and then persists (up to
     * keepKeys; see Bucket), but the tick grid and the bucket ring
     * have co-prime periods, so a sparse workload can keep
     * first-touching fresh buckets many ring laps into a run. A
     * queue whose steady state must be allocation-free — every
     * parallel-engine domain queue — calls this once at construction
     * instead (8 * 24-byte keys per bucket plus 1024 * 128-byte
     * slots = 320 KiB per queue; serial contexts skip it).
     */
    void
    prewarm(std::size_t perBucket = 8)
    {
        for (auto &b : buckets)
            b.keys.reserve(perBucket);
        if (slab.size() < perBucket * 128)
            growSlab(perBucket * 128);
    }

    /** @name Checkpoint/restore (docs/CHECKPOINT.md)
     *
     * A snapshot of the queue is its clock, its counters, and every
     * pending (when, seq, desc) triple; callbacks are rebuilt from
     * the descs at restore. Restoring re-inserts entries with their
     * original sequence numbers, so the continuation fires in
     * exactly the order the uninterrupted run would have used.
     */
    /// @{

    /** Clock and counters restored alongside the pending entries. */
    struct CkptState
    {
        Tick now = 0;
        std::uint64_t nextSeq = localSeqBase;
        std::uint64_t nextMergedSeq = 0;
        std::uint64_t fired = 0;
        std::uint64_t peak = 0;
        std::uint64_t migrated = 0;
    };

    CkptState
    ckptState() const
    {
        return {curTick, nextSeq, nextMergedSeq, fired, peak, migrated};
    }

    /**
     * Invoke @p visit(when, seq, desc) for every pending event, in
     * unspecified order (checkpoint writers sort by (when, seq)).
     */
    template <typename V>
    void
    visitPending(V &&visit) const
    {
        for (const auto &b : buckets) {
            for (std::size_t i = b.head; i < b.keys.size(); ++i) {
                const Key &k = b.keys[i];
                visit(k.when, k.seq, slab[k.slot].desc);
            }
        }
        for (const Key &k : heap)
            visit(k.when, k.seq, slab[k.slot].desc);
    }

    /**
     * Drop all pending events and reset clock and counters to
     * @p st — the restore entry point. Unlike syncTime, the clock
     * may move backward (watchdog rollback rewinds time).
     */
    void
    restoreBegin(const CkptState &st)
    {
        clear();
        curTick = st.now;
        nextSeq = st.nextSeq;
        nextMergedSeq = st.nextMergedSeq;
        fired = st.fired;
        peak = static_cast<std::size_t>(st.peak);
        migrated = st.migrated;
    }

    /**
     * Re-insert one snapshotted event with its original sequence
     * number (either band). Counters are untouched: peak and the
     * band cursors came back via restoreBegin.
     */
    void
    insertRestored(Tick when, std::uint64_t seq,
                   const ckpt::EventDesc &desc, EventFn fn)
    {
        gs_assert(when >= curTick,
                  "restored event in the past: ", when, " < ", curTick);
        insert(when, seq, desc, std::move(fn));
        pendingCnt += 1;
    }
    /// @}

  private:
    /** Freelist terminator. */
    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);

    /**
     * Key capacity a drained bucket keeps in place; storage above it
     * goes on the spare stack (see Bucket). The doubling growth from
     * prewarm's default of 8 reaches exactly this size.
     */
    static constexpr std::size_t keepKeys = 64;

    /**
     * What buckets and the overflow heap order: the (when, seq) fire
     * key plus the slab slot holding the event's payload. Trivially
     * copyable, so every reordering is a memmove. `slot` is 64 bits
     * wide only so the key has no padding: a key copy never loads
     * bytes the store before it left unwritten, which would defeat
     * store-to-load forwarding on the schedule-then-fire path.
     */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t slot;

        bool
        operator<(const Key &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }

        bool operator>(const Key &o) const { return o < *this; }
    };
    static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>,
                  "keys are what the calendar moves");

    /**
     * One slab slot. A scheduled event's callback and checkpoint
     * descriptor stay here from schedule to fire. Every slot always
     * holds a constructed EventFn: a free slot's is empty or a
     * vacated husk (fireHead takes the callable out), both of which
     * destroy and relocate without running user code.
     */
    struct Payload
    {
        EventFn fn;
        ckpt::EventDesc desc;
        std::uint32_t nextFree = noSlot; ///< freelist link while free
    };

    /**
     * One calendar slot. `sorted` is true only while this is the
     * current bucket: future buckets take cheap unordered appends and
     * are sorted once, by (when, seq), when the window reaches them.
     * `head` indexes the next unfired key of the current bucket;
     * consumed keys stay below it (insertLive may reuse that room)
     * until the bucket drains and the array is cleared (O(1): keys
     * are trivially destructible).
     *
     * A drained bucket keeps up to keepKeys of capacity, so warm
     * buckets never re-allocate. Larger storage goes on the queue's
     * spare stack, and a bucket that fills keepKeys takes a larger
     * spare before it grows its own, so key storage follows the
     * buckets pending at once, not the largest load each of the
     * ring's buckets ever saw (see docs/EVENT_KERNEL.md).
     */
    struct Bucket
    {
        std::vector<Key> keys;
        std::size_t head = 0;
        bool sorted = false;
    };

    static constexpr std::size_t
    bucketIndex(Tick when)
    {
        return static_cast<std::size_t>(when >> bucketBits) &
               (bucketCount - 1);
    }

    static constexpr Tick
    bucketBase(Tick when)
    {
        return when & ~(bucketWidth - 1);
    }

    /** Pop a free slab slot, growing the slab when none is left. */
    std::uint32_t
    allocSlot()
    {
        if (freeHead == noSlot) [[unlikely]]
            growSlab(slab.empty() ? 64 : 2 * slab.size());
        const std::uint32_t s = freeHead;
        freeHead = slab[s].nextFree;
        return s;
    }

    /** Push @p s on the LIFO freelist; its EventFn must be vacated. */
    void
    freeSlot(std::uint32_t s)
    {
        slab[s].nextFree = freeHead;
        freeHead = s;
    }

    /** Extend the slab to @p n slots and chain the new ones as free.
     *  Kept out of line so the schedule path inlines. */
    [[gnu::noinline]] void
    growSlab(std::size_t n)
    {
        gs_assert(n < noSlot, "event slab exceeds 2^32 slots");
        const std::size_t old = slab.size();
        slab.resize(n);
        // Lowest new index ends up on top, so slots fill in order.
        for (std::size_t i = n; i-- > old;)
            freeSlot(static_cast<std::uint32_t>(i));
    }

    template <typename F>
    void
    insert(Tick when, std::uint64_t seq, const ckpt::EventDesc &desc,
           F &&fn)
    {
        const std::uint32_t slot = allocSlot();
        Payload &p = slab[slot];
        // The free slot's EventFn is empty or a husk (no-op
        // destructor), so the capture is built straight over it.
        ::new (static_cast<void *>(&p.fn)) EventFn(std::forward<F>(fn));
        p.desc = desc;
        placeKey(when, seq, slot);
    }

    /**
     * File key {when, seq, slot} in its bucket or the overflow
     * heap. Forced inline into every schedule site, with its cold
     * branches kept out of line: a call here costs schedule-then-fire
     * about 10 % (BM_EventQueueScheduleFire). The key travels as
     * three scalars and is stored once, into its bucket: a Key built
     * on the stack by 8-byte stores and copied by a 16-byte load
     * cannot be store-forwarded, so the load waits for every older
     * store to drain.
     */
    [[gnu::always_inline]] void
    placeKey(Tick when, std::uint64_t seq, std::uint64_t slot)
    {
        Bucket *b = curb;
        if (pendingCnt == 0) {
            // Empty queue: re-anchor the window at the new event so
            // the ubiquitous schedule-then-fire pattern never touches
            // the overflow heap no matter how far curTick drifted.
            // Every bucket is empty here (fireHead clears a bucket
            // the moment it drains), so the event is trivially in
            // order and its bucket — the current one after the
            // re-anchor — takes a straight append.
            Tick nb = bucketBase(when);
            if (nb != base) {
                curb->sorted = false;
                base = nb;
                cur = bucketIndex(when);
                b = curb = &buckets[cur];
                curb->sorted = true; // empty: trivially sorted
            }
        } else {
            if (when < base) {
                // A long idle runUntil() re-anchored the window at a
                // far-future event and control returned to the user;
                // a new event now lands before the window. Rare and
                // cold: rebuild the window around the early event.
                rewindTo(when);
            }
            if (when >= base + horizon) {
                pushOverflow(Key{when, seq, slot});
                return;
            }
            b = &buckets[bucketIndex(when)];
            // The compare is the full (when, seq) order — a
            // merged-band event (scheduleMergedAt) carries a lower
            // seq than same-tick local events already in the bucket,
            // so ordering by `when` alone would misplace it. In-order
            // arrivals (the common case) append, which also keeps a
            // live bucket sorted.
            if (b == curb && b->sorted && !b->keys.empty() &&
                Key{when, seq, slot} < b->keys.back()) {
                insertLive(*b, Key{when, seq, slot});
                ringCount += 1;
                return;
            }
        }
        append(*b, Key{when, seq, slot});
        ringCount += 1;
    }

    /**
     * Append @p k to @p b, trading for spare storage when full. The
     * assert tells the compiler that push_back never reallocates, so
     * @p k's address does not escape and its fields go straight from
     * registers into the bucket.
     */
    [[gnu::always_inline]] void
    append(Bucket &b, const Key &k)
    {
        if (b.keys.size() == b.keys.capacity()) [[unlikely]]
            growBucket(b);
        gs_assert(b.keys.size() != b.keys.capacity(),
                  "growBucket left no room");
        b.keys.push_back(k);
    }

    /**
     * Make room for one more key in full bucket @p b. Below keepKeys
     * the array doubles as push_back would. At or above it, the
     * bucket first trades its storage for the larger spare on top of
     * the stack: its own keepKeys-sized storage goes on the small
     * stack (drained() hands it back), outgrown spare storage stays
     * on the spare stack. Only with no larger spare on top does the
     * array reallocate.
     */
    [[gnu::noinline]] void
    growBucket(Bucket &b)
    {
        const std::size_t cap = b.keys.capacity();
        if (cap < keepKeys || spares.empty() ||
            spares.back().capacity() <= cap) {
            b.keys.reserve(cap ? 2 * cap : 1);
            return;
        }
        std::vector<Key> &s = spares.back();
        s.assign(b.keys.begin(), b.keys.end());
        b.keys.swap(s);
        s.clear();
        if (s.capacity() <= keepKeys) {
            smallSpares.push_back(std::move(s));
            spares.pop_back();
        }
    }

    /**
     * Empty drained bucket @p b in O(1). Storage above keepKeys goes
     * on the spare stack (out of line: only a bucket that outgrew
     * keepKeys pays for it).
     */
    [[gnu::always_inline]] void
    drained(Bucket &b)
    {
        b.keys.clear();
        b.head = 0;
        if (b.keys.capacity() > keepKeys) [[unlikely]]
            shelve(b);
    }

    /** Swap @p b's large storage for small storage (see drained). */
    [[gnu::noinline]] void
    shelve(Bucket &b)
    {
        spares.emplace_back();
        spares.back().swap(b.keys);
        if (!smallSpares.empty()) {
            b.keys.swap(smallSpares.back());
            smallSpares.pop_back();
        } else {
            b.keys.reserve(keepKeys);
        }
    }

    /** Park @p k in the overflow heap (out of line: see growSlab). */
    [[gnu::noinline]] void
    pushOverflow(const Key &k)
    {
        heap.push_back(k);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }

    /**
     * Out-of-order arrival into the live (sorted, partly fired)
     * bucket: a binary-search insert keeps it sorted. When fired
     * keys have left room below the head and fewer keys precede the
     * insert point than follow it, the preceding run shifts down one
     * slot instead of the tail shifting up (on perfbench's gups2048,
     * 250 M keys moved instead of 369.5 M).
     */
    [[gnu::noinline]] void
    insertLive(Bucket &b, const Key &k)
    {
        Key *first = b.keys.data() + b.head;
        Key *last = b.keys.data() + b.keys.size();
        Key *pos = std::upper_bound(first, last, k);
        if (b.head > 0 && pos - first <= last - pos) {
            std::memmove(first - 1, first,
                         static_cast<std::size_t>(pos - first) *
                             sizeof(Key));
            pos[-1] = k;
            b.head -= 1;
        } else {
            const std::ptrdiff_t at = pos - b.keys.data();
            if (b.keys.size() == b.keys.capacity())
                growBucket(b);
            b.keys.insert(b.keys.begin() + at, k);
        }
    }

    /**
     * Position the window on the earliest pending event: sort the
     * bucket it lives in if needed, sliding over empty buckets and
     * pulling overflow events that fall into the window as it moves.
     * @retval false when nothing is pending.
     */
    bool
    ensureCurrent()
    {
        for (;;) {
            Bucket &b = *curb;
            if (b.head < b.keys.size()) {
                if (!b.sorted)
                    sortBucket(b);
                return true;
            }
            if (b.head != 0)
                drained(b);
            if (ringCount == 0) {
                if (heap.empty())
                    return false;
                // Ring dry: jump the window to the heap's earliest
                // event instead of sliding bucket by bucket.
                b.sorted = false;
                Tick w = heap.front().when;
                base = bucketBase(w);
                cur = bucketIndex(w);
                curb = &buckets[cur];
                migrateOverflow();
                continue;
            }
            // Slide one bucket; the vacated slot becomes the far edge
            // of the window and inherits any overflow events there.
            b.sorted = false;
            cur = (cur + 1) & (bucketCount - 1);
            curb = &buckets[cur];
            base += bucketWidth;
            migrateOverflow();
        }
    }

    /** Pull every overflow event inside [base, base + horizon). */
    void
    migrateOverflow()
    {
        const Tick limit = base + horizon;
        while (!heap.empty() && heap.front().when < limit) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
            const Key k = heap.back();
            heap.pop_back();
            Bucket &b = buckets[bucketIndex(k.when)];
            append(b, k);
            b.sorted = false;
            ringCount += 1;
            migrated += 1;
        }
    }

    /** Rebuild the window around early @p when (cold path; see insert). */
    [[gnu::noinline]] void
    rewindTo(Tick when)
    {
        for (auto &b : buckets) {
            heap.insert(heap.end(),
                        b.keys.begin() + static_cast<std::ptrdiff_t>(b.head),
                        b.keys.end());
            drained(b);
            b.sorted = false;
        }
        std::make_heap(heap.begin(), heap.end(), std::greater<>{});
        ringCount = 0;
        base = bucketBase(when);
        cur = bucketIndex(when);
        curb = &buckets[cur];
        migrateOverflow();
    }

    static void
    sortBucket(Bucket &b)
    {
        gs_assert(b.head == 0, "sorting a partially drained bucket");
        std::sort(b.keys.begin(), b.keys.end());
        b.sorted = true;
    }

    /** Fire the head of the current bucket (ensureCurrent() == true). */
    void
    fireHead()
    {
        Bucket &b = *curb;
        const Key k = b.keys[b.head];
        b.head += 1;
        if (b.head == b.keys.size())
            drained(b);
        ringCount -= 1;
        pendingCnt -= 1;
        curTick = k.when;
        fired += 1;
        // The callable leaves its slot, and the slot goes back on the
        // freelist, before it runs: the callback may schedule into
        // that very slot, grow the slab or clear() the queue.
        // Trivially-relocatable callables (the steady-state shape)
        // take the raw-copy thunk path; the rest pay a full InlineFn
        // move.
        alignas(std::max_align_t) unsigned char tmp[EventFn::inlineCapacity];
        if (EventFn::CallFn thunk = slab[k.slot].fn.stealTrivial(tmp)) {
            freeSlot(k.slot);
            thunk(tmp);
        } else {
            fireMoved(k.slot);
        }
    }

    /**
     * fireHead's path for heap-backed and non-trivial callables. Out
     * of line, so the trivial path reads the slot's call and manager
     * pointers as the two scalars they were stored as.
     */
    [[gnu::noinline]] void
    fireMoved(std::uint32_t s)
    {
        EventFn fn = std::move(slab[s].fn);
        freeSlot(s);
        fn();
    }

    std::array<Bucket, bucketCount> buckets;
    // Bucket storage between loads (growBucket, shelve): larger than
    // keepKeys on `spares`, exactly keepKeys on `smallSpares`.
    std::vector<std::vector<Key>> spares;
    std::vector<std::vector<Key>> smallSpares;
    // Overflow min-heap, kept as a raw vector + std::push_heap /
    // std::pop_heap (same complexity as std::priority_queue) so that
    // checkpointing can iterate the parked keys.
    std::vector<Key> heap;
    // Payload slab; buckets and heap refer into it by index, so it
    // may reallocate whenever it grows.
    std::vector<Payload> slab;
    std::uint32_t freeHead = noSlot; ///< top of the LIFO freelist
    Tick base = 0;        ///< window start (current bucket's range)
    std::size_t cur = 0;  ///< physical index of the current bucket
    Bucket *curb = &buckets[0]; ///< cached &buckets[cur] (hot paths)
    std::size_t ringCount = 0;  ///< unfired events in the ring

    Tick curTick = 0;
    Tick drainLimit_ = 0; ///< live only inside drainWindow()
    std::uint64_t nextSeq = localSeqBase; ///< local scheduling band
    std::uint64_t nextMergedSeq = 0;      ///< barrier-merge band
    std::uint64_t fired = 0;
    std::uint64_t migrated = 0;
    // Not adjacent to ringCount or fired: fireHead decrements and
    // increments those in the same breath, and the compiler would
    // fuse a neighbouring pair into one 16-byte load that cannot be
    // store-forwarded from the two 8-byte stores scheduleAt just
    // made — a stall on every schedule-then-fire.
    std::size_t pendingCnt = 0; ///< ringCount + heap.size(), cached
    std::size_t peak = 0;
};

} // namespace gs

#endif // GS_SIM_EVENT_QUEUE_HH
