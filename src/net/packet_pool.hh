/**
 * @file
 * Freelist pool for in-flight packets, and the FIFO the routers
 * queue them in.
 *
 * A packet used to be copied by value into every buffer, lambda and
 * deque node between injection and delivery — a 64-byte memcpy per
 * hop and a steady drizzle of deque-chunk allocations. The pool gives
 * each injected packet one stable slot for its whole flight; the
 * fabric moves 4-byte handles instead. Slots recycle LIFO through a
 * freelist, so a warmed-up network allocates nothing per packet
 * (telemetry: `net.packet_pool.reuse` vs `.allocated`).
 *
 * Router queues are threaded through the pool: a PacketQueue is two
 * handles, and each queued packet links to the one behind it through
 * Packet::next. A queue owns no storage of its own.
 */

#ifndef GS_NET_PACKET_POOL_HH
#define GS_NET_PACKET_POOL_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "net/packet.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace gs::net
{

/**
 * Packet::next of every slot a pool restore rebuilds, until a
 * restored queue links it. A queue that meets a slot not carrying it
 * has met a handle some queue already holds.
 */
constexpr PacketHandle unlinkedHandle = 0xfffffffeu;

/** @name Field-wise Packet serialization (layout-stable format). */
/// @{
inline void
savePacket(ckpt::Serializer &s, const Packet &p)
{
    s.put64(p.id);
    s.put8(static_cast<std::uint8_t>(p.cls));
    s.putI32(p.src);
    s.putI32(p.dst);
    s.putI32(p.flits);
    s.put64(p.injected);
    s.putI32(p.hops);
    for (std::uint64_t w : p.user)
        s.put64(w);
    trace::saveSpan(s, p.span);
}

inline void
restorePacket(ckpt::Deserializer &d, Packet &p)
{
    p.id = d.get64();
    p.cls = static_cast<MsgClass>(d.get8());
    p.src = d.getI32();
    p.dst = d.getI32();
    p.flits = d.getI32();
    p.injected = d.get64();
    p.hops = d.getI32();
    for (std::uint64_t &w : p.user)
        w = d.get64();
    trace::restoreSpan(d, p.span);
}
/// @}

/**
 * The per-network packet slab. Slots live in a deque so references
 * from get() stay valid across acquire() growth; the freelist is
 * LIFO, which keeps recycling deterministic and cache-warm.
 */
class PacketPool
{
  public:
    /** Cumulative pool statistics (registered under net.packet_pool). */
    struct Stats
    {
        std::uint64_t allocated = 0; ///< slots ever created
        std::uint64_t reused = 0;    ///< acquires served by the freelist
        std::uint64_t peakInUse = 0; ///< high-water mark of live slots
    };

    PacketPool() = default;
    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;

    /** Copy @p pkt into a slot and return its handle. */
    PacketHandle
    acquire(const Packet &pkt)
    {
        PacketHandle h;
        if (!freeList.empty()) {
            h = freeList.back();
            freeList.pop_back();
            st.reused += 1;
        } else {
            h = static_cast<PacketHandle>(slots.size());
            slots.emplace_back();
            live.push_back(0);
            st.allocated += 1;
        }
        gs_assert(!live[h], "pool slot acquired twice");
        live[h] = 1;
        slots[h] = pkt;
        inUse_ += 1;
        if (inUse_ > st.peakInUse)
            st.peakInUse = inUse_;
        return h;
    }

    /** The packet in slot @p h (stable until release). */
    Packet &get(PacketHandle h) { return slots[h]; }
    const Packet &get(PacketHandle h) const { return slots[h]; }

    /** Return slot @p h to the freelist. */
    void
    release(PacketHandle h)
    {
        gs_assert(live[h], "pool slot released twice");
        live[h] = 0;
        freeList.push_back(h);
        inUse_ -= 1;
    }

    /** Live (acquired, not yet released) slots. */
    std::uint64_t inUse() const { return inUse_; }

    /** Total slots backing the pool. */
    std::size_t capacity() const { return slots.size(); }

    /** True when @p h names an acquired, not yet released slot. */
    bool
    isLive(PacketHandle h) const
    {
        return h < live.size() && live[h] != 0;
    }

    const Stats &stats() const { return st; }

    /** @name Checkpoint/restore.
     *
     * The pool is restored *verbatim* — slot contents, freelist order
     * and live flags — so every PacketHandle serialized elsewhere in
     * the snapshot (router queues, event descriptors) indexes the
     * same packet after restore. Restore refuses a freelist handle
     * out of range, listed twice or flagged live, an in-use count
     * that disagrees with the live flags, and a slot that is neither
     * live nor free. Every restored slot comes back unlinked
     * (Packet::next == unlinkedHandle) for the router queues to
     * relink.
     */
    /// @{
    void
    saveCkpt(ckpt::Serializer &s) const
    {
        s.put32(static_cast<std::uint32_t>(slots.size()));
        for (const Packet &p : slots)
            savePacket(s, p);
        s.put32(static_cast<std::uint32_t>(freeList.size()));
        for (PacketHandle h : freeList)
            s.put32(h);
        for (char f : live)
            s.put8(static_cast<std::uint8_t>(f));
        s.put64(inUse_);
        s.put64(st.allocated);
        s.put64(st.reused);
        s.put64(st.peakInUse);
    }

    void
    restoreCkpt(ckpt::Deserializer &d)
    {
        std::uint32_t n = d.get32();
        slots.clear();
        live.clear();
        for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
            slots.emplace_back();
            restorePacket(d, slots.back());
            slots.back().next = unlinkedHandle;
        }
        std::uint32_t nf = d.get32();
        freeList.clear();
        for (std::uint32_t i = 0; i < nf && d.ok(); ++i)
            freeList.push_back(d.get32());
        live.resize(n, 0);
        std::uint64_t nLive = 0;
        for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
            live[i] = static_cast<char>(d.get8());
            nLive += live[i] != 0 ? 1 : 0;
        }
        inUse_ = d.get64();
        st.allocated = d.get64();
        st.reused = d.get64();
        st.peakInUse = d.get64();
        if (!d.ok())
            return;

        auto refuse = [&d](const std::string &why) {
            d.fail("snapshot packet pool: " + why);
        };
        std::vector<char> isFree(n, 0);
        for (PacketHandle h : freeList) {
            const char *why = h >= n      ? " out of range"
                              : isFree[h] ? " listed twice"
                              : live[h]   ? " is flagged live"
                                          : nullptr;
            if (why)
                return refuse("freelist handle " + std::to_string(h) +
                              why + " (" + std::to_string(n) + " slots)");
            isFree[h] = 1;
        }
        if (inUse_ != nLive)
            return refuse("in-use count " + std::to_string(inUse_) +
                          " disagrees with " + std::to_string(nLive) +
                          " live flags");
        if (freeList.size() + nLive != n)
            return refuse(std::to_string(n - freeList.size() - nLive) +
                          " slots are neither live nor free");
    }
    /// @}

  private:
    std::deque<Packet> slots;
    std::vector<PacketHandle> freeList;
    std::vector<char> live;
    std::uint64_t inUse_ = 0;
    Stats st;
};

/**
 * FIFO of pooled packets, linked through Packet::next: the queue is
 * its two end handles, and a push or a pop writes one link. A packet
 * sits in at most one queue at a time. Every operation that follows
 * or writes links takes the pool the packets live in.
 */
class PacketQueue
{
  public:
    bool empty() const { return head == invalidHandle; }

    PacketHandle front() const { return head; }

    void
    push(PacketPool &pool, PacketHandle h)
    {
        pool.get(h).next = invalidHandle;
        if (head == invalidHandle)
            head = h;
        else
            pool.get(tail).next = h;
        tail = h;
    }

    PacketHandle
    pop(PacketPool &pool)
    {
        const PacketHandle h = head;
        head = pool.get(h).next;
        return h;
    }

    void clear() { head = tail = invalidHandle; }

    /** Call @p f on every queued handle, front to back. */
    template <typename F>
    void
    forEach(const PacketPool &pool, F &&f) const
    {
        for (PacketHandle h = head; h != invalidHandle;
             h = pool.get(h).next)
            f(h);
    }

    std::size_t
    size(const PacketPool &pool) const
    {
        std::size_t n = 0;
        forEach(pool, [&n](PacketHandle) { n += 1; });
        return n;
    }

    /** @name Checkpoint/restore: the handle sequence, front to back.
     *
     * Restore runs after the pool's own restore and refuses, naming
     * @p where, a handle that is not a live packet or that a queue
     * restored since already holds (which would otherwise tie two
     * queues together, or this one into a cycle).
     */
    /// @{
    void
    saveCkpt(ckpt::Serializer &s, const PacketPool &pool) const
    {
        s.put32(static_cast<std::uint32_t>(size(pool)));
        forEach(pool, [&s](PacketHandle h) { s.put32(h); });
    }

    void
    restoreCkpt(ckpt::Deserializer &d, PacketPool &pool,
                const std::string &where)
    {
        clear();
        const std::uint32_t n = d.get32();
        for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
            const PacketHandle h = d.get32();
            if (!d.ok())
                return;
            const char *why = !pool.isLive(h) ? " is not a live packet"
                              : pool.get(h).next != unlinkedHandle
                                  ? " is queued twice"
                                  : nullptr;
            if (why)
                return d.fail(where + ": queued handle " +
                              std::to_string(h) + why);
            push(pool, h);
        }
    }
    /// @}

  private:
    PacketHandle head = invalidHandle;
    PacketHandle tail = invalidHandle;
};

} // namespace gs::net

#endif // GS_NET_PACKET_POOL_HH
