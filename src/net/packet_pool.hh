/**
 * @file
 * Freelist pool for in-flight packets, plus the flat FIFO the router
 * queues handles in.
 *
 * A packet used to be copied by value into every buffer, lambda and
 * deque node between injection and delivery — a 64-byte memcpy per
 * hop and a steady drizzle of deque-chunk allocations. The pool gives
 * each injected packet one stable slot for its whole flight; the
 * fabric moves 4-byte handles instead. Slots recycle LIFO through a
 * freelist, so a warmed-up network allocates nothing per packet
 * (telemetry: `net.packet_pool.reuse` vs `.allocated`).
 */

#ifndef GS_NET_PACKET_POOL_HH
#define GS_NET_PACKET_POOL_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "net/packet.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace gs::net
{

/** Index of a pooled packet slot (stable for the packet's flight). */
using PacketHandle = std::uint32_t;

/** Sentinel for "no packet". */
constexpr PacketHandle invalidHandle = 0xffffffffu;

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

    const Stats &stats() const { return st; }

    /** @name Checkpoint/restore.
     *
     * The pool is restored *verbatim* — slot contents, freelist order
     * and live flags — so every PacketHandle serialized elsewhere in
     * the snapshot (router queues, event descriptors) indexes the
     * same packet after restore.
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
        }
        std::uint32_t nf = d.get32();
        freeList.clear();
        for (std::uint32_t i = 0; i < nf && d.ok(); ++i)
            freeList.push_back(d.get32());
        live.resize(n, 0);
        for (std::uint32_t i = 0; i < n && d.ok(); ++i)
            live[i] = static_cast<char>(d.get8());
        inUse_ = d.get64();
        st.allocated = d.get64();
        st.reused = d.get64();
        st.peakInUse = d.get64();
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
 * FIFO of packet handles with contiguous storage: pushes append,
 * pops advance a head cursor, and the consumed prefix is recycled
 * (cheap u32 memmove) instead of freeing chunks the way a deque
 * does. Steady state allocates nothing.
 */
class HandleQueue
{
  public:
    bool empty() const { return head_ == q.size(); }
    std::size_t size() const { return q.size() - head_; }

    void push(PacketHandle h) { q.push_back(h); }

    PacketHandle front() const { return q[head_]; }

    void
    pop()
    {
        head_ += 1;
        if (head_ == q.size()) {
            q.clear();
            head_ = 0;
        } else if (head_ >= compactAt && head_ * 2 >= q.size()) {
            q.erase(q.begin(),
                    q.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

    void
    clear()
    {
        q.clear();
        head_ = 0;
    }

    /** @name Iteration over the unconsumed handles (diagnostics) */
    /// @{
    auto begin() const
    {
        return q.begin() + static_cast<std::ptrdiff_t>(head_);
    }
    auto end() const { return q.end(); }
    /// @}

    /** @name Checkpoint/restore: the unconsumed handle sequence. */
    /// @{
    void
    saveCkpt(ckpt::Serializer &s) const
    {
        s.put32(static_cast<std::uint32_t>(size()));
        for (PacketHandle h : *this)
            s.put32(h);
    }

    void
    restoreCkpt(ckpt::Deserializer &d)
    {
        clear();
        std::uint32_t n = d.get32();
        for (std::uint32_t i = 0; i < n && d.ok(); ++i)
            push(d.get32());
    }
    /// @}

  private:
    static constexpr std::size_t compactAt = 64;

    std::vector<PacketHandle> q;
    std::size_t head_ = 0;
};

} // namespace gs::net

#endif // GS_NET_PACKET_POOL_HH
