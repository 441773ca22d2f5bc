/**
 * @file
 * The 21364-style router model.
 *
 * Each router serves one node of the topology. Per network input
 * port it keeps one buffer per virtual channel (per message class:
 * two escape VCs and one adaptive VC, Section 2 of the paper), and
 * moves packets virtual-cut-through: a packet is transferred whole
 * and occupies the link for its length in flits.
 *
 * Arbitration follows the paper's two-level scheme: "Each input
 * port has two first-level arbiters, called the local arbiters,
 * [which select] a candidate packet among those waiting at the
 * input port. Each output port has a second-level arbiter, called
 * the global arbiter, which selects a packet from those nominated
 * for it by the local arbiters." Both levels are round-robin here.
 *
 * Route selection: packets prefer the adaptive VC of the minimal
 * output with the most free downstream credits; when every adaptive
 * candidate is full they fall into the deadlock-free escape channel
 * (dimension-order with a dateline VC switch, computed by the
 * topology). Ejection always sinks, so responses drain and the
 * class separation keeps the coherence protocol deadlock-free.
 *
 * Data layout: packets live in the Network's PacketPool for their
 * whole flight, and every queue is a PacketQueue threaded through
 * that pool (two handles per queue, the links in the packets). The
 * router owns all of its state in arrays sized once from the node's
 * port count: per port the busy horizon, wire cycles, link state, RR
 * pointers and VC occupancy mask; per (port, VC) the queue, credits,
 * occupancy and head route memo. Telemetry counters sit in separate
 * cold arrays that the hot path writes but never reads.
 *
 * Hot path: per-tick work follows the buffered packets, not the
 * ports x VCs grid. A per-port occupancy mask lets the local arbiters
 * and the eject scan visit only non-empty VCs, a count of buffered
 * packets addressed here lets the eject scan return at once when
 * there are none, and a per-head route memo keeps a blocked head's
 * topology queries from being repeated on every tick it waits. All
 * three are derived state: rebuilt from the queues on restore, never
 * serialized (docs/ROUTER.md, "Hot path").
 */

#ifndef GS_NET_ROUTER_HH
#define GS_NET_ROUTER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "net/params.hh"
#include "sim/telemetry.hh"
#include "sim/types.hh"
#include "topology/topology.hh"

namespace gs::net
{

class Network;

/** One node's router: buffers, arbiters and the crossbar. */
class Router
{
  public:
    Router(Network &net, NodeId id);

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;
    Router(Router &&) = default;

    /** Advance one network cycle (called by the Network). */
    void tick(Tick now);

    /** True when no packet is buffered or awaiting injection. */
    bool idle() const { return buffered == 0 && injWaiting == 0; }

    /** The topology node this router serves. */
    NodeId node() const { return id; }

    /** Packet arrival from an upstream link (scheduled event). */
    void receive(int in_port, int vc, PacketHandle h);

    /** Downstream freed buffer space (scheduled event). */
    void creditReturn(int out_port, int vc, int flits);

    /** Local agent hands a pooled packet to this router. */
    void inject(PacketHandle h);

    /** Occupancy (flits) of input VC @p vc on port @p in_port. */
    int vcOccupancy(int in_port, int vc) const
    {
        return slots[slot(in_port, vc)].flitsUsed;
    }

    /** Pending packets in the injection queue of class @p cls. */
    std::size_t injQueueDepth(MsgClass cls) const;

    /** Flits sent out of @p out_port since the last clearStats. */
    std::uint64_t sentFlits(int out_port) const
    {
        return portStats[static_cast<std::size_t>(out_port)].sentFlits;
    }

    /** Flit credits currently held for (out_port, vc). */
    int creditsAvailable(int out_port, int vc) const
    {
        return slots[slot(out_port, vc)].credits;
    }

    /**
     * Register this router's per-port / per-VC stats under
     * @p prefix (e.g. "node.12.router"): outbound flit/packet
     * counts and busy fraction per port, received-flit and
     * credit-stall counts per input VC, and injection-queue stats
     * per message class. @p port_name maps a port index to its
     * display name ("E"/"W"/"N"/"S" on the torus).
     */
    void registerTelemetry(telem::Registry &reg,
                           const std::string &prefix,
                           const std::function<std::string(int)>
                               &port_name);

    /** Zero the telemetry counters; @p now starts the busy window. */
    void clearStats(Tick now);

    /** @name Fault-layer hooks (see Network's fault section) */
    /// @{

    /**
     * Re-read link liveness from the topology. A newly reconnected
     * output gets fresh credits computed from the peer's current
     * buffer occupancy (credits in flight across a failure are lost).
     */
    void syncPorts();

    /** Drop every buffered and injection-queued packet (node died). */
    void flushAll();

    /**
     * Oldest buffered packet by injection time, for diagnostics.
     * @retval false when nothing is buffered here.
     */
    bool oldestBuffered(Packet &out) const;
    /// @}

    /** @name Checkpoint/restore.
     *
     * Serializes every queue as its handle sequence plus all
     * per-VC/per-output scalars. Handles stay valid because the
     * owning PacketPool is restored verbatim first; restore relinks
     * the queues through it and refuses a handle that is not a live
     * packet or that is queued twice, and occupancies or packet
     * counts that disagree with the queues.
     */
    /// @{
    void saveCkpt(ckpt::Serializer &s) const;
    void restoreCkpt(ckpt::Deserializer &d);
    /// @}

  private:
    /** Chosen output for a head packet. */
    struct Route
    {
        int outPort = -1;
        int outVc = -1;
    };

    /**
     * A queue head's topology queries — adaptivePorts(id, dst, hops)
     * and escapeRoute(id, dst, 0) — computed when the packet first
     * arbitrates as head and reused on every tick it stays blocked;
     * only the credit comparison runs per tick. Valid while @c head
     * is the queue's front: every pop and every topology change
     * clears it, so a recycled handle never meets a stale entry.
     */
    struct RouteMemo
    {
        /** escPort before the escape route has been looked up. */
        static constexpr std::int8_t escUnknown = -2;

        PacketHandle head = invalidHandle;
        std::int8_t escPort = escUnknown; ///< -1: no escape route
        std::uint8_t escVc = 0;           ///< VC index on escPort
        std::uint8_t nAdaptive = 0; ///< 0 when the class never adapts
        std::array<std::uint8_t, topo::PortSet::capacity> adaptive{};
    };
    static_assert(sizeof(RouteMemo) == 16, "keep the memo compact");
    static_assert(numVcs <= 16, "VC occupancy masks are 16 bits");

    /** A local-arbiter nomination. */
    struct Nominee
    {
        int inPort;  ///< network input port, or -1 for injection
        int vc;      ///< source VC (or class index when injecting)
        Route route; ///< chosen output
    };

    /** Local queue index of (in_port, vc). */
    std::size_t
    slot(int in_port, int vc) const
    {
        return static_cast<std::size_t>(in_port) *
                   static_cast<std::size_t>(numVcs) +
               static_cast<std::size_t>(vc);
    }

    /** Hot per-port state. */
    struct Port
    {
        Tick busyUntil = 0;         ///< output link busy horizon
        std::int32_t wireCycles = 0;
        std::int32_t rrSrc = 0;     ///< global-arbiter RR pointer
        std::int32_t rrVc = 0;      ///< local-arbiter RR pointer
        std::uint16_t vcMask = 0;   ///< non-empty input VCs (derived)
        bool connected = false;
    };

    /** Hot per-(port, VC) state: input side and output side. */
    struct Slot
    {
        PacketQueue q;               ///< buffered input packets
        std::int32_t credits = 0;    ///< for the output direction
        std::int32_t flitsUsed = 0;  ///< input-buffer occupancy
        RouteMemo memo;              ///< of q's head (derived)
    };
    static_assert(sizeof(Slot) == 32, "half a host line per slot");

    /** Cold per-port telemetry. */
    struct PortStats
    {
        std::uint64_t sentFlits = 0;
        std::uint64_t sentPackets = 0;
    };

    /** Cold per-(port, VC) telemetry. */
    struct SlotStats
    {
        std::uint64_t recvFlits = 0;
        std::uint64_t creditStalls = 0;
    };

    /** Port @p p's hot state. */
    Port &port(int p) { return ports[static_cast<std::size_t>(p)]; }
    const Port &port(int p) const
    {
        return ports[static_cast<std::size_t>(p)];
    }

    /**
     * Pick the best feasible output for the head @p h of the queue
     * @p memo belongs to: adaptive candidate with most free credits,
     * else escape. Topology queries go through (and fill) @p memo.
     * @retval false when no output currently has room. @p unroutable
     * is additionally set when the destination has no escape route
     * at all (degraded fabric) — the packet must be dropped, since
     * no amount of waiting brings the route back.
     */
    bool chooseRoute(PacketHandle h, RouteMemo &memo, Route &out,
                     bool &unroutable);

    /** Buffer capacity of output VC @p vc, in flits. */
    int vcCapacity(int vc) const;

    /** Eject every deliverable head packet on every input VC. */
    void ejectPass(Tick now);

    /** Run the local arbiters, filling the nominee list. */
    void nominate(Tick now);

    /**
     * Local arbitration of input VC (@p in_port, @p vc): drop
     * unroutable heads, count a credit stall, or nominate the head.
     * @retval true when the head was nominated.
     */
    bool nominateVc(int in_port, int vc, Tick now);

    /** Run the global arbiters and perform the granted transfers. */
    void grant(Tick now);

    /** Pop the head of an input VC, returning upstream credits. */
    PacketHandle popHead(int in_port, int vc);

    /** Pop the head of injection queue @p cls. */
    PacketHandle popInjection(int cls);

    /** Invalidate every route memo (topology changed, or restore). */
    void clearRouteMemos();

    Network &net;
    NodeId id;
    int nPorts = 0;

    std::vector<Port> ports;  ///< [nPorts]
    std::vector<Slot> slots;  ///< [nPorts * numVcs], slot()-indexed
    std::array<PacketQueue, numClasses> injQs;
    std::array<RouteMemo, numClasses> injMemo; ///< derived

    /**
     * Buffered packets whose dst is this node: derived, like every
     * vcMask and memo, so rebuilt on restore and never serialized.
     */
    int ejectable = 0;

    /** @name Telemetry counters (addresses fixed at construction) */
    /// @{
    std::vector<PortStats> portStats; ///< [nPorts]
    std::vector<SlotStats> slotStats; ///< slot()-indexed
    std::array<std::uint64_t, numClasses> injStalls{};
    /// @}
    int injRrClass = 0;
    Tick statsWindowStart = 0; ///< busy-fraction window origin

    int buffered = 0;   ///< packets resident in the input VCs
    int injWaiting = 0; ///< packets waiting in injection queues

    std::vector<Nominee> noms; ///< per-tick scratch
};

} // namespace gs::net

#endif // GS_NET_ROUTER_HH
