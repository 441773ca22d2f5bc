/**
 * @file
 * The 21364-style router model, plus a bufferless deflection
 * (hot-potato) ablation backend.
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
 * The bufferless backend (NetworkParams::routerKind ==
 * RouterKind::Bufferless) replaces the VC buffers with a one-packet
 * latch per input port: every tick, latched packets are ranked
 * oldest-first by (injection tick, packet id) and each claims a free
 * minimal output; losers are *deflected* onto any free non-minimal
 * port instead of waiting. Age-based priority makes the scheme
 * livelock-free — the globally oldest packet never loses a claim to
 * a younger one, so it makes monotonic progress and every packet
 * eventually becomes oldest. Credits still flow, but count latches
 * (packets), not flits.
 *
 * Single-cycle BLESS never blocks because every packet is reassigned
 * to some output every cycle. Multi-flit links break that guarantee
 * — an output stays busy for a packet's whole length — so latches
 * can form a cycle of full-waits-on-full. The escape hatch is a
 * *side-buffer retreat* (in the spirit of minimally-buffered
 * deflection routing): a latched head that finds an idle output with
 * no latch credit — the deadlock signature, as opposed to the
 * transient all-outputs-mid-transfer case — vacates its latch into a
 * local side buffer, returning the upstream credit and dissolving
 * the cycle. Side-buffered packets keep their age and re-enter the
 * port ranking on every tick ahead of fresh injections. See
 * docs/ROUTER.md.
 *
 * Age priority alone is also not enough for livelock freedom here:
 * in BLESS the oldest packet always finds every output assignable,
 * but with multi-flit occupancy and credit round-trips a pair of
 * packets can chase each other through a deterministic orbit, each
 * finding its productive port mid-transfer at exactly the tick it
 * arbitrates, deflecting forever. The bound is restored by
 * *escalation*: once a packet has been deflected
 * kDeflectionEscalation times it refuses further misroutes and waits
 * (in its latch or the side buffer) for a productive port. The wait
 * is finite — the only holder of that port's latch credit is a
 * packet this router itself sent, which the peer either forwards or
 * retreats within bounded ticks — so every packet's deflection count
 * is capped at the escalation threshold.
 *
 * Data layout: packets live in the Network's PacketPool for their
 * whole flight; the router buffers 4-byte handles, and every
 * per-port / per-VC scalar (credits, occupancy, busy horizons, RR
 * pointers, telemetry counters) lives in the Network-wide RouterCore
 * structure-of-arrays (router_core.hh) — this object holds only its
 * base offsets into those flat arrays, its handle queues, and the
 * arbitration logic.
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
#include "net/router_core.hh"
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
        return core->flitsUsed[sidx(in_port, vc)];
    }

    /** Pending packets in the injection queue of class @p cls. */
    std::size_t injQueueDepth(MsgClass cls) const
    {
        return injQs[static_cast<std::size_t>(cls)].size();
    }

    /**
     * Credits currently held for (out_port, vc): flits under the
     * buffered backend, latch slots (0 or 1) under bufferless.
     */
    int creditsAvailable(int out_port, int vc) const
    {
        return core->credits[sidx(out_port, vc)];
    }

    /** @name Bufferless deflection accounting (RouterKind::Bufferless) */
    /// @{

    /**
     * Misroute budget per packet: at this many deflections a packet
     * escalates to minimal-only routing (see the file header). The
     * cap on Packet::deflections every delivery obeys.
     */
    static constexpr std::uint32_t kDeflectionEscalation = 64;

    /** Packets this router sent off a minimal path. */
    std::uint64_t deflectionsSent() const { return deflections_; }

    /** Ticks a latched packet found no free output at all. */
    std::uint64_t latchStalls() const { return latchStalls_; }

    /** Latched packets that vacated into the side buffer. */
    std::uint64_t retreats() const { return retreats_; }

    /** Packets currently parked in the side buffer. */
    std::size_t sideBufferDepth() const { return sideQ_.size(); }
    /// @}

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
     * Buffered backend only.
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
     * Serializes every queue of handles plus all per-VC/per-output
     * scalars (read from / written into this router's RouterCore
     * slice). Handles stay valid because the owning PacketPool is
     * restored verbatim first.
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

    /**
     * One port-ranking contender under bufferless: an occupied latch
     * (side == false, port = latch port) or a side-buffered packet
     * (side == true, sideIdx = its slot). The (injected, pktId,
     * side, port-or-slot) tuple is a total order even when packet
     * ids tie at 0.
     */
    struct LatchRank
    {
        Tick injected;
        std::uint64_t pktId;
        int port;
        bool side;
        std::uint32_t sideIdx;
    };

    /** Local queue index of (in_port, vc). */
    std::size_t
    slot(int in_port, int vc) const
    {
        return static_cast<std::size_t>(in_port) *
                   static_cast<std::size_t>(numVcs) +
               static_cast<std::size_t>(vc);
    }

    /** RouterCore per-port index of @p port. */
    std::size_t
    pidx(int port) const
    {
        return static_cast<std::size_t>(pb) +
               static_cast<std::size_t>(port);
    }

    /** RouterCore per-(port, VC) index of (port, vc). */
    std::size_t
    sidx(int port, int vc) const
    {
        return static_cast<std::size_t>(sb) + slot(port, vc);
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

    /**
     * Buffer capacity of output VC @p vc: flits (buffered) or latch
     * slots (bufferless, 1 for VC 0 and 0 otherwise).
     */
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

    /** One bufferless cycle: age-rank, claim/deflect, inject. */
    void tickBufferless(Tick now);

    /**
     * Free output for @p pkt under deflection routing: the
     * lowest-indexed free minimal port, else (when @p allow_deflect)
     * the lowest-indexed free port in any direction, setting
     * @p deflected. -1 when every output is claimed or busy.
     */
    int pickBufferlessPort(const Packet &pkt, bool allow_deflect,
                           Tick now, bool &deflected) const;

    /** Output @p port can accept one packet right now. */
    bool portFree(int port, Tick now) const;

    /**
     * Some connected output is idle yet holds no latch credit — the
     * downstream latch is full while the link sits silent. This is
     * the deadlock-cycle signature a blocked latch head retreats on;
     * all-outputs-mid-transfer resolves by itself and is not it.
     */
    bool creditBlocked(Tick now) const;

    /** Put @p h on output @p out_port (bufferless transfer tail). */
    void sendBufferless(PacketHandle h, int out_port, Tick now);

    /** Pop the head of an input VC, returning upstream credits. */
    PacketHandle popHead(int in_port, int vc);

    /** Pop the head of injection queue @p cls. */
    PacketHandle popInjection(int cls);

    /** Invalidate every route memo (topology changed, or restore). */
    void clearRouteMemos();

    Network &net;
    NodeId id;
    RouterCore *core;  ///< the owning Network's flat state
    std::uint32_t pb = 0; ///< per-port base (core->ref(id).portBase)
    std::uint32_t sb = 0; ///< per-slot base (core->ref(id).slotBase)
    int nPorts = 0;
    RouterKind kind_ = RouterKind::Buffered;

    std::vector<HandleQueue> vcQ; ///< buffered packets, slot()-indexed
    std::array<HandleQueue, numClasses> injQs;

    /** @name Derived hot-path state (rebuilt on restore) */
    /// @{
    std::vector<std::uint16_t> vcMask; ///< per port: non-empty VCs
    int ejectable = 0; ///< buffered packets whose dst is this node
    std::vector<RouteMemo> vcMemo; ///< slot()-indexed
    std::array<RouteMemo, numClasses> injMemo;
    /// @}

    std::array<std::uint64_t, numClasses> injStalls{}; ///< telemetry
    int injRrClass = 0;
    Tick statsWindowStart = 0; ///< busy-fraction window origin

    int buffered = 0;   ///< packets resident here (latches + side)
    int injWaiting = 0; ///< packets waiting in injection queues

    std::uint64_t deflections_ = 0; ///< bufferless: misroutes sent
    std::uint64_t latchStalls_ = 0; ///< bufferless: all-ports-busy ticks
    std::uint64_t retreats_ = 0;    ///< bufferless: latch -> side moves

    /** Bufferless side buffer: retreated packets awaiting a port. */
    std::vector<PacketHandle> sideQ_;

    std::vector<Nominee> noms;     ///< per-tick scratch (buffered)
    std::vector<LatchRank> ranks_; ///< per-tick scratch (bufferless)
};

} // namespace gs::net

#endif // GS_NET_ROUTER_HH
