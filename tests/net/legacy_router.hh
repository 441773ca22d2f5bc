/**
 * @file
 * Frozen copy of the original array-of-structures buffered router,
 * for the A/B equivalence harness (router_ab_test.cc).
 *
 * LegacyRouter is the implementation the router's layout rewrites
 * (first a network-wide structure-of-arrays, now per-router hot
 * blocks with queues threaded through the packet pool) replaced. It
 * is kept verbatim, with its own copy of the handle FIFO it queued
 * in, except that it talks to LegacyNet — a minimal single-domain
 * replica of the Network's serial event plumbing (injection,
 * arrival/credit wires, tick chain, delivery).
 * Driving both fabrics with the same randomized program must produce
 * the same delivery trace and the same counters; see the test for
 * the exact contract. Do NOT "fix" behaviour here: this file is the
 * reference the production router is measured against.
 */

#ifndef GS_TESTS_NET_LEGACY_ROUTER_HH
#define GS_TESTS_NET_LEGACY_ROUTER_HH

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "net/params.hh"
#include "sim/context.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "topology/topology.hh"

namespace gs::net::legacy
{

class LegacyNet;

/**
 * The handle FIFO the legacy router buffered in (contiguous storage,
 * recycled consumed prefix), frozen with it: the production router
 * now threads its queues through the packet pool instead.
 */
class LegacyQueue
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

  private:
    static constexpr std::size_t compactAt = 64;

    std::vector<PacketHandle> q;
    std::size_t head_ = 0;
};

/** The pre-refactor router: per-object state, AoS layout. */
class LegacyRouter
{
  public:
    LegacyRouter(LegacyNet &net, NodeId id);

    LegacyRouter(const LegacyRouter &) = delete;
    LegacyRouter &operator=(const LegacyRouter &) = delete;

    void tick(Tick now);
    bool idle() const { return buffered == 0 && injWaiting == 0; }
    NodeId node() const { return id; }
    void receive(int in_port, int vc, PacketHandle h);
    void creditReturn(int out_port, int vc, int flits);
    void inject(PacketHandle h);

    int vcOccupancy(int in_port, int vc) const
    {
        return vcState[slot(in_port, vc)].flitsUsed;
    }

    std::size_t injQueueDepth(MsgClass cls) const
    {
        return injQs[static_cast<std::size_t>(cls)].size();
    }

    int creditsAvailable(int out_port, int vc) const
    {
        return outputs[static_cast<std::size_t>(out_port)]
            .credits[static_cast<std::size_t>(vc)];
    }

    /** @name Counter access for the A/B comparison */
    /// @{
    std::uint64_t sentFlits(int port) const
    {
        return outputs[static_cast<std::size_t>(port)].sentFlits;
    }
    std::uint64_t sentPackets(int port) const
    {
        return outputs[static_cast<std::size_t>(port)].sentPackets;
    }
    std::uint64_t recvFlits(int port, int vc) const
    {
        return vcState[slot(port, vc)].recvFlits;
    }
    std::uint64_t creditStalls(int port, int vc) const
    {
        return vcState[slot(port, vc)].creditStalls;
    }
    std::uint64_t injStallCount(MsgClass cls) const
    {
        return injStalls[static_cast<std::size_t>(cls)];
    }
    /// @}

  private:
    struct Route
    {
        int outPort = -1;
        int outVc = -1;
    };

    struct Nominee
    {
        int inPort;
        int vc;
        Route route;
    };

    struct VcState
    {
        int flitsUsed = 0;
        std::uint64_t recvFlits = 0;
        std::uint64_t creditStalls = 0;
    };

    struct Output
    {
        bool connected = false;
        std::array<int, numVcs> credits{};
        Tick busyUntil = 0;
        int wireCycles = 0;
        int rrSrc = 0;

        std::uint64_t sentFlits = 0;
        std::uint64_t sentPackets = 0;
    };

    std::size_t
    slot(int in_port, int vc) const
    {
        return static_cast<std::size_t>(in_port) *
                   static_cast<std::size_t>(numVcs) +
               static_cast<std::size_t>(vc);
    }

    bool chooseRoute(const Packet &pkt, Route &out,
                     bool &unroutable) const;
    int vcCapacity(int vc) const;
    void ejectPass(Tick now);
    void nominate(Tick now);
    void grant(Tick now);
    PacketHandle popHead(int in_port, int vc);

    LegacyNet &net;
    NodeId id;

    std::vector<LegacyQueue> vcQ;
    std::vector<VcState> vcState;
    std::vector<int> rrVc;
    std::vector<Output> outputs;
    std::array<LegacyQueue, numClasses> injQs;
    std::array<std::uint64_t, numClasses> injStalls{};
    int injRrClass = 0;

    int buffered = 0;
    int injWaiting = 0;

    std::vector<Nominee> noms;
};

/** Cumulative traffic statistics (mirror of NetworkStats). */
struct LegacyStats
{
    std::uint64_t injectedPackets = 0;
    std::uint64_t deliveredPackets = 0;
    std::uint64_t deliveredFlits = 0;
    stats::Average latencyNs;
    stats::Average hopsPerPacket;
};

/**
 * The serial single-domain slice of the Network, frozen alongside
 * the legacy router: injection staging, the arrival/credit wires,
 * the self-scheduling tick chain, and delivery accounting — exactly
 * the code paths the production Network runs with one domain and a
 * healthy fabric.
 */
class LegacyNet
{
  public:
    using Handler = std::function<void(const Packet &)>;

    LegacyNet(SimContext &context, const topo::Topology &topo,
              NetworkParams params)
        : ctx(context), topo_(topo), prm(params),
          tickPeriod(params.period())
    {
        const int n = topo.numNodes();
        handlers.resize(static_cast<std::size_t>(n));
        linkFlits.resize(static_cast<std::size_t>(n));
        routers.reserve(static_cast<std::size_t>(n));
        for (NodeId node = 0; node < n; ++node) {
            routers.push_back(
                std::make_unique<LegacyRouter>(*this, node));
            linkFlits[static_cast<std::size_t>(node)].assign(
                static_cast<std::size_t>(topo.numPorts(node)), 0);
        }
    }

    void
    setHandler(NodeId node, Handler handler)
    {
        handlers[static_cast<std::size_t>(node)] = std::move(handler);
    }

    void
    inject(Packet pkt)
    {
        gs_assert(pkt.src >= 0 && pkt.src < topo_.numNodes() &&
                      pkt.dst >= 0 && pkt.dst < topo_.numNodes() &&
                      pkt.flits > 0,
                  "legacy inject: malformed packet");
        pkt.injected = ctx.now();
        st.injectedPackets += 1;
        flying += 1;
        PacketHandle h = pool_.acquire(pkt);

        if (pkt.src == pkt.dst) {
            Tick delay = static_cast<Tick>(prm.injectionCycles +
                                           prm.ejectionCycles) *
                         tickPeriod;
            NodeId node = pkt.dst;
            ctx.queue().schedule(delay,
                                 [this, node, h] { deliverNow(node, h); });
            return;
        }

        Tick delay =
            static_cast<Tick>(prm.injectionCycles) * tickPeriod;
        NodeId node = pkt.src;
        ctx.queue().schedule(delay, [this, node, h] {
            routers[static_cast<std::size_t>(node)]->inject(h);
        });
    }

    /** @name Router-facing plumbing (serial Network equivalents) */
    /// @{
    PacketPool &poolOf(NodeId) { return pool_; }
    const PacketPool &poolOf(NodeId) const { return pool_; }
    SimContext &ctxOf(NodeId) { return ctx; }
    const topo::Topology &topology() const { return topo_; }
    const NetworkParams &params() const { return prm; }
    Tick period() const { return tickPeriod; }
    bool degraded() const { return false; }

    void
    countLinkFlits(NodeId node, int port, int flits)
    {
        linkFlits[std::size_t(node)][std::size_t(port)] +=
            static_cast<std::uint64_t>(flits);
    }

    void
    dropPacket(NodeId, PacketHandle, const char *why)
    {
        gs_fatal("legacy fabric dropped a packet (", why,
                 "): the A/B harness runs healthy fabrics only");
    }

    void
    scheduleArrival(NodeId, NodeId to, int in_port, int vc,
                    PacketHandle h, int delay_cycles)
    {
        const Tick delay =
            static_cast<Tick>(delay_cycles) * tickPeriod;
        ctx.queue().schedule(delay, [this, to, in_port, vc, h] {
            routers[static_cast<std::size_t>(to)]->receive(in_port,
                                                           vc, h);
        });
    }

    void
    scheduleCredit(NodeId at_node, int in_port, int vc, int flits)
    {
        topo::Port link = topo_.port(at_node, in_port);
        gs_assert(link.connected(), "credit for unconnected port");
        NodeId peer = link.peer;
        int peerPort = link.peerPort;
        const Tick delay =
            static_cast<Tick>(prm.creditCycles) * tickPeriod;
        ctx.queue().schedule(delay, [this, peer, peerPort, vc, flits] {
            routers[static_cast<std::size_t>(peer)]->creditReturn(
                peerPort, vc, flits);
        });
    }

    void
    deliverLocal(NodeId node, PacketHandle h)
    {
        int flits = pool_.get(h).flits;
        int tail = prm.cutThrough && flits > headerFlits
                       ? flits - headerFlits
                       : 0;
        Tick delay =
            static_cast<Tick>(prm.ejectionCycles + tail) * tickPeriod;
        ctx.queue().schedule(delay,
                             [this, node, h] { deliverNow(node, h); });
    }

    void
    activate(NodeId)
    {
        if (ticking)
            return;
        ticking = true;
        const Clock clk(tickPeriod);
        Tick edge = clk.nextEdge(ctx.now() + 1);
        ctx.queue().scheduleAt(edge, [this] { tickAll(); });
    }
    /// @}

    /** @name Observation for the A/B comparison */
    /// @{
    const LegacyStats &stats() const { return st; }
    int inFlight() const { return flying; }
    std::uint64_t
    linkBusyFlits(NodeId node, int port) const
    {
        return linkFlits[std::size_t(node)][std::size_t(port)];
    }
    LegacyRouter &router(NodeId node)
    {
        return *routers[std::size_t(node)];
    }
    /// @}

  private:
    void
    tickAll()
    {
        const Tick now = ctx.now();
        bool any = false;
        for (auto &router : routers) {
            router->tick(now);
            any = any || !router->idle();
        }
        if (any)
            ctx.queue().schedule(tickPeriod, [this] { tickAll(); });
        else
            ticking = false;
    }

    void
    deliverNow(NodeId node, PacketHandle h)
    {
        const Packet &pkt = pool_.get(h);
        st.deliveredPackets += 1;
        st.deliveredFlits += static_cast<std::uint64_t>(pkt.flits);
        st.latencyNs.sample(ticksToNs(ctx.now() - pkt.injected));
        st.hopsPerPacket.sample(static_cast<double>(pkt.hops));
        flying -= 1;
        auto &handler = handlers[static_cast<std::size_t>(node)];
        if (handler)
            handler(pkt);
        pool_.release(h);
    }

    SimContext &ctx;
    const topo::Topology &topo_;
    NetworkParams prm;
    Tick tickPeriod;

    PacketPool pool_;
    std::vector<std::unique_ptr<LegacyRouter>> routers;
    std::vector<Handler> handlers;
    std::vector<std::vector<std::uint64_t>> linkFlits;
    LegacyStats st;
    int flying = 0;
    bool ticking = false;
};

// ------------------------------------------------------------------
// LegacyRouter implementation: the original logic, verbatim.
// ------------------------------------------------------------------

inline LegacyRouter::LegacyRouter(LegacyNet &network, NodeId node)
    : net(network), id(node)
{
    const auto &topo = net.topology();
    const auto &prm = net.params();
    const int ports = topo.numPorts(id);

    vcQ.resize(static_cast<std::size_t>(ports) * numVcs);
    vcState.resize(static_cast<std::size_t>(ports) * numVcs);
    rrVc.assign(static_cast<std::size_t>(ports), 0);
    outputs.resize(static_cast<std::size_t>(ports));

    for (int p = 0; p < ports; ++p) {
        auto &out = outputs[static_cast<std::size_t>(p)];
        topo::Port link = topo.port(id, p);
        out.connected = link.connected();
        if (!out.connected)
            continue;
        out.wireCycles = prm.wireCycles(link.kind);
        for (int vc = 0; vc < numVcs; ++vc) {
            out.credits[static_cast<std::size_t>(vc)] =
                vc % vcSubCount == vcAdaptive ? prm.adaptiveVcFlits
                                              : prm.escapeVcFlits;
        }
    }

    gs_assert(prm.escapeVcFlits >= dataFlits &&
                  prm.adaptiveVcFlits >= dataFlits,
              "VC buffers must hold a whole data packet (cut-through)");
}

inline void
LegacyRouter::receive(int in_port, int vc, PacketHandle h)
{
    Packet &pkt = net.poolOf(id).get(h);
    auto &st = vcState[slot(in_port, vc)];
    pkt.hops += 1;
    if (pkt.span.id != 0 && pkt.span.phase == 0 && pkt.dst != id)
        pkt.span.advance(net.ctxOf(id).now(), trace::VcWait);
    st.flitsUsed += pkt.flits;
    st.recvFlits += static_cast<std::uint64_t>(pkt.flits);
    vcQ[slot(in_port, vc)].push(h);
    buffered += 1;
    net.activate(id);
}

inline void
LegacyRouter::creditReturn(int out_port, int vc, int flits)
{
    auto &out = outputs[static_cast<std::size_t>(out_port)];
    auto &credits = out.credits[static_cast<std::size_t>(vc)];
    credits += flits;
    if (net.degraded() && credits > vcCapacity(vc))
        credits = vcCapacity(vc);
    net.activate(id);
}

inline int
LegacyRouter::vcCapacity(int vc) const
{
    const auto &prm = net.params();
    return vc % vcSubCount == vcAdaptive ? prm.adaptiveVcFlits
                                         : prm.escapeVcFlits;
}

inline void
LegacyRouter::inject(PacketHandle h)
{
    const Packet &pkt = net.poolOf(id).get(h);
    injQs[static_cast<std::size_t>(pkt.cls)].push(h);
    injWaiting += 1;
    net.activate(id);
}

inline bool
LegacyRouter::chooseRoute(const Packet &pkt, Route &route,
                          bool &unroutable) const
{
    const auto &topo = net.topology();

    if (net.params().adaptiveEnabled && mayAdapt(pkt.cls)) {
        int vc = vcIndex(pkt.cls, vcAdaptive);
        int bestPort = -1, bestCredits = -1;
        for (int p : topo.adaptivePorts(id, pkt.dst, pkt.hops)) {
            const auto &out = outputs[static_cast<std::size_t>(p)];
            int credits = out.credits[static_cast<std::size_t>(vc)];
            if (credits >= pkt.flits && credits > bestCredits) {
                bestCredits = credits;
                bestPort = p;
            }
        }
        if (bestPort >= 0) {
            route = Route{bestPort, vc};
            return true;
        }
    }

    topo::EscapeHop esc = topo.escapeRoute(id, pkt.dst, 0);
    if (esc.port < 0) {
        gs_assert(net.degraded(), "escape route missing at node ", id,
                  " for dst ", pkt.dst);
        unroutable = true;
        return false;
    }
    int vc = vcIndex(pkt.cls, esc.vc == 0 ? vcEscape0 : vcEscape1);
    const auto &out = outputs[static_cast<std::size_t>(esc.port)];
    if (out.credits[static_cast<std::size_t>(vc)] >= pkt.flits) {
        route = Route{esc.port, vc};
        return true;
    }
    return false;
}

inline PacketHandle
LegacyRouter::popHead(int in_port, int vc)
{
    auto &q = vcQ[slot(in_port, vc)];
    gs_assert(!q.empty());
    PacketHandle h = q.front();
    q.pop();
    int flits = net.poolOf(id).get(h).flits;
    vcState[slot(in_port, vc)].flitsUsed -= flits;
    buffered -= 1;
    net.scheduleCredit(id, in_port, vc, flits);
    return h;
}

inline void
LegacyRouter::ejectPass(Tick now)
{
    (void)now;
    const PacketPool &pool = net.poolOf(id);
    const int ports = static_cast<int>(outputs.size());
    for (int p = 0; p < ports; ++p) {
        for (int vc = 0; vc < numVcs; ++vc) {
            auto &q = vcQ[slot(p, vc)];
            while (!q.empty() && pool.get(q.front()).dst == id) {
                PacketHandle h = popHead(p, vc);
                net.deliverLocal(id, h);
            }
        }
    }
}

inline void
LegacyRouter::nominate(Tick now)
{
    noms.clear();
    PacketPool &pool = net.poolOf(id);

    const int ports = static_cast<int>(outputs.size());
    for (int p = 0; p < ports; ++p) {
        for (int k = 0; k < numVcs; ++k) {
            int vc = (rrVc[static_cast<std::size_t>(p)] + k) % numVcs;
            auto &q = vcQ[slot(p, vc)];
            Route route;
            bool nominated = false;
            while (!q.empty()) {
                bool unroutable = false;
                if (chooseRoute(pool.get(q.front()), route,
                                unroutable)) {
                    nominated = true;
                    break;
                }
                if (!unroutable) {
                    vcState[slot(p, vc)].creditStalls += 1;
                    break;
                }
                PacketHandle h = popHead(p, vc);
                net.dropPacket(id, h, "unroutable");
            }
            if (!nominated)
                continue;
            if (outputs[static_cast<std::size_t>(route.outPort)]
                    .busyUntil > now)
                continue;
            noms.push_back(Nominee{p, vc, route});
            rrVc[static_cast<std::size_t>(p)] = (vc + 1) % numVcs;
            break;
        }
    }

    for (int k = 0; k < numClasses; ++k) {
        int cls = (injRrClass + k) % numClasses;
        auto &q = injQs[static_cast<std::size_t>(cls)];
        Route route;
        bool nominated = false;
        while (!q.empty()) {
            bool unroutable = false;
            if (chooseRoute(pool.get(q.front()), route, unroutable)) {
                nominated = true;
                break;
            }
            if (!unroutable) {
                injStalls[static_cast<std::size_t>(cls)] += 1;
                break;
            }
            net.dropPacket(id, q.front(), "unroutable");
            q.pop();
            injWaiting -= 1;
        }
        if (!nominated)
            continue;
        if (outputs[static_cast<std::size_t>(route.outPort)].busyUntil
            > now)
            continue;
        noms.push_back(Nominee{-1, cls, route});
        injRrClass = (cls + 1) % numClasses;
        break;
    }
}

inline void
LegacyRouter::grant(Tick now)
{
    const auto &topo = net.topology();
    const auto &prm = net.params();
    PacketPool &pool = net.poolOf(id);
    const int srcSlots = static_cast<int>(outputs.size()) + 1;

    for (std::size_t o = 0; o < outputs.size(); ++o) {
        auto &out = outputs[o];
        if (!out.connected || out.busyUntil > now)
            continue;

        const Nominee *winner = nullptr;
        int bestRank = srcSlots;
        for (const auto &nom : noms) {
            if (nom.route.outPort != static_cast<int>(o))
                continue;
            int src = nom.inPort < 0 ? srcSlots - 1 : nom.inPort;
            int rank = (src - out.rrSrc + srcSlots) % srcSlots;
            if (rank < bestRank) {
                bestRank = rank;
                winner = &nom;
            }
        }
        if (!winner)
            continue;

        PacketHandle h;
        if (winner->inPort < 0) {
            auto &q = injQs[static_cast<std::size_t>(winner->vc)];
            h = q.front();
            q.pop();
            injWaiting -= 1;
        } else {
            h = popHead(winner->inPort, winner->vc);
        }
        Packet &pkt = pool.get(h);

        if (pkt.span.id != 0 && pkt.span.phase == 0)
            pkt.span.advance(now, trace::Link);

        int vc = winner->route.outVc;
        out.credits[static_cast<std::size_t>(vc)] -= pkt.flits;
        gs_assert(out.credits[static_cast<std::size_t>(vc)] >= 0,
                  "credit underflow at node ", id, " port ", o);
        out.busyUntil =
            now + static_cast<Tick>(pkt.flits) * net.period();
        out.sentFlits += static_cast<std::uint64_t>(pkt.flits);
        out.sentPackets += 1;
        out.rrSrc =
            ((winner->inPort < 0 ? srcSlots - 1 : winner->inPort) + 1) %
            srcSlots;

        net.countLinkFlits(id, static_cast<int>(o), pkt.flits);

        topo::Port link = topo.port(id, static_cast<int>(o));
        int delay = prm.pipelineCycles + out.wireCycles +
                    (prm.cutThrough ? std::min(pkt.flits, headerFlits)
                                    : pkt.flits);
        net.scheduleArrival(id, link.peer, link.peerPort, vc, h, delay);
    }
}

inline void
LegacyRouter::tick(Tick now)
{
    if (idle())
        return;
    ejectPass(now);
    if (buffered == 0 && injWaiting == 0)
        return;
    nominate(now);
    if (!noms.empty())
        grant(now);
}

} // namespace gs::net::legacy

#endif // GS_TESTS_NET_LEGACY_ROUTER_HH
