#include "net/router.hh"

#include <algorithm>
#include <bit>

#include "net/network.hh"
#include "sim/logging.hh"

namespace gs::net
{

Router::Router(Network &network, NodeId node)
    : net(network), id(node), core(&network.routerCore())
{
    const auto &topo = net.topology();
    const auto &prm = net.params();
    const RouterCore::NodeRef &ref = core->ref(id);
    pb = ref.portBase;
    sb = ref.slotBase;
    nPorts = static_cast<int>(ref.ports);
    kind_ = prm.routerKind;

    gs_assert(nPorts <= INT8_MAX, "route memo stores ports as int8");
    vcQ.resize(static_cast<std::size_t>(nPorts) * numVcs);
    vcMask.assign(static_cast<std::size_t>(nPorts), 0);
    vcMemo.resize(vcQ.size());

    for (int p = 0; p < nPorts; ++p) {
        topo::Port link = topo.port(id, p);
        core->connected[pidx(p)] = link.connected() ? 1 : 0;
        if (!link.connected())
            continue;
        core->wireCycles[pidx(p)] = prm.wireCycles(link.kind);
        for (int vc = 0; vc < numVcs; ++vc)
            core->credits[sidx(p, vc)] = vcCapacity(vc);
    }

    if (kind_ == RouterKind::Buffered) {
        gs_assert(prm.escapeVcFlits >= dataFlits &&
                      prm.adaptiveVcFlits >= dataFlits,
                  "VC buffers must hold a whole data packet "
                  "(cut-through)");
    }
}

void
Router::receive(int in_port, int vc, PacketHandle h)
{
    Packet &pkt = net.poolOf(id).get(h);
    pkt.hops += 1;
    // Latency x-ray: link transit ends here; buffered time counts as
    // VC-arbitration wait. At the destination the packet keeps
    // accumulating Link until the node takes delivery (ejection and
    // the local hop fold into Link). Reply-path spans (phase 1)
    // attribute their whole return to Reply, so only phase 0 hooks.
    if (pkt.span.id != 0 && pkt.span.phase == 0 && pkt.dst != id)
        pkt.span.advance(net.ctxOf(id).now(), trace::VcWait);
    if (kind_ == RouterKind::Bufferless) {
        // Credit flow control guarantees the latch was free: the
        // upstream only grants with a latch credit in hand.
        gs_assert(vc == 0 && vcQ[slot(in_port, vc)].empty(),
                  "bufferless latch overrun at node ", id, " port ",
                  in_port);
    }
    core->flitsUsed[sidx(in_port, vc)] += pkt.flits;
    core->recvFlits[sidx(in_port, vc)] +=
        static_cast<std::uint64_t>(pkt.flits);
    vcQ[slot(in_port, vc)].push(h);
    vcMask[static_cast<std::size_t>(in_port)] |=
        static_cast<std::uint16_t>(1u << vc);
    if (pkt.dst == id)
        ejectable += 1;
    buffered += 1;
    net.activate(id);
}

void
Router::creditReturn(int out_port, int vc, int flits)
{
    auto &credits = core->credits[sidx(out_port, vc)];
    credits += flits;
    // A credit that was on the wire across a link repair arrives on
    // top of the resynced count; clamp rather than overflow the
    // downstream buffer. Healthy fabrics never hit this.
    if (net.degraded() && credits > vcCapacity(vc))
        credits = vcCapacity(vc);
    net.activate(id);
}

int
Router::vcCapacity(int vc) const
{
    if (kind_ == RouterKind::Bufferless)
        return vc == 0 ? 1 : 0;
    const auto &prm = net.params();
    return vc % vcSubCount == vcAdaptive ? prm.adaptiveVcFlits
                                         : prm.escapeVcFlits;
}

void
Router::syncPorts()
{
    gs_assert(kind_ == RouterKind::Buffered,
              "fault injection requires the buffered router backend");
    // Any link anywhere may have changed this router's routes.
    clearRouteMemos();
    const auto &topo = net.topology();
    const auto &prm = net.params();
    for (int p = 0; p < nPorts; ++p) {
        topo::Port link = topo.port(id, p);
        const bool wasConnected = core->connected[pidx(p)] != 0;
        if (wasConnected == link.connected())
            continue;
        core->connected[pidx(p)] = link.connected() ? 1 : 0;
        if (!link.connected())
            continue;
        // Reconnected (repair, or the peer router came back): the
        // peer's input buffers kept their contents, so our credit
        // view restarts at capacity minus what is still buffered
        // there. busyUntil is stale by at most one transfer.
        core->wireCycles[pidx(p)] = prm.wireCycles(link.kind);
        core->busyUntil[pidx(p)] = 0;
        const Router &peer = net.router(link.peer);
        for (int vc = 0; vc < numVcs; ++vc) {
            core->credits[sidx(p, vc)] =
                vcCapacity(vc) - peer.vcOccupancy(link.peerPort, vc);
        }
    }
}

void
Router::flushAll()
{
    for (int p = 0; p < nPorts; ++p) {
        for (int vc = 0; vc < numVcs; ++vc) {
            auto &q = vcQ[slot(p, vc)];
            while (!q.empty()) {
                PacketHandle h = popHead(p, vc);
                net.dropPacket(id, h, "node-failure");
            }
        }
    }
    for (PacketHandle h : sideQ_) {
        net.dropPacket(id, h, "node-failure");
        buffered -= 1;
    }
    sideQ_.clear();
    for (int cls = 0; cls < numClasses; ++cls) {
        while (!injQs[static_cast<std::size_t>(cls)].empty())
            net.dropPacket(id, popInjection(cls), "node-failure");
    }
}

void
Router::registerTelemetry(telem::Registry &reg,
                          const std::string &prefix,
                          const std::function<std::string(int)>
                              &port_name)
{
    for (int p = 0; p < nPorts; ++p) {
        if (!core->connected[pidx(p)])
            continue;
        const std::string pp =
            telem::path(prefix, "port", port_name(p));
        reg.addCounter(pp + ".flits", core->sentFlits[pidx(p)]);
        reg.addCounter(pp + ".packets", core->sentPackets[pidx(p)]);
        reg.addGauge(pp + ".busy_frac", [this, p] {
            Tick now = net.ctxOf(id).now();
            if (now <= statsWindowStart)
                return 0.0;
            double f = static_cast<double>(core->sentFlits[pidx(p)]) *
                       static_cast<double>(net.period()) /
                       static_cast<double>(now - statsWindowStart);
            return std::min(f, 1.0);
        });
        // Input-side VC stats of the same port (the buffers facing
        // the neighbour this port points at).
        for (int vc = 0; vc < numVcs; ++vc) {
            const std::string vp = telem::path(pp, "vc", vc);
            reg.addCounter(vp + ".flits", core->recvFlits[sidx(p, vc)]);
            reg.addCounter(vp + ".stalls",
                           core->creditStalls[sidx(p, vc)]);
        }
    }
    for (int cls = 0; cls < numClasses; ++cls) {
        const std::string cp = telem::path(
            prefix, "inj", msgClassName(static_cast<MsgClass>(cls)));
        reg.addCounter(cp + ".stalls",
                       injStalls[static_cast<std::size_t>(cls)]);
        reg.addGauge(cp + ".depth", [this, cls] {
            return static_cast<double>(
                injQs[static_cast<std::size_t>(cls)].size());
        });
    }
}

void
Router::clearStats(Tick now)
{
    for (int p = 0; p < nPorts; ++p) {
        core->sentFlits[pidx(p)] = 0;
        core->sentPackets[pidx(p)] = 0;
        for (int vc = 0; vc < numVcs; ++vc) {
            core->recvFlits[sidx(p, vc)] = 0;
            core->creditStalls[sidx(p, vc)] = 0;
        }
    }
    injStalls.fill(0);
    deflections_ = 0;
    latchStalls_ = 0;
    retreats_ = 0;
    statsWindowStart = now;
}

bool
Router::oldestBuffered(Packet &out) const
{
    const PacketPool &pool = net.poolOf(id);
    bool found = false;
    auto consider = [&](PacketHandle h) {
        const Packet &pkt = pool.get(h);
        if (!found || pkt.injected < out.injected) {
            out = pkt;
            found = true;
        }
    };
    for (const auto &q : vcQ)
        for (PacketHandle h : q)
            consider(h);
    for (PacketHandle h : sideQ_)
        consider(h);
    for (const auto &q : injQs)
        for (PacketHandle h : q)
            consider(h);
    return found;
}

void
Router::inject(PacketHandle h)
{
    const Packet &pkt = net.poolOf(id).get(h);
    injQs[static_cast<std::size_t>(pkt.cls)].push(h);
    injWaiting += 1;
    net.activate(id);
}

bool
Router::chooseRoute(PacketHandle h, RouteMemo &memo, Route &route,
                    bool &unroutable)
{
    const auto &topo = net.topology();
    const Packet &pkt = net.poolOf(id).get(h);
    if (memo.head != h) {
        memo = RouteMemo{};
        memo.head = h;
        if (net.params().adaptiveEnabled && mayAdapt(pkt.cls)) {
            for (int p : topo.adaptivePorts(id, pkt.dst, pkt.hops))
                memo.adaptive[memo.nAdaptive++] =
                    static_cast<std::uint8_t>(p);
        }
    }

    // Adaptive first: pick the minimal direction with the most free
    // downstream credits ("a message can choose the less congested
    // minimal path").
    if (memo.nAdaptive > 0) {
        int vc = vcIndex(pkt.cls, vcAdaptive);
        int bestPort = -1, bestCredits = -1;
        for (int i = 0; i < memo.nAdaptive; ++i) {
            int p = memo.adaptive[static_cast<std::size_t>(i)];
            int credits = core->credits[sidx(p, vc)];
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

    // Escape: the deadlock-free channel is always routable; it may
    // just lack credits right now, in which case the packet waits.
    // The lookup is memoized the first time the head gets this far.
    if (memo.escPort == RouteMemo::escUnknown) {
        topo::EscapeHop esc = topo.escapeRoute(id, pkt.dst, 0);
        memo.escPort = static_cast<std::int8_t>(esc.port < 0 ? -1
                                                             : esc.port);
        memo.escVc = static_cast<std::uint8_t>(
            vcIndex(pkt.cls, esc.vc == 0 ? vcEscape0 : vcEscape1));
    }
    if (memo.escPort < 0) {
        // Only a degraded fabric may legitimately lose every route
        // to a destination; anywhere else it is a simulator bug.
        gs_assert(net.degraded(), "escape route missing at node ", id,
                  " for dst ", pkt.dst);
        unroutable = true;
        return false;
    }
    if (core->credits[sidx(memo.escPort, memo.escVc)] >= pkt.flits) {
        route = Route{memo.escPort, memo.escVc};
        return true;
    }
    return false;
}

PacketHandle
Router::popHead(int in_port, int vc)
{
    auto &q = vcQ[slot(in_port, vc)];
    gs_assert(!q.empty());
    PacketHandle h = q.front();
    q.pop();
    vcMemo[slot(in_port, vc)].head = invalidHandle;
    if (q.empty())
        vcMask[static_cast<std::size_t>(in_port)] &=
            static_cast<std::uint16_t>(~(1u << vc));
    const Packet &pkt = net.poolOf(id).get(h);
    if (pkt.dst == id)
        ejectable -= 1;
    int flits = pkt.flits;
    core->flitsUsed[sidx(in_port, vc)] -= flits;
    buffered -= 1;
    // Freed buffer space becomes a credit at our upstream neighbour:
    // flits under buffered flow control, one latch slot under
    // bufferless.
    net.scheduleCredit(id, in_port, vc,
                       kind_ == RouterKind::Bufferless ? 1 : flits);
    return h;
}

PacketHandle
Router::popInjection(int cls)
{
    const auto c = static_cast<std::size_t>(cls);
    PacketHandle h = injQs[c].front();
    injQs[c].pop();
    injMemo[c].head = invalidHandle;
    injWaiting -= 1;
    return h;
}

void
Router::clearRouteMemos()
{
    for (RouteMemo &m : vcMemo)
        m.head = invalidHandle;
    for (RouteMemo &m : injMemo)
        m.head = invalidHandle;
}

void
Router::ejectPass(Tick now)
{
    (void)now;
    const PacketPool &pool = net.poolOf(id);
    for (int p = 0; p < nPorts && ejectable > 0; ++p) {
        for (unsigned bits = vcMask[static_cast<std::size_t>(p)];
             bits != 0; bits &= bits - 1) {
            const int vc = std::countr_zero(bits);
            auto &q = vcQ[slot(p, vc)];
            while (!q.empty() && pool.get(q.front()).dst == id) {
                PacketHandle h = popHead(p, vc);
                net.deliverLocal(id, h);
            }
        }
    }
}

bool
Router::nominateVc(int in_port, int vc, Tick now)
{
    auto &q = vcQ[slot(in_port, vc)];
    RouteMemo &memo = vcMemo[slot(in_port, vc)];
    Route route;
    bool nominated = false;
    while (!q.empty()) {
        bool unroutable = false;
        if (chooseRoute(q.front(), memo, route, unroutable)) {
            nominated = true;
            break;
        }
        if (!unroutable) {
            core->creditStalls[sidx(in_port, vc)] += 1;
            break;
        }
        PacketHandle h = popHead(in_port, vc);
        net.dropPacket(id, h, "unroutable");
    }
    if (!nominated || core->busyUntil[pidx(route.outPort)] > now)
        return false;
    noms.push_back(Nominee{in_port, vc, route});
    core->rrVc[pidx(in_port)] = (vc + 1) % numVcs;
    return true;
}

void
Router::nominate(Tick now)
{
    noms.clear();

    // Network input ports: one nominee each, round-robin over the
    // non-empty VCs — rrVc..numVcs-1 first, then 0..rrVc-1. Heads
    // whose destination lost every route (degraded fabric) are
    // dropped on the spot: waiting cannot bring the route back.
    for (int p = 0; p < nPorts; ++p) {
        const unsigned mask = vcMask[static_cast<std::size_t>(p)];
        if (mask == 0)
            continue;
        const unsigned fromRr = ~0u << core->rrVc[pidx(p)];
        bool nominated = false;
        for (unsigned bits : {mask & fromRr, mask & ~fromRr}) {
            for (; bits != 0 && !nominated; bits &= bits - 1)
                nominated = nominateVc(p, std::countr_zero(bits), now);
        }
    }

    // Injection: one nominee, round-robin over message classes.
    for (int k = 0; k < numClasses; ++k) {
        int cls = (injRrClass + k) % numClasses;
        auto &q = injQs[static_cast<std::size_t>(cls)];
        RouteMemo &memo = injMemo[static_cast<std::size_t>(cls)];
        Route route;
        bool nominated = false;
        while (!q.empty()) {
            bool unroutable = false;
            if (chooseRoute(q.front(), memo, route, unroutable)) {
                nominated = true;
                break;
            }
            if (!unroutable) {
                injStalls[static_cast<std::size_t>(cls)] += 1;
                break;
            }
            net.dropPacket(id, popInjection(cls), "unroutable");
        }
        if (!nominated)
            continue;
        if (core->busyUntil[pidx(route.outPort)] > now)
            continue;
        noms.push_back(Nominee{-1, cls, route});
        injRrClass = (cls + 1) % numClasses;
        break;
    }
}

void
Router::grant(Tick now)
{
    const auto &topo = net.topology();
    const auto &prm = net.params();
    PacketPool &pool = net.poolOf(id);
    const int srcSlots = nPorts + 1;

    for (int o = 0; o < nPorts; ++o) {
        if (!core->connected[pidx(o)] || core->busyUntil[pidx(o)] > now)
            continue;

        // Global arbiter: round-robin over nominating sources
        // (network inputs 0..P-1, injection as slot P).
        const Nominee *winner = nullptr;
        int bestRank = srcSlots;
        for (const auto &nom : noms) {
            if (nom.route.outPort != o)
                continue;
            int src = nom.inPort < 0 ? srcSlots - 1 : nom.inPort;
            int rank =
                (src - core->rrSrc[pidx(o)] + srcSlots) % srcSlots;
            if (rank < bestRank) {
                bestRank = rank;
                winner = &nom;
            }
        }
        if (!winner)
            continue;

        PacketHandle h = winner->inPort < 0
                             ? popInjection(winner->vc)
                             : popHead(winner->inPort, winner->vc);
        Packet &pkt = pool.get(h);

        // Latency x-ray: the grant closes the injection wait (source
        // router) or the VC wait (intermediate hop); the packet is on
        // the link from here.
        if (pkt.span.id != 0 && pkt.span.phase == 0)
            pkt.span.advance(now, trace::Link);

        int vc = winner->route.outVc;
        core->credits[sidx(o, vc)] -= pkt.flits;
        gs_assert(core->credits[sidx(o, vc)] >= 0,
                  "credit underflow at node ", id, " port ", o);
        core->busyUntil[pidx(o)] =
            now + static_cast<Tick>(pkt.flits) * net.period();
        core->sentFlits[pidx(o)] +=
            static_cast<std::uint64_t>(pkt.flits);
        core->sentPackets[pidx(o)] += 1;
        core->rrSrc[pidx(o)] =
            ((winner->inPort < 0 ? srcSlots - 1 : winner->inPort) + 1) %
            srcSlots;

        net.countLinkFlits(id, o, pkt.flits);

        topo::Port link = topo.port(id, o);
        // Cut-through: the header is routable downstream after the
        // pipeline + wire + header cycles; the body streams behind
        // it at link rate (the link stays busy for the full length,
        // and ejection waits for the tail). Store-and-forward (the
        // ablation) waits for the whole packet at every hop.
        int delay = prm.pipelineCycles + core->wireCycles[pidx(o)] +
                    (prm.cutThrough ? std::min(pkt.flits, headerFlits)
                                    : pkt.flits);
        net.scheduleArrival(id, link.peer, link.peerPort, vc, h, delay);
    }
}

bool
Router::portFree(int port, Tick now) const
{
    return core->connected[pidx(port)] != 0 &&
           core->busyUntil[pidx(port)] <= now &&
           core->credits[sidx(port, 0)] >= 1;
}

bool
Router::creditBlocked(Tick now) const
{
    for (int p = 0; p < nPorts; ++p) {
        if (core->connected[pidx(p)] != 0 &&
            core->busyUntil[pidx(p)] <= now &&
            core->credits[sidx(p, 0)] == 0)
            return true;
    }
    return false;
}

int
Router::pickBufferlessPort(const Packet &pkt, bool allow_deflect,
                           Tick now, bool &deflected) const
{
    deflected = false;
    const auto &topo = net.topology();
    // Productive first: the lowest-indexed free minimal port. No
    // credit-count tiebreak — latch credits are 0/1, so "free" is
    // binary and the fixed index order keeps arbitration cheap and
    // deterministic.
    topo::PortSet minimal = topo.adaptivePorts(id, pkt.dst, pkt.hops);
    for (int p : minimal)
        if (portFree(p, now))
            return p;
    if (!allow_deflect)
        return -1;
    // Deflect: any free port will do; the packet pays the extra hops
    // instead of waiting for a buffer it does not have.
    for (int p = 0; p < nPorts; ++p) {
        bool isMinimal = false;
        for (int m : minimal)
            isMinimal = isMinimal || m == p;
        if (!isMinimal && portFree(p, now)) {
            deflected = true;
            return p;
        }
    }
    return -1;
}

void
Router::sendBufferless(PacketHandle h, int out_port, Tick now)
{
    const auto &topo = net.topology();
    const auto &prm = net.params();
    Packet &pkt = net.poolOf(id).get(h);

    // Latency x-ray: same attribution as a buffered grant — the
    // packet leaves arbitration and goes on the link here.
    if (pkt.span.id != 0 && pkt.span.phase == 0)
        pkt.span.advance(now, trace::Link);

    auto &credit = core->credits[sidx(out_port, 0)];
    credit -= 1;
    gs_assert(credit >= 0, "latch credit underflow at node ", id,
              " port ", out_port);
    core->busyUntil[pidx(out_port)] =
        now + static_cast<Tick>(pkt.flits) * net.period();
    core->sentFlits[pidx(out_port)] +=
        static_cast<std::uint64_t>(pkt.flits);
    core->sentPackets[pidx(out_port)] += 1;

    net.countLinkFlits(id, out_port, pkt.flits);

    topo::Port link = topo.port(id, out_port);
    int delay = prm.pipelineCycles + core->wireCycles[pidx(out_port)] +
                (prm.cutThrough ? std::min(pkt.flits, headerFlits)
                                : pkt.flits);
    net.scheduleArrival(id, link.peer, link.peerPort, 0, h, delay);
}

void
Router::tickBufferless(Tick now)
{
    PacketPool &pool = net.poolOf(id);

    // Rank every resident packet — latch heads and side-buffered
    // retreats together — oldest-first: (injection tick, packet id)
    // plus a structural tie-break is a total order, identical no
    // matter which engine or thread count runs this tick. Age
    // priority is the livelock argument — the globally oldest packet
    // outranks every rival at any router it shares a tick with, so
    // it claims a minimal port whenever one is free and is never
    // displaced by younger traffic.
    ranks_.clear();
    for (int p = 0; p < nPorts; ++p) {
        auto &q = vcQ[slot(p, 0)];
        if (q.empty())
            continue;
        const Packet &pkt = pool.get(q.front());
        ranks_.push_back(LatchRank{pkt.injected, pkt.id, p, false, 0});
    }
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(sideQ_.size()); ++i) {
        const Packet &pkt = pool.get(sideQ_[i]);
        ranks_.push_back(LatchRank{pkt.injected, pkt.id, -1, true, i});
    }
    std::sort(ranks_.begin(), ranks_.end(),
              [](const LatchRank &a, const LatchRank &b) {
                  if (a.injected != b.injected)
                      return a.injected < b.injected;
                  if (a.pktId != b.pktId)
                      return a.pktId < b.pktId;
                  // Packet ids are caller-assigned and may tie (raw
                  // Network tests leave them 0); latches before side
                  // slots, then the unique port / slot index, keeps
                  // the order total.
                  if (a.side != b.side)
                      return !a.side;
                  return a.side ? a.sideIdx < b.sideIdx
                                : a.port < b.port;
              });

    bool sideSent = false;
    for (const LatchRank &lr : ranks_) {
        PacketHandle h = lr.side ? sideQ_[lr.sideIdx]
                                 : vcQ[slot(lr.port, 0)].front();
        Packet &pkt = pool.get(h);
        bool deflected = false;
        // Escalated packets (misroute budget spent) wait for a
        // productive port instead of deflecting again; this caps
        // per-packet deflections and breaks deterministic
        // deflection orbits (file header).
        int out = pickBufferlessPort(
            pkt,
            static_cast<std::uint32_t>(pkt.deflections) <
                kDeflectionEscalation,
            now, deflected);
        if (out < 0) {
            if (lr.side)
                continue; // already out of the way; wait in place
            if (creditBlocked(now)) {
                // An idle output with a full downstream latch can be
                // one edge of a cycle of latches all waiting on each
                // other — the one deadlock this design can reach.
                // Vacate: the packet parks in the side buffer and
                // the freed latch credit goes upstream, so the cycle
                // cannot close. popHead hands back the credit;
                // residency here is unchanged.
                popHead(lr.port, 0);
                buffered += 1;
                sideQ_.push_back(h);
                retreats_ += 1;
            } else {
                // Every output mid-transfer: resolves by itself
                // within one packet length; hold the latch.
                latchStalls_ += 1;
            }
            continue;
        }
        if (deflected) {
            deflections_ += 1;
            pkt.deflections += 1;
        }
        if (lr.side) {
            sideQ_[lr.sideIdx] = invalidHandle;
            sideSent = true;
            buffered -= 1;
        } else {
            popHead(lr.port, 0);
        }
        sendBufferless(h, out, now);
    }
    if (sideSent)
        sideQ_.erase(std::remove(sideQ_.begin(), sideQ_.end(),
                                 invalidHandle),
                     sideQ_.end());

    // Injection joins last and never deflects: a new packet enters
    // the mesh only through a productive port, which bounds the work
    // in flight and keeps sources from flooding a congested
    // neighbourhood with guaranteed-misrouted traffic.
    for (int k = 0; k < numClasses; ++k) {
        int cls = (injRrClass + k) % numClasses;
        auto &q = injQs[static_cast<std::size_t>(cls)];
        if (q.empty())
            continue;
        PacketHandle h = q.front();
        const Packet &pkt = pool.get(h);
        bool deflected = false;
        int out = pickBufferlessPort(pkt, /*allow_deflect=*/false, now,
                                     deflected);
        if (out < 0) {
            injStalls[static_cast<std::size_t>(cls)] += 1;
            continue;
        }
        popInjection(cls);
        sendBufferless(h, out, now);
        injRrClass = (cls + 1) % numClasses;
        break;
    }
}

void
Router::tick(Tick now)
{
    if (idle())
        return;
    ejectPass(now);
    if (buffered == 0 && injWaiting == 0)
        return;
    if (kind_ == RouterKind::Bufferless) {
        tickBufferless(now);
        return;
    }
    nominate(now);
    if (!noms.empty())
        grant(now);
}

void
Router::saveCkpt(ckpt::Serializer &s) const
{
    s.put32(static_cast<std::uint32_t>(vcQ.size()));
    for (const HandleQueue &q : vcQ)
        q.saveCkpt(s);
    for (int p = 0; p < nPorts; ++p) {
        for (int vc = 0; vc < numVcs; ++vc) {
            s.putI32(core->flitsUsed[sidx(p, vc)]);
            s.put64(core->recvFlits[sidx(p, vc)]);
            s.put64(core->creditStalls[sidx(p, vc)]);
        }
    }
    s.put32(static_cast<std::uint32_t>(nPorts));
    for (int p = 0; p < nPorts; ++p)
        s.putI32(core->rrVc[pidx(p)]);
    s.put32(static_cast<std::uint32_t>(nPorts));
    for (int p = 0; p < nPorts; ++p) {
        s.putBool(core->connected[pidx(p)] != 0);
        for (int vc = 0; vc < numVcs; ++vc)
            s.putI32(core->credits[sidx(p, vc)]);
        s.put64(core->busyUntil[pidx(p)]);
        s.putI32(core->wireCycles[pidx(p)]);
        s.putI32(core->rrSrc[pidx(p)]);
        s.put64(core->sentFlits[pidx(p)]);
        s.put64(core->sentPackets[pidx(p)]);
    }
    for (const HandleQueue &q : injQs)
        q.saveCkpt(s);
    for (std::uint64_t v : injStalls)
        s.put64(v);
    s.putI32(injRrClass);
    s.put64(statsWindowStart);
    s.putI32(buffered);
    s.putI32(injWaiting);
    s.put64(deflections_);
    s.put64(latchStalls_);
    s.put64(retreats_);
    s.put32(static_cast<std::uint32_t>(sideQ_.size()));
    for (PacketHandle h : sideQ_)
        s.put32(h);
}

void
Router::restoreCkpt(ckpt::Deserializer &d)
{
    if (d.get32() != vcQ.size() && d.ok()) {
        d.fail("router VC queue count mismatch");
        return;
    }
    for (HandleQueue &q : vcQ)
        q.restoreCkpt(d);
    for (int p = 0; p < nPorts; ++p) {
        for (int vc = 0; vc < numVcs; ++vc) {
            core->flitsUsed[sidx(p, vc)] = d.getI32();
            core->recvFlits[sidx(p, vc)] = d.get64();
            core->creditStalls[sidx(p, vc)] = d.get64();
        }
    }
    if (d.get32() != static_cast<std::uint32_t>(nPorts) && d.ok()) {
        d.fail("router port count mismatch");
        return;
    }
    for (int p = 0; p < nPorts; ++p)
        core->rrVc[pidx(p)] = d.getI32();
    if (d.get32() != static_cast<std::uint32_t>(nPorts) && d.ok()) {
        d.fail("router output count mismatch");
        return;
    }
    for (int p = 0; p < nPorts; ++p) {
        core->connected[pidx(p)] = d.getBool() ? 1 : 0;
        for (int vc = 0; vc < numVcs; ++vc)
            core->credits[sidx(p, vc)] = d.getI32();
        core->busyUntil[pidx(p)] = d.get64();
        core->wireCycles[pidx(p)] = d.getI32();
        core->rrSrc[pidx(p)] = d.getI32();
        core->sentFlits[pidx(p)] = d.get64();
        core->sentPackets[pidx(p)] = d.get64();
    }
    for (HandleQueue &q : injQs)
        q.restoreCkpt(d);
    for (std::uint64_t &v : injStalls)
        v = d.get64();
    injRrClass = d.getI32();
    statsWindowStart = d.get64();
    buffered = d.getI32();
    injWaiting = d.getI32();
    deflections_ = d.get64();
    latchStalls_ = d.get64();
    retreats_ = d.get64();
    sideQ_.clear();
    const std::uint32_t nSide = d.get32();
    for (std::uint32_t i = 0; i < nSide && d.ok(); ++i)
        sideQ_.push_back(d.get32());

    // Derived hot-path state is not in the snapshot: rebuild the
    // occupancy masks and the eject count from the restored queues
    // (the pool is restored first, so handles resolve) and forget
    // every memo the pre-restore run left behind.
    clearRouteMemos();
    std::fill(vcMask.begin(), vcMask.end(), 0);
    ejectable = 0;
    if (!d.ok())
        return;
    const PacketPool &pool = net.poolOf(id);
    for (int p = 0; p < nPorts; ++p) {
        for (int vc = 0; vc < numVcs; ++vc) {
            const HandleQueue &q = vcQ[slot(p, vc)];
            if (q.empty())
                continue;
            vcMask[static_cast<std::size_t>(p)] |=
                static_cast<std::uint16_t>(1u << vc);
            for (PacketHandle h : q) {
                if (h >= pool.capacity()) {
                    d.fail("router queue handle out of range");
                    return;
                }
                ejectable += pool.get(h).dst == id ? 1 : 0;
            }
        }
    }
}

} // namespace gs::net
