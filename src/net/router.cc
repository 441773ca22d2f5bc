#include "net/router.hh"

#include <algorithm>
#include <bit>

#include "net/network.hh"
#include "sim/logging.hh"

namespace gs::net
{

Router::Router(Network &network, NodeId node)
    : net(network), id(node), nPorts(network.topology().numPorts(node))
{
    const auto &topo = net.topology();
    const auto &prm = net.params();

    gs_assert(nPorts <= INT8_MAX, "route memo stores ports as int8");
    const auto nSlots = static_cast<std::size_t>(nPorts) * numVcs;
    ports.resize(static_cast<std::size_t>(nPorts));
    slots.resize(nSlots);
    portStats.resize(static_cast<std::size_t>(nPorts));
    slotStats.resize(nSlots);

    for (int p = 0; p < nPorts; ++p) {
        topo::Port link = topo.port(id, p);
        port(p).connected = link.connected();
        if (!link.connected())
            continue;
        port(p).wireCycles = prm.wireCycles(link.kind);
        for (int vc = 0; vc < numVcs; ++vc)
            slots[slot(p, vc)].credits = vcCapacity(vc);
    }

    gs_assert(prm.escapeVcFlits >= dataFlits &&
                  prm.adaptiveVcFlits >= dataFlits,
              "VC buffers must hold a whole data packet (cut-through)");
}

void
Router::receive(int in_port, int vc, PacketHandle h)
{
    PacketPool &pool = net.poolOf(id);
    Packet &pkt = pool.get(h);
    pkt.hops += 1;
    // Latency x-ray: link transit ends here; buffered time counts as
    // VC-arbitration wait. At the destination the packet keeps
    // accumulating Link until the node takes delivery (ejection and
    // the local hop fold into Link). Reply-path spans (phase 1)
    // attribute their whole return to Reply, so only phase 0 hooks.
    if (pkt.span.id != 0 && pkt.span.phase == 0 && pkt.dst != id)
        pkt.span.advance(net.ctxOf(id).now(), trace::VcWait);
    Slot &sl = slots[slot(in_port, vc)];
    sl.flitsUsed += pkt.flits;
    slotStats[slot(in_port, vc)].recvFlits +=
        static_cast<std::uint64_t>(pkt.flits);
    sl.q.push(pool, h);
    port(in_port).vcMask |= static_cast<std::uint16_t>(1u << vc);
    if (pkt.dst == id)
        ejectable += 1;
    buffered += 1;
    net.activate(id);
}

void
Router::creditReturn(int out_port, int vc, int flits)
{
    auto &credits = slots[slot(out_port, vc)].credits;
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
    const auto &prm = net.params();
    return vc % vcSubCount == vcAdaptive ? prm.adaptiveVcFlits
                                         : prm.escapeVcFlits;
}

void
Router::syncPorts()
{
    // Any link anywhere may have changed this router's routes.
    clearRouteMemos();
    const auto &topo = net.topology();
    const auto &prm = net.params();
    for (int p = 0; p < nPorts; ++p) {
        topo::Port link = topo.port(id, p);
        if (port(p).connected == link.connected())
            continue;
        port(p).connected = link.connected();
        if (!link.connected())
            continue;
        // Reconnected (repair, or the peer router came back): the
        // peer's input buffers kept their contents, so our credit
        // view restarts at capacity minus what is still buffered
        // there. busyUntil is stale by at most one transfer.
        port(p).wireCycles = prm.wireCycles(link.kind);
        port(p).busyUntil = 0;
        const Router &peer = net.router(link.peer);
        for (int vc = 0; vc < numVcs; ++vc) {
            slots[slot(p, vc)].credits =
                vcCapacity(vc) - peer.vcOccupancy(link.peerPort, vc);
        }
    }
}

void
Router::flushAll()
{
    for (int p = 0; p < nPorts; ++p) {
        for (int vc = 0; vc < numVcs; ++vc) {
            while (!slots[slot(p, vc)].q.empty()) {
                PacketHandle h = popHead(p, vc);
                net.dropPacket(id, h, "node-failure");
            }
        }
    }
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
        if (!port(p).connected)
            continue;
        const std::string pp =
            telem::path(prefix, "port", port_name(p));
        PortStats &ps = portStats[static_cast<std::size_t>(p)];
        reg.addCounter(pp + ".flits", ps.sentFlits);
        reg.addCounter(pp + ".packets", ps.sentPackets);
        reg.addGauge(pp + ".busy_frac", [this, &ps] {
            Tick now = net.ctxOf(id).now();
            if (now <= statsWindowStart)
                return 0.0;
            double f = static_cast<double>(ps.sentFlits) *
                       static_cast<double>(net.period()) /
                       static_cast<double>(now - statsWindowStart);
            return std::min(f, 1.0);
        });
        // Input-side VC stats of the same port (the buffers facing
        // the neighbour this port points at).
        for (int vc = 0; vc < numVcs; ++vc) {
            const std::string vp = telem::path(pp, "vc", vc);
            SlotStats &ss = slotStats[slot(p, vc)];
            reg.addCounter(vp + ".flits", ss.recvFlits);
            reg.addCounter(vp + ".stalls", ss.creditStalls);
        }
    }
    for (int cls = 0; cls < numClasses; ++cls) {
        const std::string cp = telem::path(
            prefix, "inj", msgClassName(static_cast<MsgClass>(cls)));
        reg.addCounter(cp + ".stalls",
                       injStalls[static_cast<std::size_t>(cls)]);
        reg.addGauge(cp + ".depth", [this, cls] {
            return static_cast<double>(
                injQueueDepth(static_cast<MsgClass>(cls)));
        });
    }
}

void
Router::clearStats(Tick now)
{
    std::fill(portStats.begin(), portStats.end(), PortStats{});
    std::fill(slotStats.begin(), slotStats.end(), SlotStats{});
    injStalls.fill(0);
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
    for (const Slot &sl : slots)
        sl.q.forEach(pool, consider);
    for (const PacketQueue &q : injQs)
        q.forEach(pool, consider);
    return found;
}

void
Router::inject(PacketHandle h)
{
    PacketPool &pool = net.poolOf(id);
    injQs[static_cast<std::size_t>(pool.get(h).cls)].push(pool, h);
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
            int credits = slots[slot(p, vc)].credits;
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
    if (slots[slot(memo.escPort, memo.escVc)].credits >= pkt.flits) {
        route = Route{memo.escPort, memo.escVc};
        return true;
    }
    return false;
}

PacketHandle
Router::popHead(int in_port, int vc)
{
    PacketPool &pool = net.poolOf(id);
    Slot &sl = slots[slot(in_port, vc)];
    gs_assert(!sl.q.empty());
    PacketHandle h = sl.q.pop(pool);
    sl.memo.head = invalidHandle;
    if (sl.q.empty())
        port(in_port).vcMask &= static_cast<std::uint16_t>(~(1u << vc));
    const Packet &pkt = pool.get(h);
    if (pkt.dst == id)
        ejectable -= 1;
    int flits = pkt.flits;
    sl.flitsUsed -= flits;
    buffered -= 1;
    // Freed buffer space becomes a credit at our upstream neighbour.
    net.scheduleCredit(id, in_port, vc, flits);
    return h;
}

PacketHandle
Router::popInjection(int cls)
{
    const auto c = static_cast<std::size_t>(cls);
    PacketHandle h = injQs[c].pop(net.poolOf(id));
    injMemo[c].head = invalidHandle;
    injWaiting -= 1;
    return h;
}

void
Router::clearRouteMemos()
{
    for (Slot &sl : slots)
        sl.memo.head = invalidHandle;
    for (RouteMemo &m : injMemo)
        m.head = invalidHandle;
}

void
Router::ejectPass(Tick now)
{
    (void)now;
    const PacketPool &pool = net.poolOf(id);
    for (int p = 0; p < nPorts && ejectable > 0; ++p) {
        for (unsigned bits = port(p).vcMask; bits != 0; bits &= bits - 1) {
            const int vc = std::countr_zero(bits);
            const PacketQueue &q = slots[slot(p, vc)].q;
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
    Slot &sl = slots[slot(in_port, vc)];
    Route route;
    bool nominated = false;
    while (!sl.q.empty()) {
        bool unroutable = false;
        if (chooseRoute(sl.q.front(), sl.memo, route, unroutable)) {
            nominated = true;
            break;
        }
        if (!unroutable) {
            slotStats[slot(in_port, vc)].creditStalls += 1;
            break;
        }
        PacketHandle h = popHead(in_port, vc);
        net.dropPacket(id, h, "unroutable");
    }
    if (!nominated || port(route.outPort).busyUntil > now)
        return false;
    noms.push_back(Nominee{in_port, vc, route});
    port(in_port).rrVc = (vc + 1) % numVcs;
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
        const unsigned mask = port(p).vcMask;
        if (mask == 0)
            continue;
        const unsigned fromRr = ~0u << port(p).rrVc;
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
        if (port(route.outPort).busyUntil > now)
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
        Port &out = port(o);
        if (!out.connected || out.busyUntil > now)
            continue;

        // Global arbiter: round-robin over nominating sources
        // (network inputs 0..P-1, injection as slot P).
        const Nominee *winner = nullptr;
        int bestRank = srcSlots;
        for (const auto &nom : noms) {
            if (nom.route.outPort != o)
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
        std::int32_t &credits = slots[slot(o, vc)].credits;
        credits -= pkt.flits;
        gs_assert(credits >= 0, "credit underflow at node ", id, " port ",
                  o);
        out.busyUntil = now + static_cast<Tick>(pkt.flits) * net.period();
        PortStats &ps = portStats[static_cast<std::size_t>(o)];
        ps.sentFlits += static_cast<std::uint64_t>(pkt.flits);
        ps.sentPackets += 1;
        out.rrSrc =
            ((winner->inPort < 0 ? srcSlots - 1 : winner->inPort) + 1) %
            srcSlots;

        topo::Port link = topo.port(id, o);
        // Cut-through: the header is routable downstream after the
        // pipeline + wire + header cycles; the body streams behind
        // it at link rate (the link stays busy for the full length,
        // and ejection waits for the tail). Store-and-forward (the
        // ablation) waits for the whole packet at every hop.
        int delay = prm.pipelineCycles + out.wireCycles +
                    (prm.cutThrough ? std::min(pkt.flits, headerFlits)
                                    : pkt.flits);
        net.scheduleArrival(id, link.peer, link.peerPort, vc, h, delay);
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
    nominate(now);
    if (!noms.empty())
        grant(now);
}

void
Router::saveCkpt(ckpt::Serializer &s) const
{
    const PacketPool &pool = net.poolOf(id);
    s.put32(static_cast<std::uint32_t>(slots.size()));
    for (const Slot &sl : slots)
        sl.q.saveCkpt(s, pool);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        s.putI32(slots[i].flitsUsed);
        s.put64(slotStats[i].recvFlits);
        s.put64(slotStats[i].creditStalls);
    }
    s.put32(static_cast<std::uint32_t>(nPorts));
    for (const Port &pt : ports)
        s.putI32(pt.rrVc);
    s.put32(static_cast<std::uint32_t>(nPorts));
    for (int p = 0; p < nPorts; ++p) {
        const Port &pt = port(p);
        s.putBool(pt.connected);
        for (int vc = 0; vc < numVcs; ++vc)
            s.putI32(slots[slot(p, vc)].credits);
        s.put64(pt.busyUntil);
        s.putI32(pt.wireCycles);
        s.putI32(pt.rrSrc);
        s.put64(portStats[static_cast<std::size_t>(p)].sentFlits);
        s.put64(portStats[static_cast<std::size_t>(p)].sentPackets);
    }
    for (const PacketQueue &q : injQs)
        q.saveCkpt(s, pool);
    for (std::uint64_t v : injStalls)
        s.put64(v);
    s.putI32(injRrClass);
    s.put64(statsWindowStart);
    s.putI32(buffered);
    s.putI32(injWaiting);
}

void
Router::restoreCkpt(ckpt::Deserializer &d)
{
    if (d.get32() != slots.size() && d.ok()) {
        d.fail("router VC queue count mismatch");
        return;
    }
    PacketPool &pool = net.poolOf(id);
    const std::string where = "snapshot router " + std::to_string(id);
    for (Slot &sl : slots)
        sl.q.restoreCkpt(d, pool, where);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        slots[i].flitsUsed = d.getI32();
        slotStats[i].recvFlits = d.get64();
        slotStats[i].creditStalls = d.get64();
    }
    if (d.get32() != static_cast<std::uint32_t>(nPorts) && d.ok()) {
        d.fail("router port count mismatch");
        return;
    }
    for (Port &pt : ports)
        pt.rrVc = d.getI32();
    if (d.get32() != static_cast<std::uint32_t>(nPorts) && d.ok()) {
        d.fail("router output count mismatch");
        return;
    }
    for (int p = 0; p < nPorts; ++p) {
        Port &pt = port(p);
        pt.connected = d.getBool();
        for (int vc = 0; vc < numVcs; ++vc)
            slots[slot(p, vc)].credits = d.getI32();
        pt.busyUntil = d.get64();
        pt.wireCycles = d.getI32();
        pt.rrSrc = d.getI32();
        portStats[static_cast<std::size_t>(p)].sentFlits = d.get64();
        portStats[static_cast<std::size_t>(p)].sentPackets = d.get64();
    }
    for (PacketQueue &q : injQs)
        q.restoreCkpt(d, pool, where);
    for (std::uint64_t &v : injStalls)
        v = d.get64();
    injRrClass = d.getI32();
    statsWindowStart = d.get64();
    buffered = d.getI32();
    injWaiting = d.getI32();

    // Derived hot-path state is not in the snapshot: rebuild the
    // occupancy masks and the eject count from the restored queues
    // and forget every memo the pre-restore run left behind. The
    // saved occupancies and packet counts must match the queues.
    clearRouteMemos();
    ejectable = 0;
    int nBuffered = 0;
    for (int p = 0; p < nPorts; ++p) {
        port(p).vcMask = 0;
        for (int vc = 0; vc < numVcs; ++vc) {
            const Slot &sl = slots[slot(p, vc)];
            int flits = 0;
            sl.q.forEach(pool, [&](PacketHandle h) {
                const Packet &pkt = pool.get(h);
                flits += pkt.flits;
                ejectable += pkt.dst == id ? 1 : 0;
                nBuffered += 1;
            });
            if (!sl.q.empty())
                port(p).vcMask |= static_cast<std::uint16_t>(1u << vc);
            if (flits != sl.flitsUsed && d.ok())
                d.fail(where + ": occupancy of port " +
                       std::to_string(p) + " VC " + std::to_string(vc) +
                       " disagrees with its queue");
        }
    }
    int nWaiting = 0;
    for (const PacketQueue &q : injQs)
        nWaiting += static_cast<int>(q.size(pool));
    if ((nBuffered != buffered || nWaiting != injWaiting) && d.ok())
        d.fail(where + ": packet counts disagree with its queues");
}

std::size_t
Router::injQueueDepth(MsgClass cls) const
{
    return injQs[static_cast<std::size_t>(cls)].size(net.poolOf(id));
}

} // namespace gs::net
