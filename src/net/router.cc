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

    gs_assert(prm.escapeVcFlits >= dataFlits &&
                  prm.adaptiveVcFlits >= dataFlits,
              "VC buffers must hold a whole data packet (cut-through)");
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
    // Freed buffer space becomes a credit at our upstream neighbour.
    net.scheduleCredit(id, in_port, vc, flits);
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
