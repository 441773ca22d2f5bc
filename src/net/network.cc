#include "net/network.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace gs::net
{

namespace
{

/** Build the checkpoint descriptor for a fabric-owned event. */
ckpt::EventDesc
netDesc(ckpt::EvKind kind, int owner, int a = 0, int b = 0, int c = 0,
        std::uint64_t u = 0)
{
    ckpt::EventDesc d;
    d.kind = kind;
    d.owner = static_cast<std::uint16_t>(owner);
    d.a = a;
    d.b = b;
    d.c = c;
    d.u = u;
    return d;
}

} // namespace

Network::Network(SimContext &context, const topo::Topology &topo,
                 NetworkParams params)
    : ctx(context), topo_(topo), prm(params),
      tickPeriod(params.period())
{
    const int n = topo.numNodes();
    routers.reserve(static_cast<std::size_t>(n));
    handlers.resize(static_cast<std::size_t>(n));
    deadNode.assign(static_cast<std::size_t>(n), 0);
    for (NodeId node = 0; node < n; ++node)
        routers.push_back(std::make_unique<Router>(*this, node));

    // Default partition: one domain on the build context. A later
    // setPartition replaces this wholesale.
    domCtx.assign(1, &ctx);
    shards.push_back(std::make_unique<Shard>());
    domNodes.resize(1);
    domNodes[0].reserve(static_cast<std::size_t>(n));
    for (NodeId node = 0; node < n; ++node)
        domNodes[0].push_back(node);
}

void
Network::setPartition(std::vector<int> node_domain,
                      std::vector<SimContext *> domain_ctx)
{
    const int n = topo_.numNodes();
    const int d = static_cast<int>(domain_ctx.size());
    gs_assert(static_cast<int>(node_domain.size()) == n,
              "partition must map every node");
    gs_assert(d >= 1, "need at least one domain");
    gs_assert(shards[0]->st.injectedPackets == 0 &&
                  shards[0]->flying == 0 &&
                  shards[0]->pool.capacity() == 0,
              "setPartition must run before any traffic");
    gs_assert(!degraded_,
              "fault injection requires the serial (single-domain) "
              "engine");

    nDomains = d;
    nodeDom = std::move(node_domain);
    domCtx = std::move(domain_ctx);

    shards.clear();
    domNodes.assign(static_cast<std::size_t>(d), {});
    for (int i = 0; i < d; ++i)
        shards.push_back(std::make_unique<Shard>());
    for (NodeId node = 0; node < n; ++node) {
        int dom = nodeDom[std::size_t(node)];
        gs_assert(dom >= 0 && dom < d, "domain index out of range");
        domNodes[std::size_t(dom)].push_back(node);
    }
    mail.assign(static_cast<std::size_t>(d) * static_cast<std::size_t>(d),
                Mailbox{});

    adapt_.base = conservativeLookahead();
    adapt_.bound = idleLookahead();
    adapt_.factor = 1;
    widened_ = false;
    widenedEpochs_ = 0;
}

Tick
Network::conservativeLookahead() const
{
    // A cross-domain arrival costs at least pipeline + 1 wire cycle +
    // 1 header cycle; a credit return costs creditCycles. Both are
    // scheduled relative to the causing event's time, so the minimum
    // of the two bounds how far ahead of its neighbours a domain may
    // safely run.
    int cycles = std::min(prm.creditCycles,
                          prm.pipelineCycles + 1 + 1);
    gs_assert(cycles >= 1, "zero-latency cross-domain link");
    return static_cast<Tick>(cycles) * tickPeriod;
}

Tick
Network::idleLookahead() const
{
    // From quiescence the only way traffic can appear is inject():
    // its first router event (NetInjStart) lands injectionCycles
    // later, and from that event the conservative lookahead bounds
    // every cross-domain effect. An injection at u >= windowStart
    // therefore cannot affect a peer before
    // windowStart + idleLookahead(), so a quiet domain may drain
    // that far ahead without waiting for a barrier.
    return static_cast<Tick>(prm.injectionCycles) * tickPeriod +
           conservativeLookahead();
}

bool
Network::fabricQuiet() const
{
    if (inFlight() != 0)
        return false;
    for (const auto &shp : shards) {
        if (shp->ticking || shp->injHead < shp->injDues.size())
            return false;
    }
    // Cross entries posted late in a window sit unmerged in the
    // posting parity even after every packet has delivered; widening
    // over them would let a peer drain past their due times.
    for (int d = 0; d < nDomains; ++d) {
        if (pendingMinOf(d) != maxTick)
            return false;
    }
    return true;
}

Tick
Network::adaptiveWindow(Tick window_start, Tick base_end)
{
    const Tick len = adapt_.step(fabricQuiet());
    widened_ = adapt_.widened();
    if (!widened_)
        return base_end;
    widenedEpochs_ += 1;
    return window_start + len;
}

void
Network::postCross(int src_dom, int dst_dom, const XEntry &e)
{
    Shard &sh = *shards[std::size_t(src_dom)];
    // Posts made while sh.epoch == k+1 belong to consumer epoch k
    // (mergeFor has already run k+1 times when epoch k executes), so
    // the posting parity is (epoch + 1) & 1 == k & 1.
    const std::size_t par = (sh.epoch + 1) & 1;
    Mailbox &mb = mail[mbox(src_dom, dst_dom)];
    if (e.due < mb.minDue[par])
        mb.minDue[par] = e.due;
    mb.buf[par].push_back(e);
}

void
Network::mergeFor(int d, Tick window_start)
{
    Shard &sh = *shards[std::size_t(d)];
    // Read the half producers filled during the previous epoch; the
    // parity flip also redirects our *peers'* view of where domain
    // d's own posts go (every shard's epoch advances in lockstep, so
    // the arithmetic in postCross/pendingMinOf stays consistent).
    const std::size_t par = (sh.epoch + 1) & 1;

    // Reduce every domain's published chain state to the serial
    // question "does the one global tick chain tick at this window's
    // edge?": yes if any domain's chain survived the previous edge,
    // or any pending inject revives it at an off-edge instant before
    // this window's edge. activate() consults the answer so that a
    // wake-up in an idle domain lands on the same edge the serial
    // engine's still-alive global chain would have used.
    const std::size_t pubPar = sh.epoch & 1;
    sh.windowEdge = Clock(tickPeriod).nextEdge(window_start);
    bool alive = false;
    for (int s = 0; s < nDomains && !alive; ++s) {
        const Shard &o = *shards[std::size_t(s)];
        alive = o.tickingPub[pubPar] ||
                o.revivalPub[pubPar] <= sh.windowEdge;
    }
    sh.aliveAtEdge = alive;
    sh.epoch += 1;

    auto &scratch = sh.scratch;
    scratch.clear();
    for (int s = 0; s < nDomains; ++s) {
        if (s == d)
            continue;
        const auto &buf = mail[mbox(s, d)].buf[par];
        for (std::uint32_t i = 0; i < buf.size(); ++i)
            scratch.push_back(MergeRef{buf[i].due, s, i});
    }
    if (scratch.empty())
        return;

    // Canonical order: (due, posting domain, post order). Post order
    // within a domain is deterministic (single-threaded epoch body),
    // so the merged schedule is identical at any worker count.
    std::sort(scratch.begin(), scratch.end(),
              [](const MergeRef &a, const MergeRef &b) {
                  if (a.due != b.due)
                      return a.due < b.due;
                  if (a.src != b.src)
                      return a.src < b.src;
                  return a.idx < b.idx;
              });

    EventQueue &q = domCtx[std::size_t(d)]->queue();
    for (const MergeRef &r : scratch) {
        const XEntry &e = mail[mbox(r.src, d)].buf[par][r.idx];
        gs_assert(e.due >= window_start,
                  "mailbox entry due before the merge window");
        const ckpt::EventDesc ev =
            e.credit ? netDesc(ckpt::NetCredit, e.node, e.port, e.vc,
                               e.flits)
                     : netDesc(ckpt::NetReceive, e.node, e.port, e.vc, 0,
                               sh.pool.acquire(e.pkt));
        q.scheduleMergedAt(e.due, ev, callback(ev));
    }
    for (int s = 0; s < nDomains; ++s) {
        if (s == d)
            continue;
        Mailbox &mb = mail[mbox(s, d)];
        mb.buf[par].clear();
        mb.minDue[par] = maxTick;
    }
}

Tick
Network::pendingMinOf(int d) const
{
    const Shard &sh = *shards[std::size_t(d)];
    const std::size_t par = (sh.epoch + 1) & 1;
    Tick m = maxTick;
    // Only the current posting parity: the other half was merged by
    // its consumers this epoch (their queues' peekNext covers it),
    // and reading it here would race with that merge.
    for (int t = 0; t < nDomains; ++t) {
        if (t == d)
            continue;
        m = std::min(m, mail[mbox(d, t)].minDue[par]);
    }
    return m;
}

void
Network::publishFor(int d)
{
    Shard &sh = *shards[std::size_t(d)];
    // sh.epoch counts completed merges, so after draining window k it
    // reads k + 1; the consumer of this snapshot is window k + 1's
    // mergeFor, which indexes by its own entry epoch — the same
    // value. The other parity still holds window k's snapshot for
    // any straggler peer mid-merge.
    const std::size_t p = sh.epoch & 1;
    sh.tickingPub[p] = sh.ticking;
    sh.revivalPub[p] =
        sh.injHead < sh.injDues.size()
            ? Clock(tickPeriod).nextEdge(sh.injDues[sh.injHead] + 1)
            : maxTick;
}

std::uint64_t
Network::crossArrivalsPosted() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards)
        n += sh->xArrivals;
    return n;
}

std::uint64_t
Network::crossCreditsPosted() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards)
        n += sh->xCredits;
    return n;
}

std::uint64_t
Network::crossFlitsPosted() const
{
    std::uint64_t n = 0;
    for (const auto &sh : shards)
        n += sh->xFlits;
    return n;
}

void
Network::refreshMergedStats() const
{
    if (nDomains == 1)
        return;
    agg = MergedStats{};
    for (const auto &sh : shards) {
        agg.net.injectedPackets += sh->st.injectedPackets;
        agg.net.deliveredPackets += sh->st.deliveredPackets;
        agg.net.deliveredFlits += sh->st.deliveredFlits;
        agg.net.droppedPackets += sh->st.droppedPackets;
        agg.net.latencyNs.merge(sh->st.latencyNs);
        agg.net.hopsPerPacket.merge(sh->st.hopsPerPacket);
        agg.pool.allocated += sh->pool.stats().allocated;
        agg.pool.reused += sh->pool.stats().reused;
        agg.pool.peakInUse += sh->pool.stats().peakInUse;
    }
}

const NetworkStats &
Network::stats() const
{
    if (nDomains == 1)
        return shards[0]->st;
    refreshMergedStats();
    return agg.net;
}

int
Network::inFlight() const
{
    int n = 0;
    for (const auto &sh : shards)
        n += sh->flying;
    return n;
}

void
Network::setHandler(NodeId node, Handler handler)
{
    handlers[static_cast<std::size_t>(node)] = std::move(handler);
}

void
Network::inject(Packet pkt)
{
    // Malformed packets are a user error (bad agent/bench wiring),
    // not a simulator bug: refuse them loudly instead of indexing
    // out of range. Destinations may be switch nodes (GS320 memory
    // homes live at the QBB switches), so the bound is numNodes().
    if (pkt.src < 0 || pkt.src >= topo_.numNodes() || pkt.dst < 0 ||
        pkt.dst >= topo_.numNodes()) {
        gs_fatal("inject: endpoint out of range: src=", pkt.src,
                 " dst=", pkt.dst, " valid=[0,", topo_.numNodes(), ")");
    }
    if (pkt.flits <= 0)
        gs_fatal("inject: non-positive packet length ", pkt.flits,
                 " flits");

    // Injection is always a source-domain affair: the caller runs on
    // pkt.src's context (agents live with their node).
    SimContext &c = ctxOf(pkt.src);
    Shard &sh = shard(pkt.src);

    // Inject is the only quiescence-breaking entry point, so inside
    // a widened (adaptive-lookahead) window it must not let this
    // domain run ahead into router activity the barrier has not
    // cleared: cut the drain at now()+1 — same-tick events still
    // fire, NetInjStart (and anything after it) waits for the next
    // epoch's conservative window. Peers that drain to the widened
    // end stay safe because the window is capped at idleLookahead().
    if (nDomains > 1 && widened_)
        c.queue().truncateDrain(c.now() + 1);

    pkt.injected = c.now();
    sh.st.injectedPackets += 1;
    sh.flying += 1;

    // The packet lives in the pool for its whole flight; the fabric
    // (buffers, lambdas, wire events) moves 4-byte handles.
    PacketHandle h = sh.pool.acquire(pkt);

    if (degraded_ && (deadNode[std::size_t(pkt.src)] ||
                      deadNode[std::size_t(pkt.dst)])) {
        dropPacket(pkt.src, h,
                   deadNode[std::size_t(pkt.src)] ? "dead-src"
                                                  : "dead-dst");
        return;
    }

    if (pkt.src == pkt.dst) {
        // Local traffic does not enter the fabric; it still pays the
        // agent-to-router-to-agent handoff.
        Tick delay = static_cast<Tick>(prm.injectionCycles +
                                       prm.ejectionCycles) * tickPeriod;
        const auto d = netDesc(ckpt::NetDeliverLocal, pkt.dst, 0, 0, 0, h);
        c.queue().schedule(delay, d, callback(d));
        return;
    }

    Tick delay = static_cast<Tick>(prm.injectionCycles) * tickPeriod;
    if (nDomains > 1) {
        // Record the pending router-inject due for publishFor's
        // revival-edge view (injects are the only activation source
        // not aligned to the router clock).
        sh.injDues.push_back(c.now() + delay);
    }
    const auto d = netDesc(ckpt::NetInjStart, pkt.src, 0, 0, 0, h);
    c.queue().schedule(delay, d, callback(d));
}

void
Network::consumeInj(NodeId node)
{
    if (nDomains == 1)
        return;
    Shard &sh = shard(node);
    sh.injHead += 1;
    if (sh.injHead == sh.injDues.size()) {
        sh.injDues.clear();
        sh.injHead = 0;
    }
}

void
Network::scheduleArrival(NodeId from, NodeId to, int in_port, int vc,
                         PacketHandle h, int delay_cycles)
{
    const int sd = domainOf(from);
    const int dd = domainOf(to);
    SimContext &c = *domCtx[std::size_t(sd)];
    const Tick delay = static_cast<Tick>(delay_cycles) * tickPeriod;

    if (sd == dd) {
        const auto d = netDesc(ckpt::NetReceive, to, in_port, vc, 0, h);
        c.queue().schedule(delay, d, callback(d));
        return;
    }

    // Crossing a domain boundary: copy the packet out of the source
    // pool into the mailbox and free the slot. The destination pool
    // re-homes it at the barrier merge. `flying` is untouched: each
    // shard's counter is a signed partial sum written only by its own
    // worker (+1 at inject, -1 at delivery/drop, wherever those run),
    // so the total — the only meaningful value, read at barriers —
    // keeps counting mailbox-resident packets as in flight.
    Shard &src = *shards[std::size_t(sd)];
    XEntry e;
    e.due = c.now() + delay;
    e.node = to;
    e.port = in_port;
    e.vc = vc;
    e.credit = 0;
    e.pkt = src.pool.get(h);
    src.pool.release(h);
    src.xArrivals += 1;
    src.xFlits += static_cast<std::uint64_t>(e.pkt.flits);
    postCross(sd, dd, e);
}

void
Network::scheduleCredit(NodeId at_node, int in_port, int vc, int flits)
{
    topo::Port link = topo_.port(at_node, in_port);
    if (!link.connected()) {
        // Credits die with their link; Router::syncPorts rebuilds
        // the upstream credit count from buffer occupancy on repair.
        gs_assert(degraded_, "credit for unconnected port");
        return;
    }
    NodeId peer = link.peer;
    int peerPort = link.peerPort;
    const int sd = domainOf(at_node);
    const int dd = domainOf(peer);
    SimContext &c = *domCtx[std::size_t(sd)];
    const Tick delay =
        static_cast<Tick>(prm.creditCycles) * tickPeriod;

    if (sd == dd) {
        const auto d = netDesc(ckpt::NetCredit, peer, peerPort, vc, flits);
        c.queue().schedule(delay, d, callback(d));
        return;
    }

    XEntry e;
    e.due = c.now() + delay;
    e.node = peer;
    e.port = peerPort;
    e.vc = vc;
    e.flits = flits;
    e.credit = 1;
    shards[std::size_t(sd)]->xCredits += 1;
    postCross(sd, dd, e);
}

void
Network::deliverLocal(NodeId node, PacketHandle h)
{
    // Ejection waits for the packet tail (cut-through streamed the
    // header ahead; the body pays its serialization exactly once,
    // here at the sink). Store-and-forward packets arrive whole.
    int flits = poolOf(node).get(h).flits;
    int tail = prm.cutThrough && flits > headerFlits
                   ? flits - headerFlits
                   : 0;
    Tick delay =
        static_cast<Tick>(prm.ejectionCycles + tail) * tickPeriod;
    const auto d = netDesc(ckpt::NetDeliverLocal, node, 0, 0, 0, h);
    ctxOf(node).queue().schedule(delay, d, callback(d));
}

void
Network::deliverNow(NodeId node, PacketHandle h)
{
    if (degraded_ && deadNode[std::size_t(node)]) {
        dropPacket(node, h, "dead-receiver");
        return;
    }
    Shard &sh = shard(node);
    const Packet &pkt = sh.pool.get(h);
    sh.st.deliveredPackets += 1;
    sh.st.deliveredFlits += static_cast<std::uint64_t>(pkt.flits);
    sh.st.latencyNs.sample(
        ticksToNs(ctxOf(node).now() - pkt.injected));
    sh.st.hopsPerPacket.sample(static_cast<double>(pkt.hops));
    sh.flying -= 1;
    auto &handler = handlers[static_cast<std::size_t>(node)];
    if (handler)
        handler(pkt);
    // The handler may have injected follow-on packets (growing the
    // pool); the deque keeps `pkt` valid until this release.
    sh.pool.release(h);
}

void
Network::dropPacket(NodeId at, PacketHandle h, const char *why)
{
    Shard &sh = shard(at);
    sh.st.droppedPackets += 1;
    sh.flying -= 1;
    if (dropHook)
        dropHook(at, sh.pool.get(h), why);
    sh.pool.release(h);
}

void
Network::onTopologyChange()
{
    gs_assert(nDomains == 1,
              "fault injection requires the serial engine");
    degraded_ = true;
    for (auto &router : routers)
        router->syncPorts();
    activate(0);
}

void
Network::setNodeFailed(NodeId node, bool failed)
{
    gs_assert(nDomains == 1,
              "fault injection requires the serial engine");
    degraded_ = true;
    auto &flag = deadNode[std::size_t(node)];
    if (failed && !flag)
        routers[std::size_t(node)]->flushAll();
    flag = failed ? 1 : 0;
}

void
Network::clearStats()
{
    for (auto &sh : shards)
        sh->st = NetworkStats{};
    for (auto &router : routers)
        router->clearStats(ctxOf(router->node()).now());
}

void
Network::registerTelemetry(telem::Registry &reg,
                           const std::string &prefix)
{
    // Single domain: register the live counters directly (the
    // historical behaviour, byte-identical exports). Partitioned:
    // register the merged view, refreshed by the Machine at the end
    // of each parallel run — same paths, same order.
    const bool merged = nDomains > 1;
    if (merged)
        refreshMergedStats();
    NetworkStats &nst = merged ? agg.net : shards[0]->st;
    reg.addCounter(telem::path(prefix, "injected_packets"),
                   nst.injectedPackets);
    reg.addCounter(telem::path(prefix, "delivered_packets"),
                   nst.deliveredPackets);
    reg.addCounter(telem::path(prefix, "delivered_flits"),
                   nst.deliveredFlits);
    reg.addCounter(telem::path(prefix, "dropped_packets"),
                   nst.droppedPackets);
    reg.addAverage(telem::path(prefix, "latency_ns"), nst.latencyNs);
    reg.addAverage(telem::path(prefix, "hops_per_packet"),
                   nst.hopsPerPacket);
    reg.addGauge(telem::path(prefix, "in_flight"),
                 [this] { return static_cast<double>(inFlight()); });

    // Packet-pool health: reuse should dwarf allocated once warm.
    const std::string pp = telem::path(prefix, "packet_pool");
    if (merged) {
        reg.addCounter(telem::path(pp, "allocated"), agg.pool.allocated);
        reg.addCounter(telem::path(pp, "reuse"), agg.pool.reused);
        reg.addCounter(telem::path(pp, "peak_in_use"),
                       agg.pool.peakInUse);
    } else {
        reg.addCounter(telem::path(pp, "allocated"),
                       shards[0]->pool.stats().allocated);
        reg.addCounter(telem::path(pp, "reuse"),
                       shards[0]->pool.stats().reused);
        reg.addCounter(telem::path(pp, "peak_in_use"),
                       shards[0]->pool.stats().peakInUse);
    }
    reg.addGauge(telem::path(pp, "in_use"), [this] {
        std::uint64_t n = 0;
        for (const auto &sh : shards)
            n += sh->pool.inUse();
        return static_cast<double>(n);
    });
}

void
Network::activate(NodeId at)
{
    const int d = domainOf(at);
    Shard &sh = *shards[std::size_t(d)];
    if (sh.ticking)
        return;
    sh.ticking = true;
    SimContext &c = *domCtx[std::size_t(d)];
    const Clock clk(tickPeriod);
    Tick edge = clk.nextEdge(c.now() + 1);
    if (nDomains > 1 && sh.aliveAtEdge &&
        clk.nextEdge(c.now()) == sh.windowEdge) {
        // The serial engine's global chain is still ticking at this
        // window's edge (some other domain is busy, or an in-window
        // inject revives it), so a wake-up exactly on the edge is
        // processed at that edge — not one period later, the way a
        // truly dead fabric restarts.
        edge = sh.windowEdge;
    }
    const auto ev = netDesc(ckpt::NetTick, d);
    c.queue().scheduleAt(edge, ev, callback(ev));
}

void
Network::tickDomain(int d)
{
    SimContext &c = *domCtx[std::size_t(d)];
    const Tick now = c.now();
    bool any = false;
    for (NodeId node : domNodes[std::size_t(d)]) {
        Router &router = *routers[std::size_t(node)];
        router.tick(now);
        any = any || !router.idle();
    }
    if (any) {
        const auto ev = netDesc(ckpt::NetTick, d);
        c.queue().schedule(tickPeriod, ev, callback(ev));
    } else {
        shards[std::size_t(d)]->ticking = false;
    }
}

void
Network::saveCkpt(ckpt::Serializer &s) const
{
    s.putI32(nDomains);
    s.put32(static_cast<std::uint32_t>(routers.size()));
    for (const auto &shp : shards) {
        const Shard &sh = *shp;
        sh.pool.saveCkpt(s);
        s.put64(sh.st.injectedPackets);
        s.put64(sh.st.deliveredPackets);
        s.put64(sh.st.deliveredFlits);
        s.put64(sh.st.droppedPackets);
        sh.st.latencyNs.saveCkpt(s);
        sh.st.hopsPerPacket.saveCkpt(s);
        s.putI32(sh.flying);
        s.putBool(sh.ticking);
        s.put64(sh.epoch);
        for (bool t : sh.tickingPub)
            s.putBool(t);
        for (Tick t : sh.revivalPub)
            s.put64(t);
        s.put64(sh.windowEdge);
        s.putBool(sh.aliveAtEdge);
        // Only the unconsumed inject dues matter after restore.
        s.put32(static_cast<std::uint32_t>(sh.injDues.size() -
                                           sh.injHead));
        for (std::size_t i = sh.injHead; i < sh.injDues.size(); ++i)
            s.put64(sh.injDues[i]);
        s.put64(sh.xArrivals);
        s.put64(sh.xCredits);
        s.put64(sh.xFlits);
    }
    for (const Mailbox &mb : mail) {
        for (int par = 0; par < 2; ++par) {
            s.put32(static_cast<std::uint32_t>(mb.buf[par].size()));
            for (const XEntry &e : mb.buf[par]) {
                s.put64(e.due);
                s.putI32(e.node);
                s.putI32(e.port);
                s.putI32(e.vc);
                s.putI32(e.flits);
                s.putI32(e.credit);
                savePacket(s, e.pkt);
            }
            s.put64(mb.minDue[par]);
        }
    }
    s.putBool(degraded_);
    for (char dead : deadNode)
        s.put8(static_cast<std::uint8_t>(dead));
    for (const auto &router : routers)
        router->saveCkpt(s);
    // Adaptive-lookahead state: the widening factor is part of the
    // deterministic window sequence, so a restored run replays the
    // saved run's epochs exactly.
    s.putI32(adapt_.factor);
    s.put64(widenedEpochs_);
}

void
Network::restoreCkpt(ckpt::Deserializer &d)
{
    if (d.getI32() != nDomains && d.ok()) {
        d.fail("snapshot domain count differs from this machine's "
               "partition (restore with the same engine layout)");
        return;
    }
    if (d.get32() != routers.size() && d.ok()) {
        d.fail("snapshot node count differs from this machine");
        return;
    }
    for (auto &shp : shards) {
        Shard &sh = *shp;
        sh.pool.restoreCkpt(d);
        sh.st.injectedPackets = d.get64();
        sh.st.deliveredPackets = d.get64();
        sh.st.deliveredFlits = d.get64();
        sh.st.droppedPackets = d.get64();
        sh.st.latencyNs.restoreCkpt(d);
        sh.st.hopsPerPacket.restoreCkpt(d);
        sh.flying = d.getI32();
        sh.ticking = d.getBool();
        sh.epoch = d.get64();
        for (bool &t : sh.tickingPub)
            t = d.getBool();
        for (Tick &t : sh.revivalPub)
            t = d.get64();
        sh.windowEdge = d.get64();
        sh.aliveAtEdge = d.getBool();
        std::uint32_t nInj = d.get32();
        sh.injDues.clear();
        sh.injHead = 0;
        for (std::uint32_t i = 0; i < nInj && d.ok(); ++i)
            sh.injDues.push_back(d.get64());
        sh.xArrivals = d.get64();
        sh.xCredits = d.get64();
        sh.xFlits = d.get64();
    }
    for (Mailbox &mb : mail) {
        for (int par = 0; par < 2; ++par) {
            std::uint32_t n = d.get32();
            mb.buf[par].clear();
            for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
                XEntry e;
                e.due = d.get64();
                e.node = d.getI32();
                e.port = d.getI32();
                e.vc = d.getI32();
                e.flits = d.getI32();
                e.credit = d.getI32();
                restorePacket(d, e.pkt);
                mb.buf[par].push_back(e);
            }
            mb.minDue[par] = d.get64();
        }
    }
    degraded_ = d.getBool();
    for (char &dead : deadNode)
        dead = static_cast<char>(d.get8());
    for (auto &router : routers)
        router->restoreCkpt(d);
    adapt_.factor = d.getI32();
    widenedEpochs_ = d.get64();
    if (d.ok() &&
        (adapt_.factor < 1 || adapt_.factor > adapt_.maxFactor))
        d.fail("snapshot adaptive-lookahead factor out of range");
    widened_ = false; // recomputed by the next window's hook
}

void
Network::fire(const ckpt::EventDesc &d)
{
    const NodeId node = d.owner;
    const auto h = static_cast<PacketHandle>(d.u);
    switch (d.kind) {
      case ckpt::NetInjStart:
        consumeInj(node);
        routers[std::size_t(node)]->inject(h);
        return;
      case ckpt::NetDeliverLocal:
        deliverNow(node, h);
        return;
      case ckpt::NetReceive:
        // The packet was on the wire when the downstream router
        // died: its flits arrive at a dead receiver and are lost.
        if (degraded_ && deadNode[std::size_t(node)]) {
            dropPacket(node, h, "dead-receiver");
            return;
        }
        routers[std::size_t(node)]->receive(d.a, d.b, h);
        return;
      case ckpt::NetCredit:
        routers[std::size_t(node)]->creditReturn(d.a, d.b, d.c);
        return;
      case ckpt::NetTick:
        tickDomain(d.owner);
        return;
      default:
        gs_panic("network fired a ", ckpt::kindName(d.kind), " event");
    }
}

const char *
Network::badEvent(const ckpt::EventDesc &d) const
{
    if (d.kind == ckpt::NetTick)
        return d.owner < nDomains ? nullptr : "domain out of range";
    if (d.owner >= routers.size())
        return "node out of range";
    if (d.kind == ckpt::NetReceive || d.kind == ckpt::NetCredit) {
        if (d.a < 0 || d.a >= topo_.numPorts(d.owner))
            return "port out of range";
        if (d.b < 0 || d.b >= numVcs)
            return "vc out of range";
    }
    if (d.kind != ckpt::NetCredit &&
        (d.u > ~PacketHandle(0) ||
         !poolOf(d.owner).isLive(static_cast<PacketHandle>(d.u))))
        return "packet handle not live";
    return nullptr;
}

} // namespace gs::net
