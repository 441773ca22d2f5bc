#include "coherence/node.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"

namespace gs::coher
{

const char *
msgTypeName(MsgType type)
{
    switch (type) {
      case MsgType::RdReq:
        return "RdReq";
      case MsgType::RdModReq:
        return "RdModReq";
      case MsgType::VictimWB:
        return "VictimWB";
      case MsgType::VictimClean:
        return "VictimClean";
      case MsgType::FwdRd:
        return "FwdRd";
      case MsgType::FwdRdMod:
        return "FwdRdMod";
      case MsgType::Inval:
        return "Inval";
      case MsgType::BlkShared:
        return "BlkShared";
      case MsgType::BlkExclusive:
        return "BlkExclusive";
      case MsgType::BlkDirty:
        return "BlkDirty";
      case MsgType::WBShared:
        return "WBShared";
      case MsgType::FwdAckClean:
        return "FwdAckClean";
      case MsgType::FwdAckTransfer:
        return "FwdAckTransfer";
      case MsgType::InvalAck:
        return "InvalAck";
      case MsgType::VictimAck:
        return "VictimAck";
    }
    return "?";
}

namespace
{

/** Build the checkpoint descriptor for a node-owned event. */
ckpt::EventDesc
cohDesc(ckpt::EvKind kind, NodeId owner, int a = 0, int b = 0,
        int c = 0, std::uint64_t u = 0, std::uint64_t v = 0)
{
    ckpt::EventDesc d;
    d.kind = kind;
    d.owner = static_cast<std::uint16_t>(owner);
    d.a = a;
    d.b = b;
    d.c = c;
    d.u = u;
    d.v = v;
    return d;
}

} // namespace

CoherentNode::CoherentNode(SimContext &context, net::Network &network,
                           NodeId node, const mem::AddressMap &addr_map,
                           NodeConfig config)
    : ctx(context), net_(network), self(node), map(addr_map),
      cfg(config)
{
    gs_assert(cfg.sharerGroupSize >= 1 &&
                  (net_.topology().numNodes() + cfg.sharerGroupSize -
                   1) / cfg.sharerGroupSize <=
                      64,
              "sharer groups overflow the 64-bit vector");
    // The directory's packed slot (DirEntry) keys lines below
    // lineLimit, i.e. the regions of the first 2048 nodes, and owner
    // ids up to DirEntry::maxOwner.
    const NodeId nodes = net_.topology().numNodes();
    if (mem::regionBase(nodes) > lineLimit || nodes - 1 > DirEntry::maxOwner)
        gs_fatal("a ", nodes, "-node machine exceeds the directory's ",
                 lineLimit >> mem::nodeShift, "-node address budget");
    if (cfg.hasCache)
        cache = std::make_unique<mem::Cache>(cfg.l2);
    if (cfg.hasMemory) {
        for (int i = 0; i < cfg.zboxCount; ++i)
            zboxes.push_back(std::make_unique<mem::Zbox>(ctx, cfg.zbox));
    }
    net_.setHandler(self,
                    [this](const net::Packet &pkt) { onPacket(pkt); });
}

void
CoherentNode::clearStats()
{
    st = NodeStats{};
    if (cache)
        cache->clearStats();
    for (auto &z : zboxes)
        z->clearStats();
}

void
CoherentNode::registerTelemetry(telem::Registry &reg,
                                const std::string &prefix)
{
    reg.addCounter(telem::path(prefix, "accesses"), st.accesses);
    reg.addCounter(telem::path(prefix, "l2_hits"), st.l2Hits);
    reg.addCounter(telem::path(prefix, "misses"), st.misses);
    reg.addCounter(telem::path(prefix, "maf_merges"), st.mafMerges);
    reg.addCounter(telem::path(prefix, "home_requests"),
                   st.homeRequests);
    reg.addCounter(telem::path(prefix, "forwards_served"),
                   st.forwardsServed);
    reg.addCounter(telem::path(prefix, "invals_received"),
                   st.invalsReceived);
    reg.addCounter(telem::path(prefix, "victims_sent"),
                   st.victimsSent);
    reg.addCounter(telem::path(prefix, "vb_high_water"),
                   st.vbHighWater);
    reg.addAverage(telem::path(prefix, "miss_latency_ns"),
                   st.missLatencyNs);
    reg.addGauge(telem::path(prefix, "maf_outstanding"), [this] {
        return static_cast<double>(mafCount);
    });
    reg.addGauge(telem::path(prefix, "victim_buffer_fill"), [this] {
        return static_cast<double>(vb.size());
    });
    for (int t = 0; t < numMsgTypes; ++t) {
        const char *name = msgTypeName(static_cast<MsgType>(t));
        reg.addCounter(telem::path(prefix, "proto", "sent", name),
                       st.msgSent[static_cast<std::size_t>(t)]);
        reg.addCounter(telem::path(prefix, "proto", "recv", name),
                       st.msgRecv[static_cast<std::size_t>(t)]);
    }
    for (std::size_t z = 0; z < zboxes.size(); ++z)
        zboxes[z]->registerTelemetry(reg,
                                     telem::path(prefix, "mem", z));
}

bool
CoherentNode::quiesced() const
{
    return mafCount == 0 && vb.empty() && pendingCore.empty() &&
           busyLines == 0 && queuedHome == 0;
}

bool
CoherentNode::quiescedByScan() const
{
    const auto freeSlots =
        std::count(mafLines.begin(), mafLines.end(), noLine);
    if (static_cast<std::size_t>(freeSlots) != mafLines.size() ||
        !vb.empty() || !pendingCore.empty())
        return false;
    bool busy = false;
    dir.forEach([&busy](mem::Addr, const DirEntry &e) {
        busy = busy || e.state() == DirState::Busy;
    });
    if (busy)
        return false;
    for (const auto &[line, txn] : dirTxns) {
        if (!txn.pending.empty())
            return false;
    }
    return true;
}

DirState
CoherentNode::dirState(mem::Addr line) const
{
    const DirEntry *e = dir.find(mem::lineOf(line));
    return e ? e->state() : DirState::Invalid;
}

std::uint64_t
CoherentNode::dirSharers(mem::Addr line) const
{
    return sharersOf(mem::lineOf(line));
}

NodeId
CoherentNode::dirOwner(mem::Addr line) const
{
    const DirEntry *e = dir.find(mem::lineOf(line));
    return e ? e->owner() : invalidNode;
}

std::vector<mem::Addr>
CoherentNode::dirLines() const
{
    std::vector<mem::Addr> lines;
    dir.forEach([&lines](mem::Addr line, const DirEntry &e) {
        if (e.state() != DirState::Invalid)
            lines.push_back(line);
    });
    std::sort(lines.begin(), lines.end());
    return lines;
}

namespace
{

/**
 * Heap estimate for a node-based unordered_map: one bucket pointer
 * per bucket plus, per element, the value and the node's link +
 * cached hash.
 */
template <typename M>
std::size_t
mapBytes(const M &m)
{
    return m.bucket_count() * sizeof(void *) +
           m.size() *
               (sizeof(typename M::value_type) + 2 * sizeof(void *));
}

} // namespace

std::size_t
CoherentNode::mafBytes() const
{
    return mafLines.capacity() * sizeof(mem::Addr) +
           mafSlots.capacity() * sizeof(MafEntry) +
           fillBatches.capacity() * sizeof(FillBatch);
}

std::size_t
CoherentNode::footprintBytes() const
{
    std::size_t b = sizeof(*this);
    if (cache)
        b += cache->footprintBytes();
    for (const auto &z : zboxes)
        b += z->footprintBytes();
    b += mafBytes() + vb.bytes() + dir.bytes() + sharerSets.bytes() +
         mapBytes(dirTxns);
    for (const auto &[line, txn] : dirTxns)
        b += txn.pending.size() * sizeof(Msg);
    b += pendingCore.size() *
         sizeof(std::tuple<mem::Addr, bool, ckpt::Cont>);
    return b;
}

std::size_t
CoherentNode::denseFootprintBytes() const
{
    std::size_t b = sizeof(*this);
    if (cache)
        b += cache->denseFootprintBytes();
    for (const auto &z : zboxes)
        b += z->denseFootprintBytes();
    b += mafBytes() + vb.bytes();
    // The pre-split directory was a node-based hash map (one bucket
    // pointer per entry at load factor 1, a link and a cached hash
    // per node) whose entry carried the transaction bookkeeping
    // inline: hot fields padded to 32 bytes plus a std::deque<Msg>
    // whose libstdc++ constructor eagerly allocates its pointer map
    // (64 B) and one 512 B element chunk.
    constexpr std::size_t fatDirEntryBytes =
        32 + sizeof(std::deque<Msg>) + 64 + 512;
    b += dir.size() * (sizeof(void *) + sizeof(mem::Addr) +
                       fatDirEntryBytes + 2 * sizeof(void *));
    b += pendingCore.size() *
         sizeof(std::tuple<mem::Addr, bool, ckpt::Cont>);
    return b;
}

// ---------------------------------------------------------------------
// Network plumbing
// ---------------------------------------------------------------------

void
CoherentNode::send(MsgType type, NodeId dst, mem::Addr line,
                   NodeId requester, std::uint32_t aux)
{
    Msg m;
    m.type = type;
    m.line = line;
    m.requester = requester;
    m.aux = aux;
    st.msgSent[static_cast<std::size_t>(type)] += 1;
    net::Packet pkt = encode(m, self, dst);
    if (spans_)
        spanAttach(pkt, m);
    if (observer)
        observer(pkt, /*incoming=*/false);
    net_.inject(pkt);
}

// ---------------------------------------------------------------------
// Latency x-ray hooks (docs/TRACING.md)
// ---------------------------------------------------------------------

void
CoherentNode::spanAttach(net::Packet &pkt, const Msg &m)
{
    // Carrier messages are the ones that move a transaction between
    // nodes: the request to the home, a forward to the owner, and
    // the data response back. Everything else (invalidates, acks,
    // victim traffic) belongs to other transactions or is overlap
    // the requester never waits on alone.
    bool reply = false;
    switch (m.type) {
      case MsgType::RdReq:
      case MsgType::RdModReq:
        if (m.requester != self)
            return;
        break;
      case MsgType::FwdRd:
      case MsgType::FwdRdMod:
        break;
      case MsgType::BlkShared:
      case MsgType::BlkExclusive:
      case MsgType::BlkDirty:
        reply = true;
        break;
      default:
        return;
    }
    auto it = parked_.find({m.line, m.requester});
    if (it == parked_.end())
        return;
    trace::SpanState ss = it->second;
    parked_.erase(it);
    if (reply) {
        // The whole return trip (network, ack waits, fill overhead)
        // is attributed to Reply, so the routers stop splitting.
        ss.advance(ctx.now(), trace::Reply);
        ss.phase = 1;
    }
    pkt.span = ss;
}

void
CoherentNode::spanOnRecv(const net::Packet &pkt, const Msg &m)
{
    if (pkt.span.phase == 1) {
        // Response at the requester: keep accumulating Reply until
        // the fill completes; the span waits on the MAF entry.
        if (int slot = mafSlotOf(m.line); slot >= 0)
            mafSlots[std::size_t(slot)].span = pkt.span;
        return;
    }
    // Request or forward arriving at the node that will service it:
    // close the network stage and park under directory occupancy
    // (queueing behind a busy line and owner service both count).
    trace::SpanState ss = pkt.span;
    ss.advance(ctx.now(), trace::Directory);
    parked_[{m.line, m.requester}] = ss;
}

void
CoherentNode::zboxReadSpan(mem::Addr line, NodeId req, ckpt::Cont done)
{
    if (spans_) {
        auto it = parked_.find({line, req});
        if (it != parked_.end()) {
            it->second.advance(ctx.now(), trace::Dram);
            mem::AccessBreakdown bd;
            zboxFor(line).read(line, std::move(done), bd);
            it->second.dramQueue += bd.queueWait;
            return;
        }
    }
    zboxFor(line).read(line, std::move(done));
}

void
CoherentNode::spanDramDone(mem::Addr line, NodeId req)
{
    if (!spans_)
        return;
    auto it = parked_.find({line, req});
    if (it != parked_.end() && it->second.stage == trace::Dram)
        it->second.advance(ctx.now(), trace::Directory);
}

void
CoherentNode::sendAfter(double delay_ns, MsgType type, NodeId dst,
                        mem::Addr line, NodeId requester,
                        std::uint32_t aux)
{
    const auto d = cohDesc(ckpt::CohSendMsg, self, static_cast<int>(type),
                           dst, requester, line, aux);
    ctx.queue().schedule(nsToTicks(delay_ns), d, callback(d));
}

void
CoherentNode::onPacket(const net::Packet &pkt)
{
    if (pkt.cls == net::MsgClass::IO) {
        ioReceived += 1;
        if (ioSink)
            ioSink(pkt);
        return;
    }

    if (observer)
        observer(pkt, /*incoming=*/true);

    Msg m = decode(pkt);
    st.msgRecv[static_cast<std::size_t>(m.type)] += 1;
    if (pkt.span.id != 0)
        spanOnRecv(pkt, m);
    switch (m.type) {
      case MsgType::RdReq:
      case MsgType::RdModReq:
      case MsgType::VictimWB:
      case MsgType::VictimClean:
        gs_assert(cfg.hasMemory, "home request at memory-less node ",
                  self);
        st.homeRequests += 1;
        homeDispatch(m);
        break;
      case MsgType::FwdRd:
      case MsgType::FwdRdMod:
      case MsgType::Inval:
        handleForward(pkt);
        break;
      case MsgType::BlkShared:
      case MsgType::BlkExclusive:
      case MsgType::BlkDirty:
        handleResponse(m);
        break;
      case MsgType::WBShared:
      case MsgType::FwdAckClean:
      case MsgType::FwdAckTransfer:
        homeOwnerReply(m, senderOf(pkt));
        break;
      case MsgType::InvalAck:
        handleInvalAck(m);
        break;
      case MsgType::VictimAck:
        handleVictimAck(m);
        break;
    }
}

// ---------------------------------------------------------------------
// Cache side
// ---------------------------------------------------------------------

void
CoherentNode::memAccess(mem::Addr a, bool write, ckpt::Cont done)
{
    gs_assert(cfg.hasCache, "memAccess on cache-less node ", self);
    mem::Addr line = mem::lineOf(a);
    st.accesses += 1;

    auto access = cache->lookup(line, write);
    bool upgradeNeeded =
        write && access.hit && access.state == mem::LineState::Shared;

    if (access.hit && !upgradeNeeded) {
        if (write)
            cache->setState(line, mem::LineState::Modified);
        st.l2Hits += 1;
        if (done)
            ctx.queue().schedule(nsToTicks(cfg.l2.loadToUseNs),
                                 done.desc, std::move(done.fn));
        return;
    }

    st.misses += 1;

    if (int slot = mafSlotOf(line); slot >= 0) {
        MafEntry &entry = mafSlots[std::size_t(slot)];
        if (write && !entry.write) {
            // A write cannot merge into a read miss whose request is
            // already on the wire; retry once the read fill lands.
            entry.retries.emplace_back(true, std::move(done));
        } else {
            st.mafMerges += 1;
            if (done)
                entry.waiters.push_back(std::move(done));
        }
        return;
    }

    if (mafCount >= cfg.mafEntries) {
        pendingCore.emplace_back(line, write, std::move(done));
        return;
    }
    startMiss(line, write, std::move(done));
}

CoherentNode::MafEntry &
CoherentNode::mafAlloc(mem::Addr line)
{
    std::size_t i = 0;
    while (i < mafLines.size() && mafLines[i] != noLine)
        ++i;
    if (i == mafLines.size()) {
        gs_assert(static_cast<int>(i) < cfg.mafEntries, "MAF overflow");
        mafLines.push_back(noLine);
        mafSlots.emplace_back();
    }
    mafLines[i] = line;
    mafCount += 1;
    // Reset in place: the vectors keep their capacity.
    MafEntry &e = mafSlots[i];
    e.write = false;
    e.dataArrived = false;
    e.invalWhilePending = false;
    e.fillState = mem::LineState::Shared;
    e.acksNeeded = -1;
    e.acksGot = 0;
    e.issued = 0;
    e.span = trace::SpanState{};
    e.waiters.clear();
    e.deferredFwds.clear();
    e.retries.clear();
    return e;
}

void
CoherentNode::startMiss(mem::Addr line, bool write, ckpt::Cont done)
{
    MafEntry &entry = mafAlloc(line);
    entry.write = write;
    entry.issued = ctx.now();
    if (done)
        entry.waiters.push_back(std::move(done));

    if (spans_) {
        if (std::uint64_t sid = spans_->sampleMiss(self)) {
            trace::SpanState ss;
            ss.id = sid;
            ss.begin = ctx.now();
            ss.mark = ctx.now();
            ss.stage = trace::Inject;
            parked_[{line, self}] = ss;
        }
    }

    NodeId home = map.home(line).node;
    // The miss is detected after the L2 tag lookup.
    sendAfter(cfg.l2.loadToUseNs,
              write ? MsgType::RdModReq : MsgType::RdReq, home, line,
              self);
}

void
CoherentNode::handleResponse(const Msg &m)
{
    const int slot = mafSlotOf(m.line);
    gs_assert(slot >= 0, "response without MAF entry, node ", self);
    MafEntry &entry = mafSlots[std::size_t(slot)];

    switch (m.type) {
      case MsgType::BlkShared:
        gs_assert(!entry.write, "shared fill for a write miss");
        entry.fillState = mem::LineState::Shared;
        break;
      case MsgType::BlkExclusive:
        entry.fillState = entry.write ? mem::LineState::Modified
                                      : mem::LineState::Exclusive;
        break;
      case MsgType::BlkDirty:
        entry.fillState = entry.write ? mem::LineState::Modified
                                      : mem::LineState::Shared;
        break;
      default:
        gs_panic("bad response type");
    }
    entry.acksNeeded = static_cast<int>(m.aux);
    entry.dataArrived = true;
    tryComplete(std::size_t(slot));
}

void
CoherentNode::handleInvalAck(const Msg &m)
{
    const int slot = mafSlotOf(m.line);
    gs_assert(slot >= 0, "InvalAck without MAF entry");
    mafSlots[std::size_t(slot)].acksGot += 1;
    tryComplete(std::size_t(slot));
}

void
CoherentNode::tryComplete(std::size_t slot)
{
    const MafEntry &entry = mafSlots[slot];
    if (!entry.dataArrived || entry.acksNeeded < 0 ||
        entry.acksGot < entry.acksNeeded)
        return;

    finishFill(slot);
}

void
CoherentNode::finishFill(std::size_t slot)
{
    // Retire the entry first (retries below may re-miss on the same
    // line), handing its vectors to the fill batch and the scratch
    // buffers by swap so every vector keeps its capacity.
    const mem::Addr line = mafLines[slot];
    MafEntry &entry = mafSlots[slot];
    const bool write = entry.write;
    const bool invalWhilePending = entry.invalWhilePending;
    const mem::LineState fillState = entry.fillState;
    const Tick issued = entry.issued;
    trace::SpanState span = entry.span;
    std::size_t batch = fillBatches.size();
    if (!entry.waiters.empty()) {
        batch = 0;
        while (batch < fillBatches.size() && fillBatches[batch].live)
            ++batch;
        if (batch == fillBatches.size())
            fillBatches.emplace_back();
        fillBatches[batch].live = true;
        fillBatches[batch].id = nextFillBatch++;
        // mafSlots is not resized here, so entry stays valid.
        fillBatches[batch].waiters.swap(entry.waiters);
    }
    fwdScratch.swap(entry.deferredFwds);
    retryScratch.swap(entry.retries);
    mafLines[slot] = noLine;
    mafCount -= 1;

    st.missLatencyNs.sample(ticksToNs(ctx.now() - issued));

    if (spans_ && span.id != 0) {
        // Close the Reply stage at the same instant missLatencyNs
        // samples, so a span's stage sum equals the measured
        // end-to-end miss latency exactly.
        span.advance(ctx.now(), trace::Reply);
        spans_->complete(self, span, ctx.now());
    }

    if (invalWhilePending && !write) {
        // The line was invalidated under us (response/forward class
        // reordering). Complete the waiting accesses with the data
        // but do not retain the line.
    } else if (cache->contains(line)) {
        // Write upgrade: the Shared copy is still resident.
        cache->setState(line, fillState);
    } else {
        mem::Victim victim = cache->fill(line, fillState);
        evictIfNeeded(victim);
    }

    if (batch < fillBatches.size()) {
        // Park the waiters in fillBatches rather than capturing them
        // in the event: the batch id in the event's desc is all a
        // snapshot needs to re-attach the (serializable) group.
        const auto d =
            cohDesc(ckpt::CohFillBatch, self, 0, 0, 0, fillBatches[batch].id);
        ctx.queue().schedule(nsToTicks(cfg.fillOverheadNs), d,
                             callback(d));
    }

    // Forwards that raced with the miss can be serviced now. Neither
    // loop can re-enter finishFill (both only send or schedule), so
    // the scratch buffers are not reused underneath them.
    for (const auto &pkt : fwdScratch)
        handleForward(pkt);
    fwdScratch.clear();

    for (auto &[rwrite, done] : retryScratch)
        memAccess(line, rwrite, std::move(done));
    retryScratch.clear();

    pumpPendingCore();
}

void
CoherentNode::runFillBatch(std::uint64_t id)
{
    std::size_t b = 0;
    while (b < fillBatches.size() &&
           !(fillBatches[b].live && fillBatches[b].id == id))
        ++b;
    gs_assert(b < fillBatches.size(), "fill batch ", id, " vanished");
    // Index on every call: a waiter may issue new accesses, and the
    // slot stays live (unclaimable) until its group has run.
    for (std::size_t w = 0; w < fillBatches[b].waiters.size(); ++w)
        fillBatches[b].waiters[w]();
    fillBatches[b].waiters.clear();
    fillBatches[b].live = false;
}

void
CoherentNode::evictIfNeeded(const mem::Victim &victim)
{
    if (!victim.valid())
        return;
    if (backInval)
        backInval(victim.line);
    if (victim.state == mem::LineState::Shared)
        return; // silent eviction; the directory may keep a stale bit

    st.victimsSent += 1;
    if (auto [v, inserted] = vb.insert(victim.line); inserted)
        v->dirty = victim.dirty();
    st.vbHighWater = std::max(st.vbHighWater,
                              static_cast<std::uint64_t>(vb.size()));
    NodeId home = map.home(victim.line).node;
    send(victim.dirty() ? MsgType::VictimWB : MsgType::VictimClean,
         home, victim.line, self);
}

void
CoherentNode::handleForward(const net::Packet &pkt)
{
    Msg m = decode(pkt);
    mem::Addr line = m.line;
    const VictimEntry *victim = vb.find(line);

    if (int slot = mafSlotOf(line); slot >= 0) {
        if (m.type == MsgType::Inval) {
            mafSlots[std::size_t(slot)].invalWhilePending = true;
            if (cache->state(line) == mem::LineState::Shared) {
                cache->invalidate(line);
                if (backInval)
                    backInval(line);
            }
            st.invalsReceived += 1;
            sendAfter(cfg.fwdServiceNs, MsgType::InvalAck, m.requester,
                      line, m.requester);
            return;
        }
        // A data forward with a victim buffer entry alongside the
        // MAF targets our *old* ownership (we evicted and are
        // re-acquiring; our new request is queued behind this very
        // transaction at the home). It must be served from the
        // victim buffer now — deferring it behind the MAF would
        // deadlock the home against our queued request. Without a
        // VB entry the forward targets the fill still in flight to
        // us, so it waits for that fill.
        if (!victim) {
            mafSlots[std::size_t(slot)].deferredFwds.push_back(pkt);
            return;
        }
    }

    NodeId home = map.home(line).node;
    auto cacheState =
        cache ? cache->state(line) : mem::LineState::Invalid;

    switch (m.type) {
      case MsgType::Inval:
        st.invalsReceived += 1;
        if (cacheState == mem::LineState::Shared) {
            cache->invalidate(line);
            if (backInval)
                backInval(line);
        }
        // An Inval reaching a current owner is necessarily stale
        // (our ownership was granted after it was sent): ignore it.
        sendAfter(cfg.fwdServiceNs, MsgType::InvalAck, m.requester,
                  line, m.requester);
        break;

      case MsgType::FwdRd:
        st.forwardsServed += 1;
        if (cacheState == mem::LineState::Modified) {
            cache->setState(line, mem::LineState::Shared);
            sendAfter(cfg.fwdServiceNs, MsgType::BlkDirty, m.requester,
                      line, m.requester);
            sendAfter(cfg.fwdServiceNs, MsgType::WBShared, home, line,
                      m.requester, /*retains=*/1);
        } else if (cacheState == mem::LineState::Exclusive) {
            cache->setState(line, mem::LineState::Shared);
            sendAfter(cfg.fwdServiceNs, MsgType::BlkDirty, m.requester,
                      line, m.requester);
            sendAfter(cfg.fwdServiceNs, MsgType::FwdAckClean, home,
                      line, m.requester, /*retains=*/1);
        } else if (victim) {
            // Serve from the victim buffer; the entry stays until
            // VictimAck but we no longer cache the line.
            sendAfter(cfg.fwdServiceNs, MsgType::BlkDirty, m.requester,
                      line, m.requester);
            sendAfter(cfg.fwdServiceNs,
                      victim->dirty ? MsgType::WBShared
                                    : MsgType::FwdAckClean,
                      home, line, m.requester, /*retains=*/0);
        } else {
            gs_panic("FwdRd found no data at node ", self, " line ",
                     line);
        }
        break;

      case MsgType::FwdRdMod:
        st.forwardsServed += 1;
        if (cacheState == mem::LineState::Modified ||
            cacheState == mem::LineState::Exclusive) {
            cache->invalidate(line);
            if (backInval)
                backInval(line);
            sendAfter(cfg.fwdServiceNs, MsgType::BlkDirty, m.requester,
                      line, m.requester);
            sendAfter(cfg.fwdServiceNs, MsgType::FwdAckTransfer, home,
                      line, m.requester);
        } else if (victim) {
            sendAfter(cfg.fwdServiceNs, MsgType::BlkDirty, m.requester,
                      line, m.requester);
            sendAfter(cfg.fwdServiceNs, MsgType::FwdAckTransfer, home,
                      line, m.requester);
        } else {
            gs_panic("FwdRdMod found no data at node ", self, " line ",
                     line);
        }
        break;

      default:
        gs_panic("bad forward type");
    }
}

void
CoherentNode::handleVictimAck(const Msg &m)
{
    const bool found = vb.erase(m.line);
    gs_assert(found, "VictimAck without victim buffer");
}

void
CoherentNode::pumpPendingCore()
{
    while (!pendingCore.empty() && mafCount < cfg.mafEntries) {
        auto [line, write, done] = std::move(pendingCore.front());
        pendingCore.pop_front();
        memAccess(line, write, std::move(done));
    }
}

// ---------------------------------------------------------------------
// Home side
// ---------------------------------------------------------------------

mem::Zbox &
CoherentNode::zboxFor(mem::Addr line)
{
    mem::MemTarget target = map.home(line);
    gs_assert(target.node == self, "wrong home: line ", line,
              " maps to ", target.node, ", processed at ", self);
    return *zboxes[static_cast<std::size_t>(target.mc) %
                   zboxes.size()];
}

void
CoherentNode::beginBusy(DirEntry &e)
{
    e.setState(DirState::Busy);
    busyLines += 1;
}

DirEntry &
CoherentNode::endBusy(mem::Addr line)
{
    DirEntry *e = dir.find(line);
    gs_assert(e && e->state() == DirState::Busy,
              "home transaction completed on a line that is not Busy");
    busyLines -= 1;
    return *e;
}

void
CoherentNode::setSharers(mem::Addr line, std::uint64_t mask)
{
    if (mask != 0)
        *sharerSets.insert(line).first = mask;
    else if (sharerSets.erase(line) && sharerSets.empty())
        sharerSets = LineTable<std::uint64_t>{};
}

void
CoherentNode::homeDispatch(const Msg &m)
{
    // The one directory probe of this message: a read request inserts
    // its line (an absent line becomes an Invalid entry), a victim
    // only looks its line up.
    const bool read =
        m.type == MsgType::RdReq || m.type == MsgType::RdModReq;
    DirEntry *e = read ? dir.insert(m.line).first : dir.find(m.line);

    // A Busy line queues. So does an owner re-requesting its own
    // line: its victim message is still in flight, and the request
    // must wait until the victim lands.
    if (e && (e->state() == DirState::Busy ||
              (read && e->state() == DirState::Exclusive &&
               e->owner() == m.requester))) {
        dirTxns[m.line].pending.push_back(m);
        queuedHome += 1;
        return;
    }
    homeProcess(m, e);
}

void
CoherentNode::homeProcess(const Msg &m, DirEntry *e)
{
    const mem::Addr line = m.line;
    const NodeId req = m.requester;

    switch (m.type) {
      case MsgType::RdReq:
      case MsgType::RdModReq:
        if (e->state() == DirState::Invalid) {
            beginBusy(*e);
            const auto d =
                cohDesc(ckpt::CohHomeReadExcl, self, req, 0, 0, line);
            zboxReadSpan(line, req, ckpt::Cont(d, callback(d)));
        } else if (e->state() == DirState::Shared) {
            beginBusy(*e);
            const bool mod = m.type == MsgType::RdModReq;
            const auto d = cohDesc(ckpt::CohHomeReadShared, self, req,
                                   mod ? 1 : 0, 0, line);
            zboxReadSpan(line, req, ckpt::Cont(d, callback(d)));
        } else { // Exclusive at a third party: forward.
            gs_assert(e->owner() != req, "owner re-request reached "
                                       "homeProcess");
            DirTxn &txn = dirTxns[line];
            txn.requester = req;
            txn.type = m.type;
            NodeId owner = e->owner();
            beginBusy(*e);
            sendAfter(cfg.homeOverheadNs,
                      m.type == MsgType::RdReq ? MsgType::FwdRd
                                               : MsgType::FwdRdMod,
                      owner, line, req);
        }
        break;

      case MsgType::VictimWB:
      case MsgType::VictimClean:
        if (e && e->state() == DirState::Exclusive && e->owner() == req) {
            beginBusy(*e);
            bool dirty = m.type == MsgType::VictimWB;
            if (dirty)
                zboxFor(line).write(line);
            const auto d =
                cohDesc(ckpt::CohHomeApplyVictim, self, req, 0, 0, line);
            ctx.queue().schedule(nsToTicks(cfg.homeOverheadNs), d,
                                 callback(d));
        } else {
            // Stale victim: its line was already forwarded away from
            // the sender's victim buffer. Ack and drop the data.
            sendAfter(cfg.homeOverheadNs, MsgType::VictimAck, req,
                      line, req);
        }
        break;

      default:
        gs_panic("bad home request type");
    }
}

void
CoherentNode::scheduleHomeExcl(mem::Addr line, NodeId req)
{
    spanDramDone(line, req);
    const auto d = cohDesc(ckpt::CohHomeApplyExcl, self, req, 0, 0, line);
    ctx.queue().schedule(nsToTicks(cfg.homeOverheadNs), d, callback(d));
}

void
CoherentNode::applyHomeExcl(mem::Addr line, NodeId req)
{
    DirEntry &e = endBusy(line);
    e.setState(DirState::Exclusive);
    e.setOwner(req);
    setSharers(line, 0);
    send(MsgType::BlkExclusive, req, line, req, 0);
    finishTxn(line, e);
}

void
CoherentNode::scheduleHomeShared(mem::Addr line, NodeId req, bool mod)
{
    spanDramDone(line, req);
    const auto d =
        cohDesc(ckpt::CohHomeApplyShared, self, req, mod ? 1 : 0, 0, line);
    ctx.queue().schedule(nsToTicks(cfg.homeOverheadNs), d, callback(d));
}

int
CoherentNode::sendInvals(std::uint64_t sharers, mem::Addr line,
                         NodeId req)
{
    int count = 0;
    if (cfg.sharerGroupSize == 1) {
        std::uint64_t others = sharers & ~sharerBit(req);
        for (NodeId n = 0; others; ++n, others >>= 1) {
            if (others & 1) {
                send(MsgType::Inval, n, line, req);
                count += 1;
            }
        }
        return count;
    }
    // Coarse mode: the requester's presence cannot be masked out of
    // its group bit, so it is skipped at emission instead. Spurious
    // Invals to group members that never held the line are safe —
    // every node acks an Inval — and the ack count handed to the
    // requester matches the sends exactly.
    const int group = cfg.sharerGroupSize;
    const int nodes = net_.topology().numNodes();
    for (int g = 0; sharers; ++g, sharers >>= 1) {
        if (!(sharers & 1))
            continue;
        const int hi = std::min((g + 1) * group, nodes);
        for (int n = g * group; n < hi; ++n) {
            if (n == req)
                continue;
            send(MsgType::Inval, static_cast<NodeId>(n), line, req);
            count += 1;
        }
    }
    return count;
}

void
CoherentNode::applyHomeShared(mem::Addr line, NodeId req, bool mod)
{
    DirEntry &e = endBusy(line);
    if (!mod) {
        setSharers(line, sharersOf(line) | sharerBit(req));
        e.setState(DirState::Shared);
        send(MsgType::BlkShared, req, line, req, 0);
    } else {
        int count = sendInvals(sharersOf(line), line, req);
        setSharers(line, 0);
        e.setOwner(req);
        e.setState(DirState::Exclusive);
        send(MsgType::BlkExclusive, req, line, req,
             static_cast<std::uint32_t>(count));
    }
    finishTxn(line, e);
}

void
CoherentNode::applyHomeVictim(mem::Addr line, NodeId req)
{
    DirEntry &e = endBusy(line);
    e.setState(DirState::Invalid);
    e.setOwner(invalidNode);
    setSharers(line, 0);
    send(MsgType::VictimAck, req, line, req);
    finishTxn(line, e);
}

void
CoherentNode::applyHomeDowngrade(mem::Addr line, std::uint64_t sharers)
{
    DirEntry &e = endBusy(line);
    e.setState(DirState::Shared);
    setSharers(line, sharers);
    e.setOwner(invalidNode);
    finishTxn(line, e);
}

void
CoherentNode::applyHomeTransfer(mem::Addr line, NodeId req)
{
    DirEntry &e = endBusy(line);
    e.setState(DirState::Exclusive);
    e.setOwner(req);
    setSharers(line, 0);
    finishTxn(line, e);
}

void
CoherentNode::homeOwnerReply(const Msg &m, NodeId from)
{
    const DirEntry *e = dir.find(m.line);
    gs_assert(e && e->state() == DirState::Busy,
              "owner reply without busy transaction");
    auto tit = dirTxns.find(m.line);
    gs_assert(tit != dirTxns.end(),
              "owner reply without transaction record");
    const mem::Addr line = m.line;
    const NodeId req = tit->second.requester;

    switch (m.type) {
      case MsgType::WBShared:
      case MsgType::FwdAckClean: {
        gs_assert(tit->second.type == MsgType::RdReq,
                  "downgrade reply for a non-read transaction");
        if (m.type == MsgType::WBShared)
            zboxFor(line).write(line);
        bool retains = m.aux != 0;
        std::uint64_t sharers = sharerBit(req);
        if (retains)
            sharers |= sharerBit(from);
        const auto d = cohDesc(ckpt::CohHomeApplyDowngrade, self, 0, 0, 0,
                               line, sharers);
        ctx.queue().schedule(nsToTicks(cfg.homeOverheadNs), d, callback(d));
        break;
      }
      case MsgType::FwdAckTransfer: {
        gs_assert(tit->second.type == MsgType::RdModReq,
                  "transfer reply for a non-write transaction");
        const auto d =
            cohDesc(ckpt::CohHomeApplyTransfer, self, req, 0, 0, line);
        ctx.queue().schedule(nsToTicks(cfg.homeOverheadNs), d, callback(d));
        break;
      }
      default:
        gs_panic("bad owner reply type");
    }
}

void
CoherentNode::finishTxn(mem::Addr line, DirEntry &e)
{
    // e stays valid throughout: re-dispatching this line's requests
    // finds e's line present, so it neither adds nor erases a
    // directory entry.
    gs_assert(e.state() != DirState::Busy,
              "finishTxn before the final state was applied");

    auto tit = dirTxns.empty() ? dirTxns.end() : dirTxns.find(line);
    if (tit == dirTxns.end()) {
        // Nothing queued. Drop an Invalid entry from the table — the
        // directory tracks the lines a home currently holds, not
        // every line it ever served.
        if (e.state() == DirState::Invalid)
            dir.erase(&e);
        return;
    }

    // Re-dispatch each queued message at most once: a message may
    // defer itself again (owner re-request waiting for its victim),
    // in which case it lands back in the entry's pending queue and
    // must not spin here.
    std::deque<Msg> work = std::move(tit->second.pending);
    queuedHome -= work.size();
    while (!work.empty()) {
        Msg m = work.front();
        work.pop_front();
        homeDispatch(m);
        if (e.state() == DirState::Busy)
            break;
    }
    // Anything not processed keeps its order ahead of new deferrals.
    if (!work.empty()) {
        auto &pending = dirTxns[line].pending;
        for (auto it = work.rbegin(); it != work.rend(); ++it)
            pending.push_front(*it);
        queuedHome += work.size();
    }

    // Reclaim the side-table record once the line has no in-flight
    // transaction and nothing queued, then drop an Invalid entry.
    tit = dirTxns.find(line);
    if (tit != dirTxns.end() && tit->second.pending.empty() &&
        e.state() != DirState::Busy) {
        dirTxns.erase(tit);
        tit = dirTxns.end();
    }
    if (e.state() == DirState::Invalid && tit == dirTxns.end())
        dir.erase(&e);
}

// ---------------------------------------------------------------------
// Checkpoint/restore
// ---------------------------------------------------------------------

namespace
{

/** A LineTable's lines in ascending order (deterministic saves). */
template <typename V>
std::vector<mem::Addr>
sortedLines(const LineTable<V> &t)
{
    std::vector<mem::Addr> lines;
    lines.reserve(t.size());
    t.forEach([&lines](mem::Addr line, const V &) {
        lines.push_back(line);
    });
    std::sort(lines.begin(), lines.end());
    return lines;
}

std::string
hexLine(mem::Addr line)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(line));
    return buf;
}

/** Whether @p line can key a LineTable: aligned and below lineLimit. */
bool
tableLine(mem::Addr line)
{
    return mem::lineOf(line) == line && line < lineLimit;
}

void
saveMsg(ckpt::Serializer &s, const Msg &m)
{
    s.put8(static_cast<std::uint8_t>(m.type));
    s.put64(m.line);
    s.putI32(m.requester);
    s.put32(m.aux);
}

Msg
restoreMsg(ckpt::Deserializer &d)
{
    Msg m;
    m.type = static_cast<MsgType>(d.get8());
    m.line = d.get64();
    m.requester = d.getI32();
    m.aux = d.get32();
    return m;
}

} // namespace

void
CoherentNode::saveCkpt(ckpt::Serializer &s) const
{
    s.put64(st.accesses);
    s.put64(st.l2Hits);
    s.put64(st.misses);
    s.put64(st.mafMerges);
    s.put64(st.homeRequests);
    s.put64(st.forwardsServed);
    s.put64(st.invalsReceived);
    s.put64(st.victimsSent);
    s.put64(st.vbHighWater);
    st.missLatencyNs.saveCkpt(s);
    for (std::uint64_t n : st.msgSent)
        s.put64(n);
    for (std::uint64_t n : st.msgRecv)
        s.put64(n);

    s.putBool(cache != nullptr);
    if (cache)
        cache->saveCkpt(s);
    s.put32(static_cast<std::uint32_t>(zboxes.size()));
    for (const auto &z : zboxes)
        z->saveCkpt(s);

    std::vector<std::pair<mem::Addr, std::size_t>> mafOrder;
    for (std::size_t i = 0; i < mafLines.size(); ++i)
        if (mafLines[i] != noLine)
            mafOrder.emplace_back(mafLines[i], i);
    std::sort(mafOrder.begin(), mafOrder.end());
    s.put32(static_cast<std::uint32_t>(mafOrder.size()));
    for (const auto &[line, slot] : mafOrder) {
        const MafEntry &e = mafSlots[slot];
        s.put64(line);
        s.putBool(e.write);
        s.putBool(e.dataArrived);
        s.putBool(e.invalWhilePending);
        s.put8(static_cast<std::uint8_t>(e.fillState));
        s.putI32(e.acksNeeded);
        s.putI32(e.acksGot);
        s.put64(e.issued);
        trace::saveSpan(s, e.span);
        s.put32(static_cast<std::uint32_t>(e.waiters.size()));
        for (const ckpt::Cont &w : e.waiters)
            ckpt::saveCont(s, w, "a MAF waiter");
        s.put32(static_cast<std::uint32_t>(e.deferredFwds.size()));
        for (const net::Packet &p : e.deferredFwds)
            net::savePacket(s, p);
        s.put32(static_cast<std::uint32_t>(e.retries.size()));
        for (const auto &[write, done] : e.retries) {
            s.putBool(write);
            ckpt::saveCont(s, done, "a MAF retry");
        }
    }

    s.put32(static_cast<std::uint32_t>(vb.size()));
    for (mem::Addr line : sortedLines(vb)) {
        s.put64(line);
        s.putBool(vb.find(line)->dirty);
    }

    s.put32(static_cast<std::uint32_t>(dir.size()));
    for (mem::Addr line : sortedLines(dir)) {
        const DirEntry &e = *dir.find(line);
        s.put64(line);
        s.put8(static_cast<std::uint8_t>(e.state()));
        s.put64(sharersOf(line));
        s.putI32(e.owner());
        // Transaction bookkeeping lives in the side table; entries
        // without a record serialise the idle placeholder values.
        auto tit = dirTxns.find(line);
        const NodeId txnReq =
            tit == dirTxns.end() ? invalidNode : tit->second.requester;
        const MsgType txnType =
            tit == dirTxns.end() ? MsgType::RdReq : tit->second.type;
        s.putI32(txnReq);
        s.put8(static_cast<std::uint8_t>(txnType));
        if (tit == dirTxns.end()) {
            s.put32(0);
        } else {
            s.put32(static_cast<std::uint32_t>(
                tit->second.pending.size()));
            for (const Msg &m : tit->second.pending)
                saveMsg(s, m);
        }
    }

    s.put32(static_cast<std::uint32_t>(pendingCore.size()));
    for (const auto &[line, write, done] : pendingCore) {
        s.put64(line);
        s.putBool(write);
        ckpt::saveCont(s, done, "a throttled core access");
    }

    std::vector<std::pair<std::uint64_t, std::size_t>> batchOrder;
    for (std::size_t b = 0; b < fillBatches.size(); ++b)
        if (fillBatches[b].live)
            batchOrder.emplace_back(fillBatches[b].id, b);
    std::sort(batchOrder.begin(), batchOrder.end());
    s.put32(static_cast<std::uint32_t>(batchOrder.size()));
    for (const auto &[id, b] : batchOrder) {
        s.put64(id);
        s.put32(static_cast<std::uint32_t>(fillBatches[b].waiters.size()));
        for (const ckpt::Cont &w : fillBatches[b].waiters)
            ckpt::saveCont(s, w, "a fill-batch waiter");
    }
    s.put64(nextFillBatch);
    s.put64(ioReceived);

    s.put32(static_cast<std::uint32_t>(parked_.size()));
    for (const auto &[key, ss] : parked_) {
        s.put64(key.first);
        s.putI32(key.second);
        trace::saveSpan(s, ss);
    }
}

void
CoherentNode::restoreCkpt(ckpt::Deserializer &d,
                          const ckpt::RehydrateFn &rehydrate)
{
    st.accesses = d.get64();
    st.l2Hits = d.get64();
    st.misses = d.get64();
    st.mafMerges = d.get64();
    st.homeRequests = d.get64();
    st.forwardsServed = d.get64();
    st.invalsReceived = d.get64();
    st.victimsSent = d.get64();
    st.vbHighWater = d.get64();
    st.missLatencyNs.restoreCkpt(d);
    for (std::uint64_t &n : st.msgSent)
        n = d.get64();
    for (std::uint64_t &n : st.msgRecv)
        n = d.get64();

    if (d.getBool() != (cache != nullptr) && d.ok()) {
        d.fail("snapshot node " + std::to_string(self) +
               " cache presence differs from this machine");
        return;
    }
    if (cache)
        cache->restoreCkpt(d);
    if (d.get32() != zboxes.size() && d.ok()) {
        d.fail("snapshot node " + std::to_string(self) +
               " Zbox count differs from this machine");
        return;
    }
    for (auto &z : zboxes)
        z->restoreCkpt(d);

    const std::string where = "snapshot node " + std::to_string(self);
    std::fill(mafLines.begin(), mafLines.end(), noLine);
    mafCount = 0;
    std::uint32_t nMaf = d.get32();
    if (nMaf > static_cast<std::uint32_t>(cfg.mafEntries) && d.ok()) {
        d.fail(where + " MAF section holds " + std::to_string(nMaf) +
               " entries, more than the " +
               std::to_string(cfg.mafEntries) + " MAF slots");
        return;
    }
    for (std::uint32_t i = 0; i < nMaf && d.ok(); ++i) {
        mem::Addr line = d.get64();
        if (mafSlotOf(line) >= 0) {
            d.fail(where + " MAF section repeats line " + hexLine(line));
            return;
        }
        MafEntry &e = mafAlloc(line);
        e.write = d.getBool();
        e.dataArrived = d.getBool();
        e.invalWhilePending = d.getBool();
        e.fillState = static_cast<mem::LineState>(d.get8());
        e.acksNeeded = d.getI32();
        e.acksGot = d.getI32();
        e.issued = d.get64();
        trace::restoreSpan(d, e.span);
        std::uint32_t nw = d.get32();
        for (std::uint32_t w = 0; w < nw && d.ok(); ++w)
            e.waiters.push_back(
                ckpt::restoreCont(d, rehydrate, "a MAF waiter"));
        std::uint32_t nf = d.get32();
        for (std::uint32_t f = 0; f < nf && d.ok(); ++f) {
            net::Packet p;
            net::restorePacket(d, p);
            e.deferredFwds.push_back(p);
        }
        std::uint32_t nr = d.get32();
        for (std::uint32_t r = 0; r < nr && d.ok(); ++r) {
            bool write = d.getBool();
            e.retries.emplace_back(
                write, ckpt::restoreCont(d, rehydrate, "a MAF retry"));
        }
    }

    vb.clear();
    std::uint32_t nVb = d.get32();
    for (std::uint32_t i = 0; i < nVb && d.ok(); ++i) {
        mem::Addr line = d.get64();
        const bool dirty = d.getBool();
        if (d.ok() && !tableLine(line)) {
            d.fail(where + " victim-buffer line " + hexLine(line) +
                   " is not a line below 2^47");
            return;
        }
        auto [v, inserted] = vb.insert(line);
        if (!inserted) {
            d.fail(where + " victim-buffer section repeats line " +
                   hexLine(line));
            return;
        }
        v->dirty = dirty;
    }

    dir.clear();
    sharerSets = LineTable<std::uint64_t>{};
    dirTxns.clear();
    busyLines = 0;
    queuedHome = 0;
    std::uint32_t nDir = d.get32();
    for (std::uint32_t i = 0; i < nDir && d.ok(); ++i) {
        mem::Addr line = d.get64();
        const std::uint8_t state = d.get8();
        const std::uint64_t sharers = d.get64();
        const NodeId owner = d.getI32();
        const NodeId txnReq = d.getI32();
        const auto txnType = static_cast<MsgType>(d.get8());
        std::uint32_t np = d.get32();
        if (!d.ok())
            return;
        // The packed slot holds four states and owners up to
        // DirEntry::maxOwner.
        if (!tableLine(line) ||
            state > static_cast<std::uint8_t>(DirState::Busy) ||
            owner < invalidNode || owner > DirEntry::maxOwner) {
            d.fail(where + " directory entry of line " + hexLine(line) +
                   " cannot be represented");
            return;
        }
        auto [e, inserted] = dir.insert(line);
        if (!inserted) {
            d.fail(where + " directory section repeats line " +
                   hexLine(line));
            return;
        }
        e->setState(static_cast<DirState>(state));
        setSharers(line, sharers);
        e->setOwner(owner);
        busyLines += e->state() == DirState::Busy ? 1 : 0;
        if (txnReq != invalidNode || np > 0) {
            DirTxn txn;
            txn.requester = txnReq;
            txn.type = txnType;
            for (std::uint32_t p = 0; p < np && d.ok(); ++p)
                txn.pending.push_back(restoreMsg(d));
            queuedHome += txn.pending.size();
            dirTxns.emplace(line, std::move(txn));
        }
    }

    pendingCore.clear();
    std::uint32_t nPend = d.get32();
    for (std::uint32_t i = 0; i < nPend && d.ok(); ++i) {
        mem::Addr line = d.get64();
        bool write = d.getBool();
        pendingCore.emplace_back(
            line, write,
            ckpt::restoreCont(d, rehydrate, "a throttled core access"));
    }

    for (FillBatch &b : fillBatches) {
        b.live = false;
        b.waiters.clear();
    }
    std::uint32_t nBatch = d.get32();
    for (std::uint32_t i = 0; i < nBatch && d.ok(); ++i) {
        if (i == fillBatches.size())
            fillBatches.emplace_back();
        FillBatch &b = fillBatches[i];
        b.id = d.get64();
        b.live = true;
        std::uint32_t nw = d.get32();
        for (std::uint32_t w = 0; w < nw && d.ok(); ++w)
            b.waiters.push_back(
                ckpt::restoreCont(d, rehydrate, "a fill-batch waiter"));
    }
    nextFillBatch = d.get64();
    ioReceived = d.get64();

    parked_.clear();
    std::uint32_t nParked = d.get32();
    for (std::uint32_t i = 0; i < nParked && d.ok(); ++i) {
        mem::Addr line = d.get64();
        NodeId req = d.getI32();
        trace::SpanState ss;
        trace::restoreSpan(d, ss);
        parked_.emplace(std::make_pair(line, req), ss);
    }
}

void
CoherentNode::fire(const ckpt::EventDesc &d)
{
    const mem::Addr line = d.u;
    switch (d.kind) {
      case ckpt::CohSendMsg:
        send(static_cast<MsgType>(d.a), d.b, line, d.c,
             static_cast<std::uint32_t>(d.v));
        return;
      case ckpt::CohFillBatch:
        runFillBatch(d.u);
        return;
      case ckpt::CohHomeReadExcl:
        scheduleHomeExcl(line, d.a);
        return;
      case ckpt::CohHomeApplyExcl:
        applyHomeExcl(line, d.a);
        return;
      case ckpt::CohHomeReadShared:
        scheduleHomeShared(line, d.a, d.b != 0);
        return;
      case ckpt::CohHomeApplyShared:
        applyHomeShared(line, d.a, d.b != 0);
        return;
      case ckpt::CohHomeApplyVictim:
        applyHomeVictim(line, d.a);
        return;
      case ckpt::CohHomeApplyDowngrade:
        applyHomeDowngrade(line, d.v);
        return;
      case ckpt::CohHomeApplyTransfer:
        applyHomeTransfer(line, d.a);
        return;
      default:
        gs_panic("node ", self, " fired a ", ckpt::kindName(d.kind),
                 " event");
    }
}

const char *
CoherentNode::badEvent(const ckpt::EventDesc &d) const
{
    if (d.kind != ckpt::CohSendMsg)
        return nullptr;
    const int nodes = net_.topology().numNodes();
    if (d.a < 0 || d.a >= numMsgTypes)
        return "message type out of range";
    if (d.b < 0 || d.b >= nodes)
        return "destination out of range";
    if (d.c < 0 || d.c >= nodes)
        return "requester out of range";
    return nullptr;
}

} // namespace gs::coher
