#include "fault/watchdog.hh"

#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace gs::fault
{

namespace
{

const char *
className(net::MsgClass cls)
{
    switch (cls) {
      case net::MsgClass::Request: return "Request";
      case net::MsgClass::Forward: return "Forward";
      case net::MsgClass::BlockResponse: return "BlockResponse";
      case net::MsgClass::Ack: return "Ack";
      case net::MsgClass::IO: return "IO";
      default: return "?";
    }
}

} // namespace

Watchdog::Watchdog(SimContext &context, net::Network &net,
                   WatchdogConfig config)
    : ctx(context), net_(net), cfg(config)
{
    gs_assert(cfg.checkCycles > 0 && cfg.stallCycles > 0,
              "watchdog intervals must be positive");
}

void
Watchdog::arm()
{
    if (token)
        return;
    token = std::make_shared<char>(0);
    lastProgress =
        net_.stats().deliveredPackets + net_.stats().droppedPackets;
    lastProgressTick = ctx.now();
    stalledCycles = 0;
    scheduleNext();
}

void
Watchdog::disarm()
{
    // Pending poll events hold only a weak reference; dropping the
    // token turns them into no-ops without touching the event queue.
    token.reset();
}

InlineFn
Watchdog::pollFn()
{
    return [this, alive = std::weak_ptr<char>(token)] {
        if (!alive.expired())
            poll();
    };
}

void
Watchdog::scheduleNext()
{
    Tick delay = static_cast<Tick>(cfg.checkCycles) * net_.period();
    ckpt::EventDesc desc;
    desc.kind = ckpt::WatchdogPoll;
    ctx.queue().scheduleAt(ctx.now() + delay, desc, pollFn());
}

void
Watchdog::poll()
{
    const auto &st = net_.stats();
    std::uint64_t progress = st.deliveredPackets + st.droppedPackets;

    if (net_.inFlight() > 0 && progress == lastProgress) {
        stalledCycles += cfg.checkCycles;
        if (stalledCycles >= cfg.stallCycles) {
            std::ostringstream os;
            os << "no forward progress: " << net_.inFlight()
               << " packet(s) in flight, zero deliveries for "
               << stalledCycles << " network cycles";
            trip(os.str());
            return;
        }
    } else {
        stalledCycles = 0;
        lastProgress = progress;
        lastProgressTick = ctx.now();
    }

    if (cfg.maxPacketAgeNs > 0) {
        const auto &topo = net_.topology();
        for (NodeId n = 0; n < NodeId(topo.numNodes()); ++n) {
            net::Packet pkt;
            if (!net_.router(n).oldestBuffered(pkt))
                continue;
            double age = ticksToNs(ctx.now() - pkt.injected);
            if (age > cfg.maxPacketAgeNs) {
                std::ostringstream os;
                os << "packet " << pkt.id << " ("
                   << className(pkt.cls) << " " << pkt.src << "->"
                   << pkt.dst << ") buffered at node " << n
                   << " is " << age << " ns old (limit "
                   << cfg.maxPacketAgeNs << ")";
                trip(os.str());
                return;
            }
        }
    }

    for (const auto &probe : probes) {
        std::string diag = probe();
        if (!diag.empty()) {
            trip(diag);
            return;
        }
    }

    scheduleNext();
}

void
Watchdog::registerTelemetry(telem::Registry &reg,
                            const std::string &prefix)
{
    reg.addCounter(telem::path(prefix, "trips"), trips_);
    reg.addGauge(telem::path(prefix, "armed"),
                 [this] { return armed() ? 1.0 : 0.0; });
}

NodeId
Watchdog::trippingNode() const
{
    const auto &topo = net_.topology();
    net::Packet oldest;
    NodeId at = invalidNode;
    for (NodeId n = 0; n < NodeId(topo.numNodes()); ++n) {
        net::Packet pkt;
        if (net_.router(n).oldestBuffered(pkt) &&
            (at == invalidNode || pkt.injected < oldest.injected)) {
            oldest = pkt;
            at = n;
        }
    }
    return at;
}

void
Watchdog::trip(const std::string &why)
{
    tripped_ = true;
    trips_ += 1;
    token.reset();

    // Every trip reason carries the context an operator needs to
    // correlate with traces: simulated time, the node holding the
    // oldest stuck packet, and when forward progress last advanced.
    std::ostringstream os;
    os << why << " [t=" << ticksToNs(ctx.now()) << " ns (tick "
       << ctx.now() << "), tripping node ";
    NodeId at = trippingNode();
    if (at == invalidNode)
        os << "none-buffered";
    else
        os << at;
    os << ", last progress at tick " << lastProgressTick << " ("
       << ticksToNs(lastProgressTick) << " ns)]";
    std::string full = os.str();

    if (tripFn) {
        tripFn(full);
        return;
    }
    gs_warn("watchdog tripped: ", full, "\n", diagnose());
    gs_panic("watchdog: fabric lost forward progress (", full, ")");
}

void
Watchdog::saveCkpt(ckpt::Serializer &s) const
{
    s.putBool(token != nullptr);
    s.put64(lastProgress);
    s.put64(static_cast<std::uint64_t>(lastProgressTick));
    s.put64(static_cast<std::uint64_t>(stalledCycles));
    s.putBool(tripped_);
    s.put64(trips_);
}

void
Watchdog::restoreCkpt(ckpt::Deserializer &d)
{
    bool wasArmed = d.getBool();
    lastProgress = d.get64();
    lastProgressTick = static_cast<Tick>(d.get64());
    stalledCycles = static_cast<long>(d.get64());
    tripped_ = d.getBool();
    trips_ = d.get64();
    if (!d.ok())
        return;
    token = wasArmed ? std::make_shared<char>(0) : nullptr;
}

std::string
Watchdog::diagnose() const
{
    const auto &topo = net_.topology();
    const auto &st = net_.stats();
    std::ostringstream os;

    os << "watchdog diagnostic @ " << ticksToNs(ctx.now()) << " ns\n"
       << "  in flight " << net_.inFlight() << ", injected "
       << st.injectedPackets << ", delivered " << st.deliveredPackets
       << ", dropped " << st.droppedPackets << "\n";

    net::Packet oldest;
    bool haveOldest = false;
    NodeId oldestAt = invalidNode;

    for (NodeId n = 0; n < NodeId(topo.numNodes()); ++n) {
        const auto &router = net_.router(n);
        const int ports = topo.numPorts(n);

        // Per-router VC occupancy: only non-empty buffers, to keep
        // the dump readable on big fabrics.
        std::ostringstream vcs;
        for (int p = 0; p < ports; ++p) {
            for (int vc = 0; vc < net::numVcs; ++vc) {
                int flits = router.vcOccupancy(p, vc);
                if (flits > 0)
                    vcs << " p" << p << ".vc" << vc << "=" << flits;
            }
        }
        std::ostringstream inj;
        for (int c = 0; c < net::numClasses; ++c) {
            auto depth =
                router.injQueueDepth(static_cast<net::MsgClass>(c));
            if (depth > 0) {
                inj << " " << className(static_cast<net::MsgClass>(c))
                    << "=" << depth;
            }
        }
        if (vcs.str().empty() && inj.str().empty())
            continue;

        os << "  node " << std::setw(3) << n << ": vc flits"
           << (vcs.str().empty() ? " -" : vcs.str());
        if (!inj.str().empty())
            os << " | inj" << inj.str();
        os << "\n";

        net::Packet pkt;
        if (router.oldestBuffered(pkt) &&
            (!haveOldest || pkt.injected < oldest.injected)) {
            oldest = pkt;
            haveOldest = true;
            oldestAt = n;
        }
    }

    if (haveOldest) {
        os << "  oldest in-flight: packet " << oldest.id << " "
           << className(oldest.cls) << " " << oldest.src << "->"
           << oldest.dst << ", " << oldest.flits << " flits, "
           << oldest.hops << " hops, stuck at node " << oldestAt
           << ", age " << ticksToNs(ctx.now() - oldest.injected)
           << " ns";
    } else {
        os << "  no packet buffered in any router (in-flight packets "
              "are on the wire or in scheduled events)";
    }
    return os.str();
}

} // namespace gs::fault
