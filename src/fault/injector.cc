#include "fault/injector.hh"

#include <cstring>

#include "sim/logging.hh"

namespace gs::fault
{

FaultInjector::FaultInjector(SimContext &context, net::Network &net,
                             DegradedTopology &topo)
    : ctx(context), net_(net), topo_(topo)
{
    gs_assert(&net.topology() == &topo,
              "injector's topology is not the one the network routes "
              "over");
    net_.setDropHook([this](NodeId, const net::Packet &,
                            const char *why) {
        st.packetsDropped += 1;
        if (std::strcmp(why, "unroutable") == 0)
            st.dropsUnroutable += 1;
        else
            st.dropsDeadNode += 1;
    });
    // A topology that was degraded before the network attached still
    // needs the routers' port state brought in line.
    if (topo_.degraded())
        net_.onTopologyChange();
}

namespace
{

ckpt::EventDesc
faultDesc(const FaultEvent &event)
{
    ckpt::EventDesc d;
    d.kind = ckpt::FaultApply;
    d.a = static_cast<std::int32_t>(event.kind);
    d.b = event.node;
    d.c = event.port;
    d.u = static_cast<std::uint64_t>(event.when);
    return d;
}

FaultEvent
faultOf(const ckpt::EventDesc &d)
{
    FaultEvent event;
    event.when = static_cast<Tick>(d.u);
    event.kind = static_cast<FaultKind>(d.a);
    event.node = d.b;
    event.port = d.c;
    return event;
}

} // namespace

void
FaultInjector::schedule(const FaultPlan &plan)
{
    for (const FaultEvent &event : plan.events()) {
        const auto d = faultDesc(event);
        ctx.queue().scheduleAt(event.when, d, callback(d));
    }
}

void
FaultInjector::apply(const FaultEvent &event)
{
    // A bad node/port names hardware that doesn't exist — a user
    // error in the fault plan, not a simulator bug.
    if (event.node < 0 || event.node >= topo_.numNodes())
        gs_fatal("fault event: node ", event.node, " out of range [0,",
                 topo_.numNodes(), ")");
    const bool linkEvent = event.kind == FaultKind::LinkDown ||
                           event.kind == FaultKind::LinkUp;
    if (linkEvent &&
        (event.port < 0 || event.port >= topo_.numPorts(event.node)))
        gs_fatal("fault event: node ", event.node, " port ", event.port,
                 " out of range [0,", topo_.numPorts(event.node), ")");
    switch (event.kind) {
      case FaultKind::LinkDown:
        topo_.failLink(event.node, event.port);
        st.linkFailures += 1;
        break;
      case FaultKind::LinkUp:
        topo_.repairLink(event.node, event.port);
        st.repairs += 1;
        break;
      case FaultKind::NodeDown:
        topo_.failNode(event.node);
        // Masks first, then flush: the dying router's buffered
        // packets drop without crediting across dead links.
        net_.setNodeFailed(event.node, true);
        st.nodeFailures += 1;
        break;
      case FaultKind::NodeUp:
        topo_.repairNode(event.node);
        net_.setNodeFailed(event.node, false);
        st.repairs += 1;
        break;
    }
    net_.onTopologyChange();
}

void
FaultInjector::saveCkpt(ckpt::Serializer &s) const
{
    s.putI32(st.linkFailures);
    s.putI32(st.nodeFailures);
    s.putI32(st.repairs);
    s.put64(st.packetsDropped);
    s.put64(st.dropsUnroutable);
    s.put64(st.dropsDeadNode);
    s.putBool(suppress_);
}

void
FaultInjector::restoreCkpt(ckpt::Deserializer &d)
{
    st.linkFailures = d.getI32();
    st.nodeFailures = d.getI32();
    st.repairs = d.getI32();
    st.packetsDropped = d.get64();
    st.dropsUnroutable = d.get64();
    st.dropsDeadNode = d.get64();
    // Suppression is sticky across rollback: the restored snapshot
    // predates the fault, but re-injecting it would wedge the run
    // again, so the live flag wins over the serialized one.
    bool was = d.getBool();
    suppress_ = suppress_ || was;
}

void
FaultInjector::fire(const ckpt::EventDesc &d)
{
    gs_assert(d.kind == ckpt::FaultApply, "fault injector fired a ",
              ckpt::kindName(d.kind), " event");
    if (!suppress_)
        apply(faultOf(d));
}

void
FaultInjector::registerTelemetry(telem::Registry &reg,
                                 const std::string &prefix)
{
    reg.addCounter(telem::path(prefix, "drops", "total"),
                   st.packetsDropped);
    reg.addCounter(telem::path(prefix, "drops", "unroutable"),
                   st.dropsUnroutable);
    reg.addCounter(telem::path(prefix, "drops", "dead_node"),
                   st.dropsDeadNode);
    reg.addGauge(telem::path(prefix, "link_failures"), [this] {
        return static_cast<double>(st.linkFailures);
    });
    reg.addGauge(telem::path(prefix, "node_failures"), [this] {
        return static_cast<double>(st.nodeFailures);
    });
    reg.addGauge(telem::path(prefix, "repairs"), [this] {
        return static_cast<double>(st.repairs);
    });
}

} // namespace gs::fault
