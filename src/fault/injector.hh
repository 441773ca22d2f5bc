/**
 * @file
 * Scheduled fault injection for the interconnect fabric.
 *
 * A FaultPlan is a declarative list of link/router failures (and
 * optional repairs) at absolute simulation times. A FaultInjector
 * binds one plan at a time to a (Network, DegradedTopology) pair:
 * applying an event mutates the topology mask, resyncs the routers,
 * and flushes the buffers of a dying router. Packets that lose
 * their destination — buffered toward a now-unreachable node, on
 * the wire into a dead router, or injected from/to one — are
 * dropped and accounted per reason in FaultStats.
 *
 * Packets merely *buffered along* a failed link are not lost: the
 * router re-evaluates routes every cycle, so they re-route over the
 * surviving graph automatically (minimal-adaptive where possible,
 * the up/down escape otherwise).
 */

#ifndef GS_FAULT_INJECTOR_HH
#define GS_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/degraded.hh"
#include "net/network.hh"
#include "sim/checkpoint.hh"

namespace gs::fault
{

/** What a scheduled fault event does. */
enum class FaultKind : std::uint8_t
{
    LinkDown,
    LinkUp,
    NodeDown,
    NodeUp,
};

/** One scheduled fault. */
struct FaultEvent
{
    Tick when = 0;
    FaultKind kind = FaultKind::LinkDown;
    NodeId node = invalidNode;
    int port = -1; ///< unused for node events
};

/** A declarative failure/repair schedule. */
class FaultPlan
{
  public:
    FaultPlan &linkDown(Tick when, NodeId node, int port)
    {
        ev.push_back({when, FaultKind::LinkDown, node, port});
        return *this;
    }
    FaultPlan &linkUp(Tick when, NodeId node, int port)
    {
        ev.push_back({when, FaultKind::LinkUp, node, port});
        return *this;
    }
    FaultPlan &nodeDown(Tick when, NodeId node)
    {
        ev.push_back({when, FaultKind::NodeDown, node, -1});
        return *this;
    }
    FaultPlan &nodeUp(Tick when, NodeId node)
    {
        ev.push_back({when, FaultKind::NodeUp, node, -1});
        return *this;
    }

    const std::vector<FaultEvent> &events() const { return ev; }
    bool empty() const { return ev.empty(); }

  private:
    std::vector<FaultEvent> ev;
};

/** Cumulative fault-layer statistics. */
struct FaultStats
{
    int linkFailures = 0;
    int nodeFailures = 0;
    int repairs = 0;

    std::uint64_t packetsDropped = 0;   ///< total, all causes
    std::uint64_t dropsUnroutable = 0;  ///< destination unreachable
    std::uint64_t dropsDeadNode = 0;    ///< at/from/to a dead router
};

/** Applies fault events to a fabric and accounts the fallout. */
class FaultInjector
{
  public:
    /**
     * @p topo must be the same object @p net routes over; the
     * injector registers itself as the network's drop observer.
     */
    FaultInjector(SimContext &ctx, net::Network &net,
                  DegradedTopology &topo);

    /** Schedule every event of @p plan on the simulation clock. */
    void schedule(const FaultPlan &plan);

    /** Apply one event immediately. */
    void apply(const FaultEvent &event);

    /** @name Immediate convenience mutations */
    /// @{
    void failLink(NodeId node, int port)
    {
        apply({0, FaultKind::LinkDown, node, port});
    }
    void repairLink(NodeId node, int port)
    {
        apply({0, FaultKind::LinkUp, node, port});
    }
    void failNode(NodeId node)
    {
        apply({0, FaultKind::NodeDown, node, -1});
    }
    void repairNode(NodeId node)
    {
        apply({0, FaultKind::NodeUp, node, -1});
    }
    /// @}

    const FaultStats &stats() const { return st; }
    DegradedTopology &fabric() { return topo_; }
    const DegradedTopology &fabric() const { return topo_; }

    /**
     * Register drop and failure accounting under @p prefix
     * (conventionally "fault"): `<prefix>.drops.{total, unroutable,
     * dead_node}` plus failure/repair event gauges.
     */
    void registerTelemetry(telem::Registry &reg,
                           const std::string &prefix);

    /**
     * Stop applying scheduled fault events (pending FaultApply
     * events become no-ops). The watchdog's heal-faults rollback
     * policy uses this so a restored run does not immediately
     * re-inject the fault that wedged it.
     */
    void suppressFaults() { suppress_ = true; }
    bool faultsSuppressed() const { return suppress_; }

    /** @name Events and checkpoint/restore: stats + suppression flag.
     *
     * A scheduled fault is a FaultApply EventDesc encoding the whole
     * FaultEvent; live or restored (no plan replay), its callback is
     * callback(desc), and fire(desc) applies it unless suppressed.
     */
    /// @{
    void fire(const ckpt::EventDesc &d);
    auto callback(const ckpt::EventDesc &d) { return [this, d] { fire(d); }; }

    void saveCkpt(ckpt::Serializer &s) const;
    void restoreCkpt(ckpt::Deserializer &d);
    /// @}

  private:
    SimContext &ctx;
    net::Network &net_;
    DegradedTopology &topo_;
    FaultStats st;
    bool suppress_ = false;
};

} // namespace gs::fault

#endif // GS_FAULT_INJECTOR_HH
