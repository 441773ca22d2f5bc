/**
 * @file
 * Simulation health monitor: detects loss of forward progress in
 * the fabric (deadlock/livelock) and stuck transactions, then dumps
 * a structured diagnostic through sim/logging before aborting.
 *
 * The watchdog polls the network every checkCycles network cycles.
 * It trips when packets are in flight but neither deliveries nor
 * drops have advanced for stallCycles, when the oldest buffered
 * packet exceeds maxPacketAgeNs, or when any registered liveness
 * probe reports a problem (Machine wires a coherence-transaction
 * probe through here). A healthy fabric — even a saturated one —
 * keeps delivering, so the watchdog stays silent.
 *
 * The default trip action dumps the diagnostic (per-router VC
 * occupancy, injection-queue depths, oldest in-flight packet
 * provenance) via gs_warn and then gs_panic's; tests replace it
 * with onTrip() to observe detection without dying.
 */

#ifndef GS_FAULT_WATCHDOG_HH
#define GS_FAULT_WATCHDOG_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hh"
#include "sim/checkpoint.hh"

namespace gs::fault
{

/** Watchdog thresholds, in network cycles / nanoseconds. */
struct WatchdogConfig
{
    /** Poll interval. */
    int checkCycles = 2000;

    /**
     * Trip when packets are in flight but no delivery (or drop)
     * completed for this long. Must comfortably exceed the worst
     * legitimate head-of-line wait at saturation.
     */
    int stallCycles = 200000;

    /** Trip when a buffered packet is older than this (0 = off). */
    double maxPacketAgeNs = 0.0;
};

/** Forward-progress monitor for one Network. */
class Watchdog
{
  public:
    Watchdog(SimContext &ctx, net::Network &net,
             WatchdogConfig cfg = {});

    /** Start polling. Safe to call again after disarm(). */
    void arm();

    /** Stop polling; pending poll events become no-ops. */
    void disarm();

    bool armed() const { return token != nullptr; }
    bool tripped() const { return tripped_; }

    /** Times the watchdog has tripped over its lifetime. */
    std::uint64_t trips() const { return trips_; }

    /**
     * Register trip accounting under @p prefix (conventionally
     * "fault.watchdog").
     */
    void registerTelemetry(telem::Registry &reg,
                           const std::string &prefix);

    /**
     * Replace the default trip action (diagnostic dump + gs_panic).
     * The argument is the trip reason; call diagnose() for the full
     * fabric state.
     */
    void onTrip(std::function<void(const std::string &)> fn)
    {
        tripFn = std::move(fn);
    }

    /**
     * Register an extra liveness probe, polled every check: return
     * an empty string while healthy, a diagnosis to trip on.
     */
    void addProbe(std::function<std::string()> probe)
    {
        probes.push_back(std::move(probe));
    }

    /** Structured snapshot of fabric state (multi-line). */
    std::string diagnose() const;

    /** @name Checkpoint/restore of monitor state.
     *
     * Pending poll events are serialized by the event queue
     * (WatchdogPoll descriptor). An armed watchdog restores armed,
     * with a fresh token, driven by the snapshot's own pending poll
     * event, whose callback() is a live poll's pollFn().
     */
    /// @{
    void saveCkpt(ckpt::Serializer &s) const;
    void restoreCkpt(ckpt::Deserializer &d);
    InlineFn callback(const ckpt::EventDesc &) { return pollFn(); }
    /// @}

  private:
    /** A poll; a no-op once its token is gone (disarm, trip, restore). */
    InlineFn pollFn();

    void scheduleNext();
    void poll();
    void trip(const std::string &why);

    /** Node holding the oldest buffered packet, or invalidNode. */
    NodeId trippingNode() const;

    SimContext &ctx;
    net::Network &net_;
    WatchdogConfig cfg;

    /** Liveness token: pending poll events hold a weak reference. */
    std::shared_ptr<char> token;

    std::function<void(const std::string &)> tripFn;
    std::vector<std::function<std::string()>> probes;

    std::uint64_t lastProgress = 0; ///< deliveries + drops last seen
    Tick lastProgressTick = 0;      ///< when progress last advanced
    long stalledCycles = 0;
    bool tripped_ = false;
    std::uint64_t trips_ = 0;
};

} // namespace gs::fault

#endif // GS_FAULT_WATCHDOG_HH
