/**
 * @file
 * Xmesh: the sampling monitor behind the paper's profiling figures.
 *
 * The real Xmesh tool [11] displays run-time utilization of CPUs,
 * memory controllers, inter-processor links and I/O ports from the
 * 21364's built-in performance counters. This model is a view over
 * the machine's telemetry: a telem::Sampler records the registry's
 * per-port flit counters (`node.<n>.router.port.<p>.flits`) and
 * per-Zbox busy-tick counters (`node.<n>.mem.<z>.busy_ticks`) at a
 * fixed interval, and Xmesh turns each window's deltas into the
 * utilization-vs-time series of Figures 10/11/20/22/24 and the
 * hot-spot display of Figure 27 (rendered as ASCII).
 */

#ifndef GS_SYSTEM_XMESH_HH
#define GS_SYSTEM_XMESH_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "sim/telemetry.hh"
#include "system/machine.hh"

namespace gs::sys
{

/** One Xmesh sampling interval's readings. */
struct XmeshSample
{
    Tick when = 0;

    /** Per-node memory-controller utilization [0,1]. */
    std::vector<double> memUtil;

    double avgMemUtil = 0;
    double avgLinkUtil = 0;  ///< over connected network ports
    double avgEastWest = 0;  ///< torus horizontal links only
    double avgNorthSouth = 0;
};

/**
 * Periodic utilization view over a Machine's telemetry registry.
 * Needs the per-node registry subtrees and the serial engine, so
 * machines above 64 nodes (Machine::perNodeTelemetry) and parallel
 * machines are refused.
 */
class Xmesh
{
  public:
    /**
     * @param machine the machine to monitor
     * @param interval_ticks sampling period (simulated time)
     */
    Xmesh(Machine &machine, Tick interval_ticks);

    /** Begin sampling; the first sample lands one interval ahead. */
    void start();

    /**
     * Stop sampling. Samples are whole intervals: the partial window
     * since the last one is not a sample.
     */
    void stop();

    const std::vector<XmeshSample> &samples() const;

    /**
     * Take a single sample immediately (without start()): the window
     * since the previous sample, start() or sampleNow(). It is
     * returned, not logged, and the next sample's window opens here.
     */
    XmeshSample sampleNow();

    /**
     * ASCII heat map of a sample for a GS1280 torus: per-node
     * memory-controller utilization percent in grid layout, the
     * display that exposes hot spots (Figure 27).
     */
    std::string heatmap(const XmeshSample &s) const;

    /**
     * Dump every recorded sample as CSV (one row per sample:
     * timestamp, averages, then per-node memory utilization) for
     * offline plotting of the Figures 10/11/20/22/24 style series.
     */
    void dumpCsv(std::ostream &os) const;

  private:
    static constexpr std::size_t none =
        std::numeric_limits<std::size_t>::max();

    /** A node's watched counters, as indices into the sampler. */
    struct NodeSeries
    {
        std::vector<std::size_t> zboxes; ///< busy_ticks series
        int channels = 0;                ///< summed over the zboxes
        std::vector<int> ports;          ///< registered ports
        std::vector<std::size_t> flits;  ///< their flits series
    };

    /** Counter @p series at recorded sample @p i (0 at none). */
    std::uint64_t count(std::size_t series, std::size_t i) const;

    /** The window from sample @p from (none: time 0) to @p to. */
    XmeshSample row(std::size_t from, std::size_t to) const;

    /** Log every periodic sample the sampler recorded since. */
    void sync() const;

    Machine &m;
    telem::Sampler sampler;
    std::vector<NodeSeries> nodes;
    bool active = false;

    /** @name Rows derived from the sampler's record, on demand */
    /// @{
    mutable std::size_t base = none; ///< sample opening the window
    mutable std::size_t seen = 0;    ///< samples accounted for
    mutable std::vector<XmeshSample> log;
    /// @}
};

} // namespace gs::sys

#endif // GS_SYSTEM_XMESH_HH
