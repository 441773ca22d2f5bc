/**
 * @file
 * Unified telemetry layer: a hierarchical stats registry, a
 * simulated-time sampler, and machine-wide exporters.
 *
 * The paper's most distinctive results are utilization *profiles*
 * (Figures 10/11, 20, 22, 24), read from the 21364's built-in
 * performance counters by the Xmesh tool. This layer gives every
 * model component the same capability: components register their
 * counters/averages/histograms under a dotted path at build time
 * (`node.12.router.port.E.vc.1.flits`), a Sampler snapshots selected
 * paths on a fixed simulated-time cadence, and exporters dump the
 * whole machine as JSON/CSV or as a Chrome `trace_event` file that
 * opens in Perfetto / chrome://tracing.
 *
 * Design rules:
 *  - One Registry per machine instance, no globals: independent
 *    machines stay independent, so exports are bit-identical under
 *    `SweepRunner --jobs N`.
 *  - Registration is pull-based (the registry stores pointers and
 *    probes); components pay nothing on their hot paths beyond the
 *    plain integer increments they already do. Push-style costs
 *    (trace emission, sampling) exist only while a sink is attached.
 *  - Exports iterate a sorted map and format numbers with a fixed
 *    conversion, so identical runs produce byte-identical files.
 */

#ifndef GS_SIM_TELEMETRY_HH
#define GS_SIM_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/context.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gs::telem
{

/** Join path segments with '.': path("node", 12, "router"). */
template <typename... Parts>
std::string
path(Parts &&...parts)
{
    std::ostringstream os;
    const char *sep = "";
    ((os << sep << parts, sep = "."), ...);
    return os.str();
}

/**
 * Hierarchical stats registry: dotted path -> stat. The registry
 * never owns the stats; registrants guarantee the referenced objects
 * outlive it (components and registry share the machine's lifetime).
 *
 * Duplicate registration is a wiring error and fatal: silently
 * shadowing a path would corrupt every export that reads it.
 */
class Registry
{
  public:
    using Probe = std::function<double()>;

    /** Scalar kinds an entry can hold. */
    enum class Kind : std::uint8_t
    {
        Counter,   ///< monotone count (a raw u64 member)
        Gauge,     ///< computed-on-read probe
        Average,   ///< mean/min/max/count summary
        Histogram, ///< bucketed distribution
    };

    /** One registered stat (pointers into the owning component). */
    struct Entry
    {
        Kind kind = Kind::Counter;
        const std::uint64_t *raw = nullptr;
        Probe probe;
        const stats::Average *avg = nullptr;
        const stats::Histogram *hist = nullptr;
        /**
         * Wall-clock-derived value (e.g. par.barrier_wait_frac):
         * readable via value() for live diagnostics, but skipped by
         * the exporters so snapshot files stay byte-identical across
         * runs and thread counts.
         */
        bool wallClock = false;
    };

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** @name Registration (build time) */
    /// @{
    /** Raw counter member (what hot paths increment directly). */
    void addCounter(const std::string &p, const std::uint64_t &raw);

    void addGauge(const std::string &p, Probe probe);

    /** Gauge whose value depends on host timing, not simulation
     * state; excluded from exports (see Entry::wallClock). */
    void addWallClockGauge(const std::string &p, Probe probe);

    void addAverage(const std::string &p, const stats::Average &a);
    void addHistogram(const std::string &p, const stats::Histogram &h);
    /// @}

    /** @name Lookup */
    /// @{
    bool has(const std::string &p) const;
    std::size_t size() const { return entries_.size(); }

    /** All registered paths under @p prefix, sorted. */
    std::vector<std::string> paths(const std::string &prefix = {}) const;

    /**
     * Scalar view of the entry at @p p: counter value, gauge value,
     * or summary mean. A registered Histogram additionally answers
     * percentile queries through a `pNN` (or `pNN_M` for a decimal,
     * e.g. `p99_9`) suffix on its path: `value("xray.total_ns.p95")`
     * returns `Histogram::percentile(0.95)` — NaN while the
     * histogram is empty. Fatal when the path is unknown, when a
     * percentile suffix hangs off a non-histogram entry, or when NN
     * is outside [0, 100].
     */
    double value(const std::string &p) const;

    /** Sorted path -> entry map (exporters iterate this). */
    const std::map<std::string, Entry> &entries() const
    {
        return entries_;
    }
    /// @}

  private:
    void insert(const std::string &p, Entry e);

    std::map<std::string, Entry> entries_;
};

class TraceWriter;

/**
 * Periodic snapshotter: records watched registry paths into
 * time-series on a fixed simulated-time cadence. Two watch modes:
 *
 *  - watch(): the raw scalar value at each sample;
 *  - watchRate(): the per-interval delta, scaled —
 *    `(cur - prev) * scale / interval_ticks` — which turns a
 *    cumulative busy/flit counter into a busy fraction (for a link,
 *    scale = ticks per flit; for a Zbox busy-tick counter,
 *    scale = 1 / channels).
 */
class Sampler : public ckpt::Client
{
  public:
    /** One watched path's recorded values. */
    struct Series
    {
        std::string path;
        bool rate = false;
        double scale = 1.0;
        double prev = 0.0;
        std::vector<double> values;
    };

    Sampler(SimContext &ctx, const Registry &reg, Tick interval);

    /** Pending sample events hold `this`; a copy would share them. */
    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    void watch(const std::string &p);
    void watchRate(const std::string &p, double scale);

    /** Watch every registered path under @p prefix; returns count. */
    int watchPrefix(const std::string &prefix);

    /** Begin sampling; first sample lands one interval from now. */
    void start();

    /**
     * Stop sampling (a pending sample event becomes a no-op). If any
     * time has passed since the last periodic sample, a final sample
     * is flushed first, its rate values scaled to the partial window
     * actually covered — series include the tail of the run.
     */
    void stop();

    /** Take one sample of every watched path immediately. */
    void sampleNow();

    /**
     * Additionally emit every sample as Chrome counter events into
     * @p tw (one counter track per watched path in Perfetto).
     */
    void mirrorToTrace(TraceWriter &tw) { trace = &tw; }

    Tick interval() const { return interval_; }
    const std::vector<Tick> &times() const { return times_; }
    const std::vector<Series> &series() const { return series_; }

    /** @name Checkpoint/restore (ckpt::Client).
     *
     * Register with Machine::registerCkptClient before save/restore
     * and watch the same paths in the same order before restoring.
     * A running sampler restores running, with a fresh token; its
     * pending tick's callback() is a live tick's tickFn().
     * Trace mirroring is wall-clock-shaped output and cannot be
     * checkpointed; saving with a mirror attached is fatal.
     */
    /// @{
    void saveCkpt(ckpt::Serializer &s) const override;
    void restoreCkpt(ckpt::Deserializer &d) override;
    InlineFn callback(const ckpt::EventDesc &) override { return tickFn(); }
    /// @}

  private:
    void tick();

    /** A sample tick; a no-op once its token is gone (stop, restore). */
    InlineFn tickFn();

    SimContext &ctx;
    const Registry &reg;
    Tick interval_;

    /** Liveness token: pending sample events hold a weak reference. */
    std::shared_ptr<char> token;

    Tick lastSample_ = 0; ///< time of the most recent sample

    std::vector<Series> series_;
    std::vector<Tick> times_;
    TraceWriter *trace = nullptr;
};

/**
 * Buffered Chrome `trace_event` writer. Events accumulate in memory
 * (deterministic order: simulation event order) and serialize on
 * write() as `{"traceEvents": [...]}` — the JSON object format both
 * Perfetto and chrome://tracing load. Timestamps convert from ticks
 * (ps) to the format's microseconds.
 *
 * A capacity cap bounds memory on long runs; events past the cap are
 * counted, not stored.
 */
class TraceWriter
{
  public:
    explicit TraceWriter(std::size_t max_events = 2'000'000)
        : cap(max_events)
    {
    }

    /** Counter sample ("C" phase): one value on a named track. */
    void counter(Tick when, const std::string &name, double value);

    /** Instant event ("i" phase) on thread-track @p tid. */
    void instant(Tick when, const std::string &name, int tid,
                 const char *category = "event");

    /** Complete event ("X" phase): a span of @p dur ticks. */
    void complete(Tick when, Tick dur, const std::string &name, int tid,
                  const char *category = "span");

    /** @name Nested spans and flow binding ("B"/"E", "s"/"f")
     *
     * begin/end form a per-tid stack (emit them balanced and with
     * non-decreasing timestamps per tid — scripts/trace_check.py
     * enforces both); flowStart/flowFinish bind two points of the
     * same logical transaction by @p id, drawn as an arrow in
     * Perfetto. The latency x-ray span exporter
     * (trace::SpanCollector::exportTrace) is the worked example.
     */
    /// @{
    void begin(Tick when, const std::string &name, int tid,
               const char *category = "span");
    void end(Tick when, const std::string &name, int tid,
             const char *category = "span");
    void flowStart(Tick when, const std::string &name, int tid,
                   std::uint64_t id, const char *category = "flow");
    void flowFinish(Tick when, const std::string &name, int tid,
                    std::uint64_t id, const char *category = "flow");
    /// @}

    std::size_t size() const { return events.size(); }
    std::uint64_t dropped() const { return dropped_; }

    void write(std::ostream &os) const;

  private:
    struct Ev
    {
        char ph;
        Tick ts = 0;
        Tick dur = 0;
        int tid = 0;
        double value = 0.0;
        std::uint64_t id = 0; ///< flow-binding id ("s"/"f" phases)
        std::string name;
        const char *cat = "";
    };

    bool room();

    std::vector<Ev> events;
    std::size_t cap;
    std::uint64_t dropped_ = 0;
};

/** @name Exporters
 *
 * All exporters are deterministic: sorted registry order, fixed
 * number formatting, no wall-clock anywhere. Identical seeds produce
 * byte-identical files.
 */
/// @{

/**
 * Full machine snapshot as JSON: every registry entry (counters as
 * integers, gauges as numbers, averages/histograms as objects) plus,
 * when @p sampler is given, its time-series.
 */
void exportJson(std::ostream &os, const Registry &reg,
                const Sampler *sampler = nullptr, Tick now = 0);

/** Scalar snapshot as CSV: `path,kind,value` rows. */
void exportCsv(std::ostream &os, const Registry &reg);

/** Sampler series as wide CSV: `t_ps,<path>,...` columns. */
void exportSeriesCsv(std::ostream &os, const Sampler &sampler);

/// @}

} // namespace gs::telem

#endif // GS_SIM_TELEMETRY_HH
