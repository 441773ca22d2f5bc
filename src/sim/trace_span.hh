/**
 * @file
 * Latency x-ray: deterministic, sampled per-transaction tracing with
 * per-stage attribution (docs/TRACING.md).
 *
 * Figures 12/13 of the paper decompose a remote dependent-load's
 * latency into where each nanosecond goes: local issue, per-router
 * transit, directory occupancy, DRAM access, reply return. The span
 * layer reproduces that decomposition per transaction: each sampled
 * coherence miss carries a compact SpanState that accumulates ticks
 * into exactly one Stage at a time, so the per-stage sum is the
 * end-to-end latency *by construction* — no residual bucket, no
 * double counting.
 *
 * Determinism contract (same discipline as the mailbox merge in
 * net::Network):
 *
 *  - Sampling is a pure function of (master seed, stable span id);
 *    the id derives from the requester node and a per-node issue
 *    sequence, both of which are identical serial vs. parallel. The
 *    sample set is therefore bit-identical at any --threads/--jobs.
 *  - SpanState rides *inside* net::Packet by value, so it crosses
 *    domain boundaries with the packet copy the parallel engine
 *    already makes; no side tables, no cross-thread writes.
 *  - Completed spans land in per-node lanes (each written only by
 *    the domain thread that owns the node) and are merged into
 *    canonical (begin, id) order by finalize(), which runs
 *    single-threaded. Exports read only the merged order, so span
 *    traces and histograms are byte-identical at any thread count.
 *
 * When tracing is off the collector simply does not exist and every
 * hook reduces to one branch on `span.id != 0` (id 0 is never
 * assigned to a sampled span).
 */

#ifndef GS_SIM_TRACE_SPAN_HH
#define GS_SIM_TRACE_SPAN_HH

#include <array>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace gs::telem
{
class Registry;
class TraceWriter;
} // namespace gs::telem

namespace gs::trace
{

/**
 * Where a sampled transaction's time is attributed. A span is in
 * exactly one stage at any instant:
 *
 *  - Inject: miss issue until the first link grant at the source
 *    router (L2 miss handling + injection-queue wait).
 *  - VcWait: buffered at an intermediate router waiting for a
 *    virtual-channel/switch grant.
 *  - Link: in flight on a link (router pipeline + wire + cut-through
 *    serialization); ejection at the destination folds in here.
 *  - Directory: directory/protocol occupancy at the home node,
 *    including owner service time on a forwarded intervention.
 *  - Dram: Zbox queue + DRAM access at the home (queue portion is
 *    additionally recorded in SpanState::dramQueue).
 *  - Reply: everything on the response path, from the home (or
 *    owner) sending the block until the requester's fill completes.
 */
enum Stage : std::uint8_t
{
    Inject = 0,
    VcWait,
    Link,
    Directory,
    Dram,
    Reply,
};

/** Number of stages (size of SpanState::ticks). */
constexpr int numStages = 6;

/** Stage name for telemetry paths and trace events. */
constexpr const char *
stageName(int s)
{
    switch (s) {
      case Inject:
        return "inject";
      case VcWait:
        return "vc_wait";
      case Link:
        return "link";
      case Directory:
        return "directory";
      case Dram:
        return "dram";
      case Reply:
        return "reply";
    }
    return "?";
}

/**
 * SplitMix64 finalizer (same mixer the Rng uses for stream
 * derivation): full-avalanche, so consecutive span ids map to
 * effectively independent sample decisions.
 */
constexpr std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Per-transaction span accumulator. Trivially copyable on purpose:
 * it is embedded in net::Packet by value and serialized field-wise
 * by savePacket/restorePacket, so spans cross parallel-domain
 * boundaries and checkpoint save/restore with zero extra machinery.
 *
 * id == 0 means "not sampled" — every hot-path hook gates on that
 * single branch and touches nothing else.
 */
struct SpanState
{
    std::uint64_t id = 0; ///< 0 = unsampled; else (node<<40)|seq
    Tick begin = 0;       ///< miss issue time
    Tick mark = 0;        ///< time of the last stage transition
    std::uint8_t stage = Inject; ///< stage currently accumulating
    std::uint8_t phase = 0;      ///< 0 = request path, 1 = reply path
    Tick dramQueue = 0; ///< Zbox queue-wait portion of ticks[Dram]
    std::array<Tick, numStages> ticks{}; ///< per-stage attribution

    /**
     * Close the current stage at @p now and start @p next. Every
     * tick between begin and completion passes through exactly one
     * advance, which is what makes sum(ticks) == end - begin exact.
     */
    void
    advance(Tick now, Stage next)
    {
        ticks[stage] += now - mark;
        mark = now;
        stage = next;
    }
};

static_assert(std::is_trivially_copyable_v<SpanState>,
              "SpanState rides packet copies and checkpoints");

/** @name Field-wise SpanState serialization (layout-stable). */
/// @{
inline void
saveSpan(ckpt::Serializer &s, const SpanState &ss)
{
    s.put64(ss.id);
    s.put64(ss.begin);
    s.put64(ss.mark);
    s.put8(ss.stage);
    s.put8(ss.phase);
    s.put64(ss.dramQueue);
    for (Tick t : ss.ticks)
        s.put64(t);
}

inline void
restoreSpan(ckpt::Deserializer &d, SpanState &ss)
{
    ss.id = d.get64();
    ss.begin = d.get64();
    ss.mark = d.get64();
    ss.stage = d.get8();
    ss.phase = d.get8();
    ss.dramQueue = d.get64();
    for (Tick &t : ss.ticks)
        t = d.get64();
}
/// @}

/** A completed span, ready for merge/export. */
struct SpanRecord
{
    std::uint64_t id = 0;
    NodeId node = invalidNode; ///< requester
    Tick begin = 0;
    Tick end = 0;
    Tick dramQueue = 0;
    std::array<Tick, numStages> ticks{};
};

/**
 * Owns sampling decisions and completed spans for one machine.
 *
 * Threading: sampleMiss/complete touch only lanes_[node], and the
 * parallel engine guarantees a node's events run on its owning
 * domain's thread — so lanes need no locks. finalize() and every
 * reader (telemetry gauges/histograms, exportTrace) run
 * single-threaded between runs; gauges registered with the telemetry
 * Registry read snapshot fields refreshed only by finalize(), so a
 * mid-run Sampler probe sees stable (last-finalize) values on both
 * engines.
 */
class SpanCollector : public ckpt::Client
{
  public:
    /**
     * @param seed   machine master seed (sampling derives from it)
     * @param rate   target sample fraction in [0, 1]; >= 1 samples
     *               every transaction
     * @param nodes  node count (one lane per node)
     */
    SpanCollector(std::uint64_t seed, double rate, int nodes);

    double rate() const { return rate_; }

    /**
     * Hot path, called at every miss issue by the requesting node.
     * Always advances the node's issue sequence (so the id stream —
     * and thus the sample set — is independent of the sampling
     * rate), and returns the span id when this miss is sampled, 0
     * otherwise.
     */
    std::uint64_t
    sampleMiss(NodeId node)
    {
        Lane &ln = lanes_[static_cast<std::size_t>(node)];
        const std::uint64_t id =
            (static_cast<std::uint64_t>(node) << 40) | ++ln.seq;
        if (!sampleAll_ && mix64(seedHash_ ^ mix64(id)) >= threshold_)
            return 0;
        ln.sampled += 1;
        return id;
    }

    /** Record a finished span (caller has closed its final stage). */
    void complete(NodeId node, const SpanState &s, Tick now);

    /**
     * Merge every lane's completed spans into canonical (begin, id)
     * order and rebuild the histograms and snapshot counters from
     * the merged set. Single-threaded; idempotent (histograms are
     * reset and re-fed, so calling it twice changes nothing). Run it
     * after the machine drains, before reading any export.
     */
    void finalize();

    /** Drop all completed spans and samples (warmup reset). */
    void clearStats();

    /**
     * Register counters and per-stage histograms under
     * "<prefix>.": sampled/completed counters, total_ns and
     * stage.<name>_ns histograms (percentile-queryable via pNN
     * paths), dram.queue_ns / dram.service_ns.
     */
    void registerTelemetry(telem::Registry &reg,
                           const std::string &prefix);

    /**
     * Emit the merged spans as Chrome trace events: per span a
     * unique synthetic tid carrying an outer "txn" B/E pair, the
     * nonzero stage segments laid end-to-end inside it (aggregate
     * attribution order, not hop-by-hop chronology), and an s/f flow
     * pair keyed by the span id. finalize() first.
     */
    void exportTrace(telem::TraceWriter &tw) const;

    /** Merged spans in canonical order (valid after finalize()). */
    const std::vector<SpanRecord> &spans() const { return ordered_; }

    std::uint64_t sampledCount() const { return snapSampled_; }
    std::uint64_t completedCount() const { return snapCompleted_; }

    /** @name Checkpoint/restore (ckpt::Client).
     *
     * The full collector state — per-node sequences, lane contents,
     * merged order — is serialized, and in-flight spans ride the
     * packet/MAF serialization, so a restored run's span export is
     * byte-identical to the unbroken run's. The collector schedules
     * no events, so it keeps the default callback(), which owns none.
     */
    /// @{
    void saveCkpt(ckpt::Serializer &s) const override;
    void restoreCkpt(ckpt::Deserializer &d) override;
    /// @}

  private:
    /** Per-node completion lane (single-writer: the owning domain). */
    struct Lane
    {
        std::uint64_t seq = 0;     ///< issue sequence (all misses)
        std::uint64_t sampled = 0; ///< misses selected for tracing
        std::vector<SpanRecord> done;
    };

    std::uint64_t seedHash_; ///< derived sampling stream seed
    std::uint64_t threshold_; ///< sample iff mixed id < threshold
    double rate_;
    bool sampleAll_;

    std::vector<Lane> lanes_;
    std::vector<SpanRecord> ordered_; ///< canonical merged order

    // Snapshots refreshed by finalize(); what gauges/counters read.
    std::uint64_t snapSampled_ = 0;
    std::uint64_t snapCompleted_ = 0;

    stats::Histogram total_;
    std::vector<stats::Histogram> stage_;
    stats::Histogram dramQueue_;
    stats::Histogram dramService_;
};

} // namespace gs::trace

#endif // GS_SIM_TRACE_SPAN_HH
