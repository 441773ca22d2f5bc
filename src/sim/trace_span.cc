#include "sim/trace_span.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/telemetry.hh"

namespace gs::trace
{

namespace
{

/** Sampling stream tag for Rng::deriveSeed ("SPAN"). */
constexpr std::uint64_t spanStream = 0x5350414eULL;

/** Ticks (ps) to the nanoseconds the histograms are bucketed in. */
double
ns(Tick t)
{
    return static_cast<double>(t) / 1000.0;
}

/**
 * Shared histogram geometry: 4 ns buckets to 4096 ns cover every
 * latency the paper's configurations produce (remote loads top out
 * near 1 us under load) while keeping sub-bucket interpolation
 * honest for the short stages (VC wait is often < 16 ns); heavier
 * tails land in the overflow bucket, which percentile()
 * interpolates against the observed max.
 */
constexpr double histLo = 0.0;
constexpr double histHi = 4096.0;
constexpr std::size_t histBuckets = 1024;

} // namespace

SpanCollector::SpanCollector(std::uint64_t seed, double rate, int nodes)
    : seedHash_(Rng::deriveSeed(seed, spanStream)),
      rate_(std::clamp(rate, 0.0, 1.0)),
      sampleAll_(rate >= 1.0),
      lanes_(static_cast<std::size_t>(nodes)),
      total_(histLo, histHi, histBuckets),
      stage_(numStages,
             stats::Histogram(histLo, histHi, histBuckets)),
      dramQueue_(histLo, histHi, histBuckets),
      dramService_(histLo, histHi, histBuckets)
{
    gs_assert(nodes > 0, "span collector needs at least one node");
    // rate < 1 keeps the product strictly below 2^64, so the cast
    // is exact-representable; rate >= 1 short-circuits in sampleMiss.
    threshold_ = sampleAll_
                     ? ~0ULL
                     : static_cast<std::uint64_t>(
                           std::ldexp(rate_, 64));
}

void
SpanCollector::complete(NodeId node, const SpanState &s, Tick now)
{
    gs_assert(s.id != 0, "completing an unsampled span");
    SpanRecord r;
    r.id = s.id;
    r.node = node;
    r.begin = s.begin;
    r.end = now;
    r.dramQueue = s.dramQueue;
    r.ticks = s.ticks;
    lanes_[static_cast<std::size_t>(node)].done.push_back(r);
}

void
SpanCollector::finalize()
{
    ordered_.clear();
    std::uint64_t sampled = 0;
    for (const Lane &ln : lanes_) {
        sampled += ln.sampled;
        ordered_.insert(ordered_.end(), ln.done.begin(),
                        ln.done.end());
    }
    // Canonical order: issue time, then id. Ids are unique, so the
    // order — and every export derived from it — is total and
    // independent of which lane (thread) a span completed in.
    std::sort(ordered_.begin(), ordered_.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  if (a.begin != b.begin)
                      return a.begin < b.begin;
                  return a.id < b.id;
              });
    snapSampled_ = sampled;
    snapCompleted_ = ordered_.size();

    total_.reset();
    for (auto &h : stage_)
        h.reset();
    dramQueue_.reset();
    dramService_.reset();
    for (const SpanRecord &r : ordered_) {
        total_.sample(ns(r.end - r.begin));
        // Every span feeds every stage (zeros included): that makes
        // the per-stage means sum to the total mean exactly, the
        // invariant the x-ray breakdown table checks.
        for (int s = 0; s < numStages; ++s)
            stage_[static_cast<std::size_t>(s)].sample(ns(r.ticks[
                static_cast<std::size_t>(s)]));
        if (r.ticks[Dram] != 0) {
            dramQueue_.sample(ns(r.dramQueue));
            dramService_.sample(ns(r.ticks[Dram] - r.dramQueue));
        }
    }
}

void
SpanCollector::clearStats()
{
    // Sequences keep advancing: span identity (and thus the sample
    // set) is a property of the whole run, not the measured window.
    for (Lane &ln : lanes_) {
        ln.sampled = 0;
        ln.done.clear();
    }
    ordered_.clear();
    snapSampled_ = 0;
    snapCompleted_ = 0;
    total_.reset();
    for (auto &h : stage_)
        h.reset();
    dramQueue_.reset();
    dramService_.reset();
}

void
SpanCollector::registerTelemetry(telem::Registry &reg,
                                 const std::string &prefix)
{
    reg.addCounter(telem::path(prefix, "sampled"), snapSampled_);
    reg.addCounter(telem::path(prefix, "completed"), snapCompleted_);
    reg.addHistogram(telem::path(prefix, "total_ns"), total_);
    for (int s = 0; s < numStages; ++s)
        reg.addHistogram(
            telem::path(prefix, "stage",
                        std::string(stageName(s)) + "_ns"),
            stage_[static_cast<std::size_t>(s)]);
    reg.addHistogram(telem::path(prefix, "dram", "queue_ns"),
                     dramQueue_);
    reg.addHistogram(telem::path(prefix, "dram", "service_ns"),
                     dramService_);
}

void
SpanCollector::exportTrace(telem::TraceWriter &tw) const
{
    int tid = 1000;
    for (const SpanRecord &r : ordered_) {
        tw.flowStart(r.begin, "txn", tid, r.id);
        tw.begin(r.begin, "txn", tid, "txn");
        Tick t = r.begin;
        for (int s = 0; s < numStages; ++s) {
            const Tick d = r.ticks[static_cast<std::size_t>(s)];
            if (d == 0)
                continue;
            tw.begin(t, stageName(s), tid, "stage");
            t += d;
            tw.end(t, stageName(s), tid, "stage");
        }
        tw.flowFinish(r.end, "txn", tid, r.id);
        tw.end(r.end, "txn", tid, "txn");
        tid += 1;
    }
}

void
SpanCollector::saveCkpt(ckpt::Serializer &s) const
{
    s.put32(static_cast<std::uint32_t>(lanes_.size()));
    for (const Lane &ln : lanes_) {
        s.put64(ln.seq);
        s.put64(ln.sampled);
        s.put32(static_cast<std::uint32_t>(ln.done.size()));
        for (const SpanRecord &r : ln.done) {
            s.put64(r.id);
            s.putI32(r.node);
            s.put64(r.begin);
            s.put64(r.end);
            s.put64(r.dramQueue);
            for (Tick t : r.ticks)
                s.put64(t);
        }
    }
}

void
SpanCollector::restoreCkpt(ckpt::Deserializer &d)
{
    if (d.get32() != lanes_.size() && d.ok()) {
        d.fail("span collector node count mismatch");
        return;
    }
    for (Lane &ln : lanes_) {
        ln.seq = d.get64();
        ln.sampled = d.get64();
        ln.done.assign(d.get32(), SpanRecord{});
        for (SpanRecord &r : ln.done) {
            r.id = d.get64();
            r.node = d.getI32();
            r.begin = d.get64();
            r.end = d.get64();
            r.dramQueue = d.get64();
            for (Tick &t : r.ticks)
                t = d.get64();
        }
    }
    // Derived state is rebuilt by the next finalize().
    ordered_.clear();
    snapSampled_ = 0;
    snapCompleted_ = 0;
}

} // namespace gs::trace
