#include "sim/telemetry.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <ostream>

#include "sim/logging.hh"

namespace gs::telem
{

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

void
Registry::insert(const std::string &p, Entry e)
{
    gs_assert(!p.empty(), "empty telemetry path");
    auto [it, fresh] = entries_.emplace(p, std::move(e));
    (void)it;
    if (!fresh)
        gs_fatal("duplicate telemetry path: ", p);
}

void
Registry::addCounter(const std::string &p, const std::uint64_t &raw)
{
    Entry e;
    e.kind = Kind::Counter;
    e.raw = &raw;
    insert(p, std::move(e));
}

void
Registry::addGauge(const std::string &p, Probe probe)
{
    gs_assert(probe != nullptr, "null telemetry probe for ", p);
    Entry e;
    e.kind = Kind::Gauge;
    e.probe = std::move(probe);
    insert(p, std::move(e));
}

void
Registry::addWallClockGauge(const std::string &p, Probe probe)
{
    gs_assert(probe != nullptr, "null telemetry probe for ", p);
    Entry e;
    e.kind = Kind::Gauge;
    e.probe = std::move(probe);
    e.wallClock = true;
    insert(p, std::move(e));
}

void
Registry::addAverage(const std::string &p, const stats::Average &a)
{
    Entry e;
    e.kind = Kind::Average;
    e.avg = &a;
    insert(p, std::move(e));
}

void
Registry::addHistogram(const std::string &p, const stats::Histogram &h)
{
    Entry e;
    e.kind = Kind::Histogram;
    e.hist = &h;
    insert(p, std::move(e));
}

bool
Registry::has(const std::string &p) const
{
    return entries_.count(p) != 0;
}

std::vector<std::string>
Registry::paths(const std::string &prefix) const
{
    std::vector<std::string> out;
    for (auto it = entries_.lower_bound(prefix); it != entries_.end();
         ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        out.push_back(it->first);
    }
    return out;
}

namespace
{

double
scalarOf(const Registry::Entry &e)
{
    switch (e.kind) {
      case Registry::Kind::Counter:
        return static_cast<double>(*e.raw);
      case Registry::Kind::Gauge:
        return e.probe();
      case Registry::Kind::Average:
        return e.avg->mean();
      case Registry::Kind::Histogram:
        return e.hist->summary().mean();
    }
    return 0.0;
}

} // namespace

namespace
{

/**
 * Parse a percentile suffix segment ("p50", "p99_9"): returns the
 * quantile in [0, 1], or a negative value when the segment is not a
 * percentile query at all. NN outside [0, 100] is a caller error and
 * fatal — silently treating "p200" as an unknown path would bury the
 * typo under a misleading "unknown path" diagnostic.
 */
double
parsePercentileSuffix(const std::string &seg, const std::string &full)
{
    if (seg.size() < 2 || seg[0] != 'p')
        return -1.0;
    double v = 0.0;
    std::size_t i = 1;
    if (!std::isdigit(static_cast<unsigned char>(seg[i])))
        return -1.0;
    for (; i < seg.size() &&
           std::isdigit(static_cast<unsigned char>(seg[i]));
         ++i)
        v = v * 10.0 + (seg[i] - '0');
    if (i < seg.size()) {
        // Fractional percentile: '_' stands in for the decimal point
        // a path segment cannot carry (p99_9 = 99.9).
        if (seg[i] != '_' || i + 1 >= seg.size())
            return -1.0;
        double scale = 0.1;
        for (i += 1; i < seg.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(seg[i])))
                return -1.0;
            v += (seg[i] - '0') * scale;
            scale *= 0.1;
        }
    }
    if (v > 100.0)
        gs_fatal("percentile out of range in telemetry query: ", full);
    return v / 100.0;
}

} // namespace

double
Registry::value(const std::string &p) const
{
    auto it = entries_.find(p);
    if (it != entries_.end())
        return scalarOf(it->second);

    // Histogram percentile query: "<hist-path>.pNN" (or pNN_M).
    auto dot = p.rfind('.');
    if (dot != std::string::npos && dot + 1 < p.size()) {
        double q = parsePercentileSuffix(p.substr(dot + 1), p);
        if (q >= 0.0) {
            auto stem = entries_.find(p.substr(0, dot));
            if (stem != entries_.end()) {
                if (stem->second.kind != Kind::Histogram)
                    gs_fatal("percentile query on non-histogram "
                             "telemetry path: ", p);
                return stem->second.hist->percentile(q);
            }
        }
    }
    gs_fatal("unknown telemetry path: ", p);
}

// ---------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------

Sampler::Sampler(SimContext &context, const Registry &registry,
                 Tick interval)
    : ctx(context), reg(registry), interval_(interval)
{
    gs_assert(interval_ > 0, "sampler interval must be positive");
}

void
Sampler::watch(const std::string &p)
{
    gs_assert(reg.has(p), "sampler watch of unknown path ", p);
    Series s;
    s.path = p;
    series_.push_back(std::move(s));
}

void
Sampler::watchRate(const std::string &p, double scale)
{
    gs_assert(reg.has(p), "sampler watch of unknown path ", p);
    Series s;
    s.path = p;
    s.rate = true;
    s.scale = scale;
    s.prev = reg.value(p);
    series_.push_back(std::move(s));
}

int
Sampler::watchPrefix(const std::string &prefix)
{
    int n = 0;
    for (const auto &p : reg.paths(prefix)) {
        watch(p);
        n += 1;
    }
    return n;
}

void
Sampler::sampleNow()
{
    Tick now = ctx.now();
    // Rates divide by the span actually covered since the previous
    // sample: interval_ on the periodic tick, less on the final
    // partial flush stop() takes. A zero span would double-record
    // the same instant; skip it.
    Tick span = now - lastSample_;
    if (span == 0 && !times_.empty())
        return;
    if (span == 0)
        span = interval_;
    times_.push_back(now);
    for (auto &s : series_) {
        double cur = reg.value(s.path);
        double v = cur;
        if (s.rate) {
            v = (cur - s.prev) * s.scale / static_cast<double>(span);
            s.prev = cur;
        }
        s.values.push_back(v);
        if (trace)
            trace->counter(now, s.path, v);
    }
    lastSample_ = now;
}

void
Sampler::start()
{
    if (token)
        return;
    token = std::make_shared<char>(0);
    lastSample_ = ctx.now();
    ctx.queue().schedule(interval_, clientDesc(), tickFn());
}

void
Sampler::stop()
{
    if (!token)
        return;
    // Flush the tail: a run rarely ends on an interval edge, and
    // silently dropping the final partial window made every rate
    // series (heatmaps included) understate the end of the run.
    if (ctx.now() > lastSample_)
        sampleNow();
    token.reset();
}

void
Sampler::tick()
{
    sampleNow();
    ctx.queue().schedule(interval_, clientDesc(), tickFn());
}

InlineFn
Sampler::tickFn()
{
    return [this, alive = std::weak_ptr<char>(token)] {
        if (!alive.expired())
            tick();
    };
}

void
Sampler::saveCkpt(ckpt::Serializer &s) const
{
    gs_assert(trace == nullptr,
              "cannot checkpoint: telemetry trace mirroring is active "
              "(--trace is incompatible with checkpointing)");
    s.putBool(token != nullptr);
    s.put64(static_cast<std::uint64_t>(interval_));
    s.put64(static_cast<std::uint64_t>(lastSample_));
    s.put32(static_cast<std::uint32_t>(times_.size()));
    for (Tick t : times_)
        s.put64(static_cast<std::uint64_t>(t));
    s.put32(static_cast<std::uint32_t>(series_.size()));
    for (const auto &sr : series_) {
        s.putStr(sr.path);
        s.putF64(sr.prev);
        s.put32(static_cast<std::uint32_t>(sr.values.size()));
        for (double v : sr.values)
            s.putF64(v);
    }
}

void
Sampler::restoreCkpt(ckpt::Deserializer &d)
{
    bool wasRunning = d.getBool();
    if (d.get64() != static_cast<std::uint64_t>(interval_) &&
        d.ok()) {
        d.fail("snapshot sampler interval differs from this run's");
        return;
    }
    lastSample_ = static_cast<Tick>(d.get64());
    std::uint32_t nt = d.get32();
    if (!d.ok())
        return;
    times_.assign(nt, 0);
    for (Tick &t : times_)
        t = static_cast<Tick>(d.get64());
    if (d.get32() != series_.size() && d.ok()) {
        d.fail("snapshot sampler watches a different series set "
               "(watch the same paths, in order, before restoring)");
        return;
    }
    for (auto &sr : series_) {
        if (d.getStr() != sr.path && d.ok()) {
            d.fail("snapshot sampler series path differs (watch the "
                   "same paths, in order, before restoring)");
            return;
        }
        sr.prev = d.getF64();
        std::uint32_t nv = d.get32();
        if (!d.ok())
            return;
        sr.values.assign(nv, 0.0);
        for (double &v : sr.values)
            v = d.getF64();
    }
    if (!d.ok())
        return;
    token = wasRunning ? std::make_shared<char>(0) : nullptr;
}

// ---------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------

bool
TraceWriter::room()
{
    if (events.size() < cap)
        return true;
    dropped_ += 1;
    return false;
}

void
TraceWriter::counter(Tick when, const std::string &name, double value)
{
    if (!room())
        return;
    Ev e;
    e.ph = 'C';
    e.ts = when;
    e.value = value;
    e.name = name;
    events.push_back(std::move(e));
}

void
TraceWriter::instant(Tick when, const std::string &name, int tid,
                     const char *category)
{
    if (!room())
        return;
    Ev e;
    e.ph = 'i';
    e.ts = when;
    e.tid = tid;
    e.name = name;
    e.cat = category;
    events.push_back(std::move(e));
}

void
TraceWriter::complete(Tick when, Tick dur, const std::string &name,
                      int tid, const char *category)
{
    if (!room())
        return;
    Ev e;
    e.ph = 'X';
    e.ts = when;
    e.dur = dur;
    e.tid = tid;
    e.name = name;
    e.cat = category;
    events.push_back(std::move(e));
}

void
TraceWriter::begin(Tick when, const std::string &name, int tid,
                   const char *category)
{
    if (!room())
        return;
    Ev e;
    e.ph = 'B';
    e.ts = when;
    e.tid = tid;
    e.name = name;
    e.cat = category;
    events.push_back(std::move(e));
}

void
TraceWriter::end(Tick when, const std::string &name, int tid,
                 const char *category)
{
    if (!room())
        return;
    Ev e;
    e.ph = 'E';
    e.ts = when;
    e.tid = tid;
    e.name = name;
    e.cat = category;
    events.push_back(std::move(e));
}

void
TraceWriter::flowStart(Tick when, const std::string &name, int tid,
                       std::uint64_t id, const char *category)
{
    if (!room())
        return;
    Ev e;
    e.ph = 's';
    e.ts = when;
    e.tid = tid;
    e.id = id;
    e.name = name;
    e.cat = category;
    events.push_back(std::move(e));
}

void
TraceWriter::flowFinish(Tick when, const std::string &name, int tid,
                        std::uint64_t id, const char *category)
{
    if (!room())
        return;
    Ev e;
    e.ph = 'f';
    e.ts = when;
    e.tid = tid;
    e.id = id;
    e.name = name;
    e.cat = category;
    events.push_back(std::move(e));
}

// ---------------------------------------------------------------------
// Export helpers
// ---------------------------------------------------------------------

namespace
{

/**
 * Fixed, locale-independent number rendering. Identical doubles
 * (which identical seeds guarantee) always format identically, so
 * exports diff clean. Non-finite values become JSON null.
 */
void
putNum(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    os << buf;
}

void
putEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
putEntryJson(std::ostream &os, const Registry::Entry &e)
{
    switch (e.kind) {
      case Registry::Kind::Counter:
        os << *e.raw;
        break;
      case Registry::Kind::Gauge:
        putNum(os, e.probe());
        break;
      case Registry::Kind::Average: {
        const auto &a = *e.avg;
        os << "{\"count\":" << a.count() << ",\"mean\":";
        putNum(os, a.mean());
        os << ",\"min\":";
        putNum(os, a.min());
        os << ",\"max\":";
        putNum(os, a.max());
        os << ",\"total\":";
        putNum(os, a.total());
        os << "}";
        break;
      }
      case Registry::Kind::Histogram: {
        const auto &h = *e.hist;
        os << "{\"count\":" << h.summary().count() << ",\"mean\":";
        putNum(os, h.summary().mean());
        os << ",\"buckets\":[";
        const char *sep = "";
        for (auto b : h.buckets()) {
            os << sep << b;
            sep = ",";
        }
        os << "]}";
        break;
      }
    }
}

const char *
kindName(Registry::Kind k)
{
    switch (k) {
      case Registry::Kind::Counter:
        return "counter";
      case Registry::Kind::Gauge:
        return "gauge";
      case Registry::Kind::Average:
        return "average";
      case Registry::Kind::Histogram:
        return "histogram";
    }
    return "?";
}

} // namespace

void
TraceWriter::write(std::ostream &os) const
{
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    const char *sep = "\n";
    for (const auto &e : events) {
        os << sep << "{\"ph\":\"" << e.ph << "\",\"ts\":";
        // trace_event timestamps are microseconds; ticks are ps.
        putNum(os, static_cast<double>(e.ts) / 1e6);
        os << ",\"pid\":0,\"tid\":" << e.tid << ",\"name\":";
        putEscaped(os, e.name);
        if (e.ph == 'C') {
            os << ",\"args\":{\"value\":";
            putNum(os, e.value);
            os << "}";
        } else {
            os << ",\"cat\":\"" << e.cat << "\"";
            if (e.ph == 'X') {
                os << ",\"dur\":";
                putNum(os, static_cast<double>(e.dur) / 1e6);
            }
            if (e.ph == 'i')
                os << ",\"s\":\"t\"";
            if (e.ph == 's' || e.ph == 'f') {
                os << ",\"id\":" << e.id;
                // Bind the finish to the *end* of its enclosing
                // slice, so Perfetto draws the arrow span-to-span.
                if (e.ph == 'f')
                    os << ",\"bp\":\"e\"";
            }
            os << ",\"args\":{}";
        }
        os << "}";
        sep = ",\n";
    }
    os << "\n]}\n";
}

void
exportJson(std::ostream &os, const Registry &reg, const Sampler *sampler,
           Tick now)
{
    os << "{\"schema\":\"gs-telemetry-1\",\"now_ps\":" << now
       << ",\"stats\":{";
    const char *sep = "\n";
    for (const auto &[p, e] : reg.entries()) {
        if (e.wallClock)
            continue; // host-timing value; keep exports reproducible
        os << sep;
        putEscaped(os, p);
        os << ":";
        putEntryJson(os, e);
        sep = ",\n";
    }
    os << "\n}";
    if (sampler) {
        os << ",\"series\":{\"interval_ps\":" << sampler->interval()
           << ",\"t_ps\":[";
        sep = "";
        for (Tick t : sampler->times()) {
            os << sep << t;
            sep = ",";
        }
        os << "],\"paths\":{";
        sep = "\n";
        for (const auto &s : sampler->series()) {
            os << sep;
            putEscaped(os, s.path);
            os << ":[";
            const char *vsep = "";
            for (double v : s.values) {
                os << vsep;
                putNum(os, v);
                vsep = ",";
            }
            os << "]";
            sep = ",\n";
        }
        os << "\n}}";
    }
    os << "}\n";
}

void
exportCsv(std::ostream &os, const Registry &reg)
{
    os << "path,kind,value\n";
    for (const auto &[p, e] : reg.entries()) {
        if (e.wallClock)
            continue; // host-timing value; keep exports reproducible
        os << p << "," << kindName(e.kind) << ",";
        putNum(os, scalarOf(e));
        os << "\n";
    }
}

void
exportSeriesCsv(std::ostream &os, const Sampler &sampler)
{
    os << "t_ps";
    for (const auto &s : sampler.series())
        os << "," << s.path;
    os << "\n";
    const auto &times = sampler.times();
    for (std::size_t i = 0; i < times.size(); ++i) {
        os << times[i];
        for (const auto &s : sampler.series()) {
            os << ",";
            putNum(os, s.values[i]);
        }
        os << "\n";
    }
}

} // namespace gs::telem
