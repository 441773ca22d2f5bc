/**
 * @file
 * One benchmark operation: build one GS1280 workload, run it to
 * completion, check the result and print every raw measurement as one
 * JSON line. perfbench/run.py spawns this binary once per operation
 * (so set-up and peak RSS are per process) and turns the raw values
 * into the benchmark's metrics.
 *
 *   gsbench --workload stream16|gups32|fluent16|gups2048 --seed N
 *           [--scale full|tiny] [--trace 0|1] [--expect-digest HEX]
 *           [--setup-only 1]
 *
 * --trace 1 runs a SIGPROF program-counter sampler over Machine::run
 * and times one in eight TrafficSource::next() calls; the samples are
 * printed as executable offsets (symbolized by run.py with nm) plus
 * per-shared-object counts. Build, verify and export are timed as
 * spans instead. The simulation itself is identical either
 * way: the export digest must not change with tracing.
 *
 * --setup-only 1 stops after building the machine and its traffic,
 * so run.py can sample set-up time several times per run.
 */

#include <link.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "coherence/checker.hh"
#include "sim/telemetry.hh"
#include "system/machine.hh"
#include "workload/fluent.hh"
#include "workload/gups.hh"
#include "workload/stream.hh"

namespace
{

using namespace gs;
using HostClock = std::chrono::steady_clock;

double
secondsSince(HostClock::time_point t0)
{
    return std::chrono::duration<double>(HostClock::now() - t0).count();
}

/** Seconds on CLOCK_MONOTONIC, the clock Python's time.monotonic()
 *  reads, so run.py can measure set-up from before it spawned us. */
double
monotonicNow()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/**
 * @name Program-counter sampler
 *
 * ITIMER_PROF fires on process CPU time, so every thread that burns
 * CPU (the parallel engine's workers included) gets sampled. The
 * handler only stores the interrupted PC into a preallocated buffer.
 */
/// @{
std::uintptr_t *sampleBuf = nullptr;
std::size_t sampleCap = 0;
std::atomic<std::size_t> sampleCount{0};

void
onProfSignal(int, siginfo_t *, void *uctx)
{
    const auto *uc = static_cast<const ucontext_t *>(uctx);
#if defined(__x86_64__)
    auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "perfbench sampler: unsupported architecture"
#endif
    std::size_t i = sampleCount.fetch_add(1, std::memory_order_relaxed);
    if (i < sampleCap)
        sampleBuf[i] = pc;
}

void
startSampler(std::vector<std::uintptr_t> &buf, int hz)
{
    sampleBuf = buf.data();
    sampleCap = buf.size();
    struct sigaction sa{};
    sa.sa_sigaction = onProfSignal;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    itimerval it{};
    it.it_interval.tv_usec = 1000000 / hz;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, nullptr);
}

void
stopSampler()
{
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    signal(SIGPROF, SIG_IGN);
}

/** One loaded object's executable address ranges. */
struct LoadedObject
{
    std::string name; ///< "" for the main program
    std::uintptr_t bias = 0;
    std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
};

int
collectObject(dl_phdr_info *info, std::size_t, void *data)
{
    auto &objs = *static_cast<std::vector<LoadedObject> *>(data);
    LoadedObject o;
    o.name = info->dlpi_name ? info->dlpi_name : "";
    o.bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; ++i) {
        const auto &ph = info->dlpi_phdr[i];
        if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X)) {
            std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
            o.ranges.emplace_back(lo, lo + ph.p_memsz);
        }
    }
    objs.push_back(std::move(o));
    return 0;
}

/**
 * Bucket the samples: main-program PCs as link-time addresses (what
 * `nm` prints), shared-object PCs by object basename, the rest (no
 * loaded object) as anonymous.
 */
std::string
samplesJson(std::size_t n)
{
    std::vector<LoadedObject> objs;
    dl_iterate_phdr(collectObject, &objs);
    std::map<std::uintptr_t, std::uint64_t> exe;
    std::map<std::string, std::uint64_t> libs;
    std::uint64_t anon = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::uintptr_t pc = sampleBuf[i];
        const LoadedObject *hit = nullptr;
        for (const auto &o : objs) {
            for (const auto &[lo, hi] : o.ranges)
                if (pc >= lo && pc < hi)
                    hit = &o;
            if (hit)
                break;
        }
        if (!hit) {
            ++anon;
        } else if (hit->name.empty()) {
            ++exe[pc - hit->bias];
        } else {
            auto slash = hit->name.rfind('/');
            ++libs[slash == std::string::npos
                       ? hit->name
                       : hit->name.substr(slash + 1)];
        }
    }
    std::ostringstream os;
    os << "{\"total\":" << n << ",\"anon\":" << anon << ",\"libs\":{";
    const char *sep = "";
    for (const auto &[name, c] : libs) {
        os << sep << "\"" << name << "\":" << c;
        sep = ",";
    }
    os << "},\"exe\":[";
    sep = "";
    for (const auto &[off, c] : exe) {
        os << sep << "[" << off << "," << c << "]";
        sep = ",";
    }
    os << "]}";
    return os.str();
}
/// @}

/**
 * Forwarding TrafficSource: counts next() calls and, in the traced
 * run, estimates the host time spent producing them (the workload
 * layer's own cost, which the core calls inline).
 */
class CountingSource : public cpu::TrafficSource
{
  public:
    CountingSource(std::unique_ptr<cpu::TrafficSource> inner, bool timed)
        : inner_(std::move(inner)), timed_(timed)
    {
    }

    std::optional<cpu::MemOp>
    next() override
    {
        // Timing every call would cost more than most next() bodies;
        // a fixed one-in-eight sample, scaled up, keeps the traced
        // run close to the untraced one.
        const bool timeThis = timed_ && ops_ % timedEvery == 0;
        ++ops_;
        if (!timeThis)
            return inner_->next();
        auto t0 = HostClock::now();
        auto op = inner_->next();
        ns_ += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                HostClock::now() - t0)
                .count());
        return op;
    }

    cpu::TrafficSource &inner() { return *inner_; }
    std::uint64_t ops() const { return ops_; }
    std::uint64_t nanos() const { return ns_ * timedEvery; }

  private:
    static constexpr std::uint64_t timedEvery = 8;

    std::unique_ptr<cpu::TrafficSource> inner_;
    bool timed_;
    std::uint64_t ops_ = 0;
    std::uint64_t ns_ = 0;
};

/** The four workloads; see perfbench/README.md for why each. */
enum class Workload
{
    Stream16,
    Gups32,
    Fluent16,
    Gups2048,
};

struct Options
{
    Workload wl = Workload::Stream16;
    std::string wlName;
    std::uint64_t seed = 1;
    bool tiny = false;
    bool trace = false;
    bool setupOnly = false;
    std::string expectDigest;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "gsbench: %s\nusage: gsbench --workload "
                 "stream16|gups32|fluent16|gups2048 --seed N "
                 "[--scale full|tiny] [--trace 0|1] "
                 "[--expect-digest HEX] [--setup-only 1]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWl = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        std::string v = argv[++i];
        if (a == "--workload") {
            static const std::map<std::string, Workload> names = {
                {"stream16", Workload::Stream16},
                {"gups32", Workload::Gups32},
                {"fluent16", Workload::Fluent16},
                {"gups2048", Workload::Gups2048}};
            auto it = names.find(v);
            if (it == names.end())
                usage("unknown workload " + v);
            o.wl = it->second;
            o.wlName = v;
            haveWl = true;
        } else if (a == "--seed") {
            try {
                o.seed = std::stoull(v);
            } catch (...) {
                usage("bad seed " + v);
            }
        } else if (a == "--scale") {
            if (v != "full" && v != "tiny")
                usage("bad scale " + v);
            o.tiny = v == "tiny";
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("bad trace flag " + v);
            o.trace = v == "1";
        } else if (a == "--setup-only") {
            o.setupOnly = v == "1";
        } else if (a == "--expect-digest") {
            o.expectDigest = v;
        } else {
            usage("unknown option " + a);
        }
    }
    if (!haveWl)
        usage("--workload is required");
    return o;
}

/** A built machine plus its traffic and how to score the run. */
struct Experiment
{
    std::unique_ptr<sys::Machine> m;
    std::vector<std::unique_ptr<CountingSource>> sources;
    std::string engine = "serial";
    std::string tileShape = "1x1x1";
    std::string headlineUnit;
    /** Headline model result from the finished run and its
     *  simulated duration in ns. */
    double (*headline)(Experiment &, double simNs) = nullptr;
};

template <typename T>
T &
innerAs(CountingSource &s)
{
    return static_cast<T &>(s.inner());
}

double
gupsMups(Experiment &e, double simNs)
{
    double updates = 0;
    for (auto &s : e.sources)
        updates += static_cast<double>(
            innerAs<wl::Gups>(*s).updatesIssued());
    return updates / (simNs * 1e-9) / 1e6;
}

double
streamGBs(Experiment &e, double simNs)
{
    double lines = 0;
    for (auto &s : e.sources)
        lines += static_cast<double>(
            innerAs<wl::StreamTriad>(*s).linesProcessed());
    return lines * wl::StreamTriad::bytesPerLine / simNs;
}

double
fluentRating(Experiment &e, double simNs)
{
    // Same scaling as bench/fig19_fluent: cells/s into the paper's
    // "rating" ballpark.
    double cells = 0;
    for (auto &s : e.sources)
        cells += static_cast<double>(
            innerAs<wl::FluentCfd>(*s).cellsDone());
    return cells / (simNs * 1e-9) / 5.0e5;
}

void
addGups(Experiment &e, int cpus, std::uint64_t bytesPerNode,
        std::uint64_t updates, std::uint64_t seed, bool timed)
{
    const std::uint64_t base = Rng::deriveSeed(seed, 0);
    for (int c = 0; c < cpus; ++c) {
        e.sources.push_back(std::make_unique<CountingSource>(
            std::make_unique<wl::Gups>(
                cpus, bytesPerNode, updates,
                Rng::deriveSeed(base, static_cast<std::uint64_t>(c))),
            timed));
    }
    e.headlineUnit = "Mup/s";
    e.headline = gupsMups;
}

Experiment
build(const Options &o)
{
    Experiment e;
    sys::Gs1280Options opt;
    opt.seed = o.seed;
    switch (o.wl) {
      case Workload::Stream16: {
        e.m = sys::Machine::buildGS1280(16, opt);
        const std::uint64_t bytes = o.tiny ? 128ULL << 10 : 2ULL << 20;
        for (int c = 0; c < 16; ++c) {
            // The seed places each CPU's arrays at a page offset in
            // its local region; the access pattern stays STREAM's.
            const std::uint64_t offset =
                (Rng::deriveSeed(o.seed, static_cast<std::uint64_t>(c)) %
                 256) *
                4096;
            e.sources.push_back(std::make_unique<CountingSource>(
                std::make_unique<wl::StreamTriad>(e.m->cpuAddr(c, offset),
                                                  bytes),
                o.trace));
        }
        e.headlineUnit = "GB/s";
        e.headline = streamGBs;
        break;
      }
      case Workload::Gups32:
        opt.mlp = 16;
        e.m = sys::Machine::buildGS1280(32, opt);
        addGups(e, 32, 256ULL << 20, o.tiny ? 300 : 3000, o.seed,
                o.trace);
        break;
      case Workload::Fluent16: {
        e.m = sys::Machine::buildGS1280(16, opt);
        wl::FluentParams prm;
        prm.iterations = 1;
        if (o.tiny) {
            prm.blockBytes = 64ULL << 10;
            prm.blocksPerIter = 2;
            prm.reusePasses = 2;
        }
        // FluentCfd has no random input: the seed reaches only the
        // machine (see README.md).
        for (int c = 0; c < 16; ++c) {
            e.sources.push_back(std::make_unique<CountingSource>(
                std::make_unique<wl::FluentCfd>(c, 16, prm), o.trace));
        }
        e.headlineUnit = "rating";
        e.headline = fluentRating;
        break;
      }
      case Workload::Gups2048: {
        // Pinned to the shape chooseTileShape3(16, 16, 8, 4) picks,
        // so a change to the chooser does not change the workload.
        opt.threads = 4;
        opt.tileRows = 2;
        opt.tileCols = 2;
        opt.tileSlabs = 1;
        const int z = o.tiny ? 4 : 8;
        const int xy = o.tiny ? 8 : 16;
        e.m = sys::Machine::buildGS1280_3D(xy, xy, z, opt);
        addGups(e, e.m->cpuCount(), 1ULL << 20, o.tiny ? 10 : 50, o.seed,
                o.trace);
        e.engine = "parallel/4";
        e.tileShape = "2x2x1";
        break;
      }
    }
    return e;
}

/** FNV-1a, 64 bit: a digest of the deterministic export. */
std::string
digestOf(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

/** Accumulates `"key":value` pairs of one JSON object. */
class JsonObject
{
  public:
    JsonObject &
    add(const std::string &k, double v)
    {
        return raw(k, num(v));
    }

    JsonObject &
    str(const std::string &k, const std::string &v)
    {
        return raw(k, "\"" + v + "\"");
    }

    JsonObject &
    raw(const std::string &k, const std::string &json)
    {
        os_ << sep_ << "\"" << k << "\":" << json;
        sep_ = ",";
        return *this;
    }

    std::string text() const { return "{" + os_.str() + "}"; }

  private:
    std::ostringstream os_;
    const char *sep_ = "";
};

/**
 * Layer counters after the run. Per-node values come from the
 * components' own statistics and from a scratch registry per router,
 * so 2-D machines and the 3-D ones (whose machine registry holds only
 * aggregates) read the same way.
 */
JsonObject
layerCounts(Experiment &e)
{
    auto &m = *e.m;
    const auto &reg = m.telemetry();
    auto regOr0 = [&reg](const char *p) {
        return reg.has(p) ? reg.value(p) : 0.0;
    };

    double accesses = 0, hits = 0, misses = 0, merges = 0, msgs = 0,
           forwards = 0, invals = 0;
    double zReads = 0, zWrites = 0, rowHits = 0, rowAll = 0, busy = 0;
    int zboxes = 0;
    double vcStalls = 0, linkBusyMax = 0;
    const Tick now = m.ctx().now();
    for (NodeId n = 0; n < NodeId(m.nodeCount()); ++n) {
        telem::Registry scratch;
        m.network().router(n).registerTelemetry(
            scratch, "r", [](int p) { return std::to_string(p); });
        for (const auto &[p, ent] : scratch.entries()) {
            (void)ent;
            if (p.find(".vc.") != std::string::npos &&
                p.ends_with(".stalls"))
                vcStalls += scratch.value(p);
            else if (p.ends_with(".busy_frac"))
                linkBusyMax = std::max(linkBusyMax, scratch.value(p));
        }
        if (!m.hasNode(n))
            continue;
        auto &node = m.node(n);
        const auto &st = node.stats();
        accesses += static_cast<double>(st.accesses);
        hits += static_cast<double>(st.l2Hits);
        misses += static_cast<double>(st.misses);
        merges += static_cast<double>(st.mafMerges);
        forwards += static_cast<double>(st.forwardsServed);
        invals += static_cast<double>(st.invalsReceived);
        for (auto s : st.msgSent)
            msgs += static_cast<double>(s);
        for (int z = 0; z < node.zboxCount(); ++z) {
            const auto &zs = node.zbox(z).stats();
            zReads += static_cast<double>(zs.reads);
            zWrites += static_cast<double>(zs.writes);
            rowHits += static_cast<double>(zs.rowHits);
            rowAll += static_cast<double>(zs.rowHits + zs.rowEmpties +
                                          zs.rowConflicts);
            busy += node.zbox(z).utilization(0, now);
            ++zboxes;
        }
    }

    JsonObject j;
    j.add("sim.events", regOr0("eq.fired"))
        .add("sim.peak_pending", regOr0("eq.peak_pending"))
        .add("par.epochs", regOr0("par.epochs"))
        .add("par.lookahead_widened", regOr0("par.lookahead_widened"))
        .add("par.mailbox_arrivals", regOr0("par.mailbox.arrivals"))
        .add("par.barrier_wait_frac", regOr0("par.barrier_wait_frac"))
        .add("par.steal_count", regOr0("par.steal_count"))
        .add("net.packets", regOr0("net.delivered_packets"))
        .add("net.flits", regOr0("net.delivered_flits"))
        .add("net.vc_stalls", vcStalls)
        .add("net.link_busy_max", linkBusyMax)
        .add("net.latency_mean_ns", regOr0("net.latency_ns"))
        .add("net.pool_allocated", regOr0("net.packet_pool.allocated"))
        .add("coher.accesses", accesses)
        .add("coher.misses", misses)
        .add("coher.l2_hit_ratio", accesses > 0 ? hits / accesses : 0.0)
        .add("coher.maf_merges", merges)
        .add("coher.msgs", msgs)
        .add("coher.forwards", forwards)
        .add("coher.invals", invals)
        .add("mem.zbox_reads", zReads)
        .add("mem.zbox_writes", zWrites)
        .add("mem.row_hit_ratio", rowAll > 0 ? rowHits / rowAll : 0.0)
        .add("mem.zbox_busy_frac", zboxes > 0 ? busy / zboxes : 0.0)
        .add("mem.model_mb", regOr0("mem.model_bytes") / (1024.0 * 1024.0))
        .add("telem.paths", static_cast<double>(reg.size()));
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);

    auto t0 = HostClock::now();
    Experiment e = build(o);
    const double buildS = secondsSince(t0);
    std::vector<cpu::TrafficSource *> sources;
    for (auto &s : e.sources)
        sources.push_back(s.get());

    if (o.setupOnly) {
        // A set-up probe: the time to here is all run.py wants.
        std::printf("{\"run_start_mono\":%s}\n",
                    num(monotonicNow()).c_str());
        std::fflush(stdout);
        std::_Exit(0); // skip tearing down a machine nobody ran
    }

    std::vector<std::string> errors;
    const Tick simStart = e.m->ctx().now();
    const double runStartMono = monotonicNow();
    std::vector<std::uintptr_t> samples;
    if (o.trace) {
        samples.resize(std::size_t(1) << 20);
        startSampler(samples, 1000);
    }
    const double cpu0 = cpuSeconds();
    t0 = HostClock::now();
    const bool completed = e.m->run(sources, 30000 * tickMs);
    const double runS = secondsSince(t0);
    const double cpuS = cpuSeconds() - cpu0;
    std::size_t nSamples = 0;
    if (o.trace) {
        stopSampler();
        nSamples = std::min(sampleCount.load(), sampleCap);
    }
    const double simNs = ticksToNs(e.m->ctx().now() - simStart);
    if (!completed)
        errors.push_back("Machine::run did not complete");

    t0 = HostClock::now();
    std::vector<coher::CoherentNode *> nodes;
    for (NodeId n = 0; n < NodeId(e.m->nodeCount()); ++n)
        if (e.m->hasNode(n))
            nodes.push_back(&e.m->node(n));
    const auto audit = coher::verifyCoherence(nodes);
    const double verifyS = secondsSince(t0);
    if (!audit)
        errors.push_back("coherence: " + audit.firstViolation);
    const auto &net = e.m->network().stats();
    if (net.injectedPackets != net.deliveredPackets ||
        net.droppedPackets != 0) {
        errors.push_back("packets: injected " +
                         std::to_string(net.injectedPackets) +
                         " delivered " +
                         std::to_string(net.deliveredPackets) +
                         " dropped " +
                         std::to_string(net.droppedPackets));
    }

    t0 = HostClock::now();
    std::ostringstream exported;
    telem::exportJson(exported, e.m->telemetry(), nullptr,
                      e.m->ctx().now());
    const double exportS = secondsSince(t0);
    const std::string digest = digestOf(exported.str());
    if (!o.expectDigest.empty() && digest != o.expectDigest) {
        errors.push_back("export digest " + digest + " != expected " +
                         o.expectDigest);
    }

    std::uint64_t ops = 0, nextNs = 0;
    for (auto &s : e.sources) {
        ops += s->ops();
        nextNs += s->nanos();
    }
    JsonObject counts = layerCounts(e);
    counts.add("workload.ops", static_cast<double>(ops))
        .add("telem.export_bytes", static_cast<double>(exported.str().size()));

    std::string errJson = "[";
    for (std::size_t i = 0; i < errors.size(); ++i) {
        std::string esc;
        for (char c : errors[i])
            esc += c == '"' || c == '\\' ? ' ' : c;
        errJson += (i ? ",\"" : "\"") + esc + "\"";
    }
    errJson += "]";

    JsonObject spans;
    spans.add("span.build_s", buildS)
        .add("span.run_s", runS)
        .add("span.verify_s", verifyS)
        .add("span.export_s", exportS)
        .add("span.next_s", static_cast<double>(nextNs) * 1e-9);
    JsonObject manifest;
    manifest.str("workload", o.wlName)
        .str("scale", o.tiny ? "tiny" : "full")
        .add("seed", static_cast<double>(o.seed))
        .str("engine", e.engine)
        .str("tile_shape", e.tileShape)
        .str("build_type", GSBENCH_BUILD_TYPE)
        .str("compiler", GSBENCH_COMPILER);
    JsonObject model;
    model.add("model.sim_ns", simNs)
        .add("model.headline", e.headline(e, simNs))
        .str("unit", e.headlineUnit);

    JsonObject out;
    out.raw("ok", errors.empty() ? "true" : "false")
        .raw("errors", errJson)
        .raw("manifest", manifest.text())
        .add("run_start_mono", runStartMono)
        .add("run_s", runS)
        .add("cpu_s", cpuS)
        .add("peak_rss_mb", peakRssMb())
        .str("digest", digest)
        .raw("counts", counts.text())
        .raw("spans", spans.text())
        .raw("model", model.text());
    if (o.trace)
        out.raw("samples", samplesJson(nSamples));
    std::printf("%s\n", out.text().c_str());
    return 0;
}
