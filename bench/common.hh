/**
 * @file
 * Shared helpers for the bench harnesses. Every bench binary
 * regenerates one table or figure of the paper; these helpers keep
 * the measurements and the output format uniform.
 */

#ifndef GS_BENCH_COMMON_HH
#define GS_BENCH_COMMON_HH

#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/args.hh"
#include "sim/logging.hh"
#include "sim/sweep.hh"
#include "sim/table.hh"
#include "sim/telemetry.hh"
#include "system/machine.hh"
#include "workload/pointer_chase.hh"
#include "workload/stream.hh"

namespace gs::bench
{

/**
 * @name Declarative sweeps
 *
 * A figure bench declares its sweep points up front, then submits
 * them to a SweepRunner; points execute across hardware threads
 * (`--jobs N`, default hardware concurrency, `--jobs 1` = the old
 * serial path) and rows come back in declared order. Each point
 * builds its own Machine from the point's counted seed, so output is
 * bit-identical at every jobs value.
 */
/// @{

/** Register the sweep options every figure bench shares. */
inline std::map<std::string, std::string>
withSweepArgs(std::map<std::string, std::string> known = {})
{
    known.emplace("jobs", "worker threads (default: all hardware "
                          "threads; 1 = serial)");
    known.emplace("seed", "master seed for per-point RNG streams "
                          "(default 1)");
    return known;
}

/**
 * Register the parallel-engine options. Only benches that pass
 * machineThreads() and applyTileShape() into their build options
 * register these, so a serial-only bench rejects --threads instead
 * of silently running the serial engine.
 */
inline std::map<std::string, std::string>
withEngineArgs(std::map<std::string, std::string> known = {})
{
    known.emplace("threads", "worker threads per simulated machine "
                             "(default 1 = serial engine; results "
                             "are bit-identical at any value for a "
                             "fixed tile shape, see "
                             "docs/PARALLEL.md)");
    known.emplace("tile-shape",
                  "pin the parallel engine's tile decomposition to "
                  "RxC, or RxCxS on 3-D machines (e.g. 2x4 or "
                  "2x2x2; default: chosen from --threads). Runs "
                  "compared across thread counts must pin the same "
                  "shape");
    return known;
}

/** The --threads value a bench passes into Gs1280Options::threads. */
inline int
machineThreads(const Args &args)
{
    return static_cast<int>(args.getInt("threads", 1));
}

/** Apply --tile-shape=RxC or RxCxS (if given); die on malformed. */
inline void
applyTileShape(const Args &args, sys::Gs1280Options &opt)
{
    const std::string shape = args.getString("tile-shape", "");
    if (shape.empty())
        return;
    std::size_t x = shape.find('x');
    int r = 0, c = 0, s = 0;
    if (x != std::string::npos && x > 0 && x + 1 < shape.size()) {
        std::size_t x2 = shape.find('x', x + 1);
        try {
            r = std::stoi(shape.substr(0, x));
            if (x2 == std::string::npos) {
                c = std::stoi(shape.substr(x + 1));
                s = 1;
            } else {
                c = std::stoi(shape.substr(x + 1, x2 - x - 1));
                s = std::stoi(shape.substr(x2 + 1));
            }
        } catch (...) {
            r = c = s = 0;
        }
    }
    if (r < 1 || c < 1 || s < 1) {
        gs_fatal("--tile-shape=", shape,
                 ": expected RxC or RxCxS with positive integers "
                 "(e.g. 2x4 or 2x4x2)");
    }
    opt.tileRows = r;
    opt.tileCols = c;
    opt.tileSlabs = s;
}

/** Build the runner a bench's --jobs/--seed options ask for. */
inline SweepRunner
makeRunner(const Args &args)
{
    return SweepRunner(
        static_cast<int>(args.getInt("jobs", 0)),
        static_cast<std::uint64_t>(args.getInt("seed", 1)));
}

/** A table row produced by one sweep point. */
using Row = std::vector<std::string>;

/**
 * Run one declared point per table row: @p fn maps (point,
 * SweepPoint) to that row's cells; rows land in declared order.
 */
template <typename P, typename Fn>
Table
sweepTable(SweepRunner &runner, std::vector<std::string> header,
           const std::vector<P> &points, Fn &&fn)
{
    Table t(std::move(header));
    for (auto &row : runner.map(points, std::forward<Fn>(fn)))
        t.addRow(std::move(row));
    return t;
}

/// @}

/**
 * @name Machine telemetry plumbing
 *
 * Benches that expose the telemetry layer share four options:
 * `--stats-out=FILE` writes a full registry snapshot after the run
 * (JSON, or scalar CSV when FILE ends in .csv), `--trace=FILE`
 * writes a Chrome trace_event file Perfetto can open,
 * `--sample-interval=NS` sets the time-series cadence in simulated
 * nanoseconds, and `--verbose` prints simulator self-metrics to
 * stderr. A TelemetrySession wires all of it to one Machine; with no
 * option given it attaches nothing and the run is unobserved.
 */
/// @{

/** Register the telemetry options (compose with withSweepArgs). */
inline std::map<std::string, std::string>
withTelemetryArgs(std::map<std::string, std::string> known = {})
{
    known.emplace("stats-out", "write a telemetry snapshot to FILE "
                               "(JSON; scalar CSV when FILE ends in "
                               ".csv)");
    known.emplace("trace", "write a Chrome trace_event file to FILE "
                           "(open in Perfetto / chrome://tracing)");
    known.emplace("sample-interval", "time-series sampling cadence in "
                                     "simulated ns (default 1000)");
    known.emplace("verbose", "print simulator self-metrics (events "
                             "fired, events/s, peak queue, event and "
                             "model memory) to stderr");
    known.emplace("trace-sample",
                  "latency x-ray: sample this fraction of coherence "
                  "misses for per-stage span tracing (0..1, default 0 "
                  "= off; deterministic for a fixed --seed at any "
                  "--threads, see docs/TRACING.md)");
    known.emplace("span-trace",
                  "write the sampled spans as a Chrome trace_event "
                  "file to FILE (works with --threads > 1 and with "
                  "checkpointing, unlike --trace)");
    return known;
}

/**
 * Apply --trace-sample to @p opt before buildGS1280. Spans are wired
 * at machine construction (the collector is a checkpoint client, so
 * it must exist before any snapshot is cut), which is why this is a
 * builder-option helper rather than a TelemetrySession duty.
 */
inline void
applySpanSampling(const Args &args, sys::Gs1280Options &opt)
{
    const double rate = args.getDouble("trace-sample", 0.0);
    if (rate < 0.0 || rate > 1.0)
        gs_fatal("--trace-sample=", rate, ": expected a fraction in "
                 "[0, 1]");
    if (rate == 0.0 && !args.getString("span-trace", "").empty()) {
        gs_fatal("--span-trace needs --trace-sample > 0: no spans "
                 "are collected at the default rate of 0");
    }
    opt.spanSampleRate = rate;
}

/**
 * Binds the shared telemetry options to one Machine: attaches the
 * trace writer, samples every external-link and memory-controller
 * utilization, and writes the requested files in finish().
 *
 * @p force_sample starts the sampler even with no output file, for
 * benches that read the time-series directly (ext_link_heatmap).
 */
class TelemetrySession
{
  public:
    TelemetrySession(const Args &args, sys::Machine &m,
                     bool force_sample = false)
        : machine(m),
          statsPath(args.getString("stats-out", "")),
          tracePath(args.getString("trace", "")),
          spanTracePath(args.getString("span-trace", "")),
          verbose(args.getBool("verbose", false)),
          wallStart(std::chrono::steady_clock::now())
    {
        // A bad output path is a user error; fail before the run,
        // not after the simulation time is already spent.
        checkWritable(statsPath);
        checkWritable(tracePath);
        checkWritable(spanTracePath);
        if (!spanTracePath.empty() && !machine.spans()) {
            gs_fatal("--span-trace needs span sampling enabled: pass "
                     "--trace-sample and apply it with "
                     "applySpanSampling() before buildGS1280");
        }
        if (machine.isParallel() && !tracePath.empty()) {
            gs_fatal("--trace requires --threads 1: event tracing "
                     "hooks the serial engine");
        }
        if (!tracePath.empty()) {
            trace_ = std::make_unique<telem::TraceWriter>();
            machine.attachTrace(*trace_);
        }
        if (!statsPath.empty() || trace_ || force_sample) {
            if (machine.isParallel()) {
                // The sampler's periodic event would read counters
                // other worker threads are writing; snapshots taken
                // after the run in finish() are still exact.
                std::cerr << "# telemetry: time-series sampling is "
                             "serial-only; --threads > 1 writes "
                             "end-of-run snapshots without a "
                             "series\n";
            } else {
                Tick interval = nsToTicks(
                    args.getDouble("sample-interval", 1000.0));
                sampler_ = std::make_unique<telem::Sampler>(
                    machine.ctx(), machine.telemetry(), interval);
                watchLinkUtilization();
                watchMemUtilization();
                if (trace_)
                    sampler_->mirrorToTrace(*trace_);
                sampler_->start();
            }
        }
    }

    bool active() const { return sampler_ != nullptr; }
    telem::Sampler *sampler() { return sampler_.get(); }
    telem::TraceWriter *trace() { return trace_.get(); }

    /** Write the requested files; print --verbose self-metrics. */
    void
    finish()
    {
        if (sampler_)
            sampler_->stop();
        // Canonical single-threaded merge of completed spans; must
        // run before the stats export so the xray.* histograms and
        // counters reflect this run (idempotent, cheap when off).
        if (machine.spans())
            machine.spans()->finalize();
        if (!spanTracePath.empty()) {
            telem::TraceWriter spanTrace;
            machine.spans()->exportTrace(spanTrace);
            std::ofstream os(spanTracePath);
            if (!os.good())
                gs_fatal("cannot write ", spanTracePath);
            spanTrace.write(os);
            if (spanTrace.dropped() > 0) {
                std::cerr << "# span-trace: capacity cap hit, "
                          << spanTrace.dropped()
                          << " event(s) not recorded\n";
            }
        }
        if (!statsPath.empty()) {
            std::ofstream os(statsPath);
            if (!os.good())
                gs_fatal("cannot write ", statsPath);
            if (endsWith(statsPath, ".csv")) {
                telem::exportCsv(os, machine.telemetry());
            } else {
                telem::exportJson(os, machine.telemetry(),
                                  sampler_.get(), machine.ctx().now());
            }
        }
        if (trace_) {
            std::ofstream os(tracePath);
            if (!os.good())
                gs_fatal("cannot write ", tracePath);
            trace_->write(os);
            if (trace_->dropped() > 0) {
                std::cerr << "# trace: capacity cap hit, "
                          << trace_->dropped()
                          << " event(s) not recorded\n";
            }
        }
        if (verbose) {
            double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wallStart)
                    .count();
            // The eq.* gauges sum over every domain queue when the
            // machine is parallel and read the one global queue when
            // it is serial, so this block works for both engines.
            const auto &reg = machine.telemetry();
            auto count = [&reg](const char *path) {
                return static_cast<std::uint64_t>(reg.value(path));
            };
            const std::uint64_t fired = count("eq.fired");
            std::cerr << "# self: " << fired << " events fired, peak "
                      << "queue " << count("eq.peak_pending") << ", "
                      << wall << " s wall, "
                      << (wall > 0
                              ? static_cast<double>(fired) / wall
                              : 0.0)
                      << " events/s\n";
            std::cerr << "# self: queue ring " << count("eq.buckets")
                      << " / overflow " << count("eq.overflow")
                      << " pending; packet pool "
                      << count("net.packet_pool.reuse")
                      << " reused / "
                      << count("net.packet_pool.allocated")
                      << " allocated, peak in use "
                      << count("net.packet_pool.peak_in_use")
                      << "\n";
            std::cerr << "# self: event storage "
                      << count("eq.storage_bytes")
                      << " bytes, model memory "
                      << count("mem.model_bytes") << " bytes\n";
            if (machine.isParallel()) {
                std::cerr << "# self: parallel "
                          << count("par.domains") << " domains, "
                          << count("par.epochs") << " epochs, "
                          << "lookahead "
                          << count("par.lookahead_ticks")
                          << " ticks, barrier wait "
                          << reg.value("par.barrier_wait_frac")
                          << " of worker time, mailbox "
                          << count("par.mailbox.arrivals")
                          << " arrivals / "
                          << count("par.mailbox.credits")
                          << " credits\n";
                std::cerr << "# self: tiles "
                          << count("par.tile_rows") << "x"
                          << count("par.tile_cols") << ", "
                          << count("par.lookahead_widened")
                          << " widened epochs\n";
            }
        }
    }

  private:
    static void
    checkWritable(const std::string &path)
    {
        if (path.empty())
            return;
        std::ofstream probe(path);
        if (!probe.good())
            gs_fatal("cannot write ", path);
    }

    static bool
    endsWith(const std::string &s, const std::string &suffix)
    {
        return s.size() >= suffix.size() &&
               s.compare(s.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
    }

    /**
     * Busy fraction of every external link: one flit crosses per
     * network cycle, so delta(flits) * period / interval. Skips the
     * per-VC breakdown (per-port aggregates only).
     */
    void
    watchLinkUtilization()
    {
        double period =
            static_cast<double>(machine.network().period());
        for (const auto &p : machine.telemetry().paths("node.")) {
            if (p.find(".router.port.") == std::string::npos ||
                p.find(".vc.") != std::string::npos ||
                !endsWith(p, ".flits")) {
                continue;
            }
            sampler_->watchRate(p, period);
        }
    }

    /** Memory-controller utilization: busy ticks over channels. */
    void
    watchMemUtilization()
    {
        auto &reg = machine.telemetry();
        for (const auto &p : reg.paths("node.")) {
            if (!endsWith(p, ".busy_ticks"))
                continue;
            std::string base =
                p.substr(0, p.size() - std::string("busy_ticks").size());
            double channels = reg.value(base + "channels");
            sampler_->watchRate(p,
                                channels > 0 ? 1.0 / channels : 0.0);
        }
    }

    sys::Machine &machine;
    std::string statsPath;
    std::string tracePath;
    std::string spanTracePath;
    bool verbose;
    std::chrono::steady_clock::time_point wallStart;
    std::unique_ptr<telem::TraceWriter> trace_;
    std::unique_ptr<telem::Sampler> sampler_;
};

/// @}

/**
 * @name Checkpoint / restore plumbing
 *
 * Benches that run one long-lived machine share three options:
 * `--checkpoint-every=NS` snapshots the whole machine every NS of
 * simulated time (files `PREFIX.N.gsckpt`, atomic tmp+rename),
 * `--checkpoint-prefix=PREFIX` names them (default `gsckpt`), and
 * `--restore-from=FILE` resumes a previous snapshot before running.
 * A restored run continues bit-identically: its final stats export
 * matches the uninterrupted run's byte-for-byte
 * (docs/CHECKPOINT.md). Checkpointing is incompatible with
 * `--trace` — the trace buffer holds unreplayable history.
 */
/// @{

/** Register the checkpoint options (compose with the others). */
inline std::map<std::string, std::string>
withCheckpointArgs(std::map<std::string, std::string> known = {})
{
    known.emplace("checkpoint-every",
                  "snapshot the machine every NS of simulated time "
                  "(default 0 = off; files PREFIX.N.gsckpt)");
    known.emplace("checkpoint-prefix",
                  "snapshot path prefix (default gsckpt)");
    known.emplace("restore-from",
                  "resume from a snapshot file before running");
    return known;
}

/**
 * Binds the shared checkpoint options to one Machine. Construct it
 * AFTER TelemetrySession (the sampler must exist to be registered as
 * a snapshot participant) and call maybeRestore() with the traffic
 * sources right before Machine::run.
 */
class CheckpointSession
{
  public:
    CheckpointSession(const Args &args, sys::Machine &m,
                      telem::Sampler *sampler = nullptr)
        : machine(m),
          restorePath(args.getString("restore-from", ""))
    {
        const double everyNs =
            args.getDouble("checkpoint-every", 0.0);
        if ((everyNs > 0 || !restorePath.empty()) &&
            !args.getString("trace", "").empty()) {
            gs_fatal("--trace is incompatible with checkpointing: "
                     "the trace buffer holds history a snapshot "
                     "cannot replay (drop --trace, or drop "
                     "--checkpoint-every/--restore-from)");
        }
        // Registration order is part of the snapshot layout, so it
        // must match between the saving and the restoring run; both
        // go through this constructor, keeping them in lockstep.
        if (sampler)
            machine.registerCkptClient(*sampler);
        if (everyNs > 0) {
            machine.setCheckpointPolicy(
                nsToTicks(everyNs),
                args.getString("checkpoint-prefix", "gsckpt"));
        }
    }

    /** Apply --restore-from (no-op without it); die loudly on a
     *  corrupt, truncated, or mismatched snapshot. */
    void
    maybeRestore(const std::vector<cpu::TrafficSource *> &sources)
    {
        if (restorePath.empty())
            return;
        std::string err;
        if (!machine.restore(restorePath, sources, &err))
            gs_fatal("--restore-from ", restorePath, ": ", err);
    }

    bool restoring() const { return !restorePath.empty(); }

  private:
    sys::Machine &machine;
    std::string restorePath;
};

/// @}

/**
 * End-to-end dependent-load latency (ns) of CPU @p from chasing a
 * cold chain in CPU @p to's region: total time / loads, the
 * load-to-use number the paper's lmbench plots report.
 */
inline double
dependentLoadNs(sys::Machine &m, int from, int to,
                std::uint64_t dataset = 16ULL << 20,
                std::uint64_t stride = 64, std::uint64_t loads = 8000,
                std::uint64_t offset = 0)
{
    // Offset each probe so repeated measurements stay cold.
    wl::PointerChase chase(m.cpuAddr(to, offset), dataset, stride,
                           loads);
    std::vector<cpu::TrafficSource *> sources(
        static_cast<std::size_t>(from) + 1, nullptr);
    sources[static_cast<std::size_t>(from)] = &chase;
    bool ok = m.run(sources);
    gs_assert(ok, "dependent-load probe timed out");
    return m.core(from).stats().elapsedNs() /
           static_cast<double>(loads);
}

/** STREAM Triad GB/s for CPUs [0, n) on machine @p m. */
inline double
streamTriadGBs(sys::Machine &m, int n,
               std::uint64_t array_bytes = 8ULL << 20)
{
    std::vector<std::unique_ptr<wl::StreamTriad>> kernels;
    std::vector<cpu::TrafficSource *> sources;
    for (int c = 0; c < n; ++c) {
        kernels.push_back(std::make_unique<wl::StreamTriad>(
            m.cpuAddr(c, 0), array_bytes));
        sources.push_back(kernels.back().get());
    }
    Tick start = m.ctx().now();
    bool ok = m.run(sources, 2000 * tickMs);
    gs_assert(ok, "STREAM run timed out");
    double ns = ticksToNs(m.ctx().now() - start);

    double lines = 0;
    for (const auto &k : kernels)
        lines += static_cast<double>(k->linesProcessed());
    return lines * wl::StreamTriad::bytesPerLine / ns;
}

} // namespace gs::bench

#endif // GS_BENCH_COMMON_HH
