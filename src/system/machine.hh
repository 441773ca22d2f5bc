/**
 * @file
 * Whole-machine assembly for the three systems the paper compares:
 *
 *  - GS1280: up to 64 EV7 nodes (core + L1 + 1.75 MB L2 + two RDRAM
 *    Zboxes + router) on a 2-D torus, optionally with the Section 6
 *    memory striping or the Section 4.1 shuffle rewiring;
 *  - GS320: QBBs of four EV68 CPUs (16 MB off-chip L2) sharing a
 *    memory behind a QBB switch, QBBs joined by a global switch;
 *  - ES45: a four-CPU shared-memory SMP (one switch, one memory).
 *
 * A Machine owns the simulation context and every component, and
 * offers the experiment-facing API: build, attach traffic, run to
 * completion, read the counters.
 */

#ifndef GS_SYSTEM_MACHINE_HH
#define GS_SYSTEM_MACHINE_HH

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coherence/node.hh"
#include "cpu/analytic_core.hh"
#include "cpu/core.hh"
#include "cpu/traffic.hh"
#include "fault/degraded.hh"
#include "fault/injector.hh"
#include "fault/watchdog.hh"
#include "mem/address.hh"
#include "net/network.hh"
#include "sim/checkpoint.hh"
#include "sim/context.hh"
#include "sim/parallel.hh"
#include "sim/telemetry.hh"
#include "topology/shuffle.hh"
#include "topology/topology.hh"

namespace gs::sys
{

/** Which system a Machine models. */
enum class SystemKind
{
    GS1280,
    GS320,
    ES45,
};

/** GS1280 build options. */
struct Gs1280Options
{
    int width = 0;  ///< torus columns; 0 = derive from CPU count
    int height = 0; ///< torus rows; 0 = derive
    /**
     * Torus planes. 1 (default) keeps the shipped 2-D fabric; > 1
     * stacks `depth` W x H slabs into a 3-D torus (topology/
     * torus3d.hh) for the 256P-2048P scale-out studies in
     * docs/SCALING.md. 3-D machines need an explicit width/height
     * (use buildGS1280_3D) and support neither shuffle rewiring nor
     * the Section 6 striping's 2-D module pairing semantics changing
     * — striping pairs along Z instead (see moduleBuddy).
     */
    int depth = 1;
    bool striped = false; ///< Section 6 memory striping
    bool shuffle = false; ///< Section 4.1 cable swap (needs W>=4 even)
    topo::ShufflePolicy shufflePolicy = topo::ShufflePolicy::OneHop;
    int mlp = 10; ///< EV7 prefetch sustains ~10 overlapped misses
    std::uint64_t seed = 1;
    /**
     * Worker threads for the conservative parallel engine
     * (docs/PARALLEL.md). 1 = the classic serial event loop. More
     * than 1 partitions the torus into rectangular tiles (one
     * domain per tile) and runs them in barrier-synchronized
     * epochs; results are bit-identical at any thread count *for a
     * fixed tile shape*. Ignored (serial) on a 1x1 torus.
     */
    int threads = 1;
    /**
     * Tile decomposition. 0 = choose from `threads` via
     * gs::chooseTileShape, 2-D and 3-D machines alike (the default
     * decomposition therefore follows the thread count). Runs that
     * must be byte-comparable or snapshot-compatible across
     * *different* thread counts pin an explicit RxC (RxCxS on a 3-D
     * torus) here (--tile-shape in the benches); the shape is
     * recorded in snapshots and checked at restore.
     */
    int tileRows = 0;
    int tileCols = 0;
    int tileSlabs = 0; ///< Z cut of the 3-D tiling (--tile-shape RxCxS)
    /**
     * Latency x-ray sampling rate (docs/TRACING.md): the fraction of
     * coherence misses that carry a per-stage span, chosen by a
     * seed-derived hash of each miss's stable id (bit-identical at
     * any --threads). 0 (default) builds no collector at all; 1
     * traces every miss.
     */
    double spanSampleRate = 0.0;
};

/** The standard torus shape for @p cpus (2x1, 2x2, 4x2, ... 8x8). */
std::pair<int, int> torusShape(int cpus);

/** A fully assembled system. */
class Machine
{
  public:
    static std::unique_ptr<Machine> buildGS1280(int cpus,
                                                Gs1280Options opt = {});

    /**
     * A 3-D-torus GS1280 of @p x * @p y * @p z nodes (the scale-out
     * configurations of docs/SCALING.md: 8x8x4 = 256P up to 16x16x8
     * = 2048P). Fills opt.width/height/depth and delegates to
     * buildGS1280; directory sharer vectors coarsen automatically
     * (coher::NodeConfig::sharerGroupSize) past 64 nodes, and the
     * per-node telemetry subtrees switch to the lite layout so
     * registry size stays flat in machine size.
     */
    static std::unique_ptr<Machine> buildGS1280_3D(int x, int y, int z,
                                                   Gs1280Options opt = {});
    static std::unique_ptr<Machine> buildGS320(int cpus,
                                               std::uint64_t seed = 1,
                                               int mlp = 8);
    static std::unique_ptr<Machine> buildES45(int cpus,
                                              std::uint64_t seed = 1,
                                              int mlp = 8);

    /** @name Component access */
    /// @{
    /**
     * The machine's time/RNG context. Serial: the sole context.
     * Parallel: domain 0's — after any run()/runFor() every domain
     * clock is synced, so now() is the machine time either way.
     */
    SimContext &ctx()
    {
        return par_ ? par_->domainCtx(0) : *context;
    }
    net::Network &network() { return *net; }
    const topo::Topology &topology() const { return *topo_; }
    const mem::AddressMap &addressMap() const { return *map; }
    SystemKind kind() const { return kind_; }

    int cpuCount() const { return nCpus; }
    int nodeCount() const { return topo_->numNodes(); }

    /** Coherence engine of @p node (may be a switch node). */
    coher::CoherentNode &node(NodeId n) { return *nodes[std::size_t(n)]; }
    bool hasNode(NodeId n) const { return nodes[std::size_t(n)] != nullptr; }

    /** Timing core of CPU @p c. */
    cpu::TimingCore &core(int c) { return *cores[std::size_t(c)]; }

    /** True when this machine runs on the parallel engine. */
    bool isParallel() const { return par_ != nullptr; }

    /** The parallel engine, or nullptr for serial machines. */
    ParallelEngine *parallel() { return par_.get(); }
    /// @}

    /** @name Fault injection & health monitoring
     *
     * Every machine routes over a fault::DegradedTopology wrapper;
     * until a fault is applied it forwards verbatim, so healthy runs
     * behave exactly as before. faults() schedules or applies
     * link/router failures; armWatchdog() starts the deadlock /
     * stuck-transaction monitor.
     */
    /// @{
    fault::FaultInjector &faults() { return *injector_; }
    const fault::FaultInjector &faults() const { return *injector_; }

    /** The degraded (maskable) view the network routes over. */
    fault::DegradedTopology &fabric() { return *fabric_; }
    const fault::DegradedTopology &fabric() const { return *fabric_; }

    /**
     * Create (first call) and arm the watchdog. When
     * @p coherenceTimeoutNs > 0 a probe also trips on any MAF miss
     * outstanding longer than that.
     */
    fault::Watchdog &armWatchdog(fault::WatchdogConfig cfg = {},
                                 double coherenceTimeoutNs = 0.0);

    /** The watchdog, if armWatchdog() was called. */
    fault::Watchdog *watchdog() { return watchdog_.get(); }
    /// @}

    /** @name Telemetry
     *
     * Every build registers the whole machine in a per-machine
     * registry: network aggregates under `net.*`, fault accounting
     * under `fault.*`, and per-node subtrees under `node.<n>.*`
     * (router ports/VCs, protocol counters, Zboxes). The registry
     * holds pointers into the components — reading it is always
     * current, and machines in different sweep threads never share
     * state.
     */
    /// @{
    telem::Registry &telemetry() { return telemetry_; }
    const telem::Registry &telemetry() const { return telemetry_; }

    /**
     * True when the registry holds the per-node subtrees: machines
     * of at most 64 nodes. Larger machines register only the
     * machine-wide aggregates.
     */
    bool perNodeTelemetry() const { return topo_->numNodes() <= 64; }

    /**
     * Registry name of router port @p p, as in
     * `node.<n>.router.port.<name>.flits`: E/W/N/S (U/D on the 3-D
     * torus) on GS1280 machines, `p<p>` on other fabrics.
     */
    std::string portName(int p) const;

    /**
     * Stream every coherence message into @p trace as an instant
     * event, observed at its receiver, one Perfetto track per node.
     * @p trace must outlive the machine's runs. Replaces any
     * previously attached message observers.
     */
    void attachTrace(telem::TraceWriter &trace);

    /**
     * The latency x-ray span collector, or nullptr when the machine
     * was built with spanSampleRate == 0. Call finalize() on it
     * after a run before reading xray.* telemetry or exporting the
     * span trace.
     */
    trace::SpanCollector *spans() { return spans_.get(); }
    /// @}

    /** @name Addressing helpers */
    /// @{
    /** An address at byte @p offset of CPU @p c's local region. */
    mem::Addr
    cpuAddr(int c, std::uint64_t offset) const
    {
        return mem::regionBase(static_cast<NodeId>(c)) + offset;
    }

    /** The on-module buddy used by striping (GS1280 only). */
    NodeId moduleBuddy(NodeId n) const;
    /// @}

    /** @name Running experiments */
    /// @{
    /**
     * Attach one TrafficSource per CPU (sources may be fewer than
     * CPUs; extra CPUs stay idle) and run until every core finishes
     * and the machine drains, or @p limit elapses.
     * @return true when everything completed within the limit.
     */
    bool run(const std::vector<cpu::TrafficSource *> &sources,
             Tick limit = 500 * tickMs);

    /** Run the event queue for a fixed duration (open-ended loads). */
    void runFor(Tick duration);

    /** True when cores, protocol and network are all drained. */
    bool drained() const;

    /** Reset every statistic (not state) for a measurement phase. */
    void clearStats();
    /// @}

    /** Per-CPU analytic timing view (for the SPEC IPC model). */
    cpu::MachineTiming analyticTiming() const;

    /** @name Memory accounting (docs/SCALING.md)
     *
     * Model-memory telemetry for the scale-out configurations: how
     * many bytes the per-node simulation state (L2 tags, Zbox bank
     * tables, directory + transaction maps, MAF/VB) occupies right
     * now, versus what the pre-PR-10 dense layout (eager tag arrays,
     * eager bank tables, fat directory entries) would occupy. The
     * ratio is the bytes/node reduction the mem.* bench family and
     * BENCH_scale.json gate on. Exposed in the registry as
     * wall-clock gauges (`mem.*`) — allocation footprints depend on
     * access history and STL growth policy, so they are visible live
     * but excluded from deterministic exports.
     */
    /// @{
    /** Current bytes across every coherent node's simulation state
     *  and every core's private L1. */
    std::size_t memFootprintBytes() const;

    /** Bytes the dense (pre-lazy, fat-directory) layout would need. */
    std::size_t denseMemFootprintBytes() const;
    /// @}

    /** @name Checkpoint / restore / crash recovery
     *
     * save() writes the whole machine — clocks, RNGs, every pending
     * event, network, coherence, cores, workloads, fault state,
     * registered clients — as an atomic, CRC-checked snapshot
     * (docs/CHECKPOINT.md). restore() loads one into an identically
     * built machine (same system, CPU count, seed, options, and
     * engine layout: serial snapshots restore at --threads 1,
     * parallel ones at any --threads > 1 of the same machine) and
     * re-attaches the given traffic sources; the continued run
     * produces exports byte-identical to the uninterrupted one.
     */
    /// @{

    /** Watchdog-triggered crash recovery (serial engine only). */
    struct RollbackPolicy
    {
        /** Snapshot to rewind to when the watchdog trips. */
        std::string snapshotPath;

        /** Rollbacks allowed before hard-failing with diagnostics. */
        int maxRetries = 3;

        /** Suppress still-scheduled fault events after rollback, so
         *  the restored run does not re-wedge on the same fault. */
        bool healFaults = true;
    };

    /** Snapshot the machine to @p path (atomic: tmp + rename). */
    bool save(const std::string &path, std::string *err = nullptr);

    /**
     * Restore from @p path. @p sources must be the same workload
     * set (same count, order and construction) the saved run used;
     * their stream positions are restored from the snapshot and the
     * cores re-attach without perturbation. The next run() call
     * continues the restored execution.
     */
    bool restore(const std::string &path,
                 const std::vector<cpu::TrafficSource *> &sources,
                 std::string *err = nullptr);

    /**
     * Register a bench-owned snapshot participant (e.g. a telemetry
     * Sampler). Registration order must match between the saving and
     * restoring run. @return the client id (EventDesc owner).
     */
    int registerCkptClient(ckpt::Client &client);

    /**
     * Checkpoint every @p everyTicks of simulated time during run(),
     * writing "<pathPrefix>.<n>.gsckpt" (n = 1, 2, ...). 0 disables.
     */
    void setCheckpointPolicy(Tick everyTicks, std::string pathPrefix);

    /** Enable watchdog-triggered rollback (arm a watchdog first). */
    void setRollbackPolicy(RollbackPolicy policy);

    /** The owning component's callback for @p d (empty if none). */
    InlineFn rehydrate(const ckpt::EventDesc &d);

    std::uint64_t checkpointSaves() const { return ckptSaves_; }
    std::uint64_t checkpointRollbacks() const { return ckptRollbacks_; }
    std::uint64_t checkpointRestores() const { return ckptRestores_; }
    /// @}

  private:
    Machine() = default;

    SystemKind kind_ = SystemKind::GS1280;
    int nCpus = 0;

    /** Wrap topo_ in the fault layer and build the network over it. */
    void buildFabric(net::NetworkParams params);

    /** Register every built component (end of each builder). */
    void registerTelemetry();

    /** @name Checkpoint internals (system/machine_ckpt.cc) */
    /// @{
    /** The event queues a snapshot covers, in section order. */
    std::vector<EventQueue *> ckptQueues();

    /** Why restored @p d names no live state of this machine, or null. */
    const char *badEvent(const ckpt::EventDesc &d) const;

    /** Bump nextCkptAt_ past now, save, die loudly on failure. */
    void checkpointNow();

    /** Consume a queued watchdog trip: roll back or hard-fail. */
    void handleRollback();
    /// @}

    std::unique_ptr<SimContext> context;
    std::unique_ptr<ParallelEngine> par_; ///< set by parallel builds
    std::unique_ptr<topo::Topology> topo_;
    std::unique_ptr<fault::DegradedTopology> fabric_;
    std::unique_ptr<mem::AddressMap> map;
    std::unique_ptr<net::Network> net;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::unique_ptr<fault::Watchdog> watchdog_;
    std::vector<std::unique_ptr<coher::CoherentNode>> nodes;
    std::vector<std::unique_ptr<cpu::TimingCore>> cores;
    std::unique_ptr<trace::SpanCollector> spans_;
    telem::Registry telemetry_;

    int torusW = 0, torusH = 0; ///< GS1280 geometry
    int torusD = 1;             ///< torus planes (1 = classic 2-D)

    /** @name Build fingerprint (checked at snapshot restore) */
    /// @{
    std::uint64_t seed_ = 1;
    int mlp_ = 0;
    bool striped_ = false;
    bool shuffle_ = false;
    int shufflePolicy_ = 0;
    int tileR_ = 1, tileC_ = 1; ///< engine decomposition (1x1 = serial)
    int tileS_ = 1;      ///< Z cut of the tiling (1 on 2-D machines)
    int topoKind_ = 0;   ///< 0 = 2-D torus/tree fabrics, 1 = 3-D torus
    /// @}

    int sharerGroup_ = 1; ///< directory sharer-bit granularity

    /** @name Run/restore state */
    /// @{
    std::vector<cpu::TrafficSource *> sources_; ///< attached by run()
    std::shared_ptr<std::atomic<int>> running_; ///< unfinished cores
    bool restored_ = false; ///< next run() continues a restore
    /// @}

    /** @name Checkpoint policy + crash recovery */
    /// @{
    Tick ckptEvery_ = 0;
    std::string ckptPrefix_;
    Tick nextCkptAt_ = 0;
    std::optional<RollbackPolicy> rollback_;
    int retriesUsed_ = 0;
    bool tripPending_ = false;
    std::string pendingTrip_;
    /// @}

    std::vector<ckpt::Client *> clients_;

    /** @name ckpt.* telemetry (restores is wall-clock-shaped: a
     *  restored process cannot distinguish itself in exports, so it
     *  is registered as a wall-clock gauge and skipped there). */
    /// @{
    std::uint64_t ckptSaves_ = 0;
    std::uint64_t ckptBytes_ = 0;
    std::uint64_t ckptRollbacks_ = 0;
    std::uint64_t ckptRestores_ = 0;
    /// @}
};

} // namespace gs::sys

#endif // GS_SYSTEM_MACHINE_HH
