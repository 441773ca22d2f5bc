#include "system/machine.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/logging.hh"
#include "topology/torus.hh"
#include "topology/torus3d.hh"
#include "topology/tree.hh"

namespace gs::sys
{

std::pair<int, int>
torusShape(int cpus)
{
    // The shapes HP shipped: 2x1, 2x2, 4x2, 4x3 (12P), 4x4, 8x4,
    // 8x8; width is the longer dimension ("horizontal" links in the
    // paper's Figure 24 discussion of the 32P machine).
    switch (cpus) {
      case 1:
        return {1, 1};
      case 2:
        return {2, 1};
      case 4:
        return {2, 2};
      case 8:
        return {4, 2};
      case 12:
        return {4, 3};
      case 16:
        return {4, 4};
      case 32:
        return {8, 4};
      case 64:
        return {8, 8};
      default: {
        int w = 1;
        while (w * w < cpus)
            w *= 2;
        gs_assert(cpus % w == 0, "no standard torus shape for ", cpus,
                  " CPUs");
        return {w, cpus / w};
      }
    }
}

NodeId
Machine::moduleBuddy(NodeId n) const
{
    gs_assert(kind_ == SystemKind::GS1280,
              "module buddies exist only on the GS1280");
    if (torusD > 1) {
        // 3-D machines pair adjacent slabs: the buddy is the same
        // (x, y) position one plane over, so striping still spreads a
        // hot region across exactly one link, now a Z hop.
        const auto *t3 =
            static_cast<const topo::Torus3D *>(topo_.get());
        int z = t3->zOf(n);
        int buddyZ = (z % 2 == 0)
                         ? (z + 1 < t3->depth() ? z + 1 : z - 1)
                         : z - 1;
        if (buddyZ < 0)
            buddyZ = z; // degenerate single-plane case
        return t3->nodeAt(t3->xOf(n), t3->yOf(n), buddyZ);
    }
    const auto *torus = static_cast<const topo::Torus2D *>(topo_.get());
    int x = torus->xOf(n), y = torus->yOf(n);
    if (torus->height() == 1)
        return torus->nodeAt((x + 1) % torus->width(), y);
    int buddyY = (y % 2 == 0) ? (y + 1 < torus->height() ? y + 1 : y - 1)
                              : y - 1;
    if (buddyY < 0)
        buddyY = y; // degenerate single-row case
    return torus->nodeAt(x, buddyY);
}

std::unique_ptr<Machine>
Machine::buildGS1280(int cpus, Gs1280Options opt)
{
    gs_assert(opt.depth >= 1, "torus depth must be positive");
    if (opt.depth == 1)
        gs_assert(cpus >= 1 && cpus <= 64,
                  "GS1280 supports 1-64 CPUs");
    else
        gs_assert(cpus >= 1 && cpus <= 2048,
                  "3-D scale-out models up to 2048 nodes");

    auto m = std::unique_ptr<Machine>(new Machine);
    m->kind_ = SystemKind::GS1280;
    m->nCpus = cpus;
    m->context = std::make_unique<SimContext>(opt.seed);
    m->seed_ = opt.seed;
    m->mlp_ = opt.mlp;
    m->striped_ = opt.striped;
    m->shuffle_ = opt.shuffle;
    m->shufflePolicy_ = static_cast<int>(opt.shufflePolicy);

    const int d = opt.depth;
    gs_assert(d == 1 || opt.width > 0,
              "3-D builds need an explicit shape (buildGS1280_3D)");
    auto [w, h] = opt.width > 0 ? std::pair{opt.width, opt.height}
                                : torusShape(cpus);
    gs_assert(w * h * d == cpus, "torus ", w, "x", h, "x", d,
              " != ", cpus, " CPUs");
    m->torusW = w;
    m->torusH = h;
    m->torusD = d;

    if (d > 1) {
        gs_assert(!opt.shuffle,
                  "shuffle rewiring is a 2-D torus feature");
        m->topo_ = std::make_unique<topo::Torus3D>(w, h, d);
        m->topoKind_ = 1;
    } else if (opt.shuffle) {
        m->topo_ = std::make_unique<topo::ShuffleTorus>(
            w, h, opt.shufflePolicy);
    } else {
        m->topo_ = std::make_unique<topo::Torus2D>(w, h);
    }

    if (opt.striped) {
        Machine *raw = m.get();
        m->map = std::make_unique<mem::StripedMap>(
            [raw](NodeId n) { return raw->moduleBuddy(n); });
    } else {
        m->map = std::make_unique<mem::NodeOwnedMap>();
    }

    m->buildFabric(net::NetworkParams::gs1280());

    // Parallel decomposition: the torus is cut into R x C x S box
    // tiles, one domain per tile. The shape comes from
    // --tile-shape when given, otherwise chooseTileShape derives it
    // from the thread count — so the *shape* fixes the event
    // schedule and every statistic, and opt.threads only picks how
    // many workers drive the tiles (the engine clamps it). Runs
    // compared across different thread counts must pin an explicit
    // shape. A 1x1 tiling (or a 1-CPU machine) stays serial.
    TileShape tiles = {1, 1};
    if (opt.threads > 1) {
        if (opt.tileRows > 0 || opt.tileCols > 0 ||
            opt.tileSlabs > 0) {
            // The shape is user input (--tile-shape), so an
            // ill-fitting one is a usage error, not a simulator bug.
            int slabs = opt.tileSlabs > 0 ? opt.tileSlabs : 1;
            if (opt.tileRows < 1 || opt.tileRows > h ||
                opt.tileCols < 1 || opt.tileCols > w || slabs > d)
                gs_fatal("tile shape ", opt.tileRows, "x",
                         opt.tileCols, "x", slabs,
                         " does not fit the ", w, "x", h, "x", d,
                         " torus (need rows <= ", h, ", cols <= ", w,
                         " and slabs <= ", d, ")");
            tiles = {opt.tileRows, opt.tileCols, slabs};
        } else {
            tiles = chooseTileShape(w, h, d, opt.threads);
        }
    }
    if (opt.threads > 1 && tiles.count() > 1) {
        m->tileR_ = tiles.rows;
        m->tileC_ = tiles.cols;
        m->tileS_ = tiles.slabs;
        ParallelEngine::Config pcfg;
        pcfg.domains = tiles.count();
        pcfg.threads = opt.threads;
        pcfg.lookahead = m->net->conservativeLookahead();
        pcfg.seed = opt.seed;
        m->par_ = std::make_unique<ParallelEngine>(pcfg);

        // Both tori number nodes x-fastest, then y, then z.
        std::vector<int> dom(static_cast<std::size_t>(cpus));
        for (int n = 0; n < cpus; ++n)
            dom[std::size_t(n)] = tileDomainOf(n % w, n / w % h,
                                               n / (w * h), w, h, d,
                                               tiles);
        std::vector<SimContext *> dctx;
        dctx.reserve(static_cast<std::size_t>(tiles.count()));
        for (int d = 0; d < tiles.count(); ++d)
            dctx.push_back(&m->par_->domainCtx(d));
        m->net->setPartition(std::move(dom), std::move(dctx));

        net::Network *netp = m->net.get();
        m->par_->setMergeHook(
            [netp](int d, Tick ws) { netp->mergeFor(d, ws); });
        m->par_->setPendingMinHook(
            [netp](int d) { return netp->pendingMinOf(d); });
        m->par_->setPublishHook(
            [netp](int d) { netp->publishFor(d); });
        m->par_->setWindowHook([netp](Tick ws, Tick base_end) {
            return netp->adaptiveWindow(ws, base_end);
        });
    }

    coher::NodeConfig ncfg;
    ncfg.hasCache = true;
    ncfg.hasMemory = true;
    ncfg.l2 = mem::CacheParams::ev7L2();
    ncfg.zbox = mem::ZboxParams::ev7();
    ncfg.zboxCount = 2;
    ncfg.mafEntries = std::max(16, opt.mlp);
    // Directory sharer vectors are one 64-bit word; past 64 nodes
    // each bit covers a group of ceil(N/64) nodes (coarse-vector
    // encoding, docs/SCALING.md). At <= 64 nodes the group is 1 and
    // the encoding is exact — bit-for-bit the shipped behaviour.
    ncfg.sharerGroupSize = (cpus + 63) / 64;
    m->sharerGroup_ = ncfg.sharerGroupSize;

    cpu::CoreParams ccfg;
    ccfg.mlp = opt.mlp;

    for (NodeId n = 0; n < cpus; ++n) {
        // Components schedule on their node's domain context; with
        // the serial engine that is the machine context, exactly as
        // before.
        SimContext &nctx =
            m->par_ ? m->par_->domainCtx(m->net->domainOf(n))
                    : *m->context;
        m->nodes.push_back(std::make_unique<coher::CoherentNode>(
            nctx, *m->net, n, *m->map, ncfg));
        m->cores.push_back(std::make_unique<cpu::TimingCore>(
            nctx, *m->nodes.back(), ccfg));
    }
    if (opt.spanSampleRate > 0.0) {
        // Latency x-ray collector: one per machine, registered as a
        // checkpoint client right here so the saving and restoring
        // builds agree on client order by construction.
        m->spans_ = std::make_unique<trace::SpanCollector>(
            opt.seed, opt.spanSampleRate, cpus);
        for (auto &node : m->nodes)
            node->setSpanCollector(m->spans_.get());
        m->registerCkptClient(*m->spans_);
    }
    m->registerTelemetry();
    return m;
}

std::unique_ptr<Machine>
Machine::buildGS1280_3D(int x, int y, int z, Gs1280Options opt)
{
    gs_assert(x >= 1 && y >= 1 && z >= 1, "bad 3-D torus shape ", x,
              "x", y, "x", z);
    opt.width = x;
    opt.height = y;
    opt.depth = z;
    return buildGS1280(x * y * z, opt);
}

std::size_t
Machine::memFootprintBytes() const
{
    std::size_t total = 0;
    for (const auto &node : nodes)
        if (node)
            total += node->footprintBytes();
    for (const auto &core : cores)
        total += core->footprintBytes();
    return total;
}

std::size_t
Machine::denseMemFootprintBytes() const
{
    std::size_t total = 0;
    for (const auto &node : nodes)
        if (node)
            total += node->denseFootprintBytes();
    for (const auto &core : cores)
        total += core->denseFootprintBytes();
    return total;
}

std::unique_ptr<Machine>
Machine::buildGS320(int cpus, std::uint64_t seed, int mlp)
{
    gs_assert(cpus >= 1 && cpus <= 32 &&
                  (cpus % 4 == 0 || cpus < 4),
              "GS320 supports up to 8 QBBs of 4 CPUs");

    auto m = std::unique_ptr<Machine>(new Machine);
    m->kind_ = SystemKind::GS320;
    m->nCpus = cpus;
    m->context = std::make_unique<SimContext>(seed);
    m->seed_ = seed;
    m->mlp_ = mlp;

    int perQbb = std::min(cpus, 4);
    auto tree = std::make_unique<topo::QbbTree>(cpus, perQbb);
    const topo::QbbTree *treeRaw = tree.get();
    m->topo_ = std::move(tree);

    m->map = std::make_unique<mem::SharedHomeMap>(
        [treeRaw](NodeId region) {
        return treeRaw->qbbSwitchOf(region);
    });

    m->buildFabric(net::NetworkParams::gs320());

    // CPU nodes: 21264 core with the 16 MB off-chip direct-mapped L2.
    // Probing that cache for a forward means an off-chip SRAM read
    // through a busy bus interface — the slow Read-Dirty path the
    // paper contrasts with the EV7's on-chip forwarding (6.6x).
    coher::NodeConfig cpuCfg;
    cpuCfg.hasCache = true;
    cpuCfg.hasMemory = false;
    cpuCfg.l2 = mem::CacheParams::ev68L2();
    cpuCfg.fwdServiceNs = 300.0;

    // QBB switch nodes: the shared memory + directory. Calibrated so
    // one QBB sustains ~2 GB/s and local latency lands near 330 ns.
    coher::NodeConfig memCfg;
    memCfg.hasCache = false;
    memCfg.hasMemory = true;
    memCfg.zbox = mem::ZboxParams::qbbMemory(1.0, 70.0);
    memCfg.zboxCount = 2;
    memCfg.homeOverheadNs = 15.0;

    m->nodes.resize(static_cast<std::size_t>(m->topo_->numNodes()));
    for (NodeId n = 0; n < cpus; ++n) {
        m->nodes[std::size_t(n)] =
            std::make_unique<coher::CoherentNode>(*m->context, *m->net,
                                                  n, *m->map, cpuCfg);
        cpu::CoreParams ccfg;
        ccfg.mlp = mlp;
        m->cores.push_back(std::make_unique<cpu::TimingCore>(
            *m->context, *m->nodes[std::size_t(n)], ccfg));
    }
    for (int q = 0; q < treeRaw->qbbCount(); ++q) {
        NodeId sw = static_cast<NodeId>(cpus + q);
        m->nodes[std::size_t(sw)] =
            std::make_unique<coher::CoherentNode>(*m->context, *m->net,
                                                  sw, *m->map, memCfg);
    }
    // The global switch (if any) is a pure router: no CoherentNode.
    m->registerTelemetry();
    return m;
}

std::unique_ptr<Machine>
Machine::buildES45(int cpus, std::uint64_t seed, int mlp)
{
    gs_assert(cpus >= 1 && cpus <= 4, "ES45 is a 4-CPU SMP");

    auto m = std::unique_ptr<Machine>(new Machine);
    m->kind_ = SystemKind::ES45;
    m->nCpus = cpus;
    m->context = std::make_unique<SimContext>(seed);
    m->seed_ = seed;
    m->mlp_ = mlp;

    auto tree = std::make_unique<topo::QbbTree>(cpus, cpus);
    const topo::QbbTree *treeRaw = tree.get();
    m->topo_ = std::move(tree);

    m->map = std::make_unique<mem::SharedHomeMap>(
        [treeRaw](NodeId region) {
        return treeRaw->qbbSwitchOf(region);
    });

    // ES45 crossbar: faster than the GS320 QBB path (Figure 4:
    // ~195 ns flat memory latency; Figure 7: ~2x GS320 bandwidth).
    net::NetworkParams netP = net::NetworkParams::gs320();
    netP.clockMHz = 500.0;
    netP.pipelineCycles = 7;
    netP.injectionCycles = 3;
    netP.ejectionCycles = 3;
    m->buildFabric(netP);

    coher::NodeConfig cpuCfg;
    cpuCfg.hasCache = true;
    cpuCfg.hasMemory = false;
    cpuCfg.l2 = mem::CacheParams::ev68L2();
    cpuCfg.fwdServiceNs = 120.0; // off-chip cache probe

    coher::NodeConfig memCfg;
    memCfg.hasCache = false;
    memCfg.hasMemory = true;
    memCfg.zbox = mem::ZboxParams::qbbMemory(1.75, 45.0);
    memCfg.zboxCount = 2;
    memCfg.homeOverheadNs = 10.0;

    m->nodes.resize(static_cast<std::size_t>(m->topo_->numNodes()));
    for (NodeId n = 0; n < cpus; ++n) {
        m->nodes[std::size_t(n)] =
            std::make_unique<coher::CoherentNode>(*m->context, *m->net,
                                                  n, *m->map, cpuCfg);
        cpu::CoreParams ccfg;
        ccfg.mlp = mlp;
        m->cores.push_back(std::make_unique<cpu::TimingCore>(
            *m->context, *m->nodes[std::size_t(n)], ccfg));
    }
    NodeId hub = static_cast<NodeId>(cpus);
    m->nodes[std::size_t(hub)] =
        std::make_unique<coher::CoherentNode>(*m->context, *m->net, hub,
                                              *m->map, memCfg);
    m->registerTelemetry();
    return m;
}

void
Machine::buildFabric(net::NetworkParams params)
{
    fabric_ = std::make_unique<fault::DegradedTopology>(*topo_);
    net = std::make_unique<net::Network>(*context, *fabric_,
                                         std::move(params));
    injector_ =
        std::make_unique<fault::FaultInjector>(*context, *net, *fabric_);
}

void
Machine::registerTelemetry()
{
    net->registerTelemetry(telemetry_, "net");
    injector_->registerTelemetry(telemetry_, "fault");
    if (spans_)
        spans_->registerTelemetry(telemetry_, "xray");

    // Checkpoint accounting. saves/bytes/rollbacks are simulation
    // state (serialized in snapshots, so a restored run's exports
    // converge to the uninterrupted run's); restores counts how many
    // times THIS process loaded a snapshot — inherently wall-clock
    // shaped, so it is visible live but excluded from exports.
    telemetry_.addCounter("ckpt.saves", ckptSaves_);
    telemetry_.addCounter("ckpt.bytes", ckptBytes_);
    telemetry_.addCounter("ckpt.rollbacks", ckptRollbacks_);
    telemetry_.addWallClockGauge("ckpt.restores", [this] {
        return static_cast<double>(ckptRestores_);
    });

    // Model-memory accounting (docs/SCALING.md). Footprints track
    // live allocations — wall-clock shaped, so visible in the
    // registry and the mem.* benches but excluded from exports.
    telemetry_.addWallClockGauge("mem.model_bytes", [this] {
        return static_cast<double>(memFootprintBytes());
    });
    telemetry_.addWallClockGauge("mem.dense_model_bytes", [this] {
        return static_cast<double>(denseMemFootprintBytes());
    });
    telemetry_.addWallClockGauge("mem.bytes_per_node", [this] {
        return static_cast<double>(memFootprintBytes()) /
               static_cast<double>(topo_->numNodes());
    });
    telemetry_.addWallClockGauge("mem.dense_bytes_per_node", [this] {
        return static_cast<double>(denseMemFootprintBytes()) /
               static_cast<double>(topo_->numNodes());
    });
    telemetry_.addWallClockGauge("mem.reduction", [this] {
        auto used = static_cast<double>(memFootprintBytes());
        return used > 0.0
                   ? static_cast<double>(denseMemFootprintBytes()) /
                         used
                   : 0.0;
    });
    telemetry_.addWallClockGauge("mem.sharer_group", [this] {
        return static_cast<double>(sharerGroup_);
    });

    // Event-kernel self-metrics: how hard the calendar queue is
    // working (see docs/EVENT_KERNEL.md). `buckets` counts events
    // resident in the near-future ring, `overflow` those parked in
    // the far-future heap; a healthy steady state keeps overflow
    // near zero. Each gauge sums over the snapshot's queues: the
    // serial engine's one, or one per parallel domain (peak_pending
    // then sums per-domain peaks, an upper bound on the instantaneous
    // machine-wide peak). `storage_bytes` is the
    // calendar's host footprint, wall-clock shaped like
    // mem.model_bytes and so kept out of exports.
    auto sumQ = [qs = ckptQueues()](auto probe) {
        double n = 0;
        for (const EventQueue *q : qs)
            n += static_cast<double>(probe(*q));
        return n;
    };
    telemetry_.addGauge("eq.fired", [sumQ] {
        return sumQ([](const EventQueue &q) { return q.firedCount(); });
    });
    telemetry_.addGauge("eq.pending", [sumQ] {
        return sumQ([](const EventQueue &q) { return q.pending(); });
    });
    telemetry_.addGauge("eq.peak_pending", [sumQ] {
        return sumQ([](const EventQueue &q) { return q.peakPending(); });
    });
    telemetry_.addGauge("eq.buckets", [sumQ] {
        return sumQ([](const EventQueue &q) { return q.ringPending(); });
    });
    telemetry_.addGauge("eq.overflow", [sumQ] {
        return sumQ([](const EventQueue &q) {
            return q.overflowPending();
        });
    });
    telemetry_.addWallClockGauge("eq.storage_bytes", [sumQ] {
        return sumQ([](const EventQueue &q) { return q.storageBytes(); });
    });

    if (par_) {
        // Parallel-engine self-metrics. Everything here is a pure
        // function of simulation state — identical at any thread
        // count — except barrier_wait_frac, which is wall-clock
        // derived (see docs/PARALLEL.md).
        ParallelEngine *pe = par_.get();
        net::Network *netp = net.get();
        telemetry_.addGauge("par.domains", [pe] {
            return static_cast<double>(pe->domains());
        });
        telemetry_.addGauge("par.epochs", [pe] {
            return static_cast<double>(pe->epochs());
        });
        telemetry_.addGauge("par.lookahead_ticks", [pe] {
            return static_cast<double>(pe->lookahead());
        });
        telemetry_.addGauge("par.tile_rows", [this] {
            return static_cast<double>(tileR_);
        });
        telemetry_.addGauge("par.tile_cols", [this] {
            return static_cast<double>(tileC_);
        });
        telemetry_.addGauge("par.lookahead_widened", [netp] {
            return static_cast<double>(netp->widenedEpochs());
        });
        telemetry_.addWallClockGauge("par.barrier_wait_frac", [pe] {
            return pe->barrierWaitFrac();
        });
        for (int d = 0; d < pe->domains(); ++d) {
            telemetry_.addWallClockGauge(
                telem::path("par.tile", d) + ".barrier_wait_frac",
                [pe, d] { return pe->tileWaitFrac(d); });
        }
        telemetry_.addGauge("par.mailbox.arrivals", [netp] {
            return static_cast<double>(netp->crossArrivalsPosted());
        });
        telemetry_.addGauge("par.mailbox.credits", [netp] {
            return static_cast<double>(netp->crossCreditsPosted());
        });
        telemetry_.addGauge("par.mailbox.flits", [netp] {
            return static_cast<double>(netp->crossFlitsPosted());
        });
    }

    // Per-node subtrees cost ~250 registry paths each; past 64
    // nodes (the scale-out machines) only the machine-wide
    // aggregates register, keeping registry size and export cost
    // flat in node count. Every shipped 2-D configuration is <= 64
    // nodes, so their exports are untouched.
    if (!perNodeTelemetry())
        return;
    const auto portNameOf = [this](int p) { return portName(p); };
    for (NodeId n = 0; n < NodeId(topo_->numNodes()); ++n) {
        std::string base = telem::path("node", n);
        net->router(n).registerTelemetry(
            telemetry_, telem::path(base, "router"), portNameOf);
        if (hasNode(n))
            nodes[std::size_t(n)]->registerTelemetry(telemetry_, base);
    }
}

std::string
Machine::portName(int p) const
{
    // GS1280 routers keep the compass port names the paper uses in
    // its Figure 24 discussion (E/W/N/S); other fabrics number them.
    if (kind_ == SystemKind::GS1280) {
        switch (p) {
          case topo::portEast: return "E";
          case topo::portWest: return "W";
          case topo::portNorth: return "N";
          case topo::portSouth: return "S";
          case topo::portUp: return "U";
          case topo::portDown: return "D";
          default: break;
        }
    }
    return "p" + std::to_string(p);
}

void
Machine::attachTrace(telem::TraceWriter &trace)
{
    // The writer is a single shared sink stamped with one clock;
    // observers firing concurrently on worker threads would corrupt
    // it. Tracing is a serial-engine (--threads 1) feature.
    gs_assert(!par_, "attachTrace requires the serial engine");
    telem::TraceWriter *tw = &trace;
    SimContext *ctxp = context.get();
    for (auto &node : nodes) {
        if (!node)
            continue;
        int tid = static_cast<int>(node->id());
        node->setMsgObserver([tw, ctxp, tid](const net::Packet &pkt,
                                             bool incoming) {
            // Once per message, at its receiver — the transaction
            // flow a protocol diagram would show.
            if (!incoming)
                return;
            coher::Msg m = coher::decode(pkt);
            tw->instant(ctxp->now(), coher::msgTypeName(m.type), tid,
                        "protocol");
        });
    }
}

fault::Watchdog &
Machine::armWatchdog(fault::WatchdogConfig cfg, double coherenceTimeoutNs)
{
    // The watchdog self-schedules on the master context and probes
    // cross-node state mid-run; both are serial-engine assumptions.
    gs_assert(!par_, "the watchdog requires the serial engine");
    if (!watchdog_) {
        watchdog_ =
            std::make_unique<fault::Watchdog>(*context, *net, cfg);
        watchdog_->registerTelemetry(telemetry_,
                                     telem::path("fault", "watchdog"));
        if (coherenceTimeoutNs > 0) {
            Machine *self = this;
            watchdog_->addProbe([self, coherenceTimeoutNs] {
                Tick now = self->context->now();
                for (const auto &node : self->nodes) {
                    if (!node)
                        continue;
                    Tick issued = node->oldestMissIssued();
                    if (issued == maxTick)
                        continue;
                    double age = ticksToNs(now - issued);
                    if (age > coherenceTimeoutNs) {
                        std::ostringstream os;
                        os << "coherence transaction stuck: node "
                           << node->id() << " has a miss outstanding "
                           << age << " ns (limit " << coherenceTimeoutNs
                           << "), " << node->outstandingMisses()
                           << " misses pending";
                        return os.str();
                    }
                }
                return std::string();
            });
        }
    }
    watchdog_->arm();
    return *watchdog_;
}

bool
Machine::run(const std::vector<cpu::TrafficSource *> &sources,
             Tick limit)
{
    gs_assert(static_cast<int>(sources.size()) <= nCpus,
              "more sources than CPUs");
    sources_ = sources;

    if (restored_) {
        // restore() already re-attached the cores to these sources
        // and rebuilt running_; starting them again would reset the
        // execution state the snapshot just rebuilt.
        restored_ = false;
    } else {
        // Shared counter: completion callbacks may fire after an
        // early (limit-hit) return, so they must not reference the
        // stack; on the parallel engine they also fire on worker
        // threads, so the counter is atomic.
        running_ = std::make_shared<std::atomic<int>>(0);
        auto running = running_;
        for (std::size_t c = 0; c < sources.size(); ++c) {
            if (!sources[c])
                continue;
            running->fetch_add(1, std::memory_order_relaxed);
            cores[c]->run(*sources[c], [running] {
                running->fetch_sub(1, std::memory_order_release);
            });
        }
    }

    // With a rollback policy, a watchdog trip queues a rollback the
    // loop below consumes between events, instead of panicking from
    // inside the tripping poll event.
    if (watchdog_ && rollback_) {
        watchdog_->onTrip([this](const std::string &why) {
            tripPending_ = true;
            pendingTrip_ = why;
        });
    }

    if (par_) {
        gs_assert(!net->degraded(),
                  "fault injection requires the serial engine");
        // Completion is checked only at epoch barriers (every domain
        // quiescent there), so the final time may trail the serial
        // engine's by less than one lookahead window; every fired
        // event and every statistic is still identical. Periodic
        // checkpoints piggyback on the same barriers: the engine
        // runs in segments clamped at the next checkpoint edge, and
        // saves happen with every worker parked.
        Tick deadline = ctx().now() + limit;
        Machine *self = this;
        auto running = running_;
        auto complete = [self, running] {
            return running->load(std::memory_order_acquire) == 0 &&
                   self->drained();
        };
        for (;;) {
            Tick target = deadline;
            if (ckptEvery_ > 0 && nextCkptAt_ < target)
                target = nextCkptAt_;
            par_->run(target, complete);
            net->refreshMergedStats();
            if (running_->load(std::memory_order_relaxed) == 0 &&
                drained())
                break;
            if (target >= deadline)
                break;
            checkpointNow();
        }
        return running_->load(std::memory_order_relaxed) == 0 &&
               drained();
    }

    Tick deadline = context->now() + limit;
    while (context->now() < deadline) {
        if (running_->load(std::memory_order_relaxed) == 0 &&
            drained())
            return true;
        if (!context->queue().step())
            break;
        if (tripPending_) {
            handleRollback();
            continue;
        }
        if (ckptEvery_ > 0 && context->now() >= nextCkptAt_)
            checkpointNow();
    }
    return running_->load(std::memory_order_relaxed) == 0 && drained();
}

void
Machine::runFor(Tick duration)
{
    if (par_) {
        gs_assert(!net->degraded(),
                  "fault injection requires the serial engine");
        Tick target = ctx().now() + duration;
        par_->run(target);
        par_->syncAll(target);
        net->refreshMergedStats();
        return;
    }
    context->queue().runFor(duration);
}

bool
Machine::drained() const
{
    if (net->inFlight() != 0)
        return false;
    for (const auto &node : nodes)
        if (node && !node->quiesced())
            return false;
    return true;
}

void
Machine::clearStats()
{
    net->clearStats();
    for (auto &node : nodes)
        if (node)
            node->clearStats();
    if (spans_)
        spans_->clearStats();
}

cpu::MachineTiming
Machine::analyticTiming() const
{
    switch (kind_) {
      case SystemKind::GS1280:
        return cpu::MachineTiming::gs1280();
      case SystemKind::GS320:
        return cpu::MachineTiming::gs320();
      case SystemKind::ES45:
        return cpu::MachineTiming::es45();
    }
    return cpu::MachineTiming::gs1280();
}

} // namespace gs::sys
