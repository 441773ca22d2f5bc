/**
 * @file
 * The interconnect fabric: routers wired per a Topology, a cycle
 * ticker, and the injection/delivery API used by the layers above.
 *
 * Domain partitioning: by default the whole fabric lives in one
 * domain driven by one SimContext, exactly as before. Under the
 * parallel engine (sim/parallel.hh) setPartition() assigns every
 * node to a spatial domain with its own SimContext; per-domain
 * shards (packet pool, stats, tick chain) keep the hot path
 * thread-private, and cross-domain arrivals/credits are buffered
 * into per-(src,dst) mailboxes that the engine merges at each epoch
 * barrier in canonical order. See docs/PARALLEL.md.
 */

#ifndef GS_NET_NETWORK_HH
#define GS_NET_NETWORK_HH

#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "net/params.hh"
#include "net/router.hh"
#include "sim/context.hh"
#include "sim/parallel.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"
#include "topology/topology.hh"

namespace gs::net
{

/** Cumulative per-network traffic statistics. */
struct NetworkStats
{
    std::uint64_t injectedPackets = 0;
    std::uint64_t deliveredPackets = 0;
    std::uint64_t deliveredFlits = 0;
    std::uint64_t droppedPackets = 0; ///< lost to faults (degraded mode)
    stats::Average latencyNs;      ///< inject-to-deliver, all classes
    stats::Average hopsPerPacket;
};

/**
 * A complete interconnect instance.
 *
 * The Network owns one Router per topology node and a self-scheduling
 * cycle tick that runs only while packets are in flight. Agents
 * (coherence controllers, traffic generators) attach one delivery
 * handler per node and inject packets; loopback (src == dst) packets
 * bypass the fabric with just the injection/ejection latency.
 */
class Network
{
  public:
    using Handler = std::function<void(const Packet &)>;

    Network(SimContext &ctx, const topo::Topology &topo,
            NetworkParams params);

    /** Register the delivery callback for @p node. */
    void setHandler(NodeId node, Handler handler);

    /**
     * Hand a packet to @p pkt.src's router. Rejects malformed
     * packets (out-of-range endpoints, non-positive length) with
     * gs_fatal; in degraded mode, packets from or to a failed node
     * are dropped and counted instead.
     */
    void inject(Packet pkt);

    /** @name Domain partitioning (parallel engine) */
    /// @{

    /**
     * Split the fabric into domains. @p node_domain maps every node
     * to a domain index in [0, domain_ctx.size()); @p domain_ctx[d]
     * is the SimContext domain d's events run on. Must be called
     * before any traffic and before registerTelemetry. The node
     * partition fixes the result (it is part of the machine's
     * deterministic identity); the worker-thread count never does.
     */
    void setPartition(std::vector<int> node_domain,
                      std::vector<SimContext *> domain_ctx);

    int domains() const { return nDomains; }
    int domainOf(NodeId node) const
    {
        return nDomains == 1 ? 0 : nodeDom[std::size_t(node)];
    }
    SimContext &ctxOf(NodeId node)
    {
        return *domCtx[std::size_t(domainOf(node))];
    }
    PacketPool &poolOf(NodeId node)
    {
        return shards[std::size_t(domainOf(node))]->pool;
    }
    const PacketPool &poolOf(NodeId node) const
    {
        return shards[std::size_t(domainOf(node))]->pool;
    }

    /**
     * Conservative lookahead in ticks: the minimum delay between an
     * event executing in one domain and the earliest event it can
     * cause in another. Any cross-domain effect is an arrival
     * (pipeline + wire + >=1 header cycle) or a credit return
     * (creditCycles); the credit dominates on every modeled machine.
     */
    Tick conservativeLookahead() const;

    /**
     * Widest epoch window provably safe from fabric quiescence: an
     * injection at tick u produces its first router event
     * (NetInjStart) at u + injectionCycles * period, and from there
     * the conservative lookahead bounds any cross-domain effect —
     * so every quiet domain may drain up to
     * windowStart + idleLookahead() before the effect's due time.
     */
    Tick idleLookahead() const;

    /**
     * Whether no cross-domain effect can arise without a fresh
     * injection: nothing in flight, every tick chain dead, no
     * injection queued, and no posted-but-unmerged mailbox entry
     * (cross credits posted late in a window sit there even after
     * the last packet delivers). A pure function of simulation
     * state. Pending *local* credits are allowed: with an idle
     * fabric they only adjust upstream counts inside their own
     * domain (and any chain wake they trigger is the same no-op
     * tick the serial engine executes).
     */
    bool fabricQuiet() const;

    /**
     * ParallelEngine window hook: one adaptive-lookahead step per
     * epoch. Widens the window while fabricQuiet() holds (geometric,
     * capped at idleLookahead()) and snaps back to @p base_end on
     * traffic. Runs at the barrier with all workers parked; the
     * `widened` flag it leaves behind tells inject() to truncate the
     * injecting domain's drain so no router event fires inside a
     * widened window (see docs/PARALLEL.md).
     */
    Tick adaptiveWindow(Tick window_start, Tick base_end);

    /** Epochs whose window was widened past the conservative base. */
    std::uint64_t widenedEpochs() const { return widenedEpochs_; }

    /**
     * Merge every mailbox entry addressed to domain @p d into its
     * queue (ParallelEngine merge hook). Entries are scheduled via
     * EventQueue::scheduleMergedAt in canonical (due, src-domain,
     * post-order) order, so the result is independent of worker
     * interleaving. Called only at epoch barriers, when all posting
     * domains are quiescent; @p window_start <= every entry's due.
     */
    void mergeFor(int d, Tick window_start);

    /**
     * Earliest due time among entries domain @p d has posted this
     * epoch that no consumer has merged yet (ParallelEngine
     * pending-min hook; maxTick when none). Reads only domain d's
     * own writes, so it is safe from d's worker at any time.
     */
    Tick pendingMinOf(int d) const;

    /**
     * Publish domain @p d's tick-chain state for the next window's
     * merges (ParallelEngine publish hook). Must run after domain d
     * has drained the current window and before the epoch barrier;
     * mergeFor then reduces all domains' published state to decide
     * whether the serial engine's one global tick chain — alive
     * while ANY router in the machine is busy — would tick at the
     * coming window's clock edge. Without this, an arrival into an
     * idle domain would wake its routers one cycle later than the
     * serial schedule.
     */
    void publishFor(int d);

    /** @name Cross-domain mailbox traffic (par.* telemetry) */
    /// @{
    std::uint64_t crossArrivalsPosted() const;
    std::uint64_t crossCreditsPosted() const;
    std::uint64_t crossFlitsPosted() const;
    /// @}

    /**
     * Re-fold per-shard stats into the merged view returned by
     * stats() / exported by telemetry. Cheap; called by the Machine
     * at the end of every parallel run. No-op with one domain.
     */
    void refreshMergedStats() const;
    /// @}

    /** @name Component access */
    /// @{
    const topo::Topology &topology() const { return topo_; }
    const NetworkParams &params() const { return prm; }
    SimContext &context() { return ctx; }
    Tick period() const { return tickPeriod; }
    Router &router(NodeId node) { return *routers[std::size_t(node)]; }
    const Router &router(NodeId node) const
    {
        return *routers[std::size_t(node)];
    }

    /**
     * Domain 0's packet slab — with the default single-domain
     * partition, the slab every in-flight packet lives in. Partitioned
     * fabrics have one pool per domain; use poolOf(node).
     */
    PacketPool &pool() { return shards[0]->pool; }
    const PacketPool &pool() const { return shards[0]->pool; }
    /// @}

    /** @name Statistics */
    /// @{

    /**
     * Cumulative traffic stats. Single-domain: the live counters.
     * Partitioned: the per-domain shards folded together (refreshed
     * here on every call; do not cache the reference across runs).
     */
    const NetworkStats &stats() const;

    /**
     * Cumulative busy flits on the link out of (node, port): the
     * router's per-port sent-flit counter, exported as
     * `node.<n>.router.port.<p>.flits`.
     */
    std::uint64_t linkBusyFlits(NodeId node, int port) const
    {
        return routers[std::size_t(node)]->sentFlits(port);
    }

    /** Packets currently in flight (injected, not yet delivered). */
    int inFlight() const;

    /** Reset cumulative statistics (not the fabric state). */
    void clearStats();

    /**
     * Register the network-wide counters under @p prefix
     * (injected/delivered/dropped packets, latency, hops,
     * in-flight). Per-router stats register separately via
     * Router::registerTelemetry. With a partitioned fabric the
     * registered references point at the merged view (see
     * refreshMergedStats); paths and ordering are identical either
     * way.
     */
    void registerTelemetry(telem::Registry &reg,
                           const std::string &prefix);
    /// @}

    /** @name Fault-layer hooks (used by fault::FaultInjector)
     *
     * Until the first fault is applied none of this costs anything
     * on the packet path: degraded() stays false and every check
     * short-circuits, keeping healthy runs bit-identical. Faults
     * require the serial engine: Router::syncPorts reads peer-router
     * state directly, which a partitioned fabric cannot allow.
     */
    /// @{

    /**
     * The topology's link liveness changed: resync every router's
     * output ports and switch the fabric to degraded (lossy)
     * semantics.
     */
    void onTopologyChange();

    /** Mark a router dead (flushes its buffers) or repaired. */
    void setNodeFailed(NodeId node, bool failed);

    bool nodeFailed(NodeId node) const
    {
        return degraded_ && deadNode[std::size_t(node)] != 0;
    }

    /** True once any fault has ever been applied to this network. */
    bool degraded() const { return degraded_; }

    /** Observer for dropped packets (per-failure accounting). */
    using DropHook =
        std::function<void(NodeId at, const Packet &, const char *why)>;
    void setDropHook(DropHook hook) { dropHook = std::move(hook); }

    /** Account, report and release an undeliverable pooled packet. */
    void dropPacket(NodeId at, PacketHandle h, const char *why);
    /// @}

    /** @name Events and checkpoint/restore
     *
     * Each fabric event is a Net* EventDesc; live or restored, its
     * callback is callback(desc), which runs fire(desc). saveCkpt
     * serializes the fabric wholesale: every shard (pool, stats,
     * tick-chain state, inject dues, cross-traffic counters), both
     * parities of every mailbox, fault flags and every router.
     * Restore requires the same partition layout the snapshot was
     * taken with (domain count is checked). badEvent says why a
     * restored desc names no node, domain, port, VC or live packet
     * of this fabric (nullptr when it names them all).
     */
    /// @{
    void fire(const ckpt::EventDesc &d);
    auto callback(const ckpt::EventDesc &d) { return [this, d] { fire(d); }; }
    const char *badEvent(const ckpt::EventDesc &d) const;

    void saveCkpt(ckpt::Serializer &s) const;
    void restoreCkpt(ckpt::Deserializer &d);
    /// @}

    /** @name Router-internal plumbing (used by Router) */
    /// @{
    void scheduleArrival(NodeId from, NodeId to, int in_port, int vc,
                         PacketHandle h, int delay_cycles);
    void scheduleCredit(NodeId at_node, int in_port, int vc, int flits);
    void deliverLocal(NodeId node, PacketHandle h);
    void activate(NodeId at);
    /// @}

  private:
    /**
     * One buffered cross-domain effect. Arrivals carry the packet BY
     * VALUE: the source domain's pool slot is released at post time
     * and the destination pool acquires a fresh slot at merge, so
     * neither pool is ever touched by a foreign thread.
     */
    struct XEntry
    {
        Tick due = 0;
        NodeId node = 0;        ///< receiving router (or credit target)
        std::int32_t port = 0;
        std::int32_t vc = 0;
        std::int32_t flits = 0; ///< credit payload (credit entries)
        std::int32_t credit = 0; ///< 1 = credit return, 0 = arrival
        Packet pkt;             ///< valid for arrivals only
    };

    /**
     * Double-buffered (src,dst) mailbox. Posts during epoch k land in
     * parity k%2; the consumer merges parity (k-1)%2 at the start of
     * epoch k, while the producer is parked at the barrier or writing
     * the other half. Buffers keep their capacity across epochs
     * (zero steady-state allocation).
     */
    struct Mailbox
    {
        std::vector<XEntry> buf[2];
        Tick minDue[2] = {maxTick, maxTick};
    };

    /** Sort key for canonical merge order. */
    struct MergeRef
    {
        Tick due;
        std::int32_t src; ///< posting domain
        std::uint32_t idx; ///< post order within that mailbox
    };

    /** Per-domain mutable state, padded to its own cache lines. */
    struct alignas(64) Shard
    {
        PacketPool pool;
        NetworkStats st;
        int flying = 0;
        bool ticking = false;
        /**
         * Merges completed on this domain; its parity selects the
         * mailbox half current posts go to. Advanced only in
         * mergeFor, i.e. only by the owning worker.
         */
        std::uint64_t epoch = 0;
        /**
         * Tick-chain state published at the end of each window for
         * the next window's merges (see publishFor / mergeFor). The
         * serial engine keeps one global tick chain alive while ANY
         * router in the machine is busy, so an arrival into an idle
         * region is still processed at its own edge; per-domain
         * chains must consult this global view to match it. Double-
         * buffered by consumer-epoch parity: a fast worker may
         * republish for window k+1 while a slow peer still merges
         * window k.
         */
        bool tickingPub[2] = {false, false};
        Tick revivalPub[2] = {maxTick, maxTick};
        /** The one tick-chain edge inside the current window. */
        Tick windowEdge = 0;
        /** Serial global chain would tick at windowEdge. */
        bool aliveAtEdge = false;
        /**
         * Dues of pending router-inject events (FIFO; dues are
         * non-decreasing because injects schedule now + const).
         * Injects are the only off-edge activation source, so they
         * alone can revive the serial chain mid-window.
         */
        std::vector<Tick> injDues;
        std::size_t injHead = 0;
        std::uint64_t xArrivals = 0; ///< cross arrivals posted
        std::uint64_t xCredits = 0;  ///< cross credits posted
        std::uint64_t xFlits = 0;    ///< flits in cross arrivals
        std::vector<MergeRef> scratch; ///< mergeFor ordering scratch
    };

    /** Merged (all-shards) stats view for telemetry/stats(). */
    struct MergedStats
    {
        NetworkStats net;
        PacketPool::Stats pool;
    };

    std::size_t mbox(int src, int dst) const
    {
        return std::size_t(src) * std::size_t(nDomains) +
               std::size_t(dst);
    }
    Shard &shard(NodeId node)
    {
        return *shards[std::size_t(domainOf(node))];
    }
    void postCross(int src_dom, int dst_dom, const XEntry &e);
    void consumeInj(NodeId node);

    void tickDomain(int d);
    void deliverNow(NodeId node, PacketHandle h);

    SimContext &ctx; ///< the build-time (domain-0 when partitioned) context
    const topo::Topology &topo_;
    NetworkParams prm;
    Tick tickPeriod;

    std::vector<std::unique_ptr<Router>> routers;
    std::vector<Handler> handlers;

    int nDomains = 1;
    std::vector<int> nodeDom;            ///< empty when nDomains == 1
    std::vector<SimContext *> domCtx;    ///< [nDomains]
    std::vector<std::vector<NodeId>> domNodes; ///< tick order per domain
    std::vector<std::unique_ptr<Shard>> shards; ///< [nDomains]
    std::vector<Mailbox> mail;           ///< [src * nDomains + dst]
    mutable MergedStats agg;             ///< stats() view, nDomains > 1

    // Adaptive lookahead (nDomains > 1 only; see adaptiveWindow).
    // `widened_` is written at the barrier by the window hook and
    // read by workers during the following window — the barrier
    // release orders it. adapt_.factor and widenedEpochs_ are
    // deterministic engine state and ride in the checkpoint.
    AdaptiveLookahead adapt_;
    bool widened_ = false;
    std::uint64_t widenedEpochs_ = 0;

    bool degraded_ = false;        ///< any fault ever applied
    std::vector<char> deadNode;    ///< failed routers (degraded mode)
    DropHook dropHook;
};

} // namespace gs::net

#endif // GS_NET_NETWORK_HH
