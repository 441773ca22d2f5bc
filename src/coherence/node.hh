/**
 * @file
 * Per-node coherence engine: the cache-side controller (MAF + victim
 * buffers + L2) and the home-side blocking directory, sharing the
 * node's network handler.
 *
 * Cache side. Misses allocate a Miss Address File entry (16 on the
 * 21364) and send RdReq/RdModReq to the line's home. Evictions of
 * owned lines allocate one of the 16 victim buffers, which hold the
 * line until the home's VictimAck — this is what lets a forward that
 * races with a victim still find the data at the old owner, exactly
 * the EV7 arrangement the paper credits for its fast Read-Dirty.
 *
 * Home side. The directory (resident in DRAM beside the data, so a
 * lookup rides the Zbox access) serializes transactions per line:
 * while a forward/inval transaction is outstanding the line is Busy
 * and later requests queue. Sharers may evict silently; exclusive
 * owners never do (VictimClean), so a forward always finds its data.
 *
 * Host layout. The MAF is a bounded array of cfg.mafEntries slots
 * searched by line, like the hardware's; the victim buffer and the
 * directory are flat open-addressed LineTables (line_table.hh) that
 * hold only lines currently tracked (Invalid directory entries are
 * erased). A directory slot is 8 bytes (DirEntry: line, state and
 * owner in one key word), and each run of four consecutive lines
 * takes 32 neighbouring bytes. Sharer masks live in a second
 * LineTable that holds a line only while its mask is nonzero, so a
 * home without Shared lines keeps no storage for them. Each home
 * message probes the directory once. Slots, their vectors and the
 * fill-batch groups are reused, so a miss in steady state allocates
 * nothing on the heap.
 *
 * Known benign race: a response and a later invalidation to the same
 * line may arrive out of order (different packet classes). The MAF
 * notes an invalidation seen while the miss was pending and the fill
 * then completes its waiting accesses but does not retain the line.
 */

#ifndef GS_COHERENCE_NODE_HH
#define GS_COHERENCE_NODE_HH

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/line_table.hh"
#include "coherence/messages.hh"
#include "mem/address.hh"
#include "mem/cache.hh"
#include "mem/zbox.hh"
#include "net/network.hh"
#include "sim/checkpoint.hh"
#include "sim/trace_span.hh"

namespace gs::coher
{

/** Directory entry states. */
enum class DirState : std::uint8_t
{
    Invalid,   ///< memory owns the line
    Shared,    ///< one or more read-only copies
    Exclusive, ///< a single owner (clean or dirty)
    Busy,      ///< transaction in flight; requests queue
};

/**
 * Home-side directory entry: the hot state only, packed into one
 * 8-byte LineTable slot. The key word holds the line (bits 6..47),
 * the DirState (bits 0..1) and owner + 1 (bits 48..63, so 0 is
 * invalidNode). The sharer mask of a Shared line lives in
 * CoherentNode's sharerSets side table. The transaction bookkeeping
 * a line only carries while a forward/inval is in flight (requester,
 * type, queued requests) lives in its dirTxns side table and is
 * erased when the transaction drains.
 */
struct DirEntry : LineKey
{
    static constexpr unsigned ownerShift = 48;
    static constexpr std::uint64_t stateBits = 3;
    /** Largest owner id the key word holds. */
    static constexpr NodeId maxOwner = 0xfffe;

    DirState state() const { return static_cast<DirState>(key & stateBits); }

    void
    setState(DirState s)
    {
        key = (key & ~stateBits) | static_cast<std::uint64_t>(s);
    }

    NodeId
    owner() const
    {
        return static_cast<NodeId>(key >> ownerShift) - 1;
    }

    void
    setOwner(NodeId n)
    {
        key = (key & ~(~std::uint64_t(0) << ownerShift)) |
              static_cast<std::uint64_t>(n + 1) << ownerShift;
    }
};
static_assert(sizeof(DirEntry) == 8, "a directory slot is 8 bytes");

/** Per-node configuration. */
struct NodeConfig
{
    bool hasCache = true;  ///< CPU nodes have an L2 + controller
    bool hasMemory = true; ///< home nodes have Zboxes + directory

    mem::CacheParams l2 = mem::CacheParams::ev7L2();
    mem::ZboxParams zbox = mem::ZboxParams::ev7();
    int zboxCount = 2;

    int mafEntries = 16;

    /**
     * Nodes per sharer-set bit. 1 (machines up to 64 nodes) keeps
     * the exact per-node bit vector; larger machines set
     * ceil(nodes/64) so the 64-bit word holds one bit per *group* of
     * consecutive nodes (coarse-vector encoding). A coarse Inval
     * broadcasts to every member of a marked group except the
     * requester; non-holders ack an Inval anyway, so the protocol is
     * unchanged — only Inval traffic grows. Must satisfy
     * ceil(nodes / sharerGroupSize) <= 64.
     */
    int sharerGroupSize = 1;

    /**
     * Victim buffers on the real 21364 (16). The model's buffer is
     * unbounded for deadlock-structural reasons (see node.cc); the
     * high-water stat reports how many a run actually needed.
     */
    int victimBuffers = 16;

    double homeOverheadNs = 12.0; ///< directory pipeline per txn
    double fwdServiceNs = 10.0;   ///< owner cache/VB lookup on a fwd
    double fillOverheadNs = 12.0; ///< response-to-use at requester
};

/** Cumulative per-node protocol statistics. */
struct NodeStats
{
    std::uint64_t accesses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t mafMerges = 0;
    std::uint64_t homeRequests = 0;
    std::uint64_t forwardsServed = 0;
    std::uint64_t invalsReceived = 0;
    std::uint64_t victimsSent = 0;
    std::uint64_t vbHighWater = 0; ///< peak victim-buffer occupancy
    stats::Average missLatencyNs; ///< miss issue to fill

    /** Messages sent/received by MsgType (telemetry `proto.*`). */
    std::array<std::uint64_t, numMsgTypes> msgSent{};
    std::array<std::uint64_t, numMsgTypes> msgRecv{};
};

/**
 * The coherence engine of one node. Registers itself as the node's
 * network handler.
 */
class CoherentNode
{
  public:
    CoherentNode(SimContext &ctx, net::Network &net, NodeId id,
                 const mem::AddressMap &map, NodeConfig cfg);

    /**
     * Issue one memory access from the local core. @p done fires
     * when the access is architecturally complete (cache hit time or
     * miss fill). Never refuses; throttling is the core's job. The
     * continuation's desc makes the access checkpointable while it
     * waits in the MAF (a bare callable still works but blocks
     * snapshots while pending).
     */
    void memAccess(mem::Addr a, bool write, ckpt::Cont done);

    /** @name Introspection (tests, stats, Xmesh) */
    /// @{
    NodeId id() const { return self; }
    bool hasCache() const { return cache != nullptr; }
    bool hasMemory() const { return !zboxes.empty(); }
    mem::Cache &l2() { return *cache; }
    const mem::Cache &l2() const { return *cache; }
    mem::Zbox &zbox(int i) { return *zboxes[std::size_t(i)]; }
    int zboxCount() const { return static_cast<int>(zboxes.size()); }
    const NodeStats &stats() const { return st; }
    void clearStats();

    /**
     * Register this node's protocol stats (including per-MsgType
     * send/receive counters under `proto.sent.<Name>` /
     * `proto.recv.<Name>`) and its Zboxes (under `mem.<i>`) below
     * @p prefix (e.g. "node.12").
     */
    void registerTelemetry(telem::Registry &reg,
                           const std::string &prefix);

    int outstandingMisses() const { return mafCount; }
    int victimBufferFill() const { return static_cast<int>(vb.size()); }

    /**
     * No outstanding miss, victim, throttled access, Busy line or
     * queued home request. O(1): Busy lines and queued requests are
     * counted where they change (the engine asks on every step once
     * the cores finish).
     */
    bool quiesced() const;

    /** quiesced() recomputed by scanning every table; the coherence
     *  checker holds the counters to it. */
    bool quiescedByScan() const;

    /**
     * Issue time of the oldest outstanding miss, or maxTick when no
     * miss is pending. The fault watchdog's coherence probe uses this
     * to detect transactions that will never complete (e.g. their
     * response was dropped by a failed link).
     */
    Tick
    oldestMissIssued() const
    {
        Tick oldest = maxTick;
        for (std::size_t i = 0; i < mafLines.size(); ++i)
            if (mafLines[i] != noLine && mafSlots[i].issued < oldest)
                oldest = mafSlots[i].issued;
        return oldest;
    }

    DirState dirState(mem::Addr line) const;
    std::uint64_t dirSharers(mem::Addr line) const;
    NodeId dirOwner(mem::Addr line) const;
    /** Heap bytes of the sharer-mask side table (0 while no line has
     *  sharers). */
    std::size_t dirSharerBytes() const { return sharerSets.bytes(); }

    /** Sharer-vector bit this home uses for node @p n (group bit in
     *  coarse mode); lets the checker test membership correctly. */
    std::uint64_t sharerBitOf(NodeId n) const { return sharerBit(n); }

    /** Lines with a non-Invalid directory entry at this home. */
    std::vector<mem::Addr> dirLines() const;

    /**
     * Bytes of protocol + memory-model state this node holds right
     * now (MAF, victim buffers, directory incl. side tables, cache
     * tags, Zbox banks). The flat tables count their allocated slots;
     * the transaction side map is estimated from bucket and element
     * counts.
     */
    std::size_t footprintBytes() const;

    /**
     * Bytes the pre-PR-10 layout would hold for the same state:
     * eager cache tags and Zbox banks, and the fat directory entry
     * (inline transaction bookkeeping with its eagerly-allocated
     * deque chunk) for every entry. The mem.* telemetry reports
     * footprintBytes()/denseFootprintBytes() as the scaling win.
     */
    std::size_t denseFootprintBytes() const;
    /// @}

    /** Hook invoked when a line must leave the core's L1 too. */
    void setBackInvalidate(std::function<void(mem::Addr)> fn)
    {
        backInval = std::move(fn);
    }

    /**
     * Sink for IO-class packets (DMA payloads addressed to this
     * node's IO7). Without a sink they are counted and dropped.
     */
    void setIoSink(std::function<void(const net::Packet &)> fn)
    {
        ioSink = std::move(fn);
    }

    std::uint64_t ioPacketsReceived() const { return ioReceived; }

    /**
     * Observer for every coherence message this node sends or
     * receives (IO packets excluded). Machine::attachTrace uses it
     * to put each message into a Perfetto trace; the protocol
     * tests record flows through it.
     */
    using MsgObserver =
        std::function<void(const net::Packet &, bool incoming)>;
    void setMsgObserver(MsgObserver fn) { observer = std::move(fn); }

    /**
     * Latency x-ray collector (docs/TRACING.md). When set, every
     * miss this node issues consults the collector's deterministic
     * sampler; sampled transactions carry a trace::SpanState through
     * the protocol and complete back into the collector at fill.
     * Null (the default) keeps every hook to a single branch.
     */
    void setSpanCollector(trace::SpanCollector *c) { spans_ = c; }

    /** @name Events and checkpoint/restore
     *
     * Each event and continuation of this node is a Coh* EventDesc;
     * live or restored, its callback is callback(desc), which runs
     * fire(desc). saveCkpt serializes the protocol engine wholesale:
     * stats, L2 tags, Zboxes, the MAF (waiter/retry continuations by
     * descriptor, deferred forwards by value), victim buffers, the
     * directory (including Busy-transaction bookkeeping and queued
     * requests), throttled core accesses and in-flight fill batches.
     * Restore rebuilds every held continuation through @p rehydrate.
     * badEvent says why a restored CohSendMsg names no message type,
     * destination or requester of this machine (else nullptr).
     */
    /// @{
    void fire(const ckpt::EventDesc &d);
    auto callback(const ckpt::EventDesc &d) { return [this, d] { fire(d); }; }
    const char *badEvent(const ckpt::EventDesc &d) const;

    void saveCkpt(ckpt::Serializer &s) const;
    void restoreCkpt(ckpt::Deserializer &d,
                     const ckpt::RehydrateFn &rehydrate);
    /// @}

  private:
    /** One outstanding miss. */
    struct MafEntry
    {
        bool write = false;
        bool dataArrived = false;
        bool invalWhilePending = false;
        mem::LineState fillState = mem::LineState::Shared;
        int acksNeeded = -1; ///< unknown until the data response
        int acksGot = 0;
        Tick issued = 0;
        trace::SpanState span; ///< x-ray span (reply path; id 0 = off)
        std::vector<ckpt::Cont> waiters;
        std::vector<net::Packet> deferredFwds;
        std::vector<std::pair<bool, ckpt::Cont>> retries;
    };

    /** A parked group of fill-completion waiters (slot reused). */
    struct FillBatch
    {
        std::uint64_t id = 0;
        bool live = false;
        std::vector<ckpt::Cont> waiters;
    };

    /** A line held between eviction and VictimAck. */
    struct VictimEntry
    {
        bool dirty = false;
    };

    /** Busy-transaction bookkeeping, present only while needed. */
    struct DirTxn
    {
        NodeId requester = invalidNode;
        MsgType type = MsgType::RdReq;
        std::deque<Msg> pending;
    };

    // -- network plumbing ------------------------------------------
    void onPacket(const net::Packet &pkt);
    void send(MsgType type, NodeId dst, mem::Addr line, NodeId requester,
              std::uint32_t aux = 0);
    void sendAfter(double delay_ns, MsgType type, NodeId dst,
                   mem::Addr line, NodeId requester,
                   std::uint32_t aux = 0);

    // -- latency x-ray (no-ops unless spans_ is set; see TRACING.md)
    /** Move a parked span onto an outgoing carrier message. */
    void spanAttach(net::Packet &pkt, const Msg &m);
    /** Park an incoming request-path span / stash a reply-path one. */
    void spanOnRecv(const net::Packet &pkt, const Msg &m);
    /** Zbox read that advances a parked span through its Dram stage. */
    void zboxReadSpan(mem::Addr line, NodeId req, ckpt::Cont done);
    /** Close a parked span's Dram stage (zbox read completed). */
    void spanDramDone(mem::Addr line, NodeId req);

    // -- cache side -------------------------------------------------
    /** MAF slot holding @p line, or -1. */
    int
    mafSlotOf(mem::Addr line) const
    {
        for (std::size_t i = 0; i < mafLines.size(); ++i)
            if (mafLines[i] == line)
                return static_cast<int>(i);
        return -1;
    }
    /** Claim a free MAF slot for @p line, reset to a fresh entry. */
    MafEntry &mafAlloc(mem::Addr line);
    /** Heap bytes of the MAF slots and the fill-batch groups. */
    std::size_t mafBytes() const;
    void startMiss(mem::Addr line, bool write, ckpt::Cont done);
    void handleResponse(const Msg &m);
    void handleInvalAck(const Msg &m);
    void tryComplete(std::size_t slot);
    void finishFill(std::size_t slot);
    void runFillBatch(std::uint64_t id);
    void evictIfNeeded(const mem::Victim &victim);
    void handleForward(const net::Packet &pkt);
    void handleVictimAck(const Msg &m);
    void pumpPendingCore();

    // -- home side ---------------------------------------------------
    /**
     * Sharer-set bit for @p n: one bit per node in exact mode
     * (cfg.sharerGroupSize == 1), one per node group otherwise.
     */
    std::uint64_t
    sharerBit(NodeId n) const
    {
        return 1ULL << (static_cast<unsigned>(n) /
                        static_cast<unsigned>(cfg.sharerGroupSize));
    }

    /** Send Inval for @p line to every sharer in @p sharers except
     *  @p req; returns the number sent (the requester's ack count). */
    int sendInvals(std::uint64_t sharers, mem::Addr line, NodeId req);

    /** The sharer mask of @p line (0 when it has none). */
    std::uint64_t
    sharersOf(mem::Addr line) const
    {
        const std::uint64_t *m = sharerSets.find(line);
        return m ? *m : 0;
    }
    /** Set @p line's sharer mask; 0 drops the line from the side
     *  table, and the last drop frees the table's storage. */
    void setSharers(mem::Addr line, std::uint64_t mask);

    void homeDispatch(const Msg &m);
    /** @p e is the line's entry: found for a victim (null when
     *  absent), inserted for a read request. */
    void homeProcess(const Msg &m, DirEntry *e);
    void homeOwnerReply(const Msg &m, NodeId from);
    /** Mark @p e Busy (counted for quiesced()). */
    void beginBusy(DirEntry &e);
    /** The Busy entry of @p line, uncounted; its caller sets the
     *  final state. */
    DirEntry &endBusy(mem::Addr line);
    /** Drain queued requests after @p e left Busy; may erase @p e
     *  (through the pointer, without a second probe). */
    void finishTxn(mem::Addr line, DirEntry &e);
    mem::Zbox &zboxFor(mem::Addr line);

    // Home transaction bodies, the actions of the CohHome* events
    // (scheduleHome* are the zbox-read continuations; applyHome*
    // the directory updates they schedule after homeOverheadNs).
    void scheduleHomeExcl(mem::Addr line, NodeId req);
    void applyHomeExcl(mem::Addr line, NodeId req);
    void scheduleHomeShared(mem::Addr line, NodeId req, bool mod);
    void applyHomeShared(mem::Addr line, NodeId req, bool mod);
    void applyHomeVictim(mem::Addr line, NodeId req);
    void applyHomeDowngrade(mem::Addr line, std::uint64_t sharers);
    void applyHomeTransfer(mem::Addr line, NodeId req);

    SimContext &ctx;
    net::Network &net_;
    NodeId self;
    const mem::AddressMap &map;
    NodeConfig cfg;
    NodeStats st;

    std::unique_ptr<mem::Cache> cache;
    std::vector<std::unique_ptr<mem::Zbox>> zboxes;

    /**
     * The Miss Address File: slot i holds mafSlots[i] for line
     * mafLines[i] (noLine when free). At most cfg.mafEntries slots,
     * created on first use and never freed, so a reused slot keeps
     * its vectors' capacity; lookups scan the compact key array.
     */
    std::vector<mem::Addr> mafLines;
    std::vector<MafEntry> mafSlots;
    int mafCount = 0;

    LineTable<VictimEntry> vb;
    LineTable<DirEntry> dir;
    /** Sharer mask of each directory line whose mask is nonzero. */
    LineTable<std::uint64_t> sharerSets;
    std::unordered_map<mem::Addr, DirTxn> dirTxns;
    std::size_t busyLines = 0;  ///< dir entries in state Busy
    std::size_t queuedHome = 0; ///< requests queued in dirTxns

    /** finishFill's hand-off buffers for a retired entry's deferred
     *  forwards and retries (swapped, so capacity circulates). */
    std::vector<net::Packet> fwdScratch;
    std::vector<std::pair<bool, ckpt::Cont>> retryScratch;

    /**
     * X-ray spans parked while this node holds their transaction
     * (requester: issue to RdReq send; home: request arrival to
     * forward/response send; owner: forward arrival to response
     * send), keyed by (line, requester). std::map for deterministic
     * checkpoint iteration. Always empty when spans_ is null.
     */
    std::map<std::pair<mem::Addr, NodeId>, trace::SpanState> parked_;
    trace::SpanCollector *spans_ = nullptr;

    /** Core accesses waiting for a free MAF slot. */
    std::deque<std::tuple<mem::Addr, bool, ckpt::Cont>> pendingCore;

    /**
     * Fill-completion waiter groups parked while their one
     * fillOverheadNs event is pending (found by a monotonic id the
     * event's desc carries, so snapshots can re-attach it). Free
     * slots (live == false) are reused with their vectors' capacity.
     */
    std::vector<FillBatch> fillBatches;
    std::uint64_t nextFillBatch = 0;

    std::function<void(mem::Addr)> backInval;
    std::function<void(const net::Packet &)> ioSink;
    std::uint64_t ioReceived = 0;
    MsgObserver observer;
};

} // namespace gs::coher

#endif // GS_COHERENCE_NODE_HH
