/**
 * @file
 * Conservative parallel discrete-event engine.
 *
 * A machine's components are partitioned into spatial domains — on
 * the torus, R x C x S box *tiles* chosen by chooseTileShape()
 * from the worker-thread count (or pinned via --tile-shape) — each
 * with its own SimContext (event queue), and all domains advance in
 * barrier-synchronized epochs. An epoch's window length equals the
 * conservative lookahead: the minimum delay any event executing in
 * one domain can impose on another domain (on the torus, the
 * one-cycle credit return across a cross-domain link — see
 * docs/PARALLEL.md for the derivation). A client-supplied window
 * hook may *widen* a window when the fabric is provably quiescent
 * (adaptive lookahead; the AdaptiveLookahead state machine below).
 * Within a window every domain fires its events independently;
 * anything aimed at another domain is buffered in a mailbox by the
 * client layer (the Network) and merged at the next barrier in
 * canonical (when, src-domain, src-seq) order via
 * EventQueue::scheduleMergedAt.
 *
 * Each worker drains a fixed contiguous block of domains every epoch.
 *
 * Determinism contract: epoch boundaries are a pure function of
 * simulation state (each next window starts at the globally earliest
 * pending event; widening depends only on fabric state), and domain
 * count is fixed by the machine build — never by the worker-thread
 * count. Results are therefore bit-identical at any --threads value,
 * the same contract the sweep engine (sim/sweep.hh) established
 * across --jobs.
 */

#ifndef GS_SIM_PARALLEL_HH
#define GS_SIM_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/context.hh"
#include "sim/types.hh"

namespace gs
{

/**
 * A box tiling of a torus into rows x cols x slabs domains. A 2-D
 * torus is the depth-1 case: slabs stays 1, so `{r, c}` aggregate
 * initialisers describe its tilings.
 */
struct TileShape
{
    int rows = 1;
    int cols = 1;
    int slabs = 1;

    int count() const { return rows * cols * slabs; }
    bool operator==(const TileShape &o) const
    {
        return rows == o.rows && cols == o.cols && slabs == o.slabs;
    }
};

/**
 * Pick the R x C x S box tiling of a @p width x @p height x @p depth
 * torus for @p threads workers (a 2-D torus passes depth 1).
 * Deterministic, and a pure function of its arguments: the
 * decomposition (and therefore every simulated result) depends on
 * the *shape*, so runs that must be compared at different thread
 * counts pin an explicit shape instead.
 *
 * Preference order among tilings with at least
 * min(threads, W*H*D) tiles: fewest tiles, then fewest torus links
 * cut by tile seams (a seam between Z slabs cuts width*height links,
 * between Y bands width*depth, between X bands height*depth), then
 * most cubical, then wider-than-tall/deep — so 8 threads on an 8x8
 * torus get 2x4 tiles (48 cut links) rather than 8 columns (64).
 */
TileShape chooseTileShape(int width, int height, int depth, int threads);

/**
 * Domain index of torus node (@p x, @p y, @p z) under @p shape tiles
 * on a @p width x @p height x @p depth torus: tiles are contiguous
 * blocks of whole rows/columns/planes (balanced split), numbered
 * slab-major over Z, then row-major within the slab.
 */
inline int
tileDomainOf(int x, int y, int z, int width, int height, int depth,
             TileShape shape)
{
    int ts = z * shape.slabs / depth;
    return (ts * shape.rows + y * shape.rows / height) * shape.cols +
           x * shape.cols / width;
}

/**
 * The adaptive-lookahead state machine (docs/PARALLEL.md). One
 * instance per machine, stepped once per epoch barrier by the window
 * hook: while the fabric is quiescent the window doubles each epoch
 * up to min(base * maxFactor, bound); any traffic snaps it back to
 * the conservative base. Pure state machine — unit-tested directly
 * in tests/sim/parallel_tile_test.cc — and checkpointed (the factor
 * is part of deterministic engine state).
 */
struct AdaptiveLookahead
{
    Tick base = 1;     ///< conservative lookahead (floor)
    Tick bound = 1;    ///< provable idle-window cap (ceiling)
    int maxFactor = 16;
    int factor = 1;    ///< current widening multiple

    /**
     * One barrier step: @p quiet is "no cross-domain effect can
     * arise without a fresh injection". @return the next window
     * length.
     */
    Tick
    step(bool quiet)
    {
        factor = quiet ? std::min(factor * 2, maxFactor) : 1;
        Tick len = base * static_cast<Tick>(factor);
        Tick cap = bound > base ? bound : base;
        return len < cap ? len : cap;
    }

    /** Whether the last step() returned a window wider than base. */
    bool
    widened() const
    {
        return factor > 1 && bound > base;
    }
};

/** Barrier-synchronized multi-domain event-loop driver. */
class ParallelEngine
{
  public:
    struct Config
    {
        int domains = 1;
        int threads = 1;    ///< workers; clamped to [1, domains]
        Tick lookahead = 1; ///< epoch window length in ticks
        std::uint64_t seed = 1;
    };

    /**
     * Merge hook: called for every domain at the start of every
     * epoch by the worker that owns the domain, after the barrier —
     * every mailbox written during the previous epoch is quiescent.
     * The client schedules the buffered cross-domain work into
     * domainCtx(domain) with scheduleMergedAt, in canonical order.
     */
    using MergeFn = std::function<void(int domain, Tick windowStart)>;

    /**
     * Earliest due time among cross-domain entries domain @p d has
     * posted but no consumer has merged yet (maxTick when none).
     * Folded into the next-window computation at each barrier so
     * skip-ahead never jumps past buffered work.
     */
    using PendingMinFn = std::function<Tick(int domain)>;

    /**
     * Stop predicate, evaluated by exactly one thread at each
     * barrier while all other workers are parked — every domain's
     * state is coherent and safe to read. Returning true ends the
     * run (the Machine's completion check).
     */
    using StopFn = std::function<bool()>;

    /**
     * Publish hook: called for every domain by its owning worker
     * after the domain drains each window, before the barrier. The
     * client snapshots per-domain state (double-buffered on its
     * side) that every domain's next merge may read — the Network
     * uses it to reduce global tick-chain liveness.
     */
    using PublishFn = std::function<void(int domain)>;

    /**
     * Window hook: called once per epoch (by the last thread to
     * arrive at the barrier, all others parked) with the window
     * start and the conservative end (start + lookahead). Returns
     * the window end to use — the Network's adaptive-lookahead step
     * widens it when the fabric is quiescent. Must be a pure
     * function of simulation state; the result is clamped at the
     * run deadline afterwards.
     */
    using WindowFn = std::function<Tick(Tick windowStart, Tick baseEnd)>;

    /** Epoch observer for tests: (worker thread, epoch index). */
    using EpochFn = std::function<void(int thread, std::uint64_t epoch)>;

    explicit ParallelEngine(Config cfg);
    ~ParallelEngine();

    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    int domains() const { return nDomains; }
    int threads() const { return nThreads; }
    Tick lookahead() const { return lookahead_; }

    SimContext &domainCtx(int d) { return *ctxs[std::size_t(d)]; }
    const SimContext &domainCtx(int d) const
    {
        return *ctxs[std::size_t(d)];
    }

    void setMergeHook(MergeFn fn) { merge = std::move(fn); }
    void setPendingMinHook(PendingMinFn fn) { pendingMin = std::move(fn); }
    void setPublishHook(PublishFn fn) { publish = std::move(fn); }
    void setWindowHook(WindowFn fn) { windowFn = std::move(fn); }
    void setEpochHook(EpochFn fn) { epochHook = std::move(fn); }

    /**
     * Advance all domains in epochs until every queue and mailbox
     * drains, the next window would start past @p deadline (events
     * due exactly at the deadline still fire, matching the serial
     * runUntil contract; windows are clamped so nothing later
     * does), or @p stop returns true at a barrier. On return every
     * domain clock is synced to the same final time — the maximum
     * across domains, i.e. the time of the globally last fired
     * event.
     * @return that final time.
     */
    Tick run(Tick deadline, const StopFn &stop = {});

    /** Sync every domain clock to @p t (>= every domain's now). */
    void syncAll(Tick t);

    /** @name Self-metrics (the par.* telemetry gauges) */
    /// @{
    /** Epochs (barrier intervals) executed so far. */
    std::uint64_t epochs() const { return epochs_; }

    /**
     * Reset the epoch counter to a snapshotted value (restore path).
     * Epoch boundaries are a pure function of simulation state, so a
     * restored run's subsequent epochs replay the saved run's and
     * the par.epochs gauge converges to the uninterrupted value.
     */
    void restoreEpochs(std::uint64_t e) { epochs_ = e; }

    /** Events fired across all domains. */
    std::uint64_t firedTotal() const;

    /**
     * Fraction of total worker wall-time spent waiting at barriers.
     * Wall-clock derived — like every metric in this group below, it
     * is NOT deterministic across runs or thread counts.
     */
    double barrierWaitFrac() const;

    /**
     * Fraction of the average worker's wall-time during which tile
     * @p d was NOT being drained — per-tile barrier/idle share. A
     * hot tile shows a low value; its peers' high values are the
     * time their workers spent waiting for it.
     */
    double tileWaitFrac(int d) const;
    /// @}

  private:
    struct alignas(64) PerThread
    {
        std::uint64_t waitNs = 0;   ///< wall time parked at barriers
        std::uint64_t activeNs = 0; ///< wall time in the epoch body
    };

    /**
     * Per-domain epoch state, written only by the owning worker and
     * read by the barrier's window computation — ordered by the
     * barrier.
     */
    struct alignas(64) PerDomain
    {
        Tick localMin = maxTick; ///< earliest pending after drain
        std::uint64_t activeNs = 0;
    };

    void workerLoop(int t);
    void processDomain(int d, Tick ws, Tick we);
    void barrier(int t);
    void computeNextWindow();
    Tick clampWindowEnd(Tick we) const;

    /** Home domains of worker @p t: a contiguous block. */
    std::pair<int, int> ownedRange(int t) const;

    int nDomains;
    int nThreads;
    Tick lookahead_;

    std::vector<std::unique_ptr<SimContext>> ctxs;

    MergeFn merge;
    PendingMinFn pendingMin;
    PublishFn publish;
    WindowFn windowFn;
    EpochFn epochHook;
    const StopFn *stop_ = nullptr; ///< valid during run() only

    // Epoch/barrier state. `gen` is the barrier generation counter;
    // the last arriver computes the next window (or sets `done`)
    // and bumps it, releasing the spinners. Spinners that exhaust
    // their spin budget park on `gen` (futex wait) — `parked` tells
    // the releaser whether a notify is needed, which keeps
    // oversubscribed hosts from burning whole scheduler quanta in
    // the spin loop.
    std::atomic<int> arrived{0};
    std::atomic<int> parked{0};
    std::atomic<std::uint64_t> gen{0};
    Tick windowStart = 0;
    Tick windowEnd = 0;
    Tick deadline_ = maxTick;
    bool done = false;

    std::vector<PerThread> per;
    std::vector<PerDomain> dom_;
    std::uint64_t epochs_ = 0;
};

} // namespace gs

#endif // GS_SIM_PARALLEL_HH
