#include "sim/parallel.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace gs
{

namespace
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

TileShape
chooseTileShape(int width, int height, int depth, int threads)
{
    gs_assert(width >= 1 && height >= 1 && depth >= 1,
              "degenerate torus");
    const int nodes = width * height * depth;
    const int target = std::min(std::max(threads, 1), nodes);

    // Among tilings with at least `target` tiles prefer: fewest
    // tiles, then fewest torus links cut by tile seams, then most
    // cubical, then more columns, then more slabs. The torus wraps,
    // so k > 1 bands along an axis cut k seams and a single band
    // cuts none (its wrap seam is interior to the tile). At depth 1
    // the imbalance term |r-c| + |c-s| + |r-s| is 2*max(r, c) - 2,
    // which orders the factorisations of a fixed tile count exactly
    // as the squareness |r-c| does.
    TileShape best;
    long bestKey[5] = {0, 0, 0, 0, 0};
    bool have = false;
    for (int r = 1; r <= height; ++r) {
        for (int c = 1; c <= width; ++c) {
            for (int s = 1; s <= depth; ++s) {
                const int n = r * c * s;
                if (n < target)
                    continue;
                const long cut =
                    (r > 1 ? long(width) * depth * r : 0) +
                    (c > 1 ? long(height) * depth * c : 0) +
                    (s > 1 ? long(width) * height * s : 0);
                const long imbalance = std::labs(long(r) - c) +
                                       std::labs(long(c) - s) +
                                       std::labs(long(r) - s);
                long key[5] = {n, cut, imbalance, -c, -s};
                if (!have ||
                    std::lexicographical_compare(key, key + 5, bestKey,
                                                 bestKey + 5)) {
                    best = {r, c, s};
                    std::copy(key, key + 5, bestKey);
                    have = true;
                }
            }
        }
    }
    return best;
}

ParallelEngine::ParallelEngine(Config cfg)
    : nDomains(cfg.domains),
      nThreads(std::min(std::max(cfg.threads, 1), cfg.domains)),
      lookahead_(cfg.lookahead)
{
    gs_assert(nDomains >= 1, "need at least one domain");
    gs_assert(lookahead_ > 0, "lookahead must be positive");
    ctxs.reserve(static_cast<std::size_t>(nDomains));
    // Workers must not allocate in steady state; first-touch bucket
    // growth can strike arbitrarily late without prewarming. Each
    // queue reserves perBucket 24-byte keys in each of its 1024
    // buckets and perBucket * 128 callback slots of 128 bytes:
    // 320 KiB at perBucket = 8, 80 KiB at the floor of 2. The
    // footprint scales down as the tile count grows so a finely
    // tiled machine does not multiply it.
    const std::size_t perBucket =
        nDomains <= 8 ? 8
                      : std::max<std::size_t>(
                            2, 64 / static_cast<std::size_t>(nDomains));
    for (int d = 0; d < nDomains; ++d) {
        ctxs.push_back(std::make_unique<SimContext>(
            Rng::deriveSeed(cfg.seed, static_cast<std::uint64_t>(d))));
        ctxs.back()->queue().prewarm(perBucket);
    }
    per.resize(static_cast<std::size_t>(nThreads));
    dom_.resize(static_cast<std::size_t>(nDomains));
}

ParallelEngine::~ParallelEngine() = default;

std::pair<int, int>
ParallelEngine::ownedRange(int t) const
{
    // Contiguous blocks: worker t starts at [t*D/T, (t+1)*D/T).
    // Adjacent tiles land on the same worker, which keeps a worker's
    // epoch body walking neighbouring state.
    int lo = t * nDomains / nThreads;
    int hi = (t + 1) * nDomains / nThreads;
    return {lo, hi};
}

std::uint64_t
ParallelEngine::firedTotal() const
{
    std::uint64_t n = 0;
    for (const auto &c : ctxs)
        n += c->queue().firedCount();
    return n;
}

double
ParallelEngine::barrierWaitFrac() const
{
    std::uint64_t wait = 0, active = 0;
    for (const auto &p : per) {
        wait += p.waitNs;
        active += p.activeNs;
    }
    std::uint64_t total = wait + active;
    return total ? static_cast<double>(wait) /
                       static_cast<double>(total)
                 : 0.0;
}

double
ParallelEngine::tileWaitFrac(int d) const
{
    std::uint64_t wait = 0, active = 0;
    for (const auto &p : per) {
        wait += p.waitNs;
        active += p.activeNs;
    }
    const double wall = static_cast<double>(wait + active) /
                        static_cast<double>(nThreads);
    if (wall <= 0.0)
        return 0.0;
    const double mine =
        static_cast<double>(dom_[std::size_t(d)].activeNs);
    const double frac = 1.0 - mine / wall;
    return frac < 0.0 ? 0.0 : (frac > 1.0 ? 1.0 : frac);
}

void
ParallelEngine::syncAll(Tick t)
{
    for (auto &c : ctxs)
        c->queue().syncTime(t);
}

Tick
ParallelEngine::clampWindowEnd(Tick we) const
{
    // Clamped at the deadline so that, like the serial runUntil,
    // events due exactly at the deadline fire and nothing past it
    // does.
    if (deadline_ != maxTick && we > deadline_)
        return deadline_ + 1;
    return we;
}

void
ParallelEngine::computeNextWindow()
{
    // Runs with every other worker parked at the barrier: all domain
    // state is coherent here.
    Tick globalMin = maxTick;
    for (const auto &pd : dom_)
        globalMin = std::min(globalMin, pd.localMin);

    epochs_ += 1;

    if (stop_ && *stop_ && (*stop_)()) {
        done = true; // the client's completion condition holds
        return;
    }
    if (globalMin > deadline_ || globalMin == maxTick) {
        done = true; // out of time, or fully drained
        return;
    }
    // Skip-ahead: the next window starts at the globally earliest
    // pending work, not at the previous window's end — idle gaps
    // cost one barrier, not one barrier per lookahead interval. The
    // window hook (adaptive lookahead) may then widen the
    // conservative end; both are pure functions of simulation state,
    // so the epoch sequence stays thread-count invariant.
    windowStart = globalMin;
    windowEnd = windowStart + lookahead_;
    if (windowFn)
        windowEnd = windowFn(windowStart, windowEnd);
    windowEnd = clampWindowEnd(windowEnd);
}

void
ParallelEngine::barrier(int t)
{
    std::uint64_t g = gen.load(std::memory_order_relaxed);
    if (arrived.fetch_add(1, std::memory_order_acq_rel) ==
        nThreads - 1) {
        computeNextWindow();
        arrived.store(0, std::memory_order_relaxed);
        gen.store(g + 1, std::memory_order_seq_cst);
        if (parked.load(std::memory_order_seq_cst) > 0)
            gen.notify_all();
        return;
    }
    std::uint64_t t0 = nowNs();
    int spins = 0;
    while (gen.load(std::memory_order_acquire) == g) {
        spins += 1;
        if (spins < 128)
            continue;
        if (spins < 144) {
            std::this_thread::yield();
            continue;
        }
        // Park: on an oversubscribed host a spinner would otherwise
        // burn its whole scheduler quantum while the worker that
        // must release it waits for a core.
        parked.fetch_add(1, std::memory_order_seq_cst);
        if (gen.load(std::memory_order_seq_cst) == g)
            gen.wait(g);
        parked.fetch_sub(1, std::memory_order_relaxed);
        spins = 0;
    }
    per[std::size_t(t)].waitNs += nowNs() - t0;
}

void
ParallelEngine::processDomain(int d, Tick ws, Tick we)
{
    std::uint64_t a0 = nowNs();
    EventQueue &q = ctxs[std::size_t(d)]->queue();
    // windowStart never precedes a domain's pending work (it is the
    // global min), so the sync below is always legal; it keeps idle
    // domains' clocks moving with the machine.
    if (q.now() < ws)
        q.syncTime(ws);
    if (merge)
        merge(d, ws);
    q.drainWindow(we);
    if (publish)
        publish(d);
    Tick lm = q.peekNext();
    if (pendingMin)
        lm = std::min(lm, pendingMin(d));
    PerDomain &pd = dom_[std::size_t(d)];
    pd.localMin = lm;
    pd.activeNs += nowNs() - a0;
}

void
ParallelEngine::workerLoop(int t)
{
    auto [lo, hi] = ownedRange(t);
    std::uint64_t epoch = epochs_; // same value on every worker
    for (;;) {
        std::uint64_t t0 = nowNs();
        const Tick ws = windowStart, we = windowEnd;
        for (int d = lo; d < hi; ++d)
            processDomain(d, ws, we);
        per[std::size_t(t)].activeNs += nowNs() - t0;
        if (epochHook)
            epochHook(t, epoch);
        epoch += 1;
        barrier(t);
        if (done)
            return;
    }
}

Tick
ParallelEngine::run(Tick deadline, const StopFn &stop)
{
    deadline_ = deadline;
    stop_ = &stop;
    done = false;

    // Initial window: the serial loop checks for completion before
    // firing anything; mirror that, then anchor the first window at
    // the earliest pending event anywhere.
    Tick globalMin = maxTick;
    for (auto &c : ctxs)
        globalMin = std::min(globalMin, c->queue().peekNext());
    if (pendingMin) {
        for (int d = 0; d < nDomains; ++d)
            globalMin = std::min(globalMin, pendingMin(d));
    }
    bool stopNow = stop && stop();
    if (!stopNow && globalMin <= deadline_ && globalMin != maxTick) {
        windowStart = globalMin;
        windowEnd = windowStart + lookahead_;
        if (windowFn)
            windowEnd = windowFn(windowStart, windowEnd);
        windowEnd = clampWindowEnd(windowEnd);

        std::vector<std::thread> workers;
        workers.reserve(static_cast<std::size_t>(nThreads - 1));
        for (int t = 1; t < nThreads; ++t)
            workers.emplace_back([this, t] { workerLoop(t); });
        workerLoop(0);
        for (auto &w : workers)
            w.join();
    }
    stop_ = nullptr;

    // Final time: the globally last fired event, mirrored into every
    // domain clock so any component's view of now() agrees.
    Tick end = 0;
    for (auto &c : ctxs)
        end = std::max(end, c->queue().now());
    syncAll(end);
    return end;
}

} // namespace gs
