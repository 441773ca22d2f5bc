/**
 * @file
 * Timing core: issues a TrafficSource's operations into the node's
 * coherent memory system, modelling an L1 data cache, bounded memory
 * parallelism (MLP), dependent-load serialization and think time.
 *
 * The 21364 keeps the 21264 core (Section 2 of the paper), so the
 * same core model serves every machine; only cache geometry, memory
 * and interconnect parameters differ between systems.
 */

#ifndef GS_CPU_CORE_HH
#define GS_CPU_CORE_HH

#include <functional>
#include <memory>
#include <optional>

#include "coherence/node.hh"
#include "cpu/traffic.hh"
#include "mem/cache.hh"
#include "sim/stats.hh"

namespace gs::cpu
{

/** Core issue parameters. */
struct CoreParams
{
    /** Maximum overlapped outstanding misses the core sustains.
     *  The 21364 MAF allows 16; sustained streaming MLP is lower. */
    int mlp = 8;

    bool useL1 = true;
    mem::CacheParams l1 = mem::CacheParams::l1d();
};

/** Per-core run statistics. */
struct CoreStats
{
    std::uint64_t opsIssued = 0;
    std::uint64_t opsDone = 0;
    std::uint64_t l1Hits = 0;
    Tick startTick = 0;
    Tick endTick = 0;

    double
    elapsedNs() const
    {
        return ticksToNs(endTick - startTick);
    }

    /** Demand bandwidth assuming 64 B per op below L1, in GB/s. */
    double
    missBandwidthGBs(std::uint64_t misses) const
    {
        double ns = elapsedNs();
        return ns > 0 ? static_cast<double>(misses) * 64.0 / ns : 0.0;
    }
};

/**
 * One CPU. Attach a TrafficSource with run(); the completion
 * callback fires when every operation has issued and completed.
 */
class TimingCore
{
  public:
    TimingCore(SimContext &ctx, coher::CoherentNode &node,
               CoreParams params);

    /** Begin executing @p source; @p on_done fires at completion. */
    void run(TrafficSource &source, std::function<void()> on_done);

    /**
     * Re-attach @p source and @p on_done to a core whose execution
     * state was just restored from a snapshot, WITHOUT resetting or
     * pumping: a quiescent unfinished core always has a pending
     * event or a parked continuation driving it, which the restore
     * re-enters separately.
     */
    void resume(TrafficSource &source, std::function<void()> on_done);

    /** True when the current stream has fully completed. */
    bool done() const { return finished; }

    const CoreStats &stats() const { return st; }

    /** Outstanding below-L1 accesses right now. */
    int outstanding() const { return inFlight; }

    /** @name Memory accounting (docs/SCALING.md): the core and its L1 */
    /// @{
    std::size_t
    footprintBytes() const
    {
        return sizeof(*this) + (l1 ? l1->footprintBytes() : 0);
    }

    std::size_t
    denseFootprintBytes() const
    {
        return sizeof(*this) + (l1 ? l1->denseFootprintBytes() : 0);
    }
    /// @}

    /** @name Events and checkpoint/restore: issue-stage state and L1.
     *
     * Think-timer, L1-hit and memory-completion events are Core*
     * EventDescs (the op encoded in the operands); live or restored,
     * their callback is callback(desc), which runs fire(desc). The
     * attached TrafficSource is serialized by its owner (the bench
     * keeps the sources; Machine::save snapshots them in the
     * workload section).
     */
    /// @{
    void fire(const ckpt::EventDesc &d);
    auto callback(const ckpt::EventDesc &d) { return [this, d] { fire(d); }; }

    void saveCkpt(ckpt::Serializer &s) const;
    void restoreCkpt(ckpt::Deserializer &d);
    /// @}

  private:
    void pump();
    void issue(const MemOp &op);
    void thinkDone();
    void memDone(const MemOp &op);
    void complete(const MemOp &op);
    void maybeFinish();

    SimContext &ctx;
    coher::CoherentNode &node;
    CoreParams prm;
    std::unique_ptr<mem::Cache> l1;

    TrafficSource *src = nullptr;
    std::function<void()> onDone;

    std::optional<MemOp> staged; ///< op whose think time is elapsing
    bool thinking = false;
    bool blocked = false; ///< dependent op in flight
    bool exhausted = false;
    bool finished = true;
    int inFlight = 0;

    CoreStats st;
};

} // namespace gs::cpu

#endif // GS_CPU_CORE_HH
