/**
 * @file
 * Network timing/sizing parameters.
 *
 * Defaults model the GS1280 interconnect from the paper's Section 2:
 * inter-processor links run at 767 MHz (data rate) and deliver
 * 3.1 GB/s per direction, i.e. ~4 bytes per cycle — one 4-byte flit
 * per cycle per link. A 64-byte block response therefore occupies a
 * link for 18 cycles. Wire delays differ by link construction
 * (on-module vs backplane vs cable), which is what spreads the
 * one-hop latencies in Figure 13 (139 ns vs 145 ns vs 154 ns).
 */

#ifndef GS_NET_PARAMS_HH
#define GS_NET_PARAMS_HH

#include "sim/types.hh"
#include "topology/topology.hh"

namespace gs::net
{

/** Timing and buffering parameters for one network. */
struct NetworkParams
{
    /** Router/link clock in MHz (767 MHz data rate on the 21364). */
    double clockMHz = 767.0;

    /** Router pipeline depth in cycles (route/VC/switch stages);
     *  calibrated against the per-hop increments of Figure 13. */
    int pipelineCycles = 8;

    /** Extra cycles to cross a wire, by construction. */
    int onModuleWireCycles = 1;
    int backplaneWireCycles = 3;
    int cableWireCycles = 6;
    int internalWireCycles = 1; ///< switch-internal (GS320)

    /** Cycles to move a packet from a source agent into the router. */
    int injectionCycles = 2;

    /** Cycles from ejection port to the destination agent. */
    int ejectionCycles = 2;

    /** Buffer capacity of each escape VC, in flits. */
    int escapeVcFlits = 2 * 18;

    /** Buffer capacity of each adaptive VC, in flits. */
    int adaptiveVcFlits = 4 * 18;

    /** Cycles for a freed buffer's credit to reach the upstream. */
    int creditCycles = 1;

    /** @name Ablation knobs (default: the 21364 design point) */
    /// @{

    /** Minimal-adaptive routing; false = dimension-order only. */
    bool adaptiveEnabled = true;

    /** Cut-through forwarding; false = store-and-forward per hop. */
    bool cutThrough = true;

    /// @}

    Tick period() const { return Clock::fromMHz(clockMHz).periodTicks(); }

    int
    wireCycles(topo::LinkKind kind) const
    {
        switch (kind) {
          case topo::LinkKind::OnModule:
            return onModuleWireCycles;
          case topo::LinkKind::Backplane:
            return backplaneWireCycles;
          case topo::LinkKind::Cable:
            return cableWireCycles;
          case topo::LinkKind::Internal:
            return internalWireCycles;
        }
        return cableWireCycles;
    }

    /** GS1280 defaults (see file comment). */
    static NetworkParams gs1280() { return NetworkParams{}; }

    /**
     * GS320-style switch fabric: a slower, deeper, switch-based
     * network. The GS320 global port delivers ~1.6 GB/s per link and
     * remote accesses cost ~860 ns (Figure 12), dominated by switch
     * traversals; modelled as a slow clock and deep pipelines.
     */
    static NetworkParams
    gs320()
    {
        NetworkParams p;
        p.clockMHz = 400.0;
        p.pipelineCycles = 16;     // QBB switch serialization
        p.internalWireCycles = 3;
        p.cableWireCycles = 30;    // QBB <-> global switch cables
        p.injectionCycles = 8;     // bus request/grant on the CPU port
        p.ejectionCycles = 4;
        p.escapeVcFlits = 2 * 18;
        p.adaptiveVcFlits = 2 * 18; // unused (no adaptivity), kept small
        return p;
    }
};

} // namespace gs::net

#endif // GS_NET_PARAMS_HH
