/**
 * @file
 * Set-associative cache model with coherence states and LRU
 * replacement.
 *
 * Models the two cache organizations the paper compares:
 *  - GS1280 (21364): 1.75 MB, 7-way, on-chip, 12-cycle load-to-use;
 *  - GS320/ES45 (21264): 16 MB, direct-mapped, off-chip, slower.
 *
 * The model is address-only (no data payload); the coherence layer
 * keeps per-line MESI-style state in the tag array.
 */

#ifndef GS_MEM_CACHE_HH
#define GS_MEM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/address.hh"
#include "sim/checkpoint.hh"
#include "sim/types.hh"

namespace gs::mem
{

/** Per-line coherence state (MESI without the data). */
enum class LineState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive, ///< sole owner, clean
    Modified,  ///< sole owner, dirty
};

/** Geometry and timing of one cache level. */
struct CacheParams
{
    std::uint64_t sizeBytes = 1792 * 1024; ///< 1.75 MB (21364 L2)
    int ways = 7;
    double loadToUseNs = 10.4; ///< 12 cycles at 1.15 GHz

    /** 21364 on-chip L2. */
    static CacheParams
    ev7L2()
    {
        return CacheParams{};
    }

    /** 21264 off-chip 16 MB direct-mapped L2 (GS320/ES45). */
    static CacheParams
    ev68L2()
    {
        CacheParams p;
        p.sizeBytes = 16ULL * 1024 * 1024;
        p.ways = 1;
        p.loadToUseNs = 25.0; // ~30 CPU cycles off-chip
        return p;
    }

    /** 21264/21364 64 KB 2-way L1 data cache. */
    static CacheParams
    l1d()
    {
        CacheParams p;
        p.sizeBytes = 64 * 1024;
        p.ways = 2;
        p.loadToUseNs = 2.6; // 3 cycles at 1.15 GHz
        return p;
    }
};

/** Result of a cache lookup. */
struct CacheAccess
{
    bool hit = false;
    LineState state = LineState::Invalid;
};

/** What a fill displaced. */
struct Victim
{
    Addr line = 0;
    LineState state = LineState::Invalid;

    bool valid() const { return state != LineState::Invalid; }
    bool dirty() const { return state == LineState::Modified; }
};

/**
 * A single cache level. All addresses are rounded to lines
 * internally; callers may pass byte addresses.
 */
class Cache
{
  public:
    explicit Cache(CacheParams params);

    /**
     * Look up @p a. A write hit on Shared does NOT upgrade the line
     * (that is a coherence transaction); it reports the hit and the
     * current state so the controller can decide.
     * Updates LRU on hit.
     */
    CacheAccess lookup(Addr a, bool write);

    /** State of the line holding @p a (Invalid when absent). */
    LineState state(Addr a) const;

    /** Change the state of a resident line. */
    void setState(Addr a, LineState s);

    /**
     * Insert the line of @p a with state @p s, evicting the LRU way.
     * @return the victim (invalid when the set had a free way).
     */
    Victim fill(Addr a, LineState s);

    /** Drop the line of @p a if present (invalidation). */
    void invalidate(Addr a);

    /** True if the line of @p a is resident in any valid state. */
    bool contains(Addr a) const { return state(a) != LineState::Invalid; }

    /** @name Geometry */
    /// @{
    const CacheParams &params() const { return prm; }
    int sets() const { return nSets; }
    std::uint64_t lines() const
    {
        return static_cast<std::uint64_t>(nSets) *
               static_cast<std::uint64_t>(prm.ways);
    }
    /// @}

    /** @name Statistics */
    /// @{
    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    double
    missRatio() const
    {
        auto total = nHits + nMisses;
        return total ? static_cast<double>(nMisses) /
                           static_cast<double>(total)
                     : 0.0;
    }
    void clearStats() { nHits = nMisses = 0; }
    /// @}

    /** Drop every line (between experiment phases). */
    void reset();

    /** @name Memory accounting (docs/SCALING.md) */
    /// @{

    /**
     * Bytes of heap + object this cache actually holds right now: a
     * 4-byte slot per set plus the arena, which holds tag storage only
     * for sets that have been filled, so a lightly-touched cache
     * costs little more than its slot table.
     */
    std::size_t
    footprintBytes() const
    {
        return sizeof(*this) +
               slots_.capacity() * sizeof(std::uint32_t) +
               arena_.capacity() * sizeof(std::uint64_t);
    }

    /**
     * Bytes the pre-lazy layout would hold: the full tag array of
     * 24-byte {tag, state, lastUse} lines.
     */
    std::size_t
    denseFootprintBytes() const
    {
        return sizeof(*this) + static_cast<std::size_t>(lines()) * 24;
    }
    /// @}

    /** @name Checkpoint/restore: tag array, LRU clock, hit stats. */
    /// @{
    void
    saveCkpt(ckpt::Serializer &s) const
    {
        s.put64(useClock);
        s.put64(nHits);
        s.put64(nMisses);
        s.put32(static_cast<std::uint32_t>(lines()));
        // An unallocated set serialises as a single absent flag
        // instead of `ways` invalid lines.
        for (std::uint32_t slot : slots_) {
            s.put8(slot ? 1 : 0);
            if (!slot)
                continue;
            const std::uint64_t *set = setAt(slot);
            for (std::size_t w = 0; w < stride; w += 2) {
                s.put64(set[w] & ~stateMask);
                s.put8(static_cast<std::uint8_t>(set[w] & stateMask));
                s.put64(set[w + 1]);
            }
        }
    }

    void
    restoreCkpt(ckpt::Deserializer &d)
    {
        useClock = d.get64();
        nHits = d.get64();
        nMisses = d.get64();
        if (d.get32() != lines() && d.ok()) {
            d.fail("cache geometry mismatch");
            return;
        }
        std::fill(slots_.begin(), slots_.end(), 0);
        arena_.clear();
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (d.get8() == 0)
                continue;
            std::uint64_t *set = ensureSet(i);
            for (std::size_t w = 0; w < stride; w += 2) {
                const std::uint64_t tag = d.get64();
                const std::uint8_t state = d.get8();
                if (((tag & stateMask) != 0 || state > stateMask) &&
                    d.ok())
                    d.fail("cache line tag or state out of range");
                set[w] = tag | (state & stateMask);
                set[w + 1] = d.get64();
            }
        }
    }
    /// @}

  private:
    /**
     * A tag word is the line-aligned address with the LineState in
     * its two low bits; a word with state bits 0 is an Invalid way.
     */
    static constexpr std::uint64_t stateMask = 3;
    static_assert(lineBytes > stateMask);

    /** Arena offset of the tag word holding @p a, or `absent`. */
    std::size_t find(Addr a) const;
    static constexpr std::size_t absent = ~std::size_t{0};

    /** Tag storage of set @p i, appending it to the arena first. */
    std::uint64_t *ensureSet(std::size_t i);

    /** Arena storage of the set in @p slot (nonzero). */
    std::uint64_t *setAt(std::uint32_t slot)
    {
        return arena_.data() + (slot - 1) * stride;
    }
    const std::uint64_t *setAt(std::uint32_t slot) const
    {
        return arena_.data() + (slot - 1) * stride;
    }

    std::size_t setOf(Addr a) const
    {
        return static_cast<std::size_t>(lineIndex(a)) & setMask;
    }

    CacheParams prm;
    int nSets;
    std::size_t setMask;
    /**
     * Arena words per allocated set: per way, the tag word then its
     * LRU stamp. Keeping the pair together puts a hit's stamp store
     * in the line the tag scan just read; with all tags ahead of all
     * stamps that store often missed the host cache and stalled the
     * event-queue loads behind it (fluent16 ran ~7 % slower).
     */
    std::size_t stride;
    /** Per set: 0 = unallocated, k = arena set k - 1. */
    std::vector<std::uint32_t> slots_;
    /** Allocated sets in first-fill order, `stride` words each. */
    std::vector<std::uint64_t> arena_;
    std::uint64_t useClock = 0;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
};

// The hit path is inline: it runs on every L1 and L2 access.

inline std::size_t
Cache::find(Addr a) const
{
    const std::uint32_t slot = slots_[setOf(a)];
    if (!slot)
        return absent;
    const std::uint64_t *set = setAt(slot);
    // A valid way holding the line is `line | state` with state in
    // 1..3, so `word - line - 1` falls in [0, 3) exactly for a hit.
    const Addr hitBase = lineOf(a) + 1;
    for (std::size_t w = 0; w < stride; w += 2) {
        if (set[w] - hitBase < stateMask)
            return static_cast<std::size_t>(set - arena_.data()) + w;
    }
    return absent;
}

inline CacheAccess
Cache::lookup(Addr a, bool)
{
    const std::size_t at = find(a);
    if (at != absent) {
        arena_[at + 1] = ++useClock;
        nHits += 1;
        return CacheAccess{true,
                           static_cast<LineState>(arena_[at] & stateMask)};
    }
    nMisses += 1;
    return CacheAccess{false, LineState::Invalid};
}

inline LineState
Cache::state(Addr a) const
{
    const std::size_t at = find(a);
    return at != absent ? static_cast<LineState>(arena_[at] & stateMask)
                        : LineState::Invalid;
}

} // namespace gs::mem

#endif // GS_MEM_CACHE_HH
