#include "mem/cache.hh"

#include "sim/logging.hh"

namespace gs::mem
{

Cache::Cache(CacheParams params) : prm(params)
{
    gs_assert(prm.ways >= 1);
    gs_assert(prm.sizeBytes % (lineBytes * static_cast<Addr>(prm.ways))
                  == 0,
              "cache size not divisible into ways of whole lines");
    nSets = static_cast<int>(prm.sizeBytes /
                             (lineBytes * static_cast<Addr>(prm.ways)));
    gs_assert(nSets >= 1 && (nSets & (nSets - 1)) == 0,
              "cache set count must be a power of two, got ", nSets,
              " (", prm.sizeBytes, " bytes, ", prm.ways, " ways)");
    setMask = static_cast<std::size_t>(nSets) - 1;
    stride = 2 * static_cast<std::size_t>(prm.ways);
    slots_.resize(static_cast<std::size_t>(nSets));
}

std::uint64_t *
Cache::ensureSet(std::size_t i)
{
    if (!slots_[i]) {
        // Grow by doubling, but never past the dense tag array.
        if (arena_.size() + stride > arena_.capacity())
            arena_.reserve(std::min(
                std::max(2 * arena_.size(), stride),
                slots_.size() * stride));
        arena_.resize(arena_.size() + stride);
        slots_[i] = static_cast<std::uint32_t>(arena_.size() / stride);
    }
    return setAt(slots_[i]);
}

void
Cache::setState(Addr a, LineState s)
{
    const std::size_t at = find(a);
    gs_assert(at != absent, "setState on non-resident line");
    arena_[at] = s == LineState::Invalid
                     ? 0
                     : (arena_[at] & ~stateMask) |
                           static_cast<std::uint64_t>(s);
}

Victim
Cache::fill(Addr a, LineState s)
{
    gs_assert(s != LineState::Invalid, "filling an Invalid line");
    gs_assert(find(a) == absent, "fill of already-resident line");

    // `v` indexes the victim's tag word: the first invalid way, else
    // the least recently used one.
    std::uint64_t *set = ensureSet(setOf(a));
    std::size_t v = 0;
    for (std::size_t w = 0; w < stride; w += 2) {
        if ((set[w] & stateMask) == 0) {
            v = w;
            break;
        }
        if (set[w + 1] < set[v + 1])
            v = w;
    }

    Victim victim;
    if (set[v] & stateMask) {
        victim.line = set[v] & ~stateMask;
        victim.state = static_cast<LineState>(set[v] & stateMask);
    }
    set[v] = lineOf(a) | static_cast<std::uint64_t>(s);
    set[v + 1] = ++useClock;
    return victim;
}

void
Cache::invalidate(Addr a)
{
    const std::size_t at = find(a);
    if (at != absent)
        arena_[at] = 0;
}

void
Cache::reset()
{
    std::fill(slots_.begin(), slots_.end(), 0);
    arena_.clear();
    arena_.shrink_to_fit();
    useClock = 0;
}

} // namespace gs::mem
