/**
 * @file
 * LineTable: a flat, open-addressed map from cache-line address to a
 * small value, for the per-line protocol tables (the home directory
 * and the victim buffer).
 *
 * One power-of-two array of slots. A slot starts with a 64-bit key
 * word: the line address in bits 6..47 (lines lie below 2^47, so bit
 * 47 is always clear) and, in the other 22 bits, whatever the value
 * packs there; an empty slot's key is noLine. A value derived from
 * LineKey *is* its slot and may pack state into those spare bits (the
 * directory's 8-byte DirEntry does); any other value follows the key
 * word and leaves the spare bits clear.
 *
 * Probing is linear from a home slot that keeps runs of 2^runBits
 * consecutive lines in neighbouring slots: the run number takes a
 * Fibonacci hash, the line's offset in its run the low bits. Unit-
 * stride traffic (STREAM's reads, write-allocates and victims) then
 * walks the array instead of scattering over it. Erase shifts the
 * following cluster back into the hole, so there are no tombstones
 * and a probe stops at the first empty slot. Insert probes once: a
 * miss lands in the empty slot that ended its probe. Erase through an
 * entry's pointer skips the probe. An empty table owns no
 * storage; the array doubles when it would pass 3/4 full and never
 * shrinks, so a warm table inserts and erases without touching the
 * heap.
 *
 * Pointers returned by find()/insert() stay valid until the next
 * insert of a new line or erase of any line.
 */

#ifndef GS_COHERENCE_LINE_TABLE_HH
#define GS_COHERENCE_LINE_TABLE_HH

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "mem/address.hh"
#include "sim/logging.hh"

namespace gs::coher
{

/** Key of an unused slot; never a line address (not aligned). */
constexpr mem::Addr noLine = ~mem::Addr(0);

/** Every line a table holds lies below this address (bit 47). */
constexpr mem::Addr lineLimit = mem::Addr(1) << 47;

/** Key-word bits the table compares: the line, plus bit 47 so that
 *  noLine never matches a line. */
constexpr std::uint64_t lineBits = (lineLimit << 1) - mem::lineBytes;

/**
 * Base of a value that shares its slot's key word: the table owns
 * lineBits, the value the remaining 22 bits. A freshly inserted
 * value has those bits clear.
 */
struct LineKey
{
    std::uint64_t key = noLine;
};

template <typename V>
class LineTable
{
    struct Wrapped : LineKey
    {
        V value{};
    };

    static constexpr bool packed = std::derived_from<V, LineKey>;
    using Slot = std::conditional_t<packed, V, Wrapped>;

    template <typename S>
    static auto &
    valueOf(S &s)
    {
        if constexpr (packed)
            return s;
        else
            return s.value;
    }

  public:
    /** log2 of the lines a run keeps in neighbouring slots. */
    static constexpr unsigned runBits = 2;
    // The smallest array (16 slots) shifts the hash by 60 + runBits.
    static_assert(runBits <= 3, "run hash shift must stay below 64");

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    /** Slots allocated (a power of two, or 0). */
    std::size_t capacity() const { return slots ? mask + 1 : 0; }
    /** Heap bytes the table holds. */
    std::size_t bytes() const { return capacity() * sizeof(Slot); }

    V *
    find(mem::Addr line)
    {
        return const_cast<V *>(std::as_const(*this).find(line));
    }

    const V *
    find(mem::Addr line) const
    {
        if (count == 0)
            return nullptr;
        for (std::size_t i = homeSlot(line);; i = (i + 1) & mask) {
            const std::uint64_t key = slots[i].key;
            if ((key & lineBits) == line)
                return &valueOf(slots[i]);
            if (key == noLine)
                return nullptr;
        }
    }

    /**
     * The entry for @p line, inserting a value-initialized one when
     * absent; .second is true when it was inserted. One probe: a miss
     * takes the empty slot that ended it, unless the table must grow
     * first.
     */
    std::pair<V *, bool>
    insert(mem::Addr line)
    {
        if (!slots)
            grow();
        std::size_t i = homeSlot(line);
        for (;; i = (i + 1) & mask) {
            const std::uint64_t key = slots[i].key;
            if ((key & lineBits) == line)
                return {&valueOf(slots[i]), false};
            if (key == noLine)
                break;
        }
        gs_assert((line & ~lineBits) == 0 && line < lineLimit,
                  "line table key is not a line below 2^47");
        if ((std::size_t(count) + 1) * 4 > (mask + 1) * 3) {
            grow();
            i = freeSlotFor(line);
        }
        slots[i] = Slot{};
        slots[i].key = line;
        count += 1;
        return {&valueOf(slots[i]), true};
    }

    /** Remove @p line; returns false when it was absent. */
    bool
    erase(mem::Addr line)
    {
        if (count == 0)
            return false;
        std::size_t hole = homeSlot(line);
        while ((slots[hole].key & lineBits) != line) {
            if (slots[hole].key == noLine)
                return false;
            hole = (hole + 1) & mask;
        }
        eraseSlot(hole);
        return true;
    }

    /** Remove the entry @p v, a live pointer from find()/insert(). */
    void
    erase(const V *v)
    {
        // v lies inside its slot, so the byte offset rounds down to it.
        const std::size_t i =
            (reinterpret_cast<std::uintptr_t>(v) -
             reinterpret_cast<std::uintptr_t>(slots.get())) /
            sizeof(Slot);
        gs_assert(i < capacity() && slots[i].key != noLine,
                  "line table erase of an entry it does not hold");
        eraseSlot(i);
    }

    /** Drop every entry; the slot array keeps its capacity. */
    void
    clear()
    {
        for (std::size_t i = 0; i < capacity(); ++i)
            slots[i].key = noLine;
        count = 0;
    }

    /** Call @p fn(line, value) for every entry, in slot order. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (std::size_t i = 0; i < capacity(); ++i)
            if (slots[i].key != noLine)
                fn(slots[i].key & lineBits, valueOf(slots[i]));
    }

  private:
    std::size_t
    homeSlot(mem::Addr line) const
    {
        const std::uint64_t n = line >> 6;
        const std::uint64_t run =
            ((n >> runBits) * 0x9E3779B97F4A7C15ull) >> (shift + runBits);
        return static_cast<std::size_t>(
            (run << runBits) | (n & ((1u << runBits) - 1)));
    }

    /** The first empty slot probing from @p line's home slot. */
    std::size_t
    freeSlotFor(mem::Addr line) const
    {
        std::size_t i = homeSlot(line);
        while (slots[i].key != noLine)
            i = (i + 1) & mask;
        return i;
    }

    /** Empty the occupied slot @p hole. */
    void
    eraseSlot(std::size_t hole)
    {
        // Backward shift: move each later member of the cluster whose
        // home lies cyclically at or before the hole into it.
        for (std::size_t j = (hole + 1) & mask; slots[j].key != noLine;
             j = (j + 1) & mask) {
            const std::size_t fromHome =
                (j - homeSlot(slots[j].key & lineBits)) & mask;
            if (fromHome >= ((j - hole) & mask)) {
                slots[hole] = slots[j];
                hole = j;
            }
        }
        slots[hole].key = noLine;
        count -= 1;
    }

    void
    grow()
    {
        const std::size_t oldCap = capacity();
        const std::unique_ptr<Slot[]> old = std::move(slots);
        const std::size_t cap = oldCap == 0 ? 16 : 2 * oldCap;
        gs_assert(cap <= std::size_t(1) << 32,
                  "line table outgrew its 32-bit entry count");
        slots = std::make_unique<Slot[]>(cap);
        mask = cap - 1;
        shift = 64 - static_cast<unsigned>(std::countr_zero(cap));
        for (std::size_t i = 0; i < oldCap; ++i)
            if (old[i].key != noLine)
                slots[freeSlotFor(old[i].key & lineBits)] = old[i];
    }

    // 24 bytes: a node holds three tables, most of them empty at scale.
    std::unique_ptr<Slot[]> slots;
    std::size_t mask = 0;
    std::uint32_t count = 0;
    unsigned shift = 60;
};

} // namespace gs::coher

#endif // GS_COHERENCE_LINE_TABLE_HH
