/**
 * @file
 * LineTable: a flat, open-addressed map from cache-line address to a
 * small value, for the per-line protocol tables (the home directory
 * and the victim buffer).
 *
 * One power-of-two array of {line, value} slots, linear probing from
 * a Fibonacci hash of the line number. Erase shifts the following
 * cluster back into the hole, so there are no tombstones and a probe
 * stops at the first empty slot. An empty table owns no storage; the
 * array doubles when it would pass 3/4 full and never shrinks, so a
 * warm table inserts and erases without touching the heap.
 *
 * Pointers returned by find()/insert() stay valid until the next
 * insert of a new line or erase of any line.
 */

#ifndef GS_COHERENCE_LINE_TABLE_HH
#define GS_COHERENCE_LINE_TABLE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "mem/address.hh"

namespace gs::coher
{

/** Key of an unused slot; never a line address (not aligned). */
constexpr mem::Addr noLine = ~mem::Addr(0);

template <typename V>
class LineTable
{
  public:
    struct Slot
    {
        mem::Addr line = noLine;
        V value{};
    };

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    /** Slots allocated (a power of two, or 0). */
    std::size_t capacity() const { return slots.size(); }
    /** Heap bytes the table holds. */
    std::size_t bytes() const { return slots.capacity() * sizeof(Slot); }

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
            const Slot &s = slots[i];
            if (s.line == line)
                return &s.value;
            if (s.line == noLine)
                return nullptr;
        }
    }

    /**
     * The entry for @p line, inserting a value-initialized one when
     * absent; .second is true when it was inserted.
     */
    std::pair<V *, bool>
    insert(mem::Addr line)
    {
        if (V *v = find(line))
            return {v, false};
        if ((count + 1) * 4 > slots.size() * 3)
            grow();
        std::size_t i = homeSlot(line);
        while (slots[i].line != noLine)
            i = (i + 1) & mask;
        slots[i].line = line;
        slots[i].value = V{};
        count += 1;
        return {&slots[i].value, true};
    }

    /** Remove @p line; returns false when it was absent. */
    bool
    erase(mem::Addr line)
    {
        if (count == 0)
            return false;
        std::size_t hole = homeSlot(line);
        while (slots[hole].line != line) {
            if (slots[hole].line == noLine)
                return false;
            hole = (hole + 1) & mask;
        }
        // Backward shift: move each later member of the cluster whose
        // home lies cyclically at or before the hole into it.
        for (std::size_t j = (hole + 1) & mask; slots[j].line != noLine;
             j = (j + 1) & mask) {
            const std::size_t fromHome =
                (j - homeSlot(slots[j].line)) & mask;
            if (fromHome >= ((j - hole) & mask)) {
                slots[hole] = slots[j];
                hole = j;
            }
        }
        slots[hole].line = noLine;
        count -= 1;
        return true;
    }

    /** Drop every entry; the slot array keeps its capacity. */
    void
    clear()
    {
        for (Slot &s : slots)
            s.line = noLine;
        count = 0;
    }

    /** Call @p fn(line, value) for every entry, in slot order. */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        for (const Slot &s : slots)
            if (s.line != noLine)
                fn(s.line, s.value);
    }

  private:
    std::size_t
    homeSlot(mem::Addr line) const
    {
        return static_cast<std::size_t>(
            ((line >> 6) * 0x9E3779B97F4A7C15ull) >> shift);
    }

    void
    grow()
    {
        std::vector<Slot> old;
        old.swap(slots);
        const std::size_t cap = old.empty() ? 16 : 2 * old.size();
        slots.resize(cap);
        mask = cap - 1;
        shift = 64 - static_cast<unsigned>(std::countr_zero(cap));
        for (const Slot &s : old) {
            if (s.line == noLine)
                continue;
            std::size_t i = homeSlot(s.line);
            while (slots[i].line != noLine)
                i = (i + 1) & mask;
            slots[i] = s;
        }
    }

    std::vector<Slot> slots;
    std::size_t count = 0;
    std::size_t mask = 0;
    unsigned shift = 63;
};

} // namespace gs::coher

#endif // GS_COHERENCE_LINE_TABLE_HH
