/** @file LineTable (coherence/line_table.hh) against a std::unordered_map
 *  oracle: randomized insert/find/erase (by line and through an entry's
 *  pointer), growth, draining to empty and refilling, backward-shift
 *  erase across the array end, and node-interleaved line keys. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "coherence/line_table.hh"
#include "sim/random.hh"

namespace
{

using gs::Rng;
using gs::coher::LineTable;
using gs::mem::Addr;

struct Val
{
    std::uint64_t a = 0;
    int b = 0;
};

/** Every oracle entry is found with its value, and sizes agree. */
void
expectSame(const LineTable<Val> &t,
           const std::unordered_map<Addr, Val> &oracle)
{
    ASSERT_EQ(t.size(), oracle.size());
    for (const auto &[line, v] : oracle) {
        const Val *got = t.find(line);
        ASSERT_NE(got, nullptr) << "line 0x" << std::hex << line;
        EXPECT_EQ(got->a, v.a);
        EXPECT_EQ(got->b, v.b);
    }
    std::size_t seen = 0;
    t.forEach([&](Addr line, const Val &) {
        seen += 1;
        EXPECT_EQ(oracle.count(line), 1u);
    });
    EXPECT_EQ(seen, oracle.size());
}

struct KeyParam
{
    std::uint64_t seed;
    Addr stride;    ///< distance between candidate lines
    int universe;   ///< distinct candidate lines
    int runShift = 0; ///< when set, three runs 2^runShift bytes apart
};

class LineTableOracle : public ::testing::TestWithParam<KeyParam>
{
};

TEST_P(LineTableOracle, RandomOpsMatchUnorderedMap)
{
    const KeyParam prm = GetParam();
    Rng rng(prm.seed);
    LineTable<Val> t;
    std::unordered_map<Addr, Val> oracle;
    std::size_t peakCapacity = 0;

    constexpr int ops = 100000;
    for (int i = 0; i < ops; ++i) {
        const std::uint64_t u =
            rng.below(static_cast<std::uint64_t>(prm.universe));
        const Addr line =
            prm.runShift == 0
                ? 0x40000000ull + prm.stride * u
                : 0x40000000ull + ((u % 3) << prm.runShift) +
                      prm.stride * (u / 3);
        // Bias toward inserts in the first half so the table grows,
        // toward erases in the second so clusters get shifted back.
        const std::uint64_t insertPct = i < ops / 2 ? 60 : 35;
        const std::uint64_t roll = rng.below(100);
        if (roll < insertPct) {
            auto [v, inserted] = t.insert(line);
            ASSERT_EQ(inserted, oracle.count(line) == 0);
            if (inserted) {
                EXPECT_EQ(v->a, 0u);
                EXPECT_EQ(v->b, 0);
            }
            v->a = rng.next();
            v->b = i;
            oracle[line] = *v;
        } else if (roll < insertPct + 30) {
            // Half the erases go through the entry's pointer.
            if (rng.below(2) == 0) {
                ASSERT_EQ(t.erase(line), oracle.erase(line) == 1);
            } else if (const Val *v = t.find(line)) {
                t.erase(v);
                ASSERT_EQ(oracle.erase(line), 1u);
            } else {
                ASSERT_EQ(oracle.count(line), 0u);
            }
        } else {
            const Val *got = t.find(line);
            auto it = oracle.find(line);
            ASSERT_EQ(got != nullptr, it != oracle.end());
            if (got) {
                EXPECT_EQ(got->a, it->second.a);
                EXPECT_EQ(got->b, it->second.b);
            }
        }
        ASSERT_EQ(t.size(), oracle.size());
        ASSERT_LE(t.size() * 4, t.capacity() * 3) << "load above 3/4";
        peakCapacity = std::max(peakCapacity, t.capacity());
        if (i % 10000 == 0)
            expectSame(t, oracle);
    }
    expectSame(t, oracle);
    EXPECT_GE(peakCapacity, 64u) << "the run never grew the table";

    // Drain everything; the array keeps its capacity.
    std::vector<Addr> lines;
    for (const auto &kv : oracle)
        lines.push_back(kv.first);
    for (Addr line : lines)
        ASSERT_TRUE(t.erase(line));
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.capacity(), peakCapacity);
    EXPECT_EQ(t.find(lines.empty() ? 0 : lines[0]), nullptr);

    // Refill the drained table, which kept its slots: each insert must
    // land on its line's own probe path, or find() misses it.
    oracle.clear();
    for (Addr line : lines) {
        auto [v, inserted] = t.insert(line);
        ASSERT_TRUE(inserted);
        v->a = line ^ prm.seed;
        v->b = -1;
        oracle[line] = *v;
        ASSERT_EQ(t.insert(line).first, v);
    }
    expectSame(t, oracle);
    EXPECT_EQ(t.capacity(), peakCapacity);

    // Drain again through the entries' pointers, in random order.
    for (std::size_t i = lines.size(); i > 1; --i)
        std::swap(lines[i - 1], lines[rng.below(i)]);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const Val *v = t.find(lines[i]);
        ASSERT_NE(v, nullptr);
        t.erase(v);
        oracle.erase(lines[i]);
        ASSERT_EQ(t.find(lines[i]), nullptr);
        if (i % 64 == 0)
            expectSame(t, oracle);
    }
    expectSame(t, oracle);
    EXPECT_TRUE(t.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Keys, LineTableOracle,
    ::testing::Values(KeyParam{1, 64, 512},        // dense lines
                      KeyParam{2, 64 * 16, 3000},  // 16-node interleave
                      KeyParam{3, 64 * 64, 800},   // 64-node interleave
                      KeyParam{4, 64 * 2048, 200}, // 2048-node interleave
                      KeyParam{5, 64 * 7, 5000},
                      // STREAM Triad's a, b and c: three unit-stride
                      // runs at power-of-two offsets.
                      KeyParam{6, 64, 3000, 21}));

/**
 * Backward-shift erase across the array end. The test mirrors the
 * table's home slot for 16 slots (the Fibonacci hash of the line's
 * run of 2^runBits lines, top 4 - runBits bits, then the line's
 * offset in its run) to pick lines homed near the end, so a cluster
 * runs from slot 14 past slot 15 into slots 0.., then erases the
 * entries in many random orders.
 */
TEST(LineTable, EraseShiftsClustersThatWrapTheArrayEnd)
{
    auto home16 = [](Addr line) {
        constexpr unsigned k = LineTable<Val>::runBits;
        const std::uint64_t n = line >> 6;
        const std::uint64_t run =
            ((n >> k) * 0x9E3779B97F4A7C15ull) >> (60 + k);
        return static_cast<int>((run << k) | (n & ((1u << k) - 1)));
    };
    // Lines per home slot: 2 at 14, 5 at 15, 3 at 0, 2 at 7 (12
    // entries, the most 16 slots hold at 3/4 load).
    const int want[][2] = {{14, 2}, {15, 5}, {0, 3}, {7, 2}};
    std::vector<Addr> lines;
    for (const auto &[slot, n] : want) {
        int found = 0;
        for (Addr line = 0; found < n; line += 64) {
            if (home16(line) == slot) {
                lines.push_back(line);
                found += 1;
            }
        }
    }
    ASSERT_EQ(lines.size(), 12u);

    Rng rng(11);
    for (int round = 0; round < 300; ++round) {
        LineTable<Val> t;
        std::unordered_map<Addr, Val> oracle;
        for (Addr line : lines) {
            auto [v, inserted] = t.insert(line);
            ASSERT_TRUE(inserted);
            v->a = line + 1;
            oracle[line] = *v;
        }
        ASSERT_EQ(t.capacity(), 16u);
        // forEach walks slots in order: the entry in slot 0 is homed
        // at 15, i.e. the cluster wrapped past the end.
        std::vector<Addr> order;
        t.forEach([&](Addr line, const Val &) { order.push_back(line); });
        ASSERT_EQ(home16(order.front()), 15) << "cluster did not wrap";

        std::vector<Addr> keys(lines);
        for (std::size_t i = keys.size(); i > 1; --i)
            std::swap(keys[i - 1], keys[rng.below(i)]);
        for (Addr line : keys) {
            ASSERT_TRUE(t.erase(line));
            ASSERT_FALSE(t.erase(line));
            oracle.erase(line);
            expectSame(t, oracle);
        }
        EXPECT_EQ(t.capacity(), 16u);
    }
}

} // namespace
