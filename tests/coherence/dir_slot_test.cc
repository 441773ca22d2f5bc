/** @file The directory's packed 16-byte slot (DirEntry in a LineTable),
 *  the node snapshot bytes that must not depend on it, and restore's
 *  refusal of entries the slot cannot hold. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/node.hh"
#include "net/network.hh"
#include "sim/checkpoint.hh"
#include "topology/torus.hh"

namespace
{

using namespace gs;
using namespace gs::coher;

constexpr DirState allStates[] = {DirState::Invalid, DirState::Shared,
                                  DirState::Exclusive, DirState::Busy};

struct Want
{
    DirState state;
    NodeId owner;
    std::uint64_t sharers;
};

/**
 * Every DirState with owners invalidNode, 0 and 2047 and sharer masks
 * with bit 63 set, on the lowest and highest lines a table holds,
 * survives the packed slot: through growth, through backward-shift
 * erases of neighbouring lines, and whichever field is set first.
 */
TEST(DirEntryPacking, EveryStateOwnerAndSharerMaskRoundTrips)
{
    const NodeId owners[] = {invalidNode, 0, 2047};
    const std::uint64_t masks[] = {0, 1ULL << 63, ~0ULL};
    std::vector<std::pair<mem::Addr, Want>> want;
    std::uint64_t k = 0;
    for (DirState s : allStates)
        for (NodeId o : owners)
            for (std::uint64_t m : masks) {
                // Alternate low lines with lines just under lineLimit.
                const mem::Addr line =
                    k % 2 == 0 ? k * mem::lineBytes
                               : lineLimit - (k + 1) * mem::lineBytes;
                want.push_back({line, {s, o, m}});
                k += 1;
            }

    LineTable<DirEntry> t;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &[line, w] = want[i];
        auto [e, inserted] = t.insert(line);
        ASSERT_TRUE(inserted);
        EXPECT_EQ(e->state(), DirState::Invalid);
        EXPECT_EQ(e->owner(), invalidNode);
        EXPECT_EQ(e->sharers, 0u);
        if (i % 2 == 0) {
            e->setOwner(w.owner);
            e->setState(w.state);
        } else {
            e->setState(w.state);
            e->setOwner(w.owner);
        }
        e->sharers = w.sharers;
    }
    EXPECT_EQ(t.bytes(), t.capacity() * 16);
    auto expectAll = [&] {
        for (const auto &[line, w] : want) {
            const DirEntry *e = t.find(line);
            ASSERT_NE(e, nullptr) << "line 0x" << std::hex << line;
            EXPECT_EQ(e->state(), w.state);
            EXPECT_EQ(e->owner(), w.owner);
            EXPECT_EQ(e->sharers, w.sharers);
        }
        t.forEach([&](mem::Addr line, const DirEntry &e) {
            EXPECT_EQ(t.find(line), &e);
        });
    };
    expectAll();

    // Consecutive neighbours share runs with the low lines; inserting
    // them grows the table, erasing them shifts clusters back.
    std::vector<mem::Addr> filler;
    for (std::uint64_t i = 0; i < 200; ++i)
        filler.push_back((1000 + i) * mem::lineBytes);
    for (mem::Addr line : filler) {
        auto [e, inserted] = t.insert(line);
        ASSERT_TRUE(inserted);
        e->setState(DirState::Busy);
        e->setOwner(1);
        e->sharers = line;
    }
    expectAll();
    for (mem::Addr line : filler)
        ASSERT_TRUE(t.erase(line));
    EXPECT_EQ(t.size(), want.size());
    expectAll();

    // Overwriting one field leaves the others and the line alone.
    DirEntry *e = t.find(want.back().first);
    ASSERT_NE(e, nullptr);
    for (DirState s : allStates) {
        e->setState(s);
        e->setOwner(2047);
        EXPECT_EQ(e->state(), s);
        EXPECT_EQ(e->owner(), 2047);
        EXPECT_EQ(e->sharers, want.back().second.sharers);
        EXPECT_EQ(t.find(want.back().first), e);
    }
}

/** FNV-1a, 64 bit. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

mem::Addr
lineAt(NodeId home, std::uint64_t k)
{
    return mem::regionBase(home) + k * mem::lineBytes;
}

// The directory section of a node snapshot lists each tracked line in
// address order with its state byte, sharer mask, owner and
// transaction record, independent of the table's slot layout. The
// digest was taken from the 24-byte {line, entry} slot layout.
TEST(DirSnapshotPin, HomeBytesMatchRecordedDigest)
{
    SimContext ctx;
    topo::Torus2D topo(2, 2);
    mem::NodeOwnedMap map;
    net::Network net(ctx, topo, net::NetworkParams::gs1280());
    std::vector<std::unique_ptr<CoherentNode>> nodes;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        nodes.push_back(
            std::make_unique<CoherentNode>(ctx, net, n, map, NodeConfig{}));
    CoherentNode &home = *nodes[3];

    int pending = 0;
    auto access = [&](NodeId n, mem::Addr a, bool write) {
        pending += 1;
        nodes[std::size_t(n)]->memAccess(a, write, [&] { pending -= 1; });
    };
    auto settle = [&] {
        ctx.queue().runUntil(ctx.now() + 100 * tickUs);
        ASSERT_EQ(pending, 0);
    };

    // 40 consecutive Exclusive lines owned by node 0 ...
    for (std::uint64_t k = 0; k < 40; ++k)
        access(0, lineAt(3, k), false);
    settle();
    // ... of which 0..9 become Shared {0, 1} and 0..4 Shared {0, 1, 2}.
    for (std::uint64_t k = 0; k < 10; ++k)
        access(1, lineAt(3, k), false);
    settle();
    for (std::uint64_t k = 0; k < 5; ++k)
        access(2, lineAt(3, k), false);
    settle();
    // A dirty line owned by node 2 in another run of the region.
    const mem::Addr hot = lineAt(3, 4096);
    access(2, hot, true);
    settle();
    ASSERT_EQ(home.dirState(lineAt(3, 39)), DirState::Exclusive);
    ASSERT_EQ(home.dirState(lineAt(3, 0)), DirState::Shared);
    ASSERT_EQ(home.dirSharers(lineAt(3, 0)), 0b111u);
    ASSERT_EQ(home.dirOwner(hot), 2);

    // Node 1 writes the dirty line (a forward to node 2 makes it Busy)
    // and node 0 reads it behind that. Stop while the line is Busy.
    access(1, hot, true);
    access(0, hot, false);
    for (int step = 0; step < 100000 && home.dirState(hot) != DirState::Busy;
         ++step)
        ctx.queue().runUntil(ctx.now() + tickNs);
    ASSERT_EQ(home.dirState(hot), DirState::Busy);

    ckpt::Serializer s;
    home.saveCkpt(s);
    EXPECT_EQ(fnv1a(s.buffer()), 0x763ed9392873c3e7ULL)
        << "home snapshot digest 0x" << std::hex << fnv1a(s.buffer());
}

void
putLe(std::vector<std::uint8_t> &b, std::size_t at, std::uint64_t v,
      int bytes)
{
    for (int i = 0; i < bytes; ++i)
        b[at + std::size_t(i)] = static_cast<std::uint8_t>(v >> (8 * i));
}

// A snapshot can name values the packed slot cannot hold; restore
// must refuse them with a message instead of packing them wrongly.
TEST(DirRestore, RejectsEntriesTheSlotCannotHold)
{
    SimContext ctx;
    topo::Torus2D topo(2, 2);
    mem::NodeOwnedMap map;
    net::Network net(ctx, topo, net::NetworkParams::gs1280());
    std::vector<std::unique_ptr<CoherentNode>> nodes;
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        nodes.push_back(
            std::make_unique<CoherentNode>(ctx, net, n, map, NodeConfig{}));
    const mem::Addr line = lineAt(3, 7);
    bool done = false;
    nodes[0]->memAccess(line, false, [&] { done = true; });
    ctx.queue().runUntil(ctx.now() + 100 * tickUs);
    ASSERT_TRUE(done);
    CoherentNode &home = *nodes[3];
    ASSERT_EQ(home.dirState(line), DirState::Exclusive);

    ckpt::Serializer s;
    home.saveCkpt(s);
    const std::vector<std::uint8_t> snap = s.buffer();
    // The directory record: line, state byte, sharer mask, owner.
    std::vector<std::uint8_t> rec(21, 0);
    putLe(rec, 0, line, 8);
    rec[8] = static_cast<std::uint8_t>(DirState::Exclusive);
    const auto it = std::search(snap.begin(), snap.end(), rec.begin(),
                                rec.end());
    ASSERT_NE(it, snap.end());
    const auto at = static_cast<std::size_t>(it - snap.begin());

    auto restore = [&](const std::vector<std::uint8_t> &bytes) {
        ckpt::Deserializer d(bytes.data(), bytes.size());
        home.restoreCkpt(d, [](const ckpt::EventDesc &) {
            return std::function<void()>{};
        });
        return d.ok() ? std::string() : d.error();
    };
    struct Bad
    {
        std::size_t offset;
        std::uint64_t value;
        int bytes;
    };
    const Bad bad[] = {
        {at + 8, 4, 1},         // no fifth DirState
        {at + 17, 0x10000, 4},  // owner beyond DirEntry::maxOwner
        {at + 17, 0xfffffffe, 4}, // owner -2
        {at, line + 8, 8},      // not a line address
        {at, lineLimit, 8},     // beyond the 2048-node regions
    };
    for (const Bad &b : bad) {
        std::vector<std::uint8_t> bytes = snap;
        putLe(bytes, b.offset, b.value, b.bytes);
        EXPECT_NE(restore(bytes).find("cannot be represented"),
                  std::string::npos)
            << "offset " << b.offset - at << " value 0x" << std::hex
            << b.value;
    }
    ASSERT_EQ(restore(snap), "");
    EXPECT_EQ(home.dirState(line), DirState::Exclusive);
    EXPECT_EQ(home.dirOwner(line), 0);
}

// Past 2048 nodes the regions reach bit 47, which the packed key word
// cannot hold: building a node there is a clear error, not a
// directory that silently aliases lines.
TEST(DirEntryPackingDeath, NodeBeyondTheAddressBudgetIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SimContext ctx;
    topo::Torus2D topo(2049, 1);
    mem::NodeOwnedMap map;
    net::Network net(ctx, topo, net::NetworkParams::gs1280());
    NodeConfig cfg;
    cfg.sharerGroupSize = (2049 + 63) / 64;
    EXPECT_EXIT(CoherentNode(ctx, net, 0, map, cfg),
                ::testing::ExitedWithCode(1),
                "2049-node machine exceeds the directory's 2048-node");
}

} // namespace
