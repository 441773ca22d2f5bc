/** @file The directory's packed 8-byte slot (DirEntry in a LineTable)
 *  and its sharer-mask side table, the node snapshot bytes that must
 *  not depend on either, and restore's refusal of entries the slot
 *  cannot hold. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coherence/checker.hh"
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
 * Every DirState with owners invalidNode, 0 and 2047, on the lowest
 * and highest lines a table holds, survives the packed 8-byte slot:
 * through growth, through backward-shift erases of neighbouring
 * lines, and whichever field is set first. Sharer masks with bit 63
 * set ride beside it in a side table that, like the node's, holds a
 * line only while its mask is nonzero.
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
    LineTable<std::uint64_t> sharers;
    for (std::size_t i = 0; i < want.size(); ++i) {
        const auto &[line, w] = want[i];
        auto [e, inserted] = t.insert(line);
        ASSERT_TRUE(inserted);
        EXPECT_EQ(e->state(), DirState::Invalid);
        EXPECT_EQ(e->owner(), invalidNode);
        if (i % 2 == 0) {
            e->setOwner(w.owner);
            e->setState(w.state);
        } else {
            e->setState(w.state);
            e->setOwner(w.owner);
        }
        if (w.sharers != 0)
            *sharers.insert(line).first = w.sharers;
    }
    EXPECT_EQ(t.bytes(), t.capacity() * 8);
    EXPECT_EQ(sharers.size(), want.size() * 2 / 3);
    auto maskOf = [&](mem::Addr line) {
        const std::uint64_t *m = sharers.find(line);
        return m ? *m : 0;
    };
    auto expectAll = [&] {
        for (const auto &[line, w] : want) {
            const DirEntry *e = t.find(line);
            ASSERT_NE(e, nullptr) << "line 0x" << std::hex << line;
            EXPECT_EQ(e->state(), w.state);
            EXPECT_EQ(e->owner(), w.owner);
            EXPECT_EQ(maskOf(line), w.sharers);
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
        *sharers.insert(line).first = line;
    }
    expectAll();
    for (std::size_t i = 0; i < filler.size(); ++i) {
        // Every other filler leaves through its entry's pointer.
        if (i % 2 == 0)
            ASSERT_TRUE(t.erase(filler[i]));
        else
            t.erase(t.find(filler[i]));
        ASSERT_TRUE(sharers.erase(filler[i]));
    }
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
        EXPECT_EQ(maskOf(want.back().first), want.back().second.sharers);
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

/** A torus of coherent nodes with blocking accesses. */
struct Machine
{
    Machine(int w, int h, NodeConfig cfg)
        : topo(w, h), net(ctx, topo, net::NetworkParams::gs1280())
    {
        for (NodeId n = 0; n < topo.numNodes(); ++n)
            nodes.push_back(
                std::make_unique<CoherentNode>(ctx, net, n, map, cfg));
    }

    void
    access(NodeId n, mem::Addr a, bool write)
    {
        bool done = false;
        nodes[std::size_t(n)]->memAccess(a, write, [&] { done = true; });
        ctx.queue().runUntil(ctx.now() + 100 * tickUs);
        ASSERT_TRUE(done) << "access did not complete";
    }

    mem::LineState
    held(NodeId n, mem::Addr a) const
    {
        return nodes[std::size_t(n)]->l2().state(a);
    }

    bool
    coherent()
    {
        std::vector<CoherentNode *> v;
        for (auto &n : nodes)
            v.push_back(n.get());
        return verifyCoherence(v).ok;
    }

    SimContext ctx;
    topo::Torus2D topo;
    mem::NodeOwnedMap map;
    net::Network net;
    std::vector<std::unique_ptr<CoherentNode>> nodes;
};

// The directory section of a node snapshot lists each tracked line in
// address order with its state byte, sharer mask, owner and
// transaction record, independent of the table's slot layout. The
// digest was taken from the 24-byte {line, entry} slot layout.
TEST(DirSnapshotPin, HomeBytesMatchRecordedDigest)
{
    Machine m(2, 2, NodeConfig{});
    SimContext &ctx = m.ctx;
    CoherentNode &home = *m.nodes[3];

    // Accesses overlap here, so they do not use Machine::access.
    int pending = 0;
    auto access = [&](NodeId n, mem::Addr a, bool write) {
        pending += 1;
        m.nodes[std::size_t(n)]->memAccess(a, write,
                                           [&] { pending -= 1; });
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
    Machine m(2, 2, NodeConfig{});
    const mem::Addr line = lineAt(3, 7);
    m.access(0, line, false);
    CoherentNode &home = *m.nodes[3];
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

/** Save @p home and restore the bytes into it again. */
void
roundTrip(CoherentNode &home)
{
    ckpt::Serializer s;
    home.saveCkpt(s);
    const std::vector<std::uint8_t> bytes = s.buffer();
    ckpt::Deserializer d(bytes.data(), bytes.size());
    home.restoreCkpt(d, [](const ckpt::EventDesc &) {
        return std::function<void()>{};
    });
    ASSERT_TRUE(d.ok()) << d.error();
}

/**
 * Exact masks (one bit per node) through Shared -> RdMod with
 * invalidations -> Exclusive -> Downgrade, and through a snapshot.
 * The side table owns storage only while some line has sharers.
 */
TEST(DirSharers, ExactMaskSurvivesInvalidationAndDowngrade)
{
    Machine m(2, 2, NodeConfig{});
    CoherentNode &home = *m.nodes[3];
    const mem::Addr a = lineAt(3, 5);
    const mem::Addr b = lineAt(3, 6);

    m.access(0, a, false);
    m.access(0, b, false);
    EXPECT_EQ(home.dirState(a), DirState::Exclusive);
    EXPECT_EQ(home.dirSharerBytes(), 0u) << "no line is Shared yet";

    m.access(1, a, false);
    m.access(2, a, false);
    m.access(1, b, false);
    EXPECT_EQ(home.dirState(a), DirState::Shared);
    EXPECT_EQ(home.dirSharers(a), 0b111u);
    EXPECT_EQ(home.dirSharers(b), 0b011u);
    EXPECT_GT(home.dirSharerBytes(), 0u);
    EXPECT_TRUE(m.coherent());

    // Node 1 writes a: nodes 0 and 2 are invalidated, b keeps its mask.
    m.access(1, a, true);
    EXPECT_EQ(home.dirState(a), DirState::Exclusive);
    EXPECT_EQ(home.dirOwner(a), 1);
    EXPECT_EQ(home.dirSharers(a), 0u);
    EXPECT_EQ(home.dirSharers(b), 0b011u);
    EXPECT_EQ(m.held(0, a), mem::LineState::Invalid);
    EXPECT_EQ(m.held(2, a), mem::LineState::Invalid);
    EXPECT_TRUE(m.coherent());

    // Node 0 writes b too: no line has sharers left.
    m.access(0, b, true);
    EXPECT_EQ(home.dirSharers(b), 0u);
    EXPECT_EQ(home.dirSharerBytes(), 0u)
        << "the side table kept storage with no Shared line";

    // Node 2 reads the dirty a: the owner downgrades and keeps a copy.
    m.access(2, a, false);
    EXPECT_EQ(home.dirState(a), DirState::Shared);
    EXPECT_EQ(home.dirOwner(a), invalidNode);
    EXPECT_EQ(home.dirSharers(a), 0b110u);
    EXPECT_EQ(m.held(1, a), mem::LineState::Shared);
    EXPECT_TRUE(m.coherent());

    roundTrip(home);
    EXPECT_EQ(home.dirSharers(a), 0b110u);
    EXPECT_EQ(home.dirSharers(b), 0u);
    EXPECT_EQ(home.dirOwner(b), 0);
    EXPECT_TRUE(m.coherent());

    // A snapshot without Shared lines restores an empty side table.
    m.access(2, a, true);
    ASSERT_EQ(home.dirSharerBytes(), 0u);
    roundTrip(home);
    EXPECT_EQ(home.dirSharerBytes(), 0u);
    EXPECT_EQ(home.dirOwner(a), 2);
}

/**
 * Coarse masks (one bit per pair of nodes on a 128-node machine):
 * nodes 126 and 127 share bit 63, which must survive the same
 * sequence as an exact mask, and a write by a member of a marked
 * group still invalidates its partner.
 */
TEST(DirSharers, CoarseMaskWithBit63SurvivesInvalidationAndDowngrade)
{
    NodeConfig cfg;
    cfg.sharerGroupSize = 2;
    Machine m(16, 8, cfg);
    CoherentNode &home = *m.nodes[0];
    const mem::Addr a = lineAt(0, 9);
    constexpr std::uint64_t bit63 = 1ULL << 63;

    m.access(127, a, false);
    m.access(5, a, false);
    m.access(126, a, false);
    EXPECT_EQ(home.dirState(a), DirState::Shared);
    EXPECT_EQ(home.dirSharers(a), bit63 | (1ULL << 2));
    EXPECT_GT(home.dirSharerBytes(), 0u);
    EXPECT_TRUE(m.coherent());

    m.access(126, a, true);
    EXPECT_EQ(home.dirState(a), DirState::Exclusive);
    EXPECT_EQ(home.dirOwner(a), 126);
    EXPECT_EQ(home.dirSharers(a), 0u);
    EXPECT_EQ(home.dirSharerBytes(), 0u);
    EXPECT_EQ(m.held(127, a), mem::LineState::Invalid);
    EXPECT_EQ(m.held(5, a), mem::LineState::Invalid);
    EXPECT_TRUE(m.coherent());

    m.access(64, a, false);
    EXPECT_EQ(home.dirState(a), DirState::Shared);
    EXPECT_EQ(home.dirSharers(a), bit63 | (1ULL << 32));
    EXPECT_TRUE(m.coherent());

    roundTrip(home);
    EXPECT_EQ(home.dirSharers(a), bit63 | (1ULL << 32));
    EXPECT_GT(home.dirSharerBytes(), 0u);
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
