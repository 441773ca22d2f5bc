/**
 * @file
 * Network snapshot bytes, pinned, and the restore-side refusals of
 * the packet pool and the routers.
 *
 * NetSnapshotPin hashes Network::saveCkpt taken mid-storm, with
 * packets buffered in several VCs and waiting in injection queues,
 * on a 2-D and a 3-D torus. The digests were recorded before the
 * router's queues moved into the packet pool; any change to router
 * state layout must keep them.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.hh"
#include "net/packet_pool.hh"
#include "sim/checkpoint.hh"
#include "sim/random.hh"
#include "topology/torus.hh"
#include "topology/torus3d.hh"

namespace
{

using namespace gs;
using namespace gs::net;

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

/** A fabric with a storm of every class injected up front. */
struct Storm
{
    explicit Storm(const topo::Topology &t)
        : topo(t), net(ctx, topo, NetworkParams::gs1280())
    {
        const int n = topo.numNodes();
        for (NodeId node = 0; node < n; ++node)
            net.setHandler(node, [](const Packet &) {});
        Rng rng(23);
        std::uint64_t sent = 0;
        for (int burst = 0; burst < 60; ++burst) {
            for (NodeId src = 0; src < n; ++src) {
                const auto r = static_cast<NodeId>(
                    rng.below(static_cast<std::uint64_t>(n - 1)));
                Packet p;
                p.src = src;
                p.dst = (src + 1 + r) % n;
                p.cls = static_cast<MsgClass>(rng.below(numClasses));
                p.flits = p.cls == MsgClass::BlockResponse ? dataFlits
                                                           : headerFlits;
                p.id = ++sent;
                p.user = {sent * 3, sent * 5, sent * 7};
                net.inject(p);
            }
        }
    }

    /** Routers with a packet in some input VC / injection queue. */
    void
    census(int &with_vcs, int &with_inj, int &busy_vcs) const
    {
        with_vcs = with_inj = busy_vcs = 0;
        for (NodeId node = 0; node < topo.numNodes(); ++node) {
            const Router &r = net.router(node);
            bool vcs = false, inj = false;
            for (int p = 0; p < topo.numPorts(node); ++p) {
                for (int vc = 0; vc < numVcs; ++vc) {
                    const bool busy = r.vcOccupancy(p, vc) > 0;
                    busy_vcs += busy ? 1 : 0;
                    vcs = vcs || busy;
                }
            }
            for (int c = 0; c < numClasses; ++c)
                inj = inj || r.injQueueDepth(static_cast<MsgClass>(c)) > 0;
            with_vcs += vcs ? 1 : 0;
            with_inj += inj ? 1 : 0;
        }
    }

    std::vector<std::uint8_t>
    save() const
    {
        ckpt::Serializer s;
        net.saveCkpt(s);
        return s.buffer();
    }

    SimContext ctx;
    const topo::Topology &topo;
    Network net;
};

/** When a Storm has packets in VCs and injection queues everywhere. */
constexpr Tick midStorm = 60 * tickNs;

/** Run @p storm to mid-flight and check packets sit everywhere. */
void
runToMidStorm(Storm &storm)
{
    storm.ctx.queue().runUntil(midStorm);
    int withVcs = 0, withInj = 0, busyVcs = 0;
    storm.census(withVcs, withInj, busyVcs);
    ASSERT_GE(withVcs, 4) << "save point is not mid-storm";
    ASSERT_GE(withInj, 4) << "save point is not mid-storm";
    ASSERT_GE(busyVcs, 10) << "too few VCs hold packets";
}

TEST(NetSnapshotPin, Torus2DMidStormBytesMatchRecordedDigest)
{
    topo::Torus2D topo(4, 2);
    Storm storm(topo);
    runToMidStorm(storm);
    const std::uint64_t digest = fnv1a(storm.save());
    EXPECT_EQ(digest, 0x354d3301d1cdcbb5ULL)
        << "network snapshot digest 0x" << std::hex << digest;
}

TEST(NetSnapshotPin, Torus3DMidStormBytesMatchRecordedDigest)
{
    topo::Torus3D topo(2, 2, 2);
    Storm storm(topo);
    runToMidStorm(storm);
    const std::uint64_t digest = fnv1a(storm.save());
    EXPECT_EQ(digest, 0xf33f774d60195987ULL)
        << "network snapshot digest 0x" << std::hex << digest;
}

// --- PacketPool::restoreCkpt refusals --------------------------------

/** A pool snapshot written field by field, so any field can be bad. */
struct PoolImage
{
    std::uint32_t slots = 4;
    std::vector<PacketHandle> freeList{3, 1};
    std::vector<std::uint8_t> live{1, 0, 1, 0};
    std::uint64_t inUse = 2;

    std::vector<std::uint8_t>
    bytes() const
    {
        ckpt::Serializer s;
        s.put32(slots);
        for (std::uint32_t i = 0; i < slots; ++i)
            savePacket(s, Packet{});
        s.put32(static_cast<std::uint32_t>(freeList.size()));
        for (PacketHandle h : freeList)
            s.put32(h);
        for (std::uint8_t f : live)
            s.put8(f);
        s.put64(inUse);
        s.put64(slots); // allocated
        s.put64(0);     // reused
        s.put64(slots); // peak in use
        return s.buffer();
    }
};

/** Restore @p img into a fresh pool; the error, or "" on success. */
std::string
restorePool(const PoolImage &img)
{
    const std::vector<std::uint8_t> b = img.bytes();
    ckpt::Deserializer d(b.data(), b.size());
    PacketPool pool;
    pool.restoreCkpt(d);
    return d.error();
}

TEST(PacketPoolRestore, AcceptsAConsistentImage)
{
    EXPECT_EQ(restorePool(PoolImage{}), "");
}

TEST(PacketPoolRestore, RejectsFreelistHandleOutOfRange)
{
    PoolImage img;
    img.freeList = {3, 4};
    const std::string err = restorePool(img);
    EXPECT_NE(err.find("packet pool"), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(PacketPoolRestore, RejectsFreelistHandleListedTwice)
{
    PoolImage img;
    img.freeList = {3, 3};
    const std::string err = restorePool(img);
    EXPECT_NE(err.find("packet pool"), std::string::npos) << err;
    EXPECT_NE(err.find("twice"), std::string::npos) << err;
}

TEST(PacketPoolRestore, RejectsFreeHandleFlaggedLive)
{
    PoolImage img;
    img.live = {1, 1, 1, 0};
    img.inUse = 3;
    const std::string err = restorePool(img);
    EXPECT_NE(err.find("packet pool"), std::string::npos) << err;
    EXPECT_NE(err.find("live"), std::string::npos) << err;
}

TEST(PacketPoolRestore, RejectsInUseCountDisagreeingWithLiveFlags)
{
    PoolImage img;
    img.inUse = 3;
    const std::string err = restorePool(img);
    EXPECT_NE(err.find("packet pool"), std::string::npos) << err;
    EXPECT_NE(err.find("in-use"), std::string::npos) << err;
}

TEST(PacketPoolRestore, RejectsSlotNeitherLiveNorFree)
{
    PoolImage img;
    img.freeList = {3};
    const std::string err = restorePool(img);
    EXPECT_NE(err.find("packet pool"), std::string::npos) << err;
    EXPECT_NE(err.find("neither"), std::string::npos) << err;
}

// --- Router::restoreCkpt refusals ------------------------------------

/**
 * A mid-storm 4x2 network snapshot in which router 0's first
 * injection queue (every one holds several packets at this point) is
 * rewritten by @p edit, given the queue's handles in order and a
 * handle that is on the freelist, and whose saved count of packets
 * waiting for injection (the router's last field) is moved by
 * @p waiting_delta. The router's bytes are found inside the
 * network's by their own Router::saveCkpt; the error of restoring
 * the result into a fresh network is returned.
 */
template <class Edit>
std::string
restoreWithEditedInjectionQueue(Edit edit, std::uint32_t waiting_delta = 0)
{
    topo::Torus2D topo(4, 2);
    Storm a(topo);
    a.ctx.queue().runUntil(midStorm);
    // One slot acquired and released again: a handle that is
    // certainly on the freelist at save time.
    const PacketHandle freed = a.net.pool().acquire(Packet{});
    a.net.pool().release(freed);

    std::vector<std::uint8_t> bytes = a.save();
    ckpt::Serializer rs;
    a.net.router(0).saveCkpt(rs);
    const std::vector<std::uint8_t> &rb = rs.buffer();
    auto at = std::search(bytes.begin(), bytes.end(), rb.begin(),
                          rb.end());
    EXPECT_NE(at, bytes.end()) << "router bytes not found";
    if (at == bytes.end())
        return "";
    EXPECT_EQ(std::search(at + 1, bytes.end(), rb.begin(), rb.end()),
              bytes.end())
        << "router bytes are not unique in the snapshot";

    auto get32 = [&](std::size_t off) {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(at[off + i]) << (8 * i);
        return v;
    };
    auto put32 = [&](std::size_t off, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            at[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };
    // Router layout: the VC queues (u32 count, then per queue u32 n
    // and n handles), 20 bytes of VC scalars per queue, the RR
    // pointers (u32 ports + i32 each), the outputs (u32 ports + 93
    // bytes each), then the injection queues.
    const std::uint32_t queues = get32(0);
    std::size_t off = 4;
    for (std::uint32_t q = 0; q < queues; ++q)
        off += 4 + 4 * std::size_t(get32(off));
    off += 20 * std::size_t(queues);
    off += 4 + 4 * std::size_t(get32(off));
    off += 4 + (1 + 4 * numVcs + 8 + 4 + 4 + 8 + 8) *
                   std::size_t(get32(off));
    const std::uint32_t n = get32(off);
    EXPECT_GE(n, 2u) << "router 0 injection queue is not deep";
    if (n < 2)
        return "";
    std::vector<PacketHandle> hs;
    for (std::uint32_t i = 0; i < n; ++i)
        hs.push_back(get32(off + 4 + 4 * i));
    edit(hs, freed);
    for (std::uint32_t i = 0; i < n; ++i)
        put32(off + 4 + 4 * i, hs[i]);
    put32(rb.size() - 4, get32(rb.size() - 4) + waiting_delta);

    Storm b(topo);
    ckpt::Deserializer d(bytes.data(), bytes.size());
    b.net.restoreCkpt(d);
    return d.error();
}

TEST(RouterRestore, UneditedSnapshotRestores)
{
    const std::string err = restoreWithEditedInjectionQueue(
        [](std::vector<PacketHandle> &, PacketHandle) {});
    EXPECT_EQ(err, "");
}

TEST(RouterRestore, RejectsFreeHandle)
{
    const std::string err = restoreWithEditedInjectionQueue(
        [](std::vector<PacketHandle> &hs, PacketHandle freed) {
            hs.back() = freed;
        });
    EXPECT_NE(err.find("router"), std::string::npos) << err;
    EXPECT_NE(err.find("not a live packet"), std::string::npos) << err;
}

TEST(RouterRestore, RejectsHandleQueuedTwice)
{
    const std::string err = restoreWithEditedInjectionQueue(
        [](std::vector<PacketHandle> &hs, PacketHandle) {
            hs.back() = hs.front();
        });
    EXPECT_NE(err.find("router"), std::string::npos) << err;
    EXPECT_NE(err.find("queued twice"), std::string::npos) << err;
}

TEST(RouterRestore, RejectsPacketCountDisagreeingWithQueues)
{
    const std::string err = restoreWithEditedInjectionQueue(
        [](std::vector<PacketHandle> &, PacketHandle) {}, 1);
    EXPECT_NE(err.find("router"), std::string::npos) << err;
    EXPECT_NE(err.find("disagree"), std::string::npos) << err;
}

} // namespace
