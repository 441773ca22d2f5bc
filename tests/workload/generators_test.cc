/** @file Workload generator stream tests. */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/fluent.hh"
#include "workload/gups.hh"
#include "workload/load_test.hh"
#include "workload/nas_sp.hh"
#include "workload/pointer_chase.hh"
#include "workload/stream.hh"

namespace
{

using namespace gs;
using namespace gs::wl;

TEST(PointerChase, EveryLoadIsDependent)
{
    PointerChase chase(0, 4096, 64, 10);
    int count = 0;
    while (auto op = chase.next()) {
        EXPECT_TRUE(op->dependent);
        EXPECT_FALSE(op->write);
        count += 1;
    }
    EXPECT_EQ(count, 10);
    EXPECT_EQ(chase.issued(), 10u);
}

TEST(PointerChase, CoversDatasetAndWraps)
{
    const std::uint64_t dataset = 8 * 64;
    PointerChase chase(1000 * 64, dataset, 64, 16);
    std::set<mem::Addr> seen;
    while (auto op = chase.next())
        seen.insert(op->addr);
    EXPECT_EQ(seen.size(), 8u); // wrapped exactly twice
    for (mem::Addr a : seen) {
        EXPECT_GE(a, 1000u * 64u);
        EXPECT_LT(a, 1000u * 64u + dataset);
    }
}

TEST(PointerChase, StrideRespected)
{
    PointerChase chase(0, 1 << 20, 4096, 5);
    mem::Addr prev = 0;
    bool first = true;
    while (auto op = chase.next()) {
        if (!first) {
            EXPECT_EQ(op->addr - prev, 4096u);
        }
        prev = op->addr;
        first = false;
    }
}

TEST(StreamTriad, TrafficShapeIsTwoReadsOneWrite)
{
    StreamTriad triad(0, 64 * 64, 1, 0.0);
    int reads = 0, writes = 0;
    while (auto op = triad.next()) {
        (op->write ? writes : reads) += 1;
    }
    EXPECT_EQ(reads, 2 * writes);
    EXPECT_EQ(writes, 64);
    EXPECT_EQ(triad.linesProcessed(), 64u);
}

TEST(StreamTriad, ArraysAreDisjoint)
{
    const std::uint64_t bytes = 32 * 64;
    StreamTriad triad(0, bytes, 1, 0.0);
    std::set<mem::Addr> readAddrs, writeAddrs;
    while (auto op = triad.next())
        (op->write ? writeAddrs : readAddrs).insert(op->addr);
    for (mem::Addr w : writeAddrs)
        EXPECT_EQ(readAddrs.count(w), 0u);
    // Writes land in [base, base+bytes), reads beyond.
    for (mem::Addr w : writeAddrs)
        EXPECT_LT(w, bytes);
    for (mem::Addr r : readAddrs)
        EXPECT_GE(r, bytes);
}

TEST(StreamTriad, ThinkTimeOnFirstOpOfLine)
{
    StreamTriad triad(0, 4 * 64, 1, 2.5);
    int thinkOps = 0, total = 0;
    while (auto op = triad.next()) {
        thinkOps += op->thinkNs > 0;
        total += 1;
    }
    EXPECT_EQ(thinkOps, total / 3);
}

TEST(Gups, UniformOverNodes)
{
    Gups gups(8, 1 << 20, 8000, 123);
    std::map<NodeId, int> perNode;
    while (auto op = gups.next()) {
        EXPECT_TRUE(op->write);
        perNode[mem::regionNode(op->addr)] += 1;
    }
    ASSERT_EQ(perNode.size(), 8u);
    for (auto [node, count] : perNode)
        EXPECT_NEAR(count, 1000, 250);
}

TEST(Gups, Deterministic)
{
    Gups a(4, 1 << 20, 100, 9);
    Gups b(4, 1 << 20, 100, 9);
    while (true) {
        auto oa = a.next();
        auto ob = b.next();
        ASSERT_EQ(oa.has_value(), ob.has_value());
        if (!oa)
            break;
        EXPECT_EQ(oa->addr, ob->addr);
    }
}

TEST(RandomRemoteReads, NeverPicksSelf)
{
    RandomRemoteReads reads(3, 8, 1 << 20, 5000, 77);
    while (auto op = reads.next()) {
        EXPECT_NE(mem::regionNode(op->addr), 3);
        EXPECT_FALSE(op->write);
    }
}

TEST(RandomRemoteReads, AllOthersChosen)
{
    RandomRemoteReads reads(0, 4, 1 << 20, 3000, 5);
    std::set<NodeId> seen;
    while (auto op = reads.next())
        seen.insert(mem::regionNode(op->addr));
    EXPECT_EQ(seen.size(), 3u);
}

TEST(HotSpotReads, AllOnVictim)
{
    HotSpotReads reads(2, 1 << 20, 500, 3);
    while (auto op = reads.next())
        EXPECT_EQ(mem::regionNode(op->addr), 2);
}

TEST(NasSP, SweepDominatesExchange)
{
    NasSpParams p;
    p.iterations = 2;
    p.sweepLines = 100;
    p.exchangeLines = 10;
    NasSP sp(0, 4, p);
    int local = 0, remote = 0;
    while (auto op = sp.next()) {
        if (mem::regionNode(op->addr) == 0)
            local += 1;
        else
            remote += 1;
    }
    EXPECT_EQ(remote, 2 * 2 * 10); // two neighbours per iteration
    EXPECT_EQ(local, 2 * 3 * 100);
}

TEST(NasSP, ExchangeTargetsAreRingNeighbours)
{
    NasSpParams p;
    p.iterations = 1;
    p.sweepLines = 10;
    p.exchangeLines = 4;
    NasSP sp(0, 8, p);
    std::set<NodeId> peers;
    while (auto op = sp.next()) {
        NodeId n = mem::regionNode(op->addr);
        if (n != 0)
            peers.insert(n);
    }
    EXPECT_EQ(peers, (std::set<NodeId>{1, 7}));
}

TEST(NasSP, SingleRankSkipsExchange)
{
    NasSpParams p;
    p.iterations = 1;
    p.sweepLines = 10;
    NasSP sp(0, 1, p);
    while (auto op = sp.next())
        EXPECT_EQ(mem::regionNode(op->addr), 0);
}

TEST(Fluent, MostAccessesReuseTheBlock)
{
    FluentParams p;
    p.iterations = 1;
    p.blockBytes = 16 * 64;
    p.blocksPerIter = 2;
    p.reusePasses = 4;
    p.exchangeLines = 2;
    FluentCfd cfd(0, 4, p);
    std::map<mem::Addr, int> touches;
    int ops = 0;
    while (auto op = cfd.next()) {
        if (mem::regionNode(op->addr) == 0)
            touches[mem::lineOf(op->addr)] += 1;
        ops += 1;
    }
    // Every local line touched reusePasses times.
    for (auto [line, count] : touches)
        EXPECT_EQ(count, 4);
    EXPECT_EQ(ops, 2 * 4 * 16 + 2);
}

TEST(Fluent, CarriesComputePerAccess)
{
    FluentCfd cfd(0, 1);
    auto op = cfd.next();
    ASSERT_TRUE(op);
    EXPECT_GT(op->thinkNs, 0.0);
}

} // namespace
