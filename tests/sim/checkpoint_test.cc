/**
 * @file
 * Snapshot format tests (sim/checkpoint.hh): field round-trips,
 * section framing, and — the robustness contract — that corrupt,
 * truncated, or version-mismatched snapshots are rejected with a
 * clear error instead of being half-applied. The last group feeds a
 * coherence node hand-built MAF / victim-buffer / directory sections.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "coherence/node.hh"
#include "mem/address.hh"
#include "net/network.hh"
#include "sim/checkpoint.hh"
#include "sim/trace_span.hh"
#include "topology/torus.hh"

namespace
{

using namespace gs;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/** A two-section snapshot with every field type in use. */
ckpt::Serializer
sampleSnapshot()
{
    ckpt::Serializer s;
    s.beginSection(ckpt::secMeta);
    s.put8(7);
    s.put16(0xbeef);
    s.put32(0xdeadbeefu);
    s.put64(0x0123456789abcdefull);
    s.putI32(-42);
    s.putI64(-7000000000ll);
    s.putBool(true);
    s.putF64(2.5);
    s.putStr("net.latency");
    s.endSection();

    s.beginSection(ckpt::secEvtq);
    ckpt::EventDesc d;
    d.kind = ckpt::NetTick;
    d.owner = 3;
    d.a = -1;
    d.b = 2;
    d.c = 3;
    d.u = 99;
    d.v = 100;
    s.putDesc(d);
    s.endSection();
    return s;
}

void
readSample(ckpt::Deserializer &d)
{
    ASSERT_TRUE(d.enterSection(ckpt::secMeta, "META")) << d.error();
    EXPECT_EQ(d.get8(), 7);
    EXPECT_EQ(d.get16(), 0xbeef);
    EXPECT_EQ(d.get32(), 0xdeadbeefu);
    EXPECT_EQ(d.get64(), 0x0123456789abcdefull);
    EXPECT_EQ(d.getI32(), -42);
    EXPECT_EQ(d.getI64(), -7000000000ll);
    EXPECT_TRUE(d.getBool());
    EXPECT_EQ(d.getF64(), 2.5);
    EXPECT_EQ(d.getStr(), "net.latency");
    d.leaveSection("META");

    ASSERT_TRUE(d.enterSection(ckpt::secEvtq, "EVTQ")) << d.error();
    ckpt::EventDesc e = d.getDesc();
    EXPECT_EQ(e.kind, ckpt::NetTick);
    EXPECT_EQ(e.owner, 3);
    EXPECT_EQ(e.a, -1);
    EXPECT_EQ(e.b, 2);
    EXPECT_EQ(e.c, 3);
    EXPECT_EQ(e.u, 99u);
    EXPECT_EQ(e.v, 100u);
    d.leaveSection("EVTQ");
    EXPECT_TRUE(d.ok()) << d.error();
}

TEST(CheckpointFormat, FieldRoundTripInMemory)
{
    auto s = sampleSnapshot();
    ckpt::Deserializer d(s.buffer().data(), s.size());
    readSample(d);
}

TEST(CheckpointFormat, FileRoundTripThroughHeader)
{
    const std::string path = tmpPath("ckpt_roundtrip.gsckpt");
    auto s = sampleSnapshot();
    std::string err;
    ASSERT_TRUE(ckpt::writeSnapshot(path, s, &err)) << err;

    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    ASSERT_TRUE(ckpt::readSnapshot(path, &buf, &off, &err)) << err;
    EXPECT_EQ(off, 16u); // 8-byte magic + version + reserved
    ckpt::Deserializer d(buf.data() + off, buf.size() - off);
    readSample(d);
    std::remove(path.c_str());
}

TEST(CheckpointFormat, AtomicWriteLeavesNoTmpFile)
{
    const std::string path = tmpPath("ckpt_atomic.gsckpt");
    auto s = sampleSnapshot();
    std::string err;
    ASSERT_TRUE(ckpt::writeSnapshot(path, s, &err)) << err;
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "tmp file left behind";
    std::remove(path.c_str());
}

TEST(CheckpointFormat, RejectsMissingFile)
{
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    std::string err;
    EXPECT_FALSE(ckpt::readSnapshot(tmpPath("ckpt_nonexistent.gsckpt"),
                                    &buf, &off, &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos) << err;
}

TEST(CheckpointFormat, RejectsBadMagic)
{
    const std::string path = tmpPath("ckpt_badmagic.gsckpt");
    {
        std::ofstream f(path, std::ios::binary);
        f << "NOTACKPTxxxxxxxxyyyyyyyy";
    }
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    std::string err;
    EXPECT_FALSE(ckpt::readSnapshot(path, &buf, &off, &err));
    EXPECT_NE(err.find("not a snapshot"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(CheckpointFormat, RejectsVersionMismatch)
{
    const std::string path = tmpPath("ckpt_badver.gsckpt");
    auto s = sampleSnapshot();
    std::string err;
    ASSERT_TRUE(ckpt::writeSnapshot(path, s, &err)) << err;
    {
        // Bump the little-endian version word at offset 8.
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(8);
        char v = static_cast<char>(ckpt::formatVersion + 1);
        f.write(&v, 1);
    }
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    EXPECT_FALSE(ckpt::readSnapshot(path, &buf, &off, &err));
    EXPECT_NE(err.find("format version"), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(CheckpointFormat, RejectsPreviousVersionNamingBoth)
{
    // A snapshot written before the last layout change (the previous
    // formatVersion) must be refused, and the error must say which
    // version the file is and which this build reads.
    const std::string path = tmpPath("ckpt_oldver.gsckpt");
    auto s = sampleSnapshot();
    std::string err;
    ASSERT_TRUE(ckpt::writeSnapshot(path, s, &err)) << err;
    {
        const std::uint32_t old = ckpt::formatVersion - 1;
        char ver[4];
        for (int i = 0; i < 4; ++i)
            ver[i] = static_cast<char>(old >> (8 * i));
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(8);
        f.write(ver, 4);
    }
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    EXPECT_FALSE(ckpt::readSnapshot(path, &buf, &off, &err));
    const std::string want =
        "format version " + std::to_string(ckpt::formatVersion - 1) +
        ", this build reads version " +
        std::to_string(ckpt::formatVersion);
    EXPECT_NE(err.find(want), std::string::npos) << err;
    std::remove(path.c_str());
}

TEST(CheckpointFormat, RejectsFileSmallerThanHeader)
{
    const std::string path = tmpPath("ckpt_tiny.gsckpt");
    {
        std::ofstream f(path, std::ios::binary);
        f << "GS12";
    }
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    std::string err;
    EXPECT_FALSE(ckpt::readSnapshot(path, &buf, &off, &err));
    EXPECT_NE(err.find("smaller than the header"), std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(CheckpointFormat, BitFlipInPayloadFailsSectionCrc)
{
    auto s = sampleSnapshot();
    // Flip one payload bit — every payload byte sits behind a frame,
    // so any single flip past the first frame must break a CRC (or
    // the frame fields themselves, caught as layout errors).
    std::vector<std::uint8_t> bytes(s.buffer().begin(),
                                    s.buffer().end());
    bytes[20] ^= 0x10; // inside the META payload
    ckpt::Deserializer d(bytes.data(), bytes.size());
    EXPECT_FALSE(d.enterSection(ckpt::secMeta, "META"));
    EXPECT_NE(d.error().find("CRC mismatch"), std::string::npos)
        << d.error();
}

TEST(CheckpointFormat, TruncatedSectionIsRejected)
{
    auto s = sampleSnapshot();
    std::vector<std::uint8_t> bytes(s.buffer().begin(),
                                    s.buffer().end());
    bytes.resize(20); // frame + 4 payload bytes: length claim unmet
    ckpt::Deserializer d(bytes.data(), bytes.size());
    EXPECT_FALSE(d.enterSection(ckpt::secMeta, "META"));
    EXPECT_NE(d.error().find("truncated"), std::string::npos)
        << d.error();
}

TEST(CheckpointFormat, WrongSectionOrderIsALayoutError)
{
    auto s = sampleSnapshot();
    ckpt::Deserializer d(s.buffer().data(), s.size());
    EXPECT_FALSE(d.enterSection(ckpt::secEvtq, "EVTQ"));
    EXPECT_NE(d.error().find("expected section"), std::string::npos)
        << d.error();
}

TEST(CheckpointFormat, UnderReadingASectionIsALayoutError)
{
    auto s = sampleSnapshot();
    ckpt::Deserializer d(s.buffer().data(), s.size());
    ASSERT_TRUE(d.enterSection(ckpt::secMeta, "META"));
    d.get8(); // leave the rest unread
    d.leaveSection("META");
    EXPECT_FALSE(d.ok());
    EXPECT_NE(d.error().find("unread byte"), std::string::npos)
        << d.error();
}

TEST(CheckpointFormat, ErrorsAreStickyAndGettersReturnZero)
{
    auto s = sampleSnapshot();
    ckpt::Deserializer d(s.buffer().data(), s.size());
    ASSERT_TRUE(d.enterSection(ckpt::secMeta, "META"));
    d.fail("injected failure");
    EXPECT_EQ(d.get64(), 0u);
    EXPECT_EQ(d.getStr(), "");
    EXPECT_FALSE(d.enterSection(ckpt::secEvtq, "EVTQ"));
    EXPECT_EQ(d.error(), "injected failure"); // first error wins
}

TEST(CheckpointFormat, ReadingPastSectionEndIsBounded)
{
    ckpt::Serializer s;
    s.beginSection(ckpt::secMeta);
    s.put8(1);
    s.endSection();
    s.beginSection(ckpt::secEvtq);
    s.put64(2);
    s.endSection();

    ckpt::Deserializer d(s.buffer().data(), s.size());
    ASSERT_TRUE(d.enterSection(ckpt::secMeta, "META"));
    d.get8();
    d.get64(); // would spill into the next section's frame
    EXPECT_FALSE(d.ok());
    EXPECT_NE(d.error().find("past section"), std::string::npos)
        << d.error();
}

/** A checkpoint client that schedules nothing. */
class QuietClient : public ckpt::Client
{
  public:
    void saveCkpt(ckpt::Serializer &) const override {}
    void restoreCkpt(ckpt::Deserializer &) override {}
};

TEST(CheckpointFormat, ContWithoutRecipeFailsTheSnapshot)
{
    ckpt::Serializer s;
    s.beginSection(ckpt::secCoh);
    ckpt::EventDesc known;
    known.kind = ckpt::CoreMemDone;
    s.putDesc(known);
    ckpt::EventDesc unknown;
    unknown.kind = ckpt::ClientEvent;
    s.putDesc(unknown);
    s.endSection();

    // Core completions have a callback; client events go to a client
    // that keeps the default, which owns none.
    int fired = 0;
    QuietClient quiet;
    const ckpt::RehydrateFn rehydrate =
        [&fired, &quiet](const ckpt::EventDesc &ed) -> InlineFn {
        if (ed.kind == ckpt::CoreMemDone)
            return [&fired] { fired += 1; };
        return quiet.callback(ed);
    };

    ckpt::Deserializer d(s.buffer().data(), s.size());
    ASSERT_TRUE(d.enterSection(ckpt::secCoh, "COHR"));
    // A known kind rebuilds a callable continuation.
    ckpt::Cont good = ckpt::restoreCont(d, rehydrate, "a test waiter");
    ASSERT_TRUE(d.ok()) << d.error();
    ASSERT_TRUE(good);
    good();
    EXPECT_EQ(fired, 1);

    // An unknown one must fail the restore, naming the holder.
    ckpt::Cont bad = ckpt::restoreCont(d, rehydrate, "a test waiter");
    EXPECT_FALSE(d.ok());
    EXPECT_FALSE(bad);
    EXPECT_NE(d.error().find("no rehydration recipe for a test waiter"),
              std::string::npos)
        << d.error();
}

/**
 * A 2-node machine whose node 0 restores hand-built protocol
 * sections: the bytes a fresh node saves, minus its empty tail
 * (MAF, victim-buffer and directory counts, then the empty throttle
 * queue, fill batches, two counters and parked spans).
 */
class NodeSnapshot : public ::testing::Test
{
  protected:
    static constexpr std::size_t emptyTailBytes = 4 * 6 + 8 * 2;

    SimContext ctx;
    topo::Torus2D torus{2, 1};
    net::Network net{ctx, torus, net::NetworkParams::gs1280()};
    mem::NodeOwnedMap map;
    coher::CoherentNode node{ctx, net, 0, map, coher::NodeConfig{}};
    ckpt::Serializer out;

    void
    SetUp() override
    {
        ckpt::Serializer fresh;
        node.saveCkpt(fresh);
        ASSERT_GT(fresh.size(), emptyTailBytes);
        out.beginSection(ckpt::secCoh);
        out.putBytes(fresh.buffer().data(),
                     fresh.size() - emptyTailBytes);
    }

    void
    putMaf(mem::Addr line)
    {
        out.put64(line);
        out.putBool(false); // write
        out.putBool(false); // dataArrived
        out.putBool(false); // invalWhilePending
        out.put8(static_cast<std::uint8_t>(mem::LineState::Shared));
        out.putI32(-1); // acksNeeded
        out.putI32(0);  // acksGot
        out.put64(0);   // issued
        trace::saveSpan(out, trace::SpanState{});
        out.put32(0); // waiters
        out.put32(0); // deferred forwards
        out.put32(0); // retries
    }

    void
    putVictim(mem::Addr line)
    {
        out.put64(line);
        out.putBool(true);
    }

    void
    putDir(mem::Addr line, coher::DirState state)
    {
        out.put64(line);
        out.put8(static_cast<std::uint8_t>(state));
        out.put64(0b10); // sharers
        out.putI32(1);   // owner
        out.putI32(invalidNode);
        out.put8(0);
        out.put32(0); // queued requests
    }

    /** Close the section and restore node 0 from it. */
    std::string
    restore()
    {
        out.put32(0); // throttled core accesses
        out.put32(0); // fill batches
        out.put64(0); // nextFillBatch
        out.put64(0); // ioReceived
        out.put32(0); // parked spans
        out.endSection();
        ckpt::Deserializer d(out.buffer().data(), out.size());
        EXPECT_TRUE(d.enterSection(ckpt::secCoh, "COHR")) << d.error();
        node.restoreCkpt(d, [](const ckpt::EventDesc &) {
            return std::function<void()>();
        });
        if (d.ok())
            d.leaveSection("COHR");
        return d.error();
    }
};

TEST_F(NodeSnapshot, WellFormedSectionsRestore)
{
    out.put32(2);
    putMaf(0x1000);
    putMaf(0x2000);
    out.put32(2);
    putVictim(0x3000);
    putVictim(0x3040);
    out.put32(2);
    putDir(0x4000, coher::DirState::Shared);
    putDir(0x4040, coher::DirState::Busy);
    ASSERT_EQ(restore(), "");
    EXPECT_EQ(node.outstandingMisses(), 2);
    EXPECT_EQ(node.victimBufferFill(), 2);
    EXPECT_EQ(node.dirState(0x4000), coher::DirState::Shared);
    EXPECT_EQ(node.dirSharers(0x4000), 0b10u);
    EXPECT_EQ(node.dirState(0x4040), coher::DirState::Busy);
    EXPECT_FALSE(node.quiesced());
    EXPECT_EQ(node.quiesced(), node.quiescedByScan());
}

TEST_F(NodeSnapshot, RepeatedMafLineIsRejected)
{
    out.put32(2);
    putMaf(0x1000);
    putMaf(0x1000);
    const std::string err = restore();
    EXPECT_NE(err.find("node 0 MAF section repeats line 0x1000"),
              std::string::npos)
        << err;
}

TEST_F(NodeSnapshot, MafSectionLargerThanTheMafIsRejected)
{
    const int slots = coher::NodeConfig{}.mafEntries;
    out.put32(static_cast<std::uint32_t>(slots + 1));
    for (int i = 0; i <= slots; ++i)
        putMaf(0x1000 + 64 * static_cast<mem::Addr>(i));
    const std::string err = restore();
    EXPECT_NE(err.find("MAF section holds " + std::to_string(slots + 1) +
                       " entries, more than the " +
                       std::to_string(slots) + " MAF slots"),
              std::string::npos)
        << err;
}

TEST_F(NodeSnapshot, RepeatedVictimLineIsRejected)
{
    out.put32(0);
    out.put32(3);
    putVictim(0x3000);
    putVictim(0x3040);
    putVictim(0x3000);
    const std::string err = restore();
    EXPECT_NE(err.find("node 0 victim-buffer section repeats line 0x3000"),
              std::string::npos)
        << err;
}

TEST_F(NodeSnapshot, RepeatedDirectoryLineIsRejected)
{
    out.put32(0);
    out.put32(0);
    out.put32(2);
    putDir(0x4040, coher::DirState::Exclusive);
    putDir(0x4040, coher::DirState::Shared);
    const std::string err = restore();
    EXPECT_NE(err.find("node 0 directory section repeats line 0x4040"),
              std::string::npos)
        << err;
}

} // namespace
