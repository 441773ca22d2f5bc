/** @file Cache tag-store tests: sparse footprint, snapshot bytes,
 *  restore over a used store, geometry checks. */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/cache.hh"
#include "sim/checkpoint.hh"
#include "sim/random.hh"

namespace
{

using namespace gs;
using namespace gs::mem;

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

std::vector<std::uint8_t>
snapshot(const Cache &c)
{
    ckpt::Serializer s;
    c.saveCkpt(s);
    return s.buffer();
}

/**
 * A fixed mix of lookups (fill on miss), state changes, invalidations
 * and probes over 97 sets starting at set @p setBase, with up to
 * 2 x ways + 1 distinct tags per set so that sets fill and evict.
 * Every observable result is appended to @p log.
 */
void
drive(Cache &c, std::uint64_t seed, int steps, std::uint64_t setBase,
      std::vector<std::uint64_t> &log)
{
    static constexpr LineState states[] = {
        LineState::Invalid, LineState::Shared, LineState::Exclusive,
        LineState::Modified};
    const auto sets = static_cast<std::uint64_t>(c.sets());
    const auto tags = static_cast<std::uint64_t>(2 * c.params().ways + 1);
    Rng rng(seed);
    for (int step = 0; step < steps; ++step) {
        const std::uint64_t set = (setBase + rng.below(97) * 37) % sets;
        const Addr a = (rng.below(tags) * sets + set) * lineBytes +
                       rng.below(lineBytes);
        switch (rng.below(5)) {
          case 0:
          case 1: {
            const CacheAccess acc = c.lookup(a, false);
            log.push_back(acc.hit);
            log.push_back(static_cast<std::uint64_t>(acc.state));
            if (!acc.hit) {
                const Victim v = c.fill(a, states[1 + rng.below(3)]);
                log.push_back(v.line);
                log.push_back(static_cast<std::uint64_t>(v.state));
            }
            break;
          }
          case 2:
            if (c.contains(a))
                c.setState(a, states[rng.below(4)]);
            break;
          case 3:
            c.invalidate(a);
            break;
          default:
            log.push_back(static_cast<std::uint64_t>(c.state(a)));
            break;
        }
    }
    log.push_back(c.hits());
    log.push_back(c.misses());
}

TEST(CacheStore, SparseFillsStaySmall)
{
    Cache c(CacheParams::ev7L2());
    for (std::uint64_t i = 0; i < 50; ++i) {
        const std::uint64_t set = (i * 83) % 4096;
        c.fill(((i * 7919) * 4096 + set) * lineBytes, LineState::Shared);
    }
    EXPECT_LE(c.footprintBytes(), 24u * 1024);
    // The dense charge stays the full 24-byte-per-line tag array, so
    // mem.reduction remains comparable across layouts.
    EXPECT_EQ(c.denseFootprintBytes(),
              sizeof(Cache) + 4096u * 7 * 24);
}

struct PinCase
{
    const char *name;
    CacheParams params;
    std::uint64_t digest;
};

// Without a printer gtest lists the case by its raw bytes, which
// include the address of `name` and so change with every process
// (ASLR); ctest's discovered test names would never repeat.
void
PrintTo(const PinCase &pc, std::ostream *os)
{
    *os << pc.name;
}

class CacheSnapshotPin : public ::testing::TestWithParam<PinCase>
{
};

// The snapshot bytes are part of the checkpoint format: a presence
// flag per set, then tag, state and lastUse per way of each present
// set. The digests were taken from the pointer-per-set layout.
TEST_P(CacheSnapshotPin, BytesMatchRecordedDigest)
{
    const PinCase &pc = GetParam();
    Cache c(pc.params);
    std::vector<std::uint64_t> log;
    drive(c, 0x5eed, 6000, 3, log);
    EXPECT_EQ(fnv1a(snapshot(c)), pc.digest)
        << pc.name << " snapshot digest 0x" << std::hex
        << fnv1a(snapshot(c));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheSnapshotPin,
    ::testing::Values(PinCase{"ev7L2", CacheParams::ev7L2(),
                              0xa28366efb3305505ULL},
                      PinCase{"l1d", CacheParams::l1d(),
                              0x350b161a96f3d016ULL},
                      PinCase{"ev68L2", CacheParams::ev68L2(),
                              0x220253df3f0e53f1ULL}),
    [](const auto &info) { return std::string(info.param.name); });

class CacheRestore : public ::testing::TestWithParam<CacheParams>
{
};

TEST_P(CacheRestore, OverOtherSetsContinuesLikeUninterruptedRun)
{
    Cache ref(GetParam());
    std::vector<std::uint64_t> refLog;
    drive(ref, 1, 3000, 0, refLog);
    const std::vector<std::uint8_t> snap = snapshot(ref);

    // A cache whose store holds a different population of sets.
    Cache other(GetParam());
    std::vector<std::uint64_t> otherLog;
    drive(other, 2, 3000, 11, otherLog);
    ckpt::Deserializer d(snap.data(), snap.size());
    other.restoreCkpt(d);
    ASSERT_TRUE(d.ok()) << d.error();
    EXPECT_EQ(snapshot(other), snap);
    EXPECT_EQ(other.hits(), ref.hits());
    EXPECT_EQ(other.misses(), ref.misses());

    refLog.clear();
    otherLog.clear();
    drive(ref, 3, 3000, 5, refLog);
    drive(other, 3, 3000, 5, otherLog);
    EXPECT_EQ(otherLog, refLog);
    EXPECT_EQ(snapshot(other), snapshot(ref));
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheRestore,
                         ::testing::Values(CacheParams::ev7L2(),
                                           CacheParams::l1d(),
                                           CacheParams::ev68L2()));

TEST(CacheStore, RestoreRejectsUnpackableLines)
{
    // One set, one way: 28 header bytes, then the presence flag, the
    // tag (8 bytes), the state byte and the LRU stamp.
    CacheParams p;
    p.sizeBytes = lineBytes;
    p.ways = 1;
    Cache c(p);
    c.fill(0x40, LineState::Shared);
    const std::vector<std::uint8_t> good = snapshot(c);
    ASSERT_EQ(good.size(), 28u + 1 + 8 + 1 + 8);
    ASSERT_EQ(good[29], 0x40);
    ASSERT_EQ(good[37], static_cast<std::uint8_t>(LineState::Shared));

    for (const auto &[at, byte] :
         {std::pair{29, 0x41}, std::pair{37, 4}}) {
        std::vector<std::uint8_t> bad = good;
        bad[static_cast<std::size_t>(at)] =
            static_cast<std::uint8_t>(byte);
        Cache r(p);
        ckpt::Deserializer d(bad.data(), bad.size());
        r.restoreCkpt(d);
        EXPECT_FALSE(d.ok()) << "byte " << at;
        EXPECT_EQ(d.error(), "cache line tag or state out of range");
    }
}

TEST(CacheStoreDeath, NonPowerOfTwoSetCountDies)
{
    CacheParams p;
    p.sizeBytes = 3 * 2 * lineBytes; // 3 sets of 2 ways
    p.ways = 2;
    EXPECT_DEATH(Cache c(p), "set count must be a power of two");
}

} // namespace
