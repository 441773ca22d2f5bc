/**
 * @file
 * Whole-machine snapshot bytes, pinned.
 *
 * MachineSnapshotPin hashes a Machine::save image taken mid-run on a
 * serial 16P GS1280 with a registered telemetry Sampler, an armed
 * watchdog and a pending fault-plan event, so every section is
 * covered: EVTQ holds pending events of every owner (network,
 * coherence, cores, fault injector, watchdog and checkpoint client).
 * The digest was recorded before events and restored events shared
 * one recipe per owner; any change to how events are described must
 * keep it.
 *
 * The same image, with one pending event's descriptor edited and the
 * EVTQ section's CRC recomputed, drives the restore-side refusals of
 * descriptors whose operands name no node, domain, port, VC, live
 * packet or message type of the machine. Last, a restored Sampler
 * and a restored watchdog, stopped and restarted before their
 * pending event fires, must behave exactly as in the unbroken run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "coherence/messages.hh"
#include "fault/injector.hh"
#include "sim/checkpoint.hh"
#include "sim/random.hh"
#include "sim/telemetry.hh"
#include "system/machine.hh"
#include "workload/load_test.hh"
#include "workload/pointer_chase.hh"
#include "workload/stream.hh"

namespace
{

using namespace gs;

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
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

constexpr int pinCpus = 16;
constexpr std::uint64_t pinSeed = 5;

/** Where the pinned image is saved: traffic is in full flight. */
constexpr Tick pinSaveAt = 3 * tickUs;

/**
 * A serial 16P GS1280 running local STREAM Triad on CPUs 0-7 (think
 * time between accesses) and random remote reads on CPUs 8-15, with
 * a telemetry Sampler registered and started, an armed watchdog and
 * a link failure planned long after the save point.
 */
struct PinRig
{
    PinRig()
    {
        sys::Gs1280Options opt;
        opt.seed = pinSeed;
        m = sys::Machine::buildGS1280(pinCpus, opt);
        for (int c = 0; c < pinCpus; ++c) {
            if (c < pinCpus / 2) {
                gens.push_back(std::make_unique<wl::StreamTriad>(
                    m->cpuAddr(c, 0), 256ULL << 10, 1, 40.0));
            } else {
                gens.push_back(std::make_unique<wl::RandomRemoteReads>(
                    static_cast<NodeId>(c), pinCpus, 8ULL << 20, 200,
                    Rng::deriveSeed(pinSeed,
                                    static_cast<std::uint64_t>(c))));
            }
            sources.push_back(gens.back().get());
        }
        sampler = std::make_unique<telem::Sampler>(
            m->ctx(), m->telemetry(), tickUs / 2);
        sampler->watch("net.delivered_packets");
        sampler->watchRate("node.0.router.port.E.flits", 1.0);
        m->registerCkptClient(*sampler);
        sampler->start();

        fault::WatchdogConfig cfg;
        cfg.checkCycles = 500;
        m->armWatchdog(cfg);

        fault::FaultPlan plan;
        plan.linkDown(10 * tickMs, 5, 0);
        m->faults().schedule(plan);
    }

    std::unique_ptr<sys::Machine> m;
    std::vector<std::unique_ptr<cpu::TrafficSource>> gens;
    std::vector<cpu::TrafficSource *> sources;
    std::unique_ptr<telem::Sampler> sampler;
};

TEST(MachineSnapshotPin, SerialMidRunImageMatchesRecordedDigest)
{
    PinRig rig;
    ASSERT_FALSE(rig.m->run(rig.sources, pinSaveAt))
        << "the workload finished before the save point";

    std::set<std::uint16_t> kinds;
    rig.m->ctx().queue().visitPending(
        [&kinds](Tick, std::uint64_t, const ckpt::EventDesc &d) {
            kinds.insert(d.kind);
        });
    auto anyIn = [&kinds](ckpt::EvKind lo, ckpt::EvKind hi) {
        auto it = kinds.lower_bound(lo);
        return it != kinds.end() && *it <= hi;
    };
    EXPECT_TRUE(anyIn(ckpt::NetInjStart, ckpt::NetTick));
    EXPECT_TRUE(anyIn(ckpt::CohSendMsg, ckpt::CohHomeApplyTransfer));
    EXPECT_TRUE(anyIn(ckpt::CoreThink, ckpt::CoreMemDone));
    EXPECT_TRUE(kinds.count(ckpt::FaultApply));
    EXPECT_TRUE(kinds.count(ckpt::WatchdogPoll));
    EXPECT_TRUE(kinds.count(ckpt::ClientEvent));

    const std::string snap = testing::TempDir() + "machine_pin.gsckpt";
    std::string err;
    ASSERT_TRUE(rig.m->save(snap, &err)) << err;
    const std::uint64_t digest = fnv1a(readFile(snap));
    std::remove(snap.c_str());
    EXPECT_EQ(digest, 0x8a2b51bc18c67f6cULL)
        << "machine snapshot digest 0x" << std::hex << digest;
}

// --- Restore-side refusals of impossible event descriptors -----------

std::uint64_t
getLe(const std::vector<std::uint8_t> &b, std::size_t at, int bytes)
{
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i)
        v |= std::uint64_t(b[at + std::size_t(i)]) << (8 * i);
    return v;
}

void
putLe(std::vector<std::uint8_t> &b, std::size_t at, int bytes,
      std::uint64_t v)
{
    for (int i = 0; i < bytes; ++i)
        b[at + std::size_t(i)] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Offsets of the serial image's pending-event descriptors. */
std::vector<std::size_t>
descOffsets(const std::vector<std::uint8_t> &img, std::size_t &frame)
{
    // Header (magic, version, reserved flags), then framed sections:
    // u32 tag, u32 crc, u64 length, payload.
    std::size_t at = 16;
    while (getLe(img, at, 4) != ckpt::secEvtq)
        at += 16 + getLe(img, at + 8, 8);
    frame = at;
    // EVTQ payload: i32 queue count (1 when serial), six u64 queue
    // counters, u32 event count, then (u64 when, u64 seq, 32-byte
    // desc) per event.
    std::size_t p = at + 16 + 4 + 6 * 8;
    const std::uint64_t n = getLe(img, p, 4);
    p += 4;
    std::vector<std::size_t> offs;
    for (std::uint64_t i = 0; i < n; ++i)
        offs.push_back(p + 48 * i + 16);
    return offs;
}

/**
 * Save the pin rig mid-run, let @p edit rewrite the first pending
 * event of kind @p kind (given the saving machine), recompute the
 * EVTQ CRC and return the error of restoring the result into a fresh
 * rig ("" on success).
 */
template <class Edit>
std::string
restoreWithEditedEvent(ckpt::EvKind kind, Edit edit)
{
    PinRig a;
    EXPECT_FALSE(a.m->run(a.sources, pinSaveAt));
    // One file per test: ctest runs the tests in parallel processes.
    const std::string snap =
        testing::TempDir() +
        testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".gsckpt";
    std::string err;
    EXPECT_TRUE(a.m->save(snap, &err)) << err;
    std::vector<std::uint8_t> img = readFile(snap);

    std::size_t frame = 0;
    bool found = false;
    for (std::size_t at : descOffsets(img, frame)) {
        if (getLe(img, at, 2) != kind)
            continue;
        ckpt::EventDesc d;
        d.kind = kind;
        d.owner = static_cast<std::uint16_t>(getLe(img, at + 2, 2));
        d.a = static_cast<std::int32_t>(getLe(img, at + 4, 4));
        d.b = static_cast<std::int32_t>(getLe(img, at + 8, 4));
        d.c = static_cast<std::int32_t>(getLe(img, at + 12, 4));
        d.u = getLe(img, at + 16, 8);
        d.v = getLe(img, at + 24, 8);
        edit(d, *a.m);
        putLe(img, at + 2, 2, d.owner);
        putLe(img, at + 4, 4, static_cast<std::uint32_t>(d.a));
        putLe(img, at + 8, 4, static_cast<std::uint32_t>(d.b));
        putLe(img, at + 12, 4, static_cast<std::uint32_t>(d.c));
        putLe(img, at + 16, 8, d.u);
        putLe(img, at + 24, 8, d.v);
        found = true;
        break;
    }
    EXPECT_TRUE(found) << "no pending event of kind " << kind;
    const std::size_t len = getLe(img, frame + 8, 8);
    putLe(img, frame + 4, 4, ckpt::crc32(img.data() + frame + 16, len));
    {
        std::ofstream f(snap, std::ios::binary | std::ios::trunc);
        f.write(reinterpret_cast<const char *>(img.data()),
                static_cast<std::streamsize>(img.size()));
    }

    PinRig b;
    err.clear();
    b.m->restore(snap, b.sources, &err);
    std::remove(snap.c_str());
    return err;
}

constexpr NodeId badNode = pinCpus;

TEST(CheckpointMachine, RestoreAcceptsReChecksummedUneditedImage)
{
    EXPECT_EQ(restoreWithEditedEvent(
                  ckpt::NetReceive,
                  [](ckpt::EventDesc &, sys::Machine &) {}),
              "");
}

TEST(CheckpointMachine, RestoreRejectsNetEventOwnerOutOfRange)
{
    const std::string err = restoreWithEditedEvent(
        ckpt::NetReceive, [](ckpt::EventDesc &d, sys::Machine &) {
            d.owner = badNode;
        });
    EXPECT_NE(err.find("NetReceive (owner 16)"), std::string::npos)
        << err;
    EXPECT_NE(err.find("node"), std::string::npos) << err;
}

TEST(CheckpointMachine, RestoreRejectsNetTickDomainOutOfRange)
{
    const std::string err = restoreWithEditedEvent(
        ckpt::NetTick,
        [](ckpt::EventDesc &d, sys::Machine &) { d.owner = 1; });
    EXPECT_NE(err.find("NetTick (owner 1)"), std::string::npos) << err;
    EXPECT_NE(err.find("domain"), std::string::npos) << err;
}

TEST(CheckpointMachine, RestoreRejectsNetPortOutOfRange)
{
    int owner = -1;
    const std::string err = restoreWithEditedEvent(
        ckpt::NetReceive, [&owner](ckpt::EventDesc &d, sys::Machine &m) {
            owner = d.owner;
            d.a = m.network().topology().numPorts(d.owner);
        });
    EXPECT_NE(err.find("NetReceive (owner " + std::to_string(owner) +
                       ")"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("port"), std::string::npos) << err;
}

TEST(CheckpointMachine, RestoreRejectsNetVcOutOfRange)
{
    int owner = -1;
    const std::string err = restoreWithEditedEvent(
        ckpt::NetCredit, [&owner](ckpt::EventDesc &d, sys::Machine &) {
            owner = d.owner;
            d.b = net::numVcs;
        });
    EXPECT_NE(err.find("NetCredit (owner " + std::to_string(owner) +
                       ")"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("vc"), std::string::npos) << err;
}

TEST(CheckpointMachine, RestoreRejectsNetHandleNotLive)
{
    int owner = -1;
    const std::string err = restoreWithEditedEvent(
        ckpt::NetReceive, [&owner](ckpt::EventDesc &d, sys::Machine &m) {
            owner = d.owner;
            // A slot the pool holds but no packet occupies.
            const net::PacketPool &pool = m.network().pool();
            net::PacketHandle h = 0;
            while (h < pool.capacity() && pool.isLive(h))
                ++h;
            ASSERT_LT(h, pool.capacity()) << "every pool slot is live";
            d.u = h;
        });
    EXPECT_NE(err.find("NetReceive (owner " + std::to_string(owner) +
                       ")"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("not live"), std::string::npos) << err;
}

TEST(CheckpointMachine, RestoreRejectsCohSendMsgTypeOutOfRange)
{
    int owner = -1;
    const std::string err = restoreWithEditedEvent(
        ckpt::CohSendMsg, [&owner](ckpt::EventDesc &d, sys::Machine &) {
            owner = d.owner;
            d.a = coher::numMsgTypes;
        });
    EXPECT_NE(err.find("CohSendMsg (owner " + std::to_string(owner) +
                       ")"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("message type"), std::string::npos) << err;
}

TEST(CheckpointMachine, RestoreRejectsCohSendMsgDstOutOfRange)
{
    int owner = -1;
    const std::string err = restoreWithEditedEvent(
        ckpt::CohSendMsg, [&owner](ckpt::EventDesc &d, sys::Machine &) {
            owner = d.owner;
            d.b = badNode;
        });
    EXPECT_NE(err.find("CohSendMsg (owner " + std::to_string(owner) +
                       ")"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("destination"), std::string::npos) << err;
}

TEST(CheckpointMachine, RestoreRejectsCohSendMsgRequesterOutOfRange)
{
    int owner = -1;
    const std::string err = restoreWithEditedEvent(
        ckpt::CohSendMsg, [&owner](ckpt::EventDesc &d, sys::Machine &) {
            owner = d.owner;
            d.c = badNode;
        });
    EXPECT_NE(err.find("CohSendMsg (owner " + std::to_string(owner) +
                       ")"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("requester"), std::string::npos) << err;
}

// --- Restored self-rescheduling chains -------------------------------

/** A 4P machine with random remote reads on every CPU. */
struct SmallRig
{
    SmallRig()
    {
        m = sys::Machine::buildGS1280(4);
        for (int c = 0; c < 4; ++c) {
            gens.push_back(std::make_unique<wl::RandomRemoteReads>(
                static_cast<NodeId>(c), 4, 8ULL << 20, 400,
                Rng::deriveSeed(1, static_cast<std::uint64_t>(c))));
            sources.push_back(gens.back().get());
        }
    }

    std::unique_ptr<sys::Machine> m;
    std::vector<std::unique_ptr<cpu::TrafficSource>> gens;
    std::vector<cpu::TrafficSource *> sources;
};

TEST(CheckpointMachine, RestoredSamplerRestartKeepsOneChain)
{
    const Tick interval = tickUs / 4;
    const std::string snap = testing::TempDir() + "sampler_restart.gsckpt";

    // Unbroken: save mid-run, then stop and restart the sampler
    // before its pending tick fires, and run on.
    SmallRig a;
    telem::Sampler sa(a.m->ctx(), a.m->telemetry(), interval);
    sa.watch("net.delivered_packets");
    a.m->registerCkptClient(sa);
    sa.start();
    ASSERT_FALSE(a.m->run(a.sources, 2 * tickUs + interval / 2));
    std::string err;
    ASSERT_TRUE(a.m->save(snap, &err)) << err;
    sa.stop();
    sa.start();
    a.m->runFor(3 * tickUs);
    sa.stop();

    // Restored: the same restart right after the restore.
    SmallRig b;
    telem::Sampler sb(b.m->ctx(), b.m->telemetry(), interval);
    sb.watch("net.delivered_packets");
    b.m->registerCkptClient(sb);
    ASSERT_TRUE(b.m->restore(snap, b.sources, &err)) << err;
    sb.stop();
    sb.start();
    b.m->runFor(3 * tickUs);
    sb.stop();
    std::remove(snap.c_str());

    EXPECT_EQ(sb.times(), sa.times());
    ASSERT_EQ(sb.series().size(), sa.series().size());
    EXPECT_EQ(sb.series()[0].values, sa.series()[0].values);
}

/**
 * CPU 0 chases pointers in node 3's memory and node 3 dies at 5 us,
 * wedging the chase; a watchdog with a coherence probe is armed.
 */
struct WedgeRig
{
    WedgeRig() : chase(nullptr)
    {
        m = sys::Machine::buildGS1280(4);
        fault::WatchdogConfig cfg;
        cfg.checkCycles = 500;
        m->armWatchdog(cfg, /*coherenceTimeoutNs=*/20000.0)
            .onTrip([this](const std::string &why) { tripped = why; });
        fault::FaultPlan plan;
        plan.nodeDown(5 * tickUs, 3);
        m->faults().schedule(plan);
        chase = std::make_unique<wl::PointerChase>(m->cpuAddr(3, 0),
                                                   1 << 20, 64, 800);
    }

    std::unique_ptr<sys::Machine> m;
    std::unique_ptr<wl::PointerChase> chase;
    std::string tripped;
};

TEST(CheckpointMachine, RestoredWatchdogRearmTripsLikeUnbrokenRun)
{
    const std::string snap = testing::TempDir() + "watchdog_rearm.gsckpt";

    // Unbroken: save before the fault, disarm and re-arm before the
    // pending poll, and run into the wedge.
    WedgeRig a;
    ASSERT_FALSE(a.m->run({a.chase.get()}, 4 * tickUs + 100 * tickNs));
    std::string err;
    ASSERT_TRUE(a.m->save(snap, &err)) << err;
    a.m->watchdog()->disarm();
    a.m->watchdog()->arm();
    a.m->runFor(60 * tickUs);
    ASSERT_FALSE(a.tripped.empty()) << "the wedge was not detected";

    WedgeRig b;
    ASSERT_TRUE(b.m->restore(snap, {b.chase.get()}, &err)) << err;
    b.m->watchdog()->disarm();
    b.m->watchdog()->arm();
    b.m->runFor(60 * tickUs);
    std::remove(snap.c_str());

    // The reason carries the trip tick.
    EXPECT_EQ(b.tripped, a.tripped);
    EXPECT_EQ(b.m->watchdog()->trips(), a.m->watchdog()->trips());
}

} // namespace
