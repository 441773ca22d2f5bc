/**
 * @file
 * Network packets and the EV7 message classes.
 *
 * Section 2 of the paper: the global directory protocol exchanges
 * Requests, Forwards and Responses; the router additionally carries
 * I/O traffic. Each class owns its virtual channels so that "a
 * Response packet can never block behind a Request packet". Block
 * responses carry a 64-byte cache line and are long packets; all
 * other messages are short header-only packets.
 */

#ifndef GS_NET_PACKET_HH
#define GS_NET_PACKET_HH

#include <array>
#include <cstdint>

#include "sim/trace_span.hh"
#include "sim/types.hh"

namespace gs::net
{

/** EV7 packet classes (each with its own virtual channels). */
enum class MsgClass : std::uint8_t
{
    Request,       ///< coherence requests toward a directory
    Forward,       ///< directory-to-owner forwards / invalidates
    BlockResponse, ///< data-carrying responses (64 B line)
    Ack,           ///< non-block responses (completion/inval acks)
    IO,            ///< I/O traffic (no adaptive channel)
};

/** Index of a pooled packet slot (stable for the packet's flight). */
using PacketHandle = std::uint32_t;

/** Sentinel for "no packet"; also ends a packet queue. */
constexpr PacketHandle invalidHandle = 0xffffffffu;

/** Number of message classes. */
constexpr int numClasses = 5;

/** Sub-channels within a class. */
enum VcSub : int
{
    vcEscape0 = 0, ///< deadlock-free channel, pre-dateline
    vcEscape1 = 1, ///< deadlock-free channel, post-dateline
    vcAdaptive = 2, ///< minimal-adaptive channel (not for IO)
    vcSubCount = 3,
};

/** Total virtual channels per input port. */
constexpr int numVcs = numClasses * vcSubCount;

/** Virtual-channel index for (class, sub-channel). */
constexpr int
vcIndex(MsgClass cls, int sub)
{
    return static_cast<int>(cls) * vcSubCount + sub;
}

/** Class owning VC @p vc. */
constexpr MsgClass
vcClass(int vc)
{
    return static_cast<MsgClass>(vc / vcSubCount);
}

/** True when @p cls may use the adaptive channel (everything but IO). */
constexpr bool
mayAdapt(MsgClass cls)
{
    return cls != MsgClass::IO;
}

/** Short class name for telemetry paths ("req", "fwd", ...). */
constexpr const char *
msgClassName(MsgClass cls)
{
    switch (cls) {
      case MsgClass::Request:
        return "req";
      case MsgClass::Forward:
        return "fwd";
      case MsgClass::BlockResponse:
        return "blk";
      case MsgClass::Ack:
        return "ack";
      case MsgClass::IO:
        return "io";
    }
    return "?";
}

/**
 * A packet in flight. Packets move whole (virtual cut-through);
 * their length in flits determines link occupancy.
 */
struct Packet
{
    std::uint64_t id = 0; ///< unique per network, for tracing
    MsgClass cls = MsgClass::Request;
    NodeId src = invalidNode;
    NodeId dst = invalidNode;
    int flits = 2; ///< length; headers 2 flits, +16 for a 64 B line

    Tick injected = 0; ///< when handed to the source router
    int hops = 0;      ///< network links traversed so far

    /**
     * The packet behind this one in the router queue that holds it
     * (PacketQueue, packet_pool.hh); invalidHandle at a queue's tail.
     * Sits in the padding after @c hops, so a Packet is no bigger
     * for it. Router state, not part of the packet: never
     * serialized, and meaningless while the packet is not queued.
     */
    PacketHandle next = invalidHandle;

    /**
     * Opaque payload for the layer above the network (the coherence
     * protocol encodes its message here). The network never
     * interprets it.
     */
    std::array<std::uint64_t, 3> user{};

    /**
     * Latency x-ray span state (docs/TRACING.md). Inert (id == 0)
     * unless the transaction was sampled; rides packet copies across
     * parallel-domain boundaries and checkpoints by value, which is
     * what keeps span exports byte-identical at any --threads.
     */
    trace::SpanState span;
};

/** Header-only packet length in flits (4 B flits: 8 B header). */
constexpr int headerFlits = 2;

/** Data packet length: header + 64-byte cache line. */
constexpr int dataFlits = headerFlits + 16;

} // namespace gs::net

#endif // GS_NET_PACKET_HH
