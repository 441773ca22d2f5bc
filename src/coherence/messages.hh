/**
 * @file
 * Coherence protocol messages and their packet encoding.
 *
 * The 21364 global directory protocol is a forwarding protocol
 * (Section 2 of the paper): "A requesting processor sends a Request
 * message to the directory. If the block is local, the directory is
 * updated and a Response is sent back. If the block is in Exclusive
 * state, the Forward message is sent to the owner of the block, who
 * sends the Response to the requestor and directory. If the block
 * is in Shared state (and the request is to modify the block),
 * Forward/invalidates are sent to each of the shared copies, and a
 * Response is sent to the requestor."
 *
 * Message-class mapping keeps the required acyclic class order:
 * Request -> Forward -> {BlockResponse, Ack}; responses always sink.
 */

#ifndef GS_COHERENCE_MESSAGES_HH
#define GS_COHERENCE_MESSAGES_HH

#include "mem/address.hh"
#include "net/packet.hh"

namespace gs::coher
{

/** Protocol message types. */
enum class MsgType : std::uint8_t
{
    // Requests (network class Request), requester -> home.
    RdReq,       ///< read miss
    RdModReq,    ///< write miss (data + exclusivity)
    VictimWB,    ///< dirty eviction, carries the line
    VictimClean, ///< clean-exclusive eviction notice (header only)

    // Forwards (network class Forward), home -> third party.
    FwdRd,    ///< send line to requester, downgrade to Shared
    FwdRdMod, ///< send line to requester, invalidate yourself
    Inval,    ///< invalidate; ack to the requester

    // Block responses (network class BlockResponse), carry the line.
    BlkShared,    ///< fill Shared
    BlkExclusive, ///< fill Exclusive (Modified when writing)
    BlkDirty,     ///< fill from a forwarding owner
    WBShared,     ///< owner -> home: dirty data on a FwdRd downgrade

    // Non-block responses (network class Ack).
    FwdAckClean,    ///< owner -> home: clean FwdRd downgrade
    FwdAckTransfer, ///< owner -> home: FwdRdMod ownership moved
    InvalAck,       ///< sharer -> requester
    VictimAck,      ///< home -> victim sender: buffer may retire
};

/** Short name of a message type ("RdReq", "BlkDirty", ...). */
const char *msgTypeName(MsgType type);

/** Number of MsgType values (per-type telemetry arrays). */
constexpr int numMsgTypes =
    static_cast<int>(MsgType::VictimAck) + 1;

/** Decoded message (payload view of a packet). */
struct Msg
{
    MsgType type = MsgType::RdReq;
    mem::Addr line = 0;
    NodeId requester = invalidNode; ///< original requester of the txn
    std::uint32_t aux = 0; ///< invalidation count / retains flag
};

/** Network class carrying @p t. */
constexpr net::MsgClass
classOf(MsgType t)
{
    switch (t) {
      case MsgType::RdReq:
      case MsgType::RdModReq:
      case MsgType::VictimWB:
      case MsgType::VictimClean:
        return net::MsgClass::Request;
      case MsgType::FwdRd:
      case MsgType::FwdRdMod:
      case MsgType::Inval:
        return net::MsgClass::Forward;
      case MsgType::BlkShared:
      case MsgType::BlkExclusive:
      case MsgType::BlkDirty:
      case MsgType::WBShared:
        return net::MsgClass::BlockResponse;
      case MsgType::FwdAckClean:
      case MsgType::FwdAckTransfer:
      case MsgType::InvalAck:
      case MsgType::VictimAck:
        return net::MsgClass::Ack;
    }
    return net::MsgClass::Request;
}

/** True when @p t carries a 64 B line (long packet). */
constexpr bool
carriesData(MsgType t)
{
    switch (t) {
      case MsgType::VictimWB:
      case MsgType::BlkShared:
      case MsgType::BlkExclusive:
      case MsgType::BlkDirty:
      case MsgType::WBShared:
        return true;
      default:
        return false;
    }
}

/** Build a packet for @p m from @p src to @p dst. */
inline net::Packet
encode(const Msg &m, NodeId src, NodeId dst)
{
    net::Packet pkt;
    pkt.cls = classOf(m.type);
    pkt.src = src;
    pkt.dst = dst;
    pkt.flits = carriesData(m.type) ? net::dataFlits : net::headerFlits;
    pkt.user[0] = m.line;
    pkt.user[1] = static_cast<std::uint64_t>(m.type) |
                  (static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(m.requester))
                   << 8) |
                  (static_cast<std::uint64_t>(m.aux) << 40);
    pkt.user[2] = static_cast<std::uint64_t>(src);
    return pkt;
}

/** Recover the message from a delivered packet. */
inline Msg
decode(const net::Packet &pkt)
{
    Msg m;
    m.line = pkt.user[0];
    m.type = static_cast<MsgType>(pkt.user[1] & 0xff);
    m.requester =
        static_cast<NodeId>((pkt.user[1] >> 8) & 0xffffffffULL);
    m.aux = static_cast<std::uint32_t>(pkt.user[1] >> 40);
    return m;
}

/** Sender node recorded at encode time. */
inline NodeId
senderOf(const net::Packet &pkt)
{
    return static_cast<NodeId>(pkt.user[2]);
}

} // namespace gs::coher

#endif // GS_COHERENCE_MESSAGES_HH
