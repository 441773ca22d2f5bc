/**
 * @file
 * Test helper: a recorder on CoherentNode::setMsgObserver that keeps
 * every coherence message a node sends or receives and reconstructs
 * per-line transaction flows, so protocol tests can assert whole
 * message sequences (e.g. a read-dirty is
 * RdReq -> FwdRd -> BlkDirty + WBShared -> ...).
 */

#ifndef GS_TESTS_COHERENCE_PROTOCOL_TRACER_HH
#define GS_TESTS_COHERENCE_PROTOCOL_TRACER_HH

#include <sstream>
#include <string>
#include <vector>

#include "coherence/node.hh"

namespace gs::coher
{

/** One traced protocol message. */
struct ProtocolEvent
{
    Tick when = 0;
    NodeId at = invalidNode; ///< node observing the event
    bool incoming = false;   ///< received (vs sent)
    MsgType type = MsgType::RdReq;
    mem::Addr line = 0;
    NodeId requester = invalidNode;
    NodeId peer = invalidNode; ///< sender (incoming) / dest (outgoing)
};

/**
 * Collects events from any number of nodes. Attach with observe();
 * interrogate by line.
 */
class ProtocolTracer
{
  public:
    /** Subscribe to @p node's message stream. */
    void
    observe(CoherentNode &node)
    {
        const NodeId at = node.id();
        node.setMsgObserver([this, at](const net::Packet &pkt,
                                       bool incoming) {
            Msg m = decode(pkt);
            ProtocolEvent ev;
            ev.when = pkt.injected; // filled for incoming; 0 when sent
            ev.at = at;
            ev.incoming = incoming;
            ev.type = m.type;
            ev.line = m.line;
            ev.requester = m.requester;
            ev.peer = incoming ? senderOf(pkt) : pkt.dst;
            log.push_back(ev);
        });
    }

    const std::vector<ProtocolEvent> &events() const { return log; }

    /** Events touching @p line, in time order. */
    std::vector<ProtocolEvent>
    forLine(mem::Addr line) const
    {
        std::vector<ProtocolEvent> out;
        for (const auto &ev : log)
            if (ev.line == mem::lineOf(line))
                out.push_back(ev);
        return out;
    }

    /**
     * The message-type sequence for @p line, counting each message
     * once (at its receiver) — the transaction flow a protocol
     * diagram would show.
     */
    std::vector<MsgType>
    flowOf(mem::Addr line) const
    {
        std::vector<MsgType> out;
        for (const auto &ev : forLine(line))
            if (ev.incoming)
                out.push_back(ev.type);
        return out;
    }

    /** Human-readable rendering of a line's flow. */
    std::string
    describe(mem::Addr line) const
    {
        std::ostringstream os;
        for (const auto &ev : forLine(line)) {
            if (!ev.incoming)
                continue;
            os << msgTypeName(ev.type) << "@" << ev.at << " (from "
               << ev.peer << ")\n";
        }
        return os.str();
    }

    void clear() { log.clear(); }
    std::size_t size() const { return log.size(); }

  private:
    std::vector<ProtocolEvent> log;
};

} // namespace gs::coher

#endif // GS_TESTS_COHERENCE_PROTOCOL_TRACER_HH
