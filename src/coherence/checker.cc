#include "coherence/checker.hh"

#include <sstream>

namespace gs::coher
{

namespace
{

std::string
describe(mem::Addr line, const std::string &what)
{
    std::ostringstream os;
    os << "line 0x" << std::hex << line << ": " << what;
    return os.str();
}

} // namespace

CheckResult
verifyCoherence(const std::vector<CoherentNode *> &nodes)
{
    CheckResult result;
    auto fail = [&](const std::string &msg) {
        if (result.ok) {
            result.ok = false;
            result.firstViolation = msg;
        }
    };

    for (const CoherentNode *node : nodes) {
        if (node->quiesced() != node->quiescedByScan()) {
            fail("node " + std::to_string(node->id()) +
                 " quiescence counters disagree with its tables");
            return result;
        }
        if (!node->quiesced()) {
            fail("node " + std::to_string(node->id()) +
                 " is not quiesced");
            return result;
        }
    }

    for (const CoherentNode *home : nodes) {
        for (mem::Addr line : home->dirLines()) {
            DirState state = home->dirState(line);
            NodeId owner = home->dirOwner(line);
            std::uint64_t sharers = home->dirSharers(line);

            int ownersFound = 0;
            for (CoherentNode *peer : nodes) {
                // Memory-only nodes (GS320 switches) have no cache.
                mem::LineState ls = peer->hasCache()
                                        ? peer->l2().state(line)
                                        : mem::LineState::Invalid;

                bool owned = ls == mem::LineState::Exclusive ||
                             ls == mem::LineState::Modified;
                if (owned)
                    ownersFound += 1;

                switch (state) {
                  case DirState::Exclusive:
                    if (peer->id() == owner) {
                        if (!owned)
                            fail(describe(line,
                                          "directory owner does not "
                                          "own its copy"));
                    } else if (ls != mem::LineState::Invalid) {
                        fail(describe(line,
                                      "non-owner holds a copy of an "
                                      "Exclusive line"));
                    }
                    break;
                  case DirState::Shared:
                    if (owned)
                        fail(describe(line,
                                      "owned copy of a Shared line"));
                    if (ls == mem::LineState::Shared &&
                        !(sharers & home->sharerBitOf(peer->id())))
                        fail(describe(line,
                                      "sharer missing from the "
                                      "directory vector"));
                    break;
                  case DirState::Invalid:
                    if (owned)
                        fail(describe(line,
                                      "owned copy of an Invalid "
                                      "line"));
                    break;
                  case DirState::Busy:
                    fail(describe(line, "directory busy at "
                                        "quiescence"));
                    break;
                }
            }
            if (ownersFound > 1)
                fail(describe(line, "multiple owners system-wide"));
        }
    }
    return result;
}

} // namespace gs::coher
