#include "system/xmesh.hh"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "sim/logging.hh"
#include "topology/torus.hh"

namespace gs::sys
{

Xmesh::Xmesh(Machine &machine, Tick interval_ticks)
    : m(machine),
      sampler(machine.ctx(), machine.telemetry(), interval_ticks)
{
    const auto &topo = m.topology();
    if (!m.perNodeTelemetry())
        gs_fatal("Xmesh reads the per-node telemetry counters, which a "
                 "machine above 64 nodes does not register (this one "
                 "has ", topo.numNodes(), " nodes)");
    // Samples fire on domain 0's queue; under the parallel engine the
    // other domains' counters move beneath them mid-epoch.
    if (m.isParallel())
        gs_fatal("Xmesh requires the serial engine (threads = 1)");

    const telem::Registry &reg = m.telemetry();
    auto watch = [this](const std::string &p) {
        sampler.watch(p);
        return sampler.series().size() - 1;
    };
    nodes.resize(static_cast<std::size_t>(topo.numNodes()));
    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        auto &ns = nodes[std::size_t(n)];
        const std::string base = telem::path("node", n);
        if (m.hasNode(n)) {
            auto &node = m.node(n);
            for (int z = 0; z < node.zboxCount(); ++z) {
                ns.zboxes.push_back(
                    watch(telem::path(base, "mem", z, "busy_ticks")));
                ns.channels += node.zbox(z).params().channels;
            }
        }
        // Only ports connected at build time are registered.
        for (int p = 0; p < topo.numPorts(n); ++p) {
            const std::string flits = telem::path(
                base, "router", "port", m.portName(p), "flits");
            if (!reg.has(flits))
                continue;
            ns.ports.push_back(p);
            ns.flits.push_back(watch(flits));
        }
    }
}

void
Xmesh::start()
{
    if (active)
        return;
    active = true;
    // Record the counters now: this sample opens the first window.
    sampler.sampleNow();
    base = sampler.times().size() - 1;
    seen = sampler.times().size();
    sampler.start();
}

void
Xmesh::stop()
{
    if (!active)
        return;
    active = false;
    sync();
    // The sampler's tail flush covers a partial window: not a row.
    sampler.stop();
    seen = sampler.times().size();
}

const std::vector<XmeshSample> &
Xmesh::samples() const
{
    sync();
    return log;
}

XmeshSample
Xmesh::sampleNow()
{
    sync();
    // Recorded unless a sample already stands at this instant, in
    // which case that one is the window's end.
    sampler.sampleNow();
    const std::size_t last = sampler.times().size() - 1;
    XmeshSample s = row(base, last);
    base = last;
    seen = last + 1;
    return s;
}

void
Xmesh::sync() const
{
    // Samples recorded while running and not yet accounted for are
    // the sampler's periodic ticks, each closing one window.
    for (const std::size_t n = sampler.times().size(); seen < n;
         ++seen) {
        log.push_back(row(base, seen));
        base = seen;
    }
}

std::uint64_t
Xmesh::count(std::size_t series, std::size_t i) const
{
    // Counters are integers below 2^53, so the double is exact.
    return i == none ? 0
                     : static_cast<std::uint64_t>(
                           sampler.series()[series].values[i]);
}

XmeshSample
Xmesh::row(std::size_t from, std::size_t to) const
{
    const auto &topo = m.topology();
    const Tick start = from == none ? 0 : sampler.times()[from];
    const Tick now = sampler.times()[to];
    const Tick window = now > start ? now - start : 1;
    const Tick period = m.network().period();

    XmeshSample s;
    s.when = now;
    s.memUtil.assign(static_cast<std::size_t>(topo.numNodes()), 0.0);

    double memSum = 0;
    int memNodes = 0;
    double linkSum = 0;
    int linkCount = 0;
    double ewSum = 0, nsSum = 0;
    int ewCount = 0, nsCount = 0;

    for (NodeId n = 0; n < topo.numNodes(); ++n) {
        const auto &ns = nodes[std::size_t(n)];

        // Memory controllers.
        if (ns.channels > 0) {
            Tick delta = 0;
            for (std::size_t z : ns.zboxes)
                delta += count(z, to) - count(z, from);
            double util = static_cast<double>(delta) /
                          (static_cast<double>(window) * ns.channels);
            s.memUtil[std::size_t(n)] = std::min(util, 1.0);
            memSum += s.memUtil[std::size_t(n)];
            memNodes += 1;
        }

        // Links.
        for (std::size_t i = 0; i < ns.ports.size(); ++i) {
            const int p = ns.ports[i];
            if (!topo.port(n, p).connected())
                continue;
            std::uint64_t delta =
                count(ns.flits[i], to) - count(ns.flits[i], from);
            double util = static_cast<double>(delta) *
                          static_cast<double>(period) /
                          static_cast<double>(window);
            util = std::min(util, 1.0);
            linkSum += util;
            linkCount += 1;
            if (p == topo::portEast || p == topo::portWest) {
                ewSum += util;
                ewCount += 1;
            } else if (p == topo::portNorth || p == topo::portSouth) {
                nsSum += util;
                nsCount += 1;
            }
        }
    }

    s.avgMemUtil = memNodes ? memSum / memNodes : 0.0;
    s.avgLinkUtil = linkCount ? linkSum / linkCount : 0.0;
    s.avgEastWest = ewCount ? ewSum / ewCount : 0.0;
    s.avgNorthSouth = nsCount ? nsSum / nsCount : 0.0;
    return s;
}

void
Xmesh::dumpCsv(std::ostream &os) const
{
    os << "timestamp_us,avg_mem,avg_link,avg_ew,avg_ns";
    const int nodeCount = m.topology().numNodes();
    for (int n = 0; n < nodeCount; ++n)
        os << ",mem" << n;
    os << '\n';
    for (const auto &s : samples()) {
        os << ticksToNs(s.when) / 1000.0 << ',' << s.avgMemUtil << ','
           << s.avgLinkUtil << ',' << s.avgEastWest << ','
           << s.avgNorthSouth;
        for (double u : s.memUtil)
            os << ',' << u;
        os << '\n';
    }
}

std::string
Xmesh::heatmap(const XmeshSample &s) const
{
    const auto *torus =
        dynamic_cast<const topo::Torus2D *>(&m.topology());
    gs_assert(torus, "heatmap requires a torus machine");

    std::string out;
    out += "Xmesh: memory controller utilization (%)\n";
    char buf[64];
    for (int y = 0; y < torus->height(); ++y) {
        for (int x = 0; x < torus->width(); ++x) {
            NodeId n = torus->nodeAt(x, y);
            double util = s.memUtil[std::size_t(n)] * 100.0;
            const char *mark = util >= 40.0 ? "*" : " ";
            std::snprintf(buf, sizeof buf, " [%5.1f%s]", util, mark);
            out += buf;
        }
        out += '\n';
    }
    out += "('*' marks nodes above 40% - hot-spot candidates)\n";
    return out;
}

} // namespace gs::sys
