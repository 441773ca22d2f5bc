#include "cpu/core.hh"

#include <cstring>

#include "sim/logging.hh"

namespace gs::cpu
{

namespace
{

/** Encode a core event (the full MemOp rides in the operands). */
ckpt::EventDesc
opDesc(ckpt::EvKind kind, NodeId owner, const MemOp &op)
{
    ckpt::EventDesc d;
    d.kind = kind;
    d.owner = static_cast<std::uint16_t>(owner);
    d.a = (op.write ? 1 : 0) | (op.dependent ? 2 : 0);
    d.u = op.addr;
    std::memcpy(&d.v, &op.thinkNs, sizeof(d.v));
    return d;
}

MemOp
opOf(const ckpt::EventDesc &d)
{
    MemOp op;
    op.addr = d.u;
    op.write = (d.a & 1) != 0;
    op.dependent = (d.a & 2) != 0;
    std::memcpy(&op.thinkNs, &d.v, sizeof(op.thinkNs));
    return op;
}

} // namespace

TimingCore::TimingCore(SimContext &context, coher::CoherentNode &n,
                       CoreParams params)
    : ctx(context), node(n), prm(params)
{
    if (prm.useL1) {
        l1 = std::make_unique<mem::Cache>(prm.l1);
        node.setBackInvalidate(
            [this](mem::Addr line) { l1->invalidate(line); });
    }
}

void
TimingCore::run(TrafficSource &source, std::function<void()> on_done)
{
    gs_assert(finished, "core is already running a stream");
    src = &source;
    onDone = std::move(on_done);
    staged.reset();
    thinking = false;
    blocked = false;
    exhausted = false;
    finished = false;
    inFlight = 0;
    st = CoreStats{};
    st.startTick = ctx.now();
    pump();
}

void
TimingCore::pump()
{
    if (finished)
        return;
    while (!thinking && !blocked && inFlight < prm.mlp) {
        if (!staged) {
            auto op = src->next();
            if (!op) {
                exhausted = true;
                maybeFinish();
                return;
            }
            staged = *op;
            if (staged->thinkNs > 0) {
                // Compute serializes in front of the issue stage.
                thinking = true;
                const auto d = opDesc(ckpt::CoreThink, node.id(), *staged);
                ctx.queue().schedule(nsToTicks(staged->thinkNs), d,
                                     callback(d));
                return;
            }
        }
        MemOp op = *staged;
        staged.reset();
        issue(op);
    }
}

void
TimingCore::thinkDone()
{
    thinking = false;
    MemOp op = *staged;
    staged.reset();
    issue(op);
    pump();
}

void
TimingCore::issue(const MemOp &op)
{
    st.opsIssued += 1;
    inFlight += 1;
    if (op.dependent)
        blocked = true;

    // Read hits in the L1 complete without touching the L2. Writes
    // always visit the coherent L2 so upgrades are never skipped.
    if (l1 && !op.write && l1->lookup(op.addr, false).hit) {
        st.l1Hits += 1;
        const auto d = opDesc(ckpt::CoreL1Hit, node.id(), op);
        ctx.queue().schedule(nsToTicks(prm.l1.loadToUseNs), d,
                             callback(d));
        return;
    }

    const auto d = opDesc(ckpt::CoreMemDone, node.id(), op);
    node.memAccess(op.addr, op.write, ckpt::Cont(d, callback(d)));
}

void
TimingCore::memDone(const MemOp &op)
{
    if (l1 && !l1->contains(op.addr)) {
        mem::Victim victim = l1->fill(op.addr, mem::LineState::Shared);
        (void)victim; // L1 is write-through here; drop silently
    }
    complete(op);
}

void
TimingCore::complete(const MemOp &op)
{
    st.opsDone += 1;
    inFlight -= 1;
    if (op.dependent)
        blocked = false;
    maybeFinish();
    pump();
}

void
TimingCore::maybeFinish()
{
    if (finished || !exhausted || inFlight != 0 || staged || thinking)
        return;
    finished = true;
    st.endTick = ctx.now();
    if (onDone) {
        auto done = std::move(onDone);
        onDone = nullptr;
        done();
    }
}

void
TimingCore::resume(TrafficSource &source, std::function<void()> on_done)
{
    src = &source;
    onDone = finished ? nullptr : std::move(on_done);
}

void
TimingCore::saveCkpt(ckpt::Serializer &s) const
{
    s.put64(st.opsIssued);
    s.put64(st.opsDone);
    s.put64(st.l1Hits);
    s.put64(st.startTick);
    s.put64(st.endTick);
    s.putBool(staged.has_value());
    if (staged) {
        s.put64(staged->addr);
        s.putBool(staged->write);
        s.putF64(staged->thinkNs);
        s.putBool(staged->dependent);
    }
    s.putBool(thinking);
    s.putBool(blocked);
    s.putBool(exhausted);
    s.putBool(finished);
    s.putI32(inFlight);
    s.putBool(l1 != nullptr);
    if (l1)
        l1->saveCkpt(s);
}

void
TimingCore::restoreCkpt(ckpt::Deserializer &d)
{
    st.opsIssued = d.get64();
    st.opsDone = d.get64();
    st.l1Hits = d.get64();
    st.startTick = d.get64();
    st.endTick = d.get64();
    if (d.getBool()) {
        MemOp op;
        op.addr = d.get64();
        op.write = d.getBool();
        op.thinkNs = d.getF64();
        op.dependent = d.getBool();
        staged = op;
    } else {
        staged.reset();
    }
    thinking = d.getBool();
    blocked = d.getBool();
    exhausted = d.getBool();
    finished = d.getBool();
    inFlight = d.getI32();
    if (d.getBool() != (l1 != nullptr) && d.ok()) {
        d.fail("snapshot core L1 presence differs from this machine");
        return;
    }
    if (l1)
        l1->restoreCkpt(d);
}

void
TimingCore::fire(const ckpt::EventDesc &d)
{
    switch (d.kind) {
      case ckpt::CoreThink:
        thinkDone();
        return;
      case ckpt::CoreL1Hit:
        complete(opOf(d));
        return;
      case ckpt::CoreMemDone:
        memDone(opOf(d));
        return;
      default:
        gs_panic("core ", node.id(), " fired a ",
                 ckpt::kindName(d.kind), " event");
    }
}

} // namespace gs::cpu
