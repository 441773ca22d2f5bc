/**
 * @file
 * Machine checkpoint/restore orchestration (docs/CHECKPOINT.md).
 *
 * A snapshot walks the machine in a fixed section order:
 *
 *   META  build fingerprint (system, CPUs, seed, options, engine
 *         domain layout) — checked field-by-field at restore
 *   RNGS  every SimContext RNG (master + parallel domains)
 *   EVTQ  every event queue: clock/counters + each pending
 *         (when, seq, desc) triple, sorted by (when, seq)
 *   NETW  network shards, routers, packet pools, mailboxes
 *   COHR  per-node coherence state (caches, MAF, directory, Zboxes)
 *   CPUS  per-core issue-stage state + L1
 *   WLOD  traffic-source stream positions
 *   FALT  degraded-topology masks, injector stats, watchdog
 *   XTRA  registered ckpt::Client blobs (telemetry sampler, ...)
 *   CKPT  checkpoint accounting (saves/bytes/rollbacks), written
 *         last and two-phase so the serialized counters already
 *         include this save — a restored run's exports then match
 *         the uninterrupted run's byte-for-byte
 *
 * Event callbacks are never serialized: each pending event carries a
 * 32-byte EventDesc. Restore reads EVTQ first but re-enters its
 * events last, once every component's state is back: each desc's
 * operands are checked against that state, and Machine::rehydrate
 * routes the desc to its owner's callback, the one the live
 * scheduling site built.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "system/machine.hh"

namespace gs::sys
{

namespace
{

void
putRng(ckpt::Serializer &s, const Rng &rng)
{
    std::uint64_t w[4];
    rng.stateWords(w);
    for (std::uint64_t v : w)
        s.put64(v);
}

void
getRng(ckpt::Deserializer &d, Rng &rng)
{
    std::uint64_t w[4];
    for (std::uint64_t &v : w)
        v = d.get64();
    if (d.ok())
        rng.setStateWords(w);
}

/** One snapshotted pending event. */
struct PendingEv
{
    Tick when;
    std::uint64_t seq;
    ckpt::EventDesc desc;
};

} // namespace

std::vector<EventQueue *>
Machine::ckptQueues()
{
    std::vector<EventQueue *> qs;
    if (par_) {
        for (int dom = 0; dom < par_->domains(); ++dom)
            qs.push_back(&par_->domainCtx(dom).queue());
    } else {
        qs.push_back(&context->queue());
    }
    return qs;
}

int
Machine::registerCkptClient(ckpt::Client &client)
{
    int id = static_cast<int>(clients_.size());
    client.setCkptClientId(id);
    clients_.push_back(&client);
    return id;
}

void
Machine::setCheckpointPolicy(Tick everyTicks, std::string pathPrefix)
{
    ckptEvery_ = everyTicks;
    ckptPrefix_ = std::move(pathPrefix);
    if (ckptEvery_ > 0)
        nextCkptAt_ = (ctx().now() / ckptEvery_ + 1) * ckptEvery_;
}

void
Machine::setRollbackPolicy(RollbackPolicy policy)
{
    gs_assert(!par_, "watchdog rollback requires the serial engine");
    rollback_ = std::move(policy);
    retriesUsed_ = 0;
}

InlineFn
Machine::rehydrate(const ckpt::EventDesc &d)
{
    switch (d.kind) {
      case ckpt::NetInjStart:
      case ckpt::NetDeliverLocal:
      case ckpt::NetReceive:
      case ckpt::NetCredit:
      case ckpt::NetTick:
        return net->callback(d);
      case ckpt::CohSendMsg:
      case ckpt::CohFillBatch:
      case ckpt::CohHomeReadExcl:
      case ckpt::CohHomeApplyExcl:
      case ckpt::CohHomeReadShared:
      case ckpt::CohHomeApplyShared:
      case ckpt::CohHomeApplyVictim:
      case ckpt::CohHomeApplyDowngrade:
      case ckpt::CohHomeApplyTransfer:
        if (d.owner >= nodes.size() || !nodes[d.owner])
            return {};
        return nodes[d.owner]->callback(d);
      case ckpt::CoreThink:
      case ckpt::CoreL1Hit:
      case ckpt::CoreMemDone:
        if (d.owner >= cores.size())
            return {};
        return cores[d.owner]->callback(d);
      case ckpt::FaultApply:
        return injector_->callback(d);
      case ckpt::WatchdogPoll:
        return watchdog_ ? watchdog_->callback(d) : InlineFn{};
      case ckpt::ClientEvent:
        if (d.owner >= clients_.size())
            return {};
        return clients_[d.owner]->callback(d);
      default:
        return {};
    }
}

const char *
Machine::badEvent(const ckpt::EventDesc &d) const
{
    if (d.kind >= ckpt::NetInjStart && d.kind <= ckpt::NetTick)
        return net->badEvent(d);
    if (d.kind == ckpt::CohSendMsg && d.owner < nodes.size() &&
        nodes[d.owner])
        return nodes[d.owner]->badEvent(d);
    return nullptr;
}

bool
Machine::save(const std::string &path, std::string *err)
{
    auto fail = [err](std::string m) {
        if (err)
            *err = std::move(m);
        return false;
    };

    ckpt::Serializer s;

    // META ------------------------------------------------------------
    s.beginSection(ckpt::secMeta);
    s.put8(static_cast<std::uint8_t>(kind_));
    s.putI32(nCpus);
    s.putI32(torusW);
    s.putI32(torusH);
    s.put64(seed_);
    s.putI32(mlp_);
    s.putBool(striped_);
    s.putBool(shuffle_);
    s.putI32(shufflePolicy_);
    s.putI32(par_ ? par_->domains() : 1);
    s.putI32(topo_->numNodes());
    s.putI32(tileR_);
    s.putI32(tileC_);
    s.putI32(topoKind_);
    s.putI32(torusD);
    s.putI32(tileS_);
    s.endSection();

    // RNGS ------------------------------------------------------------
    s.beginSection(ckpt::secRng);
    putRng(s, context->rng());
    if (par_) {
        for (int dom = 0; dom < par_->domains(); ++dom)
            putRng(s, par_->domainCtx(dom).rng());
    }
    s.endSection();

    // EVTQ ------------------------------------------------------------
    if (par_ && !context->queue().empty()) {
        return fail("cannot checkpoint: events pending on the master "
                    "context under the parallel engine");
    }
    s.beginSection(ckpt::secEvtq);
    auto qs = ckptQueues();
    s.putI32(static_cast<std::int32_t>(qs.size()));
    for (EventQueue *q : qs) {
        auto st = q->ckptState();
        s.put64(static_cast<std::uint64_t>(st.now));
        s.put64(st.nextSeq);
        s.put64(st.nextMergedSeq);
        s.put64(st.fired);
        s.put64(st.peak);
        s.put64(st.migrated);

        std::vector<PendingEv> evs;
        q->visitPending([&evs](Tick when, std::uint64_t seq,
                               const ckpt::EventDesc &desc) {
            evs.push_back({when, seq, desc});
        });
        std::sort(evs.begin(), evs.end(),
                  [](const PendingEv &a, const PendingEv &b) {
            return a.when != b.when ? a.when < b.when : a.seq < b.seq;
        });
        for (const PendingEv &e : evs) {
            if (e.desc.kind == ckpt::Opaque) {
                return fail(
                    "cannot checkpoint: a pending event at tick " +
                    std::to_string(e.when) +
                    " has an opaque callback (its scheduling call "
                    "site does not pass an EventDesc)");
            }
        }
        s.put32(static_cast<std::uint32_t>(evs.size()));
        for (const PendingEv &e : evs) {
            s.put64(static_cast<std::uint64_t>(e.when));
            s.put64(e.seq);
            s.putDesc(e.desc);
        }
    }
    if (par_)
        s.put64(par_->epochs());
    s.endSection();

    // NETW ------------------------------------------------------------
    s.beginSection(ckpt::secNet);
    net->saveCkpt(s);
    s.endSection();

    // COHR ------------------------------------------------------------
    s.beginSection(ckpt::secCoh);
    s.putI32(static_cast<std::int32_t>(nodes.size()));
    for (const auto &node : nodes) {
        s.putBool(node != nullptr);
        if (node)
            node->saveCkpt(s);
    }
    s.endSection();

    // CPUS ------------------------------------------------------------
    s.beginSection(ckpt::secCpu);
    s.putI32(static_cast<std::int32_t>(cores.size()));
    for (const auto &core : cores)
        core->saveCkpt(s);
    s.endSection();

    // WLOD ------------------------------------------------------------
    s.beginSection(ckpt::secWld);
    s.putI32(static_cast<std::int32_t>(sources_.size()));
    for (const cpu::TrafficSource *src : sources_) {
        s.putBool(src != nullptr);
        if (src)
            src->saveCkpt(s);
    }
    s.endSection();

    // FALT ------------------------------------------------------------
    s.beginSection(ckpt::secFlt);
    fabric_->saveCkpt(s);
    injector_->saveCkpt(s);
    s.putBool(watchdog_ != nullptr);
    if (watchdog_)
        watchdog_->saveCkpt(s);
    s.endSection();

    // XTRA ------------------------------------------------------------
    s.beginSection(ckpt::secXtra);
    s.putI32(static_cast<std::int32_t>(clients_.size()));
    for (const ckpt::Client *client : clients_)
        client->saveCkpt(s);
    s.endSection();

    // CKPT ------------------------------------------------------------
    // Two-phase: every other section is serialized, so the final
    // file size is known up front; bump the live counters first and
    // write their post-save values. A restored run then carries the
    // same ckpt.* state as the run that kept going.
    constexpr std::uint64_t ckptSectionBytes = 16 + 4 * 8;
    const std::uint64_t total = 16 + s.size() + ckptSectionBytes;
    ckptSaves_ += 1;
    ckptBytes_ += total;
    s.beginSection(ckpt::secCkpt);
    s.put64(ckptSaves_);
    s.put64(ckptBytes_);
    s.put64(ckptRollbacks_);
    s.put64(static_cast<std::uint64_t>(nextCkptAt_));
    s.endSection();

    std::string werr;
    if (!ckpt::writeSnapshot(path, s, &werr)) {
        ckptSaves_ -= 1;
        ckptBytes_ -= total;
        return fail(std::move(werr));
    }
    return true;
}

bool
Machine::restore(const std::string &path,
                 const std::vector<cpu::TrafficSource *> &sources,
                 std::string *err)
{
    auto fail = [err](std::string m) {
        if (err)
            *err = std::move(m);
        return false;
    };
    gs_assert(static_cast<int>(sources.size()) <= nCpus,
              "more sources than CPUs");

    std::vector<std::uint8_t> buf;
    std::size_t bodyOff = 0;
    {
        std::string rerr;
        if (!ckpt::readSnapshot(path, &buf, &bodyOff, &rerr))
            return fail(std::move(rerr));
    }
    ckpt::Deserializer d(buf.data() + bodyOff, buf.size() - bodyOff);

    // META ------------------------------------------------------------
    if (!d.enterSection(ckpt::secMeta, "META"))
        return fail(d.error());
    auto check = [&d](std::int64_t got, std::int64_t want,
                      const char *what) {
        if (d.ok() && got != want) {
            d.fail("snapshot machine mismatch: " + std::string(what) +
                   " is " + std::to_string(got) +
                   ", this machine was built with " +
                   std::to_string(want));
        }
    };
    check(d.get8(), static_cast<int>(kind_), "the system kind");
    check(d.getI32(), nCpus, "the CPU count");
    check(d.getI32(), torusW, "the torus width");
    check(d.getI32(), torusH, "the torus height");
    check(static_cast<std::int64_t>(d.get64()),
          static_cast<std::int64_t>(seed_), "the seed");
    check(d.getI32(), mlp_, "the core MLP");
    check(d.getBool() ? 1 : 0, striped_ ? 1 : 0, "memory striping");
    check(d.getBool() ? 1 : 0, shuffle_ ? 1 : 0, "the shuffle option");
    check(d.getI32(), shufflePolicy_, "the shuffle policy");
    if (d.ok()) {
        std::int32_t doms = d.getI32();
        int have = par_ ? par_->domains() : 1;
        if (d.ok() && doms != have) {
            d.fail("snapshot engine layout mismatch: saved with " +
                   std::to_string(doms) +
                   " event domain(s), this machine has " +
                   std::to_string(have) +
                   " (serial snapshots restore at --threads 1, "
                   "parallel ones at any --threads > 1 of the same "
                   "machine and tile shape)");
        }
    }
    check(d.getI32(), topo_->numNodes(), "the node count");
    check(d.getI32(), tileR_, "the tile rows");
    check(d.getI32(), tileC_, "the tile cols");
    check(d.getI32(), topoKind_, "the topology kind");
    check(d.getI32(), torusD, "the torus depth");
    check(d.getI32(), tileS_, "the tile slabs");
    if (!d.ok())
        return fail(d.error());
    d.leaveSection("META");

    // RNGS ------------------------------------------------------------
    if (!d.enterSection(ckpt::secRng, "RNGS"))
        return fail(d.error());
    getRng(d, context->rng());
    if (par_) {
        for (int dom = 0; dom < par_->domains(); ++dom)
            getRng(d, par_->domainCtx(dom).rng());
    }
    if (!d.ok())
        return fail(d.error());
    d.leaveSection("RNGS");

    // EVTQ ------------------------------------------------------------
    // The pending events are re-entered after the last section: their
    // callbacks bind to restored component state (liveness tokens)
    // and their operands are checked against it (live packets).
    if (!d.enterSection(ckpt::secEvtq, "EVTQ"))
        return fail(d.error());
    auto qs = ckptQueues();
    if (d.getI32() != static_cast<std::int32_t>(qs.size()) && d.ok())
        d.fail("snapshot event-queue count differs from this "
               "machine's engine layout");
    std::vector<std::vector<PendingEv>> pending(qs.size());
    for (std::size_t qi = 0; qi < qs.size(); ++qi) {
        EventQueue *q = qs[qi];
        if (!d.ok())
            break;
        EventQueue::CkptState st;
        st.now = static_cast<Tick>(d.get64());
        st.nextSeq = d.get64();
        st.nextMergedSeq = d.get64();
        st.fired = d.get64();
        st.peak = d.get64();
        st.migrated = d.get64();
        if (!d.ok())
            break;
        q->restoreBegin(st);
        std::uint32_t n = d.get32();
        for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
            Tick when = static_cast<Tick>(d.get64());
            std::uint64_t seq = d.get64();
            ckpt::EventDesc desc = d.getDesc();
            if (!d.ok())
                break;
            if (when < st.now) {
                d.fail("snapshot corrupt: a pending event predates "
                       "the snapshot clock");
                break;
            }
            pending[qi].push_back({when, seq, desc});
        }
    }
    if (par_ && d.ok())
        par_->restoreEpochs(d.get64());
    if (!d.ok())
        return fail(d.error());
    d.leaveSection("EVTQ");

    // NETW ------------------------------------------------------------
    if (!d.enterSection(ckpt::secNet, "NETW"))
        return fail(d.error());
    net->restoreCkpt(d);
    if (!d.ok())
        return fail(d.error());
    d.leaveSection("NETW");

    // COHR ------------------------------------------------------------
    if (!d.enterSection(ckpt::secCoh, "COHR"))
        return fail(d.error());
    if (d.getI32() != static_cast<std::int32_t>(nodes.size()) &&
        d.ok())
        d.fail("snapshot node count differs from this machine");
    ckpt::RehydrateFn rehydrateFn = [this](const ckpt::EventDesc &ed) {
        return rehydrate(ed);
    };
    for (auto &node : nodes) {
        if (!d.ok())
            break;
        if (d.getBool() != (node != nullptr) && d.ok()) {
            d.fail("snapshot node presence differs from this machine");
            break;
        }
        if (node)
            node->restoreCkpt(d, rehydrateFn);
    }
    if (!d.ok())
        return fail(d.error());
    d.leaveSection("COHR");

    // CPUS ------------------------------------------------------------
    if (!d.enterSection(ckpt::secCpu, "CPUS"))
        return fail(d.error());
    if (d.getI32() != static_cast<std::int32_t>(cores.size()) &&
        d.ok())
        d.fail("snapshot core count differs from this machine");
    for (auto &core : cores) {
        if (!d.ok())
            break;
        core->restoreCkpt(d);
    }
    if (!d.ok())
        return fail(d.error());
    d.leaveSection("CPUS");

    // WLOD ------------------------------------------------------------
    if (!d.enterSection(ckpt::secWld, "WLOD"))
        return fail(d.error());
    if (d.getI32() != static_cast<std::int32_t>(sources.size()) &&
        d.ok())
        d.fail("snapshot has a different number of traffic sources "
               "(pass the saved run's workload set to restore)");
    for (cpu::TrafficSource *src : sources) {
        if (!d.ok())
            break;
        if (d.getBool() != (src != nullptr) && d.ok()) {
            d.fail("snapshot traffic-source placement differs (pass "
                   "the saved run's workload set to restore)");
            break;
        }
        if (src)
            src->restoreCkpt(d);
    }
    if (!d.ok())
        return fail(d.error());
    d.leaveSection("WLOD");

    // FALT ------------------------------------------------------------
    if (!d.enterSection(ckpt::secFlt, "FALT"))
        return fail(d.error());
    fabric_->restoreCkpt(d);
    injector_->restoreCkpt(d);
    if (d.ok()) {
        bool hadWatchdog = d.getBool();
        if (d.ok() && hadWatchdog != (watchdog_ != nullptr)) {
            d.fail(hadWatchdog
                       ? "snapshot was taken with a watchdog; call "
                         "armWatchdog() before restoring"
                       : "snapshot has no watchdog but this machine "
                         "created one");
        }
        if (d.ok() && watchdog_)
            watchdog_->restoreCkpt(d);
    }
    if (!d.ok())
        return fail(d.error());
    d.leaveSection("FALT");

    // XTRA ------------------------------------------------------------
    if (!d.enterSection(ckpt::secXtra, "XTRA"))
        return fail(d.error());
    if (d.getI32() != static_cast<std::int32_t>(clients_.size()) &&
        d.ok())
        d.fail("snapshot checkpoint-client count differs (register "
               "the same clients, in order, before restoring)");
    for (ckpt::Client *client : clients_) {
        if (!d.ok())
            break;
        client->restoreCkpt(d);
    }
    if (!d.ok())
        return fail(d.error());
    d.leaveSection("XTRA");

    // CKPT ------------------------------------------------------------
    if (!d.enterSection(ckpt::secCkpt, "CKPT"))
        return fail(d.error());
    ckptSaves_ = d.get64();
    ckptBytes_ = d.get64();
    ckptRollbacks_ = d.get64();
    nextCkptAt_ = static_cast<Tick>(d.get64());
    if (!d.ok())
        return fail(d.error());
    d.leaveSection("CKPT");
    if (!d.ok())
        return fail(d.error());

    // EVTQ events, now that their owners are restored -----------------
    for (std::size_t qi = 0; qi < qs.size(); ++qi) {
        for (const PendingEv &e : pending[qi]) {
            const char *bad = badEvent(e.desc);
            InlineFn fn = bad ? InlineFn{} : rehydrate(e.desc);
            if (!fn) {
                return fail(std::string("snapshot corrupt: pending "
                                        "event ") +
                            ckpt::kindName(e.desc.kind) + " (owner " +
                            std::to_string(e.desc.owner) + "): " +
                            (bad ? bad : "no component owns it"));
            }
            qs[qi]->insertRestored(e.when, e.seq, e.desc, std::move(fn));
        }
    }

    // Re-attach the workload: cores keep their restored execution
    // state; resume() only rebinds the source and completion hook.
    sources_ = sources;
    running_ = std::make_shared<std::atomic<int>>(0);
    auto running = running_;
    for (std::size_t c = 0; c < sources.size(); ++c) {
        if (!sources[c])
            continue;
        cores[c]->resume(*sources[c], [running] {
            running->fetch_sub(1, std::memory_order_release);
        });
        if (!cores[c]->done())
            running->fetch_add(1, std::memory_order_relaxed);
    }
    restored_ = true;
    ckptRestores_ += 1;
    return true;
}

void
Machine::checkpointNow()
{
    // Advance the edge BEFORE saving so the snapshot carries the
    // post-save schedule: a run restored from it computes the same
    // next checkpoint time the saving run kept using.
    Tick now = ctx().now();
    do {
        nextCkptAt_ += ckptEvery_;
    } while (nextCkptAt_ <= now);

    std::string path = ckptPrefix_ + "." +
                       std::to_string(ckptSaves_ + 1) + ".gsckpt";
    std::string err;
    if (!save(path, &err))
        gs_fatal("periodic checkpoint failed: ", err);
}

void
Machine::handleRollback()
{
    const std::string why = pendingTrip_;
    tripPending_ = false;
    pendingTrip_.clear();
    gs_assert(rollback_.has_value(),
              "watchdog trip queued without a rollback policy");

    const std::string diag =
        watchdog_ ? watchdog_->diagnose() : std::string();
    if (retriesUsed_ >= rollback_->maxRetries) {
        gs_warn("watchdog tripped: ", why, "\n", diag);
        gs_fatal("watchdog rollback: retry budget exhausted (",
                 retriesUsed_, "/", rollback_->maxRetries,
                 ") — giving up on: ", why);
    }
    retriesUsed_ += 1;
    gs_warn("watchdog tripped: ", why, "\n", diag,
            "\nrolling back to ", rollback_->snapshotPath, " (retry ",
            retriesUsed_, "/", rollback_->maxRetries, ")");

    if (rollback_->healFaults)
        injector_->suppressFaults();

    std::string err;
    if (!restore(rollback_->snapshotPath, sources_, &err))
        gs_fatal("watchdog rollback: restore failed: ", err);
    restored_ = false; // consumed here: the run loop continues
    ckptRollbacks_ += 1;

    // The snapshot may predate arm(); make sure polling continues.
    if (watchdog_ && !watchdog_->armed())
        watchdog_->arm();
}

} // namespace gs::sys
