/**
 * @file
 * Versioned, checksummed machine snapshots (docs/CHECKPOINT.md).
 *
 * A snapshot is a little-endian binary file: an 8-byte magic, a
 * format version, then a fixed sequence of framed sections. Every
 * section carries its own CRC32, so corruption (bit flips, truncated
 * writes, concatenation accidents) is detected at restore time with
 * a precise error instead of undefined behaviour downstream.
 *
 * Three pieces live here:
 *
 *  - Serializer / Deserializer: the visitor every stateful component
 *    implements (see EXTENDING.md). The Deserializer never throws
 *    and never reads out of bounds: the first malformed field sets a
 *    sticky error and every later getter returns zero, so component
 *    restore code can be written straight-line and the caller checks
 *    ok() once.
 *
 *  - EventDesc: a 32-byte POD naming a pending event's action. Its
 *    owner's fire(desc) runs the action, and the event's callback,
 *    live or rebuilt at restore, is `[owner, desc] { fire(desc); }`.
 *    It sits next to the callback in the event kernel's payload
 *    slab. Kind 0 (Opaque) marks a callback that cannot be rebuilt;
 *    saving fails loudly if one is pending.
 *
 *  - Cont: a continuation (callback + EventDesc) components hold in
 *    their own pending state (MAF waiters, deferred core requests).
 *    It is implicitly constructible from any callable — such a Cont
 *    is Opaque, which keeps non-checkpointed call sites compiling
 *    unchanged — and from (desc, callback) for serializable ones.
 *    It is move-only (the callback is an InlineFn).
 */

#ifndef GS_SIM_CHECKPOINT_HH
#define GS_SIM_CHECKPOINT_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_fn.hh"
#include "sim/types.hh"

namespace gs::ckpt
{

/** Snapshot file magic ("GS12CKPT"). */
constexpr char magic[8] = {'G', 'S', '1', '2', 'C', 'K', 'P', 'T'};

/** Snapshot format version; bump on any layout change. */
constexpr std::uint32_t formatVersion = 7;

/** CRC32 (IEEE 802.3, reflected) of @p len bytes at @p data. */
std::uint32_t crc32(const void *data, std::size_t len);

/** Section tags, in file order (a fourcc reads well in hexdumps). */
constexpr std::uint32_t
fourcc(char a, char b, char c, char d)
{
    return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b))
            << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(c))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(d))
            << 24);
}

constexpr std::uint32_t secMeta = fourcc('M', 'E', 'T', 'A');
constexpr std::uint32_t secRng = fourcc('R', 'N', 'G', 'S');
constexpr std::uint32_t secEvtq = fourcc('E', 'V', 'T', 'Q');
constexpr std::uint32_t secNet = fourcc('N', 'E', 'T', 'W');
constexpr std::uint32_t secCoh = fourcc('C', 'O', 'H', 'R');
constexpr std::uint32_t secCpu = fourcc('C', 'P', 'U', 'S');
constexpr std::uint32_t secWld = fourcc('W', 'L', 'O', 'D');
constexpr std::uint32_t secFlt = fourcc('F', 'A', 'L', 'T');
constexpr std::uint32_t secCkpt = fourcc('C', 'K', 'P', 'T');
constexpr std::uint32_t secXtra = fourcc('X', 'T', 'R', 'A');

/**
 * What a pending event does, in a form that survives a snapshot.
 *
 * `kind` selects the action (EvKind); `owner` is the component
 * instance (node id, cpu id, network domain, or registered-client
 * id); a/b/c/u/v are kind-specific operands. Exactly 32 bytes: it
 * shares an event-kernel slab slot with the callback
 * (EventQueue::Payload).
 */
struct EventDesc
{
    std::uint16_t kind = 0;
    std::uint16_t owner = 0;
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int32_t c = 0;
    std::uint64_t u = 0;
    std::uint64_t v = 0;
};
static_assert(sizeof(EventDesc) == 32, "event-kernel slab slot layout");
static_assert(std::is_trivially_copyable_v<EventDesc>);

/** Event-callback kinds (EventDesc::kind). */
enum EvKind : std::uint16_t
{
    Opaque = 0, ///< not serializable; save fails if one is pending

    // net/: owner = destination node unless noted
    NetInjStart,     ///< injection reaches the router; u = handle
    NetDeliverLocal, ///< cut-through delivery; u = handle
    NetReceive,      ///< a = port, b = vc, u = handle
    NetCredit,       ///< a = port, b = vc, c = flits
    NetTick,         ///< router pipeline tick; owner = domain

    // coherence/: owner = the node running the handler
    CohSendMsg,       ///< a = type, b = dst, c = requester,
                      ///< u = line, v = aux
    CohFillBatch,     ///< u = fill-batch id
    CohHomeReadExcl,  ///< a = requester, u = line (zbox done)
    CohHomeApplyExcl, ///< a = requester, u = line
    CohHomeReadShared,  ///< a = requester, b = modify, u = line
    CohHomeApplyShared, ///< a = requester, b = modify, u = line
    CohHomeApplyVictim, ///< a = requester, u = line
    CohHomeApplyDowngrade, ///< u = line, v = sharers
    CohHomeApplyTransfer,  ///< a = requester, u = line

    // cpu/: owner = cpu index; op encoding: u = addr,
    // a = flags (bit0 write, bit1 dependent), v = thinkNs bits
    CoreThink,   ///< staged-op think time elapses
    CoreL1Hit,   ///< L1 load-to-use completes
    CoreMemDone, ///< coherent access completes

    // fault/
    FaultApply,   ///< owner = 0; a = kind, b = node, c = port, u = when
    WatchdogPoll, ///< owner = 0

    // registered checkpoint clients (telemetry sampler, ...)
    ClientEvent, ///< owner = client id; operands are client-defined
};

/** The EvKind enumerator's name of @p kind ("?" when unknown). */
const char *kindName(std::uint16_t kind);

/**
 * A continuation a component holds in its own pending state.
 *
 * Implicit construction from a plain callable yields an Opaque
 * continuation (fine for components that are never checkpointed
 * mid-flight, e.g. unit-test callbacks); serializable call sites
 * pass an EventDesc alongside.
 */
class Cont
{
  public:
    Cont() = default;

    template <typename F,
              std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Cont> &&
                      std::is_invocable_r_v<void, std::decay_t<F> &>,
                  int> = 0>
    Cont(F &&f) // NOLINT: implicit by design (Opaque continuation)
        : fn(std::forward<F>(f))
    {}

    template <typename F>
    Cont(const EventDesc &d, F &&f) : fn(std::forward<F>(f)), desc(d)
    {}

    void operator()() { fn(); }
    explicit operator bool() const { return static_cast<bool>(fn); }

    /**
     * The callback. Move-only with 64 bytes of inline capture, so
     * the hot continuations (core issue, home Zbox reads, fill
     * waiters) are held and handed to the event queue without
     * touching the heap.
     */
    InlineFn fn;
    EventDesc desc;
};

/** A restored desc's callback; empty when no component owns it. */
using RehydrateFn = std::function<InlineFn(const EventDesc &)>;

class Serializer;
class Deserializer;

/**
 * Serialize a held continuation (its descriptor only; the callback
 * is rebuilt at restore). An Opaque continuation cannot be rebuilt,
 * so finding one pending aborts with a loud diagnostic naming
 * @p what — the fix is to pass an EventDesc at the call site.
 */
void saveCont(Serializer &s, const Cont &c, const char *what);

/**
 * Read a descriptor and rebuild its callback through @p rehydrate.
 * Fails the deserializer (naming @p what) when no recipe exists.
 */
Cont restoreCont(Deserializer &d, const RehydrateFn &rehydrate,
                 const char *what);

/**
 * Appends fields to a growing byte buffer, little-endian, framed
 * into CRC-checked sections. Sections do not nest.
 */
class Serializer
{
  public:
    void
    beginSection(std::uint32_t tag)
    {
        secStart = buf.size();
        put32(tag);
        put32(0); // crc, patched by endSection
        put64(0); // payload length, patched by endSection
    }

    void
    endSection()
    {
        const std::size_t payload = secStart + frameBytes;
        const std::uint64_t len = buf.size() - payload;
        const std::uint32_t crc =
            crc32(buf.data() + payload, static_cast<std::size_t>(len));
        patch32(secStart + 4, crc);
        patch64(secStart + 8, len);
    }

    void
    put8(std::uint8_t v)
    {
        buf.push_back(v);
    }

    void
    put16(std::uint16_t v)
    {
        put8(static_cast<std::uint8_t>(v));
        put8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    put32(std::uint32_t v)
    {
        put16(static_cast<std::uint16_t>(v));
        put16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    put64(std::uint64_t v)
    {
        put32(static_cast<std::uint32_t>(v));
        put32(static_cast<std::uint32_t>(v >> 32));
    }

    void putI32(std::int32_t v) { put32(static_cast<std::uint32_t>(v)); }
    void putI64(std::int64_t v) { put64(static_cast<std::uint64_t>(v)); }
    void putBool(bool v) { put8(v ? 1 : 0); }

    void
    putF64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        put64(bits);
    }

    void
    putStr(const std::string &s)
    {
        put32(static_cast<std::uint32_t>(s.size()));
        buf.insert(buf.end(), s.begin(), s.end());
    }

    void
    putBytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf.insert(buf.end(), p, p + len);
    }

    void
    putDesc(const EventDesc &d)
    {
        put16(d.kind);
        put16(d.owner);
        putI32(d.a);
        putI32(d.b);
        putI32(d.c);
        put64(d.u);
        put64(d.v);
    }

    const std::vector<std::uint8_t> &buffer() const { return buf; }
    std::size_t size() const { return buf.size(); }

  private:
    static constexpr std::size_t frameBytes = 16;

    void
    patch32(std::size_t at, std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf[at + static_cast<std::size_t>(i)] =
                static_cast<std::uint8_t>(v >> (8 * i));
    }

    void
    patch64(std::size_t at, std::uint64_t v)
    {
        patch32(at, static_cast<std::uint32_t>(v));
        patch32(at + 4, static_cast<std::uint32_t>(v >> 32));
    }

    std::vector<std::uint8_t> buf;
    std::size_t secStart = 0;
};

/**
 * Bounds-checked reader over a snapshot's section payloads with a
 * sticky error: the first malformed field records a message and
 * every later getter returns zero, so restore code never branches
 * per field and never reads out of bounds.
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t len)
        : buf(data), end(len)
    {}

    bool ok() const { return err.empty(); }
    const std::string &error() const { return err; }

    /** Record an error (first one wins). */
    void
    fail(const std::string &msg)
    {
        if (err.empty())
            err = msg;
    }

    /**
     * Open the next section, which must carry @p tag (sections are
     * positional). Verifies the frame fits, the payload fits, and
     * the payload CRC matches. @p name labels errors.
     */
    bool enterSection(std::uint32_t tag, const char *name);

    /**
     * Close the current section. Requires every payload byte to
     * have been consumed — trailing bytes mean the writer and
     * reader disagree about the layout, which is corruption as far
     * as the restore contract is concerned.
     */
    void leaveSection(const char *name);

    std::uint8_t
    get8()
    {
        if (!need(1))
            return 0;
        return buf[pos++];
    }

    std::uint16_t
    get16()
    {
        std::uint16_t lo = get8();
        return static_cast<std::uint16_t>(lo |
                                          (std::uint16_t(get8()) << 8));
    }

    std::uint32_t
    get32()
    {
        std::uint32_t lo = get16();
        return lo | (std::uint32_t(get16()) << 16);
    }

    std::uint64_t
    get64()
    {
        std::uint64_t lo = get32();
        return lo | (std::uint64_t(get32()) << 32);
    }

    std::int32_t getI32() { return static_cast<std::int32_t>(get32()); }
    std::int64_t getI64() { return static_cast<std::int64_t>(get64()); }
    bool getBool() { return get8() != 0; }

    double
    getF64()
    {
        std::uint64_t bits = get64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    getStr()
    {
        std::uint32_t n = get32();
        if (!need(n))
            return {};
        std::string s(reinterpret_cast<const char *>(buf + pos),
                      static_cast<std::size_t>(n));
        pos += n;
        return s;
    }

    bool
    getBytes(void *out, std::size_t len)
    {
        if (!need(len))
            return false;
        std::memcpy(out, buf + pos, len);
        pos += len;
        return true;
    }

    EventDesc
    getDesc()
    {
        EventDesc d;
        d.kind = get16();
        d.owner = get16();
        d.a = getI32();
        d.b = getI32();
        d.c = getI32();
        d.u = get64();
        d.v = get64();
        return d;
    }

    /** Bytes left in the current section. */
    std::size_t
    sectionRemaining() const
    {
        return secEnd > pos ? secEnd - pos : 0;
    }

  private:
    /** @retval true when @p n more bytes fit in the current bound. */
    bool
    need(std::size_t n)
    {
        const std::size_t bound = inSection ? secEnd : end;
        if (!err.empty() || pos + n > bound || pos + n < pos) {
            fail("snapshot truncated: field read past " +
                 std::string(inSection ? "section" : "file") + " end");
            return false;
        }
        return true;
    }

    const std::uint8_t *buf;
    std::size_t end;
    std::size_t pos = 0;
    std::size_t secEnd = 0;
    bool inSection = false;
    std::string err;
};

/**
 * Write magic + version + @p s's sections to @p path atomically:
 * the bytes go to "<path>.tmp" first and are renamed into place, so
 * a crash mid-write never corrupts an existing snapshot at @p path.
 * @retval false on I/O failure, with @p err describing it.
 */
bool writeSnapshot(const std::string &path, const Serializer &s,
                   std::string *err);

/**
 * Read @p path and validate the snapshot header (magic, version).
 * On success @p out holds the full file contents and @p bodyOff the
 * offset of the first section.
 */
bool readSnapshot(const std::string &path,
                  std::vector<std::uint8_t> *out,
                  std::size_t *bodyOff, std::string *err);

/**
 * A bench- or experiment-owned object (e.g. the telemetry sampler)
 * that participates in machine snapshots. Register it with
 * sys::Machine::registerCkptClient before save or restore; its
 * pending events carry EvKind::ClientEvent descs with the returned
 * client id as owner.
 */
class Client
{
  public:
    virtual ~Client() = default;

    /** Append this client's state (one contiguous blob). */
    virtual void saveCkpt(Serializer &s) const = 0;

    /** Restore state written by saveCkpt; report via @p d.fail(). */
    virtual void restoreCkpt(Deserializer &d) = 0;

    /**
     * The callback of this client's pending event @p d, built as
     * its live scheduling site builds it. The default owns none.
     */
    virtual InlineFn callback(const EventDesc &) { return {}; }

    /** Set by Machine::registerCkptClient; -1 while unregistered. */
    void setCkptClientId(int id) { ckptId_ = id; }
    int ckptClientId() const { return ckptId_; }

  protected:
    /**
     * Descriptor for one of this client's pending events. Safe to
     * call before registration: the placeholder owner makes a later
     * save fail loudly instead of mis-routing the event.
     */
    EventDesc
    clientDesc(std::int32_t a = 0, std::uint64_t u = 0) const
    {
        EventDesc d;
        d.kind = ClientEvent;
        d.owner = static_cast<std::uint16_t>(
            ckptId_ < 0 ? 0xffff : ckptId_);
        d.a = a;
        d.u = u;
        return d;
    }

  private:
    int ckptId_ = -1;
};

} // namespace gs::ckpt

#endif // GS_SIM_CHECKPOINT_HH
