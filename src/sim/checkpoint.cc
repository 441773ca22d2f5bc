#include "sim/checkpoint.hh"

#include <array>
#include <cstdio>
#include <iterator>

#include "sim/logging.hh"

namespace gs::ckpt
{

namespace
{

/** CRC32 lookup table (IEEE 802.3 reflected polynomial). */
std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[i] = c;
    }
    return t;
}

std::string
fourccName(std::uint32_t tag)
{
    std::string s;
    for (int i = 0; i < 4; ++i) {
        char c = static_cast<char>(tag >> (8 * i));
        s.push_back(c >= 32 && c < 127 ? c : '?');
    }
    return s;
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t len)
{
    static const auto table = makeCrcTable();
    const auto *p = static_cast<const std::uint8_t *>(data);
    std::uint32_t c = 0xffffffffu;
    for (std::size_t i = 0; i < len; ++i)
        c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

bool
Deserializer::enterSection(std::uint32_t tag, const char *name)
{
    if (!err.empty())
        return false;
    inSection = false; // frame reads are bounded by the file
    if (pos + 16 > end) {
        fail(std::string("snapshot truncated: no '") + name +
             "' section frame");
        return false;
    }
    const std::uint32_t got = get32();
    const std::uint32_t crc = get32();
    const std::uint64_t len = get64();
    if (got != tag) {
        fail(std::string("snapshot layout error: expected section '") +
             name + "', found '" + fourccName(got) + "'");
        return false;
    }
    if (len > end - pos) {
        fail(std::string("snapshot truncated: section '") + name +
             "' claims " + std::to_string(len) + " bytes, " +
             std::to_string(end - pos) + " remain");
        return false;
    }
    const std::uint32_t actual =
        crc32(buf + pos, static_cast<std::size_t>(len));
    if (actual != crc) {
        fail(std::string("snapshot corrupt: section '") + name +
             "' CRC mismatch (stored " + std::to_string(crc) +
             ", computed " + std::to_string(actual) + ")");
        return false;
    }
    secEnd = pos + static_cast<std::size_t>(len);
    inSection = true;
    return true;
}

void
Deserializer::leaveSection(const char *name)
{
    if (!err.empty())
        return;
    if (pos != secEnd) {
        fail(std::string("snapshot layout error: section '") + name +
             "' has " + std::to_string(secEnd - pos) +
             " unread byte(s)");
        return;
    }
    inSection = false;
}

void
saveCont(Serializer &s, const Cont &c, const char *what)
{
    if (c.desc.kind == Opaque) {
        gs_fatal("cannot checkpoint: ", what,
                 " holds an opaque continuation (its call site passes "
                 "a bare callable; give it an EventDesc)");
    }
    s.putDesc(c.desc);
}

const char *
kindName(std::uint16_t kind)
{
    static constexpr const char *names[] = {
        "Opaque", "NetInjStart", "NetDeliverLocal", "NetReceive",
        "NetCredit", "NetTick", "CohSendMsg", "CohFillBatch",
        "CohHomeReadExcl", "CohHomeApplyExcl", "CohHomeReadShared",
        "CohHomeApplyShared", "CohHomeApplyVictim",
        "CohHomeApplyDowngrade", "CohHomeApplyTransfer", "CoreThink",
        "CoreL1Hit", "CoreMemDone", "FaultApply", "WatchdogPoll",
        "ClientEvent"};
    static_assert(std::size(names) == ClientEvent + 1,
                  "one name per EvKind");
    return kind < std::size(names) ? names[kind] : "?";
}

Cont
restoreCont(Deserializer &d, const RehydrateFn &rehydrate,
            const char *what)
{
    Cont c;
    c.desc = d.getDesc();
    if (!d.ok())
        return c;
    c.fn = rehydrate(c.desc);
    if (!c.fn) {
        d.fail(std::string("snapshot corrupt: no rehydration recipe "
                           "for ") +
               what + " (event kind " + kindName(c.desc.kind) + ")");
    }
    return c;
}

bool
writeSnapshot(const std::string &path, const Serializer &s,
              std::string *err)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        if (err)
            *err = "cannot open " + tmp + " for writing";
        return false;
    }
    bool ok = std::fwrite(magic, 1, sizeof(magic), f) == sizeof(magic);
    std::uint8_t ver[8] = {};
    for (int i = 0; i < 4; ++i)
        ver[i] = static_cast<std::uint8_t>(formatVersion >> (8 * i));
    // Bytes 4..7 are reserved flags, zero in version 1.
    ok = ok && std::fwrite(ver, 1, sizeof(ver), f) == sizeof(ver);
    ok = ok && (s.size() == 0 ||
                std::fwrite(s.buffer().data(), 1, s.size(), f) ==
                    s.size());
    ok = std::fflush(f) == 0 && ok;
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        if (err)
            *err = "short write to " + tmp;
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (err)
            *err = "cannot rename " + tmp + " to " + path;
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
readSnapshot(const std::string &path, std::vector<std::uint8_t> *out,
             std::size_t *bodyOff, std::string *err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (err)
            *err = "cannot open snapshot " + path;
        return false;
    }
    out->clear();
    std::uint8_t chunk[1 << 16];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out->insert(out->end(), chunk, chunk + n);
    const bool readOk = std::ferror(f) == 0;
    std::fclose(f);
    if (!readOk) {
        if (err)
            *err = "I/O error reading snapshot " + path;
        return false;
    }
    if (out->size() < sizeof(magic) + 8) {
        if (err)
            *err = "not a snapshot: " + path + " is " +
                   std::to_string(out->size()) +
                   " bytes, smaller than the header";
        return false;
    }
    if (std::memcmp(out->data(), magic, sizeof(magic)) != 0) {
        if (err)
            *err = "not a snapshot: " + path + " has no " +
                   std::string(magic, sizeof(magic)) + " magic";
        return false;
    }
    std::uint32_t ver = 0;
    for (int i = 0; i < 4; ++i)
        ver |= std::uint32_t((*out)[sizeof(magic) +
                                    static_cast<std::size_t>(i)])
               << (8 * i);
    if (ver != formatVersion) {
        if (err)
            *err = "snapshot " + path + " is format version " +
                   std::to_string(ver) + ", this build reads version " +
                   std::to_string(formatVersion);
        return false;
    }
    *bodyOff = sizeof(magic) + 8;
    return true;
}

} // namespace gs::ckpt
