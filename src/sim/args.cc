#include "sim/args.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace gs
{

namespace
{

/**
 * Parse all of @p text with @p conv (a strtoll/strtod wrapper), or
 * fail naming option @p key: an empty value, trailing characters or
 * an out-of-range value is a usage error, never a silent default.
 */
template <typename Conv>
auto
parseNumber(const std::string &key, const std::string &text,
            const char *what, Conv conv)
{
    const char *s = text.c_str();
    char *end = nullptr;
    errno = 0;
    auto v = conv(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE)
        gs_fatal("option --", key, " expects ", what, ", got '", text,
                 "'");
    return v;
}

} // namespace

Args::Args(int argc, char **argv, std::map<std::string, std::string> known)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            gs_fatal("unexpected positional argument: ", arg);
        arg = arg.substr(2);

        std::string key = arg, value = "1";
        if (auto eq = arg.find('='); eq != std::string::npos) {
            key = arg.substr(0, eq);
            value = arg.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            // Space form `--key value`; a flag followed by another
            // option (or by nothing) stays a bare flag.
            value = argv[++i];
        }

        if (key == "help") {
            std::printf("options:\n");
            for (const auto &[name, help] : known)
                std::printf("  --%-20s %s\n", name.c_str(), help.c_str());
            std::exit(0);
        }
        if (!known.empty() && !known.count(key))
            gs_fatal("unknown option --", key, " (try --help)");
        values[key] = value;
    }
}

bool
Args::has(const std::string &key) const
{
    return values.count(key) != 0;
}

std::string
Args::getString(const std::string &key, const std::string &def) const
{
    auto it = values.find(key);
    return it == values.end() ? def : it->second;
}

std::int64_t
Args::getInt(const std::string &key, std::int64_t def) const
{
    auto it = values.find(key);
    if (it == values.end())
        return def;
    return parseNumber(key, it->second, "an integer",
                       [](const char *s, char **end) {
                           return std::strtoll(s, end, 0);
                       });
}

double
Args::getDouble(const std::string &key, double def) const
{
    auto it = values.find(key);
    if (it == values.end())
        return def;
    return parseNumber(key, it->second, "a number",
                       [](const char *s, char **end) {
                           return std::strtod(s, end);
                       });
}

bool
Args::getBool(const std::string &key, bool def) const
{
    auto it = values.find(key);
    if (it == values.end())
        return def;
    return it->second != "0" && it->second != "false" &&
           it->second != "no";
}

} // namespace gs
