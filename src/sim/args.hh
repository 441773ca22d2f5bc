/**
 * @file
 * Minimal command-line option parsing for bench/example binaries.
 *
 * Supports `--key=value`, `--key value` and `--flag` forms plus
 * `--help`. Unknown options and malformed numbers are fatal so that
 * typos in sweep scripts fail loudly.
 */

#ifndef GS_SIM_ARGS_HH
#define GS_SIM_ARGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gs
{

/** Parsed command line with typed accessors and defaults. */
class Args
{
  public:
    /**
     * Parse argv. @p known maps option name -> help text; options not
     * in @p known (other than help) terminate the program.
     */
    Args(int argc, char **argv,
         std::map<std::string, std::string> known = {});

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

  private:
    std::map<std::string, std::string> values;
};

} // namespace gs

#endif // GS_SIM_ARGS_HH
