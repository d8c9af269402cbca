/**
 * @file
 * Command-line option parser shared by the benchmark harnesses, tools
 * and examples: each front end declares the flags it accepts and the
 * parser holds argv to that table.
 */

#ifndef PCSTALL_COMMON_CLI_HH
#define PCSTALL_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pcstall
{

/** One flag a front end accepts. */
struct CliFlag
{
    /** Name without the leading "--". */
    std::string name;
    /** Placeholder shown for the value in usage ("N", "DIR"); empty
     *  for a boolean flag, which never consumes the next token. */
    std::string value;
};

/**
 * Thrown after an informational flag (--help, --list-controllers)
 * printed what was asked for. Front-end mains turn it into exit 0
 * (bench::guardedMain does), so no banner or simulation follows.
 */
struct CleanExit
{
};

/**
 * Parses argv against a declared flag table into a name -> value map
 * and offers typed accessors with defaults.
 *
 * - "--name value" and "--name=value" set a value flag; a boolean
 *   flag never takes the next token, so "--csv x" leaves x
 *   positional.
 * - An undeclared flag is fatal(), naming it above usage().
 * - "--help" (or "-h") prints usage() to stdout and throws CleanExit.
 * - "--" ends option parsing; every later token is positional.
 *
 * Malformed values are recoverable, not fatal: a typed accessor that
 * cannot parse its value warns, returns the default and records the
 * diagnostic in errors(). A value flag given without a value is
 * treated the same way: warned about and left at its default.
 */
class CliOptions
{
  public:
    /**
     * @param flags    the flags this front end accepts.
     * @param synopsis command part of the usage line; defaults to
     *                 "<argv[0] basename> [options]".
     */
    CliOptions(int argc, char **argv, std::vector<CliFlag> flags,
               std::string synopsis = "");

    /** True when --name was present (with or without a value). */
    bool has(const std::string &name) const;

    /** String option; returns @p def when absent. */
    std::string get(const std::string &name, const std::string &def) const;

    /** Integer option; returns @p def when absent or malformed. */
    std::int64_t getInt(const std::string &name, std::int64_t def) const;

    /** Floating-point option; returns @p def when absent or malformed. */
    double getDouble(const std::string &name, double def) const;

    /** Positional (non --option) arguments in order. */
    const std::vector<std::string> &positional() const { return extras; }

    /** argv[0] as given (empty when argc is 0). */
    const std::string &program() const { return argv0; }

    /** The usage text generated from the flag table. */
    std::string usage() const;

    /** Diagnostics for values a typed accessor could not parse. */
    const std::vector<std::string> &errors() const { return parseErrors; }

    /**
     * Record a caller-side validation diagnostic (e.g. "--shard 3/2:
     * index must be < count"): warned about and kept in errors(),
     * like a malformed value.
     */
    void noteError(const std::string &message) const;

  private:
    /** The raw value of declared flag @p name, or null when absent.
     *  Reading an undeclared name is a front-end bug and panics. */
    const std::string *find(const std::string &name) const;

    std::vector<CliFlag> declared;
    std::string argv0;
    std::string synopsis;
    std::map<std::string, std::string> values;
    std::vector<std::string> extras;
    /** Mutable: accessors are logically const but record bad values. */
    mutable std::vector<std::string> parseErrors;
};

} // namespace pcstall

#endif // PCSTALL_COMMON_CLI_HH
