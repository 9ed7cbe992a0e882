// The flag parser of the command-line tools (crowder_cli, crowder_serve,
// crowder_bench_serve). Each tool, or crowder_cli subcommand, accepts
// exactly the flags its usage text lists, so a misspelt flag is a usage
// error naming it (the tools exit 2) instead of a run with the default. A
// numeric flag's value goes through ParseNumber, so a value that is not a
// whole finite number in range is an error naming the flag.
#ifndef CROWDER_TOOLS_FLAGS_H_
#define CROWDER_TOOLS_FLAGS_H_

#include <limits>
#include <map>
#include <set>
#include <string>

#include "common/result.h"
#include "common/string_util.h"

namespace crowder {
namespace tools {

/// A parsed command line: the tool or subcommand, and its flags' values
/// (a switch's value is "true").
struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& key) const { return flags.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }

  /// Flag `key` parsed by ParseNumber (`fallback` when absent); an error
  /// names the flag.
  template <typename T>
  Result<T> GetNumber(const std::string& key, T fallback,
                      T lo = std::numeric_limits<T>::lowest(),
                      T hi = std::numeric_limits<T>::max()) const {
    auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    return ParseNumber<T>(it->second, "--" + key, lo, hi);
  }
};

/// The flags a tool or subcommand accepts: exactly those its usage text
/// lists. Value flags take the next token; switches take none.
struct CommandFlags {
  std::set<std::string> values;
  std::set<std::string> switches;
};

/// Parses argv[first, argc) as `command`'s flags. A token that is not a
/// known flag, or a value flag without its value, is an InvalidArgument
/// naming it.
inline Result<Args> ParseFlags(const std::string& command, const CommandFlags& known, int argc,
                               char** argv, int first) {
  Args args;
  args.command = command;
  for (int i = first; i < argc; ++i) {
    std::string token = argv[i];
    if (!StartsWith(token, "--")) {
      return Status::InvalidArgument("expected --flag, got '" + token + "'");
    }
    token = token.substr(2);
    if (known.switches.count(token) != 0) {
      args.flags[token] = "true";
    } else if (known.values.count(token) != 0) {
      if (i + 1 >= argc) return Status::InvalidArgument("flag --" + token + " needs a value");
      args.flags[token] = argv[++i];
    } else {
      return Status::InvalidArgument("unknown flag --" + token + " for " + command);
    }
  }
  return args;
}

}  // namespace tools
}  // namespace crowder

#endif  // CROWDER_TOOLS_FLAGS_H_
