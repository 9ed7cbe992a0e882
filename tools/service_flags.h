// The one reader of the serve::ServiceConfig flags, shared by crowder_serve,
// crowder_bench_serve and crowder_cli serve-batch. A tool lists in its own
// usage text which of these flags it accepts (flags.h rejects the rest); a
// flag it does not list keeps the ServiceConfig default.
#ifndef CROWDER_TOOLS_SERVICE_FLAGS_H_
#define CROWDER_TOOLS_SERVICE_FLAGS_H_

#include <cstdint>

#include "flags.h"
#include "serve/service.h"

namespace crowder {
namespace tools {

/// --threshold, --auto-match, --match-threshold, --flush-pairs,
/// --pairs-per-hit, --publish-interval, --hits-per-poll and --seed, plus
/// the --inline and --sync switches; a malformed number names its flag.
inline Result<serve::ServiceConfig> ServiceConfigFromFlags(const Args& flags) {
  serve::ServiceConfig config;
  CROWDER_ASSIGN_OR_RETURN(config.threshold, flags.GetNumber("threshold", config.threshold));
  CROWDER_ASSIGN_OR_RETURN(config.auto_match_threshold,
                           flags.GetNumber("auto-match", config.auto_match_threshold));
  CROWDER_ASSIGN_OR_RETURN(config.match_threshold,
                           flags.GetNumber("match-threshold", config.match_threshold));
  CROWDER_ASSIGN_OR_RETURN(config.crowd_flush_pairs,
                           flags.GetNumber<uint64_t>("flush-pairs", config.crowd_flush_pairs));
  CROWDER_ASSIGN_OR_RETURN(config.pairs_per_hit,
                           flags.GetNumber("pairs-per-hit", config.pairs_per_hit));
  CROWDER_ASSIGN_OR_RETURN(config.publish_interval,
                           flags.GetNumber("publish-interval", config.publish_interval));
  CROWDER_ASSIGN_OR_RETURN(config.hits_per_poll,
                           flags.GetNumber("hits-per-poll", config.hits_per_poll));
  CROWDER_ASSIGN_OR_RETURN(config.seed, flags.GetNumber("seed", config.seed));
  config.background = !flags.Has("inline");
  config.async_delivery = !flags.Has("sync");
  return config;
}

}  // namespace tools
}  // namespace crowder

#endif  // CROWDER_TOOLS_SERVICE_FLAGS_H_
