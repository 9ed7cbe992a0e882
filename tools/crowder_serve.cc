// crowder_serve — the CrowdER entity-resolution service as a resident
// process, driven by the line protocol of serve_repl.h on stdin (one
// command per line — INSERT, QUERY, FLUSH, STATS, REPORT, QUIT — one reply
// per line on stdout).
//
// On exit the service is finished and a final summary is printed. A
// malformed command replies `error: ` plus a named status and the process
// keeps serving — the protocol is for harnesses (see the smoke tests), not
// humans, but it forgives them.
//
//   crowder_serve [--in FILE] [--threshold F] [--auto-match F]
//                 [--match-threshold F] [--flush-pairs N] [--pairs-per-hit N]
//                 [--publish-interval N] [--hits-per-poll N] [--seed N]
//                 [--inline] [--sync] [--cross-source]
//
// A flag the usage text does not list is a usage error naming it (exit 2);
// a malformed number is an error naming its flag (exit 1).
//
// --in preloads a dataset CSV (crowder_cli generate's format) before
// reading stdin; if the dataset carries source labels (Product), the
// cross-source-only candidate rule switches on automatically, matching the
// batch pipeline. --cross-source forces that rule for stdin-only sessions.
// --inline runs crowd rounds on the ingest thread instead of
// the background pool; --sync delivers verdicts whole-round instead of
// through the async completion-order model. Both change scheduling only:
// the final partition is bitwise identical either way (serve/service.h).
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "data/dataset.h"
#include "flags.h"
#include "serve/service.h"
#include "serve_repl.h"
#include "service_flags.h"

namespace crowder {
namespace {

int Usage() {
  std::cerr <<
      R"(usage:
  crowder_serve [--in FILE] [--threshold F] [--auto-match F] [--match-threshold F]
                [--flush-pairs N] [--pairs-per-hit N] [--publish-interval N]
                [--hits-per-poll N] [--seed N] [--inline] [--sync] [--cross-source]
reads commands from stdin: INSERT source|entity|text, QUERY id, FLUSH, STATS,
REPORT path, QUIT
)";
  return 2;
}

using tools::Args;

Result<Args> Parse(int argc, char** argv) {
  static const tools::CommandFlags kFlags = {
      {"in", "threshold", "auto-match", "match-threshold", "flush-pairs", "pairs-per-hit",
       "publish-interval", "hits-per-poll", "seed"},
      {"inline", "sync", "cross-source"}};
  return tools::ParseFlags("crowder_serve", kFlags, argc, argv, 1);
}

Status Serve(const Args& flags) {
  CROWDER_ASSIGN_OR_RETURN(serve::ServiceConfig config, tools::ServiceConfigFromFlags(flags));
  config.cross_source_only = flags.Has("cross-source");

  // Load the preload dataset before building the service: a two-source
  // dataset (Product) flips the candidate rule to cross-source-only, exactly
  // as the batch pipeline reads it off the dataset's own labels.
  std::unique_ptr<data::Dataset> preloaded;
  const std::string preload = flags.Get("in", "");
  if (!preload.empty()) {
    CROWDER_ASSIGN_OR_RETURN(data::Dataset dataset, data::ReadDatasetCsv(preload, preload));
    if (!dataset.table.sources.empty()) config.cross_source_only = true;
    preloaded = std::make_unique<data::Dataset>(std::move(dataset));
  }

  CROWDER_ASSIGN_OR_RETURN(auto service, serve::EntityResolutionService::Create(config));

  if (preloaded != nullptr) {
    for (uint32_t r = 0; r < preloaded->table.num_records(); ++r) {
      CROWDER_RETURN_NOT_OK(service->InsertDatasetRecord(*preloaded, r).status());
    }
    std::cout << "preloaded " << preloaded->table.num_records() << " records from " << preload
              << "\n";
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (!tools::HandleLine(service.get(), line, std::cout)) break;
  }

  CROWDER_ASSIGN_OR_RETURN(const serve::ServiceReport report, service->Finish());
  std::cout << "final: records=" << report.stats.num_records
            << " clusters=" << report.clusters.num_clusters()
            << " duplicate_groups=" << report.clusters.num_duplicate_groups()
            << " matches=" << report.stats.applied_matches
            << " crowd_assignments=" << report.crowd.num_assignments << " cost=$"
            << FormatDouble(report.crowd.cost_dollars, 2) << "\n";
  return Status::OK();
}

}  // namespace
}  // namespace crowder

int main(int argc, char** argv) {
  auto flags = crowder::Parse(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status().ToString() << "\n";
    return crowder::Usage();
  }
  const crowder::Status status = crowder::Serve(*flags);
  if (!status.ok()) {
    std::cerr << "error: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
