// crowder_serve — the CrowdER entity-resolution service as a resident
// process, driven by a line protocol on stdin (one command per line,
// one reply per line on stdout):
//
//   INSERT source|entity|text   ingest one record; `entity` is the ground
//                               truth consumed by the simulated crowd
//   QUERY id                    the record's cluster (named by its smallest
//                               member) + pending pairs, read from the
//                               current epoch snapshot (lock-free)
//   FLUSH                       post queued crowd pairs, wait for verdicts,
//                               publish
//   STATS                       the service counters, one key=value line
//   REPORT path                 FLUSH, then write the record,cluster CSV
//   QUIT                        stop reading (EOF does the same)
//
// On exit the service is finished and a final summary is printed. A
// malformed command replies `error: ...` and the process keeps serving —
// the protocol is for harnesses (see the smoke tests), not humans, but it
// forgives them.
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
#include <sstream>
#include <string>
#include <string_view>

#include "common/string_util.h"
#include "data/dataset.h"
#include "flags.h"
#include "serve/service.h"
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

void ReplyInsert(const serve::InsertOutcome& outcome) {
  std::cout << "record " << outcome.record_id << " candidates=" << outcome.new_candidates
            << " auto=" << outcome.auto_matched << " queued=" << outcome.queued_for_crowd
            << "\n";
}

void ReplyQuery(const serve::QueryResult& view) {
  std::cout << "record " << view.record_id << " epoch=" << view.epoch
            << " cluster=" << view.cluster_id << " members=[";
  for (size_t i = 0; i < view.members.size(); ++i) {
    std::cout << (i ? "," : "") << view.members[i];
  }
  std::cout << "] pending=" << view.pending.size() << "\n";
}

void ReplyStats(const serve::ServiceStats& stats) {
  std::cout << "records=" << stats.num_records << " candidates=" << stats.candidate_pairs
            << " auto_matches=" << stats.auto_matches << " crowd_pairs=" << stats.crowd_pairs
            << " crowd_decided=" << stats.crowd_decided << " matches=" << stats.applied_matches
            << " rounds=" << stats.rounds << " hits=" << stats.hits_posted
            << " epochs=" << stats.epochs_published << " rebuilds=" << stats.index_rebuilds
            << "\n";
}

// One command line; only QUIT returns false.
bool HandleLine(serve::EntityResolutionService* service, const std::string& line) {
  std::istringstream in(line);
  std::string command;
  in >> command;
  if (command.empty()) return true;
  if (command == "QUIT") return false;

  if (command == "INSERT") {
    std::string rest;
    std::getline(in, rest);
    if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);
    const size_t bar1 = rest.find('|');
    const size_t bar2 = bar1 == std::string::npos ? std::string::npos : rest.find('|', bar1 + 1);
    if (bar2 == std::string::npos) {
      std::cout << "error: INSERT wants source|entity|text\n";
      return true;
    }
    const std::string_view fields(rest);
    const Result<int> source = ParseNumber<int>(fields.substr(0, bar1), "INSERT source");
    const Result<uint32_t> entity =
        ParseNumber<uint32_t>(fields.substr(bar1 + 1, bar2 - bar1 - 1), "INSERT entity");
    if (!source.ok() || !entity.ok()) {
      std::cout << "error: " << (source.ok() ? entity.status() : source.status()).ToString()
                << "\n";
      return true;
    }
    auto outcome = service->Insert(rest.substr(bar2 + 1), *source, *entity);
    if (!outcome.ok()) {
      std::cout << "error: " << outcome.status().ToString() << "\n";
    } else {
      ReplyInsert(*outcome);
    }
    return true;
  }

  if (command == "QUERY") {
    std::string field;
    in >> field;
    const Result<uint32_t> id = ParseNumber<uint32_t>(field, "QUERY id");
    if (!id.ok()) {
      std::cout << "error: " << id.status().ToString() << "\n";
      return true;
    }
    auto view = service->Query(*id);
    if (!view.ok()) {
      std::cout << "error: " << view.status().ToString() << "\n";
    } else {
      ReplyQuery(*view);
    }
    return true;
  }

  if (command == "FLUSH") {
    const Status status = service->Flush();
    if (!status.ok()) {
      std::cout << "error: " << status.ToString() << "\n";
    } else {
      std::cout << "flushed epoch=" << service->CurrentSnapshot()->epoch << "\n";
    }
    return true;
  }

  if (command == "STATS") {
    ReplyStats(service->Stats());
    return true;
  }

  if (command == "REPORT") {
    std::string path;
    in >> path;
    if (path.empty()) {
      std::cout << "error: REPORT wants a path\n";
      return true;
    }
    Status status = service->Flush();
    if (status.ok()) {
      status = serve::WriteClusterReport(service->CurrentSnapshot()->Clusters(), path);
    }
    if (!status.ok()) {
      std::cout << "error: " << status.ToString() << "\n";
    } else {
      std::cout << "wrote " << path << "\n";
    }
    return true;
  }

  std::cout << "error: unknown command '" << command << "'\n";
  return true;
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
    if (!HandleLine(service.get(), line)) break;
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
