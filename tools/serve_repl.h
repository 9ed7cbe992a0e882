// The crowder_serve line protocol: one command line in, one reply line out.
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
// A malformed command replies `error: ` plus a named status
// (`error: InvalidArgument: ...`) and the session goes on. Blank lines and
// QUIT reply nothing. Kept in a header so serve_protocol_test can sweep
// the protocol with mutated sessions against an inline service.
#ifndef CROWDER_TOOLS_SERVE_REPL_H_
#define CROWDER_TOOLS_SERVE_REPL_H_

#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/string_util.h"
#include "serve/service.h"

namespace crowder {
namespace tools {

inline void ReplyInsert(const serve::InsertOutcome& outcome, std::ostream& out) {
  out << "record " << outcome.record_id << " candidates=" << outcome.new_candidates
      << " auto=" << outcome.auto_matched << " queued=" << outcome.queued_for_crowd << "\n";
}

inline void ReplyQuery(const serve::QueryResult& view, std::ostream& out) {
  out << "record " << view.record_id << " epoch=" << view.epoch << " cluster=" << view.cluster_id
      << " members=[";
  for (size_t i = 0; i < view.members.size(); ++i) {
    out << (i ? "," : "") << view.members[i];
  }
  out << "] pending=" << view.pending.size() << "\n";
}

inline void ReplyStats(const serve::ServiceStats& stats, std::ostream& out) {
  out << "records=" << stats.num_records << " candidates=" << stats.candidate_pairs
      << " auto_matches=" << stats.auto_matches << " crowd_pairs=" << stats.crowd_pairs
      << " crowd_decided=" << stats.crowd_decided << " matches=" << stats.applied_matches
      << " rounds=" << stats.rounds << " hits=" << stats.hits_posted
      << " epochs=" << stats.epochs_published << " rebuilds=" << stats.index_rebuilds << "\n";
}

inline void ReplyError(const Status& status, std::ostream& out) {
  out << "error: " << status.ToString() << "\n";
}

/// Handles one command line, writing its reply to `out`; only QUIT
/// returns false.
inline bool HandleLine(serve::EntityResolutionService* service, const std::string& line,
                       std::ostream& out) {
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
      ReplyError(Status::InvalidArgument("INSERT wants source|entity|text"), out);
      return true;
    }
    const std::string_view fields(rest);
    const Result<int> source = ParseNumber<int>(fields.substr(0, bar1), "INSERT source");
    const Result<uint32_t> entity =
        ParseNumber<uint32_t>(fields.substr(bar1 + 1, bar2 - bar1 - 1), "INSERT entity");
    if (!source.ok() || !entity.ok()) {
      ReplyError(source.ok() ? entity.status() : source.status(), out);
      return true;
    }
    auto outcome = service->Insert(rest.substr(bar2 + 1), *source, *entity);
    if (!outcome.ok()) {
      ReplyError(outcome.status(), out);
    } else {
      ReplyInsert(*outcome, out);
    }
    return true;
  }

  if (command == "QUERY") {
    std::string field;
    in >> field;
    const Result<uint32_t> id = ParseNumber<uint32_t>(field, "QUERY id");
    if (!id.ok()) {
      ReplyError(id.status(), out);
      return true;
    }
    auto view = service->Query(*id);
    if (!view.ok()) {
      ReplyError(view.status(), out);
    } else {
      ReplyQuery(*view, out);
    }
    return true;
  }

  if (command == "FLUSH") {
    const Status status = service->Flush();
    if (!status.ok()) {
      ReplyError(status, out);
    } else {
      out << "flushed epoch=" << service->CurrentSnapshot()->epoch << "\n";
    }
    return true;
  }

  if (command == "STATS") {
    ReplyStats(service->Stats(), out);
    return true;
  }

  if (command == "REPORT") {
    std::string path;
    in >> path;
    if (path.empty()) {
      ReplyError(Status::InvalidArgument("REPORT wants a path"), out);
      return true;
    }
    Status status = service->Flush();
    if (status.ok()) {
      status = serve::WriteClusterReport(service->CurrentSnapshot()->Clusters(), path);
    }
    if (!status.ok()) {
      ReplyError(status, out);
    } else {
      out << "wrote " << path << "\n";
    }
    return true;
  }

  ReplyError(Status::InvalidArgument("unknown command '" + command + "'"), out);
  return true;
}

}  // namespace tools
}  // namespace crowder

#endif  // CROWDER_TOOLS_SERVE_REPL_H_
