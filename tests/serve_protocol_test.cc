// Seeded mutation sweep over the crowder_serve line protocol
// (tools/serve_repl.h): 1,200 deterministic mutants of a recorded session
// — truncated, bit-flipped, spliced across lines, numbers inflated — each
// replayed line by line against a fresh inline service. The contract: every
// command line gets exactly one reply line, either a normal reply or
// `error: ` plus a named status; never a crash, a hang or an unbounded
// allocation (the sweep runs under ASan+UBSan through the tier1 label).
// The sweep runs inside a fresh temporary directory, and a mutated REPORT
// whose path is absolute or climbs out with ".." writes to a fixed name
// there instead, so every report stays inside it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "serve/service.h"
#include "tools/serve_repl.h"

namespace crowder {
namespace {

// A session as crowder_serve's smoke tests drive it: inserts that surface
// candidate pairs (near-duplicate restaurant records, two entities), then
// queries, flushes, statistics and a report, interleaved.
const char kSession[] =
    "INSERT 0|0|golden dragon 123 main st new york chinese\n"
    "INSERT 0|0|golden dragon restaurant 123 main street new york chinese\n"
    "INSERT 0|1|blue fin 45 river rd boston seafood\n"
    "QUERY 1\n"
    "INSERT 0|1|blue fin grill 45 river road boston seafood\n"
    "INSERT 0|0|the golden dragon 123 main st ny chinese\n"
    "FLUSH\n"
    "QUERY 0\n"
    "STATS\n"
    "INSERT 1|2|casa lupe 9 elm ave austin mexican\n"
    "INSERT 1|2|casa lupe cafe 9 elm avenue austin mexican\n"
    "QUERY 6\n"
    "REPORT clusters.csv\n"
    "\n"
    "QUERY 3\n"
    "STATS\n"
    "QUIT\n";

// One mutant of `session`: the operator is seed % 4, its parameters come
// from Rng(seed).
std::string Mutate(const std::string& session, uint64_t seed) {
  static const char* const kHostile[] = {"-1",
                                         "0",
                                         "4294967295",
                                         "4294967296",
                                         "2147483648",
                                         "99999999999999999999",
                                         "18446744073709551616",
                                         "1e9999",
                                         "0x10",
                                         "nan",
                                         ""};
  Rng rng(seed);
  std::string out = session;
  switch (seed % 4) {
    case 0:  // truncate
      out.resize(rng.Uniform(session.size()));
      break;
    case 1:  // flip one to three bits
      for (uint64_t flips = 1 + rng.Uniform(3); flips > 0; --flips) {
        out[rng.Uniform(out.size())] ^= static_cast<char>(1u << rng.Uniform(8));
      }
      break;
    case 2: {  // splice: cut inside one line, resume inside another
      std::vector<size_t> starts{0};
      for (size_t i = 0; i + 1 < session.size(); ++i) {
        if (session[i] == '\n') starts.push_back(i + 1);
      }
      const size_t x = starts[rng.Uniform(starts.size())];
      const size_t y = starts[rng.Uniform(starts.size())];
      const size_t x_end = session.find('\n', x);
      const size_t y_end = session.find('\n', y);
      const size_t cut = x + rng.Uniform(x_end - x + 1);
      const size_t resume = y + rng.Uniform(y_end - y + 1);
      out = session.substr(0, cut) + session.substr(resume, y_end - resume) +
            session.substr(x_end);
      break;
    }
    default: {  // inflate: replace a run of digits with a hostile number
      std::vector<size_t> runs;
      for (size_t i = 0; i < session.size(); ++i) {
        const bool digit = session[i] >= '0' && session[i] <= '9';
        if (digit && (i == 0 || !(session[i - 1] >= '0' && session[i - 1] <= '9'))) {
          runs.push_back(i);
        }
      }
      const size_t begin = runs[rng.Uniform(runs.size())];
      size_t end = begin;
      while (end < session.size() && session[end] >= '0' && session[end] <= '9') ++end;
      out.replace(begin, end - begin, kHostile[rng.Uniform(std::size(kHostile))]);
    }
  }
  return out;
}

// Keeps a REPORT inside the working directory: an absolute path, or one that
// climbs out with "..", is replaced by a fixed file name.
std::string Contained(const std::string& line) {
  std::istringstream in(line);
  std::string command;
  std::string path;
  in >> command >> path;
  if (command != "REPORT" || (path.rfind('/', 0) != 0 && path.find("..") == std::string::npos)) {
    return line;
  }
  return "REPORT contained.csv";
}

bool IsNamedStatus(const std::string& name) {
  for (int code = 1; code <= static_cast<int>(StatusCode::kDataLoss); ++code) {
    if (name == StatusCodeToString(static_cast<StatusCode>(code))) return true;
  }
  return false;
}

// Replays `session` against a fresh inline service and checks every reply.
void ReplaySession(const std::string& session, const std::string& label) {
  serve::ServiceConfig config;
  config.background = false;
  config.crowd_flush_pairs = 4;
  auto service = serve::EntityResolutionService::Create(config).ValueOrDie();
  std::istringstream lines(session);
  std::string line;
  while (std::getline(lines, line)) {
    std::ostringstream out;
    const bool more = tools::HandleLine(service.get(), Contained(line), out);
    const std::string reply = out.str();
    std::istringstream words(line);
    std::string command;
    words >> command;
    if (command.empty() || command == "QUIT") {
      EXPECT_TRUE(reply.empty()) << label << ": '" << line << "' replied '" << reply << "'";
    } else {
      ASSERT_FALSE(reply.empty()) << label << ": no reply to '" << line << "'";
      EXPECT_EQ(reply.find('\n'), reply.size() - 1)
          << label << ": '" << line << "' replied more than one line: '" << reply << "'";
      if (reply.rfind("error: ", 0) == 0) {
        const std::string name = reply.substr(7, reply.find_first_of(":\n", 7) - 7);
        EXPECT_TRUE(IsNamedStatus(name))
            << label << ": '" << line << "' replied an unnamed error: '" << reply << "'";
      } else {
        const bool normal = reply.rfind("record ", 0) == 0 || reply.rfind("records=", 0) == 0 ||
                            reply.rfind("flushed epoch=", 0) == 0 ||
                            reply.rfind("wrote ", 0) == 0;
        EXPECT_TRUE(normal) << label << ": '" << line << "' replied '" << reply << "'";
      }
    }
    if (!more) break;
  }
  EXPECT_TRUE(service->Finish().ok()) << label;
}

// Runs the sweep inside a fresh temporary directory, removed afterwards.
class ServeProtocolSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string templ = ::testing::TempDir();
    if (templ.empty() || templ.back() != '/') templ += '/';
    templ += "serve-protocol-XXXXXX";
    ASSERT_NE(::mkdtemp(templ.data()), nullptr);
    dir_ = templ;
    previous_ = std::filesystem::current_path();
    std::filesystem::current_path(dir_);
  }
  void TearDown() override {
    std::filesystem::current_path(previous_);
    std::filesystem::remove_all(dir_);
  }

 private:
  std::filesystem::path dir_;
  std::filesystem::path previous_;
};

TEST_F(ServeProtocolSweep, RecordedSessionRepliesOneLinePerCommand) {
  ReplaySession(kSession, "recorded session");
  EXPECT_TRUE(std::filesystem::exists("clusters.csv"));
}

TEST_F(ServeProtocolSweep, EveryMutantRepliesOneLineOrANamedError) {
  constexpr uint64_t kMutants = 1200;
  for (uint64_t seed = 0; seed < kMutants; ++seed) {
    ReplaySession(Mutate(kSession, seed), "mutant " + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace crowder
