// Tests for the pluggable crowd boundary (crowd/backend.h) and the JSONL
// vote log (crowd/vote_log.h): the writer/replayer round-trip is exact
// (votes, assignments, statistics — doubles included), and replay failures
// (truncation, mismatch, missing finish record) are DataLoss errors naming
// the offending HIT.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "crowd/async_backend.h"
#include "crowd/backend.h"
#include "common/rng.h"
#include "crowd/vote_log.h"
#include "hitgen/hit.h"

namespace crowder {
namespace crowd {
namespace {

// A tiny fixed world: 8 records in 4 entities, pairs over them.
std::vector<uint32_t> EntityOf() { return {0, 0, 1, 1, 2, 2, 3, 3}; }

std::vector<similarity::ScoredPair> SomePairs() {
  return {{0, 1, 0.9}, {2, 3, 0.8}, {4, 5, 0.7}, {6, 7, 0.6}, {0, 2, 0.4}, {4, 6, 0.3}};
}

std::vector<hitgen::PairBasedHit> PairHits() {
  // Three HITs of two pairs each, covering the six pairs in order.
  std::vector<hitgen::PairBasedHit> hits(3);
  hits[0].pairs = {{0, 1}, {2, 3}};
  hits[1].pairs = {{4, 5}, {6, 7}};
  hits[2].pairs = {{0, 2}, {4, 6}};
  return hits;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Posts the three HITs in two batches through `backend`, returning the
// polled votes (empty on error).
Result<std::vector<VoteBatch>> DriveBatches(CrowdBackend* backend,
                                            const std::vector<similarity::ScoredPair>& pairs,
                                            const std::vector<hitgen::PairBasedHit>& hits) {
  std::vector<hitgen::PairBasedHit> first(hits.begin(), hits.begin() + 2);
  std::vector<hitgen::PairBasedHit> second(hits.begin() + 2, hits.end());
  std::vector<VoteBatch> out;
  HitBatch batch;
  batch.pairs = &pairs;
  batch.first_hit = 0;
  batch.pair_hits = &first;
  CROWDER_ASSIGN_OR_RETURN(Ticket t0, backend->Post(batch));
  CROWDER_ASSIGN_OR_RETURN(VoteBatch v0, backend->Poll(t0));
  out.push_back(std::move(v0));
  batch.first_hit = 2;
  batch.pair_hits = &second;
  CROWDER_ASSIGN_OR_RETURN(Ticket t1, backend->Post(batch));
  CROWDER_ASSIGN_OR_RETURN(VoteBatch v1, backend->Poll(t1));
  out.push_back(std::move(v1));
  return out;
}

TEST(VoteLogTest, RecordThenReplayRoundTripsExactly) {
  const auto entity_of = EntityOf();
  const auto pairs = SomePairs();
  const auto hits = PairHits();
  const std::string path = TempPath("votes_roundtrip.jsonl");

  // Record through the simulated backend's tee.
  auto writer = VoteLogWriter::Create(path).ValueOrDie();
  SimulatedCrowdOptions options;
  options.tee = writer.get();
  auto recorder =
      SimulatedCrowdBackend::Create(CrowdModel{}, 5, entity_of, options).ValueOrDie();
  auto recorded = DriveBatches(recorder.get(), pairs, hits).ValueOrDie();
  auto recorded_stats = recorder->Finish().ValueOrDie();
  ASSERT_TRUE(writer->Close().ok());

  // Replay — deliberately with a different batching (all three HITs at
  // once): the log stores the HIT sequence, not the batch boundaries.
  auto replayer = RecordedCrowdBackend::Open(path).ValueOrDie();
  HitBatch all;
  all.first_hit = 0;
  all.pairs = &pairs;
  all.pair_hits = &hits;
  auto ticket = replayer->Post(all);
  ASSERT_TRUE(ticket.ok());
  auto replayed = replayer->Poll(*ticket).ValueOrDie();
  auto replayed_stats = replayer->Finish().ValueOrDie();

  // Votes: concatenation of the recorded batches, verbatim.
  std::vector<HitVotes> recorded_flat;
  for (const auto& vb : recorded) {
    for (const auto& hv : vb.hit_votes) recorded_flat.push_back(hv);
  }
  ASSERT_EQ(replayed.hit_votes.size(), recorded_flat.size());
  for (size_t h = 0; h < recorded_flat.size(); ++h) {
    EXPECT_EQ(replayed.hit_votes[h].hit, recorded_flat[h].hit);
    ASSERT_EQ(replayed.hit_votes[h].votes.size(), recorded_flat[h].votes.size());
    for (size_t v = 0; v < recorded_flat[h].votes.size(); ++v) {
      const PairVote& a = replayed.hit_votes[h].votes[v];
      const PairVote& b = recorded_flat[h].votes[v];
      EXPECT_EQ(a.a, b.a);
      EXPECT_EQ(a.b, b.b);
      EXPECT_EQ(a.vote.worker_id, b.vote.worker_id);
      EXPECT_EQ(a.vote.says_match, b.vote.says_match);
    }
  }
  // Assignments: bitwise, doubles included (%.17g round trip).
  std::vector<AssignmentRecord> recorded_assignments;
  for (const auto& vb : recorded) {
    recorded_assignments.insert(recorded_assignments.end(), vb.assignments.begin(),
                                vb.assignments.end());
  }
  ASSERT_EQ(replayed.assignments.size(), recorded_assignments.size());
  for (size_t i = 0; i < recorded_assignments.size(); ++i) {
    EXPECT_EQ(replayed.assignments[i].hit, recorded_assignments[i].hit);
    EXPECT_EQ(replayed.assignments[i].worker, recorded_assignments[i].worker);
    EXPECT_EQ(replayed.assignments[i].duration_seconds,
              recorded_assignments[i].duration_seconds);
    EXPECT_EQ(replayed.assignments[i].comparisons, recorded_assignments[i].comparisons);
    EXPECT_EQ(replayed.assignments[i].by_spammer, recorded_assignments[i].by_spammer);
  }
  // Statistics: bitwise.
  EXPECT_EQ(replayed_stats.num_hits, recorded_stats.num_hits);
  EXPECT_EQ(replayed_stats.num_assignments, recorded_stats.num_assignments);
  EXPECT_EQ(replayed_stats.total_comparisons, recorded_stats.total_comparisons);
  EXPECT_EQ(replayed_stats.cost_dollars, recorded_stats.cost_dollars);
  EXPECT_EQ(replayed_stats.total_seconds, recorded_stats.total_seconds);
  EXPECT_EQ(replayed_stats.median_assignment_seconds,
            recorded_stats.median_assignment_seconds);
}

// Writes a recorded log for the fixed world and returns its path.
std::string RecordFixedLog(const std::string& name) {
  const auto entity_of = EntityOf();
  const auto pairs = SomePairs();
  const auto hits = PairHits();
  const std::string path = TempPath(name);
  auto writer = VoteLogWriter::Create(path).ValueOrDie();
  SimulatedCrowdOptions options;
  options.tee = writer.get();
  auto recorder =
      SimulatedCrowdBackend::Create(CrowdModel{}, 5, entity_of, options).ValueOrDie();
  auto batches = DriveBatches(recorder.get(), pairs, hits);
  EXPECT_TRUE(batches.ok());
  EXPECT_TRUE(recorder->Finish().ok());
  EXPECT_TRUE(writer->Close().ok());
  return path;
}

TEST(VoteLogTest, TruncatedLogFailsWithDataLossNamingTheHit) {
  const std::string full = RecordFixedLog("votes_full.jsonl");
  // Keep the header and the first HIT line only.
  const std::string truncated = TempPath("votes_truncated.jsonl");
  {
    std::ifstream in(full);
    std::ofstream out(truncated);
    std::string line;
    for (int i = 0; i < 2 && std::getline(in, line); ++i) out << line << "\n";
  }
  const auto pairs = SomePairs();
  const auto hits = PairHits();
  auto replayer = RecordedCrowdBackend::Open(truncated).ValueOrDie();
  HitBatch all;
  all.pairs = &pairs;
  all.pair_hits = &hits;
  auto ticket = replayer->Post(all).ValueOrDie();
  auto votes = replayer->Poll(ticket);
  ASSERT_FALSE(votes.ok());
  EXPECT_TRUE(votes.status().IsDataLoss()) << votes.status().ToString();
  EXPECT_NE(votes.status().message().find("HIT 1"), std::string::npos)
      << votes.status().ToString();
}

TEST(VoteLogTest, MismatchedHitIdentityFailsWithDataLoss) {
  const std::string path = RecordFixedLog("votes_mismatch.jsonl");
  const auto pairs = SomePairs();
  auto hits = PairHits();
  hits[1].pairs[0] = {0, 1};  // not what was recorded for HIT 1
  auto replayer = RecordedCrowdBackend::Open(path).ValueOrDie();
  HitBatch all;
  all.pairs = &pairs;
  all.pair_hits = &hits;
  auto ticket = replayer->Post(all).ValueOrDie();
  auto votes = replayer->Poll(ticket);
  ASSERT_FALSE(votes.ok());
  EXPECT_TRUE(votes.status().IsDataLoss());
  EXPECT_NE(votes.status().message().find("HIT 1"), std::string::npos)
      << votes.status().ToString();
  EXPECT_NE(votes.status().message().find("pairs differ"), std::string::npos);
}

TEST(VoteLogTest, CorruptVoteRecordIdFailsWithDataLossNotGenericRejection) {
  // Corruption *inside* a vote entry (a record id pointing outside the
  // batch's candidate context) must be classified at the replay boundary as
  // DataLoss — not leak through to the driver's generic bad-transport
  // rejection (which would exit crowder_cli with the wrong code).
  const std::string full = RecordFixedLog("votes_badvote_src.jsonl");
  const std::string corrupted = TempPath("votes_badvote.jsonl");
  {
    std::ifstream in(full);
    std::ofstream out(corrupted);
    std::string line;
    while (std::getline(in, line)) {
      // Rewrite the first vote of HIT 0 to name the non-candidate pair
      // (0,3): "votes":[[0,1,... -> "votes":[[0,3,...
      const std::string needle = "\"votes\":[[0,1,";
      const size_t at = line.find(needle);
      if (at != std::string::npos) line.replace(at, needle.size(), "\"votes\":[[0,3,");
      out << line << "\n";
    }
  }
  const auto pairs = SomePairs();
  const auto hits = PairHits();
  auto replayer = RecordedCrowdBackend::Open(corrupted).ValueOrDie();
  HitBatch all;
  all.pairs = &pairs;
  all.pair_hits = &hits;
  auto ticket = replayer->Post(all).ValueOrDie();
  auto votes = replayer->Poll(ticket);
  ASSERT_FALSE(votes.ok());
  EXPECT_TRUE(votes.status().IsDataLoss()) << votes.status().ToString();
  EXPECT_NE(votes.status().message().find("(0,3)"), std::string::npos)
      << votes.status().ToString();
}

TEST(VoteLogTest, MissingFinishRecordFailsWithDataLoss) {
  const std::string full = RecordFixedLog("votes_nofinish_src.jsonl");
  const std::string headless = TempPath("votes_nofinish.jsonl");
  {
    // Drop the last (finish) line.
    std::ifstream in(full);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    ASSERT_GE(lines.size(), 2u);
    std::ofstream out(headless);
    for (size_t i = 0; i + 1 < lines.size(); ++i) out << lines[i] << "\n";
  }
  const auto pairs = SomePairs();
  const auto hits = PairHits();
  auto replayer = RecordedCrowdBackend::Open(headless).ValueOrDie();
  HitBatch all;
  all.pairs = &pairs;
  all.pair_hits = &hits;
  auto ticket = replayer->Post(all).ValueOrDie();
  ASSERT_TRUE(replayer->Poll(ticket).ok());
  auto finish = replayer->Finish();
  ASSERT_FALSE(finish.ok());
  EXPECT_TRUE(finish.status().IsDataLoss());
  EXPECT_NE(finish.status().message().find("missing finish record"), std::string::npos);
}

TEST(VoteLogTest, NonLogFileFailsToOpen) {
  const std::string path = TempPath("not_a_log.jsonl");
  {
    std::ofstream out(path);
    out << "{\"something\":true}\n";
  }
  auto replayer = RecordedCrowdBackend::Open(path);
  ASSERT_FALSE(replayer.ok());
  EXPECT_TRUE(replayer.status().IsDataLoss());
}

// ---------------------------------------------------------------------------
// Seeded mutation sweep of vote-log replay: the log is hand-parsed JSON read
// from disk, so every corruption must end in a clean Status, never a crash.
// ---------------------------------------------------------------------------

// The recorded run the sweep mutates: a cluster round, then a pair round
// over the same context (a cluster run's repair shape), then the finish
// record — both HIT line kinds in one small log.
struct MixedRun {
  std::vector<uint32_t> entity_of = EntityOf();
  std::vector<similarity::ScoredPair> pairs = SomePairs();
  std::vector<hitgen::ClusterBasedHit> cluster_hits{{{0, 1, 2, 3}}, {{4, 5, 6, 7}}};
  std::vector<hitgen::PairBasedHit> pair_hits = PairHits();

  std::vector<HitBatch> Batches() const {
    HitBatch cluster;
    cluster.pairs = &pairs;
    cluster.cluster_hits = &cluster_hits;
    HitBatch pair;
    pair.first_hit = static_cast<uint32_t>(cluster_hits.size());
    pair.pairs = &pairs;
    pair.pair_hits = &pair_hits;
    return {cluster, pair};
  }
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// Replays `path` against `run`'s batches. OK when the whole log replays;
// otherwise the first error, which must be one of the clean replay codes.
Status ReplayLog(const std::string& path, const MixedRun& run) {
  CROWDER_ASSIGN_OR_RETURN(auto replayer, RecordedCrowdBackend::Open(path));
  for (const HitBatch& batch : run.Batches()) {
    CROWDER_ASSIGN_OR_RETURN(const Ticket ticket, replayer->Post(batch));
    CROWDER_ASSIGN_OR_RETURN(const VoteBatch votes, replayer->Poll(ticket));
  }
  return replayer->Finish().status();
}

// Records `run` under `seed` to `path` through the simulator's tee and
// returns what the recording run saw: its polled batches and statistics.
std::pair<std::vector<VoteBatch>, CrowdRunResult> RecordMixedRun(const MixedRun& run,
                                                                  uint64_t seed,
                                                                  const std::string& path) {
  auto writer = VoteLogWriter::Create(path).ValueOrDie();
  SimulatedCrowdOptions options;
  options.tee = writer.get();
  auto recorder =
      SimulatedCrowdBackend::Create(CrowdModel{}, seed, run.entity_of, options).ValueOrDie();
  std::vector<VoteBatch> batches;
  for (const HitBatch& batch : run.Batches()) {
    batches.push_back(recorder->Poll(recorder->Post(batch).ValueOrDie()).ValueOrDie());
  }
  CrowdRunResult stats = recorder->Finish().ValueOrDie();
  EXPECT_TRUE(writer->Close().ok());
  return {std::move(batches), std::move(stats)};
}

// The committed log: MixedRun recorded under seed 5 by the library whose
// replay still read any JSON. Its bytes pin the format on disk: the writer
// must reproduce them and the replay must read them.
const std::string kCommittedLog = std::string(CROWDER_TEST_DATA_DIR) + "/mixed_run_seed5.jsonl";

TEST(VoteLogTest, CommittedLogReplaysLikeAFreshRecording) {
  const MixedRun run;
  const std::string fresh = TempPath("votes_fresh_seed5.jsonl");
  const auto [recorded, recorded_stats] = RecordMixedRun(run, 5, fresh);
  EXPECT_EQ(ReadFile(fresh), ReadFile(kCommittedLog));  // the writer has not moved

  auto replayer = RecordedCrowdBackend::Open(kCommittedLog).ValueOrDie();
  const std::vector<HitBatch> batches = run.Batches();
  ASSERT_EQ(batches.size(), recorded.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    const VoteBatch replayed = replayer->Poll(replayer->Post(batches[b]).ValueOrDie()).ValueOrDie();
    const VoteBatch& want = recorded[b];
    ASSERT_EQ(replayed.hit_votes.size(), want.hit_votes.size());
    for (size_t h = 0; h < want.hit_votes.size(); ++h) {
      EXPECT_EQ(replayed.hit_votes[h].hit, want.hit_votes[h].hit);
      ASSERT_EQ(replayed.hit_votes[h].votes.size(), want.hit_votes[h].votes.size());
      for (size_t v = 0; v < want.hit_votes[h].votes.size(); ++v) {
        const PairVote& got = replayed.hit_votes[h].votes[v];
        const PairVote& exp = want.hit_votes[h].votes[v];
        EXPECT_EQ(got.a, exp.a);
        EXPECT_EQ(got.b, exp.b);
        EXPECT_EQ(got.vote.worker_id, exp.vote.worker_id);
        EXPECT_EQ(got.vote.says_match, exp.vote.says_match);
      }
    }
    ASSERT_EQ(replayed.assignments.size(), want.assignments.size());
    for (size_t i = 0; i < want.assignments.size(); ++i) {
      EXPECT_EQ(replayed.assignments[i].hit, want.assignments[i].hit);
      EXPECT_EQ(replayed.assignments[i].worker, want.assignments[i].worker);
      EXPECT_EQ(replayed.assignments[i].duration_seconds, want.assignments[i].duration_seconds);
      EXPECT_EQ(replayed.assignments[i].comparisons, want.assignments[i].comparisons);
      EXPECT_EQ(replayed.assignments[i].by_spammer, want.assignments[i].by_spammer);
    }
  }
  const CrowdRunResult stats = replayer->Finish().ValueOrDie();
  EXPECT_EQ(stats.assignments.size(), recorded_stats.assignments.size());
  EXPECT_EQ(stats.num_hits, recorded_stats.num_hits);
  EXPECT_EQ(stats.num_assignments, recorded_stats.num_assignments);
  EXPECT_EQ(stats.total_comparisons, recorded_stats.total_comparisons);
  EXPECT_EQ(stats.num_distinct_workers, recorded_stats.num_distinct_workers);
  EXPECT_EQ(stats.num_spammer_assignments, recorded_stats.num_spammer_assignments);
  EXPECT_EQ(stats.median_assignment_seconds, recorded_stats.median_assignment_seconds);
  EXPECT_EQ(stats.total_seconds, recorded_stats.total_seconds);
  EXPECT_EQ(stats.cost_dollars, recorded_stats.cost_dollars);
  // The world exercises both flags and a worker on two HITs.
  EXPECT_GT(recorded_stats.num_spammer_assignments, 0u);
  EXPECT_LT(recorded_stats.num_distinct_workers, recorded_stats.num_assignments);
}

// The committed log with `edit` applied to line `line` (0 = the header),
// written to a temporary file whose path is returned.
std::string EditedLog(size_t line, const std::function<std::string(std::string)>& edit) {
  std::vector<std::string> lines;
  std::istringstream in(ReadFile(kCommittedLog));
  for (std::string l; std::getline(in, l);) lines.push_back(l);
  lines.at(line) = edit(lines.at(line));
  const std::string path = TempPath("votes_edited.jsonl");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const std::string& l : lines) out << l << "\n";
  return path;
}

TEST(VoteLogTest, LinesTheWriterNeverEmitsAreDataLossNamingTheHit) {
  const MixedRun run;
  // HIT 3's line: {"hit":3,"pairs":[...],"votes":[[4,5,147,1],...],"assignments":[...]}
  const std::vector<std::pair<std::string, std::function<std::string(std::string)>>> edits = {
      {"a space after a comma",
       [](std::string l) { return l.replace(l.find("],[") + 2, 0, " "); }},
      {"reordered keys",
       [](std::string l) {
         const size_t pairs = l.find(",\"pairs\":");
         const size_t votes = l.find(",\"votes\":");
         const size_t assignments = l.find(",\"assignments\":");
         return l.substr(0, pairs) + l.substr(votes, assignments - votes) +
                l.substr(pairs, votes - pairs) + l.substr(assignments);
       }},
      {"a vote flag of 2",
       [](std::string l) {
         const std::string vote = "[4,5,147,1]";
         return l.replace(l.find(vote), vote.size(), "[4,5,147,2]");
       }},
      {"bytes after the closing brace", [](std::string l) { return l + "{}"; }},
  };
  for (const auto& [what, edit] : edits) {
    SCOPED_TRACE(what);
    const std::string path = EditedLog(4, edit);
    ASSERT_NE(ReadFile(path), ReadFile(kCommittedLog));
    const Status status = ReplayLog(path, run);
    EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
    EXPECT_NE(status.message().find("at HIT 3"), std::string::npos) << status.ToString();
  }
}

TEST(VoteLogTest, HitOfTheOtherKindIsAMismatchNamingTheHit) {
  // The committed log opens with a cluster HIT; a run posting pair HITs
  // there replays a different HIT sequence.
  const MixedRun run;
  HitBatch pairs_first;
  pairs_first.pairs = &run.pairs;
  pairs_first.pair_hits = &run.pair_hits;
  auto replayer = RecordedCrowdBackend::Open(kCommittedLog).ValueOrDie();
  const auto votes = replayer->Poll(replayer->Post(pairs_first).ValueOrDie());
  ASSERT_FALSE(votes.ok());
  EXPECT_TRUE(votes.status().IsDataLoss()) << votes.status().ToString();
  EXPECT_NE(votes.status().message().find("mismatch at HIT 0: recorded a cluster HIT"),
            std::string::npos)
      << votes.status().ToString();
}

TEST(VoteLogTest, FinishRecordMustAgreeWithTheReplayedHits) {
  const MixedRun run;
  ASSERT_TRUE(ReplayLog(kCommittedLog, run).ok());
  const std::string path = EditedLog(6, [](std::string l) {
    const std::string workers = "\"num_distinct_workers\":13";
    return l.replace(l.find(workers), workers.size(), "\"num_distinct_workers\":14");
  });
  const Status status = ReplayLog(path, run);
  EXPECT_TRUE(status.IsDataLoss()) << status.ToString();
  EXPECT_NE(status.message().find("finish record"), std::string::npos) << status.ToString();
}

// One deterministic mutation of `log`: truncate at a byte, flip a bit,
// splice the head of one line onto the tail of another, or swap a number
// for a hostile literal.
std::string Mutate(const std::string& log, uint64_t seed) {
  static const char* const kHostile[] = {
      "-1",   "-0",   "1e300", "4294967296", "18446744073709551616", "1e999", "-1e999",
      "inf",  "nan",  "NaN",   "1.5",        "9007199254740993",     "-4294967297"};
  Rng rng(seed);
  std::string out = log;
  switch (seed % 4) {
    case 0:
      out.resize(rng.Uniform(log.size()));
      break;
    case 1:
      out[rng.Uniform(out.size())] ^= static_cast<char>(1u << rng.Uniform(8));
      break;
    case 2: {
      std::vector<size_t> starts{0};
      for (size_t i = 0; i + 1 < log.size(); ++i) {
        if (log[i] == '\n') starts.push_back(i + 1);
      }
      const size_t x = starts[rng.Uniform(starts.size())];
      const size_t y = starts[rng.Uniform(starts.size())];
      const size_t x_end = log.find('\n', x);
      const size_t y_end = log.find('\n', y);
      const size_t cut = x + rng.Uniform(x_end - x + 1);
      const size_t resume = y + rng.Uniform(y_end - y + 1);
      out = log.substr(0, cut) + log.substr(resume, y_end - resume) + log.substr(x_end);
      break;
    }
    default: {
      std::vector<std::pair<size_t, size_t>> numbers;  // (begin, length)
      for (size_t i = 0; i < log.size();) {
        if (std::isdigit(static_cast<unsigned char>(log[i])) == 0) {
          ++i;
          continue;
        }
        size_t j = i;
        while (j < log.size() && (std::isdigit(static_cast<unsigned char>(log[j])) != 0 ||
                                  log[j] == '.' || log[j] == 'e' || log[j] == '-')) {
          ++j;
        }
        numbers.emplace_back(i, j - i);
        i = j;
      }
      const auto [begin, length] = numbers[rng.Uniform(numbers.size())];
      out.replace(begin, length, kHostile[rng.Uniform(std::size(kHostile))]);
    }
  }
  return out;
}

TEST(VoteLogMutationSweep, EveryMutationReplaysOrFailsCleanly) {
  const MixedRun run;
  const std::string recorded = TempPath("votes_mutation_base.jsonl");
  {
    auto writer = VoteLogWriter::Create(recorded).ValueOrDie();
    SimulatedCrowdOptions options;
    options.tee = writer.get();
    auto recorder =
        SimulatedCrowdBackend::Create(CrowdModel{}, 11, run.entity_of, options).ValueOrDie();
    for (const HitBatch& batch : run.Batches()) {
      ASSERT_TRUE(recorder->Poll(recorder->Post(batch).ValueOrDie()).ok());
    }
    ASSERT_TRUE(recorder->Finish().ok());
    ASSERT_TRUE(writer->Close().ok());
  }
  const std::string log = ReadFile(recorded);
  ASSERT_NE(log.find("\"records\""), std::string::npos);
  ASSERT_NE(log.find("\"pairs\""), std::string::npos);
  ASSERT_TRUE(ReplayLog(recorded, run).ok());

  const std::string path = TempPath("votes_mutated.jsonl");
  constexpr uint64_t kMutations = 1200;
  uint64_t replayed = 0;
  for (uint64_t seed = 0; seed < kMutations; ++seed) {
    const std::string mutated = Mutate(log, seed);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    const Status status = ReplayLog(path, run);
    if (status.ok()) {
      ++replayed;
      continue;
    }
    EXPECT_TRUE(status.IsDataLoss() || status.IsInvalidArgument() || status.IsIOError())
        << "seed " << seed << ": " << status.ToString() << "\n" << mutated;
  }
  // Both outcomes occur: the sweep is neither vacuous nor all-rejecting.
  EXPECT_GT(replayed, 0u);
  EXPECT_LT(replayed, kMutations);

  // No line nests deeper than three, so a line of brackets must fail
  // cleanly instead of recursing until the stack runs out.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << log.substr(0, log.find('\n') + 1) << std::string(1 << 20, '[') << "\n";
  }
  EXPECT_TRUE(ReplayLog(path, run).IsDataLoss());
}

TEST(CallbackCrowdBackendTest, AccumulatesStatsAndEnforcesProtocol) {
  const auto pairs = SomePairs();
  const auto hits = PairHits();
  CallbackCrowdBackend backend([](const HitBatch& batch) -> Result<VoteBatch> {
    VoteBatch votes;
    for (size_t i = 0; i < batch.pair_hits->size(); ++i) {
      AssignmentRecord rec;
      rec.hit = batch.first_hit + static_cast<uint32_t>(i);
      rec.worker = static_cast<uint32_t>(i % 2);
      rec.duration_seconds = 2.0 + static_cast<double>(i);
      votes.assignments.push_back(rec);
    }
    return votes;
  });

  HitBatch all;
  all.pairs = &pairs;
  all.pair_hits = &hits;
  auto ticket = backend.Post(all).ValueOrDie();
  // Post again before polling: one outstanding ticket at a time.
  EXPECT_TRUE(backend.Post(all).status().IsInvalidArgument());
  ASSERT_TRUE(backend.Poll(ticket).ok());
  EXPECT_TRUE(backend.Poll(ticket).status().IsInvalidArgument());  // already polled

  auto stats = backend.Finish().ValueOrDie();
  EXPECT_EQ(stats.num_hits, 3u);
  EXPECT_EQ(stats.num_assignments, 3u);
  EXPECT_EQ(stats.num_distinct_workers, 2u);
  EXPECT_EQ(stats.median_assignment_seconds, 3.0);
  EXPECT_EQ(stats.cost_dollars, 0.0);
}

// ---------------------------------------------------------------------------
// AsyncCrowdBackend: the hostile-transport adapter at the backend boundary.
// ---------------------------------------------------------------------------

TEST(AsyncCrowdBackendTest, DeliversTheInnerBackendsVoteSetInPieces) {
  const auto entity_of = EntityOf();
  const auto pairs = SomePairs();
  const auto hits = PairHits();
  const CrowdModel model;
  const uint64_t seed = 77;

  // Reference: the synchronous backend's single complete batch.
  auto sync = SimulatedCrowdBackend::Create(model, seed, entity_of).ValueOrDie();
  HitBatch batch;
  batch.first_hit = 0;
  batch.pairs = &pairs;
  batch.pair_hits = &hits;
  auto sync_votes = sync->Poll(sync->Post(batch).ValueOrDie()).ValueOrDie();
  EXPECT_TRUE(sync_votes.complete);  // the synchronous default

  // The same crowd behind the async adapter, one HIT per poll.
  auto inner = SimulatedCrowdBackend::Create(model, seed, entity_of).ValueOrDie();
  AsyncCrowdOptions options;
  options.hits_per_poll = 1;
  AsyncCrowdBackend async(inner.get(), model, seed, options);
  const Ticket ticket = async.Post(batch).ValueOrDie();

  std::vector<HitVotes> delivered;
  size_t polls = 0;
  bool complete = false;
  while (!complete) {
    VoteBatch piece = async.Poll(ticket).ValueOrDie();
    ++polls;
    complete = piece.complete;
    for (HitVotes& hv : piece.hit_votes) delivered.push_back(std::move(hv));
  }
  EXPECT_EQ(polls, hits.size());  // one HIT per poll, partial until the last

  // Every HIT arrives exactly once, votes identical to the synchronous run.
  ASSERT_EQ(delivered.size(), sync_votes.hit_votes.size());
  std::sort(delivered.begin(), delivered.end(),
            [](const HitVotes& x, const HitVotes& y) { return x.hit < y.hit; });
  for (size_t i = 0; i < delivered.size(); ++i) {
    const HitVotes& got = delivered[i];
    const HitVotes& want = sync_votes.hit_votes[i];
    ASSERT_EQ(got.hit, want.hit);
    ASSERT_EQ(got.votes.size(), want.votes.size());
    for (size_t v = 0; v < want.votes.size(); ++v) {
      EXPECT_EQ(got.votes[v].a, want.votes[v].a);
      EXPECT_EQ(got.votes[v].b, want.votes[v].b);
      EXPECT_EQ(got.votes[v].vote.worker_id, want.votes[v].vote.worker_id);
      EXPECT_EQ(got.votes[v].vote.says_match, want.votes[v].vote.says_match);
    }
  }

  // Finish forwards to the inner backend once everything is delivered.
  EXPECT_TRUE(async.Finish().ok());
}

TEST(AsyncCrowdBackendTest, FinishBeforeFullDeliveryIsRejected) {
  const auto entity_of = EntityOf();
  const auto pairs = SomePairs();
  const auto hits = PairHits();
  const CrowdModel model;
  auto inner = SimulatedCrowdBackend::Create(model, 5, entity_of).ValueOrDie();
  AsyncCrowdOptions options;
  options.hits_per_poll = 1;
  AsyncCrowdBackend async(inner.get(), model, 5, options);

  HitBatch batch;
  batch.first_hit = 0;
  batch.pairs = &pairs;
  batch.pair_hits = &hits;
  const Ticket ticket = async.Post(batch).ValueOrDie();
  ASSERT_FALSE(async.Poll(ticket).ValueOrDie().complete);

  // Undelivered votes outstanding: a vote "arriving after Finish" can not
  // exist, because Finish refuses while the transport still owes votes.
  auto finish = async.Finish();
  ASSERT_FALSE(finish.ok());
  EXPECT_NE(finish.status().message().find("undelivered"), std::string::npos);

  // Polling the round to completion unblocks Finish.
  while (!async.Poll(ticket).ValueOrDie().complete) {
  }
  EXPECT_TRUE(async.Finish().ok());
}

TEST(AsyncCrowdBackendTest, DeterministicGivenSeed) {
  const auto entity_of = EntityOf();
  const auto pairs = SomePairs();
  const auto hits = PairHits();
  const CrowdModel model;
  HitBatch batch;
  batch.first_hit = 0;
  batch.pairs = &pairs;
  batch.pair_hits = &hits;

  auto run = [&](uint64_t seed) {
    auto inner = SimulatedCrowdBackend::Create(model, seed, entity_of).ValueOrDie();
    AsyncCrowdBackend async(inner.get(), model, seed);
    const Ticket ticket = async.Post(batch).ValueOrDie();
    std::vector<uint32_t> order;
    bool complete = false;
    while (!complete) {
      VoteBatch piece = async.Poll(ticket).ValueOrDie();
      complete = piece.complete;
      for (const HitVotes& hv : piece.hit_votes) order.push_back(hv.hit);
    }
    return order;
  };

  EXPECT_EQ(run(123), run(123));  // same seed, same delivery order
}

}  // namespace
}  // namespace crowd
}  // namespace crowder
