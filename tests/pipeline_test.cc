// Tests for the staged-pipeline substrate (core/pipeline.h): PairStream's
// budget/spill behavior, the sorted-merge scan's equivalence to SortPairs,
// temp-file hygiene, and the exception/error safety of a streaming machine
// pass whose sink fails mid-stream.
#include <gtest/gtest.h>

#include <dirent.h>
#include <stdlib.h>
#include <unistd.h>

#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "core/stages.h"
#include "core/workflow.h"
#include "data/generators.h"
#include "similarity/parallel_join.h"

namespace crowder {
namespace core {
namespace {

// Points TMPDIR at a fresh directory for the test's lifetime, so the spill
// files a stream creates there can be listed.
class ScopedTmpdir {
 public:
  ScopedTmpdir() {
    const char* old = std::getenv("TMPDIR");
    if (old != nullptr) old_ = old;
    std::string templ = (old_.empty() ? std::string("/tmp") : old_) + "/pipeline-test-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    EXPECT_NE(::mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
    ::setenv("TMPDIR", dir_.c_str(), 1);
  }
  ~ScopedTmpdir() {
    if (old_.empty()) {
      ::unsetenv("TMPDIR");
    } else {
      ::setenv("TMPDIR", old_.c_str(), 1);
    }
    ::rmdir(dir_.c_str());
  }

  // The spill files in the directory now.
  size_t SpillFiles() const {
    size_t count = 0;
    DIR* dir = ::opendir(dir_.c_str());
    if (dir == nullptr) return 0;
    while (const dirent* entry = ::readdir(dir)) {
      if (std::string(entry->d_name).rfind("crowder-spill-", 0) == 0) ++count;
    }
    ::closedir(dir);
    return count;
  }

 private:
  std::string old_;
  std::string dir_;
};

// Random unique pairs, partitioned into sorted blocks — the shape a blocked
// join emits (each block internally (a, b)-sorted, no global order).
std::vector<PairBlock> RandomBlocks(Rng* rng, size_t num_pairs, size_t max_block) {
  std::vector<similarity::ScoredPair> pairs;
  std::set<std::pair<uint32_t, uint32_t>> seen;
  while (pairs.size() < num_pairs) {
    const uint32_t a = static_cast<uint32_t>(rng->Uniform(500));
    const uint32_t b = a + 1 + static_cast<uint32_t>(rng->Uniform(100));
    if (!seen.insert({a, b}).second) continue;
    pairs.push_back({a, b, rng->UniformDouble()});
  }
  rng->Shuffle(&pairs);
  std::vector<PairBlock> blocks;
  size_t pos = 0;
  while (pos < pairs.size()) {
    const size_t take = std::min(pairs.size() - pos, 1 + rng->Uniform(max_block));
    PairBlock block(pairs.begin() + static_cast<ptrdiff_t>(pos),
                    pairs.begin() + static_cast<ptrdiff_t>(pos + take));
    similarity::SortPairs(&block);
    blocks.push_back(std::move(block));
    pos += take;
  }
  return blocks;
}

std::vector<similarity::ScoredPair> Concatenate(const std::vector<PairBlock>& blocks) {
  std::vector<similarity::ScoredPair> all;
  for (const auto& block : blocks) all.insert(all.end(), block.begin(), block.end());
  return all;
}

TEST(PairStreamTest, SortedScanEqualsSortPairsAtAnyBudget) {
  // The core merge property across 60 random block layouts: ScanSorted over
  // any partition — spilled or not — reproduces SortPairs of the
  // concatenation byte for byte. This is the lemma the streaming workflow's
  // byte-identity contract rests on.
  Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t num_pairs = rng.Uniform(300);
    std::vector<PairBlock> blocks = RandomBlocks(&rng, num_pairs, 40);
    std::vector<similarity::ScoredPair> expected = Concatenate(blocks);
    similarity::SortPairs(&expected);

    // Budget 0 (never spills), tiny (spills almost everything), and a
    // middling value (mixed memory/disk sources in one merge).
    for (const uint64_t budget : {uint64_t{0}, uint64_t{64}, uint64_t{1000}}) {
      PairStream stream(budget);
      for (const auto& block : blocks) {
        PairBlock copy = block;
        ASSERT_TRUE(stream.Append(std::move(copy)).ok());
      }
      ASSERT_TRUE(stream.Finish().ok());
      auto sorted = stream.MaterializeSorted();
      ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
      ASSERT_EQ(sorted->size(), expected.size()) << "budget " << budget;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ((*sorted)[i].a, expected[i].a);
        EXPECT_EQ((*sorted)[i].b, expected[i].b);
        EXPECT_EQ((*sorted)[i].score, expected[i].score);
      }
      EXPECT_EQ(stream.num_pairs(), expected.size());
      if (budget > 0 && expected.size() * sizeof(similarity::ScoredPair) > budget) {
        EXPECT_TRUE(stream.spilled());
        EXPECT_LE(stream.memory_bytes(), budget);
      }
    }
  }
}

TEST(PairStreamTest, ScanBatchesRespectBatchSizeAndRepeat) {
  Rng rng(78);
  std::vector<PairBlock> blocks = RandomBlocks(&rng, 200, 37);
  PairStream stream(/*memory_budget_bytes=*/256);  // forces spilling
  for (auto& block : blocks) ASSERT_TRUE(stream.Append(std::move(block)).ok());
  ASSERT_TRUE(stream.Finish().ok());

  for (int pass = 0; pass < 2; ++pass) {  // repeatable scans
    size_t total = 0;
    uint32_t last_a = 0;
    uint32_t last_b = 0;
    bool first = true;
    auto status = stream.ScanSorted(
        [&](const PairBlock& batch) {
          EXPECT_LE(batch.size(), 16u);
          EXPECT_FALSE(batch.empty());
          for (const auto& p : batch) {
            if (!first) {
              EXPECT_TRUE(last_a < p.a || (last_a == p.a && last_b < p.b));
            }
            first = false;
            last_a = p.a;
            last_b = p.b;
            ++total;
          }
          return Status::OK();
        },
        /*batch_pairs=*/16);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(total, stream.num_pairs());
  }
}

TEST(PairStreamTest, SpillFileIsRemovedOnDestruction) {
  ScopedTmpdir tmp;
  {
    PairStream stream(/*memory_budget_bytes=*/16);
    for (uint32_t a = 0; a < 4; ++a) {
      PairBlock block = {{a, 10, 0.5}, {a, 11, 0.25}};  // 32 bytes > budget
      ASSERT_TRUE(stream.Append(std::move(block)).ok());
    }
    ASSERT_TRUE(stream.spilled());
    EXPECT_EQ(tmp.SpillFiles(), 1u);  // every spilled run shares one file
  }
  EXPECT_EQ(tmp.SpillFiles(), 0u);
}

TEST(PairStreamTest, LifecycleErrors) {
  PairStream stream;
  ASSERT_TRUE(stream.Append({{1, 2, 0.5}}).ok());
  EXPECT_TRUE(stream.ScanSorted([](const PairBlock&) { return Status::OK(); })
                  .IsInvalidArgument());  // before Finish
  ASSERT_TRUE(stream.Finish().ok());
  EXPECT_TRUE(stream.Append({{3, 4, 0.5}}).IsInvalidArgument());  // after Finish
  EXPECT_TRUE(stream.Finish().IsInvalidArgument());               // double Finish
}

TEST(PairStreamTest, ConsumerErrorAbortsScanWithThatStatus) {
  Rng rng(79);
  std::vector<PairBlock> blocks = RandomBlocks(&rng, 100, 20);
  PairStream stream(/*memory_budget_bytes=*/128);
  for (auto& block : blocks) ASSERT_TRUE(stream.Append(std::move(block)).ok());
  ASSERT_TRUE(stream.Finish().ok());
  int calls = 0;
  auto status = stream.ScanSorted(
      [&](const PairBlock&) {
        return ++calls == 2 ? Status::Internal("consumer gave up") : Status::OK();
      },
      /*batch_pairs=*/8);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(calls, 2);
  EXPECT_NE(status.ToString().find("consumer gave up"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Failure injection through a real streaming machine pass.
// ---------------------------------------------------------------------------

data::Dataset TinyRestaurant() {
  data::RestaurantConfig config;
  config.num_records = 80;
  config.num_duplicate_pairs = 12;
  config.num_chains = 4;
  config.seed = 4242;
  return data::GenerateRestaurant(config).ValueOrDie();
}

TEST(StreamingFailureTest, SinkStatusErrorAbortsJoinAndStreamStaysSane) {
  const data::Dataset dataset = TinyRestaurant();
  ScopedTmpdir tmp;
  PairStream stream(/*memory_budget_bytes=*/64);  // spill from the first block
  int blocks_seen = 0;
  {
    similarity::JoinInput input = internal::BuildJoinInput(dataset);
    similarity::JoinOptions options;
    options.threshold = 0.3;
    similarity::ParallelJoinOptions exec_options;
    exec_options.block_records = 16;  // many blocks
    auto status = similarity::BlockedAllPairsJoinStream(
        input, options, exec_options, [&](std::vector<similarity::ScoredPair>&& block) {
          auto append = stream.Append(std::move(block));
          if (!append.ok()) return append;
          return ++blocks_seen >= 2 ? Status::Internal("sink out of space") : Status::OK();
        });
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("sink out of space"), std::string::npos);
  }
  EXPECT_EQ(blocks_seen, 2);
  ASSERT_TRUE(stream.spilled());
  EXPECT_EQ(tmp.SpillFiles(), 1u);  // stream still owns its spill
}

TEST(StreamingFailureTest, SinkThrowMidBlockUnwindsAndRemovesSpill) {
  // A sink that throws (rather than returning a Status) mid-stream: the
  // exception must unwind through the blocked join without corrupting
  // anything, and the partially-filled stream's spill file must disappear
  // with it. This is the no-leak guarantee for abandoning a streaming run.
  const data::Dataset dataset = TinyRestaurant();
  ScopedTmpdir tmp;
  size_t spill_files_seen = 0;
  bool threw = false;
  try {
    PairStream stream(/*memory_budget_bytes=*/64);
    similarity::JoinInput input = internal::BuildJoinInput(dataset);
    similarity::JoinOptions options;
    options.threshold = 0.3;
    similarity::ParallelJoinOptions exec_options;
    exec_options.block_records = 16;
    int blocks_seen = 0;
    auto status = similarity::BlockedAllPairsJoinStream(
        input, options, exec_options, [&](std::vector<similarity::ScoredPair>&& block) {
          auto append = stream.Append(std::move(block));
          if (!append.ok()) return append;
          spill_files_seen = tmp.SpillFiles();
          if (++blocks_seen == 2) throw std::runtime_error("sink exploded mid-block");
          return Status::OK();
        });
    (void)status;
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "sink exploded mid-block");
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(spill_files_seen, 1u);
  EXPECT_EQ(tmp.SpillFiles(), 0u);  // ~PairStream ran during unwind
}

}  // namespace
}  // namespace core
}  // namespace crowder
