// Property sweep for the sharded runtime (src/shard/): the ownership lemma,
// the merge-identity contract, the wire protocol, and the failure paths.
//
//   * Plan properties — over random inputs, the owned bands partition the
//     by_size order, every qualifying pair (brute-forced with NaiveJoin) is
//     owned by exactly one shard, and that shard holds the pair's earlier
//     endpoint in its replica or owned band.
//   * Merge identity — RunShardedJoin through the in-process transport fed
//     into a core::PairStream produces, at shards {1, 2, 4, 7} across a
//     positive Jaccard-threshold grid, a sorted pair list
//     bitwise identical to single-process AllPairsJoin (same pairs, same
//     IEEE-754 score bits).
//   * Protocol — encode/decode round trips for every frame type; corrupt
//     frames (truncated, trailing bytes, bad magic/version, a stale
//     protocol-1 spec) are rejected.
//   * Failure paths — a worker that reports an error, a transport that dies
//     mid-stream, and a subprocess worker that exits without results all
//     surface as a clean Status naming the shard, with no hang and no
//     zombie; a frame header declaring a huge payload is not allocated
//     before its bytes arrive, nor are tables sized by a huge token id; a
//     returned pair outside the input or out of order is an error naming
//     the shard.
//   * Mutation sweeps — seeded mutants of recorded job and result streams
//     end, on the worker side, in a terminal frame, and on the coordinator
//     side in OK or a named error: never a crash, a hang or an unbounded
//     allocation.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "core/workflow.h"
#include "data/dataset.h"
#include "shard/coordinator.h"
#include "shard/plan.h"
#include "shard/proto.h"
#include "shard/transport.h"
#include "shard/worker.h"
#include "similarity/similarity_join.h"

namespace crowder {
namespace shard {
namespace {

using similarity::JoinInput;
using similarity::JoinOptions;
using similarity::ScoredPair;
using similarity::SetMeasure;

struct RandomCase {
  uint64_t seed = 0;
  size_t n = 0;
  uint32_t vocab = 0;
  size_t max_len = 0;
  bool allow_empty_sets = false;
  bool two_sources = false;
  double threshold = 0.3;

  std::string Describe() const {
    return "seed=" + std::to_string(seed) + " n=" + std::to_string(n) +
           " vocab=" + std::to_string(vocab) + " max_len=" + std::to_string(max_len) +
           " empty=" + std::to_string(allow_empty_sets) +
           " two_sources=" + std::to_string(two_sources) +
           " threshold=" + std::to_string(threshold);
  }
};

RandomCase DrawCase(Rng* rng) {
  // Positive thresholds only: the sharded runtime refuses threshold <= 0 by
  // contract (prefix filtering degenerates there).
  static const double kThresholds[] = {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1.0};
  RandomCase c;
  c.seed = rng->Next64();
  c.n = 8 + rng->Uniform(96);
  c.vocab = 4 + static_cast<uint32_t>(rng->Uniform(120));
  c.max_len = 1 + rng->Uniform(12);
  c.allow_empty_sets = rng->Uniform(4) == 0;
  c.two_sources = rng->Uniform(2) == 0;
  c.threshold = kThresholds[rng->Uniform(sizeof(kThresholds) / sizeof(kThresholds[0]))];
  return c;
}

JoinInput GenerateInput(const RandomCase& c) {
  Rng rng(c.seed);
  JoinInput input;
  input.sets.reserve(c.n);
  for (size_t i = 0; i < c.n; ++i) {
    std::vector<text::TokenId> tokens;
    const size_t min_len = c.allow_empty_sets ? 0 : 1;
    const size_t len = min_len + rng.Uniform(c.max_len + 1 - min_len);
    for (size_t t = 0; t < len; ++t) {
      tokens.push_back(static_cast<text::TokenId>(rng.Zipf(c.vocab, 0.9)));
    }
    input.sets.push_back(similarity::MakeTokenSet(std::move(tokens)));
    if (c.two_sources) input.sources.push_back(static_cast<int>(rng.Uniform(2)));
  }
  return input;
}

JoinOptions OptionsOf(const RandomCase& c) {
  JoinOptions options;
  options.threshold = c.threshold;
  return options;
}

/// Runs the sharded join through the in-process transport and merges the
/// blocks the way production does: core::PairStream + MaterializeSorted.
/// Also asserts the sink-side block contract (internally sorted).
Result<std::vector<ScoredPair>> RunShardedMerged(const JoinInput& input,
                                                 const JoinOptions& options,
                                                 uint32_t num_shards,
                                                 ShardRunStats* stats) {
  ShardExecOptions exec;
  exec.num_shards = num_shards;
  core::PairStream stream;
  CROWDER_RETURN_NOT_OK(RunShardedJoin(
      input, options, exec,
      [&](std::vector<ScoredPair>&& block) {
        for (size_t i = 1; i < block.size(); ++i) {
          const bool sorted = block[i - 1].a < block[i].a ||
                              (block[i - 1].a == block[i].a && block[i - 1].b < block[i].b);
          if (!sorted) return Status::Internal("sink block not internally sorted");
        }
        return stream.Append(std::move(block));
      },
      stats));
  CROWDER_RETURN_NOT_OK(stream.Finish());
  return stream.MaterializeSorted();
}

TEST(ShardPlanProperty, BandsPartitionAndPairsAreOwnedOnce) {
  Rng master(20260808);
  constexpr int kCases = 60;
  static const uint32_t kShards[] = {1, 2, 4, 7};
  for (int i = 0; i < kCases; ++i) {
    const RandomCase c = DrawCase(&master);
    const JoinInput input = GenerateInput(c);
    const JoinOptions options = OptionsOf(c);
    const uint32_t num_shards = kShards[i % 4];
    const std::string context =
        "case " + std::to_string(i) + " shards=" + std::to_string(num_shards) + ": " +
        c.Describe();

    auto plan = BuildShardPlan(input, options, num_shards);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString() << "; " << context;
    ASSERT_EQ(plan->by_size.size(), input.sets.size()) << context;
    ASSERT_EQ(plan->shards.size(), num_shards) << context;

    // by_size is the join's canonical order: non-decreasing size, ties by id.
    for (size_t p = 1; p < plan->by_size.size(); ++p) {
      const size_t prev = input.sets[plan->by_size[p - 1]].size();
      const size_t cur = input.sets[plan->by_size[p]].size();
      ASSERT_TRUE(prev < cur || (prev == cur && plan->by_size[p - 1] < plan->by_size[p]))
          << "by_size order broken at position " << p << "; " << context;
    }

    // Owned bands partition [0, n); replicas sit directly below their band.
    uint64_t expect_begin = 0;
    for (uint32_t s = 0; s < num_shards; ++s) {
      const ShardAssignment& a = plan->shards[s];
      ASSERT_EQ(a.owned_begin, expect_begin) << "band gap at shard " << s << "; " << context;
      ASSERT_LE(a.owned_begin, a.owned_end) << context;
      ASSERT_LE(a.replica_begin, a.owned_begin) << context;
      expect_begin = a.owned_end;
    }
    ASSERT_EQ(expect_begin, input.sets.size()) << "bands do not cover [0, n); " << context;

    // Every record owned exactly once is structural (contiguous partition);
    // OwnerOfPosition must agree with the bands.
    std::vector<uint64_t> position_of(input.sets.size());
    for (uint64_t p = 0; p < plan->by_size.size(); ++p) {
      position_of[plan->by_size[p]] = p;
      const uint32_t owner = plan->OwnerOfPosition(p);
      ASSERT_LT(owner, num_shards) << context;
      ASSERT_GE(p, plan->shards[owner].owned_begin) << context;
      ASSERT_LT(p, plan->shards[owner].owned_end) << context;
    }

    // The lemma against brute force: for every qualifying pair, the owner of
    // the later endpoint holds the earlier endpoint in its shipped range.
    auto truth = similarity::NaiveJoin(input, options);
    ASSERT_TRUE(truth.ok()) << context;
    for (const ScoredPair& pair : *truth) {
      const uint64_t pa = position_of[pair.a];
      const uint64_t pb = position_of[pair.b];
      const uint64_t later = std::max(pa, pb);
      const uint64_t earlier = std::min(pa, pb);
      const uint32_t owner = plan->OwnerOfPosition(later);
      ASSERT_GE(earlier, plan->shards[owner].replica_begin)
          << "earlier endpoint of (" << pair.a << "," << pair.b
          << ") missing from owner shard " << owner << "; " << context;
    }
  }
}

TEST(ShardJoinProperty, MergedOutputBitwiseEqualsAllPairsJoin) {
  Rng master(77001);
  constexpr int kCases = 40;
  static const uint32_t kShards[] = {1, 2, 4, 7};
  for (int i = 0; i < kCases; ++i) {
    const RandomCase c = DrawCase(&master);
    const JoinInput input = GenerateInput(c);
    const JoinOptions options = OptionsOf(c);
    auto serial = similarity::AllPairsJoin(input, options);
    ASSERT_TRUE(serial.ok());
    for (uint32_t num_shards : kShards) {
      const std::string context =
          "case " + std::to_string(i) + " shards=" + std::to_string(num_shards) + ": " +
          c.Describe();
      ShardRunStats stats;
      auto merged = RunShardedMerged(input, options, num_shards, &stats);
      ASSERT_TRUE(merged.ok()) << merged.status().ToString() << "; " << context;
      ASSERT_EQ(serial->size(), merged->size()) << context;
      for (size_t p = 0; p < serial->size(); ++p) {
        ASSERT_EQ((*serial)[p].a, (*merged)[p].a) << "pair " << p << "; " << context;
        ASSERT_EQ((*serial)[p].b, (*merged)[p].b) << "pair " << p << "; " << context;
        ASSERT_EQ((*serial)[p].score, (*merged)[p].score)  // bitwise, not near
            << "score of pair " << p << "; " << context;
      }
      // Stats must be consistent with the output and the plan.
      ASSERT_EQ(stats.shards.size(), num_shards) << context;
      ASSERT_EQ(stats.total_pairs, merged->size()) << context;
      ASSERT_FALSE(stats.subprocess) << context;
      uint64_t owned = 0;
      uint64_t pairs = 0;
      for (const WorkerStats& ws : stats.shards) {
        owned += ws.owned_records;
        pairs += ws.num_pairs;
      }
      ASSERT_EQ(owned, input.sets.size()) << context;
      ASSERT_EQ(pairs, merged->size()) << context;
    }
  }
}

TEST(ShardJoinProperty, DegenerateInputs) {
  JoinOptions options;
  options.threshold = 0.5;
  // Empty input, one record, fewer records than shards: all must merge to
  // the (empty) single-process result without error.
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}}) {
    JoinInput input;
    for (size_t i = 0; i < n; ++i) {
      input.sets.push_back(similarity::MakeTokenSet({static_cast<text::TokenId>(i)}));
    }
    auto serial = similarity::AllPairsJoin(input, options);
    ASSERT_TRUE(serial.ok());
    ShardRunStats stats;
    auto merged = RunShardedMerged(input, options, 7, &stats);
    ASSERT_TRUE(merged.ok()) << "n=" << n << ": " << merged.status().ToString();
    EXPECT_EQ(serial->size(), merged->size()) << "n=" << n;
  }
}

TEST(ShardJoin, RefusesInvalidConfigurations) {
  JoinInput input;
  input.sets.push_back(similarity::MakeTokenSet({1, 2}));
  JoinOptions options;
  options.threshold = 0.5;
  const auto sink = [](std::vector<ScoredPair>&&) { return Status::OK(); };

  ShardExecOptions zero_shards;
  zero_shards.num_shards = 0;
  EXPECT_TRUE(RunShardedJoin(input, options, zero_shards, sink, nullptr).IsInvalidArgument());

  ShardExecOptions exec;
  exec.num_shards = 2;
  JoinOptions zero_threshold;
  zero_threshold.threshold = 0.0;
  EXPECT_TRUE(RunShardedJoin(input, zero_threshold, exec, sink, nullptr).IsInvalidArgument());
}

// ---- Wire protocol ---------------------------------------------------------

TEST(ShardProto, RoundTripsEveryFrameType) {
  JobSpec spec;
  spec.shard_index = 3;
  spec.num_shards = 7;
  spec.threshold = 0.37;
  spec.has_sources = true;
  spec.num_records = (uint64_t{1} << 33) + 5;  // 64-bit field, past 2^32
  auto spec2 = DecodeJobSpec(EncodeJobSpec(spec));
  ASSERT_TRUE(spec2.ok());
  EXPECT_EQ(spec2->shard_index, spec.shard_index);
  EXPECT_EQ(spec2->num_shards, spec.num_shards);
  EXPECT_EQ(spec2->threshold, spec.threshold);  // bitwise
  EXPECT_EQ(spec2->has_sources, spec.has_sources);
  EXPECT_EQ(spec2->num_records, spec.num_records);

  std::vector<RecordEntry> entries(2);
  entries[0].global_id = 42;
  entries[0].position = (uint64_t{1} << 32) + 7;  // position is 64-bit
  entries[0].owned = true;
  entries[0].source = -1;
  entries[0].tokens = similarity::MakeTokenSet({5, 9, 1000000});
  entries[1].global_id = 7;
  entries[1].position = (uint64_t{1} << 32) + 8;
  entries[1].owned = false;
  entries[1].source = 1;
  auto batch = DecodeRecordBatch(EncodeRecordBatch(entries, 0, entries.size()));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ((*batch)[0].global_id, 42u);
  EXPECT_EQ((*batch)[0].position, entries[0].position);
  EXPECT_TRUE((*batch)[0].owned);
  EXPECT_EQ((*batch)[0].source, -1);
  EXPECT_EQ((*batch)[0].tokens, entries[0].tokens);
  EXPECT_FALSE((*batch)[1].owned);

  std::vector<ScoredPair> pairs = {{1, 2, 0.75}, {3, 4, 1.0 / 3.0}};
  auto pairs2 = DecodePairBatch(EncodePairBatch(pairs, 0, pairs.size()));
  ASSERT_TRUE(pairs2.ok());
  ASSERT_EQ(pairs2->size(), 2u);
  EXPECT_EQ((*pairs2)[1].a, 3u);
  EXPECT_EQ((*pairs2)[1].score, 1.0 / 3.0);  // bitwise

  WorkerStats stats;
  stats.num_pairs = (uint64_t{1} << 35) + 1;  // pair counters are 64-bit
  stats.pair_verifications = uint64_t{1} << 36;
  stats.owned_records = 12;
  stats.replica_records = 4;
  stats.wall_ms = 1.5;
  stats.cpu_ms = 0.5;
  stats.max_rss_kb = 12345;
  auto stats2 = DecodeWorkerDone(EncodeWorkerDone(stats));
  ASSERT_TRUE(stats2.ok());
  EXPECT_EQ(stats2->num_pairs, stats.num_pairs);
  EXPECT_EQ(stats2->pair_verifications, stats.pair_verifications);
  EXPECT_EQ(stats2->max_rss_kb, stats.max_rss_kb);

  WorkerError error;
  error.code = StatusCode::kInvalidArgument;
  error.message = "sizes out of order";
  auto error2 = DecodeWorkerError(EncodeWorkerError(error));
  ASSERT_TRUE(error2.ok());
  EXPECT_EQ(error2->code, StatusCode::kInvalidArgument);
  EXPECT_EQ(error2->message, error.message);
}

// Little-endian payload builders for hand-made hostile frames.
void AppendLe(std::vector<uint8_t>* out, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

Frame RawFrame(FrameType type, std::vector<uint8_t> payload) {
  Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  return frame;
}

TEST(ShardProto, RejectsCorruptFrames) {
  JobSpec spec;
  spec.threshold = 0.5;
  Frame good = EncodeJobSpec(spec);

  Frame truncated = good;
  truncated.payload.pop_back();
  EXPECT_FALSE(DecodeJobSpec(truncated).ok());

  Frame trailing = good;
  trailing.payload.push_back(0);
  EXPECT_FALSE(DecodeJobSpec(trailing).ok());

  Frame bad_magic = good;
  bad_magic.payload[0] ^= 0xFF;
  EXPECT_FALSE(DecodeJobSpec(bad_magic).ok());

  Frame bad_version = good;
  bad_version.payload[4] ^= 0xFF;
  EXPECT_FALSE(DecodeJobSpec(bad_version).ok());

  // A spec in the protocol-1 layout, which carried a u32 set measure after
  // the shard count, from a stale peer: refused by version, naming both.
  const double threshold = 0.5;
  uint64_t threshold_bits = 0;
  std::memcpy(&threshold_bits, &threshold, sizeof(threshold));
  std::vector<uint8_t> v1;
  AppendLe(&v1, kShardMagic, 4);
  AppendLe(&v1, 1, 4);  // protocol version
  AppendLe(&v1, 0, 4);  // shard index
  AppendLe(&v1, 1, 4);  // shard count
  AppendLe(&v1, 0, 4);  // set measure
  AppendLe(&v1, threshold_bits, 8);
  AppendLe(&v1, 0, 1);  // source-label flag
  AppendLe(&v1, 2, 8);  // record count
  const Status stale = DecodeJobSpec(RawFrame(FrameType::kJobSpec, v1)).status();
  EXPECT_TRUE(stale.IsIOError()) << stale.ToString();
  EXPECT_NE(stale.message().find("peer speaks 1"), std::string::npos) << stale.ToString();
  EXPECT_NE(stale.message().find("this binary speaks 2"), std::string::npos)
      << stale.ToString();

  // A record batch whose declared count overruns the payload.
  std::vector<RecordEntry> entries(1);
  entries[0].tokens = similarity::MakeTokenSet({1, 2, 3});
  Frame batch = EncodeRecordBatch(entries, 0, 1);
  batch.payload[0] = 200;  // count u32 at offset 0
  EXPECT_FALSE(DecodeRecordBatch(batch).ok());

  Frame empty_pairs;
  empty_pairs.type = FrameType::kPairBatch;
  EXPECT_FALSE(DecodePairBatch(empty_pairs).ok());
}

TEST(ShardProto, HostileCountsFailBeforeAllocating) {
  // A 4-byte record batch claiming 2^32 - 1 records: rejected before
  // reserving room for them.
  const Frame many_records = RawFrame(FrameType::kRecordBatch, {0xff, 0xff, 0xff, 0xff});
  EXPECT_TRUE(DecodeRecordBatch(many_records).status().IsIOError());

  // One record entry claiming 2^32 - 1 tokens, with none following.
  std::vector<uint8_t> entry;
  AppendLe(&entry, 1, 4);           // record count
  AppendLe(&entry, 0, 4);           // global id
  AppendLe(&entry, 0, 8);           // position
  AppendLe(&entry, 1, 1);           // owned
  AppendLe(&entry, 0, 4);           // source
  AppendLe(&entry, 0xffffffff, 4);  // token count
  EXPECT_TRUE(DecodeRecordBatch(RawFrame(FrameType::kRecordBatch, entry)).status().IsIOError());

  // A pair batch whose count * 16 wraps around to the 16 bytes present.
  std::vector<uint8_t> pairs;
  AppendLe(&pairs, (uint64_t{1} << 60) + 1, 8);
  pairs.resize(pairs.size() + 16, 0);
  EXPECT_TRUE(DecodePairBatch(RawFrame(FrameType::kPairBatch, pairs)).status().IsIOError());

  // Unknown status codes in a worker error.
  for (uint32_t code : {0u, 11u, 0xffffffffu}) {
    std::vector<uint8_t> error;
    AppendLe(&error, code, 4);
    AppendLe(&error, 0, 4);  // empty message
    EXPECT_TRUE(DecodeWorkerError(RawFrame(FrameType::kWorkerError, error)).status().IsIOError())
        << code;
  }
}

// Sanitizer shadow memory needs more address space than an RLIMIT_AS cap
// leaves, so the capped test below only runs in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

// The forked reader of the test below: caps its address space at 1 GiB,
// then receives a header declaring kMaxFramePayload (16 GiB), a few payload
// bytes and EOF. Returns 0 on the expected IOError, 1 on any other outcome,
// 2 when the setup itself failed.
int RecvHugeDeclaredFrameUnderCap() {
  rlimit limit{};
  limit.rlim_cur = limit.rlim_max = rlim_t{1} << 30;
  int fds[2];
  if (::setrlimit(RLIMIT_AS, &limit) != 0 || ::pipe(fds) != 0) return 2;
  std::vector<uint8_t> bytes;
  AppendLe(&bytes, static_cast<uint32_t>(FrameType::kPairBatch), 4);
  AppendLe(&bytes, kMaxFramePayload, 8);
  AppendLe(&bytes, 0x0102030405060708ULL, 8);
  if (::write(fds[1], bytes.data(), bytes.size()) != static_cast<ssize_t>(bytes.size())) return 2;
  ::close(fds[1]);
  PipeTransport transport(fds[0], -1, "hostile peer");
  const Result<Frame> frame = transport.Recv();
  return !frame.ok() && frame.status().IsIOError() ? 0 : 1;
}

// Runs `fn` in a forked child and returns its exit code: 3 when it threw
// (an allocation failed under its cap), 128 + the signal when it was
// killed, -1 when fork failed. The child never returns into the test
// runner.
int ExitCodeOfForked(int (*fn)()) {
  const pid_t child = ::fork();
  if (child < 0) return -1;
  if (child == 0) {
    int code = 3;
    try {
      code = fn();
    } catch (...) {
    }
    ::_exit(code);
  }
  int status = 0;
  if (::waitpid(child, &status, 0) != child) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

TEST(ShardTransport, HugeDeclaredPayloadFailsWithoutAllocatingIt) {
  if (kSanitizedBuild) GTEST_SKIP() << "sanitizer shadow memory needs the address space";
  // The read runs in a forked child, so a transport that sizes its buffer
  // from the header fails the test (bad_alloc under the cap) instead of
  // exhausting the machine.
  EXPECT_EQ(ExitCodeOfForked(RecvHugeDeclaredFrameUnderCap), 0)
      << "1: Recv did not fail with IOError; 2: setup failed; 3: Recv threw (allocation); "
         "above 128: killed by a signal";
}

// The job stream of the hostile-token case (131 bytes on the wire): two
// owned records whose token sets are {1, 2^32 - 1}, at threshold 0.5.
std::vector<Frame> HugeTokenIdJob() {
  JobSpec spec;
  spec.threshold = 0.5;
  spec.num_records = 2;
  std::vector<RecordEntry> entries(2);
  for (uint32_t r = 0; r < 2; ++r) {
    entries[r].global_id = r;
    entries[r].position = r;
    entries[r].owned = true;
    entries[r].tokens = {1, 0xffffffffu};
  }
  return {EncodeJobSpec(spec), EncodeRecordBatch(entries, 0, 2), EncodeJobSealed()};
}

// The forked worker of the test below: caps its address space at 1 GiB and
// runs the job. Returns 0 when it emits exactly the pair (0, 1) at score 1.0
// and then kWorkerDone, 1 on any other outcome, 2 when the cap failed.
int RunHugeTokenIdJobUnderCap() {
  rlimit limit{};
  limit.rlim_cur = limit.rlim_max = rlim_t{1} << 30;
  if (::setrlimit(RLIMIT_AS, &limit) != 0) return 2;
  ShardWorkerJob job;
  for (const Frame& frame : HugeTokenIdJob()) {
    if (!job.Feed(frame).ok()) return 1;
  }
  const std::vector<Frame> frames = job.Execute();
  if (frames.size() != 2 || frames[1].type != FrameType::kWorkerDone) return 1;
  const auto pairs = DecodePairBatch(frames[0]);
  const bool one_pair = pairs.ok() && pairs->size() == 1 && (*pairs)[0].a == 0 &&
                        (*pairs)[0].b == 1 && (*pairs)[0].score == 1.0;
  return one_pair ? 0 : 1;
}

TEST(ShardWorker, HugeTokenIdsAreRenamedNotAllocated) {
  if (kSanitizedBuild) GTEST_SKIP() << "sanitizer shadow memory needs the address space";
  // Sized by the largest token id, the join plan's rank tables would take
  // 48 GiB; the worker renames the ids densely first.
  EXPECT_EQ(ExitCodeOfForked(RunHugeTokenIdJobUnderCap), 0)
      << "1: wrong frames; 2: setup failed; 3: the job threw (allocation); "
         "above 128: killed by a signal";
}

TEST(ShardWorker, HostileSpecFramesFailCleanly) {
  JobSpec spec;
  spec.threshold = 0.5;
  std::vector<RecordEntry> entries(2);
  entries[0].position = 0;
  entries[0].tokens = similarity::MakeTokenSet({1, 2});
  entries[1].global_id = 1;
  entries[1].position = 1;
  entries[1].tokens = similarity::MakeTokenSet({1, 2});

  // The hostile batches fail as IOError through the worker's Feed too.
  {
    ShardWorkerJob job;
    ASSERT_TRUE(job.Feed(EncodeJobSpec(spec)).ok());
    EXPECT_TRUE(job.Feed(RawFrame(FrameType::kRecordBatch, {0xff, 0xff, 0xff, 0xff})).IsIOError());
  }
  // A spec promising 2^62 records allocates nothing up front; the job
  // fails cleanly once the promise is not kept.
  {
    ShardWorkerJob job;
    JobSpec huge = spec;
    huge.num_records = uint64_t{1} << 62;
    ASSERT_TRUE(job.Feed(EncodeJobSpec(huge)).ok());
    ASSERT_TRUE(job.Feed(EncodeRecordBatch(entries, 0, 2)).ok());
    ASSERT_TRUE(job.Feed(EncodeJobSealed()).ok());
    const std::vector<Frame> frames = job.Execute();
    ASSERT_EQ(frames.size(), 1u);
    auto error = DecodeWorkerError(frames[0]);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error->code, StatusCode::kIOError);
  }
  // More records than promised.
  {
    ShardWorkerJob job;
    JobSpec one = spec;
    one.num_records = 1;
    ASSERT_TRUE(job.Feed(EncodeJobSpec(one)).ok());
    EXPECT_TRUE(job.Feed(EncodeRecordBatch(entries, 0, 2)).IsIOError());
  }
  // A replica after an owned record: the owned band must come last.
  {
    ShardWorkerJob job;
    JobSpec two = spec;
    two.num_records = 2;
    entries[0].owned = true;
    entries[1].owned = false;
    ASSERT_TRUE(job.Feed(EncodeJobSpec(two)).ok());
    EXPECT_TRUE(job.Feed(EncodeRecordBatch(entries, 0, 2)).IsIOError());
  }
}

// ---- Worker protocol-order and job validation ------------------------------

TEST(ShardWorker, RejectsProtocolViolations) {
  // Records before the spec.
  {
    ShardWorkerJob job;
    std::vector<RecordEntry> entries(1);
    entries[0].tokens = similarity::MakeTokenSet({1});
    EXPECT_FALSE(job.Feed(EncodeRecordBatch(entries, 0, 1)).ok());
  }
  // Two specs.
  {
    ShardWorkerJob job;
    JobSpec spec;
    spec.threshold = 0.5;
    ASSERT_TRUE(job.Feed(EncodeJobSpec(spec)).ok());
    EXPECT_FALSE(job.Feed(EncodeJobSpec(spec)).ok());
  }
  // Positions out of order surface as a kWorkerError from Execute (the
  // transport stays healthy; the coordinator reads a clean error).
  {
    ShardWorkerJob job;
    JobSpec spec;
    spec.threshold = 0.5;
    spec.num_records = 2;
    ASSERT_TRUE(job.Feed(EncodeJobSpec(spec)).ok());
    std::vector<RecordEntry> entries(2);
    entries[0].global_id = 0;
    entries[0].position = 5;
    entries[0].tokens = similarity::MakeTokenSet({1});
    entries[1].global_id = 1;
    entries[1].position = 4;  // violates ascending-position order
    entries[1].tokens = similarity::MakeTokenSet({1, 2});
    EXPECT_FALSE(job.Feed(EncodeRecordBatch(entries, 0, 2)).ok());
  }
}

// ---- Failure paths ---------------------------------------------------------

/// A worker-side transport that ignores the spec and replays a scripted
/// result stream — the fault-injection hook for coordinator error handling.
class ScriptedTransport : public FrameTransport {
 public:
  explicit ScriptedTransport(std::vector<Frame> replies) : replies_(std::move(replies)) {}

  Status Send(const Frame&) override { return Status::OK(); }
  Status CloseSend() override { return Status::OK(); }
  Result<Frame> Recv() override {
    if (next_ < replies_.size()) return replies_[next_++];
    return Status::IOError("scripted worker died mid-stream");
  }

 private:
  std::vector<Frame> replies_;
  size_t next_ = 0;
};

JoinInput SmallInput() {
  JoinInput input;
  input.sets.push_back(similarity::MakeTokenSet({1, 2, 3}));
  input.sets.push_back(similarity::MakeTokenSet({1, 2, 3}));
  input.sets.push_back(similarity::MakeTokenSet({2, 3, 4}));
  return input;
}

TEST(ShardCoordinator, SurfacesWorkerErrorFrameWithShardAndCode) {
  JoinOptions options;
  options.threshold = 0.5;
  ShardExecOptions exec;
  exec.num_shards = 2;
  exec.transport_factory = [](uint32_t shard) -> Result<std::unique_ptr<FrameTransport>> {
    if (shard == 1) {
      WorkerError error;
      error.code = StatusCode::kInvalidArgument;
      error.message = "boom";
      std::vector<Frame> replies;
      replies.push_back(EncodeWorkerError(error));
      return std::unique_ptr<FrameTransport>(new ScriptedTransport(std::move(replies)));
    }
    return std::unique_ptr<FrameTransport>(new InProcessTransport("test worker"));
  };
  const Status status = RunShardedJoin(
      SmallInput(), options, exec, [](std::vector<ScoredPair>&&) { return Status::OK(); },
      nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_NE(status.ToString().find("shard 1"), std::string::npos) << status.ToString();
  EXPECT_NE(status.ToString().find("boom"), std::string::npos) << status.ToString();
}

TEST(ShardCoordinator, SurfacesDeadTransportWithShard) {
  JoinOptions options;
  options.threshold = 0.5;
  ShardExecOptions exec;
  exec.num_shards = 2;
  exec.transport_factory = [](uint32_t shard) -> Result<std::unique_ptr<FrameTransport>> {
    if (shard == 0) {
      return std::unique_ptr<FrameTransport>(new ScriptedTransport({}));  // dies on Recv
    }
    return std::unique_ptr<FrameTransport>(new InProcessTransport("test worker"));
  };
  const Status status = RunShardedJoin(
      SmallInput(), options, exec, [](std::vector<ScoredPair>&&) { return Status::OK(); },
      nullptr);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.ToString().find("shard 0"), std::string::npos) << status.ToString();
}

TEST(ShardCoordinator, SinkErrorAbortsTheRun) {
  JoinOptions options;
  options.threshold = 0.5;
  ShardExecOptions exec;
  exec.num_shards = 2;
  const Status status = RunShardedJoin(
      SmallInput(), options, exec,
      [](std::vector<ScoredPair>&&) { return Status::OutOfRange("sink full"); },
      nullptr);
  EXPECT_TRUE(status.IsOutOfRange()) << status.ToString();
}

TEST(ShardCoordinator, KilledSubprocessWorkerSurfacesCleanly) {
  // A worker binary that exits immediately without speaking the protocol:
  // the stream ends without a terminal frame, which must surface as an
  // IOError naming the shard — no hang, and the process is reaped.
  JoinOptions options;
  options.threshold = 0.5;
  ShardExecOptions exec;
  exec.num_shards = 2;
  exec.worker_path = "/bin/true";
  const Status status = RunShardedJoin(
      SmallInput(), options, exec, [](std::vector<ScoredPair>&&) { return Status::OK(); },
      nullptr);
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
  EXPECT_NE(status.ToString().find("shard"), std::string::npos) << status.ToString();
}

TEST(ShardCoordinator, MissingWorkerBinaryIsAnError) {
  JoinOptions options;
  options.threshold = 0.5;
  ShardExecOptions exec;
  exec.num_shards = 2;
  exec.worker_path = "/nonexistent/crowder_shardd";
  const Status status = RunShardedJoin(
      SmallInput(), options, exec, [](std::vector<ScoredPair>&&) { return Status::OK(); },
      nullptr);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
}

// A 16-record dataset whose eight duplicate pairs (Jaccard 2/3 to 5/6)
// qualify at threshold 0.5 and fall to both shards of a two-shard run.
data::Dataset SweepDataset() {
  data::Dataset dataset;
  dataset.name = "sweep";
  dataset.table.attribute_names = {"name"};
  for (uint32_t e = 0; e < 8; ++e) {
    std::string name;
    for (uint32_t t = 0; t < 2 + e % 4; ++t) name += "w" + std::to_string(e) + "x" + std::to_string(t) + " ";
    dataset.table.records.push_back({name});
    dataset.table.records.push_back({name + "extra" + std::to_string(e)});
    dataset.truth.entity_of.push_back(e);
    dataset.truth.entity_of.push_back(e);
  }
  return dataset;
}

TEST(ShardCoordinator, RejectsWorkerPairsOutsideTheInputNamingTheShard) {
  // The sink indexes the ground truth with every returned pair, so a pair
  // naming a record beyond the input used to crash the coordinator; pairs
  // out of order would break the merge. Each is an IOError naming the shard
  // and the pair.
  struct Case {
    std::vector<ScoredPair> pairs;
    std::string named;
  };
  const std::vector<Case> cases = {
      {{{5, 4000000000u, 1.0}}, "(5,4000000000)"},       // beyond the records
      {{{3, 3, 1.0}}, "(3,3)"},                          // a self-pair
      {{{7, 2, 1.0}}, "(7,2)"},                          // a > b
      {{{2, 3, 1.0}, {1, 5, 1.0}}, "(1,5)"},             // descending
      {{{2, 3, 1.0}, {2, 3, 1.0}}, "(2,3)"},             // repeated
  };
  const data::Dataset dataset = SweepDataset();
  for (const Case& c : cases) {
    ShardExecOptions exec;
    exec.num_shards = 2;
    exec.transport_factory = [&](uint32_t shard) -> Result<std::unique_ptr<FrameTransport>> {
      if (shard == 0) return std::unique_ptr<FrameTransport>(new InProcessTransport("worker"));
      return std::unique_ptr<FrameTransport>(new ScriptedTransport(
          {EncodePairBatch(c.pairs, 0, c.pairs.size()), EncodeWorkerDone(WorkerStats{})}));
    };
    core::PairStream stream;
    const auto stats = core::HybridWorkflow::MachinePassSharded(dataset, SetMeasure::kJaccard,
                                                                0.5, exec, &stream, nullptr);
    ASSERT_FALSE(stats.ok()) << c.named;
    EXPECT_TRUE(stats.status().IsIOError()) << stats.status().ToString();
    EXPECT_NE(stats.status().message().find("shard 1"), std::string::npos)
        << stats.status().ToString();
    EXPECT_NE(stats.status().message().find(c.named), std::string::npos)
        << stats.status().ToString();
  }
}

// ---- Seeded mutation sweeps over recorded frame streams --------------------

/// A frame stream as PipeTransport puts it on the wire, with the offsets
/// and widths of its length, count and id fields — where the sweeps'
/// inflations land.
struct RecordedStream {
  std::vector<uint8_t> bytes;
  std::vector<std::pair<size_t, int>> fields;
};

RecordedStream Serialize(const std::vector<Frame>& frames) {
  RecordedStream out;
  for (const Frame& frame : frames) {
    AppendLe(&out.bytes, static_cast<uint32_t>(frame.type), 4);
    out.fields.push_back({out.bytes.size(), 8});  // payload length
    AppendLe(&out.bytes, frame.payload.size(), 8);
    const size_t at = out.bytes.size();
    out.bytes.insert(out.bytes.end(), frame.payload.begin(), frame.payload.end());
    switch (frame.type) {
      case FrameType::kJobSpec: {
        // The record count is the spec's trailing u64; checked against the
        // decoder so a layout change cannot leave the offset stale.
        const size_t count_at = frame.payload.size() - 8;
        uint64_t count = 0;
        for (int i = 7; i >= 0; --i) count = count << 8 | frame.payload[count_at + i];
        EXPECT_EQ(count, DecodeJobSpec(frame).ValueOrDie().num_records);
        out.fields.push_back({at + count_at, 8});
        break;
      }
      case FrameType::kRecordBatch: {
        out.fields.push_back({at, 4});  // record count
        size_t pos = at + 4;
        const std::vector<RecordEntry> entries = DecodeRecordBatch(frame).ValueOrDie();
        for (const RecordEntry& e : entries) {
          out.fields.push_back({pos, 4});       // record id
          out.fields.push_back({pos + 4, 8});   // position
          out.fields.push_back({pos + 17, 4});  // token count
          pos += 21;
          for (size_t t = 0; t < e.tokens.size(); ++t, pos += 4) out.fields.push_back({pos, 4});
        }
        break;
      }
      case FrameType::kPairBatch:
        out.fields.push_back({at, 8});  // pair count
        for (size_t pos = at + 8; pos < at + frame.payload.size(); pos += 16) {
          out.fields.push_back({pos, 4});      // a
          out.fields.push_back({pos + 4, 4});  // b
        }
        break;
      case FrameType::kWorkerDone:
        out.fields.push_back({at, 8});  // pair count
        break;
      default:
        break;
    }
  }
  return out;
}

/// One deterministic mutant: truncated, bit-flipped, spliced (a chunk cut
/// out or copied elsewhere), or with a length, count or id field set to a
/// hostile value or pushed just past its true one.
std::vector<uint8_t> Mutate(const RecordedStream& in, Rng* rng) {
  static const uint64_t kHostile[] = {0,
                                      1,
                                      0x7fffffff,
                                      0x80000000,
                                      0xfffffffe,
                                      0xffffffff,
                                      uint64_t{1} << 32,
                                      kMaxFramePayload,
                                      kMaxFramePayload + 1,
                                      uint64_t{1} << 63,
                                      UINT64_MAX};
  std::vector<uint8_t> out = in.bytes;
  switch (rng->Uniform(5)) {
    case 0:
      out.resize(rng->Uniform(out.size()));
      break;
    case 1:
      for (uint64_t i = 0, n = 1 + rng->Uniform(8); i < n; ++i) {
        out[rng->Uniform(out.size())] ^= static_cast<uint8_t>(1u << rng->Uniform(8));
      }
      break;
    case 2: {
      const size_t begin = rng->Uniform(out.size());
      const size_t end = begin + 1 + rng->Uniform(out.size() - begin);
      if (rng->Uniform(2) == 0) {
        out.erase(out.begin() + begin, out.begin() + end);
      } else {
        const std::vector<uint8_t> chunk(out.begin() + begin, out.begin() + end);
        out.insert(out.begin() + rng->Uniform(out.size() + 1), chunk.begin(), chunk.end());
      }
      break;
    }
    default: {
      const auto [offset, width] = in.fields[rng->Uniform(in.fields.size())];
      uint64_t value = kHostile[rng->Uniform(sizeof(kHostile) / sizeof(kHostile[0]))];
      if (rng->Uniform(3) == 0) {
        value = 1 + rng->Uniform(4);
        for (int i = 0; i < width; ++i) value += uint64_t{out[offset + i]} << (8 * i);
      }
      for (int i = 0; i < width; ++i) out[offset + i] = static_cast<uint8_t>(value >> (8 * i));
      break;
    }
  }
  return out;
}

/// The in-process worker, recording both directions of its stream.
class RecordingTransport : public FrameTransport {
 public:
  RecordingTransport(std::vector<Frame>* sent, std::vector<Frame>* received)
      : sent_(sent), received_(received) {}

  Status Send(const Frame& frame) override {
    sent_->push_back(frame);
    return worker_.Send(frame);
  }
  Status CloseSend() override { return worker_.CloseSend(); }
  Result<Frame> Recv() override {
    auto frame = worker_.Recv();
    if (frame.ok()) received_->push_back(*frame);
    return frame;
  }

 private:
  InProcessTransport worker_{"recorded worker"};
  std::vector<Frame>* sent_;
  std::vector<Frame>* received_;
};

/// Both directions of both shards of a two-shard run over SweepDataset.
struct RecordedRun {
  RecordedStream jobs[2];
  RecordedStream results[2];
  std::vector<ScoredPair> pairs;
};

RecordedRun RecordTwoShardRun() {
  std::vector<Frame> sent[2];
  std::vector<Frame> received[2];
  ShardExecOptions exec;
  exec.num_shards = 2;
  exec.transport_factory = [&](uint32_t shard) -> Result<std::unique_ptr<FrameTransport>> {
    return std::unique_ptr<FrameTransport>(new RecordingTransport(&sent[shard], &received[shard]));
  };
  core::PairStream stream;
  EXPECT_TRUE(core::HybridWorkflow::MachinePassSharded(SweepDataset(), SetMeasure::kJaccard, 0.5,
                                                       exec, &stream, nullptr)
                  .ok());
  RecordedRun run;
  for (int s = 0; s < 2; ++s) {
    run.jobs[s] = Serialize(sent[s]);
    run.results[s] = Serialize(received[s]);
  }
  run.pairs = stream.MaterializeSorted().ValueOrDie();
  return run;
}

/// A pipe holding `bytes`, read back through PipeTransport's framing; the
/// write side goes to /dev/null. The bytes must fit the pipe buffer.
Result<std::unique_ptr<FrameTransport>> ReplayTransport(const std::vector<uint8_t>& bytes) {
  int fds[2];
  if (::pipe(fds) != 0) return Status::Internal("pipe failed");
  const ssize_t written = ::write(fds[1], bytes.data(), bytes.size());
  ::close(fds[1]);
  if (written != static_cast<ssize_t>(bytes.size())) {
    ::close(fds[0]);
    return Status::Internal("replay stream does not fit the pipe");
  }
  return std::unique_ptr<FrameTransport>(
      new PipeTransport(fds[0], ::open("/dev/null", O_WRONLY), "replayed peer"));
}

// What crowder_shardd writes for the job stream `bytes`: RunShardWorker over
// a pipe carrying them, which must end cleanly, and its answer read back
// from a second pipe. The bytes and the answer must fit the pipe buffers.
std::vector<Frame> DaemonAnswer(const std::vector<uint8_t>& bytes) {
  int in[2];
  int out[2];
  if (::pipe(in) != 0 || ::pipe(out) != 0) {
    ADD_FAILURE() << "pipe failed";
    return {};
  }
  EXPECT_EQ(::write(in[1], bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
  ::close(in[1]);
  {
    PipeTransport daemon(in[0], out[1], "coordinator");
    const Status status = RunShardWorker(&daemon);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
  PipeTransport coordinator(out[0], -1, "worker");
  std::vector<Frame> answer;
  for (auto frame = coordinator.Recv(); frame.ok(); frame = coordinator.Recv()) {
    answer.push_back(*frame);
  }
  return answer;
}

TEST(ShardWorker, JobStreamEndingEarlyIsAnsweredWithAWorkerErrorByBothTransports) {
  const std::vector<Frame> job = HugeTokenIdJob();
  const std::vector<uint8_t> bytes = Serialize(job).bytes;
  ASSERT_EQ(bytes.size(), 131u);
  const auto expect_one_worker_error = [](const std::vector<Frame>& answer) {
    ASSERT_EQ(answer.size(), 1u);
    ASSERT_EQ(answer[0].type, FrameType::kWorkerError);
    const auto error = DecodeWorkerError(answer[0]);
    ASSERT_TRUE(error.ok()) << error.status().ToString();
    EXPECT_EQ(error->code, StatusCode::kIOError) << error->message;
  };
  // Cut mid-frame (the first 100 bytes), and at the frame boundary before
  // kJobSealed.
  for (const size_t cut : {size_t{100}, bytes.size() - 12}) {
    SCOPED_TRACE("first " + std::to_string(cut) + " bytes");
    expect_one_worker_error(DaemonAnswer({bytes.begin(), bytes.begin() + cut}));
  }
  InProcessTransport in_process("worker");
  ASSERT_TRUE(in_process.Send(job[0]).ok());
  ASSERT_TRUE(in_process.Send(job[1]).ok());
  ASSERT_TRUE(in_process.CloseSend().ok());
  std::vector<Frame> answer;
  for (auto frame = in_process.Recv(); frame.ok(); frame = in_process.Recv()) {
    answer.push_back(*frame);
  }
  expect_one_worker_error(answer);
  // The whole stream still runs.
  EXPECT_EQ(DaemonAnswer(bytes).back().type, FrameType::kWorkerDone);
}

constexpr int kSweepMutants = 1200;

TEST(ShardFrameSweep, WorkerEndsEveryMutatedJobStreamWithATerminalFrame) {
  const RecordedRun run = RecordTwoShardRun();
  Rng rng(20261018);
  size_t done = 0;
  size_t errors = 0;
  for (int i = 0; i < kSweepMutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    auto coordinator = ReplayTransport(Mutate(run.jobs[i % 2], &rng));
    ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
    InProcessTransport worker("worker");
    for (auto frame = (*coordinator)->Recv(); frame.ok() && worker.Send(*frame).ok();
         frame = (*coordinator)->Recv()) {
    }
    ASSERT_TRUE(worker.CloseSend().ok());
    std::vector<Frame> reply;
    for (auto frame = worker.Recv(); frame.ok(); frame = worker.Recv()) reply.push_back(*frame);
    ASSERT_FALSE(reply.empty());
    for (size_t f = 0; f + 1 < reply.size(); ++f) {
      ASSERT_EQ(reply[f].type, FrameType::kPairBatch);
      ASSERT_TRUE(DecodePairBatch(reply[f]).ok());
    }
    if (reply.back().type == FrameType::kWorkerDone) {
      ASSERT_TRUE(DecodeWorkerDone(reply.back()).ok());
      ++done;
    } else {
      ASSERT_EQ(reply.back().type, FrameType::kWorkerError);
      ASSERT_TRUE(DecodeWorkerError(reply.back()).ok());
      ++errors;
    }
  }
  // The sweep reaches both ends: some mutants still run, some are refused.
  EXPECT_GT(done, 0u);
  EXPECT_GT(errors, 0u);
}

TEST(ShardFrameSweep, CoordinatorEndsEveryMutatedResultStreamInOkOrANamedError) {
  const RecordedRun run = RecordTwoShardRun();
  ASSERT_FALSE(run.pairs.empty());
  const data::Dataset dataset = SweepDataset();
  Rng rng(20261019);
  size_t ok = 0;
  size_t errors = 0;
  for (int i = -1; i < kSweepMutants; ++i) {
    SCOPED_TRACE("mutant " + std::to_string(i));
    // Mutant -1 replays both streams untouched.
    const int mutated_shard = i < 0 ? -1 : i % 2;
    const std::vector<uint8_t> mutated =
        i < 0 ? std::vector<uint8_t>() : Mutate(run.results[mutated_shard], &rng);
    ShardExecOptions exec;
    exec.num_shards = 2;
    exec.transport_factory = [&](uint32_t shard) {
      return ReplayTransport(static_cast<int>(shard) == mutated_shard ? mutated
                                                                      : run.results[shard].bytes);
    };
    core::PairStream stream;
    const auto stats = core::HybridWorkflow::MachinePassSharded(dataset, SetMeasure::kJaccard,
                                                                0.5, exec, &stream, nullptr);
    if (i < 0) {
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ASSERT_EQ(stream.num_pairs(), run.pairs.size());
      continue;
    }
    if (stats.ok()) {
      ++ok;
      continue;
    }
    ++errors;
    const Status& status = stats.status();
    EXPECT_TRUE(status.IsIOError() || status.IsInvalidArgument() || status.IsDataLoss())
        << status.ToString();
    EXPECT_NE(status.message().find("shard " + std::to_string(mutated_shard)), std::string::npos)
        << status.ToString();
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(errors, 0u);
}

}  // namespace
}  // namespace shard
}  // namespace crowder
