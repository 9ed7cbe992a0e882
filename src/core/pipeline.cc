#include "core/pipeline.h"

#include <algorithm>

#include "common/logging.h"

namespace crowder {
namespace core {

namespace {

bool PairLess(const similarity::ScoredPair& x, const similarity::ScoredPair& y) {
  return x.a != y.a ? x.a < y.a : x.b < y.b;
}

using RunReader = ShardedSpillStore<similarity::ScoredPair>::BlockReader;

// One sorted run feeding the merge, drawn chunk by chunk from its reader.
class MergeSource {
 public:
  explicit MergeSource(RunReader reader) : reader_(std::move(reader)) {}

  // Loads the first pair; returns false for an exhausted source.
  Result<bool> Init() { return Refill(); }

  const similarity::ScoredPair& current() const { return *pos_; }

  // Moves to the next pair; false at end of run.
  Result<bool> Advance() {
    if (++pos_ != end_) return true;
    return Refill();
  }

 private:
  Result<bool> Refill() {
    CROWDER_ASSIGN_OR_RETURN(const PairBlock* chunk, reader_.Next());
    pos_ = chunk->data();
    end_ = pos_ + chunk->size();
    return pos_ != end_;
  }

  RunReader reader_;
  const similarity::ScoredPair* pos_ = nullptr;
  const similarity::ScoredPair* end_ = nullptr;
};

}  // namespace

// The k-way merge state behind a resumable cursor. Min-heap on (a, b);
// candidate pairs are unique across the stream, so the merge order — hence
// every scan — is total and deterministic.
struct PairStream::SortedCursor::Impl {
  std::vector<std::unique_ptr<MergeSource>> sources;
  std::vector<size_t> heap;  // indices into sources, min-heap on current()

  bool HeapGreater(size_t x, size_t y) const {
    return PairLess(sources[y]->current(), sources[x]->current());
  }
  void HeapPush(size_t src) {
    heap.push_back(src);
    std::push_heap(heap.begin(), heap.end(),
                   [this](size_t x, size_t y) { return HeapGreater(x, y); });
  }
  size_t HeapPop() {
    std::pop_heap(heap.begin(), heap.end(),
                  [this](size_t x, size_t y) { return HeapGreater(x, y); });
    const size_t src = heap.back();
    heap.pop_back();
    return src;
  }
};

PairStream::SortedCursor::SortedCursor(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
PairStream::SortedCursor::SortedCursor(SortedCursor&&) noexcept = default;
PairStream::SortedCursor& PairStream::SortedCursor::operator=(SortedCursor&&) noexcept =
    default;
PairStream::SortedCursor::~SortedCursor() = default;

Result<size_t> PairStream::SortedCursor::Next(size_t max_pairs,
                                              std::vector<similarity::ScoredPair>* out) {
  CROWDER_CHECK(out != nullptr);
  Impl& impl = *impl_;
  size_t appended = 0;
  while (appended < max_pairs && !impl.heap.empty()) {
    const size_t src = impl.HeapPop();
    out->push_back(impl.sources[src]->current());
    ++appended;
    CROWDER_ASSIGN_OR_RETURN(const bool alive, impl.sources[src]->Advance());
    if (alive) impl.HeapPush(src);
  }
  return appended;
}

Result<PairStream::SortedCursor> PairStream::OpenSortedCursor() const {
  if (!runs_.finished()) return Status::InvalidArgument("OpenSortedCursor before Finish");

  // One source per run. The spilled runs split one fixed read-buffer pool
  // (down to one pair each), so the merge's own resident memory is the pool
  // plus O(#runs) bookkeeping with a tiny constant — the floor any
  // single-pass k-way merge needs (one loaded pair per run), never a
  // per-run 4 KiB that could dwarf the stream's budget when thousands of
  // runs spilled. Resident runs are lent without a copy.
  const size_t buffer_pairs = 65536 / std::max<size_t>(1, runs_.spilled_blocks());
  auto impl = std::make_unique<SortedCursor::Impl>();
  impl->sources.reserve(runs_.num_blocks(0));
  for (size_t b = 0; b < runs_.num_blocks(0); ++b) {
    CROWDER_ASSIGN_OR_RETURN(RunReader reader, runs_.OpenBlock(0, b, buffer_pairs));
    impl->sources.push_back(std::make_unique<MergeSource>(std::move(reader)));
  }
  for (size_t i = 0; i < impl->sources.size(); ++i) {
    CROWDER_ASSIGN_OR_RETURN(const bool alive, impl->sources[i]->Init());
    if (alive) impl->HeapPush(i);
  }
  return SortedCursor(std::move(impl));
}

Status PairStream::ScanSorted(const std::function<Status(const PairBlock&)>& fn,
                              size_t batch_pairs) const {
  if (!runs_.finished()) return Status::InvalidArgument("ScanSorted before Finish");
  if (batch_pairs == 0) batch_pairs = 8192;
  CROWDER_ASSIGN_OR_RETURN(SortedCursor cursor, OpenSortedCursor());
  PairBlock batch;
  batch.reserve(static_cast<size_t>(std::min<uint64_t>(batch_pairs, num_pairs())));
  while (true) {
    batch.clear();
    CROWDER_ASSIGN_OR_RETURN(const size_t got, cursor.Next(batch_pairs, &batch));
    if (got == 0) break;
    CROWDER_RETURN_NOT_OK(fn(batch));
  }
  return Status::OK();
}

Result<std::vector<similarity::ScoredPair>> PairStream::MaterializeSorted() const {
  std::vector<similarity::ScoredPair> out;
  out.reserve(num_pairs());
  CROWDER_RETURN_NOT_OK(ScanSorted([&out](const PairBlock& batch) {
    out.insert(out.end(), batch.begin(), batch.end());
    return Status::OK();
  }));
  return out;
}

}  // namespace core
}  // namespace crowder
