#include "core/pipeline.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"

namespace crowder {
namespace core {

namespace {

constexpr size_t kPairBytes = sizeof(similarity::ScoredPair);

bool PairLess(const similarity::ScoredPair& x, const similarity::ScoredPair& y) {
  return x.a != y.a ? x.a < y.a : x.b < y.b;
}

}  // namespace

// ---------------------------------------------------------------------------
// PairStream
// ---------------------------------------------------------------------------

Status PairStream::Append(PairBlock&& block) {
  if (finished_) return Status::InvalidArgument("Append on a finished PairStream");
  if (block.empty()) return Status::OK();
  num_pairs_ += block.size();
  const uint64_t block_bytes = static_cast<uint64_t>(block.size()) * kPairBytes;
  if (memory_budget_bytes_ > 0 && memory_bytes_ + block_bytes > memory_budget_bytes_) {
    if (!spill_) {
      CROWDER_ASSIGN_OR_RETURN(SpillFile file, SpillFile::Create());
      spill_ = std::make_unique<SpillFile>(std::move(file));
    }
    return spill_->AppendBlock(block);
  }
  memory_bytes_ += block_bytes;
  mem_blocks_.push_back(std::move(block));
  return Status::OK();
}

Status PairStream::Finish() {
  if (finished_) return Status::InvalidArgument("Finish on a finished PairStream");
  finished_ = true;
  return Status::OK();
}

namespace {

// One sorted run feeding the merge: either an in-memory block or a buffered
// cursor over a spilled block.
class MergeSource {
 public:
  explicit MergeSource(const PairBlock* block) : mem_(block) {}
  MergeSource(SpillFile::BlockCursor cursor, size_t buffer_pairs)
      : cursor_(std::move(cursor)) {
    buffer_.reserve(buffer_pairs);
    buffer_capacity_ = buffer_pairs;
  }

  // Loads the first pair; returns false for an exhausted source.
  Result<bool> Init() { return Advance(); }

  const similarity::ScoredPair& current() const { return current_; }

  // Moves to the next pair; false at end of run.
  Result<bool> Advance() {
    if (mem_ != nullptr) {
      if (pos_ >= mem_->size()) return false;
      current_ = (*mem_)[pos_++];
      return true;
    }
    if (pos_ >= buffer_.size()) {
      buffer_.resize(buffer_capacity_);
      CROWDER_ASSIGN_OR_RETURN(const size_t got,
                               cursor_->Read(buffer_.data(), buffer_capacity_));
      buffer_.resize(got);
      pos_ = 0;
      if (got == 0) return false;
    }
    current_ = buffer_[pos_++];
    return true;
  }

 private:
  const PairBlock* mem_ = nullptr;
  std::optional<SpillFile::BlockCursor> cursor_;
  PairBlock buffer_;
  size_t buffer_capacity_ = 0;
  size_t pos_ = 0;
  similarity::ScoredPair current_;
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
  if (!finished_) return Status::InvalidArgument("OpenSortedCursor before Finish");

  // Sources: every in-memory block plus a buffered cursor per spilled block.
  // The cursors split one fixed read-buffer pool (down to one pair each), so
  // the merge's own resident memory is the pool plus O(#runs) bookkeeping
  // with a tiny constant — the floor any single-pass k-way merge needs (one
  // loaded pair per run), never a per-block 4 KiB that could dwarf the
  // stream's budget when thousands of blocks spilled.
  auto impl = std::make_unique<SortedCursor::Impl>();
  impl->sources.reserve(num_blocks());
  for (const PairBlock& block : mem_blocks_) {
    impl->sources.push_back(std::make_unique<MergeSource>(&block));
  }
  if (spill_) {
    const size_t spilled = spill_->num_blocks();
    const size_t buffer_pairs = std::max<size_t>(1, 65536 / std::max<size_t>(1, spilled));
    for (size_t b = 0; b < spilled; ++b) {
      CROWDER_ASSIGN_OR_RETURN(auto cursor, spill_->OpenBlock(b));
      impl->sources.push_back(std::make_unique<MergeSource>(std::move(cursor), buffer_pairs));
    }
  }
  for (size_t i = 0; i < impl->sources.size(); ++i) {
    CROWDER_ASSIGN_OR_RETURN(const bool alive, impl->sources[i]->Init());
    if (alive) impl->HeapPush(i);
  }
  return SortedCursor(std::move(impl));
}

Status PairStream::ScanSorted(const std::function<Status(const PairBlock&)>& fn,
                              size_t batch_pairs) const {
  if (!finished_) return Status::InvalidArgument("ScanSorted before Finish");
  if (batch_pairs == 0) batch_pairs = 8192;
  CROWDER_ASSIGN_OR_RETURN(SortedCursor cursor, OpenSortedCursor());
  PairBlock batch;
  batch.reserve(static_cast<size_t>(std::min<uint64_t>(batch_pairs, num_pairs_)));
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
  out.reserve(num_pairs_);
  CROWDER_RETURN_NOT_OK(ScanSorted([&out](const PairBlock& batch) {
    out.insert(out.end(), batch.begin(), batch.end());
    return Status::OK();
  }));
  return out;
}

}  // namespace core
}  // namespace crowder
