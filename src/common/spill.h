/// \file
/// \brief Spill storage: the disk half of every bounded-memory structure.
///
/// `ShardedSpillStore<T>` is the one place that decides whether a block of
/// trivially-copyable records stays resident or goes to disk, and the one
/// place that reads a block back. The candidate `PairStream` (one shard of
/// sorted runs), the cluster boundary's bucket and HIT-range stores, and
/// the vote table's staged and compacted shards (aggregate/partitioned.h)
/// all keep their blocks in one.
///
/// Its disk half is one `SpillLog<T>` per store: an append-only sequence of
/// blocks in one temp file,
///
///   * appended sequentially through one buffered write handle;
///   * read back through positioned reads (pread) on one shared descriptor,
///     so any number of readers cost two file descriptors in total;
///   * created with mkstemp under $TMPDIR and removed on destruction,
///     including when an exception unwinds through the owner.
#ifndef CROWDER_COMMON_SPILL_H_
#define CROWDER_COMMON_SPILL_H_

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.h"
#include "common/result.h"

namespace crowder {

/// \brief Implementation details of SpillLog; not part of the public API.
namespace spill_internal {

/// \brief Formats the current errno under a short operation label.
inline std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace spill_internal

/// \brief Append-only block file of trivially-copyable records, created
/// under the system temp directory and removed (and closed) on destruction
/// — including when an exception unwinds through the owner.
///
/// One SpillLog costs at most two file descriptors: the buffered write
/// handle and a shared read descriptor opened on the first cursor. Blocks
/// are the unit of append and of read-back.
template <typename T>
class SpillLog {
  static_assert(std::is_trivially_copyable<T>::value,
                "SpillLog writes records as raw bytes");

 public:
  /// \brief Creates an empty spill log under $TMPDIR (default /tmp).
  static Result<std::unique_ptr<SpillLog>> Create() {
    const char* tmpdir = std::getenv("TMPDIR");
    std::string templ =
        std::string(tmpdir && *tmpdir ? tmpdir : "/tmp") + "/crowder-spill-XXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    const int fd = ::mkstemp(buf.data());
    if (fd < 0) return Status::IOError(spill_internal::ErrnoMessage("mkstemp"));
    std::FILE* file = ::fdopen(fd, "wb");
    if (file == nullptr) {
      const Status status = Status::IOError(spill_internal::ErrnoMessage("fdopen"));
      ::close(fd);
      ::unlink(buf.data());
      return status;
    }
    return std::unique_ptr<SpillLog>(new SpillLog(buf.data(), file));
  }

  SpillLog(const SpillLog&) = delete;             ///< not copyable
  SpillLog& operator=(const SpillLog&) = delete;  ///< not copyable
  /// \brief Closes both descriptors and unlinks the temp file.
  ~SpillLog() {
    std::fclose(file_);
    if (read_fd_ >= 0) ::close(read_fd_);
    ::unlink(path_.c_str());
  }

  /// \brief Appends one block of records.
  Status AppendBlock(const std::vector<T>& block) {
    BlockExtent extent;
    extent.offset_bytes = bytes_written_;
    extent.num_records = block.size();
    if (!block.empty() &&
        std::fwrite(block.data(), sizeof(T), block.size(), file_) != block.size()) {
      return Status::IOError(spill_internal::ErrnoMessage("spill write"));
    }
    bytes_written_ += block.size() * sizeof(T);
    blocks_.push_back(extent);
    return Status::OK();
  }

  /// \brief Blocks appended so far.
  size_t num_blocks() const { return blocks_.size(); }
  /// \brief Total payload bytes appended so far.
  uint64_t bytes_written() const { return bytes_written_; }

  /// \brief Sequential cursor over one block. Any number of cursors may be
  /// live at once over different (or the same) blocks; they share the log's
  /// one read descriptor through positioned reads. A cursor must not
  /// outlive its SpillLog.
  class BlockCursor {
   public:
    /// \brief Reads up to `max_records` records into `out`; returns how many
    /// were read (0 at end of block) or a Status on I/O failure.
    Result<size_t> Read(T* out, size_t max_records) {
      const size_t want = static_cast<size_t>(std::min<uint64_t>(max_records, remaining_));
      if (want == 0) return static_cast<size_t>(0);
      // Positioned read: no shared seek state, so interleaved cursors never
      // disturb each other on the one descriptor.
      size_t done = 0;
      char* dst = reinterpret_cast<char*>(out);
      while (done < want * sizeof(T)) {
        const ssize_t got = ::pread(fd_, dst + done, want * sizeof(T) - done,
                                    static_cast<off_t>(offset_bytes_ + done));
        if (got < 0) return Status::IOError(spill_internal::ErrnoMessage("spill read"));
        if (got == 0) return Status::IOError("spill read: short read");
        done += static_cast<size_t>(got);
      }
      offset_bytes_ += done;
      remaining_ -= want;
      return want;
    }

    /// \brief Records not yet read.
    uint64_t remaining() const { return remaining_; }

   private:
    friend class SpillLog;
    BlockCursor(int fd, uint64_t offset_bytes, uint64_t remaining)
        : fd_(fd), offset_bytes_(offset_bytes), remaining_(remaining) {}
    int fd_ = -1;                ///< owned by the SpillLog
    uint64_t offset_bytes_ = 0;  ///< next read position
    uint64_t remaining_ = 0;     ///< records left in this block
  };

  /// \brief Opens a cursor over block `index`.
  Result<BlockCursor> OpenBlock(size_t index) const {
    CROWDER_CHECK_LT(index, blocks_.size());
    // The write handle is buffered; make the bytes visible to the read side.
    if (std::fflush(file_) != 0) {
      return Status::IOError(spill_internal::ErrnoMessage("spill flush"));
    }
    if (read_fd_ < 0) {
      read_fd_ = ::open(path_.c_str(), O_RDONLY);
      if (read_fd_ < 0) return Status::IOError(spill_internal::ErrnoMessage("spill open"));
    }
    return BlockCursor(read_fd_, blocks_[index].offset_bytes, blocks_[index].num_records);
  }

 private:
  SpillLog(std::string path, std::FILE* file) : path_(std::move(path)), file_(file) {}

  struct BlockExtent {
    uint64_t offset_bytes = 0;
    uint64_t num_records = 0;
  };

  const std::string path_;
  std::FILE* const file_;     ///< write handle
  mutable int read_fd_ = -1;  ///< shared by all cursors; opened on first read
  std::vector<BlockExtent> blocks_;
  uint64_t bytes_written_ = 0;
};

/// \brief N append-order record sequences ("shards") under one shared
/// memory budget. A block appended to a shard stays in memory while the
/// resident bytes fit the budget; past it, the block goes to the store's
/// one SpillLog. Reads lend a resident block as stored and read a spilled
/// one back, so a reader never learns where a block lives.
///
/// Single producer, then Finish, then any number of Scan passes and block
/// readers. Not thread-safe; the workflow appends and reads on the driving
/// thread.
template <typename T>
class ShardedSpillStore {
 public:
  /// \brief `memory_budget_bytes` caps resident record bytes across all
  /// shards (0 = unbounded, never spills).
  explicit ShardedSpillStore(uint64_t memory_budget_bytes = 0)
      : memory_budget_bytes_(memory_budget_bytes) {}

  /// \brief Appends `count` empty shards; ids are assigned sequentially.
  void AddShards(size_t count) { shards_.resize(shards_.size() + count); }

  /// \brief Shards created so far.
  size_t num_shards() const { return shards_.size(); }

  /// \brief Appends one block to `shard`: resident if it fits the budget,
  /// spilled otherwise. Records keep append order, also relative to any
  /// records still sitting in the shard's AppendRecord buffer (those are
  /// flushed first). Empty blocks are dropped.
  Status Append(size_t shard, std::vector<T>&& block) {
    CROWDER_CHECK_LT(shard, shards_.size());
    if (finished_) return Status::InvalidArgument("Append on a finished store");
    if (block.empty()) return Status::OK();
    if (!shards_[shard].buffer.empty()) {
      // FlushBuffer re-enters Append with the buffer already detached, so
      // this cannot recurse further.
      CROWDER_RETURN_NOT_OK(FlushBuffer(shard));
    }
    Shard& s = shards_[shard];
    s.records += block.size();
    const uint64_t block_bytes = static_cast<uint64_t>(block.size()) * sizeof(T);
    if (memory_budget_bytes_ > 0 &&
        memory_bytes_ + buffer_bytes_ + block_bytes > memory_budget_bytes_) {
      if (!log_) {
        CROWDER_ASSIGN_OR_RETURN(log_, SpillLog<T>::Create());
      }
      s.blocks.push_back({{}, log_->num_blocks()});
      return log_->AppendBlock(block);
    }
    memory_bytes_ += block_bytes;
    s.blocks.push_back({std::move(block), kResident});
    return Status::OK();
  }

  /// \brief Minimum records a budget-pressure drain will flush as one
  /// block. The floor bounds the spill-block metadata and keeps sustained
  /// over-budget appends from degenerating into a per-record flush storm;
  /// the price is a documented residency slack of up to
  /// `num_shards * kMinFlushRecords * sizeof(T)` beyond the budget (see
  /// memory_bytes()).
  static constexpr size_t kMinFlushRecords = 64;

  /// \brief Appends one record to `shard` through a small per-shard buffer
  /// (flushed as a block every `kBufferRecords` records, under budget
  /// pressure once the buffer holds at least `kMinFlushRecords`, and at
  /// Finish). Buffered bytes count against the budget — with many shards
  /// the idle buffers would otherwise add
  /// O(num_shards * kBufferRecords * sizeof(T)) of unaccounted residency.
  Status AppendRecord(size_t shard, const T& record) {
    CROWDER_CHECK_LT(shard, shards_.size());
    if (finished_) return Status::InvalidArgument("AppendRecord on a finished store");
    Shard& s = shards_[shard];
    s.buffer.push_back(record);
    buffer_bytes_ += sizeof(T);
    if (s.buffer.size() >= kBufferRecords) return FlushBuffer(shard);
    if (memory_budget_bytes_ > 0 && memory_bytes_ + buffer_bytes_ > memory_budget_bytes_ &&
        s.buffer.size() >= kMinFlushRecords) {
      // Past the budget the flushed block spills, freeing its buffered
      // bytes. Only the shard that just grew is flushed (no O(num_shards)
      // drain per append), and only at block granularity — buffers below
      // the floor are the documented slack.
      return FlushBuffer(shard);
    }
    return Status::OK();
  }

  /// \brief Flushes every per-shard buffer and seals the store; appends
  /// afterwards are errors, reads become legal.
  Status Finish() {
    if (finished_) return Status::InvalidArgument("Finish on a finished store");
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i].buffer.empty()) CROWDER_RETURN_NOT_OK(FlushBuffer(i));
    }
    finished_ = true;
    return Status::OK();
  }

  /// \brief Whether Finish has sealed the store.
  bool finished() const { return finished_; }

  /// \brief Blocks appended to `shard`.
  size_t num_blocks(size_t shard) const {
    CROWDER_CHECK_LT(shard, shards_.size());
    return shards_[shard].blocks.size();
  }

  /// \brief Sequential reader over one block: lends a resident block
  /// whole, without a copy, and reads a spilled one through its own buffer
  /// of at most `buffer_records` records at a time. Must not outlive the
  /// store.
  class BlockReader {
   public:
    /// \brief The next chunk of the block, valid until the next call; an
    /// empty chunk once the block is exhausted.
    Result<const std::vector<T>*> Next() {
      if (resident_ != nullptr) return std::exchange(resident_, nullptr);
      // A resident block's reader never fills the buffer: once the block is
      // lent, every chunk is empty.
      if (cursor_) CROWDER_RETURN_NOT_OK(ReadChunk(&*cursor_, buffer_records_, &buffer_));
      return &buffer_;
    }

   private:
    friend class ShardedSpillStore;
    explicit BlockReader(const std::vector<T>* resident) : resident_(resident) {}
    BlockReader(typename SpillLog<T>::BlockCursor cursor, size_t buffer_records)
        : cursor_(std::move(cursor)), buffer_records_(std::max<size_t>(1, buffer_records)) {}

    const std::vector<T>* resident_ = nullptr;  ///< a resident block, until lent
    std::optional<typename SpillLog<T>::BlockCursor> cursor_;  ///< set for a spilled block
    size_t buffer_records_ = 0;
    std::vector<T> buffer_;
  };

  /// \brief Opens a reader over block `block` of `shard`. Requires Finish.
  Result<BlockReader> OpenBlock(size_t shard, size_t block, size_t buffer_records) const {
    if (!finished_) return Status::InvalidArgument("read before Finish");
    CROWDER_CHECK_LT(block, num_blocks(shard));
    const Block& b = shards_[shard].blocks[block];
    if (b.spill_index == kResident) return BlockReader(&b.records);
    CROWDER_ASSIGN_OR_RETURN(auto cursor, log_->OpenBlock(b.spill_index));
    return BlockReader(std::move(cursor), buffer_records);
  }

  /// \brief Visits every block of `shard` in append order, each whole: a
  /// resident block as stored, a spilled one read into one buffer the store
  /// reuses across scans (so scans must not nest). Requires Finish;
  /// repeatable. A non-OK status from `fn` aborts the scan.
  Status Scan(size_t shard, const std::function<Status(const std::vector<T>&)>& fn) const {
    if (!finished_) return Status::InvalidArgument("Scan before Finish");
    for (size_t b = 0; b < num_blocks(shard); ++b) {
      const Block& block = shards_[shard].blocks[b];
      if (block.spill_index == kResident) {
        CROWDER_RETURN_NOT_OK(fn(block.records));
        continue;
      }
      CROWDER_ASSIGN_OR_RETURN(auto cursor, log_->OpenBlock(block.spill_index));
      CROWDER_RETURN_NOT_OK(ReadChunk(&cursor, SIZE_MAX, &scan_buffer_));
      CROWDER_RETURN_NOT_OK(fn(scan_buffer_));
    }
    return Status::OK();
  }

  /// \brief Records appended to `shard` so far.
  uint64_t shard_records(size_t shard) const {
    CROWDER_CHECK_LT(shard, shards_.size());
    return shards_[shard].records;
  }

  /// \brief Records appended across all shards.
  uint64_t total_records() const {
    uint64_t total = 0;
    for (const Shard& s : shards_) total += s.records;
    return total;
  }

  /// \brief Record bytes currently resident in memory (blocks + buffers).
  /// Under budget pressure this stays within `memory_budget_bytes` plus the
  /// flush-floor slack (`num_shards() * kMinFlushRecords * sizeof(T)`).
  uint64_t memory_bytes() const { return memory_bytes_ + buffer_bytes_; }

  /// \brief Blocks written to disk across all shards.
  size_t spilled_blocks() const { return log_ ? log_->num_blocks() : 0; }

  /// \brief Bytes written to disk across all shards.
  uint64_t spilled_bytes() const { return log_ ? log_->bytes_written() : 0; }

 private:
  static constexpr size_t kBufferRecords = 4096;
  static constexpr size_t kResident = SIZE_MAX;

  /// The one read of spilled records: the next at most `max_records`
  /// records under `cursor` into `*buffer`, resized to fit them.
  static Status ReadChunk(typename SpillLog<T>::BlockCursor* cursor, size_t max_records,
                          std::vector<T>* buffer) {
    buffer->resize(static_cast<size_t>(std::min<uint64_t>(max_records, cursor->remaining())));
    if (buffer->empty()) return Status::OK();
    CROWDER_ASSIGN_OR_RETURN(const size_t got, cursor->Read(buffer->data(), buffer->size()));
    if (got != buffer->size()) return Status::IOError("spill read: truncated block");
    return Status::OK();
  }

  /// Moves one shard's buffered records into the block path (which decides
  /// memory vs spill under the budget).
  Status FlushBuffer(size_t shard) {
    Shard& s = shards_[shard];
    buffer_bytes_ -= static_cast<uint64_t>(s.buffer.size()) * sizeof(T);
    std::vector<T> block;
    block.swap(s.buffer);
    return Append(shard, std::move(block));
  }

  struct Block {
    std::vector<T> records;  ///< the records while resident; empty once spilled
    size_t spill_index = kResident;  ///< block index in log_, or kResident
  };

  struct Shard {
    std::vector<Block> blocks;
    std::vector<T> buffer;
    uint64_t records = 0;
  };

  uint64_t memory_budget_bytes_;
  std::vector<Shard> shards_;
  std::unique_ptr<SpillLog<T>> log_;  ///< created on the first spill
  mutable std::vector<T> scan_buffer_;
  uint64_t memory_bytes_ = 0;
  uint64_t buffer_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace crowder

#endif  // CROWDER_COMMON_SPILL_H_
