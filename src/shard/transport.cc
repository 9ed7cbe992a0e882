#include "shard/transport.h"

#include <errno.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "shard/worker.h"

namespace crowder {
namespace shard {

namespace {

// Payload bytes Recv reads (and allocates) per step.
constexpr size_t kRecvChunk = size_t{1} << 20;

void PutU32Raw(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}
void PutU64Raw(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}
uint32_t GetU32Raw(const uint8_t* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(in[i]) << (8 * i);
  return v;
}
uint64_t GetU64Raw(const uint8_t* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(in[i]) << (8 * i);
  return v;
}

}  // namespace

PipeTransport::PipeTransport(int read_fd, int write_fd, std::string peer_name)
    : read_fd_(read_fd), write_fd_(write_fd), peer_name_(std::move(peer_name)) {}

PipeTransport::~PipeTransport() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0) ::close(write_fd_);
}

Status PipeTransport::WriteFully(const uint8_t* data, size_t size) {
  if (write_fd_ < 0) return Status::IOError(peer_name_ + ": send side already closed");
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(write_fd_, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EPIPE is the normal shape of "the peer died with frames in flight"
      // (SIGPIPE is ignored by the spawner; see process.cc).
      return Status::IOError(peer_name_ + ": pipe write failed: " + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PipeTransport::ReadFully(uint8_t* data, size_t size, bool* eof) {
  *eof = false;
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(read_fd_, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(peer_name_ + ": pipe read failed: " + std::strerror(errno));
    }
    if (n == 0) {
      if (done == 0) {
        *eof = true;
        return Status::OK();
      }
      return Status::IOError(peer_name_ + ": stream truncated mid-frame (peer died?)");
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status PipeTransport::Send(const Frame& frame) {
  uint8_t header[12];
  PutU32Raw(header, static_cast<uint32_t>(frame.type));
  PutU64Raw(header + 4, frame.payload.size());
  CROWDER_RETURN_NOT_OK(WriteFully(header, sizeof(header)));
  return WriteFully(frame.payload.data(), frame.payload.size());
}

Result<Frame> PipeTransport::Recv() {
  uint8_t header[12];
  bool eof = false;
  CROWDER_RETURN_NOT_OK(ReadFully(header, sizeof(header), &eof));
  if (eof) {
    // The protocol ends with a terminal frame, so even a clean EOF means
    // the peer exited without finishing its stream.
    return Status::IOError(peer_name_ + ": stream ended without a terminal frame (peer died?)");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(GetU32Raw(header));
  const uint64_t payload_len = GetU64Raw(header + 4);
  if (payload_len > kMaxFramePayload) {
    return Status::IOError(peer_name_ + ": corrupt frame (payload of " +
                           std::to_string(payload_len) + " bytes)");
  }
  // Grow the buffer only as bytes arrive: a 12-byte header may declare up
  // to kMaxFramePayload, and a truncated frame must fail having allocated
  // in proportion to what arrived, not to what was declared.
  while (frame.payload.size() < payload_len) {
    const size_t have = frame.payload.size();
    const size_t take = static_cast<size_t>(std::min<uint64_t>(kRecvChunk, payload_len - have));
    frame.payload.resize(have + take);
    CROWDER_RETURN_NOT_OK(ReadFully(frame.payload.data() + have, take, &eof));
    if (eof) {
      return Status::IOError(peer_name_ + ": stream truncated mid-frame (peer died?)");
    }
  }
  return frame;
}

Status PipeTransport::CloseSend() {
  if (write_fd_ >= 0) {
    ::close(write_fd_);
    write_fd_ = -1;
  }
  return Status::OK();
}

InProcessTransport::InProcessTransport(std::string peer_name)
    : peer_name_(std::move(peer_name)) {}

Status InProcessTransport::Send(const Frame& frame) {
  if (sealed_) return Status::IOError(peer_name_ + ": send side already closed");
  inbox_.push_back(frame);
  return Status::OK();
}

Status InProcessTransport::CloseSend() {
  if (sealed_) return Status::OK();
  sealed_ = true;
  // Run the worker synchronously over the queued spec: the same AnswerJob
  // a subprocess worker runs, so the coordinator's handling is identical
  // across transports.
  size_t next = 0;
  std::vector<Frame> answer = AnswerJob([&]() -> Result<Frame> {
    if (next == inbox_.size()) {
      return Status::IOError(peer_name_ + ": spec ended without kJobSealed");
    }
    return std::move(inbox_[next++]);
  });
  inbox_.clear();
  for (Frame& frame : answer) outbox_.push_back(std::move(frame));
  return Status::OK();
}

Result<Frame> InProcessTransport::Recv() {
  if (outbox_.empty()) {
    return Status::IOError(peer_name_ + ": stream ended without a terminal frame (peer died?)");
  }
  Frame frame = std::move(outbox_.front());
  outbox_.pop_front();
  return frame;
}

}  // namespace shard
}  // namespace crowder
