// Frame transports: how the coordinator and a worker exchange proto.h
// frames. Two implementations, one contract:
//
//   * PipeTransport — length-prefixed frames over a pair of pipe fds; the
//     subprocess runtime (process.h spawns crowder_shardd and hands each
//     side its fds). A peer that dies mid-stream surfaces as an IOError
//     from Recv/Send (never a hang, never a partial frame).
//   * InProcessTransport — the worker runs synchronously inside
//     CloseSend() and its output frames are replayed from a queue. Same
//     frames, same bytes, no processes or threads — the transport the
//     tests (and TSan) use, and the fallback when no worker binary is
//     configured.
//
// The coordinator writes a whole job spec, calls CloseSend(), then reads
// result frames until a terminal kWorkerDone / kWorkerError. Workers on
// both transports mirror it through one function, shard::AnswerJob: read
// until kJobSealed, compute, write results — or one kWorkerError when the
// job is invalid or its stream ends early.
#ifndef CROWDER_SHARD_TRANSPORT_H_
#define CROWDER_SHARD_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/result.h"
#include "shard/proto.h"

namespace crowder {
namespace shard {

/// \brief One side of a frame connection. Implementations are
/// single-threaded; the coordinator drives its transports sequentially.
class FrameTransport {
 public:
  virtual ~FrameTransport() = default;

  /// Sends one frame; IOError when the peer is gone (EPIPE, closed queue).
  virtual Status Send(const Frame& frame) = 0;

  /// Receives the next frame. EOF — at any point, frame boundary or not —
  /// is an IOError naming the peer: the protocol always ends with a
  /// terminal frame, so a bare EOF means the peer died.
  virtual Result<Frame> Recv() = 0;

  /// Seals the sending direction (the peer's Recv sees EOF after the
  /// frames already sent). Send afterwards is an error.
  virtual Status CloseSend() = 0;
};

/// \brief Frames over pipe fds. Owns both fds (closes them on
/// destruction). `peer_name` labels errors ("shard 2 worker", "coordinator").
class PipeTransport : public FrameTransport {
 public:
  PipeTransport(int read_fd, int write_fd, std::string peer_name);
  ~PipeTransport() override;

  PipeTransport(const PipeTransport&) = delete;
  PipeTransport& operator=(const PipeTransport&) = delete;

  Status Send(const Frame& frame) override;
  Result<Frame> Recv() override;
  Status CloseSend() override;

 private:
  Status WriteFully(const uint8_t* data, size_t size);
  /// Reads exactly `size` bytes; `*eof` is set instead when 0 bytes were
  /// read at a clean boundary (caller decides whether that is an error).
  Status ReadFully(uint8_t* data, size_t size, bool* eof);

  int read_fd_;
  int write_fd_;
  std::string peer_name_;
};

/// \brief The synchronous in-process worker transport, coordinator side:
/// Send queues spec frames; CloseSend runs the worker job over them
/// (shard/worker.h) and queues its output; Recv replays the output.
class InProcessTransport : public FrameTransport {
 public:
  explicit InProcessTransport(std::string peer_name);

  Status Send(const Frame& frame) override;
  Result<Frame> Recv() override;
  Status CloseSend() override;

 private:
  std::string peer_name_;
  std::vector<Frame> inbox_;
  std::deque<Frame> outbox_;
  bool sealed_ = false;
};

}  // namespace shard
}  // namespace crowder

#endif  // CROWDER_SHARD_TRANSPORT_H_
