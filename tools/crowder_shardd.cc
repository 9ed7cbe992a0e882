// crowder_shardd — the shard worker daemon of the sharded machine pass
// (src/shard/; docs/ARCHITECTURE.md "The sharded runtime").
//
// Spawned by the shard coordinator (shard/process.h) with the job pipes on
// stdin/stdout: it reads one job spec (length-prefixed binary frames —
// shard/proto.h), runs the owned-probe AllPairs join over its slice, writes
// the shard's sorted owned pair stream back, and exits. An invalid job, and
// a job stream that ends early or breaks mid-frame, travel to the
// coordinator as a kWorkerError frame; only a failure to write the answer
// (the coordinator is gone) makes this process exit non-zero.
//
// The argv ("worker <shard index>") is cosmetic — it makes shards tell
// apart in `ps` — the authoritative parameters arrive in the kJobSpec
// frame.
#include <unistd.h>

#include <iostream>

#include "shard/transport.h"
#include "shard/worker.h"

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  if (::isatty(STDIN_FILENO)) {
    std::cerr << "crowder_shardd expects a shard job spec on stdin (it is spawned by the\n"
                 "shard coordinator — `crowder_cli run --shards N`); not an interactive tool\n";
    return 2;
  }
  crowder::shard::PipeTransport transport(STDIN_FILENO, STDOUT_FILENO, "coordinator");
  const crowder::Status status = crowder::shard::RunShardWorker(&transport);
  if (!status.ok()) {
    std::cerr << "crowder_shardd: " << status.ToString() << "\n";
    return 1;
  }
  return 0;
}
