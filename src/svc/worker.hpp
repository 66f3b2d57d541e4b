// csmt::svc::Worker — the pull-based execution half of the sweep service
// (DESIGN.md §15). A worker is a loop:
//
//   1. POST /lease — pull up to `max_leases` points (work-stealing: any
//      idle worker drains the coordinator's queue, so a fast host naturally
//      takes more points than a slow one).
//   2. For each granted point: stamp the lease's checkpoint fields onto the
//      spec and run it through SweepRunner::run_point (cache probe, ckpt
//      arming, execute, publish, ckpt cleanup — the full local semantics).
//      A background thread heartbeats the held lease every heartbeat_ms.
//   3. POST /result — upload the finished point.
//   4. Empty lease response: sleep idle_ms and pull again (0 after the
//      coordinator's long poll already waited). shutdown flag or
//      `max_failures` consecutive unreachable-coordinator exchanges: exit.
//
// If the worker dies mid-point (crash, SIGKILL), its heartbeats stop, the
// coordinator requeues the lease, and the next worker resumes from the
// checkpoint the dead worker parked — that is the whole fault-tolerance
// story, and it falls out of csmt::ckpt's write-tmp-then-rename snapshots.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "sweep/sweep.hpp"

namespace csmt::svc {

struct WorkerOptions {
  std::string host = "127.0.0.1";  ///< coordinator host
  std::uint16_t port = 0;          ///< coordinator port (required)
  std::string name;                ///< stable identity; "" = "pid-<pid>"
  std::uint64_t max_leases = 1;    ///< points to pull per /lease
  unsigned max_failures = 25;      ///< consecutive RPC failures before exit
  /// Worker-local sweep options (cache_dir usually shared with the
  /// coordinator on one host; jobs/progress are worker-local).
  sweep::SweepOptions sweep;
};

/// Outcome of a worker's run() — how it exited and what it did.
struct WorkerReport {
  std::uint64_t completed = 0;   ///< results uploaded and accepted
  std::uint64_t lost = 0;        ///< leases the coordinator reclaimed
  bool shutdown = false;         ///< true = coordinator told us to exit
  bool unreachable = false;      ///< true = gave up after max_failures
};

class Worker {
 public:
  explicit Worker(WorkerOptions options);

  /// Runs the lease/execute/upload loop until shutdown, unreachability, or
  /// request_stop(). Blocking; call from the worker process's main thread.
  WorkerReport run();

  /// Makes run() return after the in-flight point (test hook).
  void request_stop() { stop_.store(true); }

  const WorkerOptions& options() const { return options_; }

 private:
  WorkerOptions options_;
  std::atomic<bool> stop_{false};
};

}  // namespace csmt::svc
