// csmt::svc::Coordinator — the long-lived sweep service head (DESIGN.md
// §15). One csmt::net HTTP port serves everything:
//
//   POST /submit     register a job (cache-probing each point first)
//   POST /lease      grant queued points to a pulling worker (long poll)
//   POST /heartbeat  renew a worker's leases; report lost ones
//   POST /result     accept a finished point (published to the cache)
//   GET  /job?id=N   job progress; full results once complete
//   GET  /metrics, /events, /   shared observability (fleet console)
//
// The coordinator owns the JobTable, the result-cache directory (probe at
// submit, publish at upload — so a resubmitted grid is answered with zero
// execution), the checkpoint parking policy (leases carry
// <cache_dir>/ckpt/csmt-<hash>.ckpt so a requeued point's next worker
// resumes the dead worker's snapshot), and a reaper thread that expires
// leases whose heartbeats stopped. Live state is mirrored into the
// telemetry registry as svc.* counters/gauges.
//
// An empty /lease is a long poll: it parks on a condition variable for up
// to `idle_ms` and is woken by a submit that queued work, a reaper requeue,
// or shutdown, so fresh work is granted as soon as it exists rather than at
// the worker's next poll.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/http.hpp"
#include "svc/job_table.hpp"
#include "telemetry/registry.hpp"

namespace csmt::svc {

struct CoordinatorOptions {
  std::uint16_t port = 0;      ///< 0 = kernel-assigned ephemeral port
  std::string cache_dir;       ///< result cache + ckpt parking; empty = off
  std::int64_t lease_ttl_ms = 3000;   ///< heartbeat grace before requeue
  std::uint64_t heartbeat_ms = 1000;  ///< period advertised to workers
  /// Longest an empty /lease parks waiting for work (server side). Must stay
  /// below the worker's RPC timeout (net::http_request, 10 s).
  std::uint64_t idle_ms = 200;
  std::uint64_t ckpt_interval = 0;    ///< cycles between worker snapshots
  std::uint64_t reap_interval_ms = 250;  ///< reaper thread wake period
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options,
                       telemetry::Registry& registry =
                           telemetry::Registry::global());
  ~Coordinator() { stop(); }
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Binds the port, spawns the accept and reaper threads. False (with a
  /// stderr message) if the socket can't be bound.
  bool start();
  /// Flags shutdown to workers (lease/heartbeat responses), joins threads.
  void stop();

  bool running() const { return http_.running(); }
  std::uint16_t port() const { return http_.port(); }
  const CoordinatorOptions& options() const { return options_; }

  /// Tells workers to exit on their next lease/heartbeat exchange; parked
  /// leases return at once with the flag set.
  void request_shutdown() {
    shutdown_.store(true);
    wake_leases();
  }

  const JobTable& table() const { return table_; }

  /// Times parked /lease requests have been woken so far.
  std::uint64_t lease_wakeups() const {
    std::lock_guard<std::mutex> lock(wake_mu_);
    return wake_gen_;
  }

  /// Milliseconds since the coordinator started (its lease clock).
  std::int64_t now_ms() const;

 private:
  void handle(const net::HttpRequest& req, net::ClientConn& conn);
  /// Grants up to `max` points to `worker`; while there are none, parks
  /// until woken or `idle_ms` passes. `*parked` reports whether it waited.
  std::vector<JobTable::Grant> lease_or_park(const std::string& worker,
                                             std::uint64_t max, bool* parked);
  /// Wakes every parked /lease to look at the queue (or the shutdown flag).
  void wake_leases();
  void reaper_loop();
  void publish_telemetry();
  /// Records a lease/heartbeat sighting of `worker`; the svc.workers gauge
  /// counts workers seen within one lease TTL.
  void note_worker(const std::string& worker);

  CoordinatorOptions options_;
  telemetry::Registry& registry_;
  JobTable table_;
  net::HttpServer http_;
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> stopping_{false};
  std::thread reaper_;
  mutable std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::uint64_t wake_gen_ = 0;  ///< bumped by wake_leases(); under wake_mu_
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex workers_mu_;
  std::unordered_map<std::string, std::int64_t> workers_;  ///< last-seen ms
};

}  // namespace csmt::svc
