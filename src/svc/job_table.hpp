// csmt::svc::JobTable — the coordinator's in-memory state machine
// (DESIGN.md §15): jobs, points, leases, and the dedupe index.
//
// A *job* is one submission (an ordered list of points). A *point* is one
// distinct experiment, keyed by the v5 sweep spec-hash — the same key the
// result cache and checkpoint parking use. Two jobs that submit the same
// spec share one point (the dedupe: the second submitter attaches to the
// first's in-flight future and both jobs complete when the point does).
//
// Point lifecycle:
//
//   queued --lease()--> leased --complete()--> done
//     ^                   |
//     +----expire()-------+   (missed heartbeats: requeued at the FRONT of
//                              the queue, so the next worker pull resumes
//                              it from its parked checkpoint immediately)
//
// The table is clock-free — every time-sensitive call takes `now_ms` from
// the caller (the coordinator's steady clock, or a test's fake clock) — and
// owns no I/O: cache probing and checkpoint paths are the coordinator's
// business. One mutex guards everything; every operation is O(points
// touched), and the hot ones (lease, heartbeat, complete) touch O(1).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/experiment.hpp"

namespace csmt::svc {

/// Aggregate counters, mirrored into the telemetry registry as svc.* by the
/// coordinator. All monotonic except the derived queue/lease gauges.
struct TableStats {
  std::uint64_t submitted = 0;     ///< points across all submissions
  std::uint64_t deduped = 0;       ///< attached to an in-flight point
  std::uint64_t cache_hits = 0;    ///< served without execution at submit
  std::uint64_t executed = 0;      ///< results accepted from workers
  std::uint64_t completed = 0;     ///< points transitioned to done
  std::uint64_t requeued = 0;      ///< leases expired back into the queue
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_expired = 0;
};

class JobTable {
 public:
  struct Grant {
    std::uint64_t lease = 0;
    std::uint64_t hash = 0;       ///< spec-hash (the point key)
    unsigned attempt = 1;         ///< 1 = first execution, >1 = requeued
    sim::ExperimentSpec spec;
  };

  struct SubmitOutcome {
    std::uint64_t job = 0;
    std::uint64_t total = 0;
    std::uint64_t cached = 0;
    std::uint64_t deduped = 0;
    std::uint64_t queued = 0;  ///< points this submission added to the queue
    bool complete = false;
  };

  enum class UploadOutcome {
    kAccepted,   ///< point transitioned to done
    kStale,      ///< point already done (duplicate/late upload) — harmless
    kUnknown,    ///< lease id never granted
  };

  struct Status {
    std::uint64_t job = 0;
    std::uint64_t total = 0;
    std::uint64_t done = 0;
    bool complete = false;
    bool found = false;
    /// Submission-order results, filled only when `complete`.
    std::vector<std::shared_ptr<const sim::ExperimentResult>> results;
  };

  /// Registers one job. `cached[i]`, when set, is point i's result served
  /// from the coordinator's cache probe — the point is born done. Points
  /// whose spec-hash is already in the table attach to the existing point
  /// (done -> counted as cached; in flight -> counted as deduped).
  SubmitOutcome submit(
      const std::vector<sim::ExperimentSpec>& points,
      const std::vector<std::optional<sim::ExperimentResult>>& cached);

  /// Grants up to `max` queued points to `worker`, FIFO, each under a fresh
  /// lease expiring at now_ms + ttl_ms.
  std::vector<Grant> lease(const std::string& worker, std::uint64_t max,
                           std::int64_t now_ms, std::int64_t ttl_ms);

  /// Renews `worker`'s listed leases to now_ms + ttl_ms. Returns the subset
  /// that is no longer the worker's to hold (expired-and-requeued, regranted
  /// to someone else, or completed) — the worker treats those as lost.
  std::vector<std::uint64_t> heartbeat(const std::string& worker,
                                       const std::vector<std::uint64_t>& leases,
                                       std::int64_t now_ms,
                                       std::int64_t ttl_ms);

  /// Requeues every leased point whose lease deadline passed. Requeued
  /// points go to the FRONT of the queue (their parked checkpoint makes
  /// them the cheapest work available). Returns the number requeued.
  std::size_t expire(std::int64_t now_ms);

  /// Accepts a worker's finished result for `lease`. A late upload for a
  /// requeued-but-not-yet-finished point is still accepted (the work is
  /// valid; the requeued queue entry is dropped).
  UploadOutcome complete(std::uint64_t lease,
                         const sim::ExperimentResult& result);

  Status status(std::uint64_t job) const;

  TableStats stats() const;
  std::size_t queued() const;
  std::size_t leased() const;
  /// True once every submitted point is done (idle table = true).
  bool all_done() const;

 private:
  enum class State { kQueued, kLeased, kDone };

  struct Point {
    sim::ExperimentSpec spec;
    State state = State::kQueued;
    unsigned attempts = 0;            ///< lease grants so far
    std::uint64_t active_lease = 0;   ///< current lease id (kLeased only)
    std::shared_ptr<const sim::ExperimentResult> result;
  };

  struct LeaseRecord {
    std::uint64_t hash = 0;
    std::string worker;
    std::int64_t deadline_ms = 0;
    bool active = false;
  };

  /// Drops `hash` from queue_ (slow path: only taken when a late upload
  /// lands for a requeued point).
  void unqueue(std::uint64_t hash);

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Point> points_;
  std::deque<std::uint64_t> queue_;  ///< queued point hashes, FIFO
  /// Every lease ever granted (flipped inactive on expire/complete); lease
  /// ids are never reused, so late uploads resolve their point forever.
  std::unordered_map<std::uint64_t, LeaseRecord> leases_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> jobs_;
  std::uint64_t next_job_ = 1;
  std::uint64_t next_lease_ = 1;
  TableStats stats_;
};

}  // namespace csmt::svc
