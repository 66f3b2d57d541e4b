// csmt::svc wire protocol (DESIGN.md §15) — the JSON message bodies the
// coordinator and its clients exchange over csmt::net HTTP.
//
// The schema deliberately reuses the repo's existing vocabulary: points are
// sim::ExperimentSpec objects in the exact encoding sim::spec_to_json /
// render_json established (so a submission body is readable by anything
// that already reads sweep artifacts), results are sim::to_json documents,
// and the canonical job key is the v5 sweep spec-hash — the same key the
// on-disk result cache and checkpoint parking use.
//
//   POST /submit    SubmitRequest   -> SubmitResponse
//   POST /lease     LeaseRequest    -> LeaseResponse
//   POST /heartbeat HeartbeatRequest-> HeartbeatResponse
//   POST /result    ResultUpload    -> {"accepted": bool}
//   GET  /job?id=N                  -> JobStatus
//   GET  /metrics, /events, /       -> shared observability endpoints
//
// Every decode returns nullopt on missing/malformed required fields; the
// coordinator answers those with 400 instead of guessing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/experiment.hpp"

namespace csmt::svc {

struct SubmitRequest {
  std::vector<sim::ExperimentSpec> points;

  json::Value to_json() const;
  static std::optional<SubmitRequest> from_json(const json::Value& v);
};

struct SubmitResponse {
  std::uint64_t job = 0;
  std::uint64_t total = 0;   ///< points in the submission
  std::uint64_t cached = 0;  ///< answered from the result cache at submit
  std::uint64_t deduped = 0; ///< attached to an already-in-flight point
  bool complete = false;     ///< true when every point was cache-served

  json::Value to_json() const;
  static std::optional<SubmitResponse> from_json(const json::Value& v);
};

struct LeaseRequest {
  std::string worker;      ///< stable worker identity (its heartbeat key)
  std::uint64_t max = 1;   ///< most leases to grant in this pull

  json::Value to_json() const;
  static std::optional<LeaseRequest> from_json(const json::Value& v);
};

/// One granted point: the spec plus the coordinator-chosen checkpoint
/// parking spot. A requeued point is re-granted with the same ckpt_path, so
/// the next worker resumes from the dead worker's parked snapshot.
struct Lease {
  std::uint64_t lease = 0;
  sim::ExperimentSpec spec;
  std::string ckpt_path;       ///< empty = no checkpointing for this point
  std::uint64_t ckpt_interval = 0;
  std::uint64_t ckpt_tag = 0;  ///< spec-hash, the checkpoint identity tag
};

struct LeaseResponse {
  std::vector<Lease> leases;
  /// Poll-again delay when empty; 0 when the coordinator already waited
  /// (the /lease long poll), so the worker re-polls at once.
  std::uint64_t idle_ms = 200;
  std::uint64_t heartbeat_ms = 1000;///< expected heartbeat period
  bool shutdown = false;            ///< coordinator draining: worker exits

  json::Value to_json() const;
  static std::optional<LeaseResponse> from_json(const json::Value& v);
};

struct HeartbeatRequest {
  std::string worker;
  std::vector<std::uint64_t> leases;  ///< leases the worker still holds

  json::Value to_json() const;
  static std::optional<HeartbeatRequest> from_json(const json::Value& v);
};

struct HeartbeatResponse {
  /// Leases the coordinator no longer recognizes as the worker's (expired
  /// and requeued, or completed by someone else) — the worker should treat
  /// the point as lost and not upload its result.
  std::vector<std::uint64_t> lost;
  bool shutdown = false;

  json::Value to_json() const;
  static std::optional<HeartbeatResponse> from_json(const json::Value& v);
};

struct ResultUpload {
  std::string worker;
  std::uint64_t lease = 0;
  sim::ExperimentResult result;

  json::Value to_json() const;
  static std::optional<ResultUpload> from_json(const json::Value& v);
};

struct JobStatus {
  std::uint64_t job = 0;
  std::uint64_t total = 0;
  std::uint64_t done = 0;
  bool complete = false;
  bool found = true;
  /// Submission-order results; populated only when complete (a partially
  /// done job answers with counts so pollers stay cheap).
  std::vector<sim::ExperimentResult> results;

  json::Value to_json() const;
  static std::optional<JobStatus> from_json(const json::Value& v);
};

}  // namespace csmt::svc
