// Tests for csmt::svc (DESIGN.md §15): the wire protocol round-trips, the
// JobTable lease state machine (expiry, requeue-at-front, dedupe, late
// uploads), the /lease long poll (what wakes a parked lease and what must
// not), the HTTP server's connection cap and read deadline, a
// malformed-input check against a live coordinator, and two end-to-end
// gates against it —
//
//   * a 2-worker distributed sweep whose results JSON is byte-identical
//     (modulo host-time fields) to a local SweepRunner run, with a
//     resubmission answered entirely from cache; and
//   * a real `csmt-svc work` child process SIGKILLed mid-point, whose
//     lease expires and is requeued, and whose replacement worker resumes
//     from the parked checkpoint to the same byte-identical results.
//
// Worker processes are posix_spawn'd from CSMT_SVC_BIN (never fork: this
// binary runs server threads).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "sim/report.hpp"
#include "svc/coordinator.hpp"
#include "svc/job_table.hpp"
#include "svc/wire.hpp"
#include "svc/worker.hpp"
#include "sweep/sweep.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
extern char** environ;
#define CSMT_SVC_HAVE_SPAWN 1
#endif

namespace csmt::svc {
namespace {

namespace fs = std::filesystem;

sim::ExperimentSpec make_spec(const std::string& workload, unsigned scale,
                              core::ArchKind arch = core::ArchKind::kSmt2) {
  sim::ExperimentSpec spec;
  spec.workload = workload;
  spec.arch = arch;
  spec.scale = scale;
  return spec;
}

/// A fresh per-test directory under the gtest temp root.
std::string fresh_dir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("svc-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// to_json with the host-time fields (sim_speed, resumed_from_cycle)
/// removed — the identity the CI smoke compares on.
json::Value stripped_json(const sim::ExperimentResult& r) {
  const json::Value full = sim::to_json(r);
  json::Value out = json::Value::object();
  for (const auto& [key, value] : full.members()) {
    if (key == "sim_speed" || key == "resumed_from_cycle") continue;
    out[key] = value;
  }
  return out;
}

std::string fingerprint(const std::vector<sim::ExperimentResult>& results) {
  std::string out;
  for (const sim::ExperimentResult& r : results)
    out += stripped_json(r).dump(2) + "\n";
  return out;
}

// --- wire protocol ---

TEST(SvcWire, SubmitRoundTripPreservesSpecs) {
  SubmitRequest req;
  req.points = {make_spec("swim", 2), make_spec("tomcatv", 3,
                                                core::ArchKind::kFa4)};
  req.points[1].metrics_interval = 256;
  const auto decoded = SubmitRequest::from_json(req.to_json());
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->points.size(), 2u);
  EXPECT_TRUE(decoded->points[0] == req.points[0]);
  EXPECT_TRUE(decoded->points[1] == req.points[1]);
}

TEST(SvcWire, MalformedBodiesDecodeToNullopt) {
  EXPECT_FALSE(SubmitRequest::from_json(*json::Value::parse("{}")));
  EXPECT_FALSE(SubmitRequest::from_json(
      *json::Value::parse(R"({"points": [{"workload": "swim"}]})")));
  EXPECT_FALSE(LeaseRequest::from_json(
      *json::Value::parse(R"({"worker": ""})")));
  EXPECT_FALSE(HeartbeatRequest::from_json(*json::Value::parse("{}")));
  EXPECT_FALSE(ResultUpload::from_json(
      *json::Value::parse(R"({"worker": "w", "lease": 1})")));
}

TEST(SvcWire, LeaseResponseCarriesCheckpointParking) {
  LeaseResponse resp;
  Lease l;
  l.lease = 7;
  l.spec = make_spec("swim", 2);
  l.ckpt_path = "/tmp/cache/ckpt/csmt-00ff.ckpt";
  l.ckpt_interval = 5000;
  l.ckpt_tag = 0xff;
  resp.leases.push_back(l);
  resp.heartbeat_ms = 123;
  resp.shutdown = true;
  const auto decoded = LeaseResponse::from_json(resp.to_json());
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->leases.size(), 1u);
  EXPECT_EQ(decoded->leases[0].lease, 7u);
  EXPECT_EQ(decoded->leases[0].ckpt_path, l.ckpt_path);
  EXPECT_EQ(decoded->leases[0].ckpt_interval, 5000u);
  EXPECT_EQ(decoded->leases[0].ckpt_tag, 0xffu);
  EXPECT_EQ(decoded->heartbeat_ms, 123u);
  EXPECT_TRUE(decoded->shutdown);
}

// --- JobTable: the lease state machine ---

std::vector<std::optional<sim::ExperimentResult>> no_cache(std::size_t n) {
  return std::vector<std::optional<sim::ExperimentResult>>(n);
}

TEST(SvcJobTable, FifoLeasingAndCompletion) {
  JobTable table;
  const std::vector<sim::ExperimentSpec> points = {make_spec("swim", 2),
                                                   make_spec("tomcatv", 2)};
  const auto sub = table.submit(points, no_cache(2));
  EXPECT_EQ(sub.total, 2u);
  EXPECT_FALSE(sub.complete);
  EXPECT_EQ(table.queued(), 2u);

  const auto grants = table.lease("w0", 8, /*now_ms=*/0, /*ttl_ms=*/1000);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_TRUE(grants[0].spec == points[0]);  // FIFO: submission order
  EXPECT_EQ(grants[0].attempt, 1u);
  EXPECT_EQ(table.queued(), 0u);
  EXPECT_EQ(table.leased(), 2u);

  sim::ExperimentResult r0;
  r0.spec = points[0];
  EXPECT_EQ(table.complete(grants[0].lease, r0),
            JobTable::UploadOutcome::kAccepted);
  EXPECT_EQ(table.status(sub.job).done, 1u);
  EXPECT_FALSE(table.status(sub.job).complete);

  sim::ExperimentResult r1;
  r1.spec = points[1];
  EXPECT_EQ(table.complete(grants[1].lease, r1),
            JobTable::UploadOutcome::kAccepted);
  const auto status = table.status(sub.job);
  EXPECT_TRUE(status.complete);
  ASSERT_EQ(status.results.size(), 2u);
  EXPECT_TRUE(status.results[0]->spec == points[0]);
  EXPECT_TRUE(table.all_done());
}

TEST(SvcJobTable, ExpiredLeaseRequeuesAtFront) {
  JobTable table;
  const std::vector<sim::ExperimentSpec> points = {make_spec("swim", 2),
                                                   make_spec("tomcatv", 2)};
  table.submit(points, no_cache(2));

  // w0 takes the first point; its heartbeats then stop.
  const auto first = table.lease("w0", 1, 0, 1000);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(table.expire(/*now_ms=*/500), 0u);   // not yet due
  EXPECT_EQ(table.expire(/*now_ms=*/1001), 1u);  // dead: requeued
  EXPECT_EQ(table.stats().requeued, 1u);
  EXPECT_EQ(table.stats().leases_expired, 1u);
  EXPECT_EQ(table.queued(), 2u);

  // The requeued point jumps the queue: its parked checkpoint makes it the
  // cheapest work, so the next pull must get it first, as attempt 2.
  const auto second = table.lease("w1", 1, 1001, 1000);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].spec == points[0]);
  EXPECT_EQ(second[0].attempt, 2u);
  EXPECT_NE(second[0].lease, first[0].lease);  // lease ids never reused

  // The dead worker's heartbeat (it was only paused) reports the loss.
  const auto lost = table.heartbeat("w0", {first[0].lease}, 1002, 1000);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0], first[0].lease);
}

TEST(SvcJobTable, HeartbeatRenewalPreventsExpiry) {
  JobTable table;
  table.submit({make_spec("swim", 2)}, no_cache(1));
  const auto grants = table.lease("w0", 1, 0, 1000);
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_TRUE(table.heartbeat("w0", {grants[0].lease}, 900, 1000).empty());
  EXPECT_EQ(table.expire(1500), 0u);  // renewed to 1900
  EXPECT_EQ(table.expire(2000), 1u);  // renewal lapsed
}

TEST(SvcJobTable, LateUploadForRequeuedPointIsAccepted) {
  JobTable table;
  const auto spec = make_spec("swim", 2);
  table.submit({spec}, no_cache(1));
  const auto first = table.lease("w0", 1, 0, 1000);
  ASSERT_EQ(first.size(), 1u);
  table.expire(2000);  // w0 presumed dead, point requeued

  // w0 was only slow: its upload lands while the point sits in the queue.
  sim::ExperimentResult r;
  r.spec = spec;
  EXPECT_EQ(table.complete(first[0].lease, r),
            JobTable::UploadOutcome::kAccepted);
  EXPECT_TRUE(table.all_done());
  // The stale queue entry must not be re-granted.
  EXPECT_TRUE(table.lease("w1", 8, 2001, 1000).empty());

  // A duplicate upload is stale, an unknown lease id is rejected.
  EXPECT_EQ(table.complete(first[0].lease, r),
            JobTable::UploadOutcome::kStale);
  EXPECT_EQ(table.complete(999, r), JobTable::UploadOutcome::kUnknown);
}

TEST(SvcJobTable, IdenticalSpecsDedupeAcrossJobs) {
  JobTable table;
  const auto spec = make_spec("swim", 2);

  // Job 1 submits the point; job 2 submits the identical spec while it is
  // still in flight — it must attach, not enqueue a second execution.
  const auto job1 = table.submit({spec}, no_cache(1));
  const auto job2 = table.submit({spec}, no_cache(1));
  EXPECT_EQ(job2.deduped, 1u);
  EXPECT_EQ(table.queued(), 1u);

  const auto grants = table.lease("w0", 8, 0, 1000);
  ASSERT_EQ(grants.size(), 1u);
  sim::ExperimentResult r;
  r.spec = spec;
  table.complete(grants[0].lease, r);

  // One execution completed both jobs.
  EXPECT_TRUE(table.status(job1.job).complete);
  EXPECT_TRUE(table.status(job2.job).complete);
  EXPECT_EQ(table.stats().executed, 1u);

  // A third submission after completion is a cache hit, not a dedupe.
  const auto job3 = table.submit({spec}, no_cache(1));
  EXPECT_EQ(job3.cached, 1u);
  EXPECT_TRUE(job3.complete);
}

TEST(SvcJobTable, CacheProbedPointsAreBornDone) {
  JobTable table;
  const auto spec = make_spec("swim", 2);
  sim::ExperimentResult cached;
  cached.spec = spec;
  const auto sub = table.submit({spec}, {cached});
  EXPECT_TRUE(sub.complete);
  EXPECT_EQ(sub.cached, 1u);
  EXPECT_EQ(table.queued(), 0u);
  EXPECT_EQ(table.stats().cache_hits, 1u);
  EXPECT_EQ(table.stats().executed, 0u);
}

// --- end to end: coordinator + workers over HTTP ---

/// POSTs `body` to the coordinator and decodes the response with `Decode`.
template <typename Decode>
auto post(const Coordinator& coord, const std::string& path,
          const json::Value& body, Decode decode) {
  const auto res = net::http_request("127.0.0.1", coord.port(), "POST", path,
                                     body.dump());
  EXPECT_TRUE(res && res->status == 200) << path;
  using Out = decltype(decode(json::Value()));
  if (!res || res->status != 200) return Out{};
  const auto doc = json::Value::parse(res->body);
  EXPECT_TRUE(doc) << path;
  if (!doc) return Out{};
  return decode(*doc);
}

std::optional<JobStatus> poll_job(const Coordinator& coord, std::uint64_t job,
                                  int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto res = net::http_request(
        "127.0.0.1", coord.port(), "GET", "/job?id=" + std::to_string(job));
    if (res && res->status == 200) {
      const auto doc = json::Value::parse(res->body);
      const auto status = doc ? JobStatus::from_json(*doc) : std::nullopt;
      if (status && status->complete) return status;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return std::nullopt;
}

TEST(SvcEndToEnd, DeeplyNestedSubmitIsRejectedAndServiceStaysUp) {
  // A ~200 KB body of '[' used to recurse the JSON parser off the stack
  // and take the coordinator down with it.
  CoordinatorOptions copt;
  copt.cache_dir = fresh_dir("deep");
  Coordinator coord(copt);
  ASSERT_TRUE(coord.start());
  const auto res = net::http_request("127.0.0.1", coord.port(), "POST",
                                     "/submit", std::string(200'000, '['));
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->status, 400);
  const auto alive =
      net::http_request("127.0.0.1", coord.port(), "GET", "/metrics");
  ASSERT_TRUE(alive.has_value());
  EXPECT_EQ(alive->status, 200);
}

// --- the /lease long poll ---

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// One POST /lease and how long it took to come back (nullopt response =
/// connection failed or non-200).
struct LeaseCall {
  std::optional<LeaseResponse> resp;
  double seconds = 0;
};

std::future<LeaseCall> lease_async(std::uint16_t port, std::string worker) {
  return std::async(std::launch::async, [port, worker] {
    LeaseRequest req;
    req.worker = worker;
    const SteadyClock::time_point t0 = SteadyClock::now();
    const auto res = net::http_request("127.0.0.1", port, "POST", "/lease",
                                       req.to_json().dump());
    LeaseCall call;
    call.seconds = seconds_since(t0);
    if (res && res->status == 200) {
      if (const auto doc = json::Value::parse(res->body))
        call.resp = LeaseResponse::from_json(*doc);
    }
    return call;
  });
}

std::optional<SubmitResponse> submit(
    const Coordinator& coord, const std::vector<sim::ExperimentSpec>& points) {
  SubmitRequest req;
  req.points = points;
  return post(coord, "/submit", req.to_json(), [](const json::Value& v) {
    return SubmitResponse::from_json(v);
  });
}

/// Long enough that a lease returning well before it was woken, not timed
/// out; short enough to keep a test that waits it out quick.
constexpr std::uint64_t kLongIdleMs = 3000;
/// How long a test lets a lease request reach the server and park.
constexpr auto kParkSettle = std::chrono::milliseconds(300);

TEST(SvcLongPoll, ParkedLeaseIsGrantedRightAfterSubmit) {
  CoordinatorOptions copt;
  copt.idle_ms = kLongIdleMs;
  Coordinator coord(copt);
  ASSERT_TRUE(coord.start());

  auto parked = lease_async(coord.port(), "w0");
  std::this_thread::sleep_for(kParkSettle);
  const SteadyClock::time_point submitted = SteadyClock::now();
  const auto sub = submit(coord, {make_spec("swim", 2)});
  ASSERT_TRUE(sub);
  ASSERT_EQ(sub->cached, 0u);
  const LeaseCall call = parked.get();
  const double after_submit = seconds_since(submitted);

  ASSERT_TRUE(call.resp);
  ASSERT_EQ(call.resp->leases.size(), 1u);
  EXPECT_TRUE(call.resp->leases[0].spec == make_spec("swim", 2));
  // Granted on the submit's wake-up, not at the end of the idle period.
  EXPECT_LT(after_submit, 1.0);
  EXPECT_GE(call.seconds, 0.2);  // it really was parked
  // The coordinator already waited: the worker must poll again at once.
  EXPECT_EQ(call.resp->idle_ms, 0u);
  coord.stop();
}

TEST(SvcLongPoll, ImmediateGrantKeepsTheAdvertisedIdle) {
  CoordinatorOptions copt;
  copt.idle_ms = kLongIdleMs;
  Coordinator coord(copt);
  ASSERT_TRUE(coord.start());
  ASSERT_TRUE(submit(coord, {make_spec("swim", 2)}));
  const LeaseCall call = lease_async(coord.port(), "w0").get();
  ASSERT_TRUE(call.resp);
  EXPECT_EQ(call.resp->leases.size(), 1u);
  EXPECT_EQ(call.resp->idle_ms, kLongIdleMs);
  EXPECT_LT(call.seconds, 1.0);
  coord.stop();
}

TEST(SvcLongPoll, EmptyLeaseTimesOutAfterIdleAndAsksForAnImmediateRepoll) {
  CoordinatorOptions copt;
  copt.idle_ms = 300;
  Coordinator coord(copt);
  ASSERT_TRUE(coord.start());
  const LeaseCall call = lease_async(coord.port(), "w0").get();
  ASSERT_TRUE(call.resp);
  EXPECT_TRUE(call.resp->leases.empty());
  EXPECT_FALSE(call.resp->shutdown);
  EXPECT_GE(call.seconds, 0.25);
  EXPECT_LT(call.seconds, 2.0);
  EXPECT_EQ(call.resp->idle_ms, 0u);
  coord.stop();
}

TEST(SvcLongPoll, ReaperRequeueWakesParkedLease) {
  CoordinatorOptions copt;
  copt.idle_ms = kLongIdleMs;
  copt.lease_ttl_ms = 400;
  copt.reap_interval_ms = 50;
  Coordinator coord(copt);
  ASSERT_TRUE(coord.start());
  ASSERT_TRUE(submit(coord, {make_spec("swim", 2)}));

  // "dead" takes the point and never heartbeats; "w1" parks on the empty
  // queue until the reaper requeues the lease.
  const LeaseCall first = lease_async(coord.port(), "dead").get();
  ASSERT_TRUE(first.resp);
  ASSERT_EQ(first.resp->leases.size(), 1u);
  const SteadyClock::time_point leased = SteadyClock::now();
  const LeaseCall second = lease_async(coord.port(), "w1").get();
  const double waited = seconds_since(leased);

  ASSERT_TRUE(second.resp);
  ASSERT_EQ(second.resp->leases.size(), 1u);
  EXPECT_NE(second.resp->leases[0].lease, first.resp->leases[0].lease);
  EXPECT_EQ(coord.table().stats().requeued, 1u);
  // Woken by the requeue (TTL 0.4 s + one 50 ms reap), not by the 3 s idle.
  EXPECT_LT(waited, 1.5);
  EXPECT_EQ(second.resp->idle_ms, 0u);
  coord.stop();
}

TEST(SvcLongPoll, RequestShutdownReturnsParkedLease) {
  CoordinatorOptions copt;
  copt.idle_ms = kLongIdleMs;
  Coordinator coord(copt);
  ASSERT_TRUE(coord.start());
  auto parked = lease_async(coord.port(), "w0");
  std::this_thread::sleep_for(kParkSettle);
  coord.request_shutdown();
  const LeaseCall call = parked.get();
  ASSERT_TRUE(call.resp);
  EXPECT_TRUE(call.resp->shutdown);
  EXPECT_TRUE(call.resp->leases.empty());
  EXPECT_LT(call.seconds, 1.5);
  coord.stop();
}

TEST(SvcLongPoll, StopReturnsParkedLease) {
  CoordinatorOptions copt;
  copt.idle_ms = kLongIdleMs;
  Coordinator coord(copt);
  ASSERT_TRUE(coord.start());
  auto parked = lease_async(coord.port(), "w0");
  std::this_thread::sleep_for(kParkSettle);
  const SteadyClock::time_point t0 = SteadyClock::now();
  coord.stop();
  EXPECT_LT(seconds_since(t0), 1.0);  // stop() joined the parked handler
  const LeaseCall call = parked.get();
  EXPECT_LT(call.seconds, 1.5);
  // The server shuts sockets down as it stops, so the reply may be lost;
  // when it arrives it must say shutdown and grant nothing.
  if (call.resp) {
    EXPECT_TRUE(call.resp->shutdown);
    EXPECT_TRUE(call.resp->leases.empty());
  }
}

TEST(SvcLongPoll, CacheHitAndDedupedSubmitsNeitherGrantNorWake) {
  CoordinatorOptions copt;
  copt.idle_ms = 800;
  Coordinator coord(copt);
  ASSERT_TRUE(coord.start());
  const sim::ExperimentSpec done_spec = make_spec("swim", 2);
  const sim::ExperimentSpec busy_spec = make_spec("tomcatv", 2);

  // done_spec runs to completion; busy_spec is leased and stays in flight.
  ASSERT_TRUE(submit(coord, {done_spec, busy_spec}));
  LeaseRequest lr;
  lr.worker = "w0";
  lr.max = 2;
  const auto grants = post(coord, "/lease", lr.to_json(),
                           [](const json::Value& v) {
                             return LeaseResponse::from_json(v);
                           });
  ASSERT_TRUE(grants);
  ASSERT_EQ(grants->leases.size(), 2u);
  ResultUpload up;
  up.worker = "w0";
  up.lease = grants->leases[0].lease;
  up.result.spec = grants->leases[0].spec;
  const auto accepted =
      post(coord, "/result", up.to_json(), [](const json::Value& v) {
        const json::Value* a = v.find("accepted");
        return std::optional<bool>(a != nullptr && a->as_bool());
      });
  ASSERT_TRUE(accepted.value_or(false));

  const std::uint64_t wakeups = coord.lease_wakeups();
  auto parked = lease_async(coord.port(), "w1");
  std::this_thread::sleep_for(kParkSettle);
  const auto hit = submit(coord, {done_spec});
  ASSERT_TRUE(hit);
  EXPECT_TRUE(hit->complete);
  EXPECT_EQ(hit->cached, 1u);
  const auto dedupe = submit(coord, {busy_spec});
  ASSERT_TRUE(dedupe);
  EXPECT_EQ(dedupe->deduped, 1u);

  const LeaseCall call = parked.get();
  ASSERT_TRUE(call.resp);
  EXPECT_TRUE(call.resp->leases.empty());
  EXPECT_GE(call.seconds, 0.7);  // slept out its whole idle period
  EXPECT_EQ(coord.lease_wakeups(), wakeups);
  coord.stop();
}

TEST(SvcEndToEnd, TwoWorkerSweepMatchesLocalRunnerAndResubmitHitsCache) {
  const std::string cache_dir = fresh_dir("e2e");

  sweep::SweepSpec grid;
  grid.workloads = {"swim", "tomcatv"};
  grid.archs = {core::ArchKind::kSmt2, core::ArchKind::kFa4};
  grid.scales = {2};
  const std::vector<sim::ExperimentSpec> points = grid.expand();

  // Local reference: a plain uncached SweepRunner over the same grid.
  sweep::SweepOptions local_opt;
  local_opt.progress = false;
  local_opt.serve_telemetry = -1;
  sweep::SweepRunner local(local_opt);
  const auto reference = local.run(points);

  CoordinatorOptions copt;
  copt.cache_dir = cache_dir;
  Coordinator coord(copt);
  ASSERT_TRUE(coord.start());

  // Two in-process workers pulling from the coordinator.
  auto worker_opts = [&](const char* name) {
    WorkerOptions w;
    w.port = coord.port();
    w.name = name;
    w.sweep.cache_dir = cache_dir;
    w.sweep.progress = false;
    return w;
  };
  Worker w0(worker_opts("w0")), w1(worker_opts("w1"));
  std::thread t0([&] { w0.run(); }), t1([&] { w1.run(); });

  SubmitRequest req;
  req.points = points;
  const auto sub = post(coord, "/submit", req.to_json(),
                        [](const json::Value& v) {
                          return SubmitResponse::from_json(v);
                        });
  ASSERT_TRUE(sub);
  EXPECT_EQ(sub->total, points.size());
  EXPECT_EQ(sub->cached, 0u);

  const auto status = poll_job(coord, sub->job, /*timeout_ms=*/60'000);
  ASSERT_TRUE(status) << "distributed sweep did not complete";
  ASSERT_EQ(status->results.size(), reference.size());
  EXPECT_EQ(fingerprint(status->results), fingerprint(reference));

  // Identical resubmission: every point is already done — no new work.
  const auto resub = post(coord, "/submit", req.to_json(),
                          [](const json::Value& v) {
                            return SubmitResponse::from_json(v);
                          });
  ASSERT_TRUE(resub);
  EXPECT_TRUE(resub->complete);
  EXPECT_EQ(resub->cached, points.size());
  EXPECT_EQ(coord.table().stats().executed, points.size());

  coord.request_shutdown();
  t0.join();
  t1.join();
  coord.stop();

  // A *fresh* coordinator on the same cache dir answers the grid entirely
  // from disk: N cache hits, zero executions, complete at submit.
  Coordinator coord2(copt);
  ASSERT_TRUE(coord2.start());
  const auto cold = post(coord2, "/submit", req.to_json(),
                         [](const json::Value& v) {
                           return SubmitResponse::from_json(v);
                         });
  ASSERT_TRUE(cold);
  EXPECT_TRUE(cold->complete);
  EXPECT_EQ(cold->cached, points.size());
  EXPECT_EQ(coord2.table().stats().cache_hits, points.size());
  EXPECT_EQ(coord2.table().stats().executed, 0u);
  const auto cold_status = poll_job(coord2, cold->job, 5'000);
  ASSERT_TRUE(cold_status);
  EXPECT_EQ(fingerprint(cold_status->results), fingerprint(reference));
  coord2.stop();
}

#if CSMT_SVC_HAVE_SPAWN

/// Spawns `csmt-svc work --coordinator 127.0.0.1:<port>` and returns its
/// pid (-1 on failure). The worker shares `cache_dir` with the coordinator.
pid_t spawn_worker(std::uint16_t port, const std::string& cache_dir,
                   const std::string& name) {
  const std::string coordinator = "--coordinator=127.0.0.1:" +
                                  std::to_string(port);
  const std::string cache = "--cache-dir=" + cache_dir;
  const std::string worker_name = "--name=" + name;
  const char* argv[] = {CSMT_SVC_BIN,          "work",
                        coordinator.c_str(),   worker_name.c_str(),
                        cache.c_str(),         nullptr};
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, CSMT_SVC_BIN, nullptr, nullptr,
                               const_cast<char**>(argv), environ);
  return rc == 0 ? pid : -1;
}

TEST(SvcFaultTolerance, SigkilledWorkerIsRequeuedAndResumedFromCheckpoint) {
  const std::string cache_dir = fresh_dir("kill");

  // One long-ish point (~0.3s of host time, ~240k cycles) with frequent
  // snapshots, so the kill reliably lands mid-run well after a checkpoint
  // was parked.
  const sim::ExperimentSpec point = make_spec("swim", 6);

  // Uninterrupted local reference for the byte-identity check.
  const sim::ExperimentResult reference = sim::run_experiment(point);
  ASSERT_FALSE(reference.stats.timed_out);

  CoordinatorOptions copt;
  copt.cache_dir = cache_dir;
  copt.ckpt_interval = 10'000;  // ~24 snapshots across the run
  copt.lease_ttl_ms = 600;      // a dead worker requeues fast
  copt.reap_interval_ms = 50;
  Coordinator coord(copt);
  ASSERT_TRUE(coord.start());

  SubmitRequest req;
  req.points = {point};
  const auto sub = post(coord, "/submit", req.to_json(),
                        [](const json::Value& v) {
                          return SubmitResponse::from_json(v);
                        });
  ASSERT_TRUE(sub);
  ASSERT_EQ(sub->cached, 0u);

  const pid_t victim = spawn_worker(coord.port(), cache_dir, "victim");
  ASSERT_GT(victim, 0) << "failed to spawn " << CSMT_SVC_BIN;

  // Wait for the worker's first parked snapshot, then SIGKILL it — exactly
  // the mid-point death the lease TTL exists for.
  const std::string ckpt = sweep::ckpt_entry_path(
      cache_dir, sweep::spec_hash(point));
  const auto spawn_deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
  while (!fs::exists(ckpt)) {
    ASSERT_LT(std::chrono::steady_clock::now(), spawn_deadline)
        << "worker never parked a checkpoint";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  {
    int status = 0;
    ::waitpid(victim, &status, 0);
  }
  // The kill must have landed mid-point: the job is not complete and the
  // checkpoint (not a result) is what the worker left behind.
  EXPECT_FALSE(coord.table().all_done());
  EXPECT_TRUE(fs::exists(ckpt));

  // A replacement worker pulls the requeued lease and resumes the parked
  // snapshot to completion.
  const pid_t successor = spawn_worker(coord.port(), cache_dir, "successor");
  ASSERT_GT(successor, 0);
  const auto status = poll_job(coord, sub->job, /*timeout_ms=*/60'000);
  ASSERT_TRUE(status) << "requeued point never completed";

  const TableStats stats = coord.table().stats();
  EXPECT_GE(stats.requeued, 1u);
  EXPECT_GE(stats.leases_expired, 1u);

  // The successor resumed rather than re-ran, and the resumed results are
  // byte-identical to the uninterrupted reference (host-time fields aside).
  ASSERT_EQ(status->results.size(), 1u);
  EXPECT_GT(status->results[0].resumed_from_cycle, 0u);
  EXPECT_EQ(stripped_json(status->results[0]).dump(2),
            stripped_json(reference).dump(2));
  // The completed point's checkpoint was cleaned up.
  EXPECT_FALSE(fs::exists(ckpt));

  coord.request_shutdown();
  {
    int status_raw = 0;
    ::waitpid(successor, &status_raw, 0);
  }
  coord.stop();
}

// --- net::HttpServer limits, through the coordinator ---

/// A loopback TCP connection to `port` that sends nothing; -1 on failure.
int connect_idle(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(SvcHttpLimits, OverCapConnectionGets503AndCoordinatorKeepsServing) {
  Coordinator coord(CoordinatorOptions{});
  ASSERT_TRUE(coord.start());

  // Silent clients hold every connection slot (each holds a server thread
  // until it hangs up or the read deadline passes).
  std::vector<int> idle;
  for (std::size_t i = 0; i < net::kMaxConnections; ++i) {
    const int fd = connect_idle(coord.port());
    ASSERT_GE(fd, 0) << "connection " << i;
    idle.push_back(fd);
  }
  // The accept loop takes connections in arrival order, so this one comes
  // after every slot is taken.
  const auto over = net::http_request("127.0.0.1", coord.port(), "GET",
                                      "/metrics");
  ASSERT_TRUE(over.has_value());
  EXPECT_EQ(over->status, 503);

  // Once they hang up, the coordinator serves again.
  for (const int fd : idle) ::close(fd);
  std::optional<net::HttpResult> ok;
  const SteadyClock::time_point t0 = SteadyClock::now();
  while (seconds_since(t0) < 3.0) {
    ok = net::http_request("127.0.0.1", coord.port(), "GET", "/metrics");
    if (ok && ok->status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
  coord.stop();
}

TEST(SvcHttpLimits, IdleSocketIsClosedAfterTheReadDeadline) {
  Coordinator coord(CoordinatorOptions{});
  ASSERT_TRUE(coord.start());
  const int fd = connect_idle(coord.port());
  ASSERT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 20;  // the test's own bound if the server never closes
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

  const SteadyClock::time_point t0 = SteadyClock::now();
  std::string got;
  char buf[512];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0)
    got.append(buf, static_cast<std::size_t>(n));
  const double closed_after = seconds_since(t0);
  ::close(fd);

  EXPECT_EQ(n, 0) << "the server never closed the idle socket";
  EXPECT_NE(got.find("408"), std::string::npos) << got;
  const double deadline_s = net::kReadTimeoutMs / 1000.0;
  EXPECT_GE(closed_after, deadline_s - 0.1);
  EXPECT_LT(closed_after, deadline_s + 3.0);
  const auto alive =
      net::http_request("127.0.0.1", coord.port(), "GET", "/metrics");
  ASSERT_TRUE(alive.has_value());
  EXPECT_EQ(alive->status, 200);
  coord.stop();
}

#endif  // CSMT_SVC_HAVE_SPAWN

}  // namespace
}  // namespace csmt::svc
