#include "svc/coordinator.hpp"

#include <chrono>
#include <filesystem>
#include <optional>
#include <vector>

#include "svc/wire.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/server.hpp"

namespace csmt::svc {
namespace {

void respond_json(net::ClientConn& conn, const json::Value& v) {
  conn.respond("200 OK", "application/json", v.dump() + "\n");
}

void respond_bad_request(net::ClientConn& conn, const char* what) {
  conn.respond("400 Bad Request", "text/plain", std::string(what) + "\n");
}

/// "id=N" (the only query parameter /job takes).
std::optional<std::uint64_t> query_id(const std::string& query) {
  const std::string prefix = "id=";
  if (query.rfind(prefix, 0) != 0) return std::nullopt;
  const std::string digits = query.substr(prefix.size());
  if (digits.empty()) return std::nullopt;
  std::uint64_t id = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return id;
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions options,
                         telemetry::Registry& registry)
    : options_(std::move(options)),
      registry_(registry),
      epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Coordinator::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool Coordinator::start() {
  if (running()) return true;
  stopping_.store(false);
  if (!options_.cache_dir.empty()) {
    // The coordinator owns the cache and checkpoint-parking directories;
    // workers on the same host only ever write into them.
    std::error_code ec;
    std::filesystem::create_directories(
        std::filesystem::path(options_.cache_dir) / "ckpt", ec);
  }
  if (!http_.start(options_.port,
                   [this](const net::HttpRequest& req,
                          net::ClientConn& conn) { handle(req, conn); }))
    return false;
  publish_telemetry();
  reaper_ = std::thread([this] { reaper_loop(); });
  return true;
}

void Coordinator::stop() {
  if (stopping_.exchange(true)) return;
  request_shutdown();
  if (reaper_.joinable()) reaper_.join();
  http_.stop();
}

void Coordinator::reaper_loop() {
  while (!stopping_.load()) {
    if (table_.expire(now_ms()) > 0) wake_leases();
    publish_telemetry();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options_.reap_interval_ms));
  }
}

void Coordinator::publish_telemetry() {
  const TableStats s = table_.stats();
  // Counters in the registry are monotonic adders; the table already keeps
  // the authoritative totals, so publish deltas since the last mirror.
  auto mirror = [this](const char* name, std::uint64_t total) {
    telemetry::Counter& c = registry_.counter(name);
    const std::uint64_t have = c.value();
    if (total > have) c.add(total - have);
  };
  mirror("svc.submitted", s.submitted);
  mirror("svc.deduped", s.deduped);
  mirror("svc.cache_hits", s.cache_hits);
  mirror("svc.executed", s.executed);
  mirror("svc.completed", s.completed);
  mirror("svc.requeued", s.requeued);
  mirror("svc.leases_granted", s.leases_granted);
  mirror("svc.leases_expired", s.leases_expired);
  registry_.gauge("svc.queued").set(static_cast<double>(table_.queued()));
  registry_.gauge("svc.leased").set(static_cast<double>(table_.leased()));
  {
    const std::int64_t horizon = now_ms() - options_.lease_ttl_ms;
    std::lock_guard<std::mutex> lock(workers_mu_);
    std::size_t live = 0;
    for (const auto& [name, seen] : workers_) {
      if (seen >= horizon) ++live;
    }
    registry_.gauge("svc.workers").set(static_cast<double>(live));
  }
}

void Coordinator::wake_leases() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    ++wake_gen_;
  }
  wake_cv_.notify_all();
}

std::vector<JobTable::Grant> Coordinator::lease_or_park(
    const std::string& worker, std::uint64_t max, bool* parked) {
  *parked = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.idle_ms);
  while (!shutdown_.load()) {
    // Read the generation before looking at the queue: work queued after
    // the look bumps it, so the wait below cannot miss that wake-up.
    std::unique_lock<std::mutex> lock(wake_mu_);
    const std::uint64_t gen = wake_gen_;
    lock.unlock();
    std::vector<JobTable::Grant> grants =
        table_.lease(worker, max, now_ms(), options_.lease_ttl_ms);
    if (!grants.empty()) return grants;
    lock.lock();
    *parked = true;
    // The shutdown flag is read under the lock as well: request_shutdown()
    // may have stored it and bumped the generation between the loop's
    // check and the read of `gen` above.
    if (!wake_cv_.wait_until(lock, deadline, [&] {
          return wake_gen_ != gen || shutdown_.load();
        }))
      break;  // idle_ms passed with nothing to grant
  }
  return {};
}

void Coordinator::note_worker(const std::string& worker) {
  std::lock_guard<std::mutex> lock(workers_mu_);
  workers_[worker] = now_ms();
}

void Coordinator::handle(const net::HttpRequest& req, net::ClientConn& conn) {
  if (telemetry::handle_observability(req, conn, registry_, 250)) return;

  if (req.method == "GET" && req.path == "/job") {
    const auto id = query_id(req.query);
    if (!id) return respond_bad_request(conn, "expected /job?id=N");
    const JobTable::Status st = table_.status(*id);
    if (!st.found) {
      conn.respond("404 Not Found", "text/plain", "unknown job\n");
      return;
    }
    JobStatus out;
    out.job = st.job;
    out.total = st.total;
    out.done = st.done;
    out.complete = st.complete;
    if (st.complete) {
      out.results.reserve(st.results.size());
      for (const auto& r : st.results) out.results.push_back(*r);
    }
    return respond_json(conn, out.to_json());
  }

  if (req.method != "POST") {
    conn.respond("404 Not Found", "text/plain", "unknown endpoint\n");
    return;
  }

  const auto body = json::Value::parse(req.body);
  if (!body) return respond_bad_request(conn, "malformed JSON body");

  if (req.path == "/submit") {
    const auto sub = SubmitRequest::from_json(*body);
    if (!sub) return respond_bad_request(conn, "malformed submit request");
    // Probe the result cache outside the table lock: a resubmitted grid is
    // answered entirely from disk, with zero worker execution.
    std::vector<std::optional<sim::ExperimentResult>> cached;
    cached.reserve(sub->points.size());
    for (const sim::ExperimentSpec& p : sub->points)
      cached.push_back(options_.cache_dir.empty()
                           ? std::nullopt
                           : sweep::cache_probe(options_.cache_dir, p));
    const JobTable::SubmitOutcome out = table_.submit(sub->points, cached);
    // Cache hits and dedupes add no work: parked leases sleep on.
    if (out.queued > 0) wake_leases();
    publish_telemetry();
    SubmitResponse resp;
    resp.job = out.job;
    resp.total = out.total;
    resp.cached = out.cached;
    resp.deduped = out.deduped;
    resp.complete = out.complete;
    return respond_json(conn, resp.to_json());
  }

  if (req.path == "/lease") {
    const auto lr = LeaseRequest::from_json(*body);
    if (!lr) return respond_bad_request(conn, "malformed lease request");
    note_worker(lr->worker);
    bool parked = false;
    const std::vector<JobTable::Grant> grants =
        lease_or_park(lr->worker, lr->max, &parked);
    LeaseResponse resp;
    // The wait already happened here: a worker told to sleep again would
    // only delay the next grant.
    resp.idle_ms = parked ? 0 : options_.idle_ms;
    resp.heartbeat_ms = options_.heartbeat_ms;
    // A worker granted points runs them and hears of a shutdown next time.
    resp.shutdown = grants.empty() && shutdown_.load();
    for (const JobTable::Grant& g : grants) {
      Lease l;
      l.lease = g.lease;
      l.spec = g.spec;
      if (!options_.cache_dir.empty() && options_.ckpt_interval > 0) {
        l.ckpt_path = sweep::ckpt_entry_path(options_.cache_dir, g.hash);
        l.ckpt_interval = options_.ckpt_interval;
        l.ckpt_tag = g.hash;
      }
      resp.leases.push_back(std::move(l));
    }
    if (!resp.leases.empty()) publish_telemetry();
    return respond_json(conn, resp.to_json());
  }

  if (req.path == "/heartbeat") {
    const auto hb = HeartbeatRequest::from_json(*body);
    if (!hb) return respond_bad_request(conn, "malformed heartbeat");
    note_worker(hb->worker);
    HeartbeatResponse resp;
    resp.lost =
        table_.heartbeat(hb->worker, hb->leases, now_ms(), options_.lease_ttl_ms);
    resp.shutdown = shutdown_.load();
    return respond_json(conn, resp.to_json());
  }

  if (req.path == "/result") {
    const auto up = ResultUpload::from_json(*body);
    if (!up) return respond_bad_request(conn, "malformed result upload");
    const JobTable::UploadOutcome out = table_.complete(up->lease, up->result);
    if (out == JobTable::UploadOutcome::kAccepted &&
        !options_.cache_dir.empty())
      sweep::cache_publish(options_.cache_dir, up->result);
    publish_telemetry();
    json::Value resp = json::Value::object();
    resp["accepted"] = out == JobTable::UploadOutcome::kAccepted;
    return respond_json(conn, resp);
  }

  conn.respond("404 Not Found", "text/plain", "unknown endpoint\n");
}

}  // namespace csmt::svc
