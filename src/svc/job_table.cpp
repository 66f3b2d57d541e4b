#include "svc/job_table.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "sweep/sweep.hpp"

namespace csmt::svc {

JobTable::SubmitOutcome JobTable::submit(
    const std::vector<sim::ExperimentSpec>& points,
    const std::vector<std::optional<sim::ExperimentResult>>& cached) {
  CSMT_ASSERT_MSG(cached.size() == points.size(),
                  "submit: cached probe vector must parallel the point list");
  std::lock_guard<std::mutex> lock(mu_);
  SubmitOutcome out;
  out.job = next_job_++;
  out.total = points.size();
  std::vector<std::uint64_t>& order = jobs_[out.job];
  order.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t hash = sweep::spec_hash(points[i]);
    order.push_back(hash);
    ++stats_.submitted;
    const auto it = points_.find(hash);
    if (it != points_.end()) {
      // Dedupe: the job shares the existing point. A done point is a cache
      // hit (served with zero new work); an in-flight one attaches this
      // job to its future.
      if (it->second.state == State::kDone) {
        ++out.cached;
        ++stats_.cache_hits;
      } else {
        ++out.deduped;
        ++stats_.deduped;
      }
      continue;
    }
    Point p;
    p.spec = points[i];
    if (cached[i]) {
      p.state = State::kDone;
      p.result = std::make_shared<const sim::ExperimentResult>(*cached[i]);
      ++out.cached;
      ++stats_.cache_hits;
    } else {
      p.state = State::kQueued;
      queue_.push_back(hash);
      ++out.queued;
    }
    points_.emplace(hash, std::move(p));
  }
  out.complete = std::all_of(order.begin(), order.end(),
                             [this](std::uint64_t h) {
                               return points_.at(h).state == State::kDone;
                             });
  return out;
}

std::vector<JobTable::Grant> JobTable::lease(const std::string& worker,
                                             std::uint64_t max,
                                             std::int64_t now_ms,
                                             std::int64_t ttl_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Grant> grants;
  while (grants.size() < max && !queue_.empty()) {
    const std::uint64_t hash = queue_.front();
    queue_.pop_front();
    Point& p = points_.at(hash);
    // A late upload may have finished a requeued point while it sat in the
    // queue; skip stale entries rather than re-executing done work.
    if (p.state != State::kQueued) continue;
    const std::uint64_t lease_id = next_lease_++;
    p.state = State::kLeased;
    p.active_lease = lease_id;
    ++p.attempts;
    leases_[lease_id] = LeaseRecord{hash, worker, now_ms + ttl_ms, true};
    ++stats_.leases_granted;
    Grant g;
    g.lease = lease_id;
    g.hash = hash;
    g.attempt = p.attempts;
    g.spec = p.spec;
    grants.push_back(std::move(g));
  }
  return grants;
}

std::vector<std::uint64_t> JobTable::heartbeat(
    const std::string& worker, const std::vector<std::uint64_t>& leases,
    std::int64_t now_ms, std::int64_t ttl_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> lost;
  for (const std::uint64_t id : leases) {
    const auto it = leases_.find(id);
    if (it == leases_.end() || !it->second.active ||
        it->second.worker != worker) {
      lost.push_back(id);
      continue;
    }
    it->second.deadline_ms = now_ms + ttl_ms;
  }
  return lost;
}

std::size_t JobTable::expire(std::int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t requeued = 0;
  for (auto& [id, rec] : leases_) {
    if (!rec.active || rec.deadline_ms > now_ms) continue;
    rec.active = false;
    ++stats_.leases_expired;
    Point& p = points_.at(rec.hash);
    // Only requeue if this lease is still the point's current execution (a
    // completed point, or one already requeued and regranted, moved on).
    if (p.state == State::kLeased && p.active_lease == id) {
      p.state = State::kQueued;
      p.active_lease = 0;
      // Front of the queue: the dead worker's parked checkpoint makes this
      // the cheapest point to finish, so hand it to the next puller first.
      queue_.push_front(rec.hash);
      ++stats_.requeued;
      ++requeued;
    }
  }
  return requeued;
}

JobTable::UploadOutcome JobTable::complete(
    std::uint64_t lease, const sim::ExperimentResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = leases_.find(lease);
  if (it == leases_.end()) return UploadOutcome::kUnknown;
  LeaseRecord& rec = it->second;
  rec.active = false;
  Point& p = points_.at(rec.hash);
  if (p.state == State::kDone) return UploadOutcome::kStale;
  if (p.state == State::kQueued) unqueue(rec.hash);
  p.state = State::kDone;
  p.active_lease = 0;
  p.result = std::make_shared<const sim::ExperimentResult>(result);
  ++stats_.executed;
  ++stats_.completed;
  return UploadOutcome::kAccepted;
}

JobTable::Status JobTable::status(std::uint64_t job) const {
  std::lock_guard<std::mutex> lock(mu_);
  Status s;
  s.job = job;
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) return s;
  s.found = true;
  s.total = it->second.size();
  for (const std::uint64_t hash : it->second) {
    if (points_.at(hash).state == State::kDone) ++s.done;
  }
  s.complete = s.done == s.total;
  if (s.complete) {
    s.results.reserve(it->second.size());
    for (const std::uint64_t hash : it->second)
      s.results.push_back(points_.at(hash).result);
  }
  return s;
}

TableStats JobTable::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t JobTable::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t JobTable::leased() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [hash, p] : points_) {
    if (p.state == State::kLeased) ++n;
  }
  return n;
}

bool JobTable::all_done() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [hash, p] : points_) {
    if (p.state != State::kDone) return false;
  }
  return true;
}

void JobTable::unqueue(std::uint64_t hash) {
  const auto it = std::find(queue_.begin(), queue_.end(), hash);
  if (it != queue_.end()) queue_.erase(it);
}

}  // namespace csmt::svc
