// svc-session and svc-hit: one in-process svc::Coordinator on loopback
// (default lease and idle timings, a fresh cache directory, checkpoints
// armed), two svc::Worker threads, and one closed-loop client.
//
// svc-session submits seeded small grids; half the submissions repeat an
// earlier grid, which the service answers from its cache. Its unit of work
// is the fresh (cold) submissions. svc-hit fills the cache once and then
// only resubmits, so its unit of work is the cache-hit path alone: HTTP,
// JSON, the cache probe and the coordinator's bookkeeping.
#include <algorithm>
#include <filesystem>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "ckpt/serializer.hpp"
#include "inputs.hpp"
#include "svc/coordinator.hpp"
#include "svc/worker.hpp"
#include "svc_client.hpp"
#include "sweep/sweep.hpp"
#include "telemetry/registry.hpp"

namespace csmt::perfbench {
namespace {

namespace fs = std::filesystem;

/// Traced rounds: 100 samples of each kind, enough for their p90.
constexpr std::size_t kTracedRounds = 10;
constexpr std::size_t kPlainRoundsTraced = 3;
/// Cycles between worker checkpoints: session points run ~7k-50k cycles,
/// so most park a few snapshots.
constexpr std::uint64_t kCkptInterval = 5000;
/// GET /job period: the one `csmt-svc submit` uses (src/cli/csmt_svc_main.cpp).
constexpr int kPollMs = 200;
constexpr double kSubmissionTimeoutS = 60.0;
/// Service start-ups timed for setup_s. One takes well under a millisecond,
/// so only a median of many is steady.
constexpr int kStartups = 99;
/// Stopped services are joined in batches of this many: a worker sees the
/// stop only after its 200 ms idle sleep, which a batch shares.
constexpr std::size_t kRetireBatch = 11;
/// svc-hit: a round resubmits each of its 30 grids four times.
constexpr std::size_t kHitRepeats = 4;
constexpr std::size_t kHitTracedRounds = 5;
/// svc-hit plays at least this many rounds, and its peak_rss_mb is their
/// high-water RSS: the coordinator keeps every job, so RSS grows with the
/// submissions served, and a faster hit path would otherwise read as a
/// memory regression.
constexpr std::size_t kHitRssRounds = 100;

/// Coordinator + two worker threads over `cache_dir`, an empty directory
/// the service removes when it ends.
class Service {
 public:
  explicit Service(std::string cache_dir) : cache_dir_(std::move(cache_dir)) {
    svc::CoordinatorOptions copt;
    copt.cache_dir = cache_dir_;
    copt.ckpt_interval = kCkptInterval;
    coord_ = std::make_unique<svc::Coordinator>(copt);
    ok_ = coord_->start();
    if (!ok_) return;
    for (int w = 0; w < 2; ++w) {
      svc::WorkerOptions wopt;
      wopt.port = coord_->port();
      wopt.name = "w" + std::to_string(w);
      wopt.sweep.cache_dir = cache_dir_;
      workers_.push_back(std::make_unique<svc::Worker>(wopt));
    }
    for (auto& w : workers_)
      threads_.emplace_back([worker = w.get()] { worker->run(); });
  }
  ~Service() {
    request_stop();
    for (std::thread& t : threads_) t.join();
    if (coord_) coord_->stop();
    std::error_code ec;
    fs::remove_all(cache_dir_, ec);
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Tells the coordinator and workers to stop; the destructor joins them.
  void request_stop() {
    if (coord_) coord_->request_shutdown();
    for (auto& w : workers_) w->request_stop();
  }
  bool ok() const { return ok_; }
  std::uint16_t port() const { return coord_->port(); }
  const std::string& cache_dir() const { return cache_dir_; }

 private:
  std::string cache_dir_;
  bool ok_ = false;
  std::unique_ptr<svc::Coordinator> coord_;
  std::vector<std::unique_ptr<svc::Worker>> workers_;
  std::vector<std::thread> threads_;  ///< joined before workers_ die
};

struct Sample {
  bool hit = false;
  Reply reply;
};

/// Plays one round of the plan (checked later). Returns the seconds the
/// client waited on its fresh submissions: the sum of their latencies,
/// without the think time between submissions or the cache hits.
double play_round(const SessionPlan& plan, std::size_t round,
                  SvcClient& client, std::uint64_t& next_id,
                  std::vector<Sample>& samples) {
  double waited = 0;
  for (const Submission& sub : plan.rounds[round]) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sub.think_ms));
    Sample s;
    s.hit = sub.hit;
    s.reply = client.submit(plan.grids[sub.grid], next_id++, kPollMs,
                            kSubmissionTimeoutS);
    if (!s.hit) waited += s.reply.latency_s;
    samples.push_back(std::move(s));
  }
  return waited;
}

std::string check_sample(const Sample& s, const Reference& ref) {
  const Reply& r = s.reply;
  if (!r.error.empty()) return r.error;
  if (!s.hit && (r.submit.cached != 0 || r.submit.deduped != 0))
    return "a fresh grid was answered without execution";
  if (s.hit && !(r.submit.complete && r.submit.cached == r.submit.total))
    return "a resubmitted grid was not answered from the cache";
  for (const sim::ExperimentResult& res : r.results) {
    const std::string why = ref.check_point(point_key(res.spec), res, true);
    if (!why.empty()) return why;
  }
  return {};
}

double sim_seconds(const Reply& r) {
  double s = 0;
  for (const auto& res : r.results) s += res.sim_speed.wall_seconds;
  return s;
}

/// Instructions the workers simulated for the fresh grids of `samples`.
double committed(const std::vector<Sample>& samples) {
  double n = 0;
  for (const Sample& s : samples)
    if (!s.hit)
      for (const auto& res : s.reply.results)
        n += static_cast<double>(res.sim_speed.committed);
  return n;
}

/// The coordinator's registry counter `name` (svc.executed, ...).
double svc_counter(const char* name) {
  return static_cast<double>(
      telemetry::Registry::global().counter(name).value());
}

std::string cache_dir_for(const RunConfig& cfg, int rep) {
  return cfg.out_dir + "/svc-cache-" + std::to_string(getpid()) + "-" +
         std::to_string(rep);
}

/// The set-up: kStartups start-ups of the service, each timed alone.
/// Returns their median and leaves the last service running in `service`
/// (nullptr when a coordinator could not bind, which fails `out`).
double start_service(const RunConfig& cfg, std::unique_ptr<Service>& service,
                     Outcome& out) {
  std::vector<double> setups;
  std::vector<std::unique_ptr<Service>> retired;
  for (int rep = 0; rep < kStartups; ++rep) {
    if (service) {
      service->request_stop();
      retired.push_back(std::move(service));
    }
    if (retired.size() == kRetireBatch) retired.clear();
    // The fresh cache directory is the benchmark's housekeeping, untimed.
    const std::string dir = cache_dir_for(cfg, rep);
    fs::remove_all(dir);
    fs::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<Service>(dir);
    setups.push_back(seconds_since(t0));
    if (!service->ok()) {
      out.check(false, "the coordinator could not bind a loopback port");
      service.reset();
      return 0.0;
    }
    // Let its workers make their first lease request before the next start.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return median(setups);
}

/// Checkpoint costs on one session point: an armed against an unarmed run,
/// reading the parked snapshot, and resuming from it.
void ckpt_layers(const RunConfig& cfg, sim::ExperimentSpec spec,
                 SpanLog& spans, LayerReport& layers, Outcome& out) {
  const std::string path =
      cfg.out_dir + "/ckpt-probe-" + std::to_string(getpid()) + ".ckpt";
  std::vector<double> plain_s, armed_s, read_s;
  sim::ExperimentSpec armed = spec;
  armed.ckpt_interval = kCkptInterval;
  armed.ckpt_path = path;
  armed.ckpt_tag = sweep::spec_hash(spec);
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan s(spans, "sim.run_experiment", rep);
      sim::run_experiment(spec);
    }
    plain_s.push_back(seconds_since(t0));
    fs::remove(path);
    t0 = Clock::now();
    {
      ScopedSpan s(spans, "ckpt.armed_run", rep);
      sim::run_experiment(armed);
    }
    armed_s.push_back(seconds_since(t0));
  }
  std::error_code ec;
  const auto bytes = fs::file_size(path, ec);
  const bool parked = !ec;
  out.check(parked, "no checkpoint was parked at " + path);
  bool read_ok = true;
  for (int rep = 0; rep < 5; ++rep) {
    ScopedSpan s(spans, "ckpt.read", rep);
    const Clock::time_point t0 = Clock::now();
    read_ok = read_ok && ckpt::read_checkpoint(path).ok;
    read_s.push_back(seconds_since(t0));
  }
  out.check(read_ok, "ckpt::read_checkpoint rejected a parked snapshot");
  const Clock::time_point t0 = Clock::now();
  sim::ExperimentResult resumed;
  {
    ScopedSpan s(spans, "ckpt.resume", 0);
    resumed = sim::run_experiment(armed);
  }
  const double resume_s = seconds_since(t0);
  const std::string why =
      cfg.reference->check_point(point_key(spec), resumed, false);
  out.op(why.empty() && resumed.resumed_from_cycle > 0,
         why.empty() ? point_key(spec) + ": did not resume" : why);
  fs::remove(path, ec);
  layers.set("ckpt.bytes", parked ? static_cast<double>(bytes) : 0.0);
  layers.set("ckpt.read_ms", median(read_s) * 1e3);
  layers.set("ckpt.resume_ms", resume_s * 1e3);
  layers.set("ckpt.overhead_pct",
             (median(armed_s) / median(plain_s) - 1.0) * 100.0);
}

/// Direct timings of the cache calls the coordinator makes per hit (probe)
/// and per executed point (publish), on the session's own entries.
void cache_layers(const RunConfig& cfg, const std::string& cache_dir,
                  const std::vector<Sample>& samples, SpanLog& spans,
                  LayerReport& layers) {
  const std::string publish_dir =
      cfg.out_dir + "/svc-publish-" + std::to_string(getpid());
  fs::create_directories(publish_dir);
  std::vector<double> probe_s, publish_s;
  std::uint64_t id = 0;
  for (const Sample& s : samples) {
    for (const sim::ExperimentResult& r : s.reply.results) {
      ScopedSpan span(spans, s.hit ? "sweep.cache_probe" : "sweep.cache_publish",
                      id++);
      const Clock::time_point t0 = Clock::now();
      if (s.hit) {
        sweep::cache_probe(cache_dir, r.spec);
        probe_s.push_back(seconds_since(t0));
      } else {
        sweep::cache_publish(publish_dir, r);
        publish_s.push_back(seconds_since(t0));
      }
    }
  }
  std::error_code ec;
  fs::remove_all(publish_dir, ec);
  layers.set("sweep.cache_probe_ms", median(probe_s) * 1e3);
  layers.set("sweep.cache_publish_ms", median(publish_s) * 1e3);
}

}  // namespace

Outcome run_svc_session(const RunConfig& cfg, SpanLog& spans) {
  Outcome out;
  EndToEnd e2e;
  const SessionPlan plan = plan_session(cfg.seed);
  out.check(plan.rounds.size() >= kTracedRounds + kPlainRoundsTraced,
            "the svc point space holds too few rounds");

  std::unique_ptr<Service> service;
  e2e.setup_s = start_service(cfg, service, out);
  if (!service) return out;

  std::vector<Sample> samples;
  std::uint64_t next_id = 0;
  SpanLog off(false);

  if (!cfg.trace) {
    SvcClient client("127.0.0.1", service->port(), off);
    // A cold latency is close to a whole number of 200 ms client polls, so
    // a round's sum moves in 200 ms steps, and so would a median of rounds;
    // the mean over every round of the run does not.
    double waited = 0;
    std::size_t rounds = 0;
    const Clock::time_point t0 = Clock::now();
    for (; rounds < plan.rounds.size() &&
           (rounds < 3 || seconds_since(t0) < cfg.seconds);
         ++rounds)
      waited += play_round(plan, rounds, client, next_id, samples);
    for (const Sample& s : samples) {
      const std::string why = check_sample(s, *cfg.reference);
      out.op(why.empty(), why);
    }
    out.check(svc_counter("svc.requeued") == 0,
              "the coordinator requeued a lease");
    e2e.wall_s = waited / static_cast<double>(rounds);
    e2e.sim_kips = committed(samples) / waited / 1e3;
    e2e.emit(out);
    return out;
  }

  // Traced run: a few plain rounds, then traced rounds whose client spans
  // and timings give the service-side layers.
  LayerReport layers;
  std::vector<double> plain_walls, traced_walls;
  std::size_t round = 0;
  {
    SvcClient plain("127.0.0.1", service->port(), off);
    for (; round < kPlainRoundsTraced && round < plan.rounds.size(); ++round)
      plain_walls.push_back(play_round(plan, round, plain, next_id, samples));
  }
  const std::size_t traced_from = samples.size();
  SvcClient client("127.0.0.1", service->port(), spans);
  for (; round < kPlainRoundsTraced + kTracedRounds && round < plan.rounds.size();
       ++round)
    traced_walls.push_back(play_round(plan, round, client, next_id, samples));
  for (const Sample& s : samples) {
    const std::string why = check_sample(s, *cfg.reference);
    out.op(why.empty(), why);
  }

  const std::vector<Sample> traced(samples.begin() + traced_from, samples.end());
  std::vector<double> cold_s, hit_s, call_s, overhead_s;
  double polls = 0, run_s = 0, cycles = 0, quiet = 0, inst = 0;
  for (const Sample& s : traced) {
    if (!s.reply.error.empty()) continue;
    (s.hit ? hit_s : cold_s).push_back(s.reply.latency_s);
    call_s.push_back(s.reply.submit_call_s);
    if (s.hit) continue;
    polls += s.reply.polls;
    overhead_s.push_back(s.reply.latency_s - sim_seconds(s.reply));
    for (const auto& r : s.reply.results) {
      run_s += r.sim_speed.wall_seconds;
      cycles += static_cast<double>(r.stats.cycles);
      quiet += static_cast<double>(r.sim_speed.quiet_cycles);
      inst += static_cast<double>(r.sim_speed.committed);
    }
  }
  const double n = static_cast<double>(traced_walls.size());
  layers.set_percentile_ms("svc.submit_ms_p50", cold_s, 50, out);
  layers.set_percentile_ms("svc.submit_ms_p90", cold_s, 90, out);
  layers.set_percentile_ms("svc.hit_ms_p50", hit_s, 50, out);
  layers.set_percentile_ms("svc.hit_ms_p90", hit_s, 90, out);
  layers.set("svc.submit_call_ms", median(call_s) * 1e3);
  layers.set("svc.job_get_ms", median(spans.durations("svc.job_get")) * 1e3);
  layers.set("svc.polls_per_submit",
             cold_s.empty() ? 0.0 : polls / static_cast<double>(cold_s.size()));
  layers.set("svc.overhead_ms", median(overhead_s) * 1e3);
  layers.set("sim.run_s", run_s / n);
  layers.set("sim.ns_per_inst", run_s / inst * 1e9);
  layers.set("sim.ns_per_cycle", run_s / cycles * 1e9);
  layers.set("sim.quiet_frac", quiet / cycles);
  layers.set("sim.cycles", cycles / n);
  layers.set("sim.committed", inst / n);

  const ClientCounters& net = client.counters();
  layers.set_percentile_ms("net.request_ms_p50", net.request_s, 50, out);
  layers.set("net.requests", static_cast<double>(net.requests) / n);
  layers.set("net.errors", static_cast<double>(net.errors));
  layers.set("common.json_parse_ms", median(net.parse_s) * 1e3);
  layers.set("common.json_bytes", static_cast<double>(net.json_bytes) / n);

  cache_layers(cfg, service->cache_dir(), traced, spans, layers);
  // The checkpoint probe: the session's first high-end scale-2 point, long
  // enough to park several snapshots.
  for (const auto& grid : plan.grids) {
    const auto it = std::find_if(grid.begin(), grid.end(), [](const auto& p) {
      return p.scale == 2 && p.chips == 4;
    });
    if (it == grid.end()) continue;
    ckpt_layers(cfg, *it, spans, layers, out);
    break;
  }

  layers.set("svc.executed", svc_counter("svc.executed"));
  layers.set("svc.cache_hits", svc_counter("svc.cache_hits"));
  layers.set("svc.requeued", svc_counter("svc.requeued"));
  out.check(svc_counter("svc.requeued") == 0,
            "the coordinator requeued a lease");
  layers.set("obs.trace_overhead_pct",
             (median(traced_walls) / median(plain_walls) - 1.0) * 100.0);
  layers.emit(out);
  return out;
}

Outcome run_svc_hit(const RunConfig& cfg, SpanLog& spans) {
  Outcome out;
  EndToEnd e2e;
  const std::vector<std::vector<sim::ExperimentSpec>> grids =
      hit_grids(cfg.seed);

  std::unique_ptr<Service> service;
  e2e.setup_s = start_service(cfg, service, out);
  if (!service) return out;

  // Fill the cache, untimed: a serial in-process sweep of every grid's
  // points publishes their results where the coordinator probes. (Two
  // workers filling it would set the run's peak RSS by how their points
  // happened to overlap.)
  {
    sweep::SweepOptions opts;
    opts.progress = false;
    opts.cache_dir = service->cache_dir();
    std::vector<sim::ExperimentSpec> all;
    for (const auto& grid : grids) all.insert(all.end(), grid.begin(), grid.end());
    bool filled = true;
    for (const sim::ExperimentResult& r : sweep::SweepRunner(opts).run(all)) {
      const std::string why =
          cfg.reference->check_point(point_key(r.spec), r, true);
      out.op(why.empty(), why);
      filled = filled && why.empty();
    }
    if (!filled) return out;
  }
  // The fill's peak is not the hit path's: measure from a trimmed heap.
  trim_heap();
  out.check(reset_peak_rss(), "cannot reset the high-water RSS");
  SpanLog off(false);
  std::uint64_t next_id = 0;

  // One round resubmits every grid four times in a seeded order and returns
  // the seconds the client waited and the instructions of the results it
  // got. The round is checked as soon as it ends; its samples are kept in
  // `keep` when given, so a long run holds no results.
  Rng orders(cfg.seed);
  const auto play = [&](SvcClient& client, std::vector<Sample>* keep) {
    const std::vector<std::size_t> order =
        permutation(kHitRepeats * grids.size(), orders.next());
    double waited = 0, inst = 0;
    std::vector<Sample> round_samples;
    for (const std::size_t k : order) {
      Sample s;
      s.hit = true;
      s.reply = client.submit(grids[k % grids.size()], next_id++, kPollMs,
                              kSubmissionTimeoutS);
      waited += s.reply.latency_s;
      round_samples.push_back(std::move(s));
    }
    for (Sample& s : round_samples) {
      const std::string why = check_sample(s, *cfg.reference);
      out.op(why.empty(), why);
      for (const auto& res : s.reply.results)
        inst += static_cast<double>(res.sim_speed.committed);
      if (keep) keep->push_back(std::move(s));
    }
    return std::pair{waited, inst};
  };

  if (!cfg.trace) {
    SvcClient client("127.0.0.1", service->port(), off);
    std::vector<double> walls, kips;
    const Clock::time_point t0 = Clock::now();
    while (walls.size() < kHitRssRounds || seconds_since(t0) < cfg.seconds) {
      const auto [waited, inst] = play(client, nullptr);
      walls.push_back(waited);
      kips.push_back(inst / waited / 1e3);
      if (walls.size() == kHitRssRounds) e2e.rss_mb = peak_rss_mb();
    }
    out.check(svc_counter("svc.requeued") == 0,
              "the coordinator requeued a lease");
    e2e.wall_s = median(walls);
    e2e.sim_kips = median(kips);
    e2e.emit(out);
    return out;
  }

  // Traced run: plain and traced rounds alternate; the traced rounds'
  // client spans and timings give the hit path's layers.
  LayerReport layers;
  std::vector<double> plain_walls, traced_walls;
  std::vector<Sample> traced;
  SvcClient plain("127.0.0.1", service->port(), off);
  SvcClient client("127.0.0.1", service->port(), spans);
  for (std::size_t k = 0; k < kHitTracedRounds; ++k) {
    plain_walls.push_back(play(plain, nullptr).first);
    traced_walls.push_back(play(client, &traced).first);
  }
  std::vector<double> hit_s, call_s;
  double polls = 0;
  for (const Sample& s : traced) {
    if (!s.reply.error.empty()) continue;
    hit_s.push_back(s.reply.latency_s);
    call_s.push_back(s.reply.submit_call_s);
    polls += s.reply.polls;
  }
  const double n = static_cast<double>(traced_walls.size());
  layers.set_percentile_ms("svc.hit_ms_p50", hit_s, 50, out);
  layers.set_percentile_ms("svc.hit_ms_p90", hit_s, 90, out);
  layers.set("svc.submit_call_ms", median(call_s) * 1e3);
  layers.set("svc.job_get_ms", median(spans.durations("svc.job_get")) * 1e3);
  layers.set("svc.polls_per_submit",
             hit_s.empty() ? 0.0 : polls / static_cast<double>(hit_s.size()));
  const ClientCounters& net = client.counters();
  layers.set_percentile_ms("net.request_ms_p50", net.request_s, 50, out);
  layers.set("net.requests", static_cast<double>(net.requests) / n);
  layers.set("net.errors", static_cast<double>(net.errors));
  layers.set("common.json_parse_ms", median(net.parse_s) * 1e3);
  layers.set("common.json_bytes", static_cast<double>(net.json_bytes) / n);
  cache_layers(cfg, service->cache_dir(), traced, spans, layers);
  layers.set("svc.executed", svc_counter("svc.executed"));
  layers.set("svc.cache_hits", svc_counter("svc.cache_hits"));
  layers.set("svc.requeued", svc_counter("svc.requeued"));
  out.check(svc_counter("svc.requeued") == 0,
            "the coordinator requeued a lease");
  layers.set("obs.trace_overhead_pct",
             (median(traced_walls) / median(plain_walls) - 1.0) * 100.0);
  layers.emit(out);
  return out;
}

}  // namespace csmt::perfbench
