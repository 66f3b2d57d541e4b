// paper-sweep: a cold, uncached run of the union of the Fig 4/5/7/8 grids
// through SweepRunner::run — what users run to reproduce the paper. Busy
// SPMD work, so the core pipeline (issue, fetch, commit) takes most of the
// host time and the quiet path skips little.
#include <algorithm>

#include "bench.hpp"
#include "exec/thread_group.hpp"
#include "inputs.hpp"
#include "sweep/sweep.hpp"
#include "workloads/workload.hpp"

namespace csmt::perfbench {
namespace {

unsigned total_threads(const sim::ExperimentSpec& p) {
  return core::arch_preset(p.arch).threads_per_chip() * p.chips;
}

/// The workload's set-up: every point's program and memory image, built
/// once through Workload::build.
double build_all(const std::vector<sim::ExperimentSpec>& points) {
  const Clock::time_point t0 = Clock::now();
  for (const sim::ExperimentSpec& p : points) {
    mem::PagedMemory memory;
    workloads::make_workload(p.workload)->build(memory, total_threads(p),
                                                p.scale);
  }
  return seconds_since(t0);
}

/// One cold sweep of `points`; returns its wall seconds.
double sweep(const std::vector<sim::ExperimentSpec>& points,
             std::vector<sim::ExperimentResult>& results) {
  sweep::SweepOptions opts;
  opts.jobs = paper_sweep_jobs();
  opts.progress = false;
  sweep::SweepRunner runner(opts);
  const Clock::time_point t0 = Clock::now();
  results = runner.run(points);
  return seconds_since(t0);
}

void check_results(const std::vector<sim::ExperimentResult>& results,
                   const Reference& ref, Outcome& out) {
  for (const sim::ExperimentResult& r : results) {
    const std::string why = ref.check_point(point_key(r.spec), r, false);
    out.op(why.empty(), why);
  }
}

double committed(const std::vector<sim::ExperimentResult>& results) {
  double n = 0;
  for (const auto& r : results) n += static_cast<double>(r.sim_speed.committed);
  return n;
}

/// Runs a built program on the functional interpreter alone, round-robin
/// over unblocked threads. False on deadlock (no thread could step).
bool interpret(exec::ThreadGroup& group) {
  exec::DynInst d;
  while (!group.all_done()) {
    bool stepped = false;
    for (unsigned t = 0; t < group.size(); ++t) {
      exec::ThreadContext& tc = group.thread(t);
      if (!tc.done() && !tc.sync_blocked()) {
        tc.step(d);
        stepped = true;
      }
    }
    if (!stepped) return false;
  }
  return true;
}

/// The same builds, interpreted without the timing model and validated:
/// workloads.build_ms / validate_ms, exec.functional_kips and the largest
/// per-point RSS growth.
void functional_pass(const std::vector<sim::ExperimentSpec>& points,
                     SpanLog& spans, LayerReport& layers, Outcome& out) {
  std::vector<double> build_s, validate_s;
  double interp_s = 0.0, instret = 0.0, rss_mb = 0.0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const sim::ExperimentSpec& p = points[i];
    const unsigned threads = total_threads(p);
    const auto wl = workloads::make_workload(p.workload);
    trim_heap();
    const double rss0 = static_cast<double>(current_rss_bytes());
    mem::PagedMemory memory;
    Clock::time_point t0 = Clock::now();
    workloads::WorkloadBuild build;
    {
      ScopedSpan s(spans, "workloads.build", i);
      build = wl->build(memory, threads, p.scale);
    }
    build_s.push_back(seconds_since(t0));
    bool ran = false;
    t0 = Clock::now();
    {
      ScopedSpan s(spans, "exec.functional", i);
      exec::ThreadGroup group(build.program, memory, threads, build.args_base);
      ran = interpret(group);
      instret += static_cast<double>(group.total_instret());
    }
    interp_s += seconds_since(t0);
    rss_mb = std::max(
        rss_mb,
        (static_cast<double>(current_rss_bytes()) - rss0) / (1024.0 * 1024.0));
    bool valid = false;
    t0 = Clock::now();
    {
      ScopedSpan s(spans, "workloads.validate", i);
      valid = ran && wl->validate(memory, build, threads, p.scale);
    }
    validate_s.push_back(seconds_since(t0));
    out.op(valid, point_key(p) + ": functional run did not validate");
  }
  layers.set("workloads.build_ms", median(build_s) * 1e3);
  layers.set("workloads.validate_ms", median(validate_s) * 1e3);
  layers.set("exec.functional_kips", instret / interp_s / 1e3);
  layers.set("mem.point_rss_mb", rss_mb);
}

/// Host-time and deterministic per-layer figures of the profiled sweeps,
/// per sweep.
void profile_layers(const std::vector<std::vector<sim::ExperimentResult>>& runs,
                    const std::vector<double>& walls, LayerReport& layers,
                    Outcome& out) {
  double run_s = 0, cycles = 0, inst = 0, quiet = 0, cluster_quiet = 0,
         cluster_cycles = 0, l2 = 0, remote = 0, busy = 0;
  std::array<double, obs::kNumPhases> phase = {};
  std::vector<double> point_s;
  std::size_t points = 0;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    double sweep_point_s = 0;
    for (const sim::ExperimentResult& r : runs[k]) {
      const obs::SimSpeed& sp = r.sim_speed;
      run_s += sp.wall_seconds;
      sweep_point_s += sp.wall_seconds;
      point_s.push_back(sp.wall_seconds);
      cycles += static_cast<double>(r.stats.cycles);
      inst += static_cast<double>(sp.committed);
      quiet += static_cast<double>(sp.quiet_cycles);
      cluster_quiet += static_cast<double>(sp.cluster_quiet_cycles);
      cluster_cycles += static_cast<double>(r.stats.cycles) *
                        core::arch_preset(r.spec.arch).clusters * r.spec.chips;
      l2 += r.stats.mem.l2_miss_rate;
      if (r.stats.dash) remote += static_cast<double>(r.stats.dash->remote_fetches);
      for (std::size_t i = 0; i < obs::kNumPhases; ++i)
        phase[i] += sp.phase_seconds[i];
      ++points;
    }
    busy += sweep_point_s / (paper_sweep_jobs() * walls[k]);
  }
  const double n = static_cast<double>(runs.size());
  const auto ph = [&](obs::Phase p) {
    return phase[static_cast<std::size_t>(p)] / n;
  };
  double attributed = 0;
  for (const double s : phase) attributed += s;
  layers.set("sim.run_s", run_s / n);
  layers.set("sim.ns_per_inst", run_s / inst * 1e9);
  layers.set("sim.ns_per_cycle", run_s / cycles * 1e9);
  layers.set("sim.quiet_frac", quiet / cycles);
  layers.set("sim.cluster_quiet_frac", cluster_quiet / cluster_cycles);
  layers.set("sim.unattributed_s", (run_s - attributed) / n);
  layers.set("core.fetch_s", ph(obs::Phase::kFetch));
  layers.set("core.issue_s", ph(obs::Phase::kIssue));
  layers.set("core.commit_s", ph(obs::Phase::kCommit));
  layers.set("cache.memory_s", ph(obs::Phase::kMemory));
  layers.set("noc.dash_s", ph(obs::Phase::kNoc));
  layers.set("sim.cycles", cycles / n);
  layers.set("sim.committed", inst / n);
  layers.set("cache.l2_miss_rate", l2 / static_cast<double>(points));
  layers.set("noc.remote_fetches", remote / n);
  layers.set("sweep.busy_frac", busy / n);
  layers.set_percentile_ms("sweep.point_ms_p50", point_s, 50, out);
  layers.set_percentile_ms("sweep.point_ms_p90", point_s, 90, out);
}

}  // namespace

Outcome run_paper_sweep(const RunConfig& cfg, SpanLog& spans) {
  Outcome out;
  const std::vector<sim::ExperimentSpec> points = paper_points();
  // Each sweep runs the points in a fresh seeded order: with several jobs
  // the order sets the sweep's tail, so a run samples many orders.
  Rng orders(cfg.seed);
  std::vector<sim::ExperimentResult> results;

  if (!cfg.trace) {
    EndToEnd e2e;
    std::vector<double> setups;
    for (int rep = 0; rep < 9; ++rep) setups.push_back(build_all(points));
    e2e.setup_s = median(setups);
    std::vector<double> walls, kips;
    const Clock::time_point t0 = Clock::now();
    while (walls.size() < 3 || seconds_since(t0) < cfg.seconds) {
      walls.push_back(sweep(seeded_order(points, orders.next()), results));
      kips.push_back(committed(results) / walls.back() / 1e3);
      check_results(results, *cfg.reference, out);
    }
    e2e.wall_s = median(walls);
    e2e.sim_kips = median(kips);
    e2e.emit(out);
    check_table3(*cfg.reference, out);
    return out;
  }

  // Traced run: a plain and a profiled sweep of the same order alternate,
  // so the tracing overhead compares neighbours; the profiled sweeps give
  // the layers.
  LayerReport layers;
  std::vector<double> plain_walls, traced_walls;
  std::vector<std::vector<sim::ExperimentResult>> traced_runs;
  std::vector<sim::ExperimentSpec> order, profiled;
  for (int k = 0; k < 4; ++k) {
    const bool traced = k % 2 == 1;
    if (!traced) {
      order = seeded_order(points, orders.next());
      profiled = order;
      for (sim::ExperimentSpec& p : profiled) p.profile_phases = true;
    }
    double wall = 0;
    if (traced) {
      ScopedSpan s(spans, "sweep.run", static_cast<std::uint64_t>(k));
      wall = sweep(profiled, results);
      traced_walls.push_back(wall);
      traced_runs.push_back(results);
    } else {
      wall = sweep(order, results);
      plain_walls.push_back(wall);
    }
    check_results(results, *cfg.reference, out);
  }
  profile_layers(traced_runs, traced_walls, layers, out);
  functional_pass(points, spans, layers, out);
  layers.set("obs.trace_overhead_pct",
             (median(traced_walls) / median(plain_walls) - 1.0) * 100.0);
  layers.emit(out);
  check_table3(*cfg.reference, out);
  return out;
}

}  // namespace csmt::perfbench
