// mem-chase: serial Machine::run calls on pointer-chase programs — Table 3's
// five rings and the 32-thread chase kernel on an idle (FA1 x 4) and a busy
// (SMT2 x 4) machine. Most simulated cycles are quiet spans, so the
// scheduler's skip path, the cache/MSHR/DRAM backend, the DASH directory
// and paged memory do the work while the issue stage does little.
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "inputs.hpp"
#include "sim/machine.hpp"

namespace csmt::perfbench {
namespace {

struct RunRecord {
  sim::RunStats stats;
  double wall_s = 0.0;  ///< Machine construction + run()
  double run_s = 0.0;   ///< run() alone
  std::uint64_t quiet = 0;
  std::uint64_t cluster_quiet = 0;
  unsigned clusters = 0;
  double rss_mb = 0.0;  ///< RSS growth over a trimmed baseline
  std::array<double, obs::kNumPhases> phase = {};
};

RunRecord run_one(const ChaseRun& run, bool profile) {
  RunRecord rec;
  obs::PhaseProfiler profiler;
  trim_heap();
  const double rss0 = static_cast<double>(current_rss_bytes());
  const Clock::time_point t0 = Clock::now();
  sim::MachineConfig mc;
  mc.arch = core::arch_preset(run.arch);
  mc.chips = run.chips;
  if (profile) mc.profiler = &profiler;
  sim::Machine machine(mc);
  const Clock::time_point t1 = Clock::now();
  rec.stats = machine
                  .run(sim::Mix::single(*run.program, *run.memory, run.args,
                                        mc.total_threads()))
                  .combined;
  rec.run_s = seconds_since(t1);
  rec.wall_s = seconds_since(t0);
  rec.rss_mb =
      (static_cast<double>(current_rss_bytes()) - rss0) / (1024.0 * 1024.0);
  rec.quiet = machine.quiet_cycles();
  rec.cluster_quiet = machine.cluster_quiet_cycles();
  rec.clusters = mc.arch.clusters * mc.chips;
  for (std::size_t i = 0; i < obs::kNumPhases; ++i)
    rec.phase[i] = profiler.seconds(static_cast<obs::Phase>(i));
  return rec;
}

/// One pass over every run in `order`; checks each run's digest and the
/// Table 3 cycles-per-load its pair reproduces. Returns the pass's records.
std::vector<RunRecord> pass(const ChaseInputs& inputs,
                            const std::vector<std::size_t>& order,
                            bool profile, SpanLog& spans, const Reference& ref,
                            Outcome& out) {
  const std::vector<ChaseRun>& runs = inputs.runs();
  std::vector<RunRecord> recs(runs.size());
  for (const std::size_t i : order) {
    ScopedSpan s(spans, "sim.machine_run", i);
    recs[i] = run_one(runs[i], profile);
  }
  std::array<std::uint64_t, kTable3Rows> short_cycles = {}, long_cycles = {};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].table3_row < 0) continue;
    const auto row = static_cast<std::size_t>(runs[i].table3_row);
    (runs[i].table3_long ? long_cycles : short_cycles)[row] =
        recs[i].stats.cycles;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::string why = ref.check_stats(runs[i].key, recs[i].stats);
    if (why.empty() && runs[i].table3_row >= 0) {
      const auto row = static_cast<std::size_t>(runs[i].table3_row);
      const double cpl = ChaseInputs::cycles_per_load(row, short_cycles[row],
                                                       long_cycles[row]);
      if (std::abs(cpl - kTable3[row].expected) >= 0.05)
        why = runs[i].key + ": Table 3 " + kTable3[row].level + " reads " +
              std::to_string(cpl) + " cycles/load, expected " +
              std::to_string(kTable3[row].expected);
    }
    out.op(why.empty(), why);
  }
  return recs;
}

double wall(const std::vector<RunRecord>& recs) {
  double s = 0;
  for (const RunRecord& r : recs) s += r.wall_s;
  return s;
}

void profile_layers(const std::vector<std::vector<RunRecord>>& passes,
                    LayerReport& layers) {
  double run_s = 0, cycles = 0, inst = 0, quiet = 0, cluster_quiet = 0,
         cluster_cycles = 0, l2 = 0, remote = 0, rss = 0, runs = 0;
  std::array<double, obs::kNumPhases> phase = {};
  for (const auto& recs : passes) {
    for (const RunRecord& r : recs) {
      run_s += r.run_s;
      cycles += static_cast<double>(r.stats.cycles);
      inst += static_cast<double>(r.stats.committed_useful +
                                  r.stats.committed_sync);
      quiet += static_cast<double>(r.quiet);
      cluster_quiet += static_cast<double>(r.cluster_quiet);
      cluster_cycles += static_cast<double>(r.stats.cycles) * r.clusters;
      l2 += r.stats.mem.l2_miss_rate;
      if (r.stats.dash)
        remote += static_cast<double>(r.stats.dash->remote_fetches);
      rss = std::max(rss, r.rss_mb);
      for (std::size_t i = 0; i < obs::kNumPhases; ++i) phase[i] += r.phase[i];
      ++runs;
    }
  }
  const double n = static_cast<double>(passes.size());
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
  layers.set("mem.point_rss_mb", rss);
  layers.set("sim.cycles", cycles / n);
  layers.set("sim.committed", inst / n);
  layers.set("cache.l2_miss_rate", l2 / runs);
  layers.set("noc.remote_fetches", remote / n);
}

}  // namespace

void check_table3(const Reference& ref, Outcome& out) {
  const ChaseInputs rings(false);
  SpanLog off(false);
  pass(rings, permutation(rings.runs().size(), 0), false, off, ref, out);
}

Outcome run_mem_chase(const RunConfig& cfg, SpanLog& spans) {
  Outcome out;
  EndToEnd e2e;
  std::vector<double> setups;
  std::unique_ptr<ChaseInputs> inputs;
  for (int rep = 0; rep < 5; ++rep) {
    inputs.reset();
    trim_heap();
    const Clock::time_point t0 = Clock::now();
    inputs = std::make_unique<ChaseInputs>();
    setups.push_back(seconds_since(t0));
  }
  const std::vector<std::size_t> order =
      permutation(inputs->runs().size(), cfg.seed);

  if (!cfg.trace) {
    // Per-run medians across passes, summed: one slow moment on a shared
    // host then costs one run's sample, not a whole pass.
    std::vector<std::vector<double>> run_walls(inputs->runs().size());
    double inst = 0;
    const Clock::time_point t0 = Clock::now();
    while (run_walls[0].size() < 3 || seconds_since(t0) < cfg.seconds) {
      const auto recs = pass(*inputs, order, false, spans, *cfg.reference, out);
      inst = 0;
      for (std::size_t i = 0; i < recs.size(); ++i) {
        run_walls[i].push_back(recs[i].wall_s);
        inst += static_cast<double>(recs[i].stats.committed_useful +
                                    recs[i].stats.committed_sync);
      }
    }
    e2e.setup_s = median(setups);
    for (const auto& w : run_walls) e2e.wall_s += median(w);
    e2e.sim_kips = inst / e2e.wall_s / 1e3;
    e2e.emit(out);
    return out;
  }

  LayerReport layers;
  std::vector<double> plain_walls, traced_walls;
  std::vector<std::vector<RunRecord>> traced;
  SpanLog off(false);
  for (int k = 0; k < 4; ++k) {
    const bool profile = k % 2 == 1;
    auto recs = pass(*inputs, order, profile, profile ? spans : off,
                     *cfg.reference, out);
    (profile ? traced_walls : plain_walls).push_back(wall(recs));
    if (profile) traced.push_back(std::move(recs));
  }
  profile_layers(traced, layers);
  layers.set("obs.trace_overhead_pct",
             (median(traced_walls) / median(plain_walls) - 1.0) * 100.0);
  layers.emit(out);
  return out;
}

}  // namespace csmt::perfbench
