// The four workloads and the metric vocabulary they share. README.md
// explains each metric, the layer -> end-to-end mapping, and why each
// workload exists.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace csmt::perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: measure the end-to-end metrics; true: the traced run, which
  /// reports the per-layer metrics.
  bool trace = false;
  std::string out_dir;  ///< records, spans and temporary files
  const Reference* reference = nullptr;
};

/// End-to-end metrics: every workload reports each of them untraced.
/// `wall_s` is the median host seconds of one iteration of the workload's
/// unit of work (one sweep, one chase pass, one submission round).
struct EndToEnd {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double sim_kips = 0.0;
  /// peak_rss_mb, when a workload reads it at a fixed amount of work; else
  /// emit() reads the process's high-water RSS.
  std::optional<double> rss_mb;
  void emit(Outcome& out) const;
};

/// Per-layer metrics of the traced run, with units. Every traced run
/// reports all of them; a layer a workload leaves idle reads 0.
inline constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"workloads.build_ms", "ms"},
    {"workloads.validate_ms", "ms"},
    {"exec.functional_kips", "kinst/s"},
    {"sim.run_s", "s"},
    {"sim.ns_per_inst", "ns"},
    {"sim.ns_per_cycle", "ns"},
    {"sim.quiet_frac", "fraction"},
    {"sim.cluster_quiet_frac", "fraction"},
    {"sim.unattributed_s", "s"},
    {"core.fetch_s", "s"},
    {"core.issue_s", "s"},
    {"core.commit_s", "s"},
    {"cache.memory_s", "s"},
    {"noc.dash_s", "s"},
    {"mem.point_rss_mb", "MB"},
    {"sim.cycles", "count"},
    {"sim.committed", "count"},
    {"cache.l2_miss_rate", "fraction"},
    {"noc.remote_fetches", "count"},
    {"sweep.busy_frac", "fraction"},
    {"sweep.point_ms_p50", "ms"},
    {"sweep.point_ms_p90", "ms"},
    {"sweep.cache_probe_ms", "ms"},
    {"sweep.cache_publish_ms", "ms"},
    {"svc.submit_ms_p50", "ms"},
    {"svc.submit_ms_p90", "ms"},
    {"svc.hit_ms_p50", "ms"},
    {"svc.hit_ms_p90", "ms"},
    {"svc.submit_call_ms", "ms"},
    {"svc.job_get_ms", "ms"},
    {"svc.polls_per_submit", "count"},
    {"svc.overhead_ms", "ms"},
    {"svc.executed", "count"},
    {"svc.cache_hits", "count"},
    {"svc.requeued", "count"},
    {"net.request_ms_p50", "ms"},
    {"net.requests", "count"},
    {"net.errors", "count"},
    {"common.json_parse_ms", "ms"},
    {"common.json_bytes", "bytes"},
    {"ckpt.bytes", "bytes"},
    {"ckpt.read_ms", "ms"},
    {"ckpt.resume_ms", "ms"},
    {"ckpt.overhead_pct", "%"},
    {"obs.trace_overhead_pct", "%"},
};

/// The traced run's per-layer values, zero until a workload sets them.
class LayerReport {
 public:
  /// Sets a known metric (an unknown name is a benchmark bug: aborts).
  void set(const std::string& name, double value);
  /// Sets percentile `p` of `samples_s` (seconds) in ms; too few samples
  /// for that percentile fails the run's check instead.
  void set_percentile_ms(const std::string& name,
                         const std::vector<double>& samples_s, double p,
                         Outcome& out);
  void emit(Outcome& out) const;

 private:
  std::map<std::string, double> values_;
};

Outcome run_paper_sweep(const RunConfig& cfg, SpanLog& spans);
Outcome run_mem_chase(const RunConfig& cfg, SpanLog& spans);
Outcome run_svc_session(const RunConfig& cfg, SpanLog& spans);
Outcome run_svc_hit(const RunConfig& cfg, SpanLog& spans);

/// Table 3's ten ring runs once, untimed: each run's digest and the cycles
/// per load its pair reproduces count as one operation each. paper-sweep
/// runs them after measuring, so a gated command fails on a Table 3
/// regression.
void check_table3(const Reference& ref, Outcome& out);

/// Jobs of the paper sweep: min(hardware threads, 4).
unsigned paper_sweep_jobs();

}  // namespace csmt::perfbench
