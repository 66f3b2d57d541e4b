#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench.hpp"

namespace csmt::perfbench {

void EndToEnd::emit(Outcome& out) const {
  out.metric("setup_s", setup_s, "s");
  out.metric("wall_s", wall_s, "s");
  out.metric("sim_kips", sim_kips, "kinst/s");
  out.metric("peak_rss_mb", rss_mb.value_or(peak_rss_mb()), "MB");
}

void LayerReport::set(const std::string& name, double value) {
  for (const auto& [known, unit] : kLayerMetrics) {
    if (name == known) {
      values_[name] = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n",
               name.c_str());
  std::abort();
}

void LayerReport::set_percentile_ms(const std::string& name,
                                    const std::vector<double>& samples_s,
                                    double p, Outcome& out) {
  const auto v = percentile(samples_s, p);
  out.check(v.has_value(), name + ": only " +
                               std::to_string(samples_s.size()) +
                               " samples, too few for this percentile");
  if (v) set(name, *v * 1e3);
}

void LayerReport::emit(Outcome& out) const {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = values_.find(name);
    out.metric(name, it == values_.end() ? 0.0 : it->second, unit);
  }
}

unsigned paper_sweep_jobs() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

}  // namespace csmt::perfbench
