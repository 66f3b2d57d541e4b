#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/arch_config.hpp"
#include "sim/report.hpp"

namespace csmt::perfbench {

// --- run outcome ------------------------------------------------------------

void Outcome::op(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(why);
  }
}

void Outcome::check(bool ok, const std::string& why) {
  if (ok) return;
  ++attempted_;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Outcome::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

json::Value Outcome::to_json() const {
  json::Value metrics = json::Value::object();
  for (const Metric& m : metrics_) {
    json::Value v = json::Value::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    metrics[m.name] = std::move(v);
  }
  json::Value out = json::Value::object();
  out["correct"] = correct();
  out["attempted"] = attempted_;
  out["failed"] = failed_;
  out["metrics"] = std::move(metrics);
  return out;
}

// --- statistics -------------------------------------------------------------

std::optional<double> percentile(std::vector<double> v, double p) {
  const double n = static_cast<double>(v.size());
  if (v.empty() || p <= 0.0 || p >= 100.0 ||
      n * (100.0 - p) / 100.0 < kMinSamplesBeyond)
    return std::nullopt;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * (n - 1.0);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- correctness ------------------------------------------------------------

namespace {

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    u64(bits);
  }
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

void hash_slots(Fnv& h, const core::SlotStats& slots) {
  for (const double v : slots.slots) h.f64(v);
}

}  // namespace

std::uint64_t stats_digest(const sim::RunStats& s) {
  Fnv h;
  h.u64(s.cycles);
  hash_slots(h, s.slots);
  h.u64(s.committed_useful);
  h.u64(s.committed_sync);
  h.u64(s.fetched);
  h.u64(s.timed_out);
  h.f64(s.avg_running_threads);
  h.u64(s.predictor.cond_lookups);
  h.u64(s.predictor.cond_mispredicts);
  h.u64(s.predictor.btb_misses);
  h.u64(s.mem.loads);
  h.u64(s.mem.stores);
  for (const std::uint64_t v : s.mem.by_level) h.u64(v);
  h.u64(s.mem.bank_rejections);
  h.u64(s.mem.mshr_rejections);
  h.u64(s.mem.upgrades);
  h.u64(s.mem.l1_cross_invalidations);
  h.f64(s.mem.l1_miss_rate);
  h.f64(s.mem.l2_miss_rate);
  h.f64(s.mem.tlb_miss_rate);
  h.u64(s.dash.has_value());
  if (s.dash) {
    h.u64(s.dash->fetches);
    h.u64(s.dash->remote_fetches);
    h.u64(s.dash->interventions);
    h.u64(s.dash->dirty_remote_supplies);
    h.u64(s.dash->invalidations_sent);
    h.u64(s.dash->upgrades);
    h.u64(s.dash->writebacks);
  }
  h.u64(s.alloc.epochs);
  h.u64(s.alloc.migrations);
  h.u64(s.alloc.rejected);
  h.u64(s.alloc.drain_cycles);
  h.u64(s.alloc.stall_cycles);
  h.u64(s.epochs.size());
  for (const obs::EpochSample& e : s.epochs) {
    h.u64(e.begin);
    h.u64(e.end);
    h.f64(e.avg_running_threads);
    const obs::EpochCounters& c = e.counters;
    h.u64(c.committed_useful);
    h.u64(c.committed_sync);
    h.u64(c.fetched);
    hash_slots(h, c.slots);
    h.u64(c.loads);
    h.u64(c.stores);
    h.u64(c.l1_misses);
    h.u64(c.l2_misses);
    h.u64(c.tlb_misses);
    h.u64(c.bank_rejections);
    h.u64(c.mshr_rejections);
  }
  return h.value();
}

std::uint64_t text_digest(std::string_view text) {
  Fnv h;
  for (const char c : text) h.byte(static_cast<std::uint8_t>(c));
  return h.value();
}

std::string stripped_json(const sim::ExperimentResult& r) {
  const json::Value full = sim::to_json(r);
  json::Value out = json::Value::object();
  for (const auto& [key, value] : full.members()) {
    if (key == "sim_speed" || key == "resumed_from_cycle") continue;
    out[key] = value;
  }
  return out.dump();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string point_key(const sim::ExperimentSpec& spec) {
  std::string key = spec.workload + "/" + core::arch_name(spec.arch) + "/x" +
                    std::to_string(spec.chips) + "/s" +
                    std::to_string(spec.scale);
  if (spec.fetch_policy)
    key += std::string("/fp=") + core::fetch_policy_name(*spec.fetch_policy);
  if (spec.l1_private && *spec.l1_private) key += "/l1p";
  return key;
}

bool Reference::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read " + path;
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = json::Value::parse(text.str());
  const json::Value* points = doc ? doc->find("points") : nullptr;
  if (!points || !points->is_object()) {
    *error = path + " is not a reference file";
    return false;
  }
  for (const auto& [key, v] : points->members()) {
    Entry e;
    if (const json::Value* s = v.find("stats")) e.stats = s->as_string();
    if (const json::Value* j = v.find("json")) e.json = j->as_string();
    entries_[key] = std::move(e);
  }
  return true;
}

std::string Reference::check_stats(const std::string& key,
                                   const sim::RunStats& s) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return key + ": not in the reference file";
  if (s.timed_out) return key + ": timed out";
  if (hex64(stats_digest(s)) != it->second.stats)
    return key + ": RunStats digest differs from the reference";
  return {};
}

std::string Reference::check_point(const std::string& key,
                                   const sim::ExperimentResult& r,
                                   bool check_json) const {
  if (!r.validated) return key + ": not validated";
  std::string why = check_stats(key, r.stats);
  if (!why.empty()) return why;
  if (check_json &&
      hex64(text_digest(stripped_json(r))) != entries_.at(key).json)
    return key + ": results JSON differs from the in-process reference";
  return {};
}

void Reference::put(const std::string& key, const sim::ExperimentResult& r) {
  entries_[key] = {hex64(stats_digest(r.stats)),
                   hex64(text_digest(stripped_json(r)))};
}

void Reference::put_stats(const std::string& key, const sim::RunStats& s) {
  entries_[key] = {hex64(stats_digest(s)), {}};
}

json::Value Reference::to_json() const {
  json::Value points = json::Value::object();
  for (const auto& [key, e] : entries_) {
    json::Value v = json::Value::object();
    v["stats"] = e.stats;
    if (!e.json.empty()) v["json"] = e.json;
    points[key] = std::move(v);
  }
  json::Value out = json::Value::object();
  out["points"] = std::move(points);
  return out;
}

// --- spans ------------------------------------------------------------------

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int SpanLog::begin(const char* name, std::uint64_t id, int parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, id, parent, seconds_since(epoch_), -1.0});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::end(int span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end_s =
      seconds_since(epoch_);
}

std::vector<double> SpanLog::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_s >= 0 && name == s.name) out.push_back(s.end_s - s.start_s);
  }
  return out;
}

json::Value SpanLog::to_json() const {
  json::Value arr = json::Value::array();
  for (const Span& s : spans_) {
    json::Value v = json::Value::object();
    v["name"] = s.name;
    v["id"] = s.id;
    v["parent"] = s.parent;
    v["start_s"] = s.start_s;
    v["end_s"] = s.end_s;
    arr.push_back(std::move(v));
  }
  return arr;
}

// --- host -------------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

}  // namespace

json::Value fingerprint(const std::string& source_id) {
  json::Value f = json::Value::object();
  f["cpu_model"] = cpu_model();
  f["nproc"] = std::thread::hardware_concurrency();
#if defined(__clang__)
  f["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  f["compiler"] = std::string("gcc ") + __VERSION__;
#else
  f["compiler"] = "unknown";
#endif
  f["build_type"] = PERFBENCH_BUILD_TYPE;
  f["source"] = source_id;
  return f;
}

std::uint64_t current_rss_bytes() {
  std::uint64_t rss = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    unsigned long vm_pages = 0, rss_pages = 0;
    if (std::fscanf(f, "%lu %lu", &vm_pages, &rss_pages) == 2)
      rss = static_cast<std::uint64_t>(rss_pages) *
            static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
    std::fclose(f);
  }
  return rss;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before exec, so under a launcher bigger than the
  // benchmark (python's run.py) it would report the launcher's RSS.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.close();
  return !f.fail();
}

void trim_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  Rng rng(seed);
  shuffle(p, rng);
  return p;
}

}  // namespace csmt::perfbench
