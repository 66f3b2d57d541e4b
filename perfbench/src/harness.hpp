// Shared machinery of the csmt benchmark: the run outcome (operations
// attempted/failed, metrics), statistics helpers, the RunStats digest the
// correctness checks compare against reference.json, benchmark-side spans,
// the host/build fingerprint, and the process-memory probes.
//
// Everything here measures the simulator from outside: it times calls into
// the public csmt API and never reaches into the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "sim/experiment.hpp"

namespace csmt::perfbench {

// --- run outcome ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark invocation reports. A failed check counts the
/// operation it belongs to as failed and keeps a message; checks are never
/// dropped, so `correct` is false whenever anything failed.
class Outcome {
 public:
  /// One operation (a simulated point, or an svc submission) was attempted;
  /// `ok == false` counts it as failed with `why` kept for the log.
  void op(bool ok, const std::string& why = {});
  /// A check that belongs to no single operation (e.g. a service counter):
  /// a failure marks the run incorrect and is counted as one failed op.
  void check(bool ok, const std::string& why);

  void metric(std::string name, double value, std::string unit);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// The result object: correct, attempted, failed, metrics.
  json::Value to_json() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// --- statistics -------------------------------------------------------------

/// Tail percentiles are reported only when at least this many samples lie
/// beyond them, so p90 needs 100 samples and p50 needs 20.
inline constexpr double kMinSamplesBeyond = 10.0;

/// Linear-interpolated percentile `p` (0 < p < 100) of `v`; nullopt when
/// fewer than kMinSamplesBeyond samples lie beyond it.
std::optional<double> percentile(std::vector<double> v, double p);

/// Median of a sample (iteration walls, set-up repetitions); 0 when empty.
double median(std::vector<double> v);

// --- correctness ------------------------------------------------------------

/// FNV-1a over every RunStats field, including the optional DashStats, the
/// allocation counters and the epoch series; doubles hash by bit pattern.
std::uint64_t stats_digest(const sim::RunStats& s);

/// FNV-1a of a byte string.
std::uint64_t text_digest(std::string_view text);

/// sim::to_json(result) without the host-time fields (sim_speed,
/// resumed_from_cycle), compactly rendered: the form in which svc results
/// must be byte-identical to in-process ones.
std::string stripped_json(const sim::ExperimentResult& r);

std::string hex64(std::uint64_t v);

/// Canonical point key: "workload/ARCH/xCHIPS/sSCALE[/fp=..][/l1p]".
std::string point_key(const sim::ExperimentSpec& spec);

/// The reference digests (reference.json): point key -> {"stats": hex,
/// "json": hex}. Generated once with no_skip set; see README.md.
class Reference {
 public:
  bool load(const std::string& path, std::string* error);
  /// Why `r` fails the point checks (empty = passes): not validated, timed
  /// out, missing from the reference, or a digest that differs.
  std::string check_point(const std::string& key,
                          const sim::ExperimentResult& r,
                          bool check_json) const;
  /// Why a hand-built machine run fails (no workload validation applies).
  std::string check_stats(const std::string& key,
                          const sim::RunStats& s) const;
  void put(const std::string& key, const sim::ExperimentResult& r);
  void put_stats(const std::string& key, const sim::RunStats& s);
  json::Value to_json() const;

 private:
  struct Entry {
    std::string stats;
    std::string json;
  };
  std::map<std::string, Entry> entries_;
};

// --- spans ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Benchmark-side spans around calls into the program's layers: name,
/// start, end, parent span, and the point or submission id. Kept in memory
/// and written out at the end. Disabled logs record nothing. Not
/// thread-safe: each workload records from one thread.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  /// Opens a span; returns its index (-1 when disabled).
  int begin(const char* name, std::uint64_t id, int parent = -1);
  void end(int span);
  /// Durations in seconds of every closed span called `name`.
  std::vector<double> durations(std::string_view name) const;
  json::Value to_json() const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    int parent;
    double start_s;
    double end_s;
  };
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// RAII span; a disabled log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, std::uint64_t id,
             int parent = -1)
      : log_(log), span_(log.begin(name, id, parent)) {}
  ~ScopedSpan() { log_.end(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return span_; }

 private:
  SpanLog& log_;
  int span_;
};

// --- host -------------------------------------------------------------------

/// Host and build identity stamped on every record. Records with different
/// fingerprints are not comparable (compare.py flags them).
json::Value fingerprint(const std::string& source_id);

std::uint64_t current_rss_bytes();
double peak_rss_mb();
/// Resets the high-water RSS to the current RSS (Linux clear_refs); false
/// when the kernel refuses.
bool reset_peak_rss();
/// Returns freed heap pages to the OS so RSS deltas measure one point.
void trim_heap();

/// Splitmix64: the benchmark's only source of seeded randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Seeded Fisher-Yates shuffle.
template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.below(i)]);
}

/// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

}  // namespace csmt::perfbench
