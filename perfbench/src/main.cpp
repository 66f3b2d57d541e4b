// csmt_perfbench: runs one benchmark workload and prints its result.
//
//   csmt_perfbench --workload paper-sweep|mem-chase|svc-session|svc-hit --seed N
//                  --seconds S --trace 0|1 --reference FILE --out DIR
//                  [--source ID]
//   csmt_perfbench --make-reference FILE
//
// The last line of stdout is the result object (correct, attempted,
// failed, metrics); a record with the host/build fingerprint goes to
// DIR/<workload>-seed<N>-trace<T>.record.json, and a traced run's spans to
// DIR/<workload>-seed<N>.spans.json. Exit status 1 when any check failed,
// 2 on bad usage.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "inputs.hpp"
#include "sim/machine.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace csmt;
using namespace csmt::perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "csmt_perfbench: %s\n"
               "usage: csmt_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --reference FILE --out DIR [--source ID]\n"
               "       csmt_perfbench --make-reference FILE\n",
               why);
  return 2;
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

/// Every point and machine run the benchmark checks, simulated with idle
/// skipping off (the ground-truth kernel).
int make_reference(const std::string& path) {
  Reference ref;
  sweep::SweepOptions opts;
  opts.jobs = paper_sweep_jobs();
  opts.progress = false;
  sweep::SweepRunner runner(opts);
  for (const bool svc : {false, true}) {
    std::vector<sim::ExperimentSpec> points = svc ? svc_space() : paper_points();
    for (sim::ExperimentSpec& p : points) p.no_skip = true;
    for (const sim::ExperimentResult& r : runner.run(points)) {
      if (!r.validated) {
        std::fprintf(stderr, "%s did not validate\n", point_key(r.spec).c_str());
        return 1;
      }
      ref.put(point_key(r.spec), r);
    }
  }
  const ChaseInputs inputs;
  for (const ChaseRun& run : inputs.runs()) {
    sim::MachineConfig mc;
    mc.arch = core::arch_preset(run.arch);
    mc.chips = run.chips;
    mc.no_skip = true;
    sim::Machine machine(mc);
    ref.put_stats(run.key, machine
                               .run(sim::Mix::single(*run.program, *run.memory,
                                                     run.args,
                                                     mc.total_threads()))
                               .combined);
  }
  if (!write_file(path, ref.to_json().dump(1) + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, reference_path, out_dir, source = "unknown";
  RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    try {
      if (arg == "--make-reference") return make_reference(v);
      if (arg == "--workload") {
        workload = v;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(v);
        have_seed = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(v);
        have_seconds = cfg.seconds > 0;
      } else if (arg == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
        have_trace = true;
      } else if (arg == "--reference") {
        reference_path = v;
      } else if (arg == "--out") {
        out_dir = v;
      } else if (arg == "--source") {
        source = v;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace ||
      reference_path.empty() || out_dir.empty())
    return usage("missing arguments");

  Reference reference;
  std::string error;
  if (!reference.load(reference_path, &error)) return usage(error.c_str());
  cfg.reference = &reference;
  std::filesystem::create_directories(out_dir);
  cfg.out_dir = out_dir;

  SpanLog spans(cfg.trace);
  Outcome out;
  if (workload == "paper-sweep") {
    out = run_paper_sweep(cfg, spans);
  } else if (workload == "mem-chase") {
    out = run_mem_chase(cfg, spans);
  } else if (workload == "svc-session") {
    out = run_svc_session(cfg, spans);
  } else if (workload == "svc-hit") {
    out = run_svc_hit(cfg, spans);
  } else {
    return usage(("unknown workload " + workload).c_str());
  }

  const json::Value fp = fingerprint(source);
  std::printf("fingerprint %s\n", fp.dump().c_str());
  for (const Metric& m : out.metrics())
    std::printf("%-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& f : out.failures())
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());

  const std::string stem = out_dir + "/" + workload + "-seed" +
                           std::to_string(cfg.seed);
  json::Value record = json::Value::object();
  record["fingerprint"] = fp;
  record["workload"] = workload;
  record["seed"] = cfg.seed;
  record["seconds"] = cfg.seconds;
  record["trace"] = cfg.trace;
  record["result"] = out.to_json();
  json::Value failures = json::Value::array();
  for (const std::string& f : out.failures()) failures.push_back(f);
  record["failures"] = std::move(failures);
  write_file(stem + "-trace" + (cfg.trace ? "1" : "0") + ".record.json",
             record.dump(1) + "\n");
  if (cfg.trace) write_file(stem + ".spans.json", spans.to_json().dump() + "\n");

  std::printf("%s\n", out.to_json().dump().c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
