// The benchmark's inputs, all derived from the --seed argument: the
// paper-sweep point order, the svc-session submission sequence, and the
// mem-chase programs and memory images (Table 3's pointer rings plus the
// 32-thread chase kernel).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/arch_config.hpp"
#include "isa/program.hpp"
#include "mem/paged_memory.hpp"
#include "sim/experiment.hpp"

namespace csmt::perfbench {

// --- paper-sweep ------------------------------------------------------------

/// The union of the Fig 4/5/7/8 grids at scale 4: the six applications x
/// FA8/FA4/FA2/FA1/SMT4/SMT2/SMT1 (SMT8 is FA8 under another name) x 1 and
/// 4 chips = 84 points, in expand() order.
std::vector<sim::ExperimentSpec> paper_points();

/// `points` in the seed's order.
std::vector<sim::ExperimentSpec> seeded_order(
    const std::vector<sim::ExperimentSpec>& points, std::uint64_t seed);

// --- svc-session ------------------------------------------------------------

/// Every point an svc-session grid may hold: the six applications x the
/// seven distinct Table 2 architectures x 1 and 4 chips x scales 1 and 2,
/// each as the paper configuration and as three ablation variants
/// (round-robin fetch, ICOUNT fetch, private L1s) = 672 distinct points.
std::vector<sim::ExperimentSpec> svc_space();

struct Submission {
  bool hit = false;      ///< true = resubmits an earlier grid
  std::size_t grid = 0;  ///< index into SessionPlan::grids
  unsigned think_ms = 0; ///< client pause before submitting a fresh grid
};

/// A closed-loop client's submission sequence, in rounds. Each round holds
/// ten fresh grids of 2-4 points never submitted before (28 points, 7 from
/// each scale x chips class of svc_space()) and ten resubmissions of an
/// earlier grid, in seeded order: 24 rounds in all. Before each fresh grid
/// the client thinks for a seeded 0-199 ms, the workers' default idle-poll
/// period, so submissions do not lock into step with the workers' polls.
struct SessionPlan {
  std::vector<std::vector<sim::ExperimentSpec>> grids;  ///< in first use order
  std::vector<std::vector<Submission>> rounds;
};

SessionPlan plan_session(std::uint64_t seed);

/// svc-hit's grids: the 84 scale-1 paper-configuration points of
/// svc_space() (six applications x seven architectures x 1 and 4 chips),
/// in a seeded order, cut into 30 grids of the session's sizes (2-4). The
/// point set is the same for every seed, so a round that resubmits every
/// grid the same number of times delivers the same results whatever the
/// seed.
std::vector<std::vector<sim::ExperimentSpec>> hit_grids(std::uint64_t seed);

// --- mem-chase --------------------------------------------------------------

/// One Machine::run of the mem-chase workload.
struct ChaseRun {
  std::string key;  ///< reference key, e.g. "chase/FA1/x4/iters=20000"
  core::ArchKind arch = core::ArchKind::kFa1;
  unsigned chips = 1;
  std::shared_ptr<const isa::Program> program;
  mem::PagedMemory* memory = nullptr;
  Addr args = 0;
  int table3_row = -1;       ///< index into kTable3; -1 = chase kernel
  bool table3_long = false;  ///< the longer run of the row's pair
};

struct Table3Row {
  const char* level;
  double expected;  ///< cycles per load recorded in EXPERIMENTS.md
};

/// Table 3 as EXPERIMENTS.md records it: cycles per dependent load.
inline constexpr Table3Row kTable3[] = {
    {"L1", 2.0},           {"L2", 11.0},
    {"local memory", 41.0}, {"remote memory", 61.3},
    {"remote L2 (dirty)", 76.1},
};
inline constexpr std::size_t kTable3Rows = std::size(kTable3);

/// Programs and memory images of the mem-chase workload. Construction is
/// the workload's set-up; runs only read the images (chase loads, and a
/// writer that stores back the value it loaded), so one set serves every
/// pass. Without `chase_kernel` only the Table 3 rings are built.
class ChaseInputs {
 public:
  explicit ChaseInputs(bool chase_kernel = true);
  const std::vector<ChaseRun>& runs() const { return runs_; }
  /// Cycles per load of Table 3 row `row` from the cycles of its two runs.
  static double cycles_per_load(std::size_t row, std::uint64_t short_cycles,
                                std::uint64_t long_cycles);

 private:
  std::vector<std::unique_ptr<mem::PagedMemory>> images_;
  std::vector<ChaseRun> runs_;
};

}  // namespace csmt::perfbench
