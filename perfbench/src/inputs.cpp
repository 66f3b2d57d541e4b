#include "inputs.hpp"

#include <algorithm>

#include "harness.hpp"
#include "isa/builder.hpp"
#include "workloads/workload.hpp"

namespace csmt::perfbench {

namespace {

/// The seven distinct Table 2 architectures.
const std::vector<core::ArchKind>& distinct_archs() {
  static const std::vector<core::ArchKind> archs = {
      core::ArchKind::kFa8,  core::ArchKind::kFa4,  core::ArchKind::kFa2,
      core::ArchKind::kFa1,  core::ArchKind::kSmt4, core::ArchKind::kSmt2,
      core::ArchKind::kSmt1};
  return archs;
}

sim::ExperimentSpec make_spec(const std::string& workload,
                              core::ArchKind arch, unsigned chips,
                              unsigned scale) {
  sim::ExperimentSpec s;
  s.workload = workload;
  s.arch = arch;
  s.chips = chips;
  s.scale = scale;
  return s;
}

/// Sizes of ten session grids: 28 points.
constexpr unsigned kGridSizes[] = {2, 2, 2, 3, 3, 3, 3, 3, 3, 4};

}  // namespace

std::vector<sim::ExperimentSpec> paper_points() {
  std::vector<sim::ExperimentSpec> out;
  for (const std::string& w : workloads::workload_names())
    for (const core::ArchKind a : distinct_archs())
      for (const unsigned chips : {1u, 4u}) out.push_back(make_spec(w, a, chips, 4));
  return out;
}

std::vector<sim::ExperimentSpec> seeded_order(
    const std::vector<sim::ExperimentSpec>& points, std::uint64_t seed) {
  std::vector<sim::ExperimentSpec> out;
  out.reserve(points.size());
  for (const std::size_t i : permutation(points.size(), seed))
    out.push_back(points[i]);
  return out;
}

std::vector<sim::ExperimentSpec> svc_space() {
  std::vector<sim::ExperimentSpec> out;
  for (const std::string& w : workloads::workload_names())
    for (const core::ArchKind a : distinct_archs())
      for (const unsigned chips : {1u, 4u})
        for (const unsigned scale : {1u, 2u})
          for (int variant = 0; variant < 4; ++variant) {
            sim::ExperimentSpec s = make_spec(w, a, chips, scale);
            if (variant == 1) s.fetch_policy = core::FetchPolicy::kRoundRobin;
            if (variant == 2) s.fetch_policy = core::FetchPolicy::kIcount;
            if (variant == 3) s.l1_private = true;
            out.push_back(std::move(s));
          }
  return out;
}

SessionPlan plan_session(std::uint64_t seed) {
  // Every round has the same shape, so rounds (and the seeds that order
  // them) cost alike: kGridSizes, filled with kRoundPoints / 4 points from
  // each (scale, chips) class of the space.
  constexpr unsigned kRoundPoints = 28;
  constexpr unsigned kThinkMs = 200;
  std::vector<std::vector<sim::ExperimentSpec>> classes(4);
  for (sim::ExperimentSpec& p : svc_space())
    classes[(p.scale - 1) * 2 + (p.chips == 4 ? 1 : 0)].push_back(std::move(p));
  Rng rng(seed);
  for (auto& c : classes) shuffle(c, rng);

  SessionPlan plan;
  const std::size_t per_class = kRoundPoints / classes.size();
  for (std::size_t cursor = 0; cursor + per_class <= classes[0].size();
       cursor += per_class) {
    std::vector<sim::ExperimentSpec> points;
    for (const auto& c : classes)
      points.insert(points.end(), c.begin() + cursor,
                    c.begin() + cursor + per_class);
    shuffle(points, rng);
    std::vector<unsigned> sizes(std::begin(kGridSizes), std::end(kGridSizes));
    shuffle(sizes, rng);
    std::vector<char> is_hit(2 * sizes.size(), 0);
    std::fill(is_hit.begin() + sizes.size(), is_hit.end(), 1);
    shuffle(is_hit, rng);
    if (plan.grids.empty()) {
      // The first submission of a session has nothing to repeat.
      std::swap(is_hit[0], *std::find(is_hit.begin(), is_hit.end(), 0));
    }
    std::vector<Submission> round;
    auto next_point = points.begin();
    auto next_size = sizes.begin();
    for (const char hit : is_hit) {
      if (hit) {
        round.push_back({true, rng.below(plan.grids.size()), 0});
        continue;
      }
      plan.grids.emplace_back(next_point, next_point + *next_size);
      next_point += *next_size++;
      round.push_back({false, plan.grids.size() - 1,
                       static_cast<unsigned>(rng.below(kThinkMs))});
    }
    plan.rounds.push_back(std::move(round));
  }
  return plan;
}

std::vector<std::vector<sim::ExperimentSpec>> hit_grids(std::uint64_t seed) {
  std::vector<sim::ExperimentSpec> points;
  for (const std::string& w : workloads::workload_names())
    for (const core::ArchKind a : distinct_archs())
      for (const unsigned chips : {1u, 4u})
        points.push_back(make_spec(w, a, chips, 1));
  std::vector<unsigned> sizes;
  for (int k = 0; k < 3; ++k)
    sizes.insert(sizes.end(), std::begin(kGridSizes), std::end(kGridSizes));
  Rng rng(seed);
  shuffle(points, rng);
  shuffle(sizes, rng);
  std::vector<std::vector<sim::ExperimentSpec>> grids;
  auto next = points.begin();
  for (const unsigned n : sizes) {
    grids.emplace_back(next, next + n);
    next += n;
  }
  return grids;
}

// --- mem-chase --------------------------------------------------------------

namespace {

constexpr Addr kPage = 4096;
constexpr Addr kArgs = 64;        ///< args block of the Table 3 runs
constexpr Addr kBarrier = 512;    ///< barrier line of the dirty-writer run
constexpr unsigned kUnroll = 8;   ///< dependent loads per loop iteration

// The 32-thread chase kernel: per-thread chains of dependent loads, each
// step on a fresh page of the thread's 8 MB region, so 4 chips x 8
// contexts walk a 256 MB simulated footprint.
constexpr Addr kChaseBase = 1 << 20;
constexpr std::uint64_t kChaseRegionBytes = 8ull << 20;
constexpr std::uint64_t kChaseRegionWords = kChaseRegionBytes / 8;
constexpr std::uint64_t kChaseStrideWords = 1031;  // odd: full-cycle walk
constexpr std::uint64_t kChaseIdleIters = 20000;   // FA1 x 4: mostly quiet
constexpr std::uint64_t kChaseBusyIters = 8000;    // SMT2 x 4: busy clusters

/// Table 3 ring program: `iters` iterations of kUnroll dependent loads by
/// thread 0. With `dirty_writer`, thread 1 first stores back every ring
/// line once (dirtying it in its own chip's caches) and all threads meet at
/// a barrier before thread 0 chases.
isa::Program ring_program(unsigned iters, bool dirty_writer,
                          unsigned ring_lines) {
  using B = isa::ProgramBuilder;
  B b("chase");
  isa::Reg p = b.ireg(), i = b.ireg(), n = b.ireg(), bar = b.ireg();
  b.ld(p, B::args(), 0);
  b.ld(bar, B::args(), 8);
  isa::Label done = b.new_label();
  if (dirty_writer) {
    isa::Label not_writer = b.new_label();
    isa::Reg one = b.ireg();
    b.li(one, 1);
    b.bne(B::tid(), one, not_writer);
    {
      isa::Reg q = b.ireg(), k = b.ireg(), lim = b.ireg(), next = b.ireg();
      b.mov(q, p);
      b.li(k, 0);
      b.li(lim, ring_lines);
      isa::Label top = b.new_label();
      b.bind(top);
      b.ld(next, q, 0);
      b.st(q, 0, next);
      b.mov(q, next);
      b.addi(k, k, 1);
      b.blt(k, lim, top);
      b.release(q);
      b.release(k);
      b.release(lim);
      b.release(next);
    }
    b.bind(not_writer);
    b.release(one);
    b.barrier(bar, B::nthreads());
    b.bne(B::tid(), B::zero(), done);
  }
  b.li(i, 0);
  b.li(n, iters);
  isa::Label loop = b.new_label();
  b.bge(i, n, done);
  b.bind(loop);
  for (unsigned u = 0; u < kUnroll; ++u) b.ld(p, p, 0);
  b.addi(i, i, 1);
  b.blt(i, n, loop);
  b.bind(done);
  b.halt();
  return b.take();
}

isa::Program chase_program(std::uint64_t iters) {
  isa::ProgramBuilder b("chase");
  const isa::Reg p = b.ireg();
  const isa::Reg cnt = b.ireg();
  const isa::Reg region = b.ireg();
  b.li(region, kChaseRegionBytes);
  b.mul(region, b.tid(), region);
  b.add(p, b.args(), region);
  b.li(cnt, static_cast<std::int64_t>(iters));
  const isa::Label loop = b.new_label();
  b.bind(loop);
  b.ld(p, p, 0);
  b.addi(cnt, cnt, -1);
  b.bne(cnt, b.zero(), loop);
  b.halt();
  return b.take();
}

std::vector<Addr> linear_ring(Addr base, unsigned nlines) {
  std::vector<Addr> lines;
  for (unsigned i = 0; i < nlines; ++i) lines.push_back(base + i * 64);
  return lines;
}

/// Lines of the pages `4p + home_offset` (p < npages): with 4 KB
/// page-interleaved homes on 4 nodes, every line is homed on one node.
std::vector<Addr> homed_ring(unsigned npages, unsigned home_offset) {
  std::vector<Addr> lines;
  for (unsigned p = 0; p < npages; ++p)
    for (unsigned l = 0; l < 64; ++l)
      lines.push_back((4 * p + home_offset) * kPage + l * 64);
  return lines;
}

struct RingSpec {
  std::vector<Addr> lines;
  unsigned chips;
  bool dirty_writer;
};

/// Table 3's five rings, in kTable3 order: L1-resident (16 KB), L2-resident
/// (256 KB), local memory (2 MB, low-end), remote memory (every page homed
/// on node 1 of the high-end machine), and a 256 KB ring homed on node 0
/// that chip 1 dirties before chip 0 chases it.
std::vector<RingSpec> table3_rings() {
  return {{linear_ring(kPage, 256), 1, false},
          {linear_ring(kPage, 4096), 1, false},
          {linear_ring(kPage, 32768), 1, false},
          {homed_ring(384, 1), 4, false},
          {homed_ring(64, 8), 4, true}};
}

/// Loads per ring pass divided by the unroll: the loop trip count of one
/// pass.
unsigned ring_trips(std::size_t row) {
  static const std::vector<unsigned> trips = [] {
    std::vector<unsigned> t;
    for (const RingSpec& r : table3_rings())
      t.push_back(static_cast<unsigned>(r.lines.size()) / kUnroll);
    return t;
  }();
  return trips[row];
}

std::string arch_tag(core::ArchKind arch, unsigned chips) {
  return std::string(core::arch_name(arch)) + "/x" + std::to_string(chips);
}

}  // namespace

ChaseInputs::ChaseInputs(bool chase_kernel) {
  const std::vector<RingSpec> rings = table3_rings();
  for (std::size_t row = 0; row < rings.size(); ++row) {
    const RingSpec& ring = rings[row];
    auto memory = std::make_unique<mem::PagedMemory>();
    for (std::size_t i = 0; i < ring.lines.size(); ++i)
      memory->write(ring.lines[i], ring.lines[(i + 1) % ring.lines.size()]);
    memory->write(kArgs, ring.lines.front());
    memory->write(kArgs + 8, kBarrier);
    // Differencing two runs cancels fixed costs. Plain rings compare 2 and
    // 4 whole passes (every pass exercises the target level the same way);
    // the dirty ring compares one pass with none, since only the first
    // pass finds the lines dirty in the remote L2.
    const unsigned la = ring_trips(row);
    const unsigned lines = static_cast<unsigned>(ring.lines.size());
    const unsigned short_iters = ring.dirty_writer ? 0 : 2 * la;
    const unsigned long_iters = ring.dirty_writer ? la : 4 * la;
    for (const bool is_long : {false, true}) {
      const unsigned iters = is_long ? long_iters : short_iters;
      ChaseRun run;
      run.key = std::string("table3/") + kTable3[row].level + "/" +
                arch_tag(core::ArchKind::kFa1, ring.chips) +
                "/iters=" + std::to_string(iters);
      run.arch = core::ArchKind::kFa1;
      run.chips = ring.chips;
      run.program = std::make_shared<const isa::Program>(
          ring_program(iters, ring.dirty_writer, lines));
      run.memory = memory.get();
      run.args = kArgs;
      run.table3_row = static_cast<int>(row);
      run.table3_long = is_long;
      runs_.push_back(std::move(run));
    }
    images_.push_back(std::move(memory));
  }
  if (!chase_kernel) return;

  // One chase image serves both kernels: the busy run's shorter chains are
  // prefixes of the idle run's.
  auto chase = std::make_unique<mem::PagedMemory>();
  constexpr unsigned kThreads = 32;  // FA1 and SMT2 both have 8 per chip
  for (unsigned t = 0; t < kThreads; ++t) {
    const Addr base = kChaseBase + t * kChaseRegionBytes;
    std::uint64_t cur = 0;
    for (std::uint64_t i = 0; i < kChaseIdleIters; ++i) {
      const std::uint64_t next = (cur + kChaseStrideWords) % kChaseRegionWords;
      chase->write(base + cur * 8, base + next * 8);
      cur = next;
    }
  }
  for (const auto& [arch, iters] :
       {std::pair{core::ArchKind::kFa1, kChaseIdleIters},
        std::pair{core::ArchKind::kSmt2, kChaseBusyIters}}) {
    ChaseRun run;
    run.key = "chase/" + arch_tag(arch, 4) + "/iters=" + std::to_string(iters);
    run.arch = arch;
    run.chips = 4;
    run.program = std::make_shared<const isa::Program>(chase_program(iters));
    run.memory = chase.get();
    run.args = kChaseBase;
    runs_.push_back(std::move(run));
  }
  images_.push_back(std::move(chase));
}

double ChaseInputs::cycles_per_load(std::size_t row,
                                    std::uint64_t short_cycles,
                                    std::uint64_t long_cycles) {
  const double delta = static_cast<double>(long_cycles) -
                       static_cast<double>(short_cycles);
  // Plain-ring pairs differ by two passes, the dirty ring's by one.
  const bool dirty = row + 1 == kTable3Rows;
  const double passes = dirty ? 1.0 : 2.0;
  return delta / (passes * ring_trips(row) * kUnroll);
}

}  // namespace csmt::perfbench
