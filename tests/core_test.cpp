// Cluster/Chip pipeline tests: dependent-chain timing, width and FU
// structural limits, branch misprediction penalties, rename/window stalls,
// sync blocking, slot-accounting conservation, the wakeup-driven issue
// stage's edge cases, and Table 2 presets.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cache/backend.hpp"
#include "core/chip.hpp"
#include "exec/thread_group.hpp"
#include "isa/builder.hpp"
#include "noc/dash.hpp"

namespace csmt::core {
namespace {

using isa::Op;
using isa::ProgramBuilder;

/// Runs `program` with `nthreads` software threads on one chip of `cfg`;
/// returns (cycles, chip stats).
struct RunResult {
  Cycle cycles = 0;
  ChipStats stats;
};

RunResult run_on(const ArchConfig& cfg, const isa::Program& program,
                 unsigned nthreads, mem::PagedMemory& memory,
                 Addr args = 0) {
  cache::MemSysParams mp;
  cache::LocalMemoryBackend backend(mp);
  Chip chip(0, cfg, mp, backend);
  exec::ThreadGroup group(program, memory, nthreads, args);
  for (unsigned t = 0; t < nthreads; ++t) chip.attach_thread(&group.thread(t));
  Cycle now = 0;
  while (!chip.finished() && now < 1'000'000) {
    chip.tick(now);
    ++now;
  }
  EXPECT_TRUE(chip.finished()) << "pipeline did not drain";
  return {now, chip.stats()};
}

ArchConfig fa1() { return arch_preset(ArchKind::kFa1); }

/// N back-to-back dependent adds (cost measured by differencing two lengths).
isa::Program chain(unsigned n, Op op) {
  ProgramBuilder b("chain");
  isa::Reg r = b.ireg();
  b.li(r, 1);
  for (unsigned i = 0; i < n; ++i) {
    switch (op) {
      case Op::kAdd: b.add(r, r, r); break;
      case Op::kMul: b.mul(r, r, r); break;
      case Op::kDiv: b.div(r, r, r); break;
      default: b.nop(); break;
    }
  }
  b.halt();
  return b.take();
}

Cycle chain_cost(Op op) {
  mem::PagedMemory m1, m2;
  const Cycle a = run_on(fa1(), chain(100, op), 1, m1).cycles;
  const Cycle b = run_on(fa1(), chain(400, op), 1, m2).cycles;
  return (b - a) / 300;
}

TEST(ClusterTiming, DependentChainsRunAtOpLatency) {
  EXPECT_EQ(chain_cost(Op::kAdd), 1u);
  EXPECT_EQ(chain_cost(Op::kMul), 2u);
  EXPECT_EQ(chain_cost(Op::kDiv), 8u);
}

TEST(ClusterTiming, IndependentOpsExploitWidth) {
  // 8 independent add chains on the 8-issue FA1: IPC near 6 (int units).
  ProgramBuilder b("par");
  std::vector<isa::Reg> regs;
  for (int i = 0; i < 6; ++i) regs.push_back(b.ireg());
  for (auto r : regs) b.li(r, 1);
  for (int k = 0; k < 200; ++k) {
    for (auto r : regs) b.add(r, r, r);
  }
  b.halt();
  mem::PagedMemory memory;
  const RunResult r = run_on(fa1(), b.take(), 1, memory);
  const double ipc =
      static_cast<double>(r.stats.committed_useful) / r.cycles;
  // 6 independent chains, 6 int units, fetch 8/cycle: near 6 IPC.
  EXPECT_GT(ipc, 4.5);
}

TEST(ClusterTiming, FuStructuralLimitBindsNarrowClusters) {
  // FA8's single-int-unit cluster can sustain at most 1 int op per cycle
  // even with independent work.
  ProgramBuilder b("par");
  isa::Reg a = b.ireg(), c = b.ireg();
  b.li(a, 1);
  b.li(c, 1);
  for (int k = 0; k < 300; ++k) {
    b.add(a, a, a);
    b.add(c, c, c);  // independent of `a`
  }
  b.halt();
  mem::PagedMemory memory;
  const RunResult r = run_on(arch_preset(ArchKind::kFa8), b.take(), 1, memory);
  EXPECT_GE(r.cycles, 600u);  // 600 int ops, 1 int unit
}

TEST(ClusterTiming, MispredictsCostFetchBubbles) {
  // A data-dependent unpredictable branch pattern vs a well-predicted one.
  auto make = [](bool alternating) {
    ProgramBuilder b("br");
    isa::Reg i = b.ireg(), n = b.ireg(), bit = b.ireg(), t = b.ireg();
    b.li(n, 400);
    b.for_range(i, 0, n, 1, [&] {
      if (alternating) {
        b.andi(bit, i, 1);  // alternates 0/1: the 2-bit counter thrashes
      } else {
        b.li(bit, 0);
      }
      b.if_then(Op::kBne, bit, ProgramBuilder::zero(), [&] { b.nop(); });
      b.addi(t, t, 1);
    });
    b.halt();
    return b.take();
  };
  mem::PagedMemory m1, m2;
  const Cycle predictable = run_on(fa1(), make(false), 1, m1).cycles;
  const Cycle alternating = run_on(fa1(), make(true), 1, m2).cycles;
  EXPECT_GT(alternating, predictable + 200);  // ~0.5 mispredicts/iter
}

TEST(ClusterTiming, SyncBlockedThreadFreesIssueSlots) {
  // Two threads: thread 1 blocks at a barrier immediately; thread 0 does
  // real work then joins. The blocked thread must not slow thread 0's
  // chain (compare with a single-thread run of the same work).
  auto work = [](bool with_barrier) {
    ProgramBuilder b("w");
    isa::Reg bar = b.ireg(), r = b.ireg(), i = b.ireg(), n = b.ireg();
    b.li(bar, 4096);
    b.li(r, 1);
    b.li(n, 500);
    b.for_range(i, 0, n, 1, [&] { b.add(r, r, r); });
    if (with_barrier) b.barrier(bar, ProgramBuilder::nthreads());
    b.halt();
    return b.take();
  };
  mem::PagedMemory m1, m2;
  const ArchConfig smt1 = arch_preset(ArchKind::kSmt1);
  const Cycle solo = run_on(smt1, work(false), 1, m1).cycles;
  const Cycle with_spinner = run_on(smt1, work(true), 8, m2).cycles;
  // 8 threads all run the loop concurrently (8-wide, 6 int units, chains
  // are 1 IPC each but bound by fetch: 1 thread/cycle). The barrier model
  // must not deadlock and the run must finish in bounded time.
  EXPECT_LT(with_spinner, solo * 12);
}

TEST(SlotAccounting, SlotsConserveWidthTimesCycles) {
  mem::PagedMemory memory;
  const RunResult r = run_on(fa1(), chain(500, Op::kMul), 1, memory);
  const double total_slots = r.stats.slots.total();
  EXPECT_NEAR(total_slots, 8.0 * static_cast<double>(r.cycles),
              1e-6 * total_slots);
}

TEST(SlotAccounting, DependentChainShowsDataHazard) {
  mem::PagedMemory memory;
  const RunResult r = run_on(fa1(), chain(800, Op::kDiv), 1, memory);
  // A div chain mostly waits on data: the data share dominates.
  EXPECT_GT(r.stats.slots.fraction(Slot::kData), 0.5);
  EXPECT_GT(r.stats.slots.fraction(Slot::kUseful), 0.0);
}

TEST(SlotAccounting, BlockedThreadsChargeSync) {
  // 4 threads, barrier-only program: threads 1..3 block until thread 0's
  // long loop finishes; most of their slots must be charged to sync.
  ProgramBuilder b("s");
  isa::Reg bar = b.ireg(), r = b.ireg(), i = b.ireg(), n = b.ireg();
  b.li(bar, 4096);
  isa::Label join = b.new_label();
  b.bne(ProgramBuilder::tid(), ProgramBuilder::zero(), join);
  b.li(r, 1);
  b.li(n, 2000);
  b.for_range(i, 0, n, 1, [&] { b.mul(r, r, r); });
  b.bind(join);
  b.barrier(bar, ProgramBuilder::nthreads());
  b.halt();
  mem::PagedMemory memory;
  const RunResult r2 =
      run_on(arch_preset(ArchKind::kSmt4), b.take(), 8, memory);
  EXPECT_GT(r2.stats.slots.fraction(Slot::kSync), 0.4);
}

// ---------- wakeup-driven issue (DESIGN.md §9) ----------------------------
//
// Every test below checks, after every cycle of every cluster, that the
// incremental wakeup state matches a brute-force per-cycle re-derivation of
// each waiting uop's operands (Cluster::audit_issue), and that the edge
// case it is named after really occurred.

/// What the per-cycle audits saw over a run.
struct AuditTally {
  unsigned max_ready = 0;
  std::uint64_t on_unissued = 0;
  std::uint64_t on_inflight = 0;
  std::uint64_t recycled = 0;
  std::uint64_t unbound = 0;
  std::uint64_t blocked_sync = 0;
  ChipStats stats;  ///< set by run_audited
};

void audit_cycle(const Chip& chip, Cycle now, AuditTally* tally) {
  for (unsigned c = 0; c < chip.num_clusters(); ++c) {
    const IssueAudit a = chip.cluster(c).audit_issue(now);
    ASSERT_EQ(a.error, "") << "cluster " << c << " at cycle " << now;
    tally->max_ready = std::max(tally->max_ready, a.ready);
    tally->on_unissued += a.on_unissued;
    tally->on_inflight += a.on_inflight;
    tally->recycled += a.recycled;
    tally->unbound += a.unbound;
    tally->blocked_sync += a.blocked[static_cast<std::size_t>(Slot::kSync)];
  }
}

/// run_on with per-cycle audits and cluster sleep enabled (a sleeping
/// cluster's wakeup state must stay consistent too).
AuditTally run_audited(const ArchConfig& cfg, const isa::Program& program,
                       unsigned nthreads, mem::PagedMemory& memory) {
  cache::MemSysParams mp;
  cache::LocalMemoryBackend backend(mp);
  Chip chip(0, cfg, mp, backend);
  chip.set_lazy(true);
  exec::ThreadGroup group(program, memory, nthreads, 0);
  for (unsigned t = 0; t < nthreads; ++t) chip.attach_thread(&group.thread(t));
  AuditTally tally;
  Cycle now = 0;
  while (!chip.finished() && now < 1'000'000) {
    chip.tick(now);
    audit_cycle(chip, now, &tally);
    if (::testing::Test::HasFatalFailure()) return tally;
    ++now;
  }
  chip.settle(now);
  EXPECT_TRUE(chip.finished()) << "pipeline did not drain";
  tally.stats = chip.stats();
  return tally;
}

TEST(IsaLatency, EveryOpTakesAtLeastOneCycle) {
  // The issue stage relies on this: a producer issued this cycle completes
  // at now+1 or later, so none of its consumers can become ready within
  // the same issue walk.
  for (std::size_t i = 0; i < isa::kNumOps; ++i) {
    const auto op = static_cast<isa::Op>(i);
    EXPECT_GE(isa::op_info(op).latency, 1u) << isa::op_name(op);
  }
}

TEST(WakeupIssue, RecycledProducerSlotReadsAsCommitted) {
  // `r` is written once at the top and read after far more instructions
  // than the window holds: by then its producer has committed and the slot
  // has been reused, so the rename map entry is stale (generation
  // mismatch) and the operand must read as ready, not as waiting on the
  // slot's new occupant.
  ProgramBuilder b("recycle");
  isa::Reg r = b.ireg(), x = b.ireg(), i = b.ireg(), n = b.ireg();
  b.li(r, 3);
  b.li(n, 40);
  b.for_range(i, 0, n, 1, [&] {
    for (int k = 0; k < 8; ++k) b.div(x, x, r);  // long-latency occupants
    b.add(x, x, r);
  });
  b.halt();
  mem::PagedMemory memory;
  const AuditTally t =
      run_audited(arch_preset(ArchKind::kFa4), b.take(), 1, memory);
  EXPECT_GT(t.recycled, 0u);
  EXPECT_GT(t.on_unissued, 0u);
  EXPECT_GT(t.on_inflight, 0u);
}

TEST(WakeupIssue, SyncTaggedConsumerCountsAsSync) {
  // A sync-tagged uop blocked on an operand is charged to sync whatever
  // its producer is (§4.1: the sync tag overrides the data/memory class).
  ProgramBuilder b("synctag");
  isa::Reg bar = b.ireg(), r = b.ireg(), i = b.ireg(), n = b.ireg();
  b.li(bar, 4096);
  b.li(r, 7);
  b.li(n, 30);
  b.for_range(i, 0, n, 1, [&] {
    b.sync_begin();
    b.div(r, r, r);
    b.mul(r, r, r);
    b.sync_end();
    b.add(r, r, i);
  });
  b.barrier(bar, ProgramBuilder::nthreads());
  b.halt();
  mem::PagedMemory memory;
  const AuditTally t =
      run_audited(arch_preset(ArchKind::kSmt4), b.take(), 8, memory);
  EXPECT_GT(t.blocked_sync, 0u);
  EXPECT_GT(t.stats.slots.fraction(Slot::kSync), 0.0);
}

TEST(WakeupIssue, FuLimitStallsAcrossSmtThreadsStayAgeOrdered) {
  // Four threads per 4-wide cluster, each with independent int work, and
  // two int units: ready uops of several threads lose to the FU limit
  // every cycle and must be retried oldest first.
  ArchConfig cfg = arch_preset(ArchKind::kSmt2);
  cfg.cluster.int_units = 2;
  ProgramBuilder b("fu");
  std::vector<isa::Reg> regs;
  for (int k = 0; k < 4; ++k) regs.push_back(b.ireg());
  for (auto r : regs) b.li(r, 1);
  for (int k = 0; k < 60; ++k) {
    for (auto r : regs) b.add(r, r, r);
  }
  b.halt();
  mem::PagedMemory memory;
  const AuditTally t = run_audited(cfg, b.take(), 8, memory);
  EXPECT_GE(t.max_ready, 4u);
  EXPECT_GT(t.stats.slots.fraction(Slot::kStructural), 0.0);
}

TEST(WakeupIssue, DeferredCrossChipLoadWakesItsConsumers) {
  // Two chips in deferred mode (DESIGN.md §13): a load that leaves the
  // chip completes at a cycle only the end-of-cycle barrier knows, so its
  // consumers are armed unbound and re-read the next cycle.
  const ArchConfig cfg = arch_preset(ArchKind::kSmt2);
  cache::MemSysParams mp;
  noc::NocParams np;
  np.nodes = 2;
  noc::DashInterconnect dash(np, mp);
  std::vector<std::unique_ptr<Chip>> chips;
  for (unsigned c = 0; c < 2; ++c) {
    chips.push_back(std::make_unique<Chip>(static_cast<ChipId>(c), cfg, mp,
                                           dash));
    dash.attach_chip(&chips.back()->memsys());
    chips.back()->arm_deferred();
  }
  ProgramBuilder b("remote");
  isa::Reg base = b.ireg(), v = b.ireg(), acc = b.ireg(), i = b.ireg(),
           n = b.ireg(), off = b.ireg();
  b.li(base, 1 << 20);
  b.li(acc, 0);
  b.li(n, 64);
  b.for_range(i, 0, n, 1, [&] {
    b.slli(off, i, 12);  // one line per home-interleave page: both homes
    b.add(off, off, base);
    b.ld(v, off, 0);
    b.add(acc, acc, v);
    b.st(off, 8, acc);
  });
  b.halt();
  const isa::Program program = b.take();
  mem::PagedMemory memory;
  const unsigned nthreads = 2 * cfg.threads_per_chip();
  exec::ThreadGroup group(program, memory, nthreads, 0);
  for (unsigned t = 0; t < nthreads; ++t) {
    chips[t / cfg.threads_per_chip()]->attach_thread(&group.thread(t));
  }
  AuditTally tally;
  Cycle now = 0;
  auto finished = [&] {
    return chips[0]->finished() && chips[1]->finished();
  };
  while (!finished() && now < 1'000'000) {
    for (auto& chip : chips) chip->tick(now);
    for (auto& chip : chips) {
      if (chip->memsys().has_deferred()) chip->memsys().resolve_deferred();
    }
    for (auto& chip : chips) {
      if (chip->has_deferred_exec()) chip->drain_exec();
    }
    for (auto& chip : chips) {
      audit_cycle(*chip, now, &tally);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    ++now;
  }
  EXPECT_TRUE(finished()) << "pipeline did not drain";
  EXPECT_GT(tally.unbound, 0u);
  EXPECT_GT(tally.on_inflight, 0u);
}

TEST(Chip, ThreadPlacementFillsClustersInOrder) {
  cache::MemSysParams mp;
  cache::LocalMemoryBackend backend(mp);
  Chip chip(0, arch_preset(ArchKind::kSmt2), mp, backend);
  ProgramBuilder b("t");
  b.halt();
  const isa::Program p = b.take();
  mem::PagedMemory memory;
  exec::ThreadGroup g(p, memory, 8, 0);
  for (unsigned t = 0; t < 8; ++t) chip.attach_thread(&g.thread(t));
  EXPECT_EQ(chip.cluster(0).attached_threads(), 4u);
  EXPECT_EQ(chip.cluster(1).attached_threads(), 4u);
}

TEST(ChipDeath, OverSubscriptionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ASSERT_DEATH(
      {
        cache::MemSysParams mp;
        cache::LocalMemoryBackend backend(mp);
        Chip chip(0, arch_preset(ArchKind::kFa1), mp, backend);
        ProgramBuilder b("t");
        b.halt();
        const isa::Program p = b.take();
        mem::PagedMemory memory;
        exec::ThreadGroup g(p, memory, 2, 0);
        chip.attach_thread(&g.thread(0));
        chip.attach_thread(&g.thread(1));
      },
      "exhausted");
}

// ---------- Table 2 presets (parameterized) ------------------------------

class ArchPresetTest : public ::testing::TestWithParam<ArchKind> {};

TEST_P(ArchPresetTest, Table2Invariants) {
  const ArchConfig c = arch_preset(GetParam());
  EXPECT_EQ(c.issue_width_per_chip(), 8u);
  EXPECT_EQ(c.clusters * c.cluster.iq_entries, 128u);
  EXPECT_EQ(c.clusters * c.cluster.rob_entries, 128u);
  EXPECT_EQ(c.clusters * c.cluster.int_rename, 128u);
  EXPECT_EQ(c.clusters * c.cluster.fp_rename, 128u);
  EXPECT_LE(c.threads_per_chip(), 8u);
  EXPECT_EQ(c.name, arch_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllPresets, ArchPresetTest,
                         ::testing::Values(ArchKind::kFa8, ArchKind::kFa4,
                                           ArchKind::kFa2, ArchKind::kFa1,
                                           ArchKind::kSmt4, ArchKind::kSmt2,
                                           ArchKind::kSmt1, ArchKind::kSmt8));

TEST(ArchPreset, FaAndSmtPairings) {
  // SMT_c matches FA_c in cluster resources; they differ only in threads.
  const auto fa2 = arch_preset(ArchKind::kFa2);
  const auto smt2 = arch_preset(ArchKind::kSmt2);
  EXPECT_EQ(fa2.clusters, smt2.clusters);
  EXPECT_EQ(fa2.cluster.width, smt2.cluster.width);
  EXPECT_EQ(fa2.cluster.int_units, smt2.cluster.int_units);
  EXPECT_EQ(fa2.cluster.iq_entries, smt2.cluster.iq_entries);
  EXPECT_EQ(fa2.cluster.threads, 1u);
  EXPECT_EQ(smt2.cluster.threads, 4u);
  // SMT8 is the FA8 alias.
  const auto fa8 = arch_preset(ArchKind::kFa8);
  const auto smt8 = arch_preset(ArchKind::kSmt8);
  EXPECT_EQ(fa8.clusters, smt8.clusters);
  EXPECT_EQ(fa8.cluster.threads, smt8.cluster.threads);
}

}  // namespace
}  // namespace csmt::core
