// Mutation fuzz of the checkpoint loader (DESIGN.md §10). Each test takes a
// real snapshot of a running machine, made at test time, mutates it with a
// seeded generator — bit flips, value edits, truncations, and targeted edits
// to the sparse cache-line records' counts and indices — and decodes it
// through Machine::check_checkpoint, the dry run every resume takes.
// Mutations inside a section are resealed (section length and checksum
// recomputed), so they get past the file layer's checks and reach the
// component decoders themselves.
//
// The invariant is "refused or loaded, never crashes": a decoder may accept
// a mutated value it cannot tell from a real one, but it must never read or
// write out of bounds, loop without bound, or trip an assertion. The
// sanitizer build (ASan/UBSan) runs this suite like every other.
//
// Also: a checkpoint stamped with the previous format version (3), and one
// that fails part-way through decoding, are refused with a warning and the
// run starts fresh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/params.hpp"
#include "ckpt/serializer.hpp"
#include "common/rng.hpp"
#include "sim/machine.hpp"
#include "workloads/workload.hpp"

namespace csmt::sim {
namespace {

namespace fs = std::filesystem;
using Payload = std::vector<std::uint8_t>;

constexpr std::uint64_t kTag = 0xF022;
constexpr Cycle kSnapshotCycle = 2000;

/// One machine setup the fuzz snapshots and decodes into.
struct MachineSetup {
  const char* name;
  core::ArchKind arch;
  unsigned chips;
  alloc::PolicyKind policy;
};

/// A 4-chip machine (per-chip sections, DASH) and a 1-chip machine under a
/// dynamic allocation policy (local memory backend, alloc section).
const MachineSetup kSetups[] = {
    {"smt2x4", core::ArchKind::kSmt2, 4, alloc::PolicyKind::kStatic},
    {"fa4x1_symbiosis", core::ArchKind::kFa4, 1, alloc::PolicyKind::kSymbiosis},
};

MachineConfig config_for(const MachineSetup& setup) {
  MachineConfig mc;
  mc.arch = core::arch_preset(setup.arch);
  mc.chips = setup.chips;
  mc.alloc.policy = setup.policy;
  mc.alloc.epoch = 500;
  return mc;
}

/// A machine plus the workload it runs.
struct Rig {
  explicit Rig(const MachineConfig& mc)
      : machine(mc),
        workload(workloads::make_workload("swim")),
        build(workload->build(memory, mc.total_threads(), /*scale=*/1)) {}

  Mix mix() {
    return Mix::single(build.program, memory, build.args_base,
                       machine.config().total_threads());
  }

  Machine machine;
  mem::PagedMemory memory;
  std::unique_ptr<workloads::Workload> workload;
  workloads::WorkloadBuild build;
};

/// Runs `setup` until kSnapshotCycle + 1 with one snapshot at kSnapshotCycle
/// and returns the snapshot's payload (already validated by the file layer).
Payload take_snapshot(const MachineSetup& setup) {
  const std::string path =
      (fs::path(::testing::TempDir()) / (std::string(setup.name) + ".ckpt"))
          .string();
  fs::remove(path);
  MachineConfig mc = config_for(setup);
  mc.max_cycles = kSnapshotCycle + 1;
  mc.ckpt_interval = kSnapshotCycle;
  mc.ckpt_path = path;
  mc.ckpt_spec_hash = kTag;
  Rig rig(mc);
  const RunStats stats = rig.machine.run(rig.mix()).combined;
  EXPECT_TRUE(stats.timed_out) << setup.name << " finished before its snapshot";
  ckpt::ReadResult rr = ckpt::read_checkpoint(path);
  EXPECT_TRUE(rr.ok) << rr.error;
  EXPECT_EQ(rr.meta.version, ckpt::kFormatVersion);
  fs::remove(path);
  return std::move(rr.payload);
}

/// Decodes `payload` for a machine of `setup` through the resume's dry run
/// (Machine::check_checkpoint): empty when it loads, else the reason it is
/// refused. The dry run leaves the machine untouched, so one rig per setup
/// serves every mutant.
std::string decode(const MachineSetup& setup, const Payload& payload) {
  static std::map<std::string, std::unique_ptr<Rig>> rigs;
  std::unique_ptr<Rig>& rig = rigs[setup.name];
  if (!rig) rig = std::make_unique<Rig>(config_for(setup));
  return rig->machine.check_checkpoint(rig->mix(), payload);
}

// --- payload surgery ------------------------------------------------------

struct Section {
  std::string name;
  std::size_t body = 0;  ///< offset of the section body in the payload
  std::size_t len = 0;   ///< body length
};

std::uint64_t word_at(const Payload& p, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, p.data() + off, 8);
  return v;
}

void set_word(Payload& p, std::size_t off, std::uint64_t v) {
  std::memcpy(p.data() + off, &v, 8);
}

/// The varint at `*at` (the Serializer's integer encoding); advances `*at`.
std::uint64_t read_var(const Payload& p, std::size_t* at) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; *at < p.size(); shift += 7) {
    const std::uint8_t b = p[(*at)++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
  }
  return v;
}

Payload encode_var(std::uint64_t v) {
  Payload out;
  for (; v >= 0x80; v >>= 7) out.push_back(static_cast<std::uint8_t>(v | 0x80));
  out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

/// The frames of a well-formed payload, in order.
std::vector<Section> sections_of(const Payload& p) {
  std::vector<Section> out;
  std::size_t cur = 0;
  while (cur + 4 <= p.size()) {
    std::uint32_t name_len = 0;
    std::memcpy(&name_len, p.data() + cur, 4);
    Section s;
    s.name.assign(reinterpret_cast<const char*>(p.data() + cur + 4), name_len);
    cur += 4 + name_len;
    s.len = static_cast<std::size_t>(word_at(p, cur));
    s.body = cur + 8;
    cur = s.body + s.len + 8;
    out.push_back(s);
  }
  EXPECT_EQ(cur, p.size()) << "payload framing";
  return out;
}

const Section& find_section(const std::vector<Section>& all,
                            const std::string& name) {
  for (const Section& s : all)
    if (s.name == name) return s;
  ADD_FAILURE() << "no section " << name;
  return all.front();
}

/// Rewrites `s`'s length word and checksum after its body was edited in
/// place, so the file-layer checks pass and the decoders see the edit.
void reseal(Payload& p, const Section& s) {
  set_word(p, s.body - 8, s.len);
  set_word(p, s.body + s.len,
           ckpt::section_checksum(p.data() + s.body, s.len));
}

/// Replaces the `n` bytes at `at` inside section `s` with `bytes` and
/// reseals it (the section grows or shrinks by the difference).
void splice(Payload& p, Section s, std::size_t at, std::size_t n,
            const Payload& bytes) {
  const auto pos = p.begin() + static_cast<std::ptrdiff_t>(at);
  p.erase(pos, pos + static_cast<std::ptrdiff_t>(n));
  p.insert(p.begin() + static_cast<std::ptrdiff_t>(at), bytes.begin(),
           bytes.end());
  s.len = s.len - n + bytes.size();
  reseal(p, s);
}

/// Rewrites the varint at `at` inside section `s` to `v` and reseals.
void set_var(Payload& p, const Section& s, std::size_t at, std::uint64_t v) {
  std::size_t end = at;
  read_var(p, &end);
  splice(p, s, at, end - at, encode_var(v));
}

/// Values that stress counts, indices, enums and flags.
std::uint64_t interesting(Rng& rng, std::uint64_t old) {
  const std::uint64_t picks[] = {0,
                                 1,
                                 2,
                                 3,
                                 0xff,
                                 0x7fffffffull,
                                 0xffffffffull,
                                 0x100000000ull,
                                 ~std::uint64_t{0},
                                 ~std::uint64_t{0} - 1,
                                 old + 1,
                                 old - 1,
                                 old * 2 + 1,
                                 rng.next()};
  return picks[rng.next() % (sizeof picks / sizeof picks[0])];
}

class CkptFuzz : public ::testing::TestWithParam<MachineSetup> {
 protected:
  void SetUp() override {
    payload_ = take_snapshot(GetParam());
    sections_ = sections_of(payload_);
    ASSERT_FALSE(sections_.empty());
    ASSERT_EQ(decode(GetParam(), payload_), "") << "the unmutated snapshot";
  }

  /// Decodes one mutant and tallies the verdict.
  void judge(Payload mutant) {
    if (decode(GetParam(), std::move(mutant)).empty()) {
      ++loaded_;
    } else {
      ++refused_;
    }
  }

  const Section& random_section(Rng& rng) const {
    return sections_[rng.next() % sections_.size()];
  }

  void TearDown() override {
    RecordProperty("loaded", loaded_);
    RecordProperty("refused", refused_);
  }

  Payload payload_;
  std::vector<Section> sections_;
  int loaded_ = 0;
  int refused_ = 0;
};

constexpr int kMutants = 1000;

TEST_P(CkptFuzz, BitFlipsAreRefusedOrLoaded) {
  Rng rng(0xB17F11Bull);
  for (int i = 0; i < kMutants; ++i) {
    const Section& s = random_section(rng);
    if (s.len == 0) continue;
    Payload m = payload_;
    const std::uint64_t bit = rng.next() % (s.len * 8);
    m[s.body + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    reseal(m, s);
    judge(std::move(m));
  }
  // The flips reached decoders that refuse, and decoders that cannot tell
  // (a flipped statistic is still a statistic).
  EXPECT_GT(refused_, 0);
  EXPECT_GT(loaded_, 0);
}

TEST_P(CkptFuzz, ValueEditsAreRefusedOrLoaded) {
  Rng rng(0x3D17ull);
  for (int i = 0; i < kMutants; ++i) {
    const Section& s = random_section(rng);
    if (s.len < 8) continue;
    Payload m = payload_;
    const std::size_t off = s.body + rng.next() % (s.len - 7);
    if (rng.next() % 2 == 0) {
      // A stressing value over 8 raw bytes (a double, a byte run, or the
      // varints that happen to sit there).
      set_word(m, off, interesting(rng, word_at(m, off)));
      reseal(m, s);
    } else {
      // A stressing value as a varint over what is at `off`, as if it
      // replaced a count, index or enum there.
      std::size_t end = off;
      const std::uint64_t old = read_var(m, &end);
      end = std::min(end, s.body + s.len);
      splice(m, s, off, end - off, encode_var(interesting(rng, old)));
    }
    judge(std::move(m));
  }
  EXPECT_GT(refused_, 0);
  EXPECT_GT(loaded_, 0);
}

TEST_P(CkptFuzz, TruncationsAreRefused) {
  Rng rng(0x7256ull);
  for (int i = 0; i < kMutants / 3; ++i) {
    // Whole-payload truncation: framing is gone, so it must be refused.
    Payload m = payload_;
    m.resize(rng.next() % m.size());
    EXPECT_NE(decode(GetParam(), std::move(m)), "") << "cut payload loaded";
  }
  for (int i = 0; i < kMutants / 3; ++i) {
    // A resealed section missing some of its bytes: its decoder runs out of
    // section (and into the next frame) part-way through.
    const Section& s = random_section(rng);
    if (s.len == 0) continue;
    Payload m = payload_;
    const std::size_t n = 1 + rng.next() % std::min<std::size_t>(s.len, 64);
    const std::size_t at = s.body + rng.next() % (s.len - n + 1);
    splice(m, s, at, n, {});
    judge(std::move(m));
  }
  EXPECT_GT(refused_, 0);
}

INSTANTIATE_TEST_SUITE_P(Machines, CkptFuzz, ::testing::ValuesIn(kSetups),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// --- the sparse cache-line records -----------------------------------------

/// One cache array's checkpoint block inside a chip section, all varints:
/// [sets][ways][valid count][valid x (index, tag, state, dirty, lru)]
/// [lru clock][5 stats].
struct CacheBlock {
  std::uint64_t ways = 0;
  std::uint64_t valid = 0;
  std::size_t count_at = 0;          ///< offset of the valid count
  std::vector<std::size_t> records;  ///< record offsets, then the records' end
  std::size_t end = 0;               ///< offset just past the block
};

CacheBlock cache_block(const Payload& p, std::size_t at,
                       const cache::CacheLevelParams& geom) {
  CacheBlock b;
  EXPECT_EQ(read_var(p, &at), geom.num_sets()) << "layout: cache sets";
  b.ways = read_var(p, &at);
  EXPECT_EQ(b.ways, geom.num_sets() * geom.assoc) << "layout: cache ways";
  b.count_at = at;
  b.valid = read_var(p, &at);
  for (std::uint64_t k = 0; k <= b.valid; ++k) {
    b.records.push_back(at);
    if (k == b.valid) break;
    for (int field = 0; field < 5; ++field) read_var(p, &at);
  }
  for (int word = 0; word < 6; ++word) read_var(p, &at);
  b.end = at;
  return b;
}

TEST(CkptFuzzSparseLines, CountsAndIndicesAreValidated) {
  const MachineSetup& setup = kSetups[0];
  const Payload payload = take_snapshot(setup);
  const std::vector<Section> all = sections_of(payload);
  const Section& chip0 = find_section(all, "chip0");

  // chip0 opens with the memsys: [l1 count][L1 block][L2 block]...
  const cache::MemSysParams geom;
  std::size_t at = chip0.body;
  ASSERT_EQ(read_var(payload, &at), 1u) << "layout: one shared L1";
  const CacheBlock l1 = cache_block(payload, at, geom.l1);
  const CacheBlock l2 = cache_block(payload, l1.end, geom.l2);
  ASSERT_GE(l1.valid, 2u);
  ASSERT_GE(l2.valid, 2u);

  /// Decodes `payload` with the varint at `where` (in chip0) set to `v`.
  auto with_var = [&](std::size_t where, std::uint64_t v) {
    Payload m = payload;
    set_var(m, chip0, where, v);
    return decode(setup, std::move(m));
  };
  auto refused_for = [](const std::string& error, const char* what) {
    return error.find(what) != std::string::npos;
  };

  for (const CacheBlock* b : {&l1, &l2}) {
    SCOPED_TRACE(b == &l1 ? "L1" : "L2");
    const std::size_t rec0 = b->records[0];
    const std::size_t rec1 = b->records[1];
    std::size_t state0 = rec0;
    const std::uint64_t index0 = read_var(payload, &state0);
    read_var(payload, &state0);  // tag; state0 now points at the state

    // A count above the way count, a huge one, and one past the records.
    EXPECT_TRUE(refused_for(with_var(b->count_at, b->ways + 1),
                            "count exceeds the table"));
    EXPECT_TRUE(refused_for(with_var(b->count_at, ~std::uint64_t{0}),
                            "count exceeds the table"));
    EXPECT_NE(with_var(b->count_at, b->valid + 1), "");
    // An index past the last way, and a record repeating its
    // predecessor's index.
    EXPECT_TRUE(refused_for(with_var(rec0, b->ways),
                            "out of range or out of order"));
    EXPECT_TRUE(refused_for(with_var(rec1, index0),
                            "out of range or out of order"));
    // A record claiming an invalid line, or a state that does not exist.
    EXPECT_TRUE(refused_for(with_var(state0, 0), "invalid state"));
    EXPECT_TRUE(refused_for(with_var(state0, 7), "invalid state"));
    // Dropping the last record together with the count is a consistent,
    // smaller cache: it loads.
    {
      Payload m = payload;
      const std::size_t last = b->records[b->valid - 1];
      const std::size_t record_bytes = b->records[b->valid] - last;
      splice(m, chip0, last, record_bytes, {});
      Section shorter = chip0;
      shorter.len -= record_bytes;
      set_var(m, shorter, b->count_at, b->valid - 1);
      EXPECT_EQ(decode(setup, std::move(m)), "");
    }
  }
}

// --- refused checkpoints leave the run fresh ------------------------------

/// What a run armed with a checkpoint file did with it.
struct ArmedRun {
  RunStats stats;
  Cycle resumed_from = 0;
  std::string warning;  ///< the run's stderr
};

/// Writes `payload` under a header of `version`, then runs `setup` to
/// kSnapshotCycle + 1 with that file as its checkpoint.
ArmedRun run_armed(const MachineSetup& setup, const Payload& payload,
                   std::uint32_t version) {
  const std::string path =
      (fs::path(::testing::TempDir()) / "armed.ckpt").string();
  ckpt::CheckpointMeta meta;
  meta.version = version;
  meta.spec_hash = kTag;
  meta.cycle = kSnapshotCycle;
  std::string err;
  EXPECT_TRUE(ckpt::write_checkpoint(path, meta, payload, &err)) << err;

  MachineConfig mc = config_for(setup);
  mc.max_cycles = kSnapshotCycle + 1;
  mc.ckpt_interval = 100'000;  // armed, but never due before the watchdog
  mc.ckpt_path = path;
  mc.ckpt_spec_hash = kTag;
  Rig rig(mc);
  ArmedRun out;
  ::testing::internal::CaptureStderr();
  out.stats = rig.machine.run(rig.mix()).combined;
  out.warning = ::testing::internal::GetCapturedStderr();
  out.resumed_from = rig.machine.resumed_from_cycle();
  fs::remove(path);
  return out;
}

/// The same run with no checkpoint at all.
RunStats run_fresh(const MachineSetup& setup) {
  MachineConfig mc = config_for(setup);
  mc.max_cycles = kSnapshotCycle + 1;
  Rig rig(mc);
  return rig.machine.run(rig.mix()).combined;
}

TEST(CkptFuzzRefusal, VersionThreeFileIsRefusedAndTheRunStartsFresh) {
  const MachineSetup& setup = kSetups[0];
  const ArmedRun run = run_armed(setup, take_snapshot(setup), 3);
  EXPECT_EQ(run.resumed_from, 0u);
  EXPECT_EQ(run.stats.cycles, kSnapshotCycle + 1);
  EXPECT_EQ(run.stats.committed_useful, run_fresh(setup).committed_useful);
  EXPECT_NE(run.warning.find("ignoring checkpoint"), std::string::npos)
      << run.warning;
  EXPECT_NE(run.warning.find("format version 3"), std::string::npos)
      << run.warning;
}

TEST(CkptFuzzRefusal, PayloadFailingMidLoadLeavesTheRunFresh) {
  // Checksum-valid, and every section before chip0 decodes: only the
  // twin's dry run can refuse it before the run's own state is touched.
  const MachineSetup& setup = kSetups[0];
  Payload payload = take_snapshot(setup);
  const Section chip0 = find_section(sections_of(payload), "chip0");
  std::size_t at = chip0.body;
  read_var(payload, &at);  // l1 count
  read_var(payload, &at);  // L1 sets
  read_var(payload, &at);  // L1 ways; `at` is now the valid-line count
  set_var(payload, chip0, at, ~std::uint64_t{0});

  const ArmedRun run = run_armed(setup, payload, ckpt::kFormatVersion);
  EXPECT_EQ(run.resumed_from, 0u);
  EXPECT_EQ(run.stats.cycles, kSnapshotCycle + 1);
  EXPECT_EQ(run.stats.committed_useful, run_fresh(setup).committed_useful);
  EXPECT_NE(run.warning.find("ignoring checkpoint"), std::string::npos)
      << run.warning;
  EXPECT_NE(run.warning.find("count exceeds the table"), std::string::npos)
      << run.warning;
}

}  // namespace
}  // namespace csmt::sim
