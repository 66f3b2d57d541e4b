// Self-tests of the benchmark's own code: the RunStats digest, the
// percentile helper, failure counting, and the seeded inputs.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "net/http.hpp"
#include "svc_client.hpp"

namespace csmt::perfbench {
namespace {

sim::RunStats sample_stats() {
  sim::RunStats s;
  s.cycles = 1000;
  s.committed_useful = 900;
  s.committed_sync = 50;
  s.fetched = 1200;
  s.avg_running_threads = 3.5;
  s.slots.slots[0] = 0.25;
  s.predictor.cond_lookups = 40;
  s.mem.loads = 300;
  s.mem.l2_miss_rate = 0.125;
  s.dash = noc::DashStats{};
  s.dash->fetches = 20;
  obs::EpochSample e;
  e.begin = 0;
  e.end = 500;
  e.counters.loads = 150;
  s.epochs.push_back(e);
  return s;
}

TEST(Digest, EveryRunStatsFieldChangesTheDigest) {
  using Mutation = std::function<void(sim::RunStats&)>;
  const std::vector<Mutation> mutations = {
      [](auto& s) { s.cycles++; },
      [](auto& s) { s.slots.slots[core::kNumSlots - 1] += 1; },
      [](auto& s) { s.committed_useful++; },
      [](auto& s) { s.committed_sync++; },
      [](auto& s) { s.fetched++; },
      [](auto& s) { s.timed_out = true; },
      [](auto& s) { s.avg_running_threads += 1e-12; },
      [](auto& s) { s.predictor.cond_lookups++; },
      [](auto& s) { s.predictor.cond_mispredicts++; },
      [](auto& s) { s.predictor.btb_misses++; },
      [](auto& s) { s.mem.loads++; },
      [](auto& s) { s.mem.stores++; },
      [](auto& s) { s.mem.by_level[5]++; },
      [](auto& s) { s.mem.bank_rejections++; },
      [](auto& s) { s.mem.mshr_rejections++; },
      [](auto& s) { s.mem.upgrades++; },
      [](auto& s) { s.mem.l1_cross_invalidations++; },
      [](auto& s) { s.mem.l1_miss_rate += 0.5; },
      [](auto& s) { s.mem.l2_miss_rate += 0.5; },
      [](auto& s) { s.mem.tlb_miss_rate += 0.5; },
      [](auto& s) { s.dash.reset(); },
      [](auto& s) { s.dash->fetches++; },
      [](auto& s) { s.dash->remote_fetches++; },
      [](auto& s) { s.dash->interventions++; },
      [](auto& s) { s.dash->dirty_remote_supplies++; },
      [](auto& s) { s.dash->invalidations_sent++; },
      [](auto& s) { s.dash->upgrades++; },
      [](auto& s) { s.dash->writebacks++; },
      [](auto& s) { s.alloc.epochs++; },
      [](auto& s) { s.alloc.migrations++; },
      [](auto& s) { s.alloc.rejected++; },
      [](auto& s) { s.alloc.drain_cycles++; },
      [](auto& s) { s.alloc.stall_cycles++; },
      [](auto& s) { s.epochs.push_back({}); },
      [](auto& s) { s.epochs[0].begin++; },
      [](auto& s) { s.epochs[0].end++; },
      [](auto& s) { s.epochs[0].avg_running_threads += 1; },
      [](auto& s) { s.epochs[0].counters.committed_useful++; },
      [](auto& s) { s.epochs[0].counters.committed_sync++; },
      [](auto& s) { s.epochs[0].counters.fetched++; },
      [](auto& s) { s.epochs[0].counters.slots.slots[1] += 1; },
      [](auto& s) { s.epochs[0].counters.loads++; },
      [](auto& s) { s.epochs[0].counters.stores++; },
      [](auto& s) { s.epochs[0].counters.l1_misses++; },
      [](auto& s) { s.epochs[0].counters.l2_misses++; },
      [](auto& s) { s.epochs[0].counters.tlb_misses++; },
      [](auto& s) { s.epochs[0].counters.bank_rejections++; },
      [](auto& s) { s.epochs[0].counters.mshr_rejections++; },
  };
  const sim::RunStats base = sample_stats();
  const std::uint64_t d0 = stats_digest(base);
  EXPECT_EQ(stats_digest(sample_stats()), d0);
  std::set<std::uint64_t> seen = {d0};
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    sim::RunStats s = base;
    mutations[i](s);
    EXPECT_TRUE(seen.insert(stats_digest(s)).second) << "mutation " << i;
  }
}

TEST(Percentile, RefusesATailWithFewerThanTenSamplesBeyondIt) {
  std::vector<double> v;
  for (int i = 0; i < 99; ++i) v.push_back(i);
  EXPECT_FALSE(percentile(v, 90).has_value());
  v.push_back(99);
  ASSERT_TRUE(percentile(v, 90).has_value());
  EXPECT_DOUBLE_EQ(*percentile(v, 90), 89.1);
  EXPECT_FALSE(percentile(std::vector<double>(19, 1.0), 50).has_value());
  EXPECT_TRUE(percentile(std::vector<double>(20, 1.0), 50).has_value());
  EXPECT_DOUBLE_EQ(median({3, 1, 2, 10}), 2.5);
}

TEST(Failures, ADigestMismatchCountsAsAFailedOperation) {
  sim::ExperimentResult r;
  r.spec.workload = "swim";
  r.stats = sample_stats();
  r.validated = true;
  Reference ref;
  ref.put(point_key(r.spec), r);
  EXPECT_EQ(ref.check_point(point_key(r.spec), r, true), "");

  sim::ExperimentResult bad = r;
  bad.stats.mem.upgrades++;
  Outcome out;
  const std::string why = ref.check_point(point_key(bad.spec), bad, false);
  EXPECT_NE(why, "");
  out.op(why.empty(), why);
  out.op(true);
  EXPECT_EQ(out.attempted(), 2u);
  EXPECT_EQ(out.failed(), 1u);
  EXPECT_FALSE(out.correct());
  EXPECT_FALSE(out.to_json().find("correct")->as_bool(true));
}

TEST(Failures, ARefusedOrUnansweredRequestCountsAsAFailure) {
  net::HttpServer refusing;
  ASSERT_TRUE(refusing.start(0, [](const net::HttpRequest&,
                                   net::ClientConn& conn) {
    conn.respond("503 Service Unavailable", "text/plain", "busy\n");
  }));
  sim::ExperimentSpec spec;
  spec.workload = "swim";
  SpanLog spans(false);
  Outcome out;
  {
    SvcClient client("127.0.0.1", refusing.port(), spans);
    const Reply reply = client.submit({spec}, 0, 1, 5.0);
    EXPECT_NE(reply.error, "");
    EXPECT_EQ(client.counters().errors, 1u);
    out.op(reply.error.empty(), reply.error);
  }
  const std::uint16_t port = refusing.port();
  refusing.stop();
  {
    SvcClient client("127.0.0.1", port, spans);
    const Reply reply = client.submit({spec}, 1, 1, 5.0);
    EXPECT_NE(reply.error, "");
    EXPECT_EQ(client.counters().errors, 1u);
    out.op(reply.error.empty(), reply.error);
  }
  EXPECT_EQ(out.failed(), 2u);
  EXPECT_FALSE(out.correct());
}

bool same_plan(const SessionPlan& a, const SessionPlan& b) {
  if (a.grids != b.grids || a.rounds.size() != b.rounds.size()) return false;
  for (std::size_t r = 0; r < a.rounds.size(); ++r) {
    if (a.rounds[r].size() != b.rounds[r].size()) return false;
    for (std::size_t i = 0; i < a.rounds[r].size(); ++i) {
      if (a.rounds[r][i].hit != b.rounds[r][i].hit ||
          a.rounds[r][i].grid != b.rounds[r][i].grid ||
          a.rounds[r][i].think_ms != b.rounds[r][i].think_ms)
        return false;
    }
  }
  return true;
}

TEST(Inputs, TheSeedFixesPointOrderAndSubmissionSequence) {
  const auto points = paper_points();
  ASSERT_EQ(points.size(), 84u);
  EXPECT_EQ(seeded_order(points, 7), seeded_order(points, 7));
  EXPECT_NE(seeded_order(points, 7), seeded_order(points, 8));

  const SessionPlan a = plan_session(7);
  EXPECT_TRUE(same_plan(a, plan_session(7)));
  EXPECT_FALSE(same_plan(a, plan_session(8)));

  EXPECT_EQ(hit_grids(7), hit_grids(7));
  EXPECT_NE(hit_grids(7), hit_grids(8));
}

TEST(Inputs, HitGridsHoldTheSamePointsForEverySeed) {
  const auto keys = [](std::uint64_t seed) {
    std::set<std::string> out;
    const auto grids = hit_grids(seed);
    EXPECT_EQ(grids.size(), 30u);
    for (const auto& g : grids) {
      EXPECT_GE(g.size(), 2u);
      EXPECT_LE(g.size(), 4u);
      for (const auto& p : g) out.insert(point_key(p));
    }
    return out;
  };
  const std::set<std::string> a = keys(7);
  EXPECT_EQ(a.size(), 84u);
  EXPECT_EQ(a, keys(8));
}

TEST(Inputs, ColdGridsAreFreshAndHitsRepeatEarlierGrids) {
  const SessionPlan plan = plan_session(3);
  ASSERT_EQ(plan.rounds.size(), 24u);
  std::set<std::string> seen;
  std::size_t grids = 0;
  ASSERT_FALSE(plan.rounds[0][0].hit);
  for (const auto& round : plan.rounds) {
    std::size_t hits = 0;
    for (const Submission& s : round) {
      if (s.hit) {
        ++hits;
        EXPECT_LT(s.grid, grids);
        EXPECT_EQ(s.think_ms, 0u);
        continue;
      }
      EXPECT_EQ(s.grid, grids++);
      EXPECT_LT(s.think_ms, 200u);
      const auto& g = plan.grids[s.grid];
      EXPECT_GE(g.size(), 2u);
      EXPECT_LE(g.size(), 4u);
      for (const auto& p : g) {
        EXPECT_TRUE(seen.insert(point_key(p)).second) << point_key(p);
        EXPECT_LE(p.scale, 2u);
      }
    }
    EXPECT_EQ(hits, 10u);
  }
}

/// The (name, unit) pairs of a BENCHMARK.json metric list.
std::vector<std::pair<std::string, std::string>> listed(const json::Value& doc,
                                                        const char* key) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const json::Value& m : doc.find(key)->items())
    out.emplace_back(m.find("name")->as_string(), m.find("unit")->as_string());
  return out;
}

std::vector<std::pair<std::string, std::string>> reported(const Outcome& out) {
  std::vector<std::pair<std::string, std::string>> v;
  for (const Metric& m : out.metrics()) v.emplace_back(m.name, m.unit);
  return v;
}

TEST(BenchmarkJson, ListsExactlyTheReportedMetrics) {
  std::ifstream in(std::string(PERFBENCH_ROOT) + "/BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = json::Value::parse(text.str());
  ASSERT_TRUE(doc.has_value());
  Outcome e2e, layers;
  EndToEnd{}.emit(e2e);
  LayerReport{}.emit(layers);
  EXPECT_EQ(listed(*doc, "end_to_end"), reported(e2e));
  EXPECT_EQ(listed(*doc, "per_layer"), reported(layers));
}

}  // namespace
}  // namespace csmt::perfbench
