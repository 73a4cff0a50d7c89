// Resilience-manager reuse regression (ISSUE 7 satellite): one manager
// instance must survive an unbounded fault/repair event stream — the
// resident daemon's control loop — without monotonic growth or stale
// state. Holds the manager to the contract documented in
// resilience.hpp: the verdict log honours its retention cap with exact
// aggregate counts, the fabric's adjacency pool stays within its
// compaction bound, escape-root hints stay bounded by the VL budget,
// epochs stay monotone, and sampled epochs keep passing the full
// validation oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "metrics/reconfig_log.hpp"
#include "resilience/resilience.hpp"
#include "routing/validate.hpp"
#include "topology/faults.hpp"
#include "topology/torus.hpp"

namespace nue {
namespace {

TEST(ReconfigLogRetention, EvictionKeepsAggregatesExact) {
  ReconfigLog log;
  log.set_max_records(16);
  // Differential reference: an unbounded log fed the same records must
  // summarize identically — eviction may only lose per-record detail,
  // never an aggregate (including the per-rung and per-verdict counts a
  // bounded resident manager reports through the daemon's status op).
  ReconfigLog unbounded;
  std::size_t transitions = 0, noops = 0, hitless = 0, drained = 0;
  std::size_t waved = 0, wave_commits = 0;
  std::map<std::string, std::size_t> by_step;
  double max_ms = 0.0;
  for (int i = 0; i < 1000; ++i) {
    TransitionRecord r;
    r.epoch = static_cast<std::uint64_t>(i);
    r.event = "synthetic " + std::to_string(i);
    if (i % 5 == 0) {
      r.committed_step = "noop";
      ++noops;
    } else if (i % 11 == 0) {
      // A two-epoch wave chain's intermediate record.
      r.committed_step = "wave";
      r.hitless = true;
      r.wave_index = 1;
      r.wave_count = 2;
      r.repair_ms = static_cast<double>(i % 37);
      ++transitions;
      ++hitless;
      ++wave_commits;
      max_ms = std::max(max_ms, r.repair_ms);
    } else if (i % 11 == 1) {
      // ... and its final record, carrying the producing rung.
      r.committed_step = "incremental";
      r.hitless = true;
      r.wave_index = 2;
      r.wave_count = 2;
      r.repair_ms = static_cast<double>(i % 37);
      ++transitions;
      ++hitless;
      ++waved;
      ++wave_commits;
      max_ms = std::max(max_ms, r.repair_ms);
    } else {
      r.committed_step = i % 3 == 0 ? "full-recompute" : "incremental";
      r.hitless = i % 2 == 0;
      r.drained = !r.hitless && i % 7 == 0;
      r.repair_ms = static_cast<double>(i % 37);
      ++transitions;
      if (r.hitless) ++hitless;
      if (r.drained) ++drained;
      max_ms = std::max(max_ms, r.repair_ms);
    }
    ++by_step[r.committed_step];
    log.add(r);
    unbounded.add(r);
    // Exactly the newest min(i + 1, 16) records: no batch trimming.
    EXPECT_EQ(log.records().size(), std::min<std::size_t>(i + 1, 16));
  }
  EXPECT_EQ(log.total_records(), 1000u);
  EXPECT_EQ(log.evicted_records(), 1000u - log.records().size());
  const auto s = log.summarize();
  EXPECT_EQ(s.transitions, transitions);
  EXPECT_EQ(s.noops, noops);
  EXPECT_EQ(s.hitless, hitless);
  EXPECT_EQ(s.drained, drained);
  EXPECT_EQ(s.waved, waved);
  EXPECT_EQ(s.wave_commits, wave_commits);
  EXPECT_EQ(s.by_step, by_step);
  EXPECT_EQ(s.evicted, log.evicted_records());
  EXPECT_DOUBLE_EQ(s.max_repair_ms, max_ms);
  const auto u = unbounded.summarize();
  EXPECT_EQ(u.transitions, s.transitions);
  EXPECT_EQ(u.noops, s.noops);
  EXPECT_EQ(u.hitless, s.hitless);
  EXPECT_EQ(u.drained, s.drained);
  EXPECT_EQ(u.waved, s.waved);
  EXPECT_EQ(u.wave_commits, s.wave_commits);
  EXPECT_EQ(u.by_step, s.by_step);
  EXPECT_DOUBLE_EQ(u.max_repair_ms, s.max_repair_ms);
  // The retained window is the newest suffix, in order.
  const auto& recs = log.records();
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].epoch, recs[i - 1].epoch + 1);
  }
  EXPECT_EQ(recs.back().epoch, 999u);
}

TEST(ReconfigLogRetention, UnboundedByDefault) {
  ReconfigLog log;
  for (int i = 0; i < 200; ++i) {
    TransitionRecord r;
    r.committed_step = "incremental";
    log.add(r);
  }
  EXPECT_EQ(log.records().size(), 200u);
  EXPECT_EQ(log.evicted_records(), 0u);
}

TEST(ResilienceChurn, TenThousandEventsNoMonotonicGrowth) {
  TorusSpec spec{{3, 3}, 1, 1};
  Network net = make_torus(spec);
  const FaultTrace trace = draw_fault_trace(net, "torus:3x3:1", 29,
                                            10000, 0.5);
  ASSERT_GE(trace.events.size(), 9000u) << "trace ran out of legal moves";

  resilience::RepairPolicy policy;
  policy.engine = resilience::Engine::kNue;
  policy.vls = 2;
  policy.max_vls = 4;
  policy.seed = 29;
  policy.num_threads = 1;
  policy.log_max_records = 128;
  resilience::ResilienceManager mgr(net, policy);

  std::size_t transitions = 0, noops = 0, hitless = 0, drained = 0;
  std::size_t waved = 0, wave_commits = 0, wave_intermediates = 0;
  std::uint64_t last_epoch = mgr.epoch();
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TransitionRecord rec = mgr.apply(trace.events[i]);
    if (rec.committed_step == "noop") {
      ++noops;
      EXPECT_EQ(rec.epoch, last_epoch);
    } else {
      ++transitions;
      if (rec.hitless) ++hitless;
      if (rec.drained) ++drained;
      if (rec.wave_count > 0) {
        // A wave chain returns its final record; the intermediate epochs
        // were committed (and logged) on the way, so the epoch advances
        // by the chain length — still strictly monotone, never skipping
        // an uncommitted number.
        EXPECT_EQ(rec.wave_index, rec.wave_count);
        EXPECT_GE(rec.wave_count, 2u);
        ++waved;
        wave_commits += rec.wave_count;
        wave_intermediates += rec.wave_count - 1;
        EXPECT_EQ(rec.epoch, last_epoch + rec.wave_count)
            << "wave-chain epochs skipped at event " << i;
      } else {
        EXPECT_EQ(rec.epoch, last_epoch + 1) << "epoch skipped at event "
                                             << i;
      }
      last_epoch = rec.epoch;
    }
    if (i % 500 == 0) {
      // Bounded structures: the verdict log obeys its retention cap and
      // the fabric's adjacency pool obeys its compaction bound even
      // after thousands of remove/restore cycles.
      EXPECT_LE(mgr.log().records().size(), policy.log_max_records);
      mgr.net().check_pool_invariants();
      // Escape-root hints are per virtual layer, never beyond the
      // escalated VL budget.
      EXPECT_LE(mgr.table()->num_vls(), policy.max_vls);
    }
    if (i % 2500 == 0) {
      const auto rep = validate_routing(mgr.net(), *mgr.table());
      ASSERT_TRUE(rep.ok()) << "epoch " << mgr.epoch()
                            << " failed validation at event " << i << ": "
                            << rep.detail;
    }
  }

  // The log's aggregate summary stayed exact across eviction: it matches
  // the counts folded record by record above. The log carries one record
  // per committed epoch, so wave intermediates appear in it (as hitless
  // "wave" transitions) even though apply() returned only chain finals.
  const auto s = mgr.log().summarize();
  // +1: the constructor logs the initial table (epoch 1) as a transition.
  EXPECT_EQ(s.transitions, transitions + wave_intermediates + 1);
  EXPECT_EQ(s.noops, noops);
  EXPECT_EQ(s.hitless, hitless + wave_intermediates);
  EXPECT_EQ(s.drained, drained);
  EXPECT_EQ(s.waved, waved);
  EXPECT_EQ(s.wave_commits, wave_commits);
  auto wave_steps = s.by_step.find("wave");
  EXPECT_EQ(wave_steps == s.by_step.end() ? 0u : wave_steps->second,
            wave_intermediates);
  EXPECT_EQ(mgr.log().total_records(),
            trace.events.size() + wave_intermediates + 1);
  EXPECT_LE(mgr.log().records().size(), policy.log_max_records);

  const auto rep = validate_routing(mgr.net(), *mgr.table());
  EXPECT_TRUE(rep.ok()) << rep.detail;
  mgr.net().check_pool_invariants();
}

}  // namespace
}  // namespace nue
