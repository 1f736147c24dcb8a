// Shard-scaling microbenchmarks (EXPERIMENTS.md Q8): what partitioning the
// prosumer population across N enterprise shards costs and buys. The custom
// main writes bench_out/BENCH_shard.json with online ticks/sec at 1/2/4/8
// shards (each at 1 and 8 worker threads), a byte-identity check of the
// 1-shard run against the unsharded OnlineEnterprise::Run, a cross-thread
// determinism flag at every shard count, and the wall cost of one
// replay-verified prosumer migration: an idle one before any tick, and an
// active one mid-run, timed alone.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "sim/coordinator.h"
#include "sim/online.h"
#include "sim/rebalance.h"
#include "sim/shard.h"
#include "util/parallel.h"
#include "util/strings.h"

using namespace flexvis;

namespace {

/// Fingerprint of a merged run for determinism comparisons: the protocol
/// stream plus every counter the merge sums.
struct RunDigest {
  std::vector<std::string> outbox;
  int offers_received = 0;
  int accepted = 0;
  int rejected = 0;
  int assigned = 0;
  double imbalance_kwh = 0.0;
  double total_offered_kwh = 0.0;

  bool operator==(const RunDigest& other) const {
    return outbox == other.outbox && offers_received == other.offers_received &&
           accepted == other.accepted && rejected == other.rejected &&
           assigned == other.assigned && imbalance_kwh == other.imbalance_kwh &&
           total_offered_kwh == other.total_offered_kwh;
  }
};

RunDigest Digest(const sim::MergedOnlineReport& merged) {
  RunDigest d;
  d.outbox = merged.global.outbox;
  d.offers_received = merged.global.offers_received;
  d.accepted = merged.global.accepted;
  d.rejected = merged.global.rejected;
  d.assigned = merged.global.assigned;
  d.imbalance_kwh = merged.global.imbalance_kwh;
  d.total_offered_kwh = merged.total_offered_kwh;
  return d;
}

// ---- google-benchmark timings (not run by the CI smoke filter) --------------

void BM_ShardedTicks(benchmark::State& state) {
  std::vector<core::FlexOffer> offers = bench::MakeRandomOffers(47, 400);
  timeutil::TimeInterval window(bench::BenchDay(),
                                bench::BenchDay() + 2 * timeutil::kMinutesPerDay);
  sim::CoordinatorParams params;
  params.num_shards = static_cast<int>(state.range(0));
  params.online.tick_minutes = 60;
  int64_t ticks = 0;
  for (auto _ : state) {
    Result<sim::MergedOnlineReport> merged =
        sim::Coordinator::RunSharded(params, offers, window);
    if (!merged.ok()) {
      state.SkipWithError(merged.status().ToString().c_str());
      return;
    }
    ticks += merged->global.ticks;
    benchmark::DoNotOptimize(merged);
  }
  state.SetItemsProcessed(ticks);
}
BENCHMARK(BM_ShardedTicks)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// ---- The JSON report the CI gate archives -----------------------------------

bool WriteShardReport() {
  bench::BenchReport report("shard");
  bool ok = true;
  bool deterministic = true;

  std::vector<core::FlexOffer> offers =
      bench::MakeRandomOffers(47, bench::EnvSize("FLEXVIS_BENCH_SHARD_OFFERS", 1200));
  timeutil::TimeInterval window(bench::BenchDay(),
                                bench::BenchDay() + 2 * timeutil::kMinutesPerDay);
  sim::OnlineParams online;
  online.tick_minutes = 60;

  // The unsharded baseline the 1-shard run must reproduce byte for byte.
  Result<sim::OnlineReport> baseline =
      sim::OnlineEnterprise(online).Run(offers, window);
  if (!baseline.ok()) {
    std::fprintf(stderr, "FAIL: unsharded baseline errored: %s\n",
                 baseline.status().ToString().c_str());
    return false;
  }

  for (int shards : {1, 2, 4, 8}) {
    sim::CoordinatorParams params;
    params.num_shards = shards;
    params.online = online;

    RunDigest first_digest;
    bool have_first = false;
    for (int threads : {1, 8}) {
      SetParallelThreadCount(threads);
      Result<sim::MergedOnlineReport> merged =
          sim::Coordinator::RunSharded(params, offers, window);
      if (!merged.ok()) {
        std::fprintf(stderr, "FAIL: %d-shard run errored: %s\n", shards,
                     merged.status().ToString().c_str());
        SetParallelThreadCount(1);
        return false;
      }
      // Determinism: every (shard count) must produce the same bytes at
      // every thread count.
      RunDigest digest = Digest(*merged);
      if (!have_first) {
        first_digest = digest;
        have_first = true;
      } else if (!(digest == first_digest)) {
        std::fprintf(stderr, "FAIL: %d-shard run differs across thread counts\n",
                     shards);
        deterministic = false;
      }
      if (shards == 1 &&
          (merged->global.outbox != baseline->outbox ||
           merged->global.imbalance_kwh != baseline->imbalance_kwh ||
           merged->global.accepted != baseline->accepted ||
           merged->global.assigned != baseline->assigned)) {
        std::fprintf(stderr,
                     "FAIL: 1-shard run is not byte-identical to the unsharded run\n");
        ok = false;
      }

      const std::string label = StrFormat("sharded_run_%ds_%dt", shards, threads);
      const double ticks = static_cast<double>(merged->global.ticks);
      double wall_s = bench::MeasureSeconds([&] {
        Result<sim::MergedOnlineReport> timed =
            sim::Coordinator::RunSharded(params, offers, window);
        if (!timed.ok()) ok = false;
        benchmark::DoNotOptimize(timed);
      });
      report.AddSample(label, wall_s, threads, ticks);
      report.AddStage(label, "tick", wall_s, ticks);
      if (wall_s > 0.0) {
        report.SetCounter(label + "_ticks_per_sec", ticks / wall_s);
      }
    }
  }
  SetParallelThreadCount(1);

  // Wall cost of one replay-verified migration (4 shards, before any tick has
  // run, so every prosumer is idle and eligible). Each repeat pays Begin for
  // both the baseline and the migrating run; the reported cost is the delta.
  {
    sim::CoordinatorParams params;
    params.num_shards = 4;
    params.online = online;
    const core::ProsumerId prosumer = offers.front().prosumer;
    double begin_s = bench::MeasureSeconds([&] {
      sim::Coordinator coordinator(params);
      if (!coordinator.Begin(offers, window).ok()) ok = false;
    });
    double migrate_s = bench::MeasureSeconds([&] {
      sim::Coordinator coordinator(params);
      if (!coordinator.Begin(offers, window).ok()) ok = false;
      const int from = coordinator.router().ShardOfProsumer(
          prosumer, core::kInvalidRegionId, core::kInvalidGridNodeId);
      if (!coordinator.MigrateProsumer(prosumer, (from + 1) % 4).ok()) ok = false;
    });
    report.AddSample("migrate_one_prosumer_4s", migrate_s, 1, 1.0);
    report.SetCounter("migrate_overhead_seconds",
                      migrate_s > begin_s ? migrate_s - begin_s : 0.0);

    // One active migration timed alone: a fresh coordinator runs a few
    // untimed ticks, so the prosumer owning the earliest-created offer has
    // consumed offers and decisions to move, then only the MigrateProsumer
    // call is on the clock. Best of kRepeats fresh coordinators.
    const core::ProsumerId active =
        std::min_element(offers.begin(), offers.end(),
                         [](const core::FlexOffer& a, const core::FlexOffer& b) {
                           return a.creation_time < b.creation_time;
                         })
            ->prosumer;
    constexpr int kUntimedTicks = 6;
    constexpr int kRepeats = 7;
    double active_s = 0.0;
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      sim::Coordinator coordinator(params);
      if (!coordinator.Begin(offers, window).ok()) ok = false;
      for (int t = 0; t < kUntimedTicks && ok; ++t) {
        if (!coordinator.Tick().ok()) ok = false;
      }
      const int from = coordinator.router().ShardOfProsumer(
          active, core::kInvalidRegionId, core::kInvalidGridNodeId);
      const auto start = std::chrono::steady_clock::now();
      Status moved = coordinator.MigrateProsumer(active, (from + 1) % 4,
                                                 sim::MigrationMode::kAllowActive);
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
      if (!moved.ok()) {
        std::fprintf(stderr, "FAIL: active migration errored: %s\n", moved.ToString().c_str());
        ok = false;
      }
      if (repeat == 0 || elapsed.count() < active_s) active_s = elapsed.count();
    }
    report.AddSample("migrate_active_prosumer_4s", active_s, 1, 1.0);
    report.SetCounter("migrate_active_seconds", active_s);
  }

  // ---- The rebalancing gate (EXPERIMENTS.md Q12) ----------------------------
  // A pathologically skewed population: every prosumer id is remapped to one
  // that hashes to shard 0 of 4, so the whole arrival stream lands on one
  // shard of a 4-shard fleet with a bounded ingest queue. Without the
  // controller that shard sheds continuously while three shards idle. The two
  // hard gates: the self-healing controller must fire at least one plan AND
  // strictly reduce total sheds (rebalance_converged), and the rebalanced run
  // must stay settlement-conservative — every input offer back exactly once
  // in global input order, per-shard counters and outboxes summing to the
  // global merge (settlement_conserved).
  bool rebalance_converged = true;
  bool settlement_conserved = true;
  {
    sim::ShardRouter probe(4, sim::ShardPolicy::kHash);
    std::map<core::ProsumerId, core::ProsumerId> remap;
    core::ProsumerId candidate = 1;
    std::vector<core::FlexOffer> skewed = offers;
    for (core::FlexOffer& offer : skewed) {
      auto [it, inserted] = remap.try_emplace(offer.prosumer, 0);
      if (inserted) {
        while (probe.ShardOfProsumer(candidate, core::kInvalidRegionId,
                                     core::kInvalidGridNodeId) != 0) {
          ++candidate;
        }
        it->second = candidate++;
      }
      offer.prosumer = it->second;
    }

    sim::CoordinatorParams params;
    params.num_shards = 4;
    params.online = online;
    params.online.ingest_queue_capacity = 2;

    Result<sim::MergedOnlineReport> unbalanced =
        sim::Coordinator::RunSharded(params, skewed, window);
    if (!unbalanced.ok()) {
      std::fprintf(stderr, "FAIL: skewed baseline errored: %s\n",
                   unbalanced.status().ToString().c_str());
      return false;
    }

    sim::RebalanceParams rebalance;
    rebalance.window_ticks = 2;
    rebalance.cooldown_ticks = 2;
    rebalance.max_moves = 4;
    rebalance.queue_depth_threshold = 4;
    params.rebalance = rebalance;
    sim::Coordinator coordinator(params);
    int64_t plans = 0;
    double rebalanced_s = bench::MeasureSeconds([&] {
      sim::Coordinator timed(params);
      if (!timed.Begin(skewed, window).ok()) rebalance_converged = false;
      while (!timed.Done()) {
        if (!timed.Tick().ok()) {
          rebalance_converged = false;
          break;
        }
      }
      plans = timed.plans_executed();
      benchmark::DoNotOptimize(timed);
    });
    if (!coordinator.Begin(skewed, window).ok()) rebalance_converged = false;
    while (rebalance_converged && !coordinator.Done()) {
      if (!coordinator.Tick().ok()) rebalance_converged = false;
    }
    Result<sim::MergedOnlineReport> balanced = coordinator.Finish();
    if (!balanced.ok()) {
      std::fprintf(stderr, "FAIL: rebalanced run errored: %s\n",
                   balanced.status().ToString().c_str());
      return false;
    }

    if (plans < 1) {
      std::fprintf(stderr, "FAIL: the controller never fired a plan\n");
      rebalance_converged = false;
    }
    if (balanced->global.shed_offers >= unbalanced->global.shed_offers) {
      std::fprintf(stderr, "FAIL: rebalancing did not reduce sheds (%d -> %d)\n",
                   unbalanced->global.shed_offers, balanced->global.shed_offers);
      rebalance_converged = false;
    }

    if (balanced->global.offers.size() != skewed.size()) {
      settlement_conserved = false;
    } else {
      for (size_t i = 0; i < skewed.size(); ++i) {
        if (balanced->global.offers[i].id != skewed[i].id) {
          settlement_conserved = false;
          break;
        }
      }
    }
    int received = 0;
    int shed = 0;
    size_t outbox = 0;
    for (const sim::OnlineReport& shard : balanced->shard_reports) {
      received += shard.offers_received;
      shed += shard.shed_offers;
      outbox += shard.outbox.size();
    }
    if (received != balanced->global.offers_received ||
        shed != balanced->global.shed_offers ||
        outbox != balanced->global.outbox.size()) {
      settlement_conserved = false;
    }
    if (!settlement_conserved) {
      std::fprintf(stderr, "FAIL: rebalanced run violates settlement conservation\n");
    }

    report.AddSample("rebalanced_skewed_run_4s", rebalanced_s, 1,
                     static_cast<double>(balanced->global.ticks));
    report.SetCounter("rebalance_plans", static_cast<double>(plans));
    report.SetCounter("shed_skewed_baseline",
                      static_cast<double>(unbalanced->global.shed_offers));
    report.SetCounter("shed_rebalanced",
                      static_cast<double>(balanced->global.shed_offers));
  }

  report.SetCounter("deterministic", deterministic ? 1.0 : 0.0);
  report.SetCounter("one_shard_matches_unsharded", ok ? 1.0 : 0.0);
  report.SetCounter("rebalance_converged", rebalance_converged ? 1.0 : 0.0);
  report.SetCounter("settlement_conserved", settlement_conserved ? 1.0 : 0.0);

  if (Status status = report.Write(); !status.ok()) {
    std::fprintf(stderr, "report failed: %s\n", status.ToString().c_str());
    return false;
  }
  return ok && deterministic && rebalance_converged && settlement_conserved;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (!WriteShardReport()) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
