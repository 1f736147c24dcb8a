// Multi-enterprise sharding tests: router determinism, 1-shard byte-identity
// with the unsharded run, shard-invariant measures of the N-shard merge,
// replay-verified prosumer migration, the coordinator-level kill matrix
// (crashes during a shard's journal flush and during the coordinator manifest
// write), and overload shedding. Every test runs under the re-base oracle
// (rebase_oracle.h): after each Tick and each migration splice, every
// shard's live state must equal Begin over its members plus Apply of its
// history.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "rebase_oracle.h"
#include "sim/alerts.h"
#include "sim/checkpoint.h"
#include "sim/coordinator.h"
#include "sim/online.h"
#include "sim/shard.h"
#include "sim/workload.h"
#include "util/crc32.h"
#include "util/fault.h"
#include "util/fileio.h"
#include "util/parallel.h"
#include "util/store.h"

namespace flexvis {
namespace {

namespace fs = std::filesystem;
using timeutil::TimeInterval;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

void ExpectReportsEqual(const sim::OnlineReport& a, const sim::OnlineReport& b,
                        const std::string& label) {
  EXPECT_EQ(a.outbox, b.outbox) << label;
  EXPECT_EQ(a.offers_received, b.offers_received) << label;
  EXPECT_EQ(a.accepted, b.accepted) << label;
  EXPECT_EQ(a.rejected, b.rejected) << label;
  EXPECT_EQ(a.assigned, b.assigned) << label;
  EXPECT_EQ(a.missed_acceptance, b.missed_acceptance) << label;
  EXPECT_EQ(a.missed_assignment, b.missed_assignment) << label;
  EXPECT_EQ(a.dropped_ingest, b.dropped_ingest) << label;
  EXPECT_EQ(a.failed_sends, b.failed_sends) << label;
  EXPECT_EQ(a.shed_offers, b.shed_offers) << label;
  EXPECT_EQ(a.queue_high_watermark, b.queue_high_watermark) << label;
  EXPECT_EQ(a.ticks, b.ticks) << label;
  EXPECT_EQ(a.imbalance_kwh, b.imbalance_kwh) << label;  // exact, not near
  ASSERT_EQ(a.offers.size(), b.offers.size()) << label;
  for (size_t i = 0; i < a.offers.size(); ++i) {
    EXPECT_EQ(core::EncodeFlexOffer(a.offers[i]), core::EncodeFlexOffer(b.offers[i]))
        << label << " offer " << i;
  }
}

void ExpectMergedEqual(const sim::MergedOnlineReport& a, const sim::MergedOnlineReport& b,
                       const std::string& label) {
  EXPECT_EQ(a.num_shards, b.num_shards) << label;
  EXPECT_EQ(a.epoch, b.epoch) << label;
  EXPECT_EQ(a.total_offered_kwh, b.total_offered_kwh) << label;
  ExpectReportsEqual(a.global, b.global, label + " (global)");
  ASSERT_EQ(a.shard_reports.size(), b.shard_reports.size()) << label;
  for (size_t s = 0; s < a.shard_reports.size(); ++s) {
    ExpectReportsEqual(a.shard_reports[s], b.shard_reports[s],
                       label + " (shard " + std::to_string(s) + ")");
  }
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetParallelThreadCount(1);
    FaultRegistry::Global().DisarmAll();
    atlas_ = geo::Atlas::MakeDenmark();
    topology_ = grid::GridTopology::MakeRadial(2, 2, 2, 3);
    sim::WorkloadGenerator generator(&atlas_, &topology_);
    sim::WorkloadParams wp;
    wp.seed = 4242;
    wp.num_prosumers = 30;
    wp.offers_per_prosumer = 1.5;
    wp.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
    workload_ = *generator.Generate(wp);
    window_ = wp.horizon;
    online_.tick_minutes = 120;  // 12 ticks over the day

    // Suffix with the pid: ctest runs each test in its own process, possibly
    // in parallel, and a shared fixture root lets one test's SetUp sweep
    // another's live files mid-run.
    root_ = fs::path(::testing::TempDir()) /
            ("flexvis_shard." + std::to_string(::getpid()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }

  void TearDown() override {
    FaultRegistry::Global().DisarmAll();
    SetParallelThreadCount(1);
    // Keep the directory on failure so the divergent journals/manifests can
    // be inspected (and uploaded by CI); pid-suffixed roots never collide.
    if (!HasFailure()) {
      std::error_code ec;
      fs::remove_all(root_, ec);
    }
  }

  std::string Dir(const std::string& name) {
    fs::path dir = root_ / name;
    fs::remove_all(dir);
    return dir.string();
  }

  sim::CoordinatorParams Params(int shards) {
    sim::CoordinatorParams params;
    params.num_shards = shards;
    params.online = online_;
    return params;
  }

  sim::MergedOnlineReport MustRunSharded(int shards) {
    Result<sim::MergedOnlineReport> merged =
        sim::Coordinator::RunSharded(Params(shards), workload_.offers, window_);
    EXPECT_TRUE(merged.ok()) << merged.status().ToString();
    return merged.ok() ? *std::move(merged) : sim::MergedOnlineReport{};
  }

  /// A prosumer none of whose offers have been created by tick
  /// `migrate_after_ticks` — idle everywhere, so it is migration-eligible.
  core::ProsumerId FindIdleProsumer(int migrate_after_ticks) {
    // Tick i ingests offers with creation_time <= window.start + i * tick, so
    // after `migrate_after_ticks` ticks the last ingest happened at tick
    // (migrate_after_ticks - 1).
    TimePoint cutoff =
        window_.start + (migrate_after_ticks - 1) * online_.tick_minutes;
    std::set<core::ProsumerId> all;
    std::set<core::ProsumerId> early;
    for (const core::FlexOffer& offer : workload_.offers) {
      all.insert(offer.prosumer);
      if (offer.creation_time <= cutoff) early.insert(offer.prosumer);
    }
    for (core::ProsumerId p : all) {
      if (early.count(p) == 0) return p;
    }
    return core::kInvalidProsumerId;
  }

  /// One checkpointed sharded run that migrates `prosumer` to `to_shard`
  /// after `migrate_after_ticks` ticks. The shape the kill matrix exercises:
  /// per-tick journal flushes, the two migration flushes, and the
  /// coordinator manifest writes all happen on this path.
  Result<sim::MergedOnlineReport> RunMigrating(
      const std::string& dir, int shards, core::ProsumerId prosumer, int to_shard,
      int migrate_after_ticks, sim::MigrationMode mode = sim::MigrationMode::kIdleOnly) {
    sim::Coordinator coordinator(Params(shards));
    FLEXVIS_RETURN_IF_ERROR(
        coordinator.BeginCheckpointed(workload_.offers, window_, dir));
    for (int i = 0; i < migrate_after_ticks && !coordinator.Done(); ++i) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
    }
    FLEXVIS_RETURN_IF_ERROR(coordinator.MigrateProsumer(prosumer, to_shard, mode));
    while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
    return coordinator.Finish();
  }

  geo::Atlas atlas_;
  grid::GridTopology topology_ = grid::GridTopology::MakeRadial(1, 1, 1, 1);
  sim::Workload workload_;
  TimeInterval window_;
  sim::OnlineParams online_;
  fs::path root_;
  rebase_oracle::ScopedRebaseOracle oracle_;
};

// ---- Router ----------------------------------------------------------------

TEST_F(ShardTest, RouterIsDeterministicAndOrderPreserving) {
  sim::ShardRouter a(4, sim::ShardPolicy::kHash);
  sim::ShardRouter b(4, sim::ShardPolicy::kHash);
  for (const core::FlexOffer& offer : workload_.offers) {
    int shard = a.ShardOf(offer);
    EXPECT_EQ(shard, b.ShardOf(offer));
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, 4);
  }
  std::vector<std::vector<size_t>> partition = a.Partition(workload_.offers);
  size_t total = 0;
  for (const std::vector<size_t>& part : partition) {
    EXPECT_TRUE(std::is_sorted(part.begin(), part.end()));
    total += part.size();
  }
  EXPECT_EQ(total, workload_.offers.size());
}

TEST_F(ShardTest, RegionPolicyKeepsARegionOnOneShard) {
  sim::ShardRouter router(3, sim::ShardPolicy::kRegion);
  std::map<core::RegionId, int> seen;
  for (const core::FlexOffer& offer : workload_.offers) {
    if (offer.region == core::kInvalidRegionId) continue;
    int shard = router.ShardOf(offer);
    auto [it, inserted] = seen.emplace(offer.region, shard);
    EXPECT_EQ(it->second, shard) << "region " << offer.region << " split across shards";
  }
}

TEST_F(ShardTest, OverrideWinsOverPolicyAndRejectsBadShard) {
  sim::ShardRouter router(2, sim::ShardPolicy::kHash);
  const core::FlexOffer& offer = workload_.offers.front();
  int base = router.ShardOf(offer);
  ASSERT_TRUE(router.Assign(offer.prosumer, 1 - base).ok());
  EXPECT_EQ(router.ShardOf(offer), 1 - base);
  EXPECT_EQ(router.Assign(offer.prosumer, 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(router.Assign(offer.prosumer, -1).code(), StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, PolicyNamesRoundTrip) {
  for (sim::ShardPolicy policy : {sim::ShardPolicy::kHash, sim::ShardPolicy::kRegion,
                                  sim::ShardPolicy::kFeeder}) {
    Result<sim::ShardPolicy> parsed =
        sim::ParseShardPolicy(sim::ShardPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_EQ(sim::ParseShardPolicy("bogus").status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ShardTest, ShardsFromEnvParsesAndClamps) {
  ::setenv(sim::kShardsEnvVar, "4", 1);
  EXPECT_EQ(sim::ShardsFromEnv(1), 4);
  ::setenv(sim::kShardsEnvVar, "abc", 1);
  EXPECT_EQ(sim::ShardsFromEnv(3), 3);
  ::setenv(sim::kShardsEnvVar, "0", 1);
  EXPECT_EQ(sim::ShardsFromEnv(3), 3);
  ::setenv(sim::kShardsEnvVar, "65", 1);
  EXPECT_EQ(sim::ShardsFromEnv(3), 3);
  ::unsetenv(sim::kShardsEnvVar);
  EXPECT_EQ(sim::ShardsFromEnv(2), 2);
}

// ---- 1-shard byte-identity -------------------------------------------------

TEST_F(ShardTest, OneShardRunIsByteIdenticalToUnshardedAt1And8Threads) {
  Result<sim::OnlineReport> plain =
      sim::OnlineEnterprise(online_).Run(workload_.offers, window_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    sim::MergedOnlineReport merged = MustRunSharded(1);
    ExpectReportsEqual(*plain, merged.global,
                       "1 shard vs unsharded at " + std::to_string(threads) + "t");
    ASSERT_EQ(merged.shard_reports.size(), 1u);
    ExpectReportsEqual(*plain, merged.shard_reports[0], "shard 0 vs unsharded");
  }
  SetParallelThreadCount(1);
}

// ---- Shard-invariant measures of the N-shard merge --------------------------

TEST_F(ShardTest, MergedReportPreservesShardInvariantMeasuresAt1And8Threads) {
  sim::MergedOnlineReport one = MustRunSharded(1);
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    for (int shards : {2, 8}) {
      sim::MergedOnlineReport many = MustRunSharded(shards);
      const std::string label =
          std::to_string(shards) + " shards at " + std::to_string(threads) + "t";
      // Total offered energy is summed over the input order — bit-identical.
      EXPECT_EQ(many.total_offered_kwh, one.total_offered_kwh) << label;
      // Ingest and acceptance depend only on each offer's own deadlines and
      // the (shared) tick grid, so the merged counters are shard-invariant.
      EXPECT_EQ(many.global.offers_received, one.global.offers_received) << label;
      EXPECT_EQ(many.global.accepted, one.global.accepted) << label;
      EXPECT_EQ(many.global.rejected, one.global.rejected) << label;
      EXPECT_EQ(many.global.missed_acceptance, one.global.missed_acceptance) << label;
      EXPECT_EQ(many.global.ticks, one.global.ticks) << label;
      // The merge loses nothing: every input offer comes back exactly once,
      // in the global input order.
      ASSERT_EQ(many.global.offers.size(), workload_.offers.size()) << label;
      for (size_t i = 0; i < many.global.offers.size(); ++i) {
        EXPECT_EQ(many.global.offers[i].id, workload_.offers[i].id) << label;
      }
      // Counters merge as sums over the per-shard reports.
      int received = 0;
      for (const sim::OnlineReport& r : many.shard_reports) received += r.offers_received;
      EXPECT_EQ(received, many.global.offers_received) << label;
    }
  }
  SetParallelThreadCount(1);
}

TEST_F(ShardTest, OfflinePlanShardedMatchesUnshardedAtOneShardAndConserves) {
  sim::EnterpriseParams params;
  Result<sim::PlanningReport> plain =
      sim::Enterprise(params).PlanHorizon(workload_.offers, window_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  Result<sim::MergedPlanningReport> one = sim::PlanHorizonSharded(
      params, 1, sim::ShardPolicy::kHash, workload_.offers, window_);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->global.offers_in, plain->offers_in);
  EXPECT_EQ(one->global.aggregates_built, plain->aggregates_built);
  EXPECT_EQ(one->global.imbalance_after_kwh, plain->imbalance_after_kwh);
  EXPECT_EQ(one->global.planned_flexible_load, plain->planned_flexible_load);
  EXPECT_EQ(one->global.settlement.total_cost_eur, plain->settlement.total_cost_eur);
  ASSERT_EQ(one->global.member_offers.size(), plain->member_offers.size());
  for (size_t i = 0; i < plain->member_offers.size(); ++i) {
    EXPECT_EQ(core::EncodeFlexOffer(one->global.member_offers[i]),
              core::EncodeFlexOffer(plain->member_offers[i]));
  }

  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    Result<sim::MergedPlanningReport> many = sim::PlanHorizonSharded(
        params, 8, sim::ShardPolicy::kHash, workload_.offers, window_);
    ASSERT_TRUE(many.ok()) << many.status().ToString();
    const std::string label = "8 shards at " + std::to_string(threads) + "t";
    // Shard-invariant total (summed over the input order).
    EXPECT_EQ(many->total_offered_kwh, one->total_offered_kwh) << label;
    // Every input offer is planned by exactly one shard.
    int offers_in = 0;
    for (const sim::PlanningReport& r : many->shard_reports) offers_in += r.offers_in;
    EXPECT_EQ(offers_in, many->global.offers_in) << label;
    EXPECT_EQ(many->global.offers_in, plain->offers_in) << label;
    // Settlement conservation: the merged totals obey the same identity every
    // per-shard settlement obeys.
    EXPECT_NEAR(many->global.settlement.total_cost_eur,
                many->global.settlement.spot_cost_eur +
                    many->global.settlement.imbalance_cost_eur,
                1e-6)
        << label;
    // Clean runs degrade nowhere, at any shard count.
    EXPECT_TRUE(many->global.degraded_stages.empty()) << label;
  }
  SetParallelThreadCount(1);
}

TEST_F(ShardTest, DegradedStageUnionIsDeduplicatedAcrossShards) {
  // Arm the forecast seam in every shard (the registries are built inside
  // PlanHorizonSharded, so the env hook is the way in): each shard degrades
  // to planning on actuals, and the merged union names the stage once.
  sim::EnterpriseParams params;
  params.plan_on_forecast = true;  // the forecast seam only fires when used
  ::setenv("FLEXVIS_FAULTS", "sim.enterprise.forecast:1.0", 1);
  Result<sim::MergedPlanningReport> many = sim::PlanHorizonSharded(
      params, 4, sim::ShardPolicy::kHash, workload_.offers, window_);
  ::unsetenv("FLEXVIS_FAULTS");
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  int degraded_shards = 0;
  for (const sim::PlanningReport& r : many->shard_reports) {
    if (!r.degraded_stages.empty()) ++degraded_shards;
  }
  EXPECT_GT(degraded_shards, 1);
  EXPECT_EQ(many->global.degraded_stages,
            std::vector<std::string>{"sim.enterprise.forecast"});
}

// ---- Migration -------------------------------------------------------------

TEST_F(ShardTest, MigrationMidRunEqualsMigrationAtBeginAt1And8Threads) {
  const int kMigrateAfter = 3;
  core::ProsumerId prosumer = FindIdleProsumer(kMigrateAfter);
  ASSERT_NE(prosumer, core::kInvalidProsumerId)
      << "workload has no prosumer idle through tick " << kMigrateAfter;

  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    const std::string label = std::to_string(threads) + " threads";

    auto run = [&](int migrate_after) -> sim::MergedOnlineReport {
      sim::Coordinator coordinator(Params(2));
      EXPECT_TRUE(coordinator.Begin(workload_.offers, window_).ok());
      for (int i = 0; i < migrate_after; ++i) {
        EXPECT_TRUE(coordinator.Tick().ok());
      }
      int from = coordinator.router().ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                                      core::kInvalidGridNodeId);
      Status migrated = coordinator.MigrateProsumer(prosumer, 1 - from);
      EXPECT_TRUE(migrated.ok()) << migrated.ToString();
      EXPECT_EQ(coordinator.epoch(), 1);
      while (!coordinator.Done()) EXPECT_TRUE(coordinator.Tick().ok());
      Result<sim::MergedOnlineReport> merged = coordinator.Finish();
      EXPECT_TRUE(merged.ok()) << merged.status().ToString();
      return merged.ok() ? *std::move(merged) : sim::MergedOnlineReport{};
    };

    // An idle prosumer's history is empty in both shards, so moving it
    // mid-run must be indistinguishable from having moved it up front.
    sim::MergedOnlineReport at_begin = run(0);
    sim::MergedOnlineReport mid_run = run(kMigrateAfter);
    ExpectMergedEqual(at_begin, mid_run, "migrate at begin vs mid-run, " + label);
  }
  SetParallelThreadCount(1);
}

TEST_F(ShardTest, MigrationOfActiveProsumerIsFailedPrecondition) {
  sim::Coordinator coordinator(Params(2));
  ASSERT_TRUE(coordinator.Begin(workload_.offers, window_).ok());
  // Run far enough that some offers have certainly been ingested.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(coordinator.Tick().ok());

  // The earliest-created offer's prosumer is active by now.
  const core::FlexOffer* earliest = &workload_.offers.front();
  for (const core::FlexOffer& offer : workload_.offers) {
    if (offer.creation_time < earliest->creation_time) earliest = &offer;
  }
  int from = coordinator.router().ShardOf(*earliest);
  Status status = coordinator.MigrateProsumer(earliest->prosumer, 1 - from);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status.ToString();
  EXPECT_EQ(coordinator.epoch(), 0);  // nothing committed

  // Bogus arguments are typed errors, not crashes.
  EXPECT_EQ(coordinator.MigrateProsumer(999999999, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(coordinator.MigrateProsumer(earliest->prosumer, 7).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(coordinator.MigrateProsumer(earliest->prosumer, from).code(),
            StatusCode::kInvalidArgument);

  while (!coordinator.Done()) ASSERT_TRUE(coordinator.Tick().ok());
  Result<sim::MergedOnlineReport> merged = coordinator.Finish();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->epoch, 0);
}

TEST_F(ShardTest, ResumeOfCompletedMigratedRunReplaysTheMigration) {
  const int kMigrateAfter = 3;
  core::ProsumerId prosumer = FindIdleProsumer(kMigrateAfter);
  ASSERT_NE(prosumer, core::kInvalidProsumerId);
  sim::ShardRouter router(2, sim::ShardPolicy::kHash);
  int from = router.ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                    core::kInvalidGridNodeId);

  std::string dir = Dir("migrated_resume");
  Result<sim::MergedOnlineReport> baseline =
      RunMigrating(dir, 2, prosumer, 1 - from, kMigrateAfter);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->epoch, 1);

  sim::ShardResumeInfo info;
  Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir, &info);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(info.migrations_replayed, 1);
  EXPECT_EQ(info.migrations_repaired, 0);
  EXPECT_FALSE(info.manifest_rewritten);
  ASSERT_EQ(info.shards.size(), 2u);
  for (const sim::ResumeInfo& shard : info.shards) {
    EXPECT_EQ(shard.ticks_replayed, baseline->global.ticks);
    EXPECT_EQ(shard.ticks_continued, 0);
    EXPECT_FALSE(shard.torn_tail);
  }
  ExpectMergedEqual(*baseline, *resumed, "resume of completed migrated run");
}

// ---- Coordinator kill matrix ------------------------------------------------

TEST_F(ShardTest, CoordinatorKillMatrixConvergesToAConsistentEpoch) {
  const int kShards = 2;
  const int kMigrateAfter = 3;
  core::ProsumerId prosumer = FindIdleProsumer(kMigrateAfter);
  ASSERT_NE(prosumer, core::kInvalidProsumerId);
  sim::ShardRouter router(kShards, sim::ShardPolicy::kHash);
  const int from = router.ShardOfProsumer(prosumer, core::kInvalidRegionId,
                                          core::kInvalidGridNodeId);
  const int to = 1 - from;

  // Two legitimate recovery outcomes, decided by whether the migration's
  // migrate_out reached its journal before the crash: the migrated run
  // (epoch 1) or the untouched run (epoch 0). Anything else — a half-applied
  // migration, a shard at the wrong tick — is a bug.
  Result<sim::MergedOnlineReport> migrated =
      RunMigrating(Dir("kill_base_mig"), kShards, prosumer, to, kMigrateAfter);
  ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
  Result<sim::MergedOnlineReport> plain = sim::Coordinator::RunShardedCheckpointed(
      Params(kShards), workload_.offers, window_, Dir("kill_base_plain"));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_GT(migrated->global.ticks, 0);

  // The crash points on the coordinator's write path: "util.journal.flush"
  // covers every shard's per-tick flush plus the two migration flushes;
  // "util.fileio.write" covers the shard snapshots and every COORDINATOR.json
  // manifest write (at Begin and after the migration commits).
  for (const char* point : {"util.journal.flush", "util.fileio.write"}) {
    // Count the hits of one clean run by arming a never-failing config.
    FaultRegistry::Global().Arm(point, FaultConfig{});
    ASSERT_TRUE(
        RunMigrating(Dir("count"), kShards, prosumer, to, kMigrateAfter).ok());
    const int64_t hits = FaultRegistry::Global().Stats(point).hits;
    FaultRegistry::Global().DisarmAll();
    ASSERT_GT(hits, 0) << point << " is not on the coordinator write path";

    for (int64_t hit = 1; hit <= hits; ++hit) {
      const std::string label =
          std::string(point) + " hit " + std::to_string(hit) + "/" + std::to_string(hits);
      std::string dir = Dir("kill_" + std::to_string(hit) + point);

      pid_t pid = fork();
      if (pid == 0) {
        FaultConfig config;
        config.crash_at_hit = hit;
        FaultRegistry::Global().Arm(point, config);
        Result<sim::MergedOnlineReport> report =
            RunMigrating(dir, kShards, prosumer, to, kMigrateAfter);
        std::_Exit(report.ok() ? 0 : 1);
      }
      ASSERT_GT(pid, 0) << "fork failed";
      int wstatus = 0;
      ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus));
      ASSERT_EQ(WEXITSTATUS(wstatus), kCrashExitCode)
          << label << ": child did not crash where told to";

      sim::ShardResumeInfo info;
      Result<sim::MergedOnlineReport> recovered =
          sim::Coordinator::ResumeSharded(dir, &info);
      if (!recovered.ok() && recovered.status().code() == StatusCode::kDataLoss) {
        // The run never committed (crash before the coordinator manifest):
        // nothing was promised; rerun from inputs.
        recovered = RunMigrating(dir, kShards, prosumer, to, kMigrateAfter);
        ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();
        ExpectMergedEqual(*migrated, *recovered, label + " (rerun)");
        continue;
      }
      ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();

      // All shards resumed to one consistent epoch, and the whole run matches
      // the baseline of whichever epoch recovery converged to.
      if (recovered->epoch == 1) {
        EXPECT_EQ(info.migrations_replayed + info.migrations_repaired, 1) << label;
        ExpectMergedEqual(*migrated, *recovered, label + " (migrated baseline)");
      } else {
        EXPECT_EQ(recovered->epoch, 0) << label;
        ExpectMergedEqual(*plain, *recovered, label + " (plain baseline)");
      }

      // After recovery the journals are whole: a second resume replays
      // everything and re-executes nothing.
      sim::ShardResumeInfo again;
      Result<sim::MergedOnlineReport> second =
          sim::Coordinator::ResumeSharded(dir, &again);
      ASSERT_TRUE(second.ok()) << label << ": " << second.status().ToString();
      for (const sim::ResumeInfo& shard : again.shards) {
        EXPECT_EQ(shard.ticks_replayed, recovered->global.ticks) << label;
        EXPECT_EQ(shard.ticks_continued, 0) << label;
      }
      ExpectMergedEqual(*recovered, *second, label + " (second resume)");
    }
  }
}

TEST_F(ShardTest, ActiveMigrationKillMatrixConvergesToAConsistentEpoch) {
  const int kShards = 2;
  const int kMigrateAfter = 6;
  sim::ShardRouter router(kShards, sim::ShardPolicy::kHash);
  auto shard_of = [&](core::ProsumerId prosumer) {
    return router.ShardOfProsumer(prosumer, core::kInvalidRegionId, core::kInvalidGridNodeId);
  };
  // The prosumer owning the earliest-created offer (on shard `on`, or on
  // any shard when `on` is negative): certainly active (mid-flight state to
  // transfer) by tick 6. Its migrate_out/migrate_in records carry the
  // consumed-offer payload the recovery splice rebuilds from.
  auto earliest_prosumer = [&](int on) {
    const core::FlexOffer* earliest = nullptr;
    for (const core::FlexOffer& offer : workload_.offers) {
      if (on >= 0 && shard_of(offer.prosumer) != on) continue;
      if (earliest == nullptr || offer.creation_time < earliest->creation_time) {
        earliest = &offer;
      }
    }
    return earliest->prosumer;
  };
  struct Input {
    int compact_ticks;
    core::ProsumerId prosumer;
    std::vector<const char*> points;
  };
  const Input inputs[] = {
      {0, earliest_prosumer(-1), {"util.journal.flush", "util.fileio.write"}},
      // Shards fold in index order, so moving a shard-1 prosumer to shard 0
      // lets a crash inside the tick-8 compaction leave a migrate_out whose
      // migrate_in was already compacted away: recovery re-bases the source
      // alone.
      {4,
       earliest_prosumer(1),
       {"util.journal.flush", "util.fileio.write", "util.store.compact", "util.store.delete"}},
  };

  for (const Input& input : inputs) {
    SCOPED_TRACE("compact_ticks " + std::to_string(input.compact_ticks));
    online_.compact_ticks = input.compact_ticks;
    const core::ProsumerId prosumer = input.prosumer;
    const int from = shard_of(prosumer);
    const int to = 1 - from;

    auto run = [&](const std::string& dir) {
      return RunMigrating(dir, kShards, prosumer, to, kMigrateAfter,
                          sim::MigrationMode::kAllowActive);
    };
    // Same two-outcome contract as the idle-migration matrix — the transferred
    // mid-flight state must not add a third.
    Result<sim::MergedOnlineReport> migrated = run(Dir("akill_base_mig"));
    ASSERT_TRUE(migrated.ok()) << migrated.status().ToString();
    ASSERT_EQ(migrated->epoch, 1);
    Result<sim::MergedOnlineReport> plain = sim::Coordinator::RunShardedCheckpointed(
        Params(kShards), workload_.offers, window_, Dir("akill_base_plain"));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();

    for (const char* point : input.points) {
      FaultRegistry::Global().Arm(point, FaultConfig{});
      ASSERT_TRUE(run(Dir("acount")).ok());
      const int64_t hits = FaultRegistry::Global().Stats(point).hits;
      FaultRegistry::Global().DisarmAll();
      ASSERT_GT(hits, 0) << point << " is not on the active-migration write path";

      for (int64_t hit = 1; hit <= hits; ++hit) {
        const std::string label =
            std::string(point) + " hit " + std::to_string(hit) + "/" + std::to_string(hits);
        std::string dir = Dir("akill_" + std::to_string(hit) + point);

        pid_t pid = fork();
        if (pid == 0) {
          FaultConfig config;
          config.crash_at_hit = hit;
          FaultRegistry::Global().Arm(point, config);
          Result<sim::MergedOnlineReport> report = run(dir);
          std::_Exit(report.ok() ? 0 : 1);
        }
        ASSERT_GT(pid, 0) << "fork failed";
        int wstatus = 0;
        ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
        ASSERT_TRUE(WIFEXITED(wstatus));
        ASSERT_EQ(WEXITSTATUS(wstatus), kCrashExitCode)
            << label << ": child did not crash where told to";

        sim::ShardResumeInfo info;
        Result<sim::MergedOnlineReport> recovered =
            sim::Coordinator::ResumeSharded(dir, &info);
        if (!recovered.ok() && recovered.status().code() == StatusCode::kDataLoss) {
          recovered = run(dir);  // never committed; rerun from inputs
          ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();
          ExpectMergedEqual(*migrated, *recovered, label + " (rerun)");
          continue;
        }
        ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();

        if (recovered->epoch == 1) {
          if (input.compact_ticks == 0) {
            EXPECT_EQ(info.migrations_replayed + info.migrations_repaired, 1) << label;
          } else {  // compaction may have folded both records into the snapshots
            EXPECT_LE(info.migrations_replayed + info.migrations_repaired, 1) << label;
          }
          ExpectMergedEqual(*migrated, *recovered, label + " (migrated baseline)");
        } else {
          EXPECT_EQ(recovered->epoch, 0) << label;
          ExpectMergedEqual(*plain, *recovered, label + " (plain baseline)");
        }

        sim::ShardResumeInfo again;
        Result<sim::MergedOnlineReport> second =
            sim::Coordinator::ResumeSharded(dir, &again);
        ASSERT_TRUE(second.ok()) << label << ": " << second.status().ToString();
        for (const sim::ResumeInfo& shard : again.shards) {
          EXPECT_EQ(shard.ticks_folded + shard.ticks_replayed, recovered->global.ticks) << label;
          EXPECT_EQ(shard.ticks_continued, 0) << label;
        }
        ExpectMergedEqual(*recovered, *second, label + " (second resume)");
      }
    }
  }
}

TEST_F(ShardTest, CompactionKillMatrixConvergesAt4Shards) {
  const int kShards = 4;
  sim::CoordinatorParams params = Params(kShards);
  params.online.tick_minutes = 240;  // 6 global ticks over the day
  params.online.compact_ticks = 4;   // one compaction after tick 3, 2 ticks left in the WALs

  auto run = [&](const std::string& dir) {
    return sim::Coordinator::RunShardedCheckpointed(params, workload_.offers, window_, dir);
  };
  Result<sim::MergedOnlineReport> baseline = run(Dir("ckill_base"));
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_GT(baseline->global.ticks, 0);

  // Compaction is transparent: byte-identical to a run that never compacts.
  {
    sim::CoordinatorParams flat = params;
    flat.online.compact_ticks = 0;
    Result<sim::MergedOnlineReport> plain = sim::Coordinator::RunShardedCheckpointed(
        flat, workload_.offers, window_, Dir("ckill_flat"));
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ExpectMergedEqual(*plain, *baseline, "sharded compaction transparency");
  }

  // Crash at every consulted point, including the two compaction-specific
  // ones (before each shard's fold starts, before its old generation is
  // deleted) and every atomic write inside the fold.
  for (const char* point : {"util.fileio.write", "util.journal.append",
                            "util.journal.flush", "util.store.compact",
                            "util.store.delete"}) {
    FaultRegistry::Global().Arm(point, FaultConfig{});
    ASSERT_TRUE(run(Dir("ckill_count")).ok());
    const int64_t hits = FaultRegistry::Global().Stats(point).hits;
    FaultRegistry::Global().DisarmAll();
    ASSERT_GT(hits, 0) << point << " is not on the compacting sharded write path";

    for (int64_t hit = 1; hit <= hits; ++hit) {
      const std::string label =
          std::string(point) + " hit " + std::to_string(hit) + "/" + std::to_string(hits);
      std::string dir = Dir("ckill_" + std::to_string(hit) + point);

      pid_t pid = fork();
      if (pid == 0) {
        FaultConfig config;
        config.crash_at_hit = hit;
        FaultRegistry::Global().Arm(point, config);
        Result<sim::MergedOnlineReport> report = run(dir);
        std::_Exit(report.ok() ? 0 : 1);
      }
      ASSERT_GT(pid, 0) << "fork failed";
      int wstatus = 0;
      ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus));
      ASSERT_EQ(WEXITSTATUS(wstatus), kCrashExitCode)
          << label << ": child did not crash where told to";

      Result<sim::MergedOnlineReport> recovered = sim::Coordinator::ResumeSharded(dir);
      if (!recovered.ok() && recovered.status().code() == StatusCode::kDataLoss) {
        recovered = run(dir);  // never committed; rerun from inputs
        ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();
        ExpectMergedEqual(*baseline, *recovered, label + " (rerun)");
        continue;
      }
      ASSERT_TRUE(recovered.ok()) << label << ": " << recovered.status().ToString();
      ExpectMergedEqual(*baseline, *recovered, label);

      // The recovery finished (or re-executed) every compaction, so a second
      // resume folds everything up to the boundary and replays at most
      // compact_ticks records per shard — the bounded-replay guarantee.
      sim::ShardResumeInfo again;
      Result<sim::MergedOnlineReport> second = sim::Coordinator::ResumeSharded(dir, &again);
      ASSERT_TRUE(second.ok()) << label << ": " << second.status().ToString();
      for (const sim::ResumeInfo& shard : again.shards) {
        EXPECT_EQ(shard.ticks_folded + shard.ticks_replayed, baseline->global.ticks)
            << label;
        EXPECT_EQ(shard.ticks_continued, 0) << label;
        EXPECT_LE(shard.ticks_replayed, params.online.compact_ticks) << label;
        EXPECT_EQ(shard.generation, 1) << label;
      }
      ExpectMergedEqual(*baseline, *second, label + " (second resume)");
    }
  }
}

// ---- Compaction carries unchanged shard snapshots ---------------------------

/// The inode behind `path` (0 when it cannot be stat'ed).
ino_t InodeOf(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0 ? info.st_ino : 0;
}

/// Shard `s`'s store file `logical` at `generation` under run directory
/// `dir` (topology 0).
std::string ShardFile(const std::string& dir, int s, const char* logical, int64_t generation) {
  char shard[32];
  std::snprintf(shard, sizeof(shard), "%s%04d", sim::kShardDirPrefix, s);
  return (fs::path(dir) / shard / DurableStore::GenerationFileName(logical, generation)).string();
}

/// CRC-32 of every file under `dir`, by path relative to it.
std::map<std::string, uint32_t> CrcListing(const std::string& dir) {
  std::map<std::string, uint32_t> listing;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    Result<std::string> bytes = ReadFileToString(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << entry.path();
    listing[fs::relative(entry.path(), dir).string()] = bytes.ok() ? Crc32(*bytes) : 0;
  }
  return listing;
}

std::string ListingText(const std::map<std::string, uint32_t>& listing) {
  std::string text;
  for (const auto& [name, crc] : listing) {
    char line[160];
    std::snprintf(line, sizeof(line), "      {\"%s\", 0x%08xu},\n", name.c_str(), crc);
    text += line;
  }
  return text;
}

/// The prosumer owning the earliest-created offer: active (mid-flight
/// state to move) from the first tick on.
core::ProsumerId EarliestProsumer(const std::vector<core::FlexOffer>& offers) {
  const core::FlexOffer* earliest = &offers.front();
  for (const core::FlexOffer& offer : offers) {
    if (offer.creation_time < earliest->creation_time) earliest = &offer;
  }
  return earliest->prosumer;
}

/// Shard `s`'s members in global input order once `prosumer` moved to `to`.
std::vector<core::FlexOffer> MembersAfterMove(const std::vector<core::FlexOffer>& offers,
                                              int shards, core::ProsumerId prosumer, int to,
                                              int s) {
  sim::ShardRouter router(shards, sim::ShardPolicy::kHash);
  EXPECT_TRUE(router.Assign(prosumer, to).ok());
  std::vector<core::FlexOffer> members;
  for (const core::FlexOffer& offer : offers) {
    if (router.ShardOf(offer) == s) members.push_back(offer);
  }
  return members;
}

TEST_F(ShardTest, CompactionRewritesOffersOnlyOnTheShardsAMigrationTouched) {
  const int kShards = 4;
  sim::CoordinatorParams params = Params(kShards);
  params.online.compact_ticks = 4;  // boundaries after ticks 3, 7 and 11
  const core::ProsumerId prosumer = EarliestProsumer(workload_.offers);
  sim::ShardRouter router(kShards, sim::ShardPolicy::kHash);
  const int from =
      router.ShardOfProsumer(prosumer, core::kInvalidRegionId, core::kInvalidGridNodeId);
  const int to = (from + 1) % kShards;
  const std::string dir = Dir("carry");

  sim::Coordinator coordinator(params);
  ASSERT_TRUE(coordinator.BeginCheckpointed(workload_.offers, window_, dir).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(coordinator.Tick().ok());
  // A side link per shard keeps each generation-1 inode allocated, so no
  // later file can reuse its number.
  for (int s = 0; s < kShards; ++s) {
    fs::create_hard_link(ShardFile(dir, s, sim::kCheckpointOffersFile, 1),
                         root_ / ("carry_g1." + std::to_string(s)));
  }
  auto g1_inode = [&](int s) {
    return InodeOf((root_ / ("carry_g1." + std::to_string(s))).string());
  };

  // An active migration between the boundaries after ticks 3 and 7.
  ASSERT_TRUE(coordinator.Tick().ok());
  ASSERT_TRUE(coordinator.MigrateProsumer(prosumer, to, sim::MigrationMode::kAllowActive).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(coordinator.Tick().ok());
  for (int s = 0; s < kShards; ++s) {
    const std::string offers = ShardFile(dir, s, sim::kCheckpointOffersFile, 2);
    if (s == from || s == to) {
      EXPECT_NE(InodeOf(offers), g1_inode(s)) << "shard " << s;
      Result<std::string> bytes = ReadFileToString(offers);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      const std::string members =
          core::EncodeFlexOfferLines(MembersAfterMove(workload_.offers, kShards, prosumer, to, s));
      EXPECT_EQ(*bytes, members) << "shard " << s;
      fs::create_hard_link(offers, root_ / ("carry_g2." + std::to_string(s)));
    } else {
      EXPECT_EQ(InodeOf(offers), g1_inode(s)) << "shard " << s;
    }
  }

  // The next boundary finds every shard clean again: all four carry.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(coordinator.Tick().ok());
  for (int s = 0; s < kShards; ++s) {
    const char* side = s == from || s == to ? "carry_g2." : "carry_g1.";
    const ino_t kept = InodeOf((root_ / (side + std::to_string(s))).string());
    EXPECT_EQ(InodeOf(ShardFile(dir, s, sim::kCheckpointOffersFile, 3)), kept) << "shard " << s;
  }
  ASSERT_TRUE(coordinator.Done());
  Result<sim::MergedOnlineReport> carried = coordinator.Finish();
  ASSERT_TRUE(carried.ok()) << carried.status().ToString();
  EXPECT_EQ(carried->epoch, 1);

  // Carrying is invisible to the run: it ends where a never-compacting run
  // with the same migration ends.
  params.online.compact_ticks = 0;
  sim::Coordinator flat(params);
  ASSERT_TRUE(flat.BeginCheckpointed(workload_.offers, window_, Dir("carry_flat")).ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(flat.Tick().ok());
  ASSERT_TRUE(flat.MigrateProsumer(prosumer, to, sim::MigrationMode::kAllowActive).ok());
  while (!flat.Done()) ASSERT_TRUE(flat.Tick().ok());
  Result<sim::MergedOnlineReport> plain = flat.Finish();
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ExpectMergedEqual(*plain, *carried, "carrying compaction vs no compaction");
}

TEST_F(ShardTest, FirstCompactionAfterResumeCarriesTheUntouchedShards) {
  const int kShards = 4;
  sim::CoordinatorParams params = Params(kShards);
  params.online.compact_ticks = 4;
  const core::ProsumerId prosumer = EarliestProsumer(workload_.offers);
  sim::ShardRouter router(kShards, sim::ShardPolicy::kHash);
  const int from =
      router.ShardOfProsumer(prosumer, core::kInvalidRegionId, core::kInvalidGridNodeId);
  const int to = (from + 1) % kShards;
  const std::string dir = Dir("resume_carry");
  {
    // Cut after tick 5, off a boundary: generation 1 holds ticks 0-3, the
    // WALs ticks 4-5 and the migration records.
    sim::Coordinator cut(params);
    ASSERT_TRUE(cut.BeginCheckpointed(workload_.offers, window_, dir).ok());
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(cut.Tick().ok());
    ASSERT_TRUE(cut.MigrateProsumer(prosumer, to, sim::MigrationMode::kAllowActive).ok());
    ASSERT_TRUE(cut.Tick().ok());
  }
  for (int s = 0; s < kShards; ++s) {
    fs::create_hard_link(ShardFile(dir, s, sim::kCheckpointOffersFile, 1),
                         root_ / ("resume_g1." + std::to_string(s)));
  }

  sim::ShardResumeInfo info;
  Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir, &info);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(info.migrations_replayed, 1);
  // Two boundaries ran after the resume (after ticks 7 and 11). The replayed
  // migration made its two shards rewrite offers.jsonl at the first; every
  // other shard carried its generation-1 file through both.
  for (int s = 0; s < kShards; ++s) {
    EXPECT_EQ(info.shards[static_cast<size_t>(s)].generation, 1) << "shard " << s;
    const std::string offers = ShardFile(dir, s, sim::kCheckpointOffersFile, 3);
    const ino_t g1 = InodeOf((root_ / ("resume_g1." + std::to_string(s))).string());
    if (s == from || s == to) {
      EXPECT_NE(InodeOf(offers), g1) << "shard " << s;
      Result<std::string> bytes = ReadFileToString(offers);
      ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
      const std::string members =
          core::EncodeFlexOfferLines(MembersAfterMove(workload_.offers, kShards, prosumer, to, s));
      EXPECT_EQ(*bytes, members) << "shard " << s;
    } else {
      EXPECT_EQ(InodeOf(offers), g1) << "shard " << s;
    }
  }

  // And the resumed run is the uninterrupted one, down to the bytes it
  // leaves on disk.
  const std::string whole_dir = Dir("resume_whole");
  sim::Coordinator whole(params);
  ASSERT_TRUE(whole.BeginCheckpointed(workload_.offers, window_, whole_dir).ok());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(whole.Tick().ok());
  ASSERT_TRUE(whole.MigrateProsumer(prosumer, to, sim::MigrationMode::kAllowActive).ok());
  while (!whole.Done()) ASSERT_TRUE(whole.Tick().ok());
  Result<sim::MergedOnlineReport> uninterrupted = whole.Finish();
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().ToString();
  ExpectMergedEqual(*uninterrupted, *resumed, "resumed vs uninterrupted");
  EXPECT_EQ(CrcListing(dir), CrcListing(whole_dir));
}

// ---- In-place splice ----------------------------------------------------------

TEST_F(ShardTest, SpliceEqualsTheRebaseAtEveryMigrationAt1And8Threads) {
  // Active and idle prosumers move in every direction between 4 shards at
  // several ticks. The installed oracle re-bases every shard after each
  // tick and each splice, and again after each splice the resume replays.
  const int kShards = 4;
  std::set<core::ProsumerId> prosumers;
  for (const core::FlexOffer& offer : workload_.offers) prosumers.insert(offer.prosumer);
  std::optional<sim::MergedOnlineReport> first;
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    const std::string label = std::to_string(threads) + " threads";
    const std::string dir = Dir("splice_oracle_" + std::to_string(threads));
    sim::Coordinator coordinator(Params(kShards));
    ASSERT_TRUE(coordinator.BeginCheckpointed(workload_.offers, window_, dir).ok());
    const int64_t checks_before = rebase_oracle::ChecksRun();
    int ticks = 0;
    int moves = 0;
    int active_moves = 0;
    auto next = prosumers.begin();
    while (!coordinator.Done()) {
      ASSERT_TRUE(coordinator.Tick().ok()) << label;
      ++ticks;
      if (ticks % 2 != 0) continue;
      for (int k = 0; k < 3; ++k, ++next) {
        if (next == prosumers.end()) next = prosumers.begin();
        core::ProsumerId prosumer = *next;
        int from = -1;
        for (const core::FlexOffer& offer : workload_.offers) {
          if (offer.prosumer == prosumer) from = coordinator.router().ShardOf(offer);
        }
        const int to = (from + 1 + k) % kShards;
        const bool idle =
            coordinator.MigrateProsumer(prosumer, to, sim::MigrationMode::kIdleOnly).ok();
        Status status =
            idle ? OkStatus()
                 : coordinator.MigrateProsumer(prosumer, to, sim::MigrationMode::kAllowActive);
        if (status.code() == StatusCode::kFailedPrecondition) continue;  // backlog skew
        ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();
        ++moves;
        if (!idle) ++active_moves;
      }
    }
    EXPECT_GE(moves, 8) << label;
    EXPECT_GE(active_moves, 4) << label;
    EXPECT_GE(rebase_oracle::ChecksRun() - checks_before, ticks + moves) << label;
    Result<sim::MergedOnlineReport> merged = coordinator.Finish();
    ASSERT_TRUE(merged.ok()) << label << ": " << merged.status().ToString();
    EXPECT_EQ(merged->epoch, moves) << label;
    if (!first.has_value()) first = *merged;
    ExpectMergedEqual(*first, *merged, label + " vs 1 thread");

    const int64_t checks_before_resume = rebase_oracle::ChecksRun();
    sim::ShardResumeInfo info;
    Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir, &info);
    ASSERT_TRUE(resumed.ok()) << label << ": " << resumed.status().ToString();
    EXPECT_EQ(info.migrations_replayed, moves) << label;
    EXPECT_GE(rebase_oracle::ChecksRun() - checks_before_resume, moves) << label;
    ExpectMergedEqual(*merged, *resumed, label + " resumed");
  }
  SetParallelThreadCount(1);
}

TEST_F(ShardTest, RefusedMigrationLeavesBothShardsAsTheyWere) {
  // A one-arrival ingest budget leaves every shard a backlog, so moving a
  // consumed offer would land it behind the target's unconsumed arrivals:
  // the splice refuses. A refused move must change no live state, no
  // history, no file and no epoch.
  online_.max_ingest_per_tick = 1;
  const std::string dir = Dir("refused");
  sim::Coordinator coordinator(Params(2));
  ASSERT_TRUE(coordinator.BeginCheckpointed(workload_.offers, window_, dir).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(coordinator.Tick().ok());
  std::set<core::ProsumerId> prosumers;
  for (const core::FlexOffer& offer : workload_.offers) prosumers.insert(offer.prosumer);
  int refused = 0;
  for (core::ProsumerId prosumer : prosumers) {
    int from = -1;
    for (const core::FlexOffer& offer : workload_.offers) {
      if (offer.prosumer == prosumer) from = coordinator.router().ShardOf(offer);
    }
    std::vector<sim::OnlineLoopState> states;
    std::vector<std::string> histories;
    for (int s = 0; s < 2; ++s) {
      states.push_back(coordinator.shard_state(s));
      histories.push_back(sim::EncodeTickRecord(coordinator.shard_history(s)));
    }
    const std::map<std::string, uint32_t> files = CrcListing(dir);
    const int64_t epoch = coordinator.epoch();
    Status status =
        coordinator.MigrateProsumer(prosumer, 1 - from, sim::MigrationMode::kAllowActive);
    if (status.ok()) continue;
    ASSERT_EQ(status.code(), StatusCode::kFailedPrecondition) << status.ToString();
    EXPECT_NE(status.message().find("ingest-backlog skew"), std::string::npos)
        << status.ToString();
    ++refused;
    for (int s = 0; s < 2; ++s) {
      EXPECT_EQ(rebase_oracle::FirstDifference(coordinator.shard_state(s),
                                               states[static_cast<size_t>(s)]),
                "")
          << "prosumer " << prosumer << " shard " << s;
      EXPECT_EQ(sim::EncodeTickRecord(coordinator.shard_history(s)),
                histories[static_cast<size_t>(s)])
          << "prosumer " << prosumer << " shard " << s;
    }
    EXPECT_EQ(CrcListing(dir), files) << "prosumer " << prosumer;
    EXPECT_EQ(coordinator.epoch(), epoch) << "prosumer " << prosumer;
  }
  EXPECT_GE(refused, 1) << "no move met ingest-backlog skew";
  while (!coordinator.Done()) ASSERT_TRUE(coordinator.Tick().ok());
  ASSERT_TRUE(coordinator.Finish().ok());
}

TEST_F(ShardTest, CheckpointDirectoryBytesArePinned) {
  // Every file a 4-shard run leaves, as CRC-32s captured from the code that
  // rewrote every snapshot file at every compaction: compaction every 4
  // ticks, an active migration between two boundaries, and a rebalance
  // controller. Once uninterrupted, and once cut off a boundary (the cut
  // directory too) and resumed, each at 1 and 8 threads.
  sim::CoordinatorParams params = Params(4);
  params.online.compact_ticks = 4;
  sim::RebalanceParams rebalance;
  rebalance.window_ticks = 2;
  rebalance.queue_depth_threshold = 1;
  rebalance.cooldown_ticks = 3;
  rebalance.max_moves = 2;
  params.rebalance = rebalance;
  const core::ProsumerId prosumer = EarliestProsumer(workload_.offers);
  sim::ShardRouter router(4, sim::ShardPolicy::kHash);
  const int from =
      router.ShardOfProsumer(prosumer, core::kInvalidRegionId, core::kInvalidGridNodeId);
  const int to = (from + 1) % 4;

  // Runs ticks up to `cut` (the whole window when negative), with the
  // migration after tick 4; returns the plans the controller executed.
  auto run = [&](const std::string& dir, int cut) -> int64_t {
    sim::Coordinator coordinator(params);
    EXPECT_TRUE(coordinator.BeginCheckpointed(workload_.offers, window_, dir).ok());
    for (int tick = 0; !coordinator.Done() && (cut < 0 || tick < cut); ++tick) {
      if (tick == 5) {
        Status moved = coordinator.MigrateProsumer(prosumer, to, sim::MigrationMode::kAllowActive);
        EXPECT_TRUE(moved.ok()) << moved.ToString();
      }
      EXPECT_TRUE(coordinator.Tick().ok());
    }
    const int64_t plans = coordinator.plans_executed();
    if (cut < 0) {
      EXPECT_TRUE(coordinator.Finish().ok());
    }
    return plans;
  };

  const std::map<std::string, uint32_t> kUninterrupted = {
      {"COORDINATOR.json", 0x56fcdc76u},
      {"coordinator.wal.g3", 0x00000000u},
      {"shard-0000/SNAPSHOT.json", 0xf8bb3ad2u},
      {"shard-0000/journal.wal.g3", 0x00000000u},
      {"shard-0000/meta.json.g3", 0x14160a8bu},
      {"shard-0000/offers.jsonl.g3", 0xe00886deu},
      {"shard-0000/state.json.g3", 0x5221d526u},
      {"shard-0001/SNAPSHOT.json", 0x6bc27cafu},
      {"shard-0001/journal.wal.g3", 0x00000000u},
      {"shard-0001/meta.json.g3", 0x14160a8bu},
      {"shard-0001/offers.jsonl.g3", 0x72ed6032u},
      {"shard-0001/state.json.g3", 0x1026fd77u},
      {"shard-0002/SNAPSHOT.json", 0x1d41f5b5u},
      {"shard-0002/journal.wal.g3", 0x00000000u},
      {"shard-0002/meta.json.g3", 0x14160a8bu},
      {"shard-0002/offers.jsonl.g3", 0x244efe9bu},
      {"shard-0002/state.json.g3", 0xfd4e5d88u},
      {"shard-0003/SNAPSHOT.json", 0x47fe20c5u},
      {"shard-0003/journal.wal.g3", 0x00000000u},
      {"shard-0003/meta.json.g3", 0x14160a8bu},
      {"shard-0003/offers.jsonl.g3", 0xd3dcae76u},
      {"shard-0003/state.json.g3", 0x9944f1fdu},
  };
  const std::map<std::string, uint32_t> kCut = {
      {"COORDINATOR.json", 0x21027301u},
      {"coordinator.wal.g1", 0xdff8380au},
      {"shard-0000/SNAPSHOT.json", 0x6b109de6u},
      {"shard-0000/journal.wal.g1", 0xfe5ae530u},
      {"shard-0000/meta.json.g1", 0x14160a8bu},
      {"shard-0000/offers.jsonl.g1", 0xf7b6268bu},
      {"shard-0000/state.json.g1", 0x0790f081u},
      {"shard-0001/SNAPSHOT.json", 0x15c024c2u},
      {"shard-0001/journal.wal.g1", 0xa78595e7u},
      {"shard-0001/meta.json.g1", 0x14160a8bu},
      {"shard-0001/offers.jsonl.g1", 0x27aba491u},
      {"shard-0001/state.json.g1", 0x3e592769u},
      {"shard-0002/SNAPSHOT.json", 0xf3978879u},
      {"shard-0002/journal.wal.g1", 0xff681954u},
      {"shard-0002/meta.json.g1", 0x14160a8bu},
      {"shard-0002/offers.jsonl.g1", 0xa9732c64u},
      {"shard-0002/state.json.g1", 0x47a269c3u},
      {"shard-0003/SNAPSHOT.json", 0x57065ab5u},
      {"shard-0003/journal.wal.g1", 0x0ad768e7u},
      {"shard-0003/meta.json.g1", 0x14160a8bu},
      {"shard-0003/offers.jsonl.g1", 0xd3dcae76u},
      {"shard-0003/state.json.g1", 0x634fe50au},
  };
  for (int threads : {1, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetParallelThreadCount(threads);
    const std::string full = Dir("pinned_full");
    EXPECT_GE(run(full, -1), 1);
    EXPECT_EQ(CrcListing(full), kUninterrupted) << ListingText(CrcListing(full));

    const std::string cut = Dir("pinned_cut");
    run(cut, 7);
    EXPECT_EQ(CrcListing(cut), kCut) << ListingText(CrcListing(cut));
    Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(cut);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    // The resume leaves exactly the bytes the uninterrupted run left.
    EXPECT_EQ(CrcListing(cut), kUninterrupted) << ListingText(CrcListing(cut));
  }
}

TEST_F(ShardTest, ResumeShardedWithoutManifestIsDataLoss) {
  std::string dir = Dir("no_manifest");
  fs::create_directories(dir);
  Result<sim::MergedOnlineReport> report = sim::Coordinator::ResumeSharded(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
}

TEST_F(ShardTest, ResumeRejectsMigrationRecordsWithBadShardIndices) {
  // Each case appends CRC-valid migration records to a completed run's
  // journals. Recovery must refuse them as kDataLoss, never index a shard
  // that does not exist.
  const long long prosumer = workload_.offers.front().prosumer;
  auto record = [prosumer](const char* kind, int from, int to, const char* extra = "") {
    return "{\"kind\":\"" + std::string(kind) + "\",\"prosumer\":" + std::to_string(prosumer) +
           ",\"from\":" + std::to_string(from) + ",\"to\":" + std::to_string(to) +
           ",\"epoch\":5" + extra + "}";
  };
  struct Case {
    std::string label;
    std::vector<std::pair<std::string, std::string>> appends;  // shard dir, record
    std::string message = "";  // when set, the refusal must contain it
  };
  const std::vector<Case> cases = {
      {"migrate_out to shard 99",
       {{"shard-0000",
         "{\"kind\":\"migrate_out\",\"prosumer\":1,\"from\":0,\"to\":99,\"epoch\":5}"}}},
      {"migrate_in from shard 99 paired with a valid migrate_out",
       {{"shard-0000", record("migrate_out", 0, 1)},
        {"shard-0001", record("migrate_in", 99, 1, ",\"offers\":[]")}}},
      {"migrate_out to its own shard", {{"shard-0000", record("migrate_out", 0, 0)}}},
      {"migrate_out of a prosumer without offers",
       {{"shard-0000",
         "{\"kind\":\"migrate_out\",\"prosumer\":999999999,\"from\":0,\"to\":1,\"epoch\":5}"}}},
      // 2^32 + 1 narrowed to int would read as shard 1, a valid target.
      {"migrate_out to shard 2^32 + 1",
       {{"shard-0000", "{\"kind\":\"migrate_out\",\"prosumer\":" + std::to_string(prosumer) +
                           ",\"from\":0,\"to\":4294967297,\"epoch\":5}"}},
       "4294967297"},
  };
  for (const Case& c : cases) {
    std::string dir = Dir("bad_index");
    ASSERT_TRUE(
        sim::Coordinator::RunShardedCheckpointed(Params(2), workload_.offers, window_, dir).ok());
    for (const auto& [shard_dir, payload] : c.appends) {
      Result<DurableStore> store = DurableStore::Resume(
          (fs::path(dir) / shard_dir).string(), sim::CheckpointStoreOptions(), nullptr);
      ASSERT_TRUE(store.ok()) << c.label << ": " << store.status().ToString();
      ASSERT_TRUE(store->Append(payload).ok()) << c.label;
      ASSERT_TRUE(store->Flush().ok()) << c.label;
    }
    Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir);
    ASSERT_FALSE(resumed.ok()) << c.label;
    EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss)
        << c.label << ": " << resumed.status().ToString();
    EXPECT_NE(resumed.status().message().find(c.message), std::string::npos)
        << c.label << ": " << resumed.status().ToString();
  }
}

/// Every regular file under the `shard-*` directories of `dir`, by path
/// relative to `dir`, with its bytes.
std::map<std::string, std::string> ShardFiles(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::recursive_directory_iterator(dir)) {
    const std::string relative = fs::relative(entry.path(), dir).string();
    if (!entry.is_regular_file() || relative.rfind(sim::kShardDirPrefix, 0) != 0) continue;
    Result<std::string> bytes = ReadFileToString(entry.path().string());
    files[relative] = bytes.ok() ? *bytes : "<unreadable: " + bytes.status().ToString() + ">";
  }
  return files;
}

TEST_F(ShardTest, ResumeRefusesAHostileManifestBeforeTouchingAnyShardDirectory) {
  // Each case edits one field of a completed 2-shard run's COORDINATOR.json.
  // Recovery must refuse the manifest as kDataLoss and leave every shard
  // directory present and byte-identical: a count or topology that names
  // directories the run never wrote must not get the real ones swept.
  const std::string base = Dir("hostile_manifest_base");
  ASSERT_TRUE(
      sim::Coordinator::RunShardedCheckpointed(Params(2), workload_.offers, window_, base).ok());
  const std::map<std::string, std::string> shard_files = ShardFiles(base);
  ASSERT_TRUE(shard_files.count("shard-0000/SNAPSHOT.json") != 0);
  ASSERT_TRUE(shard_files.count("shard-0001/SNAPSHOT.json") != 0);
  Result<std::string> manifest =
      ReadFileToString((fs::path(base) / sim::kCoordinatorManifestFile).string());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  const std::pair<const char*, const char*> edits[] = {
      {"\"num_shards\":2", "\"num_shards\":0"},
      {"\"num_shards\":2", "\"num_shards\":65"},
      {"\"num_shards\":2", "\"num_shards\":4294967295"},
      {"\"num_shards\":2", "\"num_shards\":4294967296"},
      {"\"topology\":0", "\"topology\":-1"},
      {"\"topology\":0", "\"topology\":7"},
      {"\"scale_energy_per_shard\":true", "\"scale_energy_per_shard\":false"},
  };
  for (const auto& [field, hostile] : edits) {
    const std::string dir = Dir("hostile_manifest");
    fs::copy(base, dir, fs::copy_options::recursive);
    std::string edited = *manifest;
    const size_t at = edited.find(field);
    ASSERT_NE(at, std::string::npos) << field;
    edited.replace(at, std::string(field).size(), hostile);
    ASSERT_TRUE(
        WriteFileAtomic((fs::path(dir) / sim::kCoordinatorManifestFile).string(), edited).ok());

    Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir);
    ASSERT_FALSE(resumed.ok()) << hostile;
    EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss)
        << hostile << ": " << resumed.status().ToString();
    EXPECT_EQ(ShardFiles(dir), shard_files) << hostile;
  }
}

// ---- Overload protection ----------------------------------------------------

TEST_F(ShardTest, BoundedIngestQueueShedsAndSurfacesInMergedReportAndAlerts) {
  sim::CoordinatorParams params = Params(2);
  params.online.ingest_queue_capacity = 1;
  Result<sim::MergedOnlineReport> merged =
      sim::Coordinator::RunSharded(params, workload_.offers, window_);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_GT(merged->global.shed_offers, 0);
  EXPECT_GE(merged->global.queue_high_watermark, 1);
  int shed = 0;
  for (const sim::OnlineReport& r : merged->shard_reports) shed += r.shed_offers;
  EXPECT_EQ(shed, merged->global.shed_offers);

  std::vector<sim::Alert> alerts = sim::ScanOverload(merged->shard_reports, window_);
  ASSERT_FALSE(alerts.empty());
  for (const sim::Alert& alert : alerts) {
    EXPECT_EQ(alert.kind, sim::AlertKind::kOverload);
    EXPECT_GT(alert.magnitude_kwh, 0.0);
    EXPECT_NE(alert.message.find("overload on shard"), std::string::npos);
  }
  // Unbounded runs never shed and never alert.
  sim::MergedOnlineReport clean = MustRunSharded(2);
  EXPECT_EQ(clean.global.shed_offers, 0);
  EXPECT_TRUE(sim::ScanOverload(clean.shard_reports, window_).empty());
}

TEST_F(ShardTest, OverloadCountersSurviveCheckpointResume) {
  sim::CoordinatorParams params = Params(2);
  params.online.ingest_queue_capacity = 1;
  std::string dir = Dir("overload_resume");
  Result<sim::MergedOnlineReport> baseline = sim::Coordinator::RunShardedCheckpointed(
      params, workload_.offers, window_, dir);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(baseline->global.shed_offers, 0);

  Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectMergedEqual(*baseline, *resumed, "overload counters across resume");
}

TEST_F(ShardTest, ShedPoliciesShedEquallyButKeepDifferentOffers) {
  // Same overflow pressure under both policies: every overflow arrival sheds
  // exactly one offer — the arrival itself (reject-newest) or the queue's
  // least-valuable entry when the arrival is worth strictly more
  // (reject-least-valuable). Counts match; the surviving set must not.
  sim::CoordinatorParams newest = Params(2);
  newest.online.ingest_queue_capacity = 1;
  newest.online.shed_policy = sim::ShedPolicy::kRejectNewest;
  sim::CoordinatorParams valuable = newest;
  valuable.online.shed_policy = sim::ShedPolicy::kRejectLeastValuable;

  Result<sim::MergedOnlineReport> by_newest =
      sim::Coordinator::RunSharded(newest, workload_.offers, window_);
  Result<sim::MergedOnlineReport> by_value =
      sim::Coordinator::RunSharded(valuable, workload_.offers, window_);
  ASSERT_TRUE(by_newest.ok()) << by_newest.status().ToString();
  ASSERT_TRUE(by_value.ok()) << by_value.status().ToString();
  ASSERT_GT(by_newest->global.shed_offers, 0);
  EXPECT_EQ(by_newest->global.shed_offers, by_value->global.shed_offers);
  EXPECT_NE(by_newest->global.outbox, by_value->global.outbox)
      << "policies kept identical offers under heavy overflow";
}

TEST_F(ShardTest, LeastValuableShedPolicyIsJournaledAndSurvivesResume) {
  sim::CoordinatorParams params = Params(2);
  params.online.ingest_queue_capacity = 1;
  params.online.shed_policy = sim::ShedPolicy::kRejectLeastValuable;
  std::string dir = Dir("shed_value_resume");
  Result<sim::MergedOnlineReport> baseline = sim::Coordinator::RunShardedCheckpointed(
      params, workload_.offers, window_, dir);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_GT(baseline->global.shed_offers, 0);

  // Every journaled tick record carries the policy it shed under, so a
  // resumed run proves its eviction decisions against the same policy.
  Result<StoreRecovery> shard0 = DurableStore::Recover(
      dir + "/" + sim::kShardDirPrefix + "0000", sim::CheckpointStoreOptions());
  ASSERT_TRUE(shard0.ok()) << shard0.status().ToString();
  ASSERT_FALSE(shard0->records.empty());
  for (const std::string& text : shard0->records) {
    Result<sim::OnlineTickRecord> record = sim::DecodeTickRecord(text);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    EXPECT_EQ(record->shed_policy,
              static_cast<int>(sim::ShedPolicy::kRejectLeastValuable));
  }

  Result<sim::MergedOnlineReport> resumed = sim::Coordinator::ResumeSharded(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectMergedEqual(*baseline, *resumed, "least-valuable shed across resume");
}

}  // namespace
}  // namespace flexvis
