// The fault-injection proof: unit tests for the FaultRegistry and the
// simulated-time retry loop, then the full matrix sweep — every registered
// injection point crossed with {fail-once, fail-n, always-fail,
// latency-spike} — driven through the real pipeline entry points. The
// contract asserted for every cell: no crash, no hang, and one of
//
//   * retry-then-success (transient faults are absorbed silently),
//   * graceful degradation (the run completes and names the absorbed stage
//     in PlanningReport::degraded_stages / the OnlineReport drop counters),
//   * a clean typed error whose message names the injection point.
//
// Plus the settlement-conservation check: even when the spot market is
// down and the enterprise books everything at the imbalance fee, the cost
// identity total = spot + imbalance holds and no energy goes missing.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/messages.h"
#include "dw/csv.h"
#include "dw/persistence.h"
#include "sim/enterprise.h"
#include "sim/online.h"
#include "sim/workload.h"
#include "util/fault.h"
#include "util/retry.h"

namespace flexvis {
namespace {

using timeutil::kMinutesPerDay;
using timeutil::TimeInterval;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

// ---- FaultRegistry unit tests (isolated instances) -------------------------------------

TEST(FaultRegistryTest, DisarmedPointsNeverFail) {
  FaultRegistry registry;
  for (const std::string& point : registry.Points()) {
    for (int i = 0; i < 10; ++i) {
      int64_t latency = -1;
      EXPECT_TRUE(registry.Hit(point, &latency).ok());
      EXPECT_EQ(latency, 0);
    }
  }
}

TEST(FaultRegistryTest, PointsContainsEveryCanonicalSeam) {
  FaultRegistry registry;
  std::vector<std::string> points = registry.Points();
  EXPECT_TRUE(std::is_sorted(points.begin(), points.end()));
  for (const char* name : kFaultPoints) {
    EXPECT_NE(std::find(points.begin(), points.end(), name), points.end())
        << "missing " << name;
  }
}

TEST(FaultRegistryTest, FailFirstServesExactlyN) {
  FaultRegistry registry;
  FaultConfig config;
  config.fail_first = 2;
  registry.Arm("dw.csv.read", config);
  EXPECT_FALSE(registry.Hit("dw.csv.read").ok());
  EXPECT_FALSE(registry.Hit("dw.csv.read").ok());
  EXPECT_TRUE(registry.Hit("dw.csv.read").ok());
  EXPECT_TRUE(registry.Hit("dw.csv.read").ok());
  FaultStats stats = registry.Stats("dw.csv.read");
  EXPECT_EQ(stats.hits, 4);
  EXPECT_EQ(stats.failures, 2);
}

TEST(FaultRegistryTest, AlwaysFailCarriesConfiguredCodeAndPointName) {
  FaultRegistry registry;
  FaultConfig config;
  config.always_fail = true;
  config.code = StatusCode::kInternal;
  registry.Arm("sim.market.bid", config);
  Status status = registry.Hit("sim.market.bid");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("sim.market.bid"), std::string::npos);
  EXPECT_FALSE(IsRetryable(status));
}

TEST(FaultRegistryTest, LatencyAccruesOnEveryHit) {
  FaultRegistry registry;
  FaultConfig config;
  config.latency_minutes = 7;
  registry.Arm("dw.csv.write", config);
  int64_t latency = 0;
  EXPECT_TRUE(registry.Hit("dw.csv.write", &latency).ok());
  EXPECT_EQ(latency, 7);
  EXPECT_TRUE(registry.Hit("dw.csv.write", &latency).ok());
  EXPECT_EQ(registry.Stats("dw.csv.write").latency_minutes, 14);
}

TEST(FaultRegistryTest, SameSeedSameArmingSameFailureSequence) {
  FaultConfig config;
  config.probability = 0.5;
  std::vector<bool> a, b;
  for (std::vector<bool>* out : {&a, &b}) {
    FaultRegistry registry;
    registry.Seed(12345);
    registry.Arm("sim.online.ingest", config);
    for (int i = 0; i < 200; ++i) out->push_back(registry.Hit("sim.online.ingest").ok());
  }
  EXPECT_EQ(a, b);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
}

TEST(FaultRegistryTest, DisarmRestoresCleanBehavior) {
  FaultRegistry registry;
  FaultConfig config;
  config.always_fail = true;
  registry.Arm("dw.csv.read", config);
  registry.Arm("dw.csv.write", config);
  EXPECT_TRUE(registry.IsArmed("dw.csv.read"));
  registry.Disarm("dw.csv.read");
  EXPECT_FALSE(registry.IsArmed("dw.csv.read"));
  EXPECT_TRUE(registry.Hit("dw.csv.read").ok());
  EXPECT_FALSE(registry.Hit("dw.csv.write").ok());
  registry.DisarmAll();
  EXPECT_TRUE(registry.Hit("dw.csv.write").ok());
}

TEST(FaultRegistryTest, ConfigureParsesSpecAndArms) {
  FaultRegistry registry;
  ASSERT_TRUE(registry.Configure("sim.online.ingest:0.25,dw.csv.read:1.0@30").ok());
  EXPECT_TRUE(registry.IsArmed("sim.online.ingest"));
  EXPECT_TRUE(registry.IsArmed("dw.csv.read"));
  // probability >= 1 is always-fail; latency rides along.
  int64_t latency = 0;
  Status status = registry.Hit("dw.csv.read", &latency);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(latency, 30);
}

TEST(FaultRegistryTest, ConfigureRejectsMalformedSpecsAtomically) {
  const char* kBad[] = {
      "dw.csv.read",           // missing probability
      "dw.csv.read:",          // empty probability
      "dw.csv.read:nope",      // non-numeric
      "dw.csv.read:-0.5",      // out of range
      "dw.csv.read:1.5",       // out of range
      "dw.csv.read:0.5@-3",    // negative latency
      "dw.csv.read:0.5@x",     // non-numeric latency
      ":0.5",                  // empty point name
      "dw.csv.read:1.0,,x:1",  // empty entry
      "no.such.point:0.5",     // unknown point name
      "dw.csv.read:1.0,sim.markett.bid:1.0",  // typo after a valid prefix
  };
  for (const char* spec : kBad) {
    FaultRegistry registry;
    Status status = registry.Configure(spec);
    EXPECT_FALSE(status.ok()) << spec;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec;
    // Atomic: a bad spec arms nothing, even its valid prefix.
    EXPECT_FALSE(registry.IsArmed("dw.csv.read")) << spec;
  }
  FaultRegistry registry;
  EXPECT_TRUE(registry.Configure(nullptr).ok());
  EXPECT_TRUE(registry.Configure("").ok());
}

// ---- Retry loop unit tests -------------------------------------------------------------

TEST(RetryTest, TransientFailuresAreRetriedToSuccess) {
  int calls = 0;
  RetryResult result = RetryWithPolicy(DefaultRetryPolicy(), 1, [&]() -> Status {
    return ++calls < 3 ? UnavailableError("flaky") : OkStatus();
  });
  EXPECT_TRUE(result.status.ok());
  EXPECT_EQ(result.attempts, 3);
  EXPECT_GT(result.simulated_minutes, 0);
}

TEST(RetryTest, NonRetryableErrorsReturnImmediately) {
  int calls = 0;
  RetryResult result = RetryWithPolicy(DefaultRetryPolicy(), 1, [&]() -> Status {
    ++calls;
    return InvalidArgumentError("permanent");
  });
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, ExhaustedAttemptsReturnLastError) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  int calls = 0;
  RetryResult result = RetryWithPolicy(policy, 1, [&]() -> Status {
    ++calls;
    return UnavailableError("still down");
  });
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
}

TEST(RetryTest, BackoffIsExponentialCappedAndDeterministic) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_minutes = 10;
  policy.multiplier = 2.0;
  policy.max_backoff_minutes = 15;
  policy.jitter = 0.0;
  policy.deadline_minutes = -1;
  SimClock clock;
  RetryWithPolicy(policy, 7, []() -> Status { return UnavailableError("down"); }, &clock);
  // Backoffs: 10, min(20,15)=15, min(40,15)=15.
  EXPECT_EQ(clock.elapsed_minutes(), 40);
}

TEST(RetryTest, JitterStaysWithinConfiguredBand) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_minutes = 10;
  policy.multiplier = 2.0;
  policy.max_backoff_minutes = 15;
  policy.jitter = 0.25;
  policy.deadline_minutes = -1;
  for (uint64_t seed = 0; seed < 32; ++seed) {
    SimClock clock;
    RetryWithPolicy(policy, seed, []() -> Status { return UnavailableError("down"); },
                    &clock);
    EXPECT_GE(clock.elapsed_minutes(), static_cast<int64_t>(40 * 0.75) - 2) << seed;
    EXPECT_LE(clock.elapsed_minutes(), static_cast<int64_t>(40 * 1.25) + 2) << seed;
  }
}

TEST(RetryTest, DeadlineExceededIsTyped) {
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff_minutes = 10;
  policy.jitter = 0.0;
  policy.deadline_minutes = 5;
  RetryResult result = RetryWithPolicy(policy, 1, []() -> Status {
    return UnavailableError("down");
  });
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(result.attempts, 100);
}

// ---- The matrix sweep ------------------------------------------------------------------

// What a driver observed: the final status plus whether the pipeline
// visibly absorbed the fault (degraded_stages entry or drop counters).
struct DriveResult {
  Status status;
  bool absorbed = false;
};

class FaultMatrixTest : public ::testing::Test {
 protected:
  FaultMatrixTest()
      : atlas_(geo::Atlas::MakeDenmark()),
        topology_(grid::GridTopology::MakeRadial(2, 2, 2, 3)),
        generator_(&atlas_, &topology_) {
    sim::WorkloadParams params;
    params.seed = 7331;
    params.num_prosumers = 40;
    params.offers_per_prosumer = 3.0;
    params.horizon = TimeInterval(T0(), T0() + kMinutesPerDay);
    workload_ = *generator_.Generate(params);
    window_ = params.horizon;
    // Suffix with the pid: ctest runs each test in its own process, possibly
    // in parallel, and a shared root lets one test's fixture re-save
    // saved_db while another test is loading it.
    temp_dir_ = ::testing::TempDir() + "/fault_matrix." + std::to_string(::getpid());
    std::filesystem::remove_all(temp_dir_);
    std::filesystem::create_directories(temp_dir_);
    // A persisted warehouse fixture, written before any point is armed.
    dw::Database db;
    BuildDatabase(db);
    saved_dir_ = temp_dir_ + "/saved_db";
    save_fixture_ok_ = dw::SaveDatabase(db, saved_dir_).ok();
  }

  ~FaultMatrixTest() override {
    FaultRegistry::Global().DisarmAll();
    std::error_code ec;
    std::filesystem::remove_all(temp_dir_, ec);
  }

  void BuildDatabase(dw::Database& db) {
    ASSERT_TRUE(atlas_.RegisterWithDatabase(db).ok());
    ASSERT_TRUE(topology_.RegisterWithDatabase(db).ok());
    ASSERT_TRUE(sim::WorkloadGenerator::LoadIntoDatabase(workload_, db).ok());
  }

  dw::Table SmallTable() const {
    dw::Table table("t", {{"id", dw::ColumnType::kInt64}, {"name", dw::ColumnType::kString}});
    EXPECT_TRUE(table.AppendRow({dw::Value(int64_t{1}), dw::Value(std::string("a,b"))}).ok());
    EXPECT_TRUE(table.AppendRow({dw::Value(int64_t{2}), dw::Value::Null()}).ok());
    return table;
  }

  // One driver per injection point, exercising it through the real pipeline
  // entry the production code wires it into.
  DriveResult Drive(const std::string& point) {
    if (point == "dw.csv.write") {
      return {dw::WriteCsvFile(SmallTable(), temp_dir_ + "/out.csv"), false};
    }
    if (point == "dw.csv.read") {
      dw::Table table = SmallTable();
      std::string path = temp_dir_ + "/in.csv";
      // Write the fixture through the armed registry too — only the read
      // point is armed, so this must succeed.
      Status wrote = dw::WriteCsvFile(table, path);
      if (!wrote.ok()) return {wrote, false};
      std::vector<dw::ColumnSpec> schema = {table.column(0).spec(), table.column(1).spec()};
      return {dw::ReadCsvFile("t", schema, path).status(), false};
    }
    if (point == "dw.persistence.save") {
      dw::Database db;
      BuildDatabase(db);
      return {dw::SaveDatabase(db, temp_dir_ + "/save_target"), false};
    }
    if (point == "dw.persistence.load") {
      EXPECT_TRUE(save_fixture_ok_);
      return {dw::LoadDatabase(saved_dir_).status(), false};
    }
    if (point == "core.messages.decode") {
      std::string wire = core::EncodeMessage(core::Message(workload_.offers.front()));
      return {core::DecodeMessage(wire).status(), false};
    }
    if (point == "sim.online.ingest" || point == "sim.online.send") {
      Result<sim::OnlineReport> report =
          sim::OnlineEnterprise().Run(workload_.offers, window_);
      if (!report.ok()) return {report.status(), false};
      // Deadline misses also happen on clean runs (tick cadence), so only
      // the strictly fault-driven counters count as absorption evidence.
      bool absorbed = report->dropped_ingest > 0 || report->failed_sends > 0;
      return {OkStatus(), absorbed};
    }
    if (point == "sim.enterprise.collect") {
      dw::Database db;
      BuildDatabase(db);
      return {sim::Enterprise().RunDayAhead(db, window_).status(), false};
    }
    // The planning-stage points and the market bid all flow through
    // PlanHorizon; forecast mode is on so the forecast point is reachable.
    sim::EnterpriseParams params;
    params.plan_on_forecast = true;
    sim::Enterprise enterprise(params);
    Result<sim::PlanningReport> report = enterprise.PlanHorizon(workload_.offers, window_);
    if (!report.ok()) return {report.status(), false};
    bool absorbed =
        std::find(report->degraded_stages.begin(), report->degraded_stages.end(), point) !=
        report->degraded_stages.end();
    return {OkStatus(), absorbed};
  }

  geo::Atlas atlas_;
  grid::GridTopology topology_;
  sim::WorkloadGenerator generator_;
  sim::Workload workload_;
  TimeInterval window_;
  std::string temp_dir_;
  std::string saved_dir_;
  bool save_fixture_ok_ = false;
};

struct FaultMode {
  const char* name;
  FaultConfig config;
};

std::vector<FaultMode> Modes() {
  FaultConfig fail_once;
  fail_once.fail_first = 1;
  FaultConfig fail_n;
  fail_n.fail_first = 2;
  FaultConfig always;
  always.always_fail = true;
  FaultConfig latency_spike;  // no failures, but one hit blows the deadline
  latency_spike.latency_minutes = 2000;
  return {{"fail-once", fail_once},
          {"fail-n", fail_n},
          {"always-fail", always},
          {"latency-spike", latency_spike}};
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

TEST_F(FaultMatrixTest, EveryPointTimesEveryModeRecoversOrFailsTyped) {
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();

  // Points that retry transparently but have nothing to degrade to: an
  // unrecoverable fault must surface as a typed error naming the point.
  const std::vector<std::string> kSurfacesTyped = {
      "dw.csv.write", "dw.csv.read", "dw.persistence.save", "dw.persistence.load",
      "sim.enterprise.collect"};
  // The message bus decode seam is deliberately not retried (redelivery is
  // the sender's job), so even a single fault surfaces.
  const std::string kDecode = "core.messages.decode";

  // Sweep the canonical pipeline seams (not registry.Points(): other tests
  // in this binary lazily register durable-storage points — util.journal.*,
  // util.fileio.write — that the enterprise drive below never touches; they
  // get their own matrix in journal_test and recovery_test).
  for (const char* point_name : kFaultPoints) {
    const std::string point = point_name;
    for (const FaultMode& mode : Modes()) {
      SCOPED_TRACE(point + " x " + mode.name);
      registry.DisarmAll();
      registry.Seed(4242);
      registry.Arm(point, mode.config);
      DriveResult result = Drive(point);
      registry.DisarmAll();

      const bool transient = mode.config.fail_first > 0;
      const bool latency_only = mode.config.latency_minutes > 0 &&
                                !mode.config.always_fail &&
                                mode.config.probability == 0.0 &&
                                mode.config.fail_first == 0;
      if (point == kDecode) {
        if (latency_only) {
          // No retry loop, so no deadline to blow: latency is just recorded.
          EXPECT_TRUE(result.status.ok()) << result.status.ToString();
        } else {
          ASSERT_FALSE(result.status.ok());
          EXPECT_NE(result.status.message().find(point), std::string::npos)
              << result.status.ToString();
        }
        continue;
      }
      if (transient) {
        // Within the default 3-attempt budget: retry-then-success, and no
        // degradation may be recorded.
        EXPECT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_FALSE(result.absorbed);
        continue;
      }
      // always-fail and latency-spike exhaust the point.
      if (Contains(kSurfacesTyped, point)) {
        ASSERT_FALSE(result.status.ok());
        EXPECT_NE(result.status.message().find(point), std::string::npos)
            << result.status.ToString();
        if (latency_only) {
          EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
        }
      } else {
        // Pipeline stages with a degradation path absorb the outage.
        EXPECT_TRUE(result.status.ok()) << result.status.ToString();
        EXPECT_TRUE(result.absorbed) << "no degradation evidence recorded";
      }
      // Whatever happened, the registry saw traffic on the armed point.
      EXPECT_GT(registry.Stats(point).hits, 0);
    }
  }
}

// With the spot market hard-down, the enterprise books the whole residual
// at the penalty fee — and the settlement must stay internally consistent:
// nothing traded, cost identity intact, at least as much energy settled as
// imbalance as on the clean run.
TEST_F(FaultMatrixTest, MarketOutageSettlementConservesCostAndEnergy) {
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  sim::EnterpriseParams params;
  params.execution_noise = 0.0;
  params.non_compliance = 0.0;

  Result<sim::PlanningReport> clean =
      sim::Enterprise(params).PlanHorizon(workload_.offers, window_);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(clean->degraded_stages.empty());
  EXPECT_NEAR(clean->settlement.total_cost_eur,
              clean->settlement.spot_cost_eur + clean->settlement.imbalance_cost_eur, 1e-6);

  FaultConfig down;
  down.always_fail = true;
  registry.Seed(4242);
  registry.Arm("sim.market.bid", down);
  Result<sim::PlanningReport> degraded =
      sim::Enterprise(params).PlanHorizon(workload_.offers, window_);
  registry.DisarmAll();
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_TRUE(Contains(degraded->degraded_stages, "sim.market.bid"));

  const sim::Settlement& s = degraded->settlement;
  // Nothing traded on the unreachable exchange.
  EXPECT_EQ(s.traded_kwh.AbsTotal(), 0.0);
  EXPECT_EQ(s.spot_cost_eur, 0.0);
  // Cost identity holds in degraded mode too.
  EXPECT_NEAR(s.total_cost_eur, s.spot_cost_eur + s.imbalance_cost_eur, 1e-6);
  // The plan itself is unchanged (the fault hits after planning), so the
  // physical energy series agree with the clean run...
  EXPECT_NEAR(degraded->planned_flexible_load.Total(),
              clean->planned_flexible_load.Total(), 1e-6);
  // ...and everything the clean run settled as imbalance is still settled,
  // plus the residual that could not be traded.
  EXPECT_GE(s.imbalance_kwh, clean->settlement.imbalance_kwh - 1e-9);
  EXPECT_GE(s.imbalance_cost_eur, 0.0);
}

// Figure output must be bit-identical with the registry present-but-
// disarmed vs armed-elsewhere: faults on I/O points may not leak into a
// pure in-memory planning run.
TEST_F(FaultMatrixTest, FaultsOnUnrelatedPointsDoNotPerturbPlanning) {
  FaultRegistry& registry = FaultRegistry::Global();
  registry.DisarmAll();
  sim::EnterpriseParams params;
  Result<sim::PlanningReport> a = sim::Enterprise(params).PlanHorizon(workload_.offers, window_);
  ASSERT_TRUE(a.ok());

  FaultConfig noisy;
  noisy.probability = 1.0;
  noisy.always_fail = true;
  registry.Seed(999);
  registry.Arm("dw.csv.write", noisy);
  registry.Arm("dw.persistence.load", noisy);
  Result<sim::PlanningReport> b = sim::Enterprise(params).PlanHorizon(workload_.offers, window_);
  registry.DisarmAll();
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b->degraded_stages.empty());
  EXPECT_EQ(a->settlement.total_cost_eur, b->settlement.total_cost_eur);
  EXPECT_EQ(a->imbalance_after_kwh, b->imbalance_after_kwh);
}

}  // namespace
}  // namespace flexvis
