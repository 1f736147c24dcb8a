// Kill-matrix recovery harness for a single enterprise's checkpointed online
// run, which is a 1-shard coordinator run (RunShardedCheckpointed /
// ResumeSharded at num_shards = 1). For EVERY journal append, journal flush,
// and atomic persistence write the run performs, a forked child is crashed
// (std::_Exit via the fault layer — no flush, no destructors) at exactly
// that point; the parent then recovers from the checkpoint directory and
// must converge to a state byte-identical to an uninterrupted run: same
// outbox stream, same counters, same offers, same warehouse query answers,
// same rendered-figure CRCs at 1 and 8 threads.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/messages.h"
#include "dw/database.h"
#include "olap/cube.h"
#include "render/png.h"
#include "render/raster_canvas.h"
#include "sim/checkpoint.h"
#include "sim/coordinator.h"
#include "sim/online.h"
#include "sim/workload.h"
#include "util/fault.h"
#include "util/fileio.h"
#include "util/parallel.h"
#include "viz/basic_view.h"

namespace flexvis {
namespace {

namespace fs = std::filesystem;
using timeutil::TimeInterval;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

/// The write points a crash can interrupt, in pipeline order: the snapshot's
/// atomic file writes, then each tick's journal append and flush.
const char* const kCrashPoints[] = {"util.fileio.write", "util.journal.append",
                                    "util.journal.flush"};

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // No pool workers may be alive across fork(); force serial execution.
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
    params_.tick_minutes = 120;  // 12 ticks over the day — small but real

    // Pid-suffixed so concurrent ctest processes cannot remove_all one
    // another's live files mid-run.
    root_ = fs::path(::testing::TempDir()) /
            ("flexvis_recovery." + std::to_string(::getpid()));
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

  /// The checkpointed online loop over the fixture's workload: a 1-shard
  /// coordinator run into `dir`.
  Result<sim::OnlineReport> RunCheckpointed(const sim::OnlineParams& online,
                                            const std::string& dir) {
    sim::CoordinatorParams params;
    params.num_shards = 1;
    params.online = online;
    Result<sim::MergedOnlineReport> merged =
        sim::Coordinator::RunShardedCheckpointed(params, workload_.offers, window_, dir);
    if (!merged.ok()) return merged.status();
    return std::move(merged->global);
  }

  /// Resumes the 1-shard run in `dir`; `info` receives shard 0's recovery.
  static Result<sim::OnlineReport> Resume(const std::string& dir,
                                          sim::ResumeInfo* info = nullptr) {
    sim::ShardResumeInfo shards;
    Result<sim::MergedOnlineReport> merged = sim::Coordinator::ResumeSharded(dir, &shards);
    if (info != nullptr) {
      *info = shards.shards.empty() ? sim::ResumeInfo{} : shards.shards[0];
    }
    if (!merged.ok()) return merged.status();
    EXPECT_EQ(merged->num_shards, 1);
    return std::move(merged->global);
  }

  sim::OnlineReport MustRun(const std::string& dir) {
    Result<sim::OnlineReport> report = RunCheckpointed(params_, dir);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *std::move(report) : sim::OnlineReport{};
  }

  /// Counts how many times `point` is consulted by one checkpointed run, by
  /// arming it with a never-failing config (hits are only counted while
  /// armed) and running clean.
  int64_t CountHits(const char* point) {
    FaultRegistry::Global().Arm(point, FaultConfig{});
    MustRun(Dir(std::string("count_") + point));
    int64_t hits = FaultRegistry::Global().Stats(point).hits;
    FaultRegistry::Global().DisarmAll();
    return hits;
  }

  /// Forks a child that crashes at the `hit`-th consultation of `point`
  /// while running the checkpointed loop into `dir`. Returns the child's
  /// exit code (kCrashExitCode when the crash fired as planned).
  int RunChildCrashingAt(const char* point, int64_t hit, const std::string& dir) {
    pid_t pid = fork();
    if (pid == 0) {
      FaultConfig config;
      config.crash_at_hit = hit;
      FaultRegistry::Global().Arm(point, config);
      Result<sim::OnlineReport> report = RunCheckpointed(params_, dir);
      std::_Exit(report.ok() ? 0 : 1);
    }
    EXPECT_GT(pid, 0) << "fork failed";
    int wstatus = 0;
    EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
    EXPECT_TRUE(WIFEXITED(wstatus));
    return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
  }

  /// Recovers `dir` after a crash. kDataLoss means the snapshot never
  /// committed — nothing was promised, so the caller reruns from inputs.
  sim::OnlineReport MustRecover(const std::string& dir, sim::ResumeInfo* info) {
    Result<sim::OnlineReport> report = Resume(dir, info);
    if (!report.ok() && report.status().code() == StatusCode::kDataLoss) {
      return MustRun(dir);
    }
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *std::move(report) : sim::OnlineReport{};
  }

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
    EXPECT_EQ(a.ticks, b.ticks) << label;
    EXPECT_EQ(a.imbalance_kwh, b.imbalance_kwh) << label;  // exact, not near
    ASSERT_EQ(a.offers.size(), b.offers.size()) << label;
    for (size_t i = 0; i < a.offers.size(); ++i) {
      EXPECT_EQ(core::EncodeFlexOffer(a.offers[i]), core::EncodeFlexOffer(b.offers[i]))
          << label << " offer " << i;
    }
  }

  geo::Atlas atlas_;
  grid::GridTopology topology_ = grid::GridTopology::MakeRadial(1, 1, 1, 1);
  sim::Workload workload_;
  TimeInterval window_;
  sim::OnlineParams params_;
  fs::path root_;
};

uint32_t SceneCrc(const std::vector<core::FlexOffer>& offers) {
  viz::BasicViewResult view = viz::RenderBasicView(offers, viz::BasicViewOptions{});
  render::RasterCanvas canvas(static_cast<int>(view.scene->width()),
                              static_cast<int>(view.scene->height()));
  view.scene->ReplayAll(canvas);
  std::string ppm = canvas.ToPpm();
  return render::Crc32(reinterpret_cast<const uint8_t*>(ppm.data()), ppm.size());
}

TEST_F(RecoveryTest, CheckpointedRunMatchesPlainRun) {
  Result<sim::OnlineReport> plain = sim::OnlineEnterprise(params_).Run(workload_.offers, window_);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  sim::OnlineReport checkpointed = MustRun(Dir("plain_vs_ckpt"));
  ExpectReportsEqual(*plain, checkpointed, "checkpointed vs plain");
  EXPECT_GT(checkpointed.ticks, 0);
}

TEST_F(RecoveryTest, ResumeOfCompletedRunReplaysEverythingAndContinuesNothing) {
  std::string dir = Dir("completed");
  sim::OnlineReport baseline = MustRun(dir);
  sim::ResumeInfo info;
  Result<sim::OnlineReport> resumed = Resume(dir, &info);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(info.ticks_replayed, baseline.ticks);
  EXPECT_EQ(info.ticks_continued, 0);
  EXPECT_FALSE(info.torn_tail);
  ExpectReportsEqual(baseline, *resumed, "resume of completed run");
}

TEST_F(RecoveryTest, KillMatrixEveryWritePointConvergesToBaseline) {
  sim::OnlineReport baseline = MustRun(Dir("baseline"));
  ASSERT_GT(baseline.ticks, 0);

  for (const char* point : kCrashPoints) {
    const int64_t hits = CountHits(point);
    ASSERT_GT(hits, 0) << point << " is not on the checkpointed write path";
    for (int64_t hit = 1; hit <= hits; ++hit) {
      const std::string label =
          std::string(point) + " hit " + std::to_string(hit) + "/" + std::to_string(hits);
      std::string dir = Dir("kill_" + std::string(point) + "_" + std::to_string(hit));
      ASSERT_EQ(RunChildCrashingAt(point, hit, dir), kCrashExitCode)
          << label << ": child did not crash where told to";

      sim::ResumeInfo info;
      sim::OnlineReport recovered = MustRecover(dir, &info);
      ExpectReportsEqual(baseline, recovered, label);

      // Ticks never run twice and never vanish: replay + continue covers the
      // window exactly once (when the snapshot committed before the crash).
      if (info.ticks_replayed + info.ticks_continued > 0) {
        EXPECT_EQ(info.ticks_replayed + info.ticks_continued, baseline.ticks) << label;
      }

      // After recovery the journal is complete: a second resume replays all
      // ticks and re-executes none.
      sim::ResumeInfo again;
      Result<sim::OnlineReport> second = Resume(dir, &again);
      ASSERT_TRUE(second.ok()) << label << ": " << second.status().ToString();
      EXPECT_EQ(again.ticks_replayed, baseline.ticks) << label;
      EXPECT_EQ(again.ticks_continued, 0) << label;
      ExpectReportsEqual(baseline, *second, label + " (second resume)");
    }
  }
}

TEST_F(RecoveryTest, KillMatrixWithCompactionEveryPointConvergesToBaseline) {
  // Compaction on a cadence that does NOT divide the tick count: 12 ticks at
  // C = 5 compacts after ticks 4 and 9 and leaves 2 ticks in the final WAL,
  // exercising fold, journal switch, old-generation delete, and a non-empty
  // tail in one run.
  params_.compact_ticks = 5;
  sim::OnlineReport baseline = MustRun(Dir("compact_baseline"));
  ASSERT_GT(baseline.ticks, 0);

  // Compaction is transparent: byte-identical to a run that never compacts.
  {
    sim::OnlineParams flat_params = params_;
    flat_params.compact_ticks = 0;
    Result<sim::OnlineReport> flat = RunCheckpointed(flat_params, Dir("compact_off"));
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    ExpectReportsEqual(*flat, baseline, "compaction transparency");
  }

  // The compaction run adds two crash points to the matrix: before the fold
  // starts and before the old generation is deleted. Every fileio write
  // inside the fold (new-generation snapshot files, new manifest) is already
  // covered by util.fileio.write.
  const char* const points[] = {"util.fileio.write", "util.journal.append",
                                "util.journal.flush", "util.store.compact",
                                "util.store.delete"};
  for (const char* point : points) {
    const int64_t hits = CountHits(point);
    ASSERT_GT(hits, 0) << point << " is not on the compacting write path";
    for (int64_t hit = 1; hit <= hits; ++hit) {
      const std::string label = std::string("compact ") + point + " hit " +
                                std::to_string(hit) + "/" + std::to_string(hits);
      std::string dir = Dir("ckill_" + std::string(point) + "_" + std::to_string(hit));
      ASSERT_EQ(RunChildCrashingAt(point, hit, dir), kCrashExitCode)
          << label << ": child did not crash where told to";

      sim::ResumeInfo info;
      sim::OnlineReport recovered = MustRecover(dir, &info);
      ExpectReportsEqual(baseline, recovered, label);
      // Folded + replayed + continued covers the window exactly once (when
      // the snapshot committed before the crash).
      if (info.ticks_folded + info.ticks_replayed + info.ticks_continued > 0) {
        EXPECT_EQ(info.ticks_folded + info.ticks_replayed + info.ticks_continued,
                  baseline.ticks)
            << label;
      }

      // The recovered run finished all compactions, so a second resume folds
      // everything up to the last boundary and replays at most C records —
      // the bounded-replay guarantee compaction exists for.
      sim::ResumeInfo again;
      Result<sim::OnlineReport> second = Resume(dir, &again);
      ASSERT_TRUE(second.ok()) << label << ": " << second.status().ToString();
      EXPECT_EQ(again.ticks_folded + again.ticks_replayed, baseline.ticks) << label;
      EXPECT_EQ(again.ticks_continued, 0) << label;
      EXPECT_LE(again.ticks_replayed, params_.compact_ticks) << label;
      EXPECT_EQ(again.generation, baseline.ticks / params_.compact_ticks) << label;
      ExpectReportsEqual(baseline, *second, label + " (second resume)");
    }
  }
}

TEST_F(RecoveryTest, RecoveredStateAnswersWarehouseQueriesIdentically) {
  sim::OnlineReport baseline = MustRun(Dir("wh_base"));

  // Crash mid-run (first journal flush), then recover.
  std::string dir = Dir("wh_crash");
  ASSERT_EQ(RunChildCrashingAt("util.journal.flush", 3, dir), kCrashExitCode);
  sim::OnlineReport recovered = MustRecover(dir, nullptr);

  auto build_db = [&](const sim::OnlineReport& report, dw::Database& db) {
    ASSERT_TRUE(atlas_.RegisterWithDatabase(db).ok());
    ASSERT_TRUE(topology_.RegisterWithDatabase(db).ok());
    for (const dw::ProsumerInfo& p : workload_.prosumers) {
      ASSERT_TRUE(db.RegisterProsumer(p).ok());
    }
    ASSERT_TRUE(db.LoadFlexOffers(report.offers).ok());
  };
  dw::Database db_a;
  dw::Database db_b;
  build_db(baseline, db_a);
  build_db(recovered, db_b);

  olap::Cube cube_a(&db_a);
  olap::Cube cube_b(&db_b);
  ASSERT_TRUE(cube_a.AddStandardDimensions().ok());
  ASSERT_TRUE(cube_b.AddStandardDimensions().ok());
  olap::CubeQuery q;
  q.axes = {olap::AxisSpec{"State", "", {}}, olap::AxisSpec{"Geography", "City", {}}};
  Result<olap::PivotResult> pa = cube_a.Evaluate(q);
  Result<olap::PivotResult> pb = cube_b.Evaluate(q);
  ASSERT_TRUE(pa.ok()) << pa.status().ToString();
  ASSERT_TRUE(pb.ok()) << pb.status().ToString();
  EXPECT_EQ(pa->cells, pb->cells);
}

TEST_F(RecoveryTest, RecoveredStateRendersIdenticalFiguresAt1And8Threads) {
  sim::OnlineReport baseline = MustRun(Dir("crc_base"));
  std::string dir = Dir("crc_crash");
  ASSERT_EQ(RunChildCrashingAt("util.journal.append", 5, dir), kCrashExitCode);
  sim::OnlineReport recovered = MustRecover(dir, nullptr);

  // All forking is done; pool threads are safe to spawn from here on.
  SetParallelThreadCount(1);
  uint32_t base1 = SceneCrc(baseline.offers);
  uint32_t rec1 = SceneCrc(recovered.offers);
  SetParallelThreadCount(8);
  uint32_t base8 = SceneCrc(baseline.offers);
  uint32_t rec8 = SceneCrc(recovered.offers);
  SetParallelThreadCount(1);
  EXPECT_EQ(base1, rec1);
  EXPECT_EQ(base8, rec8);
  EXPECT_EQ(base1, base8);
}

TEST_F(RecoveryTest, ResumeWithoutSnapshotIsDataLoss) {
  std::string dir = Dir("no_snapshot");
  fs::create_directories(dir);
  Result<sim::OnlineReport> report = Resume(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
}

TEST_F(RecoveryTest, ResumeWithCorruptSnapshotIsDataLossNeverWrongAnswer) {
  std::string dir = Dir("corrupt_snapshot");
  MustRun(dir);
  // Flip one byte of the offers file; size is unchanged so only the CRC in
  // the manifest can catch it.
  std::string offers_path =
      (fs::path(dir) / "shard-0000" / sim::kCheckpointOffersFile).string();
  Result<std::string> bytes = ReadFileToString(offers_path);
  ASSERT_TRUE(bytes.ok());
  std::string flipped = *bytes;
  flipped[flipped.size() / 2] ^= 0x01;
  std::FILE* f = std::fopen(offers_path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(flipped.data(), 1, flipped.size(), f), flipped.size());
  std::fclose(f);

  Result<sim::OnlineReport> report = Resume(dir);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss);
}

TEST_F(RecoveryTest, StaleTempFilesAreIgnoredOnResume) {
  std::string dir = Dir("stale_tmp");
  sim::OnlineReport baseline = MustRun(dir);
  // Debris a crash inside WriteFileAtomic leaves behind: a .tmp that was
  // never renamed. It is not covered by the manifest and must not matter.
  const fs::path shard_dir = fs::path(dir) / "shard-0000";
  ASSERT_TRUE(WriteFileAtomic((shard_dir / "meta.json.tmp.debris").string(), "junk").ok());
  std::FILE* f =
      std::fopen(((shard_dir / sim::kCheckpointMetaFile).string() + kTmpSuffix).c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("half-written", f);
  std::fclose(f);

  Result<sim::OnlineReport> resumed = Resume(dir);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectReportsEqual(baseline, *resumed, "stale tmp debris");
}

TEST_F(RecoveryTest, TickRecordRoundtripsAndApplyRejectsOutOfOrder) {
  sim::OnlineEnterprise enterprise(params_);
  Result<sim::OnlineLoopState> live = enterprise.Begin(workload_.offers, window_);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  Result<sim::OnlineLoopState> replayed = enterprise.Begin(workload_.offers, window_);
  ASSERT_TRUE(replayed.ok());

  while (!enterprise.Done(*live)) {
    sim::OnlineTickRecord record;
    enterprise.Tick(*live, &record);
    Result<sim::OnlineTickRecord> decoded =
        sim::DecodeTickRecord(sim::EncodeTickRecord(record));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(enterprise.Apply(*replayed, *decoded).ok());
    // Replaying the same tick twice cannot silently double-apply.
    EXPECT_EQ(enterprise.Apply(*replayed, *decoded).code(), StatusCode::kDataLoss);
  }
  sim::OnlineReport a = enterprise.Finish(*std::move(live));
  sim::OnlineReport b = enterprise.Finish(*std::move(replayed));
  ExpectReportsEqual(a, b, "tick-at-a-time replay");

  // A record naming an offer the snapshot does not know is kDataLoss.
  Result<sim::OnlineLoopState> fresh = enterprise.Begin(workload_.offers, window_);
  ASSERT_TRUE(fresh.ok());
  sim::OnlineTickRecord bogus;
  bogus.tick = 0;
  sim::OnlineStateChange change;
  change.offer = 999999999;
  change.state = core::FlexOfferState::kAccepted;
  bogus.changes.push_back(change);
  EXPECT_EQ(enterprise.Apply(*fresh, bogus).code(), StatusCode::kDataLoss);
}

// ---- $FLEXVIS_COMPACT_TICKS parsing ---------------------------------------------

// Unset and empty disable compaction (0); garbage, non-positive and
// beyond-int values are typed kInvalidArgument errors whose message names
// the variable, so a fleet-wide misconfiguration fails loudly instead of
// silently running without compaction.
TEST(CompactEnvTest, TicksRejectsZeroNegativeAndGarbageWithTypedError) {
  const char* var = sim::kCompactTicksEnvVar;
  ASSERT_EQ(::unsetenv(var), 0);
  Result<int> unset = sim::CompactTicksFromEnv();
  ASSERT_TRUE(unset.ok()) << unset.status().ToString();
  EXPECT_EQ(*unset, 0);

  ASSERT_EQ(::setenv(var, "", 1), 0);
  Result<int> empty = sim::CompactTicksFromEnv();
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ(*empty, 0);

  ASSERT_EQ(::setenv(var, "12", 1), 0);
  Result<int> valid = sim::CompactTicksFromEnv();
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_EQ(*valid, 12);

  for (const char* bad : {"0", "-3", "64MB", "ticks", "4294967297"}) {
    ASSERT_EQ(::setenv(var, bad, 1), 0);
    Result<int> rejected = sim::CompactTicksFromEnv();
    ASSERT_FALSE(rejected.ok()) << var << "='" << bad << "'";
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
        << var << "='" << bad << "'";
    EXPECT_NE(rejected.status().ToString().find(var), std::string::npos)
        << "error must name the variable: " << rejected.status().ToString();
  }
  ASSERT_EQ(::unsetenv(var), 0);
}

TEST_F(RecoveryTest, DecodeTickRecordRejectsMalformedInput) {
  EXPECT_EQ(sim::DecodeTickRecord("not json").status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(sim::DecodeTickRecord("[]").status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(sim::DecodeTickRecord("{\"tick\":0}").status().code(), StatusCode::kDataLoss);

  // An int field outside int is refused, never narrowed to the value it
  // wraps to (2^32 + 3 -> 3, 2^32 + 2 -> 2, -2^32 -> 0); the error names it.
  sim::OnlineTickRecord record;
  record.tick = 3;
  record.accepted = 2;
  const std::string text = sim::EncodeTickRecord(record);
  ASSERT_TRUE(sim::DecodeTickRecord(text).ok());
  struct Case {
    const char* field;
    const char* hostile;
    const char* value;
  };
  const Case cases[] = {
      {"\"tick\":3", "\"tick\":4294967299", "4294967299"},
      {"\"accepted\":2", "\"accepted\":4294967298", "4294967298"},
      {"\"qhw\":0", "\"qhw\":-4294967296", "-4294967296"},
  };
  for (const Case& c : cases) {
    std::string hostile = text;
    const size_t at = hostile.find(c.field);
    ASSERT_NE(at, std::string::npos) << c.field;
    hostile.replace(at, std::string(c.field).size(), c.hostile);
    Result<sim::OnlineTickRecord> decoded = sim::DecodeTickRecord(hostile);
    ASSERT_FALSE(decoded.ok()) << c.hostile;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << c.hostile;
    EXPECT_NE(decoded.status().message().find(c.value), std::string::npos)
        << decoded.status().ToString();
  }
}

TEST_F(RecoveryTest, DecodeRefusesFieldValuesNoRunWrites) {
  // meta.json: the largest value of each enum decodes; a value a cast would
  // narrow or an enum does not have, a fraction in an int field, a present
  // key of the wrong type, a non-positive tick or a window that ends before
  // it starts is refused naming the field, never resumed under parameters
  // the run never had.
  sim::OnlineParams params;
  params.scheduler.order = core::SchedulerParams::Order::kArrival;
  params.shed_policy = sim::ShedPolicy::kRejectLeastValuable;
  params.max_ingest_per_tick = 5;
  params.ingest_queue_capacity = 40;
  params.compact_ticks = 64;
  const TimeInterval window(T0(), T0() + timeutil::kMinutesPerDay);
  StoreRecovery recovery;
  for (auto& [name, content] : sim::EncodeOnlineSnapshot(params, {}, window)) {
    recovery.files[name] = content;
  }
  std::string& meta = recovery.files[sim::kCheckpointMetaFile];
  const std::string text = meta;
  auto decode = [&](sim::OnlineParams* decoded) {
    std::vector<core::FlexOffer> offers;
    TimeInterval decoded_window;
    return sim::DecodeOnlineSnapshot(recovery, decoded, &offers, &decoded_window);
  };
  sim::OnlineParams decoded;
  ASSERT_TRUE(decode(&decoded).ok());
  EXPECT_EQ(decoded.scheduler.order, params.scheduler.order);
  EXPECT_EQ(decoded.shed_policy, params.shed_policy);
  EXPECT_EQ(decoded.max_ingest_per_tick, 5);
  EXPECT_EQ(decoded.ingest_queue_capacity, 40);
  EXPECT_EQ(decoded.compact_ticks, 64);

  struct Case {
    const char* field;
    const char* value;
  };
  const Case cases[] = {
      {"max_ingest_per_tick", "4294967297"}, {"ingest_queue_capacity", "-4294967295"},
      {"compact_ticks", "4294967360"},       {"shed_policy", "7"},
      {"scheduler_order", "9"},              {"scheduler_order", "-1"},
      {"compact_ticks", "\"x\""},            {"shed_policy", "null"},
      {"forecaster", "5"},                   {"bidding", "[]"},
      {"shed_policy", "1.5"},                {"compact_ticks", "16.9"},
      {"tick_minutes", "-60"},               {"tick_minutes", "0"},
      {"window_end_min", "0"},
  };
  for (const Case& c : cases) {
    meta = text;
    const std::string key = "\"" + std::string(c.field) + "\":";
    const size_t at = meta.find(key);
    ASSERT_NE(at, std::string::npos) << c.field << " in " << text;
    const size_t value_at = at + key.size();
    meta.replace(value_at, meta.find_first_of(",}", value_at) - value_at, c.value);
    Status status = decode(&decoded);
    EXPECT_EQ(status.code(), StatusCode::kDataLoss) << meta;
    EXPECT_NE(status.message().find(c.field), std::string::npos) << status.ToString();
  }
  meta = text;
  EXPECT_TRUE(decode(&decoded).ok());

  // A journal record's optional int fields follow the same rule.
  sim::OnlineTickRecord record;
  record.tick = 3;
  const std::string tick_text = sim::EncodeTickRecord(record);
  for (const char* field : {"shed_policy", "shed", "qhw"}) {
    std::string hostile = tick_text;
    const std::string key = "\"" + std::string(field) + "\":";
    const size_t at = hostile.find(key);
    ASSERT_NE(at, std::string::npos) << field << " in " << tick_text;
    const size_t value_at = at + key.size();
    hostile.replace(value_at, hostile.find_first_of(",}", value_at) - value_at, "\"x\"");
    Result<sim::OnlineTickRecord> bad = sim::DecodeTickRecord(hostile);
    ASSERT_FALSE(bad.ok()) << hostile;
    EXPECT_EQ(bad.status().code(), StatusCode::kDataLoss) << hostile;
    EXPECT_NE(bad.status().message().find(field), std::string::npos) << bad.status().ToString();
  }
}

}  // namespace
}  // namespace flexvis
