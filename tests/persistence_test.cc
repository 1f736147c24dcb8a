#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "dw/persistence.h"
#include "util/crc32.h"
#include "util/fileio.h"
#include "olap/cube.h"
#include "sim/enterprise.h"
#include "sim/workload.h"
#include "util/parallel.h"
#include "viz/viewport.h"

namespace flexvis {
namespace {

using timeutil::kMinutesPerSlice;
using timeutil::TimeInterval;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

std::string TempDir(const char* name) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "flexvis_persist" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    atlas_ = geo::Atlas::MakeDenmark();
    topology_ = grid::GridTopology::MakeRadial(2, 2, 2, 3);
    ASSERT_TRUE(atlas_.RegisterWithDatabase(db_).ok());
    ASSERT_TRUE(topology_.RegisterWithDatabase(db_).ok());
    sim::WorkloadGenerator generator(&atlas_, &topology_);
    sim::WorkloadParams params;
    params.seed = 808;
    params.num_prosumers = 40;
    params.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
    sim::Workload workload = *generator.Generate(params);
    ASSERT_TRUE(sim::WorkloadGenerator::LoadIntoDatabase(workload, db_).ok());
    // Include scheduled aggregates so the round-trip covers provenance.
    sim::Enterprise enterprise;
    ASSERT_TRUE(enterprise.RunDayAhead(db_, params.horizon).ok());
  }

  geo::Atlas atlas_;
  grid::GridTopology topology_ = grid::GridTopology::MakeRadial(1, 1, 1, 1);
  dw::Database db_;
};

TEST_F(PersistenceTest, SaveThenLoadReproducesWarehouse) {
  std::string dir = TempDir("roundtrip");
  ASSERT_TRUE(dw::SaveDatabase(db_, dir).ok());
  for (const char* file : {"dim_prosumer.csv", "dim_region.csv", "dim_grid_node.csv",
                           "flexoffers.jsonl"}) {
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(dir) / file)) << file;
  }

  Result<dw::Database> restored = dw::LoadDatabase(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->NumFlexOffers(), db_.NumFlexOffers());
  EXPECT_EQ(restored->prosumers().size(), db_.prosumers().size());
  EXPECT_EQ(restored->regions().size(), db_.regions().size());
  EXPECT_EQ(restored->grid_nodes().size(), db_.grid_nodes().size());

  // Every offer reconstructs identically (including schedules/provenance).
  Result<std::vector<core::FlexOffer>> original = db_.SelectFlexOffers(dw::FlexOfferFilter{});
  Result<std::vector<core::FlexOffer>> copy =
      restored->SelectFlexOffers(dw::FlexOfferFilter{});
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(copy.ok());
  ASSERT_EQ(original->size(), copy->size());
  for (size_t i = 0; i < original->size(); ++i) {
    const core::FlexOffer& a = (*original)[i];
    const core::FlexOffer& b = (*copy)[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.UnitProfile(), b.UnitProfile());
    EXPECT_EQ(a.aggregated_from, b.aggregated_from);
    ASSERT_EQ(a.schedule.has_value(), b.schedule.has_value());
    if (a.schedule.has_value()) {
      EXPECT_EQ(a.schedule->start, b.schedule->start);
    }
  }

  // The OLAP layer answers identically over the restored instance.
  olap::Cube cube_a(&db_);
  olap::Cube cube_b(&*restored);
  ASSERT_TRUE(cube_a.AddStandardDimensions().ok());
  ASSERT_TRUE(cube_b.AddStandardDimensions().ok());
  olap::CubeQuery q;
  q.axes = {olap::AxisSpec{"State", "", {}}, olap::AxisSpec{"Geography", "City", {}}};
  Result<olap::PivotResult> pa = cube_a.Evaluate(q);
  Result<olap::PivotResult> pb = cube_b.Evaluate(q);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_EQ(pa->cells, pb->cells);
}

TEST_F(PersistenceTest, LoadFromMissingDirectoryFails) {
  EXPECT_FALSE(dw::LoadDatabase("/nonexistent_dir_xyz/flexvis").ok());
}

TEST_F(PersistenceTest, CorruptOfferLineIsReported) {
  std::string dir = TempDir("corrupt");
  ASSERT_TRUE(dw::SaveDatabase(db_, dir).ok());
  std::filesystem::path offers = std::filesystem::path(dir) / "flexoffers.jsonl";
  std::FILE* f = std::fopen(offers.string().c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("{ this is not json\n", f);
  std::fclose(f);
  // Re-seal the manifest over the corrupted file: the integrity layer now
  // passes, so the *parser* must still reject the bad record.
  ASSERT_TRUE(WriteManifest(dir, dw::kSnapshotManifest,
                            {"dim_prosumer.csv", "dim_region.csv", "dim_grid_node.csv",
                             "flexoffers.jsonl"})
                  .ok());
  Result<dw::Database> restored = dw::LoadDatabase(dir);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PersistenceTest, SaveToUnwritableLocationFails) {
  EXPECT_FALSE(dw::SaveDatabase(db_, "/proc/flexvis_cannot_write_here").ok());
}

// ---- Snapshot corruption matrix ------------------------------------------------------
//
// Every way a snapshot can be damaged on disk must surface as a typed error
// (kDataLoss for integrity violations), never as a plausible-but-wrong
// Database.

namespace {

void Overwrite(const std::filesystem::path& path, const std::string& data) {
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::string Slurp(const std::filesystem::path& path) {
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  std::fclose(f);
  return data;
}

}  // namespace

TEST_F(PersistenceTest, TruncatedSnapshotFileIsDataLoss) {
  std::string dir = TempDir("truncated");
  ASSERT_TRUE(dw::SaveDatabase(db_, dir).ok());
  for (const char* file : {"flexoffers.jsonl", "dim_prosumer.csv"}) {
    std::filesystem::path target = std::filesystem::path(dir) / file;
    std::string original = Slurp(target);
    ASSERT_GT(original.size(), 10u);
    Overwrite(target, original.substr(0, original.size() / 2));
    Result<dw::Database> restored = dw::LoadDatabase(dir);
    ASSERT_FALSE(restored.ok()) << file;
    EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss) << file;
    Overwrite(target, original);  // restore for the next iteration
  }
  EXPECT_TRUE(dw::LoadDatabase(dir).ok());  // fixture intact again
}

TEST_F(PersistenceTest, FlippedByteIsDataLoss) {
  std::string dir = TempDir("flipped");
  ASSERT_TRUE(dw::SaveDatabase(db_, dir).ok());
  std::filesystem::path offers = std::filesystem::path(dir) / "flexoffers.jsonl";
  std::string bytes = Slurp(offers);
  // Same size, one bit different: only the manifest CRC can catch this.
  bytes[bytes.size() / 3] ^= 0x04;
  Overwrite(offers, bytes);
  Result<dw::Database> restored = dw::LoadDatabase(dir);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
}

TEST_F(PersistenceTest, MissingManifestIsDataLoss) {
  std::string dir = TempDir("no_manifest");
  ASSERT_TRUE(dw::SaveDatabase(db_, dir).ok());
  std::filesystem::remove(std::filesystem::path(dir) / dw::kSnapshotManifest);
  Result<dw::Database> restored = dw::LoadDatabase(dir);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
}

TEST_F(PersistenceTest, MissingCoveredFileIsDataLoss) {
  std::string dir = TempDir("missing_file");
  ASSERT_TRUE(dw::SaveDatabase(db_, dir).ok());
  std::filesystem::remove(std::filesystem::path(dir) / "dim_region.csv");
  Result<dw::Database> restored = dw::LoadDatabase(dir);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kDataLoss);
}

TEST_F(PersistenceTest, StaleTempFilesAreIgnored) {
  std::string dir = TempDir("stale_tmp");
  ASSERT_TRUE(dw::SaveDatabase(db_, dir).ok());
  // Debris of a crashed earlier save: .tmp files that never got renamed.
  Overwrite(std::filesystem::path(dir) / ("flexoffers.jsonl" + std::string(kTmpSuffix)),
            "half-written garbage");
  Overwrite(std::filesystem::path(dir) / ("dim_prosumer.csv" + std::string(kTmpSuffix)), "");
  Result<dw::Database> restored = dw::LoadDatabase(dir);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->NumFlexOffers(), db_.NumFlexOffers());
}

TEST_F(PersistenceTest, DuplicateOfferIdNamesIdAndLine) {
  std::string dir = TempDir("dup_id");
  ASSERT_TRUE(dw::SaveDatabase(db_, dir).ok());
  std::filesystem::path offers = std::filesystem::path(dir) / "flexoffers.jsonl";
  std::string bytes = Slurp(offers);
  // Duplicate the first line at the end, then re-seal the manifest so only
  // the duplicate-id check (not the CRC) can reject the file.
  std::string first_line = bytes.substr(0, bytes.find('\n') + 1);
  size_t lines_before = static_cast<size_t>(std::count(bytes.begin(), bytes.end(), '\n'));
  Overwrite(offers, bytes + first_line);
  ASSERT_TRUE(WriteManifest(dir, dw::kSnapshotManifest,
                            {"dim_prosumer.csv", "dim_region.csv", "dim_grid_node.csv",
                             "flexoffers.jsonl"})
                  .ok());
  Result<dw::Database> restored = dw::LoadDatabase(dir);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.status().message().find("duplicate flex-offer id"), std::string::npos)
      << restored.status().message();
  EXPECT_NE(restored.status().message().find("line " + std::to_string(lines_before + 1)),
            std::string::npos)
      << restored.status().message();
}

TEST_F(PersistenceTest, ShardedLoadRejectsAnIdTwoShardsClaim) {
  std::string dir = TempDir("sharded_dup");
  ASSERT_TRUE(dw::SaveDatabaseSharded(
                  db_, dir, 2,
                  [](const core::FlexOffer& offer) { return static_cast<int>(offer.id % 2); })
                  .ok());
  ASSERT_TRUE(dw::LoadDatabaseSharded(dir).ok());
  // Rewrite shard-0001, a complete warehouse of its own, so that it also
  // holds one of shard-0000's offers.
  Result<dw::Database> shard0 = dw::LoadDatabase(dir + "/shard-0000");
  Result<dw::Database> shard1 = dw::LoadDatabase(dir + "/shard-0001");
  ASSERT_TRUE(shard0.ok() && shard1.ok());
  Result<std::vector<core::FlexOffer>> offers0 = shard0->SelectFlexOffers({});
  ASSERT_TRUE(offers0.ok() && !offers0->empty());
  const core::FlexOffer claimed = offers0->front();
  ASSERT_TRUE(shard1->LoadFlexOffers({claimed}).ok());
  ASSERT_TRUE(dw::SaveDatabase(*shard1, dir + "/shard-0001").ok());

  Result<dw::Database> merged = dw::LoadDatabaseSharded(dir);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kAlreadyExists);
  EXPECT_NE(merged.status().message().find("flex-offer " + std::to_string(claimed.id)),
            std::string::npos)
      << merged.status().message();
}

TEST_F(PersistenceTest, ShortWriteSurfacesAsTypedError) {
  // /dev/full makes every write report ENOSPC: the save must fail with a
  // typed error instead of leaving a silently truncated file. (Directory
  // creation under /dev/full fails too, which is an equally typed path.)
  Status status = dw::SaveDatabase(db_, "/dev/full");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// ---- Pinned bytes ------------------------------------------------------------------

/// CRC-32 of every file in `dir`, by file name.
std::map<std::string, uint32_t> FileCrcs(const std::string& dir) {
  std::map<std::string, uint32_t> crcs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    Result<std::string> bytes = ReadFileToString(entry.path().string());
    EXPECT_TRUE(bytes.ok()) << entry.path();
    if (bytes.ok()) crcs[entry.path().filename().string()] = Crc32(*bytes);
  }
  return crcs;
}

TEST_F(PersistenceTest, SavedWarehouseBytesArePinned) {
  // The save of a generated world, and of the same world after a day-ahead
  // plan. A change to these literals changes the on-disk format: it belongs
  // in the diff that makes that change.
  const std::map<std::string, uint32_t> kGenerated = {
      {"MANIFEST.json", 0x200b67aa},    {"dim_grid_node.csv", 0x358273ab},
      {"dim_prosumer.csv", 0x9a360e5f}, {"dim_region.csv", 0xd5f1235a},
      {"flexoffers.jsonl", 0xe28c9402}, {"lod.bin", 0x4d0e90b3}};
  const std::map<std::string, uint32_t> kPlanned = {
      {"MANIFEST.json", 0x1e0dc312},    {"dim_grid_node.csv", 0x358273ab},
      {"dim_prosumer.csv", 0x9a360e5f}, {"dim_region.csv", 0xd5f1235a},
      {"flexoffers.jsonl", 0xab49b3a4}, {"lod.bin", 0xd65a8e24}};
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    dw::Database db;
    ASSERT_TRUE(atlas_.RegisterWithDatabase(db).ok());
    ASSERT_TRUE(topology_.RegisterWithDatabase(db).ok());
    sim::WorkloadGenerator generator(&atlas_, &topology_);
    sim::WorkloadParams params;
    params.seed = 909;
    params.num_prosumers = 60;
    params.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
    Result<sim::Workload> workload = generator.Generate(params);
    ASSERT_TRUE(workload.ok());
    ASSERT_TRUE(sim::WorkloadGenerator::LoadIntoDatabase(*workload, db).ok());

    const std::string generated = TempDir("pinned_generated");
    ASSERT_TRUE(dw::SaveDatabase(db, generated).ok());
    EXPECT_EQ(FileCrcs(generated), kGenerated) << threads << " threads";

    Result<dw::Database> loaded = dw::LoadDatabase(generated);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(sim::Enterprise().RunDayAhead(*loaded, params.horizon).ok());
    const std::string planned = TempDir("pinned_planned");
    ASSERT_TRUE(dw::SaveDatabase(*loaded, planned).ok());
    EXPECT_EQ(FileCrcs(planned), kPlanned) << threads << " threads";
  }
  SetParallelThreadCount(0);
}

// ---- Viewport -----------------------------------------------------------------------

TEST(ViewportTest, StartsAtFullExtent) {
  TimeInterval full(T0(), T0() + timeutil::kMinutesPerDay);
  viz::Viewport vp(full);
  EXPECT_EQ(vp.window(), full);
  EXPECT_DOUBLE_EQ(vp.ZoomLevel(), 1.0);
}

TEST(ViewportTest, ZoomInKeepsAnchorInside) {
  TimeInterval full(T0(), T0() + timeutil::kMinutesPerDay);
  viz::Viewport vp(full);
  TimePoint anchor = T0() + 6 * 60;  // 06:00
  vp.Zoom(2.0, anchor);
  EXPECT_NEAR(vp.ZoomLevel(), 0.5, 0.01);
  EXPECT_TRUE(vp.window().Contains(anchor));
  vp.Zoom(2.0, anchor);
  EXPECT_NEAR(vp.ZoomLevel(), 0.25, 0.01);
  EXPECT_TRUE(vp.window().Contains(anchor));
}

TEST(ViewportTest, ZoomOutClampsToFullExtent) {
  TimeInterval full(T0(), T0() + timeutil::kMinutesPerDay);
  viz::Viewport vp(full);
  vp.Zoom(4.0, T0() + 12 * 60);
  vp.Zoom(0.01, T0() + 12 * 60);  // way out
  EXPECT_EQ(vp.window(), full);
}

TEST(ViewportTest, ZoomNeverShrinksBelowOneSlice) {
  TimeInterval full(T0(), T0() + timeutil::kMinutesPerDay);
  viz::Viewport vp(full);
  for (int i = 0; i < 30; ++i) vp.Zoom(3.0, T0() + 12 * 60);
  EXPECT_GE(vp.window().duration_minutes(), kMinutesPerSlice);
}

TEST(ViewportTest, PanClampsAtEdges) {
  TimeInterval full(T0(), T0() + timeutil::kMinutesPerDay);
  viz::Viewport vp(full);
  vp.ZoomTo(TimeInterval(T0() + 6 * 60, T0() + 12 * 60));
  vp.Pan(-100 * 60);  // far left
  EXPECT_EQ(vp.window().start, full.start);
  EXPECT_EQ(vp.window().duration_minutes(), 6 * 60);
  vp.Pan(100 * 60);  // far right
  EXPECT_EQ(vp.window().end, full.end);
  vp.Pan(-60);
  EXPECT_EQ(vp.window().start, full.end - 6 * 60 - 60);
}

TEST(ViewportTest, ZoomToAndReset) {
  TimeInterval full(T0(), T0() + timeutil::kMinutesPerDay);
  viz::Viewport vp(full);
  TimeInterval target(T0() + 3 * 60, T0() + 5 * 60);
  vp.ZoomTo(target);
  EXPECT_EQ(vp.window(), target);
  vp.ZoomTo(TimeInterval());  // empty is ignored
  EXPECT_EQ(vp.window(), target);
  vp.Reset();
  EXPECT_EQ(vp.window(), full);
}

TEST(ViewportTest, TimeAtInvertsScale) {
  render::LinearScale scale(static_cast<double>(T0().minutes()),
                            static_cast<double>((T0() + 100).minutes()), 0.0, 1000.0);
  EXPECT_EQ(viz::Viewport::TimeAt(scale, 500.0), T0() + 50);
}

}  // namespace
}  // namespace flexvis
