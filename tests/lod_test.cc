// Oracle property tests of the warehouse LOD pyramid (dw/lod.h): every
// level's min/max/mean/count must byte-match a brute-force downsample of the
// raw profiles (doubles compared by bit pattern) at 1 and 8 threads, across
// ragged tails, empty buckets, batch splits, and the filter-window scan
// semantics the views rely on.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dw/lod.h"
#include "dw/persistence.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "serve/engine.h"
#include "serve/registry.h"
#include "sim/enterprise.h"
#include "sim/workload.h"
#include "util/crc32.h"
#include "util/fileio.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/store.h"

namespace flexvis {
namespace {

using dw::LodBucket;
using dw::LodBucketRange;
using dw::LodPyramid;
using timeutil::kMinutesPerSlice;
using timeutil::TimeInterval;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 3, 4, 0, 0); }

class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { SetParallelThreadCount(0); }
};

// Seeded offer population exercising everything the pyramid aggregates:
// multi-slice profile entries, schedules displacing the placement start,
// deliberate gaps (empty buckets), and a few regions.
std::vector<core::FlexOffer> MakeOffers(uint64_t seed, size_t count,
                                        const std::vector<core::RegionId>& regions) {
  Rng rng(seed);
  std::vector<core::FlexOffer> offers;
  offers.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    core::FlexOffer o;
    o.id = static_cast<core::FlexOfferId>(i + 1);
    o.prosumer = static_cast<core::ProsumerId>(i % 50 + 1);
    if (!regions.empty()) {
      o.region = regions[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(regions.size()) - 1))];
    }
    // Cluster starts with gaps so some unit slices stay empty.
    const int64_t cluster = rng.UniformInt(0, 3) * 100;
    o.earliest_start =
        T0() + (cluster + rng.UniformInt(0, 40)) * kMinutesPerSlice;
    o.latest_start = o.earliest_start + rng.UniformInt(0, 16) * kMinutesPerSlice;
    o.creation_time = o.earliest_start - 12 * 60;
    o.acceptance_deadline = o.creation_time + 60;
    o.assignment_deadline = o.creation_time + 120;
    const int entries = static_cast<int>(rng.UniformInt(1, 4));
    for (int e = 0; e < entries; ++e) {
      const double min = rng.Uniform(0.0, 2.0);
      o.profile.push_back(core::ProfileSlice{static_cast<int>(rng.UniformInt(1, 3)), min,
                                             min + rng.Uniform(0.0, 2.0)});
    }
    if (rng.UniformInt(0, 2) == 0) {
      core::Schedule schedule;
      const int64_t flex_slices =
          (o.latest_start - o.earliest_start) / kMinutesPerSlice;
      schedule.start =
          o.earliest_start + rng.UniformInt(0, flex_slices) * kMinutesPerSlice;
      for (const core::ProfileSlice& unit : o.UnitProfile()) {
        schedule.energy_kwh.push_back(unit.min_energy_kwh);
      }
      o.schedule = schedule;
    }
    offers.push_back(std::move(o));
  }
  return offers;
}

// The canonical-order brute force the parallel build must byte-match: a
// plain serial left fold in ascending offer order, then per-level
// left-to-right child merges.
LodPyramid BruteForcePyramid(const std::vector<core::FlexOffer>& offers,
                             const std::vector<core::RegionId>& regions) {
  TimeInterval extent;
  for (const core::FlexOffer& o : offers) {
    extent = extent.empty() ? o.extent() : extent.Span(o.extent());
  }
  dw::LodBuilder builder(extent, regions);
  // One offer per batch is the most hostile split; the builder contract says
  // any split folds in global order. (The equally naive alternative — fold
  // into local buckets by hand — would just re-implement LodBucket.)
  LodPyramid serial;
  {
    ThreadCountGuard guard;
    SetParallelThreadCount(1);
    for (const core::FlexOffer& o : offers) {
      builder.Add({o});
    }
    serial = builder.Finish();
  }
  return serial;
}

void ExpectPyramidsEqual(const LodPyramid& a, const LodPyramid& b, const char* label) {
  ASSERT_EQ(a.num_levels(), b.num_levels()) << label;
  ASSERT_EQ(a.num_slices(), b.num_slices()) << label;
  ASSERT_EQ(a.num_offers(), b.num_offers()) << label;
  ASSERT_EQ(a.origin().minutes(), b.origin().minutes()) << label;
  ASSERT_EQ(a.regions(), b.regions()) << label;
  for (int l = 0; l < a.num_levels(); ++l) {
    const dw::LodLevel& la = a.level(l);
    const dw::LodLevel& lb = b.level(l);
    ASSERT_EQ(la.buckets.size(), lb.buckets.size()) << label << " level " << l;
    for (size_t i = 0; i < la.buckets.size(); ++i) {
      ASSERT_EQ(la.buckets[i], lb.buckets[i])
          << label << " level " << l << " bucket " << i;
    }
    ASSERT_EQ(la.region_starts, lb.region_starts) << label << " level " << l;
  }
}

TEST(LodTest, PyramidMatchesBruteForceOracleAtOneAndEightThreads) {
  const std::vector<core::RegionId> regions = {11, 22, 33};
  for (uint64_t seed : {7u, 99u, 2013u}) {
    const std::vector<core::FlexOffer> offers = MakeOffers(seed, 600, regions);
    const LodPyramid oracle = BruteForcePyramid(offers, regions);
    ThreadCountGuard guard;
    for (int threads : {1, 8}) {
      SetParallelThreadCount(threads);
      const LodPyramid pyramid = dw::BuildLodPyramid(offers, regions);
      ExpectPyramidsEqual(pyramid, oracle,
                          threads == 1 ? "1 thread vs oracle" : "8 threads vs oracle");
    }
  }
}

TEST(LodTest, EveryLevelIsAnExactDownsampleOfLevelZero) {
  const std::vector<core::FlexOffer> offers = MakeOffers(5, 400, {});
  const LodPyramid pyramid = dw::BuildLodPyramid(offers);
  ASSERT_GT(pyramid.num_levels(), 3);
  // Top level has exactly one bucket covering everything.
  EXPECT_EQ(pyramid.level(pyramid.num_levels() - 1).buckets.size(), 1u);
  for (int l = 1; l < pyramid.num_levels(); ++l) {
    const dw::LodLevel& fine = pyramid.level(l - 1);
    const dw::LodLevel& coarse = pyramid.level(l);
    ASSERT_EQ(coarse.buckets.size(), (fine.buckets.size() + 1) / 2) << "level " << l;
    for (size_t b = 0; b < coarse.buckets.size(); ++b) {
      LodBucket expected = fine.buckets[2 * b];
      if (2 * b + 1 < fine.buckets.size()) {
        expected.MergeChild(fine.buckets[2 * b + 1]);  // ragged tail: lone child
      }
      ASSERT_EQ(coarse.buckets[b], expected) << "level " << l << " bucket " << b;
    }
  }
}

TEST(LodTest, BatchSplitsAreByteIdentical) {
  const std::vector<core::RegionId> regions = {1, 2};
  const std::vector<core::FlexOffer> offers = MakeOffers(31, 500, regions);
  TimeInterval extent;
  for (const core::FlexOffer& o : offers) {
    extent = extent.empty() ? o.extent() : extent.Span(o.extent());
  }
  const LodPyramid one_shot = dw::BuildLodPyramid(offers, regions);
  for (size_t batch : {1u, 7u, 128u, 499u}) {
    dw::LodBuilder builder(extent, regions);
    for (size_t i = 0; i < offers.size(); i += batch) {
      std::vector<core::FlexOffer> chunk(
          offers.begin() + static_cast<ptrdiff_t>(i),
          offers.begin() + static_cast<ptrdiff_t>(std::min(offers.size(), i + batch)));
      builder.Add(chunk);
    }
    const LodPyramid split = builder.Finish();
    ExpectPyramidsEqual(split, one_shot, "batch split");
  }
}

TEST(LodTest, EmptyBucketsAndEmptyPyramid) {
  // Two offers a long gap apart: everything between stays empty.
  std::vector<core::FlexOffer> offers = MakeOffers(3, 2, {});
  offers[0].earliest_start = T0();
  offers[0].latest_start = T0();
  offers[0].schedule.reset();
  offers[1].earliest_start = T0() + 500 * kMinutesPerSlice;
  offers[1].latest_start = offers[1].earliest_start;
  offers[1].schedule.reset();
  const LodPyramid pyramid = dw::BuildLodPyramid(offers);
  const dw::LodLevel& level0 = pyramid.level(0);
  size_t empty = 0;
  for (const LodBucket& b : level0.buckets) {
    if (b.empty()) {
      ++empty;
      EXPECT_EQ(b.starts, 0);
      EXPECT_EQ(b.sum_min_kwh, 0.0);
    }
  }
  EXPECT_GT(empty, 400u);

  const LodPyramid nothing = dw::BuildLodPyramid({});
  EXPECT_TRUE(nothing.empty());
  EXPECT_EQ(nothing.num_levels(), 0);
  EXPECT_EQ(nothing.num_offers(), 0);
}

TEST(LodTest, RangeHonorsHalfOpenWindowBoundaries) {
  const std::vector<core::FlexOffer> offers = MakeOffers(17, 300, {});
  const LodPyramid pyramid = dw::BuildLodPyramid(offers);
  const TimePoint origin = pyramid.origin();

  // Empty window = the whole level, at every level.
  for (int l = 0; l < pyramid.num_levels(); ++l) {
    Result<LodBucketRange> all = pyramid.Range(l, TimeInterval());
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(all->begin, 0);
    EXPECT_EQ(all->end, static_cast<int64_t>(pyramid.level(l).buckets.size()));
  }

  // Level 0: a window ending exactly on a slice boundary excludes the slice
  // starting there; one more minute includes it. A window starting one
  // minute before a boundary still includes the previous slice.
  {
    const TimeInterval exact(origin + 4 * kMinutesPerSlice, origin + 8 * kMinutesPerSlice);
    Result<LodBucketRange> r = pyramid.Range(0, exact);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->begin, 4);
    EXPECT_EQ(r->end, 8);

    const TimeInterval plus_one(exact.start, exact.end + 1);
    r = pyramid.Range(0, plus_one);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->end, 9);

    const TimeInterval minus_one(exact.start - 1, exact.end);
    r = pyramid.Range(0, minus_one);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->begin, 3);

    const TimeInterval mid_slice(origin + kMinutesPerSlice / 2,
                                 origin + kMinutesPerSlice / 2 + 1);
    r = pyramid.Range(0, mid_slice);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->begin, 0);
    EXPECT_EQ(r->end, 1);
  }

  // Every level/window combination must agree with brute force: bucket b is
  // in range iff its slice span overlaps the window.
  Rng rng(44);
  for (int trial = 0; trial < 200; ++trial) {
    const int level = static_cast<int>(rng.UniformInt(0, pyramid.num_levels() - 1));
    const int64_t a = rng.UniformInt(-30, pyramid.num_slices() + 30) * kMinutesPerSlice +
                      rng.UniformInt(-1, 1);
    const int64_t b = a + rng.UniformInt(1, 120 * kMinutesPerSlice);
    const TimeInterval window(origin + a, origin + b);
    Result<LodBucketRange> r = pyramid.Range(level, window);
    ASSERT_TRUE(r.ok());
    const int64_t bucket_minutes = pyramid.level(level).bucket_slices * kMinutesPerSlice;
    const int64_t buckets = static_cast<int64_t>(pyramid.level(level).buckets.size());
    for (int64_t bucket = 0; bucket < buckets; ++bucket) {
      const TimeInterval span(origin + bucket * bucket_minutes,
                              origin + (bucket + 1) * bucket_minutes);
      // The tail bucket of a ragged level still only covers real slices.
      const TimeInterval clipped(
          span.start, std::min(span.end, origin + pyramid.num_slices() * kMinutesPerSlice));
      const bool expected = clipped.Overlaps(window);
      const bool got = bucket >= r->begin && bucket < r->end;
      ASSERT_EQ(got, expected) << "trial " << trial << " level " << level << " bucket "
                               << bucket;
    }
  }

  // Windows entirely outside the extent select nothing.
  Result<LodBucketRange> before =
      pyramid.Range(0, TimeInterval(origin - 100 * kMinutesPerSlice, origin - 1));
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->empty());

  EXPECT_FALSE(pyramid.Range(pyramid.num_levels(), TimeInterval()).ok());
  EXPECT_FALSE(pyramid.Range(-1, TimeInterval()).ok());
}

TEST(LodTest, ChooseLevelPicksFinestLevelKeepingBucketsVisible) {
  const std::vector<core::FlexOffer> offers = MakeOffers(9, 300, {});
  const LodPyramid pyramid = dw::BuildLodPyramid(offers);
  // Plenty of pixels: full detail.
  EXPECT_EQ(pyramid.ChooseLevel(TimeInterval(), 1e9, 2.0), 0);
  // One pixel: the coarsest level.
  EXPECT_EQ(pyramid.ChooseLevel(TimeInterval(), 1.0, 2.0), pyramid.num_levels() - 1);
  // Monotone in available width.
  int prev = pyramid.num_levels();
  for (double width : {50.0, 200.0, 800.0, 3200.0, 128000.0}) {
    const int level = pyramid.ChooseLevel(TimeInterval(), width, 2.0);
    EXPECT_LE(level, prev) << width;
    prev = level;
    // The chosen level keeps buckets >= 2 px; the next finer would not.
    const int64_t on_screen =
        (pyramid.num_slices() + pyramid.level(level).bucket_slices - 1) /
        pyramid.level(level).bucket_slices;
    EXPECT_GE(width / static_cast<double>(on_screen), 2.0) << width;
  }
}

TEST(LodTest, SerializeParseRoundTripsByteExactly) {
  const std::vector<core::RegionId> regions = {5, 6, 7};
  const std::vector<core::FlexOffer> offers = MakeOffers(23, 250, regions);
  const LodPyramid pyramid = dw::BuildLodPyramid(offers, regions);
  const std::string bytes = pyramid.Serialize();
  Result<LodPyramid> parsed = LodPyramid::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectPyramidsEqual(*parsed, pyramid, "parse round trip");
  EXPECT_EQ(parsed->Serialize(), bytes);

  // Corruption is a typed kDataLoss, never garbage.
  EXPECT_EQ(LodPyramid::Parse("FLXWRONG").status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(LodPyramid::Parse(bytes.substr(0, bytes.size() / 2)).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LodPyramid::Parse(bytes + "x").status().code(), StatusCode::kDataLoss);
  std::string flipped = bytes;
  flipped[40] = static_cast<char>(flipped[40] ^ 0x40);  // num_levels goes implausible
  EXPECT_FALSE(LodPyramid::Parse(flipped).ok());
}

TEST(LodTest, NegativeZeroEnergyFoldsAsPositiveZero) {
  // The offer codec writes -0.0 as "-0", which reads back as +0.0; the
  // pyramid must not tell the two apart, or a saved lod.bin would differ
  // from a rebuild after reload.
  std::vector<core::FlexOffer> negative = MakeOffers(13, 20, {});
  negative[0].profile = {core::ProfileSlice{1, -0.0, 1.0}, core::ProfileSlice{1, 0.5, 1.0}};
  negative[0].schedule.reset();
  std::vector<core::FlexOffer> positive = negative;
  positive[0].profile[0].min_energy_kwh = 0.0;
  ASSERT_TRUE(core::Validate(negative[0]).ok());
  EXPECT_EQ(dw::BuildLodPyramid(negative).Serialize(), dw::BuildLodPyramid(positive).Serialize());
}

void AppendLe64(std::string* out, int64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

// A serialized pyramid header: magic, origin 0, the counts, 0 offers.
std::string LodHeader(int64_t num_slices, int64_t num_regions, int64_t num_levels) {
  std::string bytes = "FLXLOD1\n";
  for (int64_t v : {int64_t{0}, num_slices, int64_t{0}, num_regions, num_levels}) {
    AppendLe64(&bytes, v);
  }
  return bytes;
}

TEST(LodTest, ParseRejectsCountsThePayloadCannotHold) {
  // 48 bytes claiming 2^40 region ids.
  const std::string regions = LodHeader(0, int64_t{1} << 40, 0);
  ASSERT_EQ(regions.size(), 48u);
  EXPECT_EQ(LodPyramid::Parse(regions).status().code(), StatusCode::kDataLoss);
  // 72 bytes claiming 2^40 slices: the header plus level 0's own header.
  std::string slices = LodHeader(int64_t{1} << 40, 0, 41);
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{1} << 40}) AppendLe64(&slices, v);
  ASSERT_EQ(slices.size(), 72u);
  EXPECT_EQ(LodPyramid::Parse(slices).status().code(), StatusCode::kDataLoss);
}

TEST(LodTest, ParseSurvivesEveryTruncationAndBitFlip) {
  // A narrow extent keeps the payload small enough to flip every bit of it.
  const std::vector<core::RegionId> regions = {3, 4};
  std::vector<core::FlexOffer> offers = MakeOffers(41, 12, regions);
  for (core::FlexOffer& o : offers) {
    o.earliest_start = T0() + (o.id % 6) * kMinutesPerSlice;
    o.latest_start = o.earliest_start;
    o.schedule.reset();
  }
  const std::string bytes = dw::BuildLodPyramid(offers, regions).Serialize();
  ASSERT_GT(bytes.size(), 1000u);
  for (size_t length = 0; length < bytes.size(); ++length) {
    ASSERT_EQ(LodPyramid::Parse(std::string_view(bytes).substr(0, length)).status().code(),
              StatusCode::kDataLoss)
        << "truncated to " << length;
  }
  // A flip either leaves a payload that still has a builder's geometry
  // (then it parses back to exactly those bytes) or is kDataLoss.
  for (size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    Result<LodPyramid> parsed = LodPyramid::Parse(flipped);
    if (parsed.ok()) {
      ASSERT_EQ(parsed->Serialize(), flipped) << "bit " << bit;
    } else {
      ASSERT_EQ(parsed.status().code(), StatusCode::kDataLoss) << "bit " << bit;
    }
  }
}

// ---- Filter equivalence (the satellite fix) --------------------------------

/// A synthetic day of `num_prosumers` prosumers on the Denmark atlas and a
/// radial grid.
dw::Database WorkloadWarehouse(uint64_t seed, bool planned, int num_prosumers = 30) {
  const geo::Atlas atlas = geo::Atlas::MakeDenmark();
  const grid::GridTopology topology = grid::GridTopology::MakeRadial(2, 2, 2, 3);
  dw::Database db;
  EXPECT_TRUE(atlas.RegisterWithDatabase(db).ok());
  EXPECT_TRUE(topology.RegisterWithDatabase(db).ok());
  sim::WorkloadGenerator generator(&atlas, &topology);
  sim::WorkloadParams params;
  params.seed = seed;
  params.num_prosumers = num_prosumers;
  params.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
  sim::Workload workload = *generator.Generate(params);
  EXPECT_TRUE(sim::WorkloadGenerator::LoadIntoDatabase(workload, db).ok());
  // Planning adds scheduled aggregates, and schedules move placements.
  if (planned) {
    EXPECT_TRUE(sim::Enterprise().RunDayAhead(db, params.horizon).ok());
  }
  return db;
}

class LodFilterTest : public ::testing::Test {
 protected:
  void SetUp() override { db_ = WorkloadWarehouse(515, false); }

  dw::Database db_;
};

TEST_F(LodFilterTest, WindowPredicatesMatchRawScansExactly) {
  ASSERT_GT(db_.NumFlexOffers(), 0u);
  std::vector<core::RegionId> all_regions;
  for (const dw::RegionInfo& r : db_.regions()) all_regions.push_back(r.id);

  // Window matrix: slice-aligned, off-by-one-minute on both edges,
  // mid-slice, degenerate-small, and fully covering.
  std::vector<TimeInterval> windows = {
      TimeInterval(),  // no constraint
      TimeInterval(T0() + 6 * 60, T0() + 12 * 60),
      TimeInterval(T0() + 6 * 60 - 1, T0() + 12 * 60),
      TimeInterval(T0() + 6 * 60, T0() + 12 * 60 + 1),
      TimeInterval(T0() + 6 * 60 + 7, T0() + 6 * 60 + 8),
      TimeInterval(T0() - timeutil::kMinutesPerDay, T0() + 3 * timeutil::kMinutesPerDay),
  };
  for (size_t w = 0; w < windows.size(); ++w) {
    dw::FlexOfferFilter filter;
    filter.window = windows[w];
    // The LOD build over the filtered database...
    Result<LodPyramid> via_db = dw::BuildLodPyramid(db_, filter);
    ASSERT_TRUE(via_db.ok()) << via_db.status().ToString();
    // ...must equal the build over exactly the offers a raw scan selects.
    Result<std::vector<core::FlexOffer>> raw = db_.SelectFlexOffers(filter);
    ASSERT_TRUE(raw.ok());
    const LodPyramid direct = dw::BuildLodPyramid(*raw, all_regions);
    ExpectPyramidsEqual(*via_db, direct, "filter window");
    EXPECT_EQ(via_db->num_offers(), static_cast<int64_t>(raw->size())) << "window " << w;
  }
}

TEST_F(LodFilterTest, NonWindowPredicatesAlsoFlowThrough) {
  std::vector<core::RegionId> all_regions;
  for (const dw::RegionInfo& r : db_.regions()) all_regions.push_back(r.id);
  Result<std::vector<core::FlexOffer>> everything =
      db_.SelectFlexOffers(dw::FlexOfferFilter{});
  ASSERT_TRUE(everything.ok());
  ASSERT_FALSE(everything->empty());

  dw::FlexOfferFilter filter;
  filter.regions = {(*everything)[0].region};
  filter.window = TimeInterval(T0() + 4 * 60, T0() + 20 * 60);
  Result<LodPyramid> via_db = dw::BuildLodPyramid(db_, filter);
  ASSERT_TRUE(via_db.ok());
  Result<std::vector<core::FlexOffer>> raw = db_.SelectFlexOffers(filter);
  ASSERT_TRUE(raw.ok());
  ExpectPyramidsEqual(*via_db, dw::BuildLodPyramid(*raw, all_regions),
                      "region+window filter");
}

TEST_F(LodFilterTest, PersistedPyramidRoundTripsThroughStoreGenerations) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "flexvis_lod" / "persist";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ASSERT_TRUE(dw::SaveDatabase(db_, dir.string()).ok());
  EXPECT_TRUE(fs::exists(dir / dw::kLodFile));

  Result<dw::Database> restored = dw::LoadDatabase(dir.string());
  ASSERT_TRUE(restored.ok());
  ASSERT_NE(restored->lod(), nullptr);
  Result<LodPyramid> rebuilt = dw::BuildLodPyramid(*restored, dw::FlexOfferFilter{});
  ASSERT_TRUE(rebuilt.ok());
  ExpectPyramidsEqual(*restored->lod(), *rebuilt, "persisted vs rebuilt");
  EXPECT_EQ(restored->lod()->Serialize(), rebuilt->Serialize());
  fs::remove_all(dir);
}

// ---- Attached pyramids: what a cold open publishes --------------------------

/// Every warehouse shape the attached-pyramid tests cover, by name.
std::vector<std::pair<std::string, dw::Database>> TestWarehouses() {
  std::vector<std::pair<std::string, dw::Database>> out;
  out.emplace_back("workload", WorkloadWarehouse(515, false));
  out.emplace_back("planned", WorkloadWarehouse(808, true));

  // A valid -0.0 profile energy: the codec writes "-0" and reads back +0.0.
  dw::Database negative_zero;
  EXPECT_TRUE(negative_zero.RegisterRegion({11, "west", core::kInvalidRegionId, "region"}).ok());
  std::vector<core::FlexOffer> offers = MakeOffers(77, 40, {11});
  offers[0].profile = {core::ProfileSlice{1, -0.0, 1.0}, core::ProfileSlice{1, 0.5, 1.0}};
  offers[0].schedule.reset();
  EXPECT_TRUE(negative_zero.LoadFlexOffers(offers).ok());
  out.emplace_back("negative_zero", std::move(negative_zero));

  dw::Database no_regions;
  EXPECT_TRUE(no_regions.LoadFlexOffers(MakeOffers(5, 30, {})).ok());
  out.emplace_back("no_regions", std::move(no_regions));

  dw::Database empty;
  EXPECT_TRUE(empty.RegisterRegion({11, "west", core::kInvalidRegionId, "region"}).ok());
  out.emplace_back("empty", std::move(empty));
  return out;
}

/// The pyramid a fresh registry publishes for `db`, serialized.
std::string PublishedLod(const dw::Database& db) {
  serve::GenerationRegistry registry;
  registry.Publish(std::make_shared<const dw::Database>(db));
  serve::SnapshotRef pin = registry.PinCurrent();
  return pin.empty() ? std::string() : pin->lod.Serialize();
}

std::string RebuiltLod(const dw::Database& db) {
  Result<LodPyramid> rebuilt = dw::BuildLodPyramid(db, dw::FlexOfferFilter{});
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  return rebuilt.ok() ? rebuilt->Serialize() : std::string();
}

std::string LodTempDir(const std::string& name) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "flexvis_lod" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// One mutation of each Database mutator, by name. Each must drop the
/// attached pyramid, succeed or fail.
std::vector<std::pair<std::string, std::function<Status(dw::Database&)>>> Mutators() {
  return {
      {"RegisterProsumer",
       [](dw::Database& db) {
         dw::ProsumerInfo p;
         p.id = 900001;
         p.name = "added";
         return db.RegisterProsumer(p);
       }},
      {"RegisterRegion",
       [](dw::Database& db) {
         return db.RegisterRegion({900002, "added", core::kInvalidRegionId, "region"});
       }},
      {"RegisterGridNode",
       [](dw::Database& db) {
         return db.RegisterGridNode({900003, "added", "feeder", core::kInvalidGridNodeId});
       }},
      {"LoadFlexOffers",
       [](dw::Database& db) {
         core::FlexOffer offer = MakeOffers(3, 1, {}).front();
         offer.id = 900004;
         offer.earliest_start = T0() - timeutil::kMinutesPerDay;
         offer.latest_start = offer.earliest_start;
         offer.schedule.reset();
         return db.LoadFlexOffers({offer});
       }},
      {"UpdateFlexOffer",
       [](dw::Database& db) {
         Result<std::vector<core::FlexOffer>> offers = db.SelectFlexOffers(dw::FlexOfferFilter{});
         if (!offers.ok()) return offers.status();
         // An empty warehouse has nothing to update: the refused call still
         // drops the pyramid.
         core::FlexOffer offer = offers->empty() ? MakeOffers(3, 1, {}).front() : offers->back();
         core::Schedule schedule;
         schedule.start = offer.latest_start;
         for (const core::ProfileSlice& unit : offer.UnitProfile()) {
           schedule.energy_kwh.push_back(unit.max_energy_kwh);
         }
         offer.schedule = schedule;
         offer.state = core::FlexOfferState::kAssigned;
         return db.UpdateFlexOffer(offer);
       }},
  };
}

TEST(LodTest, ColdOpenPublishesTheSavedPyramidOnEveryTestWarehouse) {
  ThreadCountGuard guard;
  for (const auto& [name, warehouse] : TestWarehouses()) {
    for (int threads : {1, 8}) {
      SetParallelThreadCount(threads);
      const std::string label = name + " at " + std::to_string(threads) + " threads";
      const std::string dir = LodTempDir("attach_" + name);
      ASSERT_TRUE(dw::SaveDatabase(warehouse, dir).ok()) << label;
      Result<dw::Database> loaded = dw::LoadDatabase(dir);
      ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
      ASSERT_NE(loaded->lod(), nullptr) << label;
      const std::string rebuilt = RebuiltLod(*loaded);
      EXPECT_EQ(loaded->lod()->Serialize(), rebuilt) << label;
      EXPECT_EQ(PublishedLod(*loaded), rebuilt) << label;
      Result<std::string> saved =
          ReadFileToString((std::filesystem::path(dir) / dw::kLodFile).string());
      ASSERT_TRUE(saved.ok());
      EXPECT_EQ(*saved, rebuilt) << label;

      for (const auto& [mutator, mutate] : Mutators()) {
        dw::Database mutated = *loaded;
        ASSERT_NE(mutated.lod(), nullptr);
        (void)mutate(mutated);
        EXPECT_EQ(mutated.lod(), nullptr) << label << " after " << mutator;
        EXPECT_EQ(PublishedLod(mutated), RebuiltLod(mutated)) << label << " after " << mutator;
      }
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(LodTest, ColdOpenRebuildsWhenTheSavedPyramidIsMissingUnreadableOrStale) {
  const dw::Database warehouse = WorkloadWarehouse(515, false);
  StoreOptions options;
  options.manifest_name = dw::kSnapshotManifest;
  // Re-seals the warehouse with `edit` applied to its files: the manifest
  // stays valid, so only the pyramid check can notice.
  auto reseal = [&](const std::string& dir, const std::function<void(StoreFiles&)>& edit) {
    Result<StoreRecovery> recovery = DurableStore::Recover(dir, options);
    ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
    StoreFiles files;
    for (const StoreFileEntry& entry : recovery->entries) {
      files.emplace_back(entry.name, recovery->files.at(entry.name));
    }
    edit(files);
    Result<DurableStore> store = DurableStore::Create(dir, options, files, JsonValue());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store->Close().ok());
  };
  const std::vector<std::pair<std::string, std::function<void(StoreFiles&)>>> cases = {
      {"uncovered",
       [](StoreFiles& files) {
         std::erase_if(files, [](const auto& file) { return file.first == dw::kLodFile; });
       }},
      {"unparsable",
       [](StoreFiles& files) {
         for (auto& [name, content] : files) {
           if (name == dw::kLodFile) content = "not a pyramid";
         }
       }},
      {"stale",
       [](StoreFiles& files) {
         // Drop the last offer line: lod.bin now counts one offer too many.
         for (auto& [name, content] : files) {
           if (name != "flexoffers.jsonl") continue;
           content.pop_back();
           content.resize(content.rfind('\n') + 1);
         }
       }},
  };
  for (const auto& [name, edit] : cases) {
    const std::string dir = LodTempDir("fallback_" + name);
    ASSERT_TRUE(dw::SaveDatabase(warehouse, dir).ok());
    reseal(dir, edit);
    Result<dw::Database> loaded = dw::LoadDatabase(dir);
    ASSERT_TRUE(loaded.ok()) << name << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded->lod(), nullptr) << name;
    if (name == "stale") {
      EXPECT_EQ(loaded->NumFlexOffers(), warehouse.NumFlexOffers() - 1);
    }
    EXPECT_EQ(PublishedLod(*loaded), RebuiltLod(*loaded)) << name;
    std::filesystem::remove_all(dir);
  }
}

TEST(LodTest, AttachRefusesAPyramidOfAnotherShape) {
  const dw::Database warehouse = WorkloadWarehouse(515, false);
  Result<std::vector<core::FlexOffer>> offers = warehouse.SelectFlexOffers(dw::FlexOfferFilter{});
  ASSERT_TRUE(offers.ok());
  ASSERT_GT(offers->size(), 2u);
  const std::vector<core::RegionId> regions = dw::LodRegions(warehouse);

  std::vector<core::FlexOffer> fewer(offers->begin(), offers->end() - 1);
  std::vector<core::FlexOffer> shifted = *offers;
  shifted.front().earliest_start = shifted.front().earliest_start - timeutil::kMinutesPerDay;
  const std::vector<core::RegionId> fewer_regions(regions.begin() + 1, regions.end());
  const std::vector<std::pair<const char*, LodPyramid>> wrong = {
      {"offer count", dw::BuildLodPyramid(fewer, regions)},
      {"extent", dw::BuildLodPyramid(shifted, regions)},
      {"regions", dw::BuildLodPyramid(*offers, fewer_regions)},
  };
  dw::Database db = warehouse;
  for (const auto& [what, pyramid] : wrong) {
    EXPECT_EQ(db.AttachLod(pyramid).code(), StatusCode::kFailedPrecondition) << what;
    EXPECT_EQ(db.lod(), nullptr) << what;
  }
  ASSERT_TRUE(db.AttachLod(dw::BuildLodPyramid(*offers, regions)).ok());
  ASSERT_NE(db.lod(), nullptr);
  EXPECT_EQ(db.lod()->Serialize(), RebuiltLod(warehouse));
}

// ---- The column build and what a publish serves ---------------------------

/// Offers loaded in two batches, ids descending within and across them: the
/// fact rows run against id order.
dw::Database DescendingIdWarehouse() {
  dw::Database db;
  for (core::RegionId region : {11, 22, 33}) {
    EXPECT_TRUE(db.RegisterRegion({region, "r", core::kInvalidRegionId, "region"}).ok());
  }
  std::vector<core::FlexOffer> offers = MakeOffers(61, 2500, {11, 22, 33});
  std::reverse(offers.begin(), offers.end());
  const auto half = offers.begin() + static_cast<ptrdiff_t>(offers.size() / 2);
  EXPECT_TRUE(db.LoadFlexOffers({offers.begin(), half}).ok());
  EXPECT_TRUE(db.LoadFlexOffers({half, offers.end()}).ok());
  return db;
}

/// Unscheduled offers; UpdateFlexOffer then schedules every third at its
/// latest start and clears the schedule of every sixth again.
dw::Database RescheduledWarehouse() {
  dw::Database db;
  for (core::RegionId region : {11, 22}) {
    EXPECT_TRUE(db.RegisterRegion({region, "r", core::kInvalidRegionId, "region"}).ok());
  }
  std::vector<core::FlexOffer> offers = MakeOffers(62, 1500, {11, 22});
  for (core::FlexOffer& o : offers) o.schedule.reset();
  EXPECT_TRUE(db.LoadFlexOffers(offers).ok());
  for (size_t i = 0; i < offers.size(); i += 3) {
    core::FlexOffer o = offers[i];
    core::Schedule schedule;
    schedule.start = o.latest_start;
    for (const core::ProfileSlice& unit : o.UnitProfile()) {
      schedule.energy_kwh.push_back(unit.max_energy_kwh);
    }
    o.schedule = schedule;
    o.state = core::FlexOfferState::kAssigned;
    EXPECT_TRUE(db.UpdateFlexOffer(o).ok());
  }
  for (size_t i = 0; i < offers.size(); i += 6) {
    core::FlexOffer o = offers[i];
    o.state = core::FlexOfferState::kAccepted;
    EXPECT_TRUE(db.UpdateFlexOffer(o).ok());
  }
  return db;
}

/// The filters the column build must honor as SelectFlexOffers does: the
/// LodFilterTest windows, every predicate alone with a value taken from
/// `db`'s first offer, a combination, and one that selects nothing.
std::vector<dw::FlexOfferFilter> OracleFilters(const dw::Database& db) {
  std::vector<dw::FlexOfferFilter> filters;
  for (const TimeInterval& window :
       {TimeInterval(), TimeInterval(T0() + 6 * 60, T0() + 12 * 60),
        TimeInterval(T0() + 6 * 60 - 1, T0() + 12 * 60),
        TimeInterval(T0() + 6 * 60, T0() + 12 * 60 + 1),
        TimeInterval(T0() + 6 * 60 + 7, T0() + 6 * 60 + 8),
        TimeInterval(T0() - timeutil::kMinutesPerDay, T0() + 3 * timeutil::kMinutesPerDay)}) {
    dw::FlexOfferFilter filter;
    filter.window = window;
    filters.push_back(filter);
  }
  core::FlexOffer o;
  if (db.NumFlexOffers() > 0) o = db.SelectFlexOffers(dw::FlexOfferFilter{})->front();
  auto add = [&](const std::function<void(dw::FlexOfferFilter&)>& set) {
    dw::FlexOfferFilter filter;
    set(filter);
    filters.push_back(filter);
  };
  add([&](dw::FlexOfferFilter& f) { f.prosumer = o.prosumer; });
  add([&](dw::FlexOfferFilter& f) { f.prosumer = -5; });
  add([&](dw::FlexOfferFilter& f) {
    f.states = {core::FlexOfferState::kAssigned, core::FlexOfferState::kAccepted};
  });
  add([&](dw::FlexOfferFilter& f) { f.regions = {o.region}; });
  add([&](dw::FlexOfferFilter& f) { f.grid_nodes = {o.grid_node}; });
  add([&](dw::FlexOfferFilter& f) { f.energy_types = {o.energy_type}; });
  add([&](dw::FlexOfferFilter& f) { f.prosumer_types = {o.prosumer_type}; });
  add([&](dw::FlexOfferFilter& f) { f.appliance_types = {o.appliance_type}; });
  add([&](dw::FlexOfferFilter& f) { f.direction = o.direction; });
  add([&](dw::FlexOfferFilter& f) {
    f.aggregates = dw::FlexOfferFilter::AggregateFilter::kOnlyAggregates;
  });
  add([&](dw::FlexOfferFilter& f) { f.aggregates = dw::FlexOfferFilter::AggregateFilter::kOnlyRaw; });
  add([&](dw::FlexOfferFilter& f) {
    f.regions = {o.region};
    f.window = TimeInterval(T0() + 4 * 60, T0() + 20 * 60);
    f.aggregates = dw::FlexOfferFilter::AggregateFilter::kOnlyRaw;
  });
  return filters;
}

TEST(LodTest, ColumnBuildEqualsTheOfferBuildOnEveryWarehouseAndFilter) {
  std::vector<std::pair<std::string, dw::Database>> warehouses = TestWarehouses();
  warehouses.emplace_back("descending_ids", DescendingIdWarehouse());
  warehouses.emplace_back("rescheduled", RescheduledWarehouse());
  ThreadCountGuard guard;
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    for (const auto& [name, db] : warehouses) {
      const std::vector<dw::FlexOfferFilter> filters = OracleFilters(db);
      for (size_t f = 0; f < filters.size(); ++f) {
        const std::string label =
            name + " filter " + std::to_string(f) + " at " + std::to_string(threads) + " threads";
        Result<LodPyramid> via_columns = dw::BuildLodPyramid(db, filters[f]);
        ASSERT_TRUE(via_columns.ok()) << label << ": " << via_columns.status().ToString();
        Result<std::vector<core::FlexOffer>> selected = db.SelectFlexOffers(filters[f]);
        ASSERT_TRUE(selected.ok()) << label;
        EXPECT_EQ(via_columns->Serialize(),
                  dw::BuildLodPyramid(*selected, dw::LodRegions(db)).Serialize())
            << label;
      }
    }
  }
}

TEST(LodTest, PublishedPyramidBytesArePinned) {
  // CRC-32 of the pyramid ServeEngine::Publish serves for each warehouse. A
  // change to these literals changes what every publish serves: it belongs
  // in the diff that makes that change.
  const std::map<std::string, uint32_t> kPinned = {
      {"descending_ids", 0x36cfaa2d},
      {"generated", 0xf633291d},
      {"planned", 0xbb5019bb},
      {"rescheduled", 0x7da740f5}};
  ThreadCountGuard guard;
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    std::vector<std::pair<std::string, dw::Database>> warehouses;
    warehouses.emplace_back("generated", WorkloadWarehouse(4242, false, 300));
    warehouses.emplace_back("planned", WorkloadWarehouse(4242, true, 300));
    warehouses.emplace_back("descending_ids", DescendingIdWarehouse());
    warehouses.emplace_back("rescheduled", RescheduledWarehouse());
    std::map<std::string, uint32_t> published;
    for (auto& [name, db] : warehouses) {
      serve::ServeEngine engine(serve::ServeEngine::Options{});
      engine.Publish(std::make_shared<const dw::Database>(std::move(db)));
      serve::SnapshotRef pin = engine.registry().PinCurrent();
      ASSERT_FALSE(pin.empty()) << name;
      EXPECT_GT(pin->lod.num_offers(), 1024) << name;
      published[name] = Crc32(pin->lod.Serialize());
    }
    EXPECT_EQ(published, kPinned) << threads << " threads";
  }
}

}  // namespace
}  // namespace flexvis
