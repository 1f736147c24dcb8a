#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/messages.h"
#include "dw/database.h"
#include "dw/lod.h"
#include "dw/persistence.h"
#include "dw/query.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "serve/registry.h"
#include "sim/enterprise.h"
#include "sim/workload.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace flexvis::dw {
namespace {

using core::FlexOffer;
using core::ProfileSlice;
using timeutil::kMinutesPerSlice;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

// ---- Value ------------------------------------------------------------------

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(int64_t{5}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value(std::string("x")).is_string());
  EXPECT_EQ(Value(int64_t{5}).AsInt(), 5);
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value(std::string("x")).AsString(), "x");
}

TEST(ValueTest, ToNumberWidens) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).ToNumber(), 3.0);
  EXPECT_DOUBLE_EQ(Value(1.5).ToNumber(), 1.5);
  EXPECT_DOUBLE_EQ(Value().ToNumber(), 0.0);
  EXPECT_DOUBLE_EQ(Value(std::string("9")).ToNumber(), 0.0);
}

TEST(ValueTest, OrderingNullNumberString) {
  EXPECT_LT(Value(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{1}), Value(std::string("a")));
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value(1.5), Value(int64_t{2}));
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));  // numeric cross-type equality
  EXPECT_LT(Value(std::string("a")), Value(std::string("b")));
  EXPECT_EQ(Value(), Value());
}

// ---- Table ---------------------------------------------------------------------

Table MakeTestTable() {
  Table t("t", {{"id", ColumnType::kInt64},
                {"score", ColumnType::kDouble},
                {"name", ColumnType::kString}});
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value(1.5), Value(std::string("a"))}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{2}), Value(2.5), Value(std::string("b"))}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{3}), Value::Null(), Value(std::string("a"))}).ok());
  return t;
}

TEST(TableTest, AppendAndRead) {
  Table t = MakeTestTable();
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.NumColumns(), 3u);
  EXPECT_EQ(t.FindColumn("id")->GetInt64(1), 2);
  EXPECT_TRUE(t.FindColumn("score")->IsNull(2));
  EXPECT_FALSE(t.FindColumn("score")->IsNull(0));
  EXPECT_EQ(t.FindColumn("name")->GetString(2), "a");
  EXPECT_EQ(t.column(0).Get(0), Value(int64_t{1}));
  EXPECT_EQ(t.column(1).Get(0), Value(1.5));
  EXPECT_EQ(t.column(2).Get(0), Value(std::string("a")));
  EXPECT_TRUE(t.column(1).Get(2).is_null());
}

TEST(TableTest, TypeMismatchRejectedAtomically) {
  Table t = MakeTestTable();
  // Third cell has the wrong type; the row must not be partially applied.
  Status s = t.AppendRow({Value(int64_t{4}), Value(1.0), Value(int64_t{9})});
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(t.NumRows(), 3u);
  for (size_t c = 0; c < t.NumColumns(); ++c) EXPECT_EQ(t.column(c).size(), 3u);
}

TEST(TableTest, WrongArityRejected) {
  Table t = MakeTestTable();
  EXPECT_FALSE(t.AppendRow({Value(int64_t{4})}).ok());
}

TEST(TableTest, IntWidensIntoDoubleColumn) {
  Table t("w", {{"v", ColumnType::kDouble}});
  EXPECT_TRUE(t.AppendRow({Value(int64_t{3})}).ok());
  EXPECT_DOUBLE_EQ(t.FindColumn("v")->GetDouble(0), 3.0);
}

TEST(TableTest, SetOverwritesAndNulls) {
  Table t = MakeTestTable();
  EXPECT_TRUE(t.column(1).Set(0, Value(9.0)).ok());
  EXPECT_DOUBLE_EQ(t.FindColumn("score")->GetDouble(0), 9.0);
  EXPECT_TRUE(t.column(1).Set(0, Value::Null()).ok());
  EXPECT_TRUE(t.FindColumn("score")->IsNull(0));
  EXPECT_TRUE(t.column(1).Set(0, Value(4.0)).ok());
  EXPECT_FALSE(t.FindColumn("score")->IsNull(0));
  EXPECT_FALSE(t.column(1).Set(99, Value(1.0)).ok());
  EXPECT_FALSE(t.column(0).Set(0, Value(std::string("x"))).ok());
}

TEST(TableTest, ColumnIndexLookup) {
  Table t = MakeTestTable();
  EXPECT_EQ(*t.ColumnIndex("name"), 2u);
  EXPECT_FALSE(t.ColumnIndex("nope").ok());
  EXPECT_EQ(t.FindColumn("nope"), nullptr);
}

TEST(TableTest, AppendRowsRefusesAShortOrLongColumnAndKeepsEveryColumn) {
  // Each column in turn ends one cell short or one long, through the
  // per-cell appends and through the bulk ones; the fill also appends a null
  // to the id column, which had none. The refused call must leave every cell
  // and null flag as it was, and the table must take a correct fill
  // afterwards.
  for (bool bulk : {false, true}) {
    for (size_t wrong = 0; wrong < 3; ++wrong) {
      for (int delta : {-1, 1}) {
        const std::string label = std::string(bulk ? "bulk" : "per-cell") + " column " +
                                  std::to_string(wrong) + (delta < 0 ? " short" : " long");
        Table t = MakeTestTable();
        auto cells = [&](size_t column) { return column == wrong ? 2 + delta : 2; };
        const Status s = t.AppendRows(2, [&](Column* c) {
          if (bulk) {
            uint8_t* valid = nullptr;
            int64_t* ids = c[0].GrowInt64(static_cast<size_t>(cells(0)), &valid);
            for (int i = 0; i < cells(0); ++i) ids[i] = 10 + i;
            valid[0] = 0;
            double* scores = c[1].GrowDouble(static_cast<size_t>(cells(1)));
            for (int i = 0; i < cells(1); ++i) scores[i] = 0.5 * i;
          } else {
            EXPECT_TRUE(c[0].Append(Value::Null()).ok());
            for (int i = 1; i < cells(0); ++i) EXPECT_TRUE(c[0].Append(Value(int64_t{10 + i})).ok());
            for (int i = 0; i < cells(1); ++i) EXPECT_TRUE(c[1].Append(Value(0.5 * i)).ok());
          }
          for (int i = 0; i < cells(2); ++i) EXPECT_TRUE(c[2].Append(Value(std::string("n"))).ok());
        });
        EXPECT_EQ(s.code(), StatusCode::kInternal) << label;
        EXPECT_EQ(t.NumRows(), 3u) << label;
        const Table before = MakeTestTable();
        for (size_t c = 0; c < t.NumColumns(); ++c) {
          ASSERT_EQ(t.column(c).size(), 3u) << label;
          for (size_t r = 0; r < 3; ++r) {
            EXPECT_EQ(t.column(c).IsNull(r), before.column(c).IsNull(r)) << label;
            EXPECT_EQ(t.column(c).Get(r), before.column(c).Get(r)) << label;
          }
        }

        ASSERT_TRUE(t.AppendRows(1, [&](Column* c) {
                      if (bulk) {
                        *c[0].GrowInt64(1) = 4;
                        *c[1].GrowDouble(1) = 4.5;
                      } else {
                        EXPECT_TRUE(c[0].Append(Value(int64_t{4})).ok());
                        EXPECT_TRUE(c[1].Append(Value(4.5)).ok());
                      }
                      EXPECT_TRUE(c[2].Append(Value(std::string("d"))).ok());
                    }).ok())
            << label;
        EXPECT_EQ(t.NumRows(), 4u) << label;
        EXPECT_FALSE(t.column(0).IsNull(3)) << label;
        EXPECT_EQ(t.column(0).GetInt64(3), 4) << label;
        EXPECT_TRUE(t.column(1).IsNull(2)) << label;
        EXPECT_FALSE(t.column(1).IsNull(3)) << label;
      }
    }
  }
}

TEST(TableTest, BulkAppendsCarryNullFlags) {
  Table t("b", {{"v", ColumnType::kInt64}});
  ASSERT_TRUE(t.AppendRows(2, [](Column* c) {
                 int64_t* v = c[0].GrowInt64(2);
                 v[0] = 1;
                 v[1] = 2;
               }).ok());
  ASSERT_TRUE(t.AppendRows(3, [](Column* c) {
                 uint8_t* valid = nullptr;
                 int64_t* v = c[0].GrowInt64(3, &valid);
                 v[0] = 3;
                 valid[1] = 0;
                 v[2] = 5;
               }).ok());
  ASSERT_TRUE(t.AppendRows(1, [](Column* c) { *c[0].GrowInt64(1) = 6; }).ok());
  ASSERT_EQ(t.NumRows(), 6u);
  const std::vector<bool> nulls = {false, false, false, true, false, false};
  for (size_t r = 0; r < nulls.size(); ++r) {
    EXPECT_EQ(t.column(0).IsNull(r), nulls[r]) << r;
    if (!nulls[r]) {
      EXPECT_EQ(t.column(0).GetInt64(r), static_cast<int64_t>(r) + 1) << r;
    }
  }
}

// ---- Query (FilterRows) -----------------------------------------------------------

TEST(QueryTest, FilterEqAndIn) {
  Table t = MakeTestTable();
  Result<std::vector<size_t>> rows =
      FilterRows(t, {Predicate::Eq("name", Value(std::string("a")))});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<size_t>{0, 2}));

  rows = FilterRows(t, {Predicate::In("id", {Value(int64_t{1}), Value(int64_t{3})})});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<size_t>{0, 2}));
}

TEST(QueryTest, RangePredicates) {
  Table t = MakeTestTable();
  Result<std::vector<size_t>> rows = FilterRows(
      t, {Predicate::Ge("id", Value(int64_t{2})), Predicate::Lt("id", Value(int64_t{3}))});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(t.FindColumn("id")->GetInt64((*rows)[0]), 2);
}

TEST(QueryTest, UnknownColumnErrors) {
  Table t = MakeTestTable();
  EXPECT_EQ(FilterRows(t, {Predicate::Eq("ghost", Value(int64_t{1}))}).status().code(),
            StatusCode::kNotFound);
}

// ---- Database ---------------------------------------------------------------------

FlexOffer MakeOffer(core::FlexOfferId id, core::ProsumerId prosumer, int64_t est_slices,
                    int64_t flex_slices) {
  FlexOffer o;
  o.id = id;
  o.prosumer = prosumer;
  o.region = 100;
  o.grid_node = 7;
  o.earliest_start = T0() + est_slices * kMinutesPerSlice;
  o.latest_start = o.earliest_start + flex_slices * kMinutesPerSlice;
  o.creation_time = o.earliest_start - 600;
  o.acceptance_deadline = o.creation_time + 60;
  o.assignment_deadline = o.creation_time + 120;
  o.profile = {ProfileSlice{2, 1.0, 2.0}, ProfileSlice{1, 0.5, 0.5}};
  return o;
}

TEST(DatabaseTest, DimensionRegistration) {
  Database db;
  EXPECT_TRUE(db.RegisterRegion(RegionInfo{1, "Denmark", core::kInvalidRegionId, "country"}).ok());
  EXPECT_TRUE(db.RegisterRegion(RegionInfo{10, "West", 1, "region"}).ok());
  EXPECT_TRUE(db.RegisterRegion(RegionInfo{100, "Aalborg", 10, "city"}).ok());
  EXPECT_EQ(db.RegisterRegion(RegionInfo{1, "dup", -1, "country"}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.FindRegion(10)->name, "West");
  EXPECT_FALSE(db.FindRegion(999).ok());

  std::vector<core::RegionId> subtree = db.RegionSubtree(1);
  EXPECT_EQ(subtree.size(), 3u);
  EXPECT_EQ(db.RegionSubtree(100).size(), 1u);

  EXPECT_TRUE(db.RegisterProsumer(ProsumerInfo{5, "P5", core::ProsumerType::kHousehold,
                                               100, 7}).ok());
  EXPECT_FALSE(db.RegisterProsumer(ProsumerInfo{5, "dup", {}, 0, 0}).ok());
  EXPECT_EQ(db.FindProsumer(5)->name, "P5");
  EXPECT_EQ(db.dim_prosumer().NumRows(), 1u);
  EXPECT_EQ(db.dim_region().NumRows(), 3u);

  EXPECT_TRUE(db.RegisterGridNode(GridNodeInfo{7, "F-001", "feeder", 3}).ok());
  EXPECT_FALSE(db.RegisterGridNode(GridNodeInfo{7, "dup", "feeder", 3}).ok());
  EXPECT_EQ(db.FindGridNode(7)->kind, "feeder");
}

TEST(DatabaseTest, DimensionLookupsAreIndexedAndKeepTheirMessages) {
  Database db;
  constexpr int64_t kProsumers = 5000;
  for (int64_t i = 0; i < kProsumers; ++i) {
    ASSERT_TRUE(db.RegisterProsumer(ProsumerInfo{i * 7, "P", core::ProsumerType::kHousehold,
                                                 100, 7})
                    .ok());
  }
  for (int64_t i = 0; i < kProsumers; ++i) ASSERT_EQ(db.FindProsumer(i * 7)->id, i * 7);
  EXPECT_EQ(db.prosumers()[1234].id, 1234 * 7);  // registration order is kept
  Status dup = db.RegisterProsumer(ProsumerInfo{35, "dup", {}, 0, 0});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(dup.message(), "prosumer 35 already registered");
  EXPECT_EQ(db.dim_prosumer().NumRows(), static_cast<size_t>(kProsumers));
  EXPECT_EQ(db.FindProsumer(36).status().message(), "prosumer 36 not found");

  ASSERT_TRUE(db.RegisterRegion(RegionInfo{1, "Denmark", core::kInvalidRegionId, "country"}).ok());
  EXPECT_EQ(db.RegisterRegion(RegionInfo{1, "dup", -1, "country"}).message(),
            "region 1 already registered");
  EXPECT_EQ(db.FindRegion(2).status().message(), "region 2 not found");
  ASSERT_TRUE(db.RegisterGridNode(GridNodeInfo{7, "F-001", "feeder", 3}).ok());
  EXPECT_EQ(db.RegisterGridNode(GridNodeInfo{7, "dup", "feeder", 3}).message(),
            "grid node 7 already registered");
  EXPECT_EQ(db.FindGridNode(8).status().message(), "grid node 8 not found");

  // Copies carry their index.
  Database copy = db;
  EXPECT_EQ(copy.FindProsumer(7 * 4999)->id, 7 * 4999);
  EXPECT_EQ(copy.FindGridNode(7)->name, "F-001");
}

TEST(DatabaseTest, LoadAndRoundTrip) {
  Database db;
  FlexOffer original = MakeOffer(1, 5, 0, 4);
  original.schedule = core::Schedule{original.earliest_start + kMinutesPerSlice,
                                     {1.5, 1.5, 0.5}};
  original.state = core::FlexOfferState::kAssigned;
  ASSERT_TRUE(db.LoadFlexOffers({original}).ok());
  EXPECT_EQ(db.NumFlexOffers(), 1u);
  EXPECT_EQ(db.fact_profile_slice().NumRows(), 2u);  // one row per RLE slice

  Result<FlexOffer> restored = db.GetFlexOffer(1);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->id, original.id);
  EXPECT_EQ(restored->prosumer, original.prosumer);
  EXPECT_EQ(restored->earliest_start, original.earliest_start);
  EXPECT_EQ(restored->latest_start, original.latest_start);
  EXPECT_EQ(restored->profile, original.profile);  // RLE round-trips
  ASSERT_TRUE(restored->schedule.has_value());
  EXPECT_EQ(restored->schedule->start, original.schedule->start);
  EXPECT_EQ(restored->schedule->energy_kwh, original.schedule->energy_kwh);
  EXPECT_EQ(restored->state, core::FlexOfferState::kAssigned);
}

TEST(DatabaseTest, DuplicateAndInvalidLoadRejected) {
  Database db;
  FlexOffer o = MakeOffer(1, 5, 0, 4);
  ASSERT_TRUE(db.LoadFlexOffers({o}).ok());
  EXPECT_EQ(db.LoadFlexOffers({o}).code(), StatusCode::kAlreadyExists);
  FlexOffer bad = MakeOffer(2, 5, 0, 4);
  bad.profile.clear();
  EXPECT_EQ(db.LoadFlexOffers({bad}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.NumFlexOffers(), 1u);
}

TEST(DatabaseTest, DuplicateIdsInsideOneBatchAreRejectedBeforeAnyAppend) {
  Database db;
  ASSERT_TRUE(db.LoadFlexOffers({MakeOffer(7, 5, 0, 4)}).ok());
  FlexOffer twin = MakeOffer(1, 5, 0, 4);
  twin.profile.push_back(ProfileSlice{3, 0.0, 1.0});
  Status status = db.LoadFlexOffers({MakeOffer(1, 5, 0, 4), MakeOffer(2, 6, 0, 4), twin});
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(status.message(), "flex-offer 1 appears twice in one load");
  // Nothing of the batch landed.
  EXPECT_EQ(db.NumFlexOffers(), 1u);
  EXPECT_EQ(db.fact_profile_slice().NumRows(), 2u);
  EXPECT_FALSE(db.GetFlexOffer(1).ok());
  EXPECT_EQ(db.SelectFlexOffers({})->size(), 1u);

  // The first failing offer decides: an invalid offer before the repeat...
  FlexOffer bad = MakeOffer(3, 5, 0, 4);
  bad.profile.clear();
  EXPECT_EQ(db.LoadFlexOffers({MakeOffer(1, 5, 0, 4), bad, MakeOffer(1, 5, 0, 4)}).code(),
            StatusCode::kInvalidArgument);
  // ...and an id loaded earlier before an in-batch repeat.
  EXPECT_EQ(db.LoadFlexOffers({MakeOffer(4, 5, 0, 4), MakeOffer(7, 5, 0, 4),
                               MakeOffer(4, 5, 0, 4)})
                .message(),
            "flex-offer 7 already loaded");
  EXPECT_EQ(db.NumFlexOffers(), 1u);
}

TEST(DatabaseTest, LoadRefusesProfilesPastTheUnitSliceLimit) {
  // 2 x 1.5e9 unit slices: the row expansion would overflow and abort, so
  // the batch must be refused before it.
  Database db;
  FlexOffer huge = MakeOffer(2, 5, 0, 4);
  huge.profile = {ProfileSlice{1'500'000'000, 0.0, 1.0}, ProfileSlice{1'500'000'000, 0.0, 1.0}};
  Status status = db.LoadFlexOffers({MakeOffer(1, 5, 0, 4), huge});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.NumFlexOffers(), 0u);
  EXPECT_EQ(db.fact_profile_slice().NumRows(), 0u);
}

TEST(DatabaseTest, AggregateProvenancePersists) {
  Database db;
  FlexOffer member1 = MakeOffer(1, 5, 0, 4);
  FlexOffer member2 = MakeOffer(2, 6, 0, 4);
  FlexOffer agg = MakeOffer(100, core::kInvalidProsumerId, 0, 4);
  agg.aggregated_from = {1, 2};
  ASSERT_TRUE(db.LoadFlexOffers({member1, member2, agg}).ok());
  EXPECT_EQ(db.bridge_aggregation().NumRows(), 2u);
  Result<FlexOffer> restored = db.GetFlexOffer(100);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->aggregated_from, (std::vector<core::FlexOfferId>{1, 2}));
  EXPECT_TRUE(restored->is_aggregate());
}

TEST(DatabaseTest, SelectFiltersByProsumerWindowAndState) {
  Database db;
  std::vector<FlexOffer> offers;
  for (int i = 0; i < 10; ++i) {
    FlexOffer o = MakeOffer(i + 1, i % 2 == 0 ? 5 : 6, i * 8, 4);
    o.state = i < 5 ? core::FlexOfferState::kAccepted : core::FlexOfferState::kRejected;
    offers.push_back(o);
  }
  ASSERT_TRUE(db.LoadFlexOffers(offers).ok());

  FlexOfferFilter by_prosumer;
  by_prosumer.prosumer = 5;
  EXPECT_EQ(db.SelectFlexOffers(by_prosumer)->size(), 5u);

  FlexOfferFilter by_window;
  by_window.window = timeutil::TimeInterval(T0(), T0() + 8 * kMinutesPerSlice);
  // Offers 1 (est 0) and 2 (est 8 slices) overlap? Offer 2 starts exactly at
  // window end -> no overlap (half-open); offer 1 overlaps.
  EXPECT_EQ(db.SelectFlexOffers(by_window)->size(), 1u);

  FlexOfferFilter by_state;
  by_state.states = {core::FlexOfferState::kRejected};
  EXPECT_EQ(db.SelectFlexOffers(by_state)->size(), 5u);

  FlexOfferFilter combo;
  combo.prosumer = 5;
  combo.states = {core::FlexOfferState::kAccepted};
  EXPECT_EQ(db.SelectFlexOffers(combo)->size(), 3u);  // offers 1, 3, 5
}

TEST(DatabaseTest, SelectReturnsIdOrder) {
  Database db;
  ASSERT_TRUE(db.LoadFlexOffers({MakeOffer(3, 1, 0, 1), MakeOffer(1, 1, 4, 1),
                                 MakeOffer(2, 1, 8, 1)}).ok());
  Result<std::vector<FlexOffer>> all = db.SelectFlexOffers(FlexOfferFilter{});
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 3u);
  EXPECT_EQ((*all)[0].id, 1);
  EXPECT_EQ((*all)[2].id, 3);
}

TEST(DatabaseTest, UpdateFlexOfferChangesStateAndSchedule) {
  Database db;
  FlexOffer o = MakeOffer(1, 5, 0, 4);
  ASSERT_TRUE(db.LoadFlexOffers({o}).ok());

  o.state = core::FlexOfferState::kAssigned;
  o.schedule = core::Schedule{o.earliest_start + 2 * kMinutesPerSlice, {2.0, 1.0, 0.5}};
  ASSERT_TRUE(db.UpdateFlexOffer(o).ok());

  Result<FlexOffer> restored = db.GetFlexOffer(1);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->state, core::FlexOfferState::kAssigned);
  ASSERT_TRUE(restored->schedule.has_value());
  EXPECT_EQ(restored->schedule->energy_kwh, (std::vector<double>{2.0, 1.0, 0.5}));

  // Clearing the schedule also round-trips.
  o.state = core::FlexOfferState::kRejected;
  o.schedule.reset();
  ASSERT_TRUE(db.UpdateFlexOffer(o).ok());
  restored = db.GetFlexOffer(1);
  EXPECT_EQ(restored->state, core::FlexOfferState::kRejected);
  EXPECT_FALSE(restored->schedule.has_value());

  EXPECT_EQ(db.UpdateFlexOffer(MakeOffer(99, 1, 0, 1)).code(), StatusCode::kNotFound);
}

TEST(DatabaseTest, AggregateFilterModes) {
  Database db;
  FlexOffer raw = MakeOffer(1, 5, 0, 4);
  FlexOffer agg = MakeOffer(2, core::kInvalidProsumerId, 0, 4);
  agg.aggregated_from = {1};
  ASSERT_TRUE(db.LoadFlexOffers({raw, agg}).ok());

  FlexOfferFilter only_raw;
  only_raw.aggregates = FlexOfferFilter::AggregateFilter::kOnlyRaw;
  EXPECT_EQ(db.SelectFlexOffers(only_raw)->size(), 1u);
  FlexOfferFilter only_agg;
  only_agg.aggregates = FlexOfferFilter::AggregateFilter::kOnlyAggregates;
  EXPECT_EQ(db.SelectFlexOffers(only_agg)->size(), 1u);
  EXPECT_EQ(db.SelectFlexOffers(FlexOfferFilter{})->size(), 2u);
}

TEST(DatabaseTest, UpdateFlexOfferRefusesAProfileOtherThanTheLoadedOne) {
  Database db;
  const FlexOffer original = MakeOffer(1, 5, 0, 4);  // {2, 1.0, 2.0}, {1, 0.5, 0.5}
  ASSERT_TRUE(db.LoadFlexOffers({original}).ok());

  FlexOffer shorter = original;
  shorter.profile = {ProfileSlice{2, 1.0, 2.0}};
  shorter.state = core::FlexOfferState::kAssigned;
  shorter.schedule = core::Schedule{original.earliest_start, {1.5, 1.5}};
  ASSERT_TRUE(core::Validate(shorter).ok());
  Status status = db.UpdateFlexOffer(shorter);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("flex-offer 1"), std::string::npos) << status.message();

  // Nothing was written, so the warehouse still saves and loads.
  Result<FlexOffer> stored = db.GetFlexOffer(1);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(core::EncodeFlexOffer(*stored), core::EncodeFlexOffer(original));
  const std::string dir =
      (std::filesystem::temp_directory_path() / "flexvis_dw_update_profile").string();
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(SaveDatabase(db, dir).ok());
  Result<Database> loaded = LoadDatabase(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Result<FlexOffer> reloaded = loaded->GetFlexOffer(1);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(core::EncodeFlexOffer(*reloaded), core::EncodeFlexOffer(original));
  std::filesystem::remove_all(dir);
}

// ---- Canonical profiles ------------------------------------------------------------

// ---- The LOD extent cap ------------------------------------------------------

/// An offer starting exactly at `start`, with no time flexibility.
FlexOffer OfferAt(core::FlexOfferId id, TimePoint start) {
  FlexOffer o = MakeOffer(id, 1, 0, 0);
  o.earliest_start = start;
  o.latest_start = start;
  o.creation_time = start - 600;
  o.acceptance_deadline = o.creation_time + 60;
  o.assignment_deadline = o.creation_time + 120;
  return o;
}

TEST(LodTest, AnExtentPastTheSliceCapIsATypedStatusNotAnAbort) {
  // Two offers that each validate, starting 1.5e9 minutes apart: sized from
  // their extent, level 0 alone would hold 10^8 buckets.
  const std::vector<FlexOffer> offers = {OfferAt(1, T0()), OfferAt(2, T0() + 1'500'000'000)};
  for (const FlexOffer& o : offers) ASSERT_TRUE(core::Validate(o).ok());
  Database db;
  ASSERT_TRUE(db.LoadFlexOffers(offers).ok());

  EXPECT_EQ(BuildLodPyramid(db, FlexOfferFilter{}).status().code(), StatusCode::kOutOfRange);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "flexvis_dw_lod_past_cap";
  std::filesystem::remove_all(dir);
  EXPECT_EQ(SaveDatabase(db, dir.string()).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(std::filesystem::exists(dir / kSnapshotManifest));
  std::filesystem::remove_all(dir);

  // Publish stays infallible: it serves the warehouse with an empty pyramid.
  serve::GenerationRegistry registry;
  registry.Publish(std::make_shared<const Database>(db));
  serve::SnapshotRef pin = registry.PinCurrent();
  ASSERT_FALSE(pin.empty());
  EXPECT_EQ(pin->db->NumFlexOffers(), 2u);
  EXPECT_TRUE(pin->lod.empty());
  EXPECT_EQ(pin->lod.num_offers(), 0);

  // A filter selecting one of the two still builds.
  FlexOfferFilter near;
  near.window = offers[0].extent();
  Result<LodPyramid> one = BuildLodPyramid(db, near);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->num_offers(), 1);

  // The in-memory builder sizes nothing for such an extent.
  const LodPyramid in_memory = BuildLodPyramid(offers);
  EXPECT_TRUE(in_memory.empty());
  EXPECT_EQ(in_memory.num_levels(), 0);
  EXPECT_EQ(in_memory.num_offers(), 2);
}

TEST(LodTest, TheSliceCapIsInclusive) {
  // The second offer ends exactly kMaxLodSlices slices after the first
  // starts; one slice later is past the cap.
  for (int64_t extra : {0, 1}) {
    const int64_t units = OfferAt(2, T0()).profile_duration_slices();
    const FlexOffer last = OfferAt(2, T0() + (kMaxLodSlices - units + extra) * kMinutesPerSlice);
    Database db;
    ASSERT_TRUE(db.LoadFlexOffers({OfferAt(1, T0()), last}).ok());
    Result<LodPyramid> pyramid = BuildLodPyramid(db, FlexOfferFilter{});
    if (extra == 0) {
      ASSERT_TRUE(pyramid.ok()) << pyramid.status().ToString();
      EXPECT_EQ(pyramid->num_slices(), kMaxLodSlices);
      EXPECT_TRUE(pyramid->HasShapeOf(db));
    } else {
      EXPECT_EQ(pyramid.status().code(), StatusCode::kOutOfRange);
    }
  }
}

/// Valid offers whose profiles often repeat the previous slice's bounds, so
/// many are not in canonical form; about half carry a schedule.
std::vector<FlexOffer> RandomOffers(Rng& rng, core::FlexOfferId first_id, size_t count) {
  std::vector<FlexOffer> out;
  for (size_t i = 0; i < count; ++i) {
    FlexOffer o = MakeOffer(first_id + static_cast<core::FlexOfferId>(i), rng.UniformInt(1, 9),
                            rng.UniformInt(0, 95), rng.UniformInt(0, 8));
    o.direction = rng.Bernoulli(0.3) ? core::Direction::kProduction
                                     : core::Direction::kConsumption;
    o.profile.clear();
    const int64_t slices = rng.UniformInt(1, 6);
    for (int64_t k = 0; k < slices; ++k) {
      const int duration = static_cast<int>(rng.UniformInt(1, 4));
      if (k > 0 && rng.Bernoulli(0.3)) {
        o.profile.push_back(ProfileSlice{duration, o.profile.back().min_energy_kwh,
                                         o.profile.back().max_energy_kwh});
      } else {
        const double min = rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(0.0, 1.5);
        o.profile.push_back(ProfileSlice{duration, min, min + rng.Uniform(0.0, 1.5)});
      }
    }
    if (rng.Bernoulli(0.5)) {
      core::Schedule schedule{o.latest_start, {}};
      for (const ProfileSlice& unit : o.UnitProfile()) {
        schedule.energy_kwh.push_back(rng.Uniform(unit.min_energy_kwh, unit.max_energy_kwh));
      }
      o.schedule = std::move(schedule);
      o.state = core::FlexOfferState::kAssigned;
    }
    out.push_back(std::move(o));
  }
  return out;
}

/// What the warehouse must hand back for `offers`: each profile in the form
/// core::CompressProfile gives, in id order.
std::vector<FlexOffer> Canonical(std::vector<FlexOffer> offers) {
  for (FlexOffer& o : offers) o.profile = core::CompressProfile(o.profile);
  std::sort(offers.begin(), offers.end(),
            [](const FlexOffer& a, const FlexOffer& b) { return a.id < b.id; });
  return offers;
}

/// SelectFlexOffers and GetFlexOffer both return `expected`, compared as
/// encoded records so that every field and the sign of every zero counts.
void ExpectHolds(const Database& db, const std::vector<FlexOffer>& expected,
                 const std::string& label) {
  Result<std::vector<FlexOffer>> selected = db.SelectFlexOffers(FlexOfferFilter{});
  ASSERT_TRUE(selected.ok()) << label;
  ASSERT_EQ(selected->size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const std::string want = core::EncodeFlexOffer(expected[i]);
    EXPECT_EQ(core::EncodeFlexOffer((*selected)[i]), want) << label;
    Result<FlexOffer> got = db.GetFlexOffer(expected[i].id);
    ASSERT_TRUE(got.ok()) << label;
    EXPECT_EQ(core::EncodeFlexOffer(*got), want) << label;
  }
}

TEST(DatabaseTest, SelectAndGetReturnEveryLoadedOfferInCanonicalForm) {
  const geo::Atlas atlas = geo::Atlas::MakeDenmark();
  const grid::GridTopology topology = grid::GridTopology::MakeRadial(2, 2, 2, 3);
  for (int threads : {1, 8}) {
    SetParallelThreadCount(threads);
    const std::string at = " at " + std::to_string(threads) + " threads";

    // Random batches, loaded in three calls; more offers than one
    // reconstruct chunk.
    {
      Database db;
      Rng rng(19);
      std::vector<FlexOffer> all;
      for (int batch = 0; batch < 3; ++batch) {
        std::vector<FlexOffer> offers = RandomOffers(rng, 1 + batch * 800, 800);
        ASSERT_TRUE(db.LoadFlexOffers(offers).ok());
        all.insert(all.end(), offers.begin(), offers.end());
      }
      ExpectHolds(db, Canonical(all), "random batches" + at);
    }

    // Hand-made non-canonical profiles: adjacent equal slices, and -0.0 next
    // to +0.0 (== merges them; the first slice's sign is kept).
    {
      Database db;
      FlexOffer equal = MakeOffer(1, 5, 0, 4);
      equal.profile = {ProfileSlice{1, 0.5, 1.0}, ProfileSlice{2, 0.5, 1.0},
                       ProfileSlice{1, 0.2, 0.2}, ProfileSlice{1, 0.2, 0.2}};
      FlexOffer negative_first = MakeOffer(2, 5, 0, 4);
      negative_first.profile = {ProfileSlice{1, -0.0, 1.0}, ProfileSlice{1, 0.0, 1.0}};
      negative_first.schedule = core::Schedule{negative_first.earliest_start, {-0.0, 0.0}};
      FlexOffer positive_first = MakeOffer(3, 5, 0, 4);
      positive_first.profile = {ProfileSlice{2, 0.0, 0.0}, ProfileSlice{1, -0.0, -0.0}};
      const std::vector<FlexOffer> offers = {equal, negative_first, positive_first};
      ASSERT_TRUE(db.LoadFlexOffers(offers).ok());
      EXPECT_EQ(db.fact_profile_slice().NumRows(), 4u) << at;
      ExpectHolds(db, Canonical(offers), "hand-made profiles" + at);
      Result<FlexOffer> got = db.GetFlexOffer(2);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->profile.size(), 1u);
      EXPECT_TRUE(std::signbit(got->profile[0].min_energy_kwh)) << at;
      got = db.GetFlexOffer(3);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got->profile, (std::vector<ProfileSlice>{ProfileSlice{3, 0.0, 0.0}}));
      EXPECT_FALSE(std::signbit(got->profile[0].max_energy_kwh)) << at;
    }

    // Aggregates with members, as the aggregator builds them.
    {
      Database db;
      Rng rng(23);
      std::vector<FlexOffer> members = RandomOffers(rng, 1, 300);
      for (FlexOffer& m : members) {
        m.schedule.reset();
        m.state = core::FlexOfferState::kOffered;
      }
      core::FlexOfferId next_id = 10'000;
      const std::vector<FlexOffer> aggregates =
          core::Aggregator(core::AggregationParams{}).Aggregate(members, &next_id).aggregates;
      ASSERT_FALSE(aggregates.empty());
      ASSERT_TRUE(db.LoadFlexOffers(members).ok());
      ASSERT_TRUE(db.LoadFlexOffers(aggregates).ok());
      std::vector<FlexOffer> all = members;
      all.insert(all.end(), aggregates.begin(), aggregates.end());
      ExpectHolds(db, Canonical(all), "aggregates" + at);
    }

    // A generated world, planned: the day-ahead run updates member schedules
    // and loads scheduled aggregates.
    {
      Database db;
      ASSERT_TRUE(atlas.RegisterWithDatabase(db).ok());
      ASSERT_TRUE(topology.RegisterWithDatabase(db).ok());
      sim::WorkloadGenerator generator(&atlas, &topology);
      sim::WorkloadParams params;
      params.seed = 4;
      params.num_prosumers = 40;
      params.horizon = timeutil::TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
      Result<sim::Workload> workload = generator.Generate(params);
      ASSERT_TRUE(workload.ok());
      ASSERT_TRUE(sim::WorkloadGenerator::LoadIntoDatabase(*workload, db).ok());
      ExpectHolds(db, Canonical(workload->offers), "generated world" + at);

      Result<sim::PlanningReport> report = sim::Enterprise().RunDayAhead(db, params.horizon);
      ASSERT_TRUE(report.ok());
      ASSERT_FALSE(report->aggregate_offers.empty());
      std::map<core::FlexOfferId, FlexOffer> by_id;
      for (const FlexOffer& o : workload->offers) by_id[o.id] = o;
      for (const FlexOffer& o : report->member_offers) by_id[o.id] = o;
      for (const FlexOffer& o : report->aggregate_offers) by_id[o.id] = o;
      std::vector<FlexOffer> planned;
      for (const auto& [id, o] : by_id) planned.push_back(o);
      ExpectHolds(db, Canonical(planned), "planned world" + at);
    }

    // A schedule that UpdateFlexOffer sets, changes, clears and sets again,
    // beside an offer that keeps the schedule it was loaded with.
    {
      Database db;
      FlexOffer o = MakeOffer(1, 5, 0, 4);
      o.profile = {ProfileSlice{1, 1.0, 2.0}, ProfileSlice{1, 1.0, 2.0},
                   ProfileSlice{1, 0.5, 0.5}};
      FlexOffer kept = MakeOffer(2, 5, 0, 4);
      kept.schedule = core::Schedule{kept.latest_start, {1.25, 1.75, 0.5}};
      ASSERT_TRUE(db.LoadFlexOffers({o, kept}).ok());
      ExpectHolds(db, Canonical({o, kept}), "loaded" + at);

      const std::vector<std::optional<core::Schedule>> steps = {
          core::Schedule{o.earliest_start, {1.5, 1.5, 0.5}},
          core::Schedule{o.latest_start, {2.0, 1.0, 0.5}},
          std::nullopt,
          core::Schedule{o.earliest_start + kMinutesPerSlice, {1.0, 2.0, 0.5}},
      };
      for (size_t step = 0; step < steps.size(); ++step) {
        o.schedule = steps[step];
        o.state = o.schedule.has_value() ? core::FlexOfferState::kAssigned
                                         : core::FlexOfferState::kRejected;
        ASSERT_TRUE(db.UpdateFlexOffer(o).ok()) << step;
        ExpectHolds(db, Canonical({o, kept}), "schedule step " + std::to_string(step) + at);
      }
    }
  }
  SetParallelThreadCount(0);
}

}  // namespace
}  // namespace flexvis::dw
