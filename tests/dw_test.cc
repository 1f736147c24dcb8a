#include <gtest/gtest.h>

#include "dw/database.h"
#include "dw/query.h"

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

TEST(ValueTest, DisplayStrings) {
  EXPECT_EQ(Value().ToDisplayString(), "");
  EXPECT_EQ(Value(int64_t{12}).ToDisplayString(), "12");
  EXPECT_EQ(Value(2.5).ToDisplayString(), "2.5");
  EXPECT_EQ(Value(std::string("abc")).ToDisplayString(), "abc");
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
  EXPECT_EQ(t.GetRow(0).size(), 3u);
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

TEST(TableTest, ToTextRendersHeaderAndRows) {
  Table t = MakeTestTable();
  std::string text = t.ToText();
  EXPECT_NE(text.find("id"), std::string::npos);
  EXPECT_NE(text.find("2.5"), std::string::npos);
  std::string truncated = t.ToText(1);
  EXPECT_NE(truncated.find("2 more rows"), std::string::npos);
}

// ---- Query ----------------------------------------------------------------------

TEST(QueryTest, FilterEqAndIn) {
  Table t = MakeTestTable();
  Query q;
  q.where = {Predicate::Eq("name", Value(std::string("a")))};
  Result<Table> r = Execute(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumRows(), 2u);

  q.where = {Predicate::In("id", {Value(int64_t{1}), Value(int64_t{3})})};
  EXPECT_EQ(Execute(t, q)->NumRows(), 2u);
}

TEST(QueryTest, RangePredicates) {
  Table t = MakeTestTable();
  Query q;
  q.where = {Predicate::Ge("id", Value(int64_t{2})), Predicate::Lt("id", Value(int64_t{3}))};
  Result<Table> r = Execute(t, q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->FindColumn("id")->GetInt64(0), 2);
}

TEST(QueryTest, UnknownColumnErrors) {
  Table t = MakeTestTable();
  Query q;
  q.where = {Predicate::Eq("ghost", Value(int64_t{1}))};
  EXPECT_EQ(Execute(t, q).status().code(), StatusCode::kNotFound);
  q.where.clear();
  q.select = {"ghost"};
  EXPECT_FALSE(Execute(t, q).ok());
  q.select.clear();
  q.group_by = {"ghost"};
  q.aggregates = {AggregateSpec::Count()};
  EXPECT_FALSE(Execute(t, q).ok());
}

TEST(QueryTest, Projection) {
  Table t = MakeTestTable();
  Query q;
  q.select = {"name", "id"};
  Result<Table> r = Execute(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->NumColumns(), 2u);
  EXPECT_EQ(r->column(0).name(), "name");
}

TEST(QueryTest, GroupByWithAggregates) {
  Table t = MakeTestTable();
  Query q;
  q.group_by = {"name"};
  q.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("id"), AggregateSpec::Avg("id"),
                  AggregateSpec::Min("id"), AggregateSpec::Max("id")};
  Result<Table> r = Execute(t, q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 2u);  // groups "a" and "b", in key order
  EXPECT_EQ(r->FindColumn("name")->GetString(0), "a");
  EXPECT_EQ(r->FindColumn("count")->GetInt64(0), 2);
  EXPECT_DOUBLE_EQ(r->FindColumn("sum(id)")->GetDouble(0), 4.0);
  EXPECT_DOUBLE_EQ(r->FindColumn("avg(id)")->GetDouble(0), 2.0);
  EXPECT_EQ(r->FindColumn("min(id)")->GetInt64(0), 1);
  EXPECT_EQ(r->FindColumn("max(id)")->GetInt64(0), 3);
}

TEST(QueryTest, GlobalAggregateWithoutGroupBy) {
  Table t = MakeTestTable();
  Query q;
  q.aggregates = {AggregateSpec::Count("n")};
  Result<Table> r = Execute(t, q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 1u);
  EXPECT_EQ(r->FindColumn("n")->GetInt64(0), 3);
}

TEST(QueryTest, AggregateSkipsNullInputs) {
  Table t = MakeTestTable();  // score is null in row 3
  Query q;
  q.aggregates = {AggregateSpec::Sum("score"), AggregateSpec::Count()};
  Result<Table> r = Execute(t, q);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->FindColumn("sum(score)")->GetDouble(0), 4.0);
  EXPECT_EQ(r->FindColumn("count")->GetInt64(0), 3);  // count counts rows
}

TEST(QueryTest, OrderByAndLimit) {
  Table t = MakeTestTable();
  Query q;
  q.select = {"id"};
  q.order_by = {"id"};
  q.limit = 2;
  Result<Table> r = Execute(t, q);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->NumRows(), 2u);
  EXPECT_EQ(r->FindColumn("id")->GetInt64(0), 1);
  EXPECT_EQ(r->FindColumn("id")->GetInt64(1), 2);
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
  EXPECT_EQ(db.fact_profile_slice().NumRows(), 3u);

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
  EXPECT_EQ(db.fact_profile_slice().NumRows(), 3u);
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

}  // namespace
}  // namespace flexvis::dw
