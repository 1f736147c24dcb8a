#include <gtest/gtest.h>

#include <limits>

#include "core/flex_offer.h"
#include "core/types.h"

namespace flexvis::core {
namespace {

using timeutil::TimePoint;

FlexOffer MakeValidOffer() {
  FlexOffer offer;
  offer.id = 1;
  offer.prosumer = 10;
  offer.creation_time = TimePoint::FromCalendarOrDie(2013, 1, 14, 20, 0);
  offer.acceptance_deadline = TimePoint::FromCalendarOrDie(2013, 1, 14, 23, 0);
  offer.assignment_deadline = TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0);
  offer.earliest_start = TimePoint::FromCalendarOrDie(2013, 1, 15, 1, 0);
  offer.latest_start = TimePoint::FromCalendarOrDie(2013, 1, 15, 3, 0);
  offer.profile = {ProfileSlice{2, 1.0, 2.0}, ProfileSlice{1, 0.5, 0.5}};
  return offer;
}

TEST(FlexOfferTest, ValidOfferValidates) {
  EXPECT_TRUE(Validate(MakeValidOffer()).ok());
}

TEST(FlexOfferTest, DerivedQuantities) {
  FlexOffer o = MakeValidOffer();
  EXPECT_EQ(o.profile_duration_slices(), 3);
  EXPECT_EQ(o.profile_duration_minutes(), 45);
  EXPECT_EQ(o.time_flexibility_minutes(), 120);
  EXPECT_DOUBLE_EQ(o.total_min_energy_kwh(), 2.5);
  EXPECT_DOUBLE_EQ(o.total_max_energy_kwh(), 4.5);
  EXPECT_DOUBLE_EQ(o.energy_flexibility_kwh(), 2.0);
  EXPECT_DOUBLE_EQ(o.peak_energy_kwh(), 2.0);
  EXPECT_EQ(o.latest_end(), o.latest_start + 45);
  EXPECT_EQ(o.extent().start, o.earliest_start);
  EXPECT_EQ(o.extent().end, o.latest_end());
  EXPECT_FALSE(o.is_aggregate());
}

TEST(FlexOfferTest, UnitProfileExpandsRle) {
  FlexOffer o = MakeValidOffer();
  std::vector<ProfileSlice> units = o.UnitProfile();
  ASSERT_EQ(units.size(), 3u);
  EXPECT_EQ(units[0].duration_slices, 1);
  EXPECT_DOUBLE_EQ(units[0].min_energy_kwh, 1.0);
  EXPECT_DOUBLE_EQ(units[1].min_energy_kwh, 1.0);
  EXPECT_DOUBLE_EQ(units[2].min_energy_kwh, 0.5);
}

TEST(FlexOfferTest, EmptyProfileRejected) {
  FlexOffer o = MakeValidOffer();
  o.profile.clear();
  EXPECT_EQ(Validate(o).code(), StatusCode::kInvalidArgument);
}

TEST(FlexOfferTest, NegativeEnergyRejected) {
  FlexOffer o = MakeValidOffer();
  o.profile[0].min_energy_kwh = -1.0;
  EXPECT_FALSE(Validate(o).ok());
}

TEST(FlexOfferTest, MinAboveMaxRejected) {
  FlexOffer o = MakeValidOffer();
  o.profile[0].min_energy_kwh = 3.0;  // above max 2.0
  EXPECT_FALSE(Validate(o).ok());
}

TEST(FlexOfferTest, ZeroDurationSliceRejected) {
  FlexOffer o = MakeValidOffer();
  o.profile[0].duration_slices = 0;
  EXPECT_FALSE(Validate(o).ok());
}

TEST(FlexOfferTest, LatestBeforeEarliestRejected) {
  FlexOffer o = MakeValidOffer();
  o.latest_start = o.earliest_start - 15;
  EXPECT_FALSE(Validate(o).ok());
}

TEST(FlexOfferTest, UnalignedStartRejected) {
  FlexOffer o = MakeValidOffer();
  o.earliest_start = o.earliest_start + 7;
  EXPECT_FALSE(Validate(o).ok());
}

TEST(FlexOfferTest, DeadlineOrderEnforced) {
  FlexOffer o = MakeValidOffer();
  o.acceptance_deadline = o.creation_time - 60;
  EXPECT_FALSE(Validate(o).ok());

  o = MakeValidOffer();
  o.assignment_deadline = o.acceptance_deadline - 60;
  EXPECT_FALSE(Validate(o).ok());

  o = MakeValidOffer();
  o.assignment_deadline = o.latest_start + 60;
  EXPECT_FALSE(Validate(o).ok());
}

TEST(FlexOfferTest, ScheduleValidation) {
  FlexOffer o = MakeValidOffer();
  Schedule sched;
  sched.start = o.earliest_start + 60;
  sched.energy_kwh = {1.5, 1.5, 0.5};
  o.schedule = sched;
  EXPECT_TRUE(Validate(o).ok());
  EXPECT_DOUBLE_EQ(o.total_scheduled_energy_kwh(), 3.5);

  // Wrong energy count.
  o.schedule->energy_kwh = {1.5, 1.5};
  EXPECT_FALSE(Validate(o).ok());

  // Start outside flexibility.
  o.schedule = sched;
  o.schedule->start = o.latest_start + 15;
  EXPECT_FALSE(Validate(o).ok());

  // Unaligned start.
  o.schedule = sched;
  o.schedule->start = o.earliest_start + 10;
  EXPECT_FALSE(Validate(o).ok());

  // Energy outside bounds.
  o.schedule = sched;
  o.schedule->energy_kwh[0] = 5.0;  // above max 2.0
  EXPECT_FALSE(Validate(o).ok());
  o.schedule->energy_kwh[0] = 0.2;  // below min 1.0
  EXPECT_FALSE(Validate(o).ok());
}

TEST(FlexOfferTest, ValidateRejectsNonFiniteEnergies) {
  // NaN passes every bound comparison (all are false), so it needs its own
  // check; infinities need one for the upper bound.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf}) {
    FlexOffer o = MakeValidOffer();
    o.profile[0].min_energy_kwh = bad;
    EXPECT_EQ(Validate(o).code(), StatusCode::kInvalidArgument) << bad;
    o = MakeValidOffer();
    o.profile[1].max_energy_kwh = bad;
    EXPECT_EQ(Validate(o).code(), StatusCode::kInvalidArgument) << bad;
    o = MakeValidOffer();
    o.profile[0] = ProfileSlice{2, bad, bad};
    EXPECT_EQ(Validate(o).code(), StatusCode::kInvalidArgument) << bad;

    o = MakeValidOffer();
    o.schedule = Schedule{o.earliest_start, {1.5, bad, 0.5}};
    Status status = Validate(o);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("non-finite scheduled energy at unit slice 1"),
              std::string::npos)
        << status.message();
  }
}

TEST(FlexOfferTest, ValidateBoundsTheProfileLength) {
  // Two slices of 1.5e9 sum past INT_MAX: counted in 64 bits, the profile is
  // refused before anything expands it into unit slices.
  FlexOffer o = MakeValidOffer();
  o.profile = {ProfileSlice{1'500'000'000, 0.0, 1.0}, ProfileSlice{1'500'000'000, 0.0, 1.0}};
  Status status = Validate(o);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("profile spans 3000000000 unit slices"), std::string::npos)
      << status.message();

  // The limit itself is one year of slices, and is inclusive.
  EXPECT_EQ(kMaxProfileUnitSlices, 35040);
  o.profile = {ProfileSlice{static_cast<int>(kMaxProfileUnitSlices) - 1, 0.0, 1.0},
               ProfileSlice{1, 0.5, 0.5}};
  EXPECT_TRUE(Validate(o).ok());
  o.profile.back().duration_slices = 2;
  EXPECT_EQ(Validate(o).code(), StatusCode::kInvalidArgument);
}

TEST(FlexOfferTest, DescribeMentionsKeyFacts) {
  FlexOffer o = MakeValidOffer();
  std::string desc = Describe(o);
  EXPECT_NE(desc.find("FlexOffer 1"), std::string::npos);
  EXPECT_NE(desc.find("3 slices"), std::string::npos);
  EXPECT_NE(desc.find("120 min"), std::string::npos);

  o.aggregated_from = {2, 3};
  desc = Describe(o);
  EXPECT_NE(desc.find("aggregate of 2"), std::string::npos);
}

TEST(TypesTest, NamesAndParsersRoundTrip) {
  for (int i = 0; i < kNumFlexOfferStates; ++i) {
    auto s = static_cast<FlexOfferState>(i);
    EXPECT_EQ(*ParseFlexOfferState(FlexOfferStateName(s)), s);
  }
  for (int i = 0; i < kNumEnergyTypes; ++i) {
    auto t = static_cast<EnergyType>(i);
    EXPECT_EQ(*ParseEnergyType(EnergyTypeName(t)), t);
  }
  for (int i = 0; i < kNumProsumerTypes; ++i) {
    auto t = static_cast<ProsumerType>(i);
    EXPECT_EQ(*ParseProsumerType(ProsumerTypeName(t)), t);
  }
  for (int i = 0; i < kNumApplianceTypes; ++i) {
    auto t = static_cast<ApplianceType>(i);
    EXPECT_EQ(*ParseApplianceType(ApplianceTypeName(t)), t);
  }
  EXPECT_FALSE(ParseEnergyType("Plutonium").ok());
}

TEST(TypesTest, RenewableClassification) {
  EXPECT_TRUE(IsRenewable(EnergyType::kWind));
  EXPECT_TRUE(IsRenewable(EnergyType::kHydro));
  EXPECT_FALSE(IsRenewable(EnergyType::kCoal));
  EXPECT_FALSE(IsRenewable(EnergyType::kNuclear));
}

TEST(TypesTest, ProducerClassification) {
  EXPECT_TRUE(IsProducerType(ProsumerType::kSmallPowerPlant));
  EXPECT_FALSE(IsProducerType(ProsumerType::kHousehold));
}

}  // namespace
}  // namespace flexvis::core
