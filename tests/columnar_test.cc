// Randomized byte-identity oracles for the structure-of-arrays columnar
// core (core/profile_columns): the SoA view must be a lossless image of the
// AoS offers, and every measure and pivot evaluated through the columnar
// path must be byte-identical to the AoS reference at 1 and at 8 threads —
// the flat column sweeps (and, when enabled, the explicit SIMD kernels) are
// a pure speedup, never a semantics change.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/measures.h"
#include "core/messages.h"
#include "core/profile_columns.h"
#include "dw/database.h"
#include "olap/cube.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace flexvis {
namespace {

using core::FlexOffer;
using core::FlexOfferState;
using core::NumericAttribute;
using core::ProfileColumns;
using core::ProfileSlice;
using core::Schedule;
using timeutil::kMinutesPerSlice;
using timeutil::TimePoint;

TimePoint Day() { return TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0); }

constexpr NumericAttribute kAllAttributes[] = {
    NumericAttribute::kTotalMinEnergyKwh,     NumericAttribute::kTotalMaxEnergyKwh,
    NumericAttribute::kEnergyFlexibilityKwh,  NumericAttribute::kTimeFlexibilityMinutes,
    NumericAttribute::kProfileDurationSlices, NumericAttribute::kScheduledEnergyKwh,
};

/// Random offers exercising every columnar code path: ragged multi-unit RLE
/// durations (which disable the unit-column aliasing fast path), unit-only
/// profiles, missing schedules, empty profiles, and all states/directions.
std::vector<FlexOffer> RandomOffers(uint64_t seed, size_t count, bool ragged) {
  Rng rng(seed);
  std::vector<FlexOffer> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    FlexOffer o;
    o.id = static_cast<core::FlexOfferId>(i + 1);
    o.prosumer = static_cast<core::ProsumerId>(i % 97 + 1);
    o.state = static_cast<FlexOfferState>(rng.UniformInt(0, core::kNumFlexOfferStates - 1));
    o.direction = rng.Bernoulli(0.25) ? core::Direction::kProduction
                                      : core::Direction::kConsumption;
    o.earliest_start = Day() + rng.UniformInt(0, 191) * kMinutesPerSlice;
    o.latest_start = o.earliest_start + rng.UniformInt(0, 24) * kMinutesPerSlice;
    o.creation_time = o.earliest_start - rng.UniformInt(4, 24) * 60;
    o.acceptance_deadline = o.creation_time + 60;
    o.assignment_deadline = o.creation_time + 120;
    if (!rng.Bernoulli(0.02)) {  // 2% keep an empty profile (edge case)
      const int slices = static_cast<int>(rng.UniformInt(1, 6));
      for (int s = 0; s < slices; ++s) {
        const double min = rng.Uniform(0.1, 1.5);
        const int duration = ragged ? static_cast<int>(rng.UniformInt(1, 4)) : 1;
        o.profile.push_back(ProfileSlice{duration, min, min + rng.Uniform(0.0, 1.5)});
      }
    }
    if (rng.Bernoulli(0.5)) {
      Schedule sched;
      sched.start = o.earliest_start;
      for (const ProfileSlice& u : o.UnitProfile()) {
        sched.energy_kwh.push_back(rng.Uniform(u.min_energy_kwh, u.max_energy_kwh));
      }
      o.schedule = std::move(sched);
      o.state = FlexOfferState::kAssigned;
    }
    out.push_back(std::move(o));
  }
  return out;
}

void ExpectStatsBitEqual(const core::AttributeStats& a, const core::AttributeStats& b,
                         const std::string& label) {
  EXPECT_EQ(a.count, b.count) << label;
  // Exact bit equality, not EXPECT_DOUBLE_EQ: the columnar sweep must keep
  // the AoS floating-point order, including signed zeros.
  EXPECT_EQ(std::memcmp(&a.min, &b.min, sizeof(a.min)), 0) << label << " min";
  EXPECT_EQ(std::memcmp(&a.max, &b.max, sizeof(a.max)), 0) << label << " max";
  EXPECT_EQ(std::memcmp(&a.sum, &b.sum, sizeof(a.sum)), 0) << label << " sum";
}

class ColumnarTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelThreadCount(1); }
};

TEST_F(ColumnarTest, RoundTripIsLossless) {
  for (bool ragged : {false, true}) {
    const std::vector<FlexOffer> offers = RandomOffers(7, 300, ragged);
    const ProfileColumns cols = ProfileColumns::FromOffers(offers);
    ASSERT_EQ(cols.num_offers(), offers.size());
    for (size_t i = 0; i < offers.size(); ++i) {
      EXPECT_EQ(cols.ProfileOf(i), offers[i].profile) << "offer " << i;
      ASSERT_EQ(cols.ScheduleOf(i).has_value(), offers[i].schedule.has_value())
          << "offer " << i;
      if (offers[i].schedule.has_value()) {
        EXPECT_EQ(*cols.ScheduleOf(i), *offers[i].schedule) << "offer " << i;
      }
      // RestoreInto rebuilds profile + schedule onto a stripped copy; the
      // message encoding then proves the whole offer is byte-identical.
      FlexOffer stripped = offers[i];
      stripped.profile.clear();
      stripped.schedule.reset();
      cols.RestoreInto(stripped, i);
      EXPECT_EQ(core::EncodeFlexOffer(stripped), core::EncodeFlexOffer(offers[i]))
          << "offer " << i;
    }
  }
}

TEST_F(ColumnarTest, OffsetIndexIsConsistentOnRaggedProfiles) {
  const std::vector<FlexOffer> offers = RandomOffers(11, 200, /*ragged=*/true);
  const ProfileColumns cols = ProfileColumns::FromOffers(offers);
  ASSERT_EQ(cols.slice_offset()[0], 0u);
  ASSERT_EQ(cols.unit_offset()[0], 0u);
  ASSERT_EQ(cols.scheduled_offset()[0], 0u);
  for (size_t i = 0; i < offers.size(); ++i) {
    EXPECT_EQ(cols.slice_offset()[i + 1] - cols.slice_offset()[i], offers[i].profile.size())
        << "offer " << i;
    EXPECT_EQ(cols.unit_offset()[i + 1] - cols.unit_offset()[i],
              static_cast<size_t>(offers[i].profile_duration_slices()))
        << "offer " << i;
    const size_t sched = offers[i].schedule ? offers[i].schedule->energy_kwh.size() : 0;
    EXPECT_EQ(cols.scheduled_offset()[i + 1] - cols.scheduled_offset()[i], sched)
        << "offer " << i;
  }
  EXPECT_EQ(cols.slice_offset()[offers.size()], cols.num_slices());
  EXPECT_EQ(cols.unit_offset()[offers.size()], cols.num_units());
  EXPECT_EQ(cols.scheduled_offset()[offers.size()], cols.num_scheduled_units());
}

TEST_F(ColumnarTest, EmptyInputsProduceEmptyColumnsAndMatchingMeasures) {
  const std::vector<FlexOffer> none;
  const ProfileColumns cols = ProfileColumns::FromOffers(none);
  EXPECT_EQ(cols.num_offers(), 0u);
  EXPECT_EQ(cols.num_slices(), 0u);
  EXPECT_EQ(core::CountByState(cols).total(), core::CountByState(none).total());
  for (NumericAttribute attribute : kAllAttributes) {
    ExpectStatsBitEqual(core::Summarize(none, attribute), core::Summarize(cols, attribute),
                        std::string(core::NumericAttributeName(attribute)));
  }
  EXPECT_EQ(core::TotalScheduledEnergyKwh(cols), core::TotalScheduledEnergyKwh(none));
  EXPECT_TRUE(core::PlannedLoad(cols).empty());
  EXPECT_EQ(core::ComputeBalancingPotential(cols).potential,
            core::ComputeBalancingPotential(none).potential);
}

TEST_F(ColumnarTest, EveryMeasureMatchesAoSByteForByteAt1And8Threads) {
  for (bool ragged : {false, true}) {
    const std::vector<FlexOffer> offers = RandomOffers(13, 500, ragged);
    for (int threads : {1, 8}) {
      SetParallelThreadCount(threads);
      const std::string label =
          (ragged ? "ragged " : "unit ") + std::to_string(threads) + "t";
      const ProfileColumns cols = ProfileColumns::FromOffers(offers);

      const core::StateCounts aos_counts = core::CountByState(offers);
      const core::StateCounts soa_counts = core::CountByState(cols);
      EXPECT_EQ(aos_counts.by_state, soa_counts.by_state) << label;

      for (NumericAttribute attribute : kAllAttributes) {
        ExpectStatsBitEqual(
            core::Summarize(offers, attribute), core::Summarize(cols, attribute),
            label + " " + std::string(core::NumericAttributeName(attribute)));
      }

      const double aos_sched = core::TotalScheduledEnergyKwh(offers);
      const double soa_sched = core::TotalScheduledEnergyKwh(cols);
      EXPECT_EQ(std::memcmp(&aos_sched, &soa_sched, sizeof(aos_sched)), 0) << label;

      const core::TimeSeries aos_load = core::PlannedLoad(offers);
      const core::TimeSeries soa_load = core::PlannedLoad(cols);
      EXPECT_EQ(aos_load.start(), soa_load.start()) << label;
      EXPECT_EQ(aos_load.values(), soa_load.values()) << label;

      const core::BalancingPotential aos_bp = core::ComputeBalancingPotential(offers);
      const core::BalancingPotential soa_bp = core::ComputeBalancingPotential(cols);
      EXPECT_EQ(aos_bp.energy_slack_ratio, soa_bp.energy_slack_ratio) << label;
      EXPECT_EQ(aos_bp.time_shift_ratio, soa_bp.time_shift_ratio) << label;
      EXPECT_EQ(aos_bp.potential, soa_bp.potential) << label;
      EXPECT_EQ(aos_bp.total_max_energy_kwh, soa_bp.total_max_energy_kwh) << label;
      EXPECT_EQ(aos_bp.total_flexible_energy_kwh, soa_bp.total_flexible_energy_kwh)
          << label;
    }
  }
}

TEST_F(ColumnarTest, FromPointersMatchesFromOffers) {
  const std::vector<FlexOffer> offers = RandomOffers(17, 200, /*ragged=*/true);
  std::vector<const FlexOffer*> ptrs;
  for (const FlexOffer& o : offers) ptrs.push_back(&o);
  const ProfileColumns direct = ProfileColumns::FromOffers(offers);
  const ProfileColumns indirect = ProfileColumns::FromPointers(ptrs.data(), ptrs.size());
  ASSERT_EQ(direct.num_offers(), indirect.num_offers());
  ASSERT_EQ(direct.num_slices(), indirect.num_slices());
  ASSERT_EQ(direct.num_units(), indirect.num_units());
  for (size_t i = 0; i < offers.size(); ++i) {
    EXPECT_EQ(direct.ProfileOf(i), indirect.ProfileOf(i)) << i;
    EXPECT_EQ(direct.total_min_kwh()[i], indirect.total_min_kwh()[i]) << i;
    EXPECT_EQ(direct.total_max_kwh()[i], indirect.total_max_kwh()[i]) << i;
    EXPECT_EQ(direct.offer_id()[i], indirect.offer_id()[i]) << i;
  }
}

TEST_F(ColumnarTest, CompressColumnsMatchesCompressProfile) {
  Rng rng(23);
  for (int round = 0; round < 50; ++round) {
    const size_t n = static_cast<size_t>(rng.UniformInt(0, 40));
    std::vector<ProfileSlice> units;
    std::vector<double> min_col;
    std::vector<double> max_col;
    for (size_t i = 0; i < n; ++i) {
      // Runs of identical bounds so compression has something to fold.
      const double min = rng.Bernoulli(0.6) && !units.empty()
                             ? units.back().min_energy_kwh
                             : rng.Uniform(0.0, 2.0);
      const double max = min + (rng.Bernoulli(0.5) ? 0.5 : 1.0);
      units.push_back(ProfileSlice{1, min, max});
      min_col.push_back(min);
      max_col.push_back(max);
    }
    EXPECT_EQ(core::CompressColumns(min_col.data(), max_col.data(), n),
              core::CompressProfile(units))
        << "round " << round;
  }
}

TEST_F(ColumnarTest, AggregationIsByteIdenticalAt1And8Threads) {
  const std::vector<FlexOffer> offers = RandomOffers(29, 400, /*ragged=*/false);
  core::AggregationParams params;
  params.est_tolerance_minutes = 240;
  params.tft_tolerance_minutes = 240;
  core::Aggregator aggregator(params);
  auto encode_run = [&]() {
    core::FlexOfferId next_id = 1'000'000;
    core::AggregationResult result = aggregator.Aggregate(offers, &next_id);
    std::string encoded;
    for (const FlexOffer& a : result.aggregates) encoded += core::EncodeFlexOffer(a);
    encoded += '|';
    for (const FlexOffer& p : result.passthrough) encoded += core::EncodeFlexOffer(p);
    return encoded;
  };
  SetParallelThreadCount(1);
  const std::string serial = encode_run();
  SetParallelThreadCount(8);
  const std::string threaded = encode_run();
  EXPECT_EQ(serial, threaded);
}

TEST_F(ColumnarTest, ValidMaskMatchesValidateOnCorruptedOffers) {
  for (bool ragged : {false, true}) {
    std::vector<FlexOffer> offers = RandomOffers(37, 480, ragged);
    // Rotate every Validate() failure branch through the population so the
    // columnar mask is exercised against each rejection reason, not just the
    // happy path.
    for (size_t i = 0; i < offers.size(); ++i) {
      FlexOffer& o = offers[i];
      switch (i % 12) {
        case 1:
          if (!o.profile.empty()) o.profile[0].duration_slices = 0;
          break;
        case 2:
          if (!o.profile.empty()) o.profile[0].min_energy_kwh = -0.5;
          break;
        case 3:
          if (!o.profile.empty()) o.profile[0].min_energy_kwh = o.profile[0].max_energy_kwh + 1.0;
          break;
        case 4:
          o.latest_start = o.earliest_start - kMinutesPerSlice;
          break;
        case 5:
          o.earliest_start = o.earliest_start + 7;  // not slice-aligned
          break;
        case 6:
          o.acceptance_deadline = o.creation_time - 1;
          break;
        case 7:
          o.assignment_deadline = o.acceptance_deadline - 1;
          break;
        case 8:
          o.assignment_deadline = o.latest_start + kMinutesPerSlice;
          break;
        case 9:
          if (o.schedule.has_value()) o.schedule->energy_kwh.push_back(0.0);
          break;
        case 10:
          if (o.schedule.has_value()) o.schedule->start = o.latest_start + kMinutesPerSlice;
          break;
        case 11:
          if (o.schedule.has_value() && !o.schedule->energy_kwh.empty()) {
            o.schedule->energy_kwh[0] += 100.0;  // far outside the envelope
          }
          break;
        default:
          break;
      }
    }
    const ProfileColumns cols = ProfileColumns::FromOffers(offers);
    for (int threads : {1, 8}) {
      SetParallelThreadCount(threads);
      std::vector<uint8_t> mask(offers.size(), 2);
      core::ValidMask(cols, mask.data());
      size_t num_valid = 0, num_invalid = 0;
      for (size_t i = 0; i < offers.size(); ++i) {
        const uint8_t expected = core::Validate(offers[i]).ok() ? 1 : 0;
        ASSERT_EQ(mask[i], expected)
            << "offer " << i << " corruption " << i % 12 << " ragged " << ragged << " threads "
            << threads;
        (expected ? num_valid : num_invalid)++;
      }
      EXPECT_GT(num_valid, 0u);
      EXPECT_GT(num_invalid, 0u);
    }
  }
}

TEST_F(ColumnarTest, ValidMaskMatchesValidateOnNonFiniteAndOverlongOffers) {
  std::vector<FlexOffer> offers = RandomOffers(41, 96, false);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int longest = static_cast<int>(core::kMaxProfileUnitSlices);
  for (size_t i = 0; i < offers.size(); ++i) {
    FlexOffer& o = offers[i];
    if (o.profile.empty()) continue;
    switch (i % 8) {
      case 1: o.profile[0].min_energy_kwh = nan; break;
      case 2: o.profile.back().max_energy_kwh = nan; break;
      case 3: o.profile[0].max_energy_kwh = inf; break;
      case 4:
        if (o.schedule.has_value()) o.schedule->energy_kwh.back() = nan;
        break;
      case 5:  // exactly the limit: valid
        o.profile = {ProfileSlice{longest, 0.0, 1.0}};
        o.schedule.reset();
        break;
      case 6:  // one unit slice past it
        o.profile = {ProfileSlice{longest, 0.0, 1.0}, ProfileSlice{1, 0.0, 1.0}};
        o.schedule.reset();
        break;
      default: break;
    }
  }
  const ProfileColumns cols = ProfileColumns::FromOffers(offers);
  std::vector<uint8_t> mask(offers.size(), 2);
  core::ValidMask(cols, mask.data());
  size_t num_invalid = 0;
  for (size_t i = 0; i < offers.size(); ++i) {
    const uint8_t expected = core::Validate(offers[i]).ok() ? 1 : 0;
    ASSERT_EQ(mask[i], expected) << "offer " << i << " case " << i % 8;
    num_invalid += expected == 0 ? 1 : 0;
  }
  EXPECT_GT(num_invalid, offers.size() / 4);
}

// ---- CubeQuery oracle: every measure, 1 vs 8 threads ------------------------

class ColumnarCubeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.RegisterRegion(
        dw::RegionInfo{1, "Denmark", core::kInvalidRegionId, "country"}).ok());
    ASSERT_TRUE(db_.RegisterRegion(dw::RegionInfo{10, "West Denmark", 1, "region"}).ok());
    ASSERT_TRUE(db_.RegisterRegion(dw::RegionInfo{11, "East Denmark", 1, "region"}).ok());
    ASSERT_TRUE(db_.RegisterRegion(dw::RegionInfo{100, "Aalborg", 10, "city"}).ok());
    ASSERT_TRUE(db_.RegisterRegion(dw::RegionInfo{104, "Copenhagen", 11, "city"}).ok());
    std::vector<FlexOffer> offers = RandomOffers(31, 600, /*ragged=*/true);
    for (size_t i = 0; i < offers.size(); ++i) {
      // Facts need valid profiles and dimension keys; replace the edge-case
      // empty profiles and spread the offers over the regions.
      if (offers[i].profile.empty()) {
        offers[i].profile = {ProfileSlice{1, 0.5, 1.0}};
        offers[i].schedule.reset();  // a zero-length schedule no longer fits
      }
      offers[i].region = (i % 2 == 0) ? 100 : 104;
      offers[i].energy_type =
          static_cast<core::EnergyType>(i % core::kNumEnergyTypes);
    }
    ASSERT_TRUE(db_.LoadFlexOffers(offers).ok());
    cube_ = std::make_unique<olap::Cube>(&db_);
    ASSERT_TRUE(cube_->AddStandardDimensions().ok());
  }

  void TearDown() override { SetParallelThreadCount(1); }

  dw::Database db_;
  std::unique_ptr<olap::Cube> cube_;
};

TEST_F(ColumnarCubeTest, EveryMeasureAndQueryShapeIsByteIdenticalAt1And8Threads) {
  std::vector<olap::CubeQuery> queries;
  {
    olap::CubeQuery scan;  // pure columnar scan, no mask
    scan.axes = {olap::AxisSpec{"State", "", {}}};
    queries.push_back(scan);

    olap::CubeQuery filtered;  // window mask + slicer allow-sets
    filtered.axes = {olap::AxisSpec{"Geography", "City", {}},
                     olap::AxisSpec{"EnergyType", "Type", {}}};
    filtered.slicers = {{"State", "Accepted"}, {"Geography", "West Denmark"}};
    filtered.window = timeutil::TimeInterval(Day(), Day() + timeutil::kMinutesPerDay);
    queries.push_back(filtered);

    olap::CubeQuery timed;  // time bucketing
    timed.axes = {olap::AxisSpec{"Time", "", {}}, olap::AxisSpec{"State", "", {}}};
    timed.window = timeutil::TimeInterval(Day(), Day() + timeutil::kMinutesPerDay);
    timed.time_granularity = timeutil::Granularity::kHour;
    queries.push_back(timed);
  }
  const olap::Measure measures[] = {
      olap::Measure::kCount,          olap::Measure::kSumMinEnergy,
      olap::Measure::kSumMaxEnergy,   olap::Measure::kSumScheduledEnergy,
      olap::Measure::kSumEnergyFlex,  olap::Measure::kAvgTimeFlexMinutes,
      olap::Measure::kAvgProfileSlices, olap::Measure::kBalancingPotential,
  };
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    for (olap::Measure measure : measures) {
      olap::CubeQuery query = queries[qi];
      query.measure = measure;
      SetParallelThreadCount(1);
      Result<olap::PivotResult> serial = cube_->Evaluate(query);
      SetParallelThreadCount(8);
      Result<olap::PivotResult> threaded = cube_->Evaluate(query);
      const std::string label = "query " + std::to_string(qi) + " measure " +
                                std::string(olap::MeasureName(measure));
      ASSERT_TRUE(serial.ok()) << label << ": " << serial.status().ToString();
      ASSERT_TRUE(threaded.ok()) << label << ": " << threaded.status().ToString();
      ASSERT_EQ(serial->rows.size(), threaded->rows.size()) << label;
      ASSERT_EQ(serial->cols.size(), threaded->cols.size()) << label;
      ASSERT_EQ(serial->cells.size(), threaded->cells.size()) << label;
      for (size_t r = 0; r < serial->cells.size(); ++r) {
        ASSERT_EQ(serial->cells[r].size(), threaded->cells[r].size()) << label;
        for (size_t c = 0; c < serial->cells[r].size(); ++c) {
          EXPECT_EQ(std::memcmp(&serial->cells[r][c], &threaded->cells[r][c],
                                sizeof(double)),
                    0)
              << label << " cell (" << r << "," << c << ")";
        }
      }
      EXPECT_EQ(serial->ToText(), threaded->ToText()) << label;
    }
  }
}

}  // namespace
}  // namespace flexvis
