// Odds-and-ends coverage: APIs exercised nowhere else and secondary
// behaviours of already-tested components.

#include <gtest/gtest.h>

#include "render/svg_canvas.h"
#include "sim/market.h"
#include "time/granularity.h"
#include "util/rng.h"
#include "viz/interaction.h"

namespace flexvis {
namespace {

using timeutil::Granularity;
using timeutil::TimeInterval;
using timeutil::TimePoint;

TEST(RngCoverageTest, ExponentialMeanMatchesRate) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);  // mean = 1/lambda
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.Exponential(0.5), 0.0);
}

TEST(GranularityCoverageTest, CountPeriodsCoarseLevels) {
  TimePoint start = TimePoint::FromCalendarOrDie(2013, 1, 1, 0, 0);
  TimePoint end = TimePoint::FromCalendarOrDie(2014, 1, 1, 0, 0);
  TimeInterval year(start, end);
  EXPECT_EQ(CountPeriods(year, Granularity::kMonth), 12);
  EXPECT_EQ(CountPeriods(year, Granularity::kQuarter), 4);
  EXPECT_EQ(CountPeriods(year, Granularity::kYear), 1);
  EXPECT_EQ(CountPeriods(year, Granularity::kAll), 1);
  // 2013 has 53 ISO-boundary Mondays? The count is distinct week starts
  // intersecting the year: Jan 1 2013 is a Tuesday, so the first week starts
  // Dec 31 2012, giving 53 week buckets overlapping the year.
  EXPECT_EQ(CountPeriods(year, Granularity::kWeek), 53);
}

TEST(GranularityCoverageTest, NextBoundaryAllSentinel) {
  TimePoint t = TimePoint::FromCalendarOrDie(2013, 6, 1, 0, 0);
  EXPECT_GT(NextBoundary(t, Granularity::kAll).minutes(), t.minutes());
  EXPECT_EQ(TruncateTo(t, Granularity::kAll), TimePoint());
  EXPECT_EQ(PeriodLabel(TimePoint(), Granularity::kAll), "All time");
}

TEST(SvgCoverageTest, DegenerateInputsProduceNoElements) {
  render::SvgCanvas svg(50, 50);
  svg.DrawPolygon({{1, 1}, {2, 2}}, render::Style::Fill(render::Color(0, 0, 0)));
  svg.DrawPolyline({{1, 1}}, render::Style::Stroke(render::Color(0, 0, 0)));
  svg.DrawPieSlice({5, 5}, 3.0, 0.0, -10.0, render::Style::Fill(render::Color(0, 0, 0)));
  std::string out = svg.ToString();
  EXPECT_EQ(out.find("<polygon"), std::string::npos);
  EXPECT_EQ(out.find("<polyline"), std::string::npos);
  EXPECT_EQ(out.find("<path"), std::string::npos);
}

TEST(SvgCoverageTest, LineInheritsFillAsStroke) {
  // Views sometimes pass a Fill style to DrawLine; the backend promotes it.
  render::SvgCanvas svg(10, 10);
  svg.DrawLine({0, 0}, {5, 5}, render::Style::Fill(render::Color(7, 8, 9)));
  EXPECT_NE(svg.ToString().find("stroke=\"#070809\""), std::string::npos);
}

TEST(MarketCoverageTest, SellingSurplusEarnsMoney) {
  sim::MarketParams params;
  params.noise = 0.0;
  sim::Market market(params);
  TimePoint t0 = TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0);
  core::TimeSeries prices(t0, std::vector<double>(4, 50.0));  // EUR/MWh
  core::TimeSeries residual(t0, {-100.0, -100.0, 0.0, 0.0});  // pure surplus
  core::TimeSeries no_dev(t0, 4);
  sim::Settlement s = market.Settle(residual, no_dev, prices);
  EXPECT_LT(s.spot_cost_eur, 0.0);  // negative cost = revenue
  EXPECT_DOUBLE_EQ(s.imbalance_cost_eur, 0.0);
  EXPECT_DOUBLE_EQ(s.total_cost_eur, s.spot_cost_eur);
}

TEST(InteractionCoverageTest, ExtractSelectionEdgeCases) {
  std::vector<core::FlexOffer> offers(3);
  offers[0].id = 1;
  offers[1].id = 2;
  offers[2].id = 3;
  // Empty selection: keep_selected=true yields nothing, false yields all.
  EXPECT_TRUE(viz::ExtractSelection(offers, {}, true).empty());
  EXPECT_EQ(viz::ExtractSelection(offers, {}, false).size(), 3u);
  // Selection of unknown ids selects nothing.
  EXPECT_TRUE(viz::ExtractSelection(offers, {99}, true).empty());
  // Duplicated ids in the selection are harmless.
  EXPECT_EQ(viz::ExtractSelection(offers, {2, 2, 2}, true).size(), 1u);
}

}  // namespace
}  // namespace flexvis
