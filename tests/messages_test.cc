#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "dw/csv.h"
#include "sim/online.h"
#include "sim/workload.h"
#include "util/json.h"
#include "util/rng.h"

namespace flexvis {
namespace {

using core::AcceptanceMessage;
using core::AssignmentMessage;
using core::FlexOffer;
using core::Message;
using core::ProfileSlice;
using timeutil::kMinutesPerSlice;
using timeutil::TimeInterval;
using timeutil::TimePoint;

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 1, 15, 0, 0); }

FlexOffer MakeOffer(core::FlexOfferId id) {
  FlexOffer o;
  o.id = id;
  o.prosumer = id * 10;
  o.region = 100;
  o.grid_node = 7;
  o.energy_type = core::EnergyType::kWind;
  o.prosumer_type = core::ProsumerType::kCommercial;
  o.appliance_type = core::ApplianceType::kBatteryStorage;
  o.direction = core::Direction::kProduction;
  o.state = core::FlexOfferState::kAccepted;
  o.earliest_start = T0();
  o.latest_start = T0() + 4 * kMinutesPerSlice;
  o.creation_time = T0() - 600;
  o.acceptance_deadline = o.creation_time + 60;
  o.assignment_deadline = o.creation_time + 120;
  o.profile = {ProfileSlice{2, 1.0, 2.0}, ProfileSlice{1, 0.25, 0.75}};
  return o;
}

// ---- Flex-offer JSON codec ---------------------------------------------------------

TEST(FlexOfferJsonTest, RoundTripsAllFields) {
  FlexOffer original = MakeOffer(7);
  original.schedule = core::Schedule{T0() + kMinutesPerSlice, {1.5, 1.5, 0.5}};
  original.aggregated_from = {3, 4, 5};

  Result<FlexOffer> decoded = core::DecodeFlexOffer(core::EncodeFlexOffer(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, original.id);
  EXPECT_EQ(decoded->prosumer, original.prosumer);
  EXPECT_EQ(decoded->region, original.region);
  EXPECT_EQ(decoded->grid_node, original.grid_node);
  EXPECT_EQ(decoded->energy_type, original.energy_type);
  EXPECT_EQ(decoded->prosumer_type, original.prosumer_type);
  EXPECT_EQ(decoded->appliance_type, original.appliance_type);
  EXPECT_EQ(decoded->direction, original.direction);
  EXPECT_EQ(decoded->state, original.state);
  EXPECT_EQ(decoded->creation_time, original.creation_time);
  EXPECT_EQ(decoded->acceptance_deadline, original.acceptance_deadline);
  EXPECT_EQ(decoded->assignment_deadline, original.assignment_deadline);
  EXPECT_EQ(decoded->earliest_start, original.earliest_start);
  EXPECT_EQ(decoded->latest_start, original.latest_start);
  EXPECT_EQ(decoded->profile, original.profile);
  ASSERT_TRUE(decoded->schedule.has_value());
  EXPECT_EQ(*decoded->schedule, *original.schedule);
  EXPECT_EQ(decoded->aggregated_from, original.aggregated_from);
}

TEST(FlexOfferJsonTest, OmitsOptionalFieldsWhenAbsent) {
  FlexOffer plain = MakeOffer(1);
  JsonValue json = *JsonValue::Parse(core::EncodeFlexOffer(plain));
  EXPECT_FALSE(json.Has("schedule"));
  EXPECT_FALSE(json.Has("aggregated_from"));
  Result<FlexOffer> decoded = core::DecodeFlexOffer(json.Dump());
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->schedule.has_value());
  EXPECT_TRUE(decoded->aggregated_from.empty());
}

TEST(FlexOfferJsonTest, DecodingErrors) {
  EXPECT_FALSE(core::DecodeFlexOffer("not json").ok());
  EXPECT_FALSE(core::DecodeFlexOffer("[]").ok());
  EXPECT_FALSE(core::DecodeFlexOffer("{}").ok());  // missing fields
  // Corrupt a single field.
  JsonValue json = *JsonValue::Parse(core::EncodeFlexOffer(MakeOffer(1)));
  json.Set("energy_type", JsonValue::Str("Antimatter"));
  EXPECT_FALSE(core::DecodeFlexOffer(json.Dump()).ok());
  json = *JsonValue::Parse(core::EncodeFlexOffer(MakeOffer(1)));
  json.Set("profile", JsonValue::Int(5));
  EXPECT_FALSE(core::DecodeFlexOffer(json.Dump()).ok());
}

// ---- Pinned bytes -------------------------------------------------------------------
// Literal encodings captured from the std::map-backed document codec these
// records were first written with. Warehouse, checkpoint, journal and wire
// bytes all depend on them staying put.

FlexOffer EdgeNumberOffer() {
  FlexOffer o = MakeOffer(1);
  o.id = std::numeric_limits<int64_t>::max();
  o.prosumer = std::numeric_limits<int64_t>::min();
  o.profile = {ProfileSlice{1, 5e-324, 0.1}, ProfileSlice{2, 1e-7, 1e21},
               ProfileSlice{1, 100000, 100000}};
  o.schedule = core::Schedule{T0() + kMinutesPerSlice, {-0.0, 5e-324, 0.1, 1e21, 1e-7, 100000}};
  o.aggregated_from = {std::numeric_limits<int64_t>::min(), 4,
                       std::numeric_limits<int64_t>::max()};
  return o;
}

TEST(FlexOfferJsonTest, PinnedBytesForEdgeNumbersAndIds) {
  const FlexOffer offer = EdgeNumberOffer();
  const std::string expected =
      R"({"acceptance_min":6858180,"aggregated_from":[-9223372036854775808,4)"
      R"(,9223372036854775807],"appliance_type":"BatteryStorage","assignment_min":6858240)"
      R"(,"creation_min":6858120,"direction":"Production","earliest_start_min":6858720)"
      R"(,"energy_type":"Wind","grid_node":7,"id":9223372036854775807)"
      R"(,"latest_start_min":6858780,"profile":[{"max_kwh":0.10000000000000001)"
      R"(,"min_kwh":4.9406564584124654e-324,"slices":1},{"max_kwh":1e+21)"
      R"(,"min_kwh":9.9999999999999995e-08,"slices":2},{"max_kwh":100000,"min_kwh":100000)"
      R"(,"slices":1}],"prosumer":-9223372036854775808,"prosumer_type":"Commercial")"
      R"(,"region":100,"schedule":{"energy_kwh":[-0,4.9406564584124654e-324)"
      R"(,0.10000000000000001,1e+21,9.9999999999999995e-08,100000],"start_min":6858735})"
      R"(,"state":"Accepted"})";
  EXPECT_EQ(core::EncodeFlexOffer(offer), expected);

  Result<FlexOffer> back = core::DecodeFlexOffer(expected);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->id, offer.id);
  EXPECT_EQ(back->prosumer, offer.prosumer);
  EXPECT_EQ(back->aggregated_from, offer.aggregated_from);
  EXPECT_EQ(back->profile, offer.profile);
  ASSERT_TRUE(back->schedule.has_value());
  // -0 is written as "-0", an integer token, so it reads back as +0.
  EXPECT_EQ(back->schedule->energy_kwh[0], 0.0);
  EXPECT_FALSE(std::signbit(back->schedule->energy_kwh[0]));
  const std::vector<double> rest(back->schedule->energy_kwh.begin() + 1,
                                 back->schedule->energy_kwh.end());
  EXPECT_EQ(rest, (std::vector<double>{5e-324, 0.1, 1e21, 1e-7, 100000}));
}

TEST(FlexOfferJsonTest, PinnedBytesForEmptyScheduleAndProfile) {
  FlexOffer offer = MakeOffer(2);
  offer.schedule = core::Schedule{T0(), {}};
  offer.profile.clear();
  const std::string expected =
      R"({"acceptance_min":6858180,"appliance_type":"BatteryStorage")"
      R"(,"assignment_min":6858240,"creation_min":6858120,"direction":"Production")"
      R"(,"earliest_start_min":6858720,"energy_type":"Wind","grid_node":7,"id":2)"
      R"(,"latest_start_min":6858780,"profile":[],"prosumer":20)"
      R"(,"prosumer_type":"Commercial","region":100,"schedule":{"energy_kwh":[])"
      R"(,"start_min":6858720},"state":"Accepted"})";
  EXPECT_EQ(core::EncodeFlexOffer(offer), expected);
  Result<FlexOffer> back = core::DecodeFlexOffer(expected);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(core::EncodeFlexOffer(*back), expected);
}

TEST(FlexOfferJsonTest, PinnedBytesForEveryEnumName) {
  // Offer i carries energy type i, prosumer type i % 6, appliance type i,
  // direction i % 2 and state i % 4: every name of every enum appears.
  const std::string expected[] = {
      R"({"acceptance_min":6858180,"appliance_type":"ElectricVehicle")"
      R"(,"assignment_min":6858240,"creation_min":6858120,"direction":"Consumption")"
      R"(,"earliest_start_min":6858720,"energy_type":"Wind","grid_node":7,"id":10)"
      R"(,"latest_start_min":6858780,"profile":[{"max_kwh":1.5,"min_kwh":0.5,"slices":1}])"
      R"(,"prosumer":100,"prosumer_type":"Household","region":100,"state":"Offered"})",
      R"({"acceptance_min":6858180,"appliance_type":"HeatPump","assignment_min":6858240)"
      R"(,"creation_min":6858120,"direction":"Production","earliest_start_min":6858720)"
      R"(,"energy_type":"Solar","grid_node":7,"id":11,"latest_start_min":6858780)"
      R"(,"profile":[{"max_kwh":1.5,"min_kwh":0.5,"slices":1}],"prosumer":110)"
      R"(,"prosumer_type":"Commercial","region":100,"state":"Accepted"})",
      R"({"acceptance_min":6858180,"appliance_type":"WashingMachine")"
      R"(,"assignment_min":6858240,"creation_min":6858120,"direction":"Consumption")"
      R"(,"earliest_start_min":6858720,"energy_type":"Hydro","grid_node":7,"id":12)"
      R"(,"latest_start_min":6858780,"profile":[{"max_kwh":1.5,"min_kwh":0.5,"slices":1}])"
      R"(,"prosumer":120,"prosumer_type":"SmallIndustry","region":100,"state":"Assigned"})",
      R"({"acceptance_min":6858180,"appliance_type":"Dishwasher","assignment_min":6858240)"
      R"(,"creation_min":6858120,"direction":"Production","earliest_start_min":6858720)"
      R"(,"energy_type":"Biomass","grid_node":7,"id":13,"latest_start_min":6858780)"
      R"(,"profile":[{"max_kwh":1.5,"min_kwh":0.5,"slices":1}],"prosumer":130)"
      R"(,"prosumer_type":"LargeIndustry","region":100,"state":"Rejected"})",
      R"({"acceptance_min":6858180,"appliance_type":"WaterHeater","assignment_min":6858240)"
      R"(,"creation_min":6858120,"direction":"Consumption","earliest_start_min":6858720)"
      R"(,"energy_type":"Nuclear","grid_node":7,"id":14,"latest_start_min":6858780)"
      R"(,"profile":[{"max_kwh":1.5,"min_kwh":0.5,"slices":1}],"prosumer":140)"
      R"(,"prosumer_type":"SmallPowerPlant","region":100,"state":"Offered"})",
      R"({"acceptance_min":6858180,"appliance_type":"BatteryStorage")"
      R"(,"assignment_min":6858240,"creation_min":6858120,"direction":"Production")"
      R"(,"earliest_start_min":6858720,"energy_type":"Coal","grid_node":7,"id":15)"
      R"(,"latest_start_min":6858780,"profile":[{"max_kwh":1.5,"min_kwh":0.5,"slices":1}])"
      R"(,"prosumer":150,"prosumer_type":"LargePowerPlant","region":100)"
      R"(,"state":"Accepted"})",
      R"({"acceptance_min":6858180,"appliance_type":"IndustrialProcess")"
      R"(,"assignment_min":6858240,"creation_min":6858120,"direction":"Consumption")"
      R"(,"earliest_start_min":6858720,"energy_type":"Gas","grid_node":7,"id":16)"
      R"(,"latest_start_min":6858780,"profile":[{"max_kwh":1.5,"min_kwh":0.5,"slices":1}])"
      R"(,"prosumer":160,"prosumer_type":"Household","region":100,"state":"Assigned"})",
      R"({"acceptance_min":6858180,"appliance_type":"Generator","assignment_min":6858240)"
      R"(,"creation_min":6858120,"direction":"Production","earliest_start_min":6858720)"
      R"(,"energy_type":"MixedGrid","grid_node":7,"id":17,"latest_start_min":6858780)"
      R"(,"profile":[{"max_kwh":1.5,"min_kwh":0.5,"slices":1}],"prosumer":170)"
      R"(,"prosumer_type":"Commercial","region":100,"state":"Rejected"})",
  };
  for (int i = 0; i < 8; ++i) {
    FlexOffer offer = MakeOffer(10 + i);
    offer.profile = {ProfileSlice{1, 0.5, 1.5}};
    offer.energy_type = static_cast<core::EnergyType>(i);
    offer.prosumer_type = static_cast<core::ProsumerType>(i % 6);
    offer.appliance_type = static_cast<core::ApplianceType>(i);
    offer.direction = static_cast<core::Direction>(i % 2);
    offer.state = static_cast<core::FlexOfferState>(i % 4);
    EXPECT_EQ(core::EncodeFlexOffer(offer), expected[i]) << "offer " << i;
    Result<FlexOffer> back = core::DecodeFlexOffer(expected[i]);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(core::EncodeFlexOffer(*back), expected[i]) << "offer " << i;
  }
}

TEST(MessageTest, PinnedBytesForEveryKind) {
  FlexOffer offer = MakeOffer(9);
  offer.schedule = core::Schedule{T0() + kMinutesPerSlice, {1.5, 2.0, 0.25}};
  AssignmentMessage assignment;
  assignment.offer = 43;
  assignment.schedule = core::Schedule{T0(), {1.0, -0.0, 2.5, 1e-7}};
  assignment.sent_at = T0() - 30;
  AssignmentMessage empty_assignment;
  empty_assignment.offer = 44;
  empty_assignment.schedule = core::Schedule{T0(), {}};
  empty_assignment.sent_at = T0();
  const std::vector<std::pair<Message, std::string>> cases = {
      {Message(offer),
       R"({"payload":{"acceptance_min":6858180,"appliance_type":"BatteryStorage")"
       R"(,"assignment_min":6858240,"creation_min":6858120,"direction":"Production")"
       R"(,"earliest_start_min":6858720,"energy_type":"Wind","grid_node":7,"id":9)"
       R"(,"latest_start_min":6858780,"profile":[{"max_kwh":2,"min_kwh":1,"slices":2})"
       R"(,{"max_kwh":0.75,"min_kwh":0.25,"slices":1}],"prosumer":90)"
       R"(,"prosumer_type":"Commercial","region":100,"schedule":{"energy_kwh":[1.5,2,0.25])"
       R"(,"start_min":6858735},"state":"Accepted"},"type":"flex_offer"})"},
      {Message(AcceptanceMessage{42, true, T0()}),
       R"({"payload":{"accepted":true,"offer":42,"sent_at_min":6858720})"
       R"(,"type":"acceptance"})"},
      {Message(AcceptanceMessage{-7, false, T0() - 5}),
       R"({"payload":{"accepted":false,"offer":-7,"sent_at_min":6858715})"
       R"(,"type":"acceptance"})"},
      {Message(assignment),
       R"({"payload":{"energy_kwh":[1,-0,2.5,9.9999999999999995e-08],"offer":43)"
       R"(,"sent_at_min":6858690,"start_min":6858720},"type":"assignment"})"},
      {Message(empty_assignment),
       R"({"payload":{"energy_kwh":[],"offer":44,"sent_at_min":6858720)"
       R"(,"start_min":6858720},"type":"assignment"})"},
  };
  for (const auto& [message, expected] : cases) {
    EXPECT_EQ(core::EncodeMessage(message), expected);
    Result<Message> back = core::DecodeMessage(expected);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->index(), message.index());
  }
  // The -0 energy reads back as +0; everything else round-trips exactly.
  Result<Message> back = core::DecodeMessage(cases[3].second);
  ASSERT_TRUE(back.ok());
  const AssignmentMessage& decoded = std::get<AssignmentMessage>(*back);
  EXPECT_FALSE(std::signbit(decoded.schedule.energy_kwh[1]));
  EXPECT_EQ(decoded, assignment);  // -0.0 == 0.0
}

// An integer field holding a double outside int64 used to reach an undefined
// float-to-int cast; a non-finite energy used to parse to +inf.
TEST(FlexOfferJsonTest, RejectsOutOfRangeNumbers) {
  const std::string valid = core::EncodeFlexOffer(MakeOffer(1));
  ASSERT_TRUE(core::DecodeFlexOffer(valid).ok());
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string text = valid;
    const size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  const std::vector<std::string> inputs = {
      replaced(R"("id":1)", R"("id":1e300)"),
      replaced(R"("region":100)", R"("region":-1e300)"),
      replaced(R"("slices":1)", R"("slices":9.3e18)"),
      replaced(R"("max_kwh":2)", R"("max_kwh":1e999)"),
      replaced(R"("prosumer":10)", R"("prosumer":99999999999999999999)"),
  };
  for (const std::string& text : inputs) {
    Result<FlexOffer> decoded = core::DecodeFlexOffer(text);
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << text;
    Result<Message> message =
        core::DecodeMessage(R"({"payload":)" + text + R"(,"type":"flex_offer"})");
    EXPECT_EQ(message.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(FlexOfferJsonTest, RejectsSliceCountsOutsideInt) {
  // 4294967297 = 2^32 + 1 used to decode as a 1-slice profile (and pass
  // Validate); counts that do not fit an int, or are below 1, are refused.
  const std::string valid = core::EncodeFlexOffer(MakeOffer(1));
  ASSERT_NE(valid.find(R"("slices":1})"), std::string::npos);
  for (const char* count : {"4294967297", "2147483648", "-4294967295", "0", "-1"}) {
    std::string text = valid;
    text.replace(text.find(R"("slices":1})"), 11, std::string(R"("slices":)") + count + "}");
    Result<FlexOffer> decoded = core::DecodeFlexOffer(text);
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument) << count;
    EXPECT_NE(decoded.status().message().find("'slices'"), std::string::npos)
        << decoded.status().message();
  }
  std::string widest = valid;
  widest.replace(widest.find(R"("slices":1})"), 11, R"("slices":2147483647})");
  Result<FlexOffer> decoded = core::DecodeFlexOffer(widest);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->profile.back().duration_slices, std::numeric_limits<int>::max());
}

// ---- Message envelopes --------------------------------------------------------------

TEST(MessageTest, FlexOfferEnvelopeRoundTrips) {
  FlexOffer offer = MakeOffer(9);
  std::string wire = core::EncodeMessage(Message(offer));
  Result<Message> decoded = core::DecodeMessage(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_TRUE(std::holds_alternative<FlexOffer>(*decoded));
  EXPECT_EQ(std::get<FlexOffer>(*decoded).id, 9);
}

TEST(MessageTest, AcceptanceRoundTrips) {
  AcceptanceMessage msg{42, true, T0()};
  Result<Message> decoded = core::DecodeMessage(core::EncodeMessage(Message(msg)));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(std::holds_alternative<AcceptanceMessage>(*decoded));
  EXPECT_EQ(std::get<AcceptanceMessage>(*decoded), msg);
}

TEST(MessageTest, AssignmentRoundTrips) {
  AssignmentMessage msg;
  msg.offer = 43;
  msg.schedule = core::Schedule{T0(), {1.0, 2.0, 3.0}};
  msg.sent_at = T0() - 30;
  Result<Message> decoded = core::DecodeMessage(core::EncodeMessage(Message(msg)));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(std::holds_alternative<AssignmentMessage>(*decoded));
  EXPECT_EQ(std::get<AssignmentMessage>(*decoded), msg);
}

TEST(MessageTest, RejectsInvalidEnvelopes) {
  EXPECT_FALSE(core::DecodeMessage("{}").ok());
  EXPECT_FALSE(core::DecodeMessage(R"({"type":"mystery","payload":{}})").ok());
  EXPECT_FALSE(core::DecodeMessage(R"({"type":"acceptance","payload":{"offer":1}})").ok());
  // A flex-offer envelope whose payload fails core validation is rejected.
  FlexOffer bad = MakeOffer(1);
  bad.latest_start = bad.earliest_start - kMinutesPerSlice;
  EXPECT_FALSE(core::DecodeMessage(core::EncodeMessage(Message(bad))).ok());
}

// Property: the codec round-trips every generated workload offer.
class MessageCodecPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MessageCodecPropertyTest, WorkloadOffersRoundTrip) {
  geo::Atlas atlas = geo::Atlas::MakeDenmark();
  grid::GridTopology topology = grid::GridTopology::MakeRadial(2, 1, 2, 2);
  sim::WorkloadGenerator generator(&atlas, &topology);
  sim::WorkloadParams params;
  params.seed = GetParam();
  params.num_prosumers = 20;
  params.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
  sim::Workload workload = *generator.Generate(params);
  for (const FlexOffer& offer : workload.offers) {
    Result<Message> decoded = core::DecodeMessage(core::EncodeMessage(Message(offer)));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const FlexOffer& back = std::get<FlexOffer>(*decoded);
    EXPECT_EQ(back.id, offer.id);
    EXPECT_EQ(back.UnitProfile(), offer.UnitProfile());
    ASSERT_EQ(back.schedule.has_value(), offer.schedule.has_value());
    if (offer.schedule.has_value()) {
      EXPECT_EQ(back.schedule->start, offer.schedule->start);
      for (size_t i = 0; i < offer.schedule->energy_kwh.size(); ++i) {
        EXPECT_DOUBLE_EQ(back.schedule->energy_kwh[i], offer.schedule->energy_kwh[i]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageCodecPropertyTest, ::testing::Values(3, 14, 159));

// ---- CSV interchange ------------------------------------------------------------------

TEST(CsvTest, ParseBasics) {
  Result<std::vector<std::vector<std::string>>> parsed = dw::ParseCsv("a,b\n1,2\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*parsed)[1], (std::vector<std::string>{"1", "2"}));
  // No trailing newline.
  EXPECT_EQ(dw::ParseCsv("x,y")->size(), 1u);
  // Empty fields survive.
  EXPECT_EQ((*dw::ParseCsv("a,,c\n"))[0][1], "");
}

TEST(CsvTest, QuotingRules) {
  Result<std::vector<std::vector<std::string>>> parsed =
      dw::ParseCsv("\"a,b\",\"say \"\"hi\"\"\",\"multi\nline\"\n");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0][0], "a,b");
  EXPECT_EQ((*parsed)[0][1], "say \"hi\"");
  EXPECT_EQ((*parsed)[0][2], "multi\nline");
  EXPECT_FALSE(dw::ParseCsv("\"unterminated\n").ok());
  EXPECT_FALSE(dw::ParseCsv("ab\"cd\n").ok());
}

TEST(CsvTest, TableRoundTrip) {
  dw::Table table("t", {{"id", dw::ColumnType::kInt64},
                        {"score", dw::ColumnType::kDouble},
                        {"name", dw::ColumnType::kString}});
  ASSERT_TRUE(table.AppendRow({dw::Value(int64_t{1}), dw::Value(1.25),
                               dw::Value(std::string("plain"))}).ok());
  ASSERT_TRUE(table.AppendRow({dw::Value(int64_t{-2}), dw::Value::Null(),
                               dw::Value(std::string("has,comma and \"quote\""))}).ok());

  std::string csv = dw::TableToCsv(table);
  Result<dw::Table> back = dw::TableFromCsv("t", table.schema(), csv);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->NumRows(), 2u);
  EXPECT_EQ(back->FindColumn("id")->GetInt64(1), -2);
  EXPECT_TRUE(back->FindColumn("score")->IsNull(1));
  EXPECT_DOUBLE_EQ(back->FindColumn("score")->GetDouble(0), 1.25);
  EXPECT_EQ(back->FindColumn("name")->GetString(1), "has,comma and \"quote\"");
}

TEST(CsvTest, SchemaMismatchErrors) {
  std::vector<dw::ColumnSpec> schema = {{"a", dw::ColumnType::kInt64}};
  EXPECT_FALSE(dw::TableFromCsv("t", schema, "wrong\n1\n").ok());       // header name
  EXPECT_FALSE(dw::TableFromCsv("t", schema, "a,b\n1,2\n").ok());       // header arity
  EXPECT_FALSE(dw::TableFromCsv("t", schema, "a\nxyz\n").ok());         // bad int
  EXPECT_FALSE(dw::TableFromCsv("t", schema, "a\n1,2\n").ok());         // record arity
  EXPECT_FALSE(dw::TableFromCsv("t", schema, "").ok());                 // missing header
  // Headerless mode skips the header check.
  Result<dw::Table> ok = dw::TableFromCsv("t", schema, "5\n", /*has_header=*/false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->FindColumn("a")->GetInt64(0), 5);
}

TEST(CsvTest, WarehouseFactsSurviveCsvRoundTrip) {
  geo::Atlas atlas = geo::Atlas::MakeDenmark();
  grid::GridTopology topology = grid::GridTopology::MakeRadial(2, 1, 2, 2);
  dw::Database db;
  ASSERT_TRUE(atlas.RegisterWithDatabase(db).ok());
  ASSERT_TRUE(topology.RegisterWithDatabase(db).ok());
  sim::WorkloadGenerator generator(&atlas, &topology);
  sim::WorkloadParams params;
  params.num_prosumers = 20;
  params.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
  ASSERT_TRUE(
      sim::WorkloadGenerator::LoadIntoDatabase(*generator.Generate(params), db).ok());

  std::string csv = dw::TableToCsv(db.fact_flexoffer());
  Result<dw::Table> back = dw::TableFromCsv("fact_flexoffer",
                                            db.fact_flexoffer().schema(), csv);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->NumRows(), db.fact_flexoffer().NumRows());
  // Spot-check a few cells including the nullable schedule column.
  const dw::Column* orig = db.fact_flexoffer().FindColumn("scheduled_start_min");
  const dw::Column* copy = back->FindColumn("scheduled_start_min");
  for (size_t r = 0; r < back->NumRows(); ++r) {
    EXPECT_EQ(orig->IsNull(r), copy->IsNull(r));
    if (!orig->IsNull(r)) {
      EXPECT_EQ(orig->GetInt64(r), copy->GetInt64(r));
    }
  }
}

// ---- Online enterprise ------------------------------------------------------------------

class OnlineTest : public ::testing::Test {
 protected:
  OnlineTest()
      : atlas_(geo::Atlas::MakeDenmark()),
        topology_(grid::GridTopology::MakeRadial(2, 2, 2, 3)),
        generator_(&atlas_, &topology_) {
    sim::WorkloadParams params;
    params.seed = 606;
    params.num_prosumers = 60;
    params.offers_per_prosumer = 3.0;
    params.horizon = TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
    workload_ = *generator_.Generate(params);
    window_ = TimeInterval(T0() - 2 * timeutil::kMinutesPerDay,
                           T0() + 2 * timeutil::kMinutesPerDay);
  }

  geo::Atlas atlas_;
  grid::GridTopology topology_;
  sim::WorkloadGenerator generator_;
  sim::Workload workload_;
  TimeInterval window_;
};

TEST_F(OnlineTest, MeetsEveryDeadlineWithFineTick) {
  sim::OnlineParams params;
  params.tick_minutes = 15;
  sim::OnlineEnterprise enterprise(params);
  Result<sim::OnlineReport> report = enterprise.Run(workload_.offers, window_);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->offers_received, static_cast<int>(workload_.offers.size()));
  EXPECT_EQ(report->missed_acceptance, 0);
  EXPECT_EQ(report->missed_assignment, 0);
  EXPECT_EQ(report->accepted + report->rejected, report->offers_received);
  EXPECT_GT(report->assigned, 0);
  // Every assignment message was sent at or before its offer's deadline, and
  // every committed schedule validates.
  for (const core::FlexOffer& o : report->offers) {
    if (o.state == core::FlexOfferState::kAssigned) {
      EXPECT_TRUE(core::Validate(o).ok()) << core::Describe(o);
    }
  }
  // The outbox is a decodable protocol stream.
  int assignments = 0;
  for (const std::string& wire : report->outbox) {
    Result<Message> decoded = core::DecodeMessage(wire);
    ASSERT_TRUE(decoded.ok());
    if (std::holds_alternative<AssignmentMessage>(*decoded)) ++assignments;
  }
  EXPECT_EQ(assignments, report->assigned);
}

TEST_F(OnlineTest, OutboxMessagesRespectDeadlines) {
  sim::OnlineParams params;
  params.tick_minutes = 30;
  Result<sim::OnlineReport> report =
      sim::OnlineEnterprise(params).Run(workload_.offers, window_);
  ASSERT_TRUE(report.ok());
  std::map<core::FlexOfferId, const core::FlexOffer*> by_id;
  for (const core::FlexOffer& o : report->offers) by_id[o.id] = &o;
  for (const std::string& wire : report->outbox) {
    Result<Message> decoded = core::DecodeMessage(wire);
    ASSERT_TRUE(decoded.ok());
    if (const auto* acc = std::get_if<AcceptanceMessage>(&*decoded)) {
      EXPECT_LE(acc->sent_at, by_id.at(acc->offer)->acceptance_deadline);
    } else if (const auto* assign = std::get_if<AssignmentMessage>(&*decoded)) {
      EXPECT_LE(assign->sent_at, by_id.at(assign->offer)->assignment_deadline);
    }
  }
}

TEST_F(OnlineTest, OnlineIsNoBetterThanOffline) {
  // The online loop commits irrevocably with partial knowledge; the offline
  // scheduler sees everything. Same scheduler, same target scale.
  sim::OnlineParams online_params;
  online_params.tick_minutes = 60;
  Result<sim::OnlineReport> online =
      sim::OnlineEnterprise(online_params).Run(workload_.offers, window_);
  ASSERT_TRUE(online.ok());

  core::TimeSeries target = sim::MakeFlexibilityTarget(
      sim::MakeResProduction(window_, online_params.energy),
      sim::MakeInflexibleDemand(window_, online_params.energy));
  core::ScheduleResult offline = core::Scheduler().Plan(workload_.offers, target);
  // Allow a whisker of slack for ordering noise at equal quality.
  EXPECT_GE(online->imbalance_kwh, offline.imbalance_after_kwh * 0.999);
}

TEST_F(OnlineTest, InvalidConfigurations) {
  sim::OnlineEnterprise enterprise;
  EXPECT_FALSE(enterprise.Run(workload_.offers, TimeInterval()).ok());
  sim::OnlineParams params;
  params.tick_minutes = 0;
  EXPECT_FALSE(sim::OnlineEnterprise(params).Run(workload_.offers, window_).ok());
}

}  // namespace
}  // namespace flexvis
