// Reference-equivalence fuzz for the streaming flex-offer and message codec
// (core/messages).
//
// The oracle decodes through the JsonValue document model with the field
// rules of the document-based decoder the streaming one replaced (moved here
// verbatim apart from rejecting integer fields outside int64). Every mutated
// document must get the same verdict from both decoders, the same decoded
// value when both accept, and must never abort. Mutations:
//
//  * seeded byte flips, truncations and insertions of encoded records;
//  * structural rewrites: key reorders, duplicated keys (shadowed or
//    winning), unknown keys, extra whitespace and \uXXXX-escaped strings.
//
// Case counts default to a CI-smoke budget and scale with the
// FLEXVIS_FUZZ_CASES environment variable (total cases across the tests in
// this file), like csv_fuzz_test.cc.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/messages.h"
#include "geo/atlas.h"
#include "grid/topology.h"
#include "sim/workload.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/strings.h"

namespace flexvis {
namespace {

using core::AcceptanceMessage;
using core::ApplianceType;
using core::AssignmentMessage;
using core::Direction;
using core::EnergyType;
using core::FlexOffer;
using core::FlexOfferState;
using core::kInvalidGridNodeId;
using core::kInvalidRegionId;
using core::Message;
using core::ParseApplianceType;
using core::ParseEnergyType;
using core::ParseFlexOfferState;
using core::ParseProsumerType;
using core::ProfileSlice;
using core::ProsumerType;
using core::Schedule;
using timeutil::TimePoint;

size_t FuzzCases() {
  const char* env = std::getenv("FLEXVIS_FUZZ_CASES");
  if (env == nullptr || *env == '\0') return 10000;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || v == 0) return 10000;
  return static_cast<size_t>(v);
}

// ---- DOM oracle ------------------------------------------------------------------------

/// An integer id: an int token, or an integral double within int64.
bool IsInt64(const JsonValue& v) {
  return v.is_int() || (v.AsDouble() >= -9223372036854775808.0 &&
                        v.AsDouble() < 9223372036854775808.0 &&
                        std::trunc(v.AsDouble()) == v.AsDouble());
}

Result<FlexOffer> OracleFlexOfferFromJson(const JsonValue& json) {
  if (!json.is_object()) return InvalidArgumentError("flex-offer JSON must be an object");
  FlexOffer offer;
  {
    Result<int64_t> v = json.GetInt("id");
    if (!v.ok()) return v.status();
    offer.id = *v;
  }
  {
    Result<int64_t> v = json.GetInt("prosumer");
    if (!v.ok()) return v.status();
    offer.prosumer = *v;
  }
  offer.region = kInvalidRegionId;
  if (json.Get("region").is_number()) {
    Result<int64_t> v = json.GetInt("region");
    if (!v.ok()) return v.status();
    offer.region = *v;
  }
  offer.grid_node = kInvalidGridNodeId;
  if (json.Get("grid_node").is_number()) {
    Result<int64_t> v = json.GetInt("grid_node");
    if (!v.ok()) return v.status();
    offer.grid_node = *v;
  }
  {
    Result<std::string> s = json.GetString("energy_type");
    if (!s.ok()) return s.status();
    Result<EnergyType> parsed = ParseEnergyType(*s);
    if (!parsed.ok()) return parsed.status();
    offer.energy_type = *parsed;
  }
  {
    Result<std::string> s = json.GetString("prosumer_type");
    if (!s.ok()) return s.status();
    Result<ProsumerType> parsed = ParseProsumerType(*s);
    if (!parsed.ok()) return parsed.status();
    offer.prosumer_type = *parsed;
  }
  {
    Result<std::string> s = json.GetString("appliance_type");
    if (!s.ok()) return s.status();
    Result<ApplianceType> parsed = ParseApplianceType(*s);
    if (!parsed.ok()) return parsed.status();
    offer.appliance_type = *parsed;
  }
  {
    Result<std::string> s = json.GetString("direction");
    if (!s.ok()) return s.status();
    offer.direction = EqualsIgnoreCase(*s, "Production") ? Direction::kProduction
                                                         : Direction::kConsumption;
  }
  {
    Result<std::string> s = json.GetString("state");
    if (!s.ok()) return s.status();
    Result<FlexOfferState> parsed = ParseFlexOfferState(*s);
    if (!parsed.ok()) return parsed.status();
    offer.state = *parsed;
  }
  struct TimeField {
    const char* key;
    TimePoint* target;
  };
  TimeField fields[] = {
      {"creation_min", &offer.creation_time},
      {"acceptance_min", &offer.acceptance_deadline},
      {"assignment_min", &offer.assignment_deadline},
      {"earliest_start_min", &offer.earliest_start},
      {"latest_start_min", &offer.latest_start},
  };
  for (const TimeField& f : fields) {
    Result<int64_t> v = json.GetInt(f.key);
    if (!v.ok()) return v.status();
    *f.target = TimePoint::FromMinutes(*v);
  }

  const JsonValue& profile = json.Get("profile");
  if (!profile.is_array()) return InvalidArgumentError("flex-offer JSON: missing profile");
  for (size_t i = 0; i < profile.size(); ++i) {
    const JsonValue& slice = profile[i];
    Result<int64_t> slices = slice.GetInt("slices");
    Result<double> min_kwh = slice.GetDouble("min_kwh");
    Result<double> max_kwh = slice.GetDouble("max_kwh");
    if (!slices.ok()) return slices.status();
    // A slice count must fit the model's int and be at least 1.
    if (*slices < 1 || *slices > std::numeric_limits<int>::max()) {
      return InvalidArgumentError("flex-offer JSON: slices outside [1, INT_MAX]");
    }
    if (!min_kwh.ok()) return min_kwh.status();
    if (!max_kwh.ok()) return max_kwh.status();
    offer.profile.push_back(ProfileSlice{static_cast<int>(*slices), *min_kwh, *max_kwh});
  }

  if (json.Has("schedule")) {
    const JsonValue& sched = json.Get("schedule");
    Result<int64_t> start = sched.GetInt("start_min");
    if (!start.ok()) return start.status();
    Schedule schedule;
    schedule.start = TimePoint::FromMinutes(*start);
    const JsonValue& energies = sched.Get("energy_kwh");
    if (!energies.is_array()) {
      return InvalidArgumentError("flex-offer JSON: schedule without energy_kwh");
    }
    for (size_t i = 0; i < energies.size(); ++i) {
      if (!energies[i].is_number()) {
        return InvalidArgumentError("flex-offer JSON: non-numeric scheduled energy");
      }
      schedule.energy_kwh.push_back(energies[i].AsDouble());
    }
    offer.schedule = std::move(schedule);
  }
  if (json.Has("aggregated_from")) {
    const JsonValue& members = json.Get("aggregated_from");
    if (!members.is_array()) {
      return InvalidArgumentError("flex-offer JSON: aggregated_from must be an array");
    }
    for (size_t i = 0; i < members.size(); ++i) {
      if (!members[i].is_number()) {
        return InvalidArgumentError("flex-offer JSON: non-numeric member id");
      }
      if (!IsInt64(members[i])) {
        return InvalidArgumentError(
            "flex-offer JSON: member id is not an integer within the int64 range");
      }
      offer.aggregated_from.push_back(members[i].AsInt());
    }
  }
  return offer;
}

Result<FlexOffer> OracleDecodeFlexOffer(std::string_view text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return OracleFlexOfferFromJson(*parsed);
}

Result<Message> OracleDecodeMessage(std::string_view text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok()) return parsed.status();
  Result<std::string> type = parsed->GetString("type");
  if (!type.ok()) return type.status();
  const JsonValue& payload = parsed->Get("payload");
  if (!payload.is_object()) return InvalidArgumentError("message: missing payload");

  if (*type == "flex_offer") {
    Result<FlexOffer> offer = OracleFlexOfferFromJson(payload);
    if (!offer.ok()) return offer.status();
    FLEXVIS_RETURN_IF_ERROR(core::Validate(*offer));
    return Message(*std::move(offer));
  }
  if (*type == "acceptance") {
    AcceptanceMessage msg;
    Result<int64_t> offer = payload.GetInt("offer");
    if (!offer.ok()) return offer.status();
    msg.offer = *offer;
    Result<bool> accepted = payload.GetBool("accepted");
    if (!accepted.ok()) return accepted.status();
    msg.accepted = *accepted;
    Result<int64_t> sent = payload.GetInt("sent_at_min");
    if (!sent.ok()) return sent.status();
    msg.sent_at = TimePoint::FromMinutes(*sent);
    return Message(std::move(msg));
  }
  if (*type == "assignment") {
    AssignmentMessage msg;
    Result<int64_t> offer = payload.GetInt("offer");
    if (!offer.ok()) return offer.status();
    msg.offer = *offer;
    Result<int64_t> start = payload.GetInt("start_min");
    if (!start.ok()) return start.status();
    msg.schedule.start = TimePoint::FromMinutes(*start);
    const JsonValue& energies = payload.Get("energy_kwh");
    if (!energies.is_array()) return InvalidArgumentError("assignment: missing energy_kwh");
    for (size_t i = 0; i < energies.size(); ++i) {
      if (!energies[i].is_number()) {
        return InvalidArgumentError("assignment: non-numeric energy");
      }
      msg.schedule.energy_kwh.push_back(energies[i].AsDouble());
    }
    Result<int64_t> sent = payload.GetInt("sent_at_min");
    if (!sent.ok()) return sent.status();
    msg.sent_at = TimePoint::FromMinutes(*sent);
    return Message(std::move(msg));
  }
  return InvalidArgumentError(StrFormat("message: unknown type '%s'", type->c_str()));
}

// ---- Inputs ----------------------------------------------------------------------------

TimePoint T0() { return TimePoint::FromCalendarOrDie(2013, 2, 1, 0, 0); }

double RandomEnergy(Rng& rng) {
  static const double kPalette[] = {0.0, -0.0, 5e-324, 0.1, 1e21, 1e-7, 1e5, -1.25, 1e300};
  if (rng.Bernoulli(0.5)) return kPalette[rng.UniformInt(0, std::size(kPalette) - 1)];
  return rng.Uniform(-50, 50);
}

int64_t RandomId(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0: return std::numeric_limits<int64_t>::min();
    case 1: return std::numeric_limits<int64_t>::max();
    case 2: return static_cast<int64_t>(rng.NextUint64());
    default: return rng.UniformInt(-1, 5000);
  }
}

/// Offers with every field exercised; most do not pass core::Validate.
FlexOffer RandomOffer(Rng& rng) {
  FlexOffer o;
  o.id = RandomId(rng);
  o.prosumer = RandomId(rng);
  o.region = rng.UniformInt(-1, 200);
  o.grid_node = rng.UniformInt(-1, 50);
  o.energy_type = static_cast<core::EnergyType>(rng.UniformInt(0, core::kNumEnergyTypes - 1));
  o.prosumer_type =
      static_cast<core::ProsumerType>(rng.UniformInt(0, core::kNumProsumerTypes - 1));
  o.appliance_type =
      static_cast<core::ApplianceType>(rng.UniformInt(0, core::kNumApplianceTypes - 1));
  o.direction = static_cast<core::Direction>(rng.UniformInt(0, 1));
  o.state = static_cast<core::FlexOfferState>(rng.UniformInt(0, core::kNumFlexOfferStates - 1));
  o.earliest_start = T0() + rng.UniformInt(0, 96) * 15;
  o.latest_start = o.earliest_start + rng.UniformInt(0, 16) * 15;
  o.creation_time = o.earliest_start - rng.UniformInt(0, 1000);
  o.acceptance_deadline = o.creation_time + rng.UniformInt(0, 100);
  o.assignment_deadline = o.acceptance_deadline + rng.UniformInt(0, 100);
  const int slices = static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < slices; ++i) {
    o.profile.push_back(ProfileSlice{static_cast<int>(rng.UniformInt(1, 4)), RandomEnergy(rng),
                                     RandomEnergy(rng)});
  }
  if (rng.Bernoulli(0.5)) {
    core::Schedule schedule{o.earliest_start, {}};
    const int n = static_cast<int>(rng.UniformInt(0, 6));
    for (int i = 0; i < n; ++i) schedule.energy_kwh.push_back(RandomEnergy(rng));
    o.schedule = std::move(schedule);
  }
  if (rng.Bernoulli(0.3)) {
    const int n = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < n; ++i) o.aggregated_from.push_back(RandomId(rng));
  }
  return o;
}

/// Valid offers (they pass core::Validate) from the workload generator.
std::vector<FlexOffer> WorkloadOffers() {
  geo::Atlas atlas = geo::Atlas::MakeDenmark();
  grid::GridTopology topology = grid::GridTopology::MakeRadial(2, 1, 2, 2);
  sim::WorkloadGenerator generator(&atlas, &topology);
  sim::WorkloadParams params;
  params.seed = 2013;
  params.num_prosumers = 40;
  params.horizon = timeutil::TimeInterval(T0(), T0() + timeutil::kMinutesPerDay);
  return generator.Generate(params)->offers;
}

std::vector<std::string> EncodedMessages(Rng& rng, const std::vector<FlexOffer>& offers) {
  std::vector<std::string> out;
  for (const FlexOffer& offer : offers) {
    out.push_back(core::EncodeMessage(Message(offer)));
    out.push_back(core::EncodeMessage(
        Message(AcceptanceMessage{offer.id, rng.Bernoulli(0.5), offer.creation_time + 5})));
    AssignmentMessage assignment;
    assignment.offer = offer.id;
    assignment.schedule = core::Schedule{offer.earliest_start, {}};
    const int n = static_cast<int>(rng.UniformInt(0, 5));
    for (int i = 0; i < n; ++i) assignment.schedule.energy_kwh.push_back(RandomEnergy(rng));
    assignment.sent_at = offer.assignment_deadline;
    out.push_back(core::EncodeMessage(Message(assignment)));
  }
  return out;
}

// ---- Mutators --------------------------------------------------------------------------

/// A random JSON value as text: any kind, nested, sometimes a number outside
/// the accepted range.
std::string RandomValueText(Rng& rng, int depth) {
  static const char* const kScalars[] = {
      "null", "true", "false", "0", "-0", "7", "-3", "2.5", "1e300", "-1e300", "1e21",
      "5e-324", "99999999999999999999", "1e999", "\"Wind\"", "\"production\"", "\"Offered\"",
      "\"\"", "\"x\\u0041\"", "[]", "{}"};
  const int64_t kind = rng.UniformInt(0, depth <= 0 ? 0 : 2);
  if (kind == 0) return kScalars[rng.UniformInt(0, std::size(kScalars) - 1)];
  const bool object = kind == 2;
  std::string out(1, object ? '{' : '[');
  const int n = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    if (object) {
      static const char* const kKeys[] = {"slices", "min_kwh", "max_kwh", "start_min",
                                          "energy_kwh", "k"};
      AppendJsonString(&out, kKeys[rng.UniformInt(0, std::size(kKeys) - 1)]);
      out += ':';
    }
    out += RandomValueText(rng, depth - 1);
  }
  out += object ? '}' : ']';
  return out;
}

/// Rewrites a document without changing what it means (unless a winning
/// duplicate or a decoy makes it a different document): shuffled keys,
/// whitespace, \u escapes, unknown and duplicated keys.
class Scrambler {
 public:
  explicit Scrambler(Rng& rng) : rng_(rng) {}

  std::string Scramble(const JsonValue& value) {
    out_.clear();
    Value(value);
    return out_;
  }

 private:
  void Space() {
    if (!rng_.Bernoulli(0.1)) return;
    const int n = static_cast<int>(rng_.UniformInt(1, 3));
    for (int i = 0; i < n; ++i) out_ += " \t\n\r\v\f"[rng_.UniformInt(0, 5)];
  }

  void String(std::string_view text) {
    const bool escape = rng_.Bernoulli(0.2);
    out_ += '"';
    for (char c : text) {
      if (escape && rng_.Bernoulli(0.5)) {
        out_ += StrFormat(rng_.Bernoulli(0.5) ? "\\u%04x" : "\\u%04X",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
      } else {
        std::string escaped;
        AppendJsonString(&escaped, std::string_view(&c, 1));
        out_.append(escaped, 1, escaped.size() - 2);  // without the quotes
      }
    }
    out_ += '"';
  }

  void Member(std::string_view key, const std::string& value_text) {
    if (!first_member_) out_ += ',';
    first_member_ = false;
    Space();
    String(key);
    Space();
    out_ += ':';
    Space();
    out_ += value_text;
    Space();
  }

  void Value(const JsonValue& value) {
    Space();
    switch (value.kind()) {
      case JsonValue::Kind::kObject: {
        std::vector<std::pair<std::string, const JsonValue*>> members;
        for (const auto& [key, member] : value.items()) members.emplace_back(key, &member);
        if (rng_.Bernoulli(0.5)) rng_.Shuffle(members);
        std::vector<std::pair<std::string, std::string>> texts;
        for (const auto& [key, member] : members) {
          Scrambler inner(rng_);
          texts.emplace_back(key, inner.Scramble(*member));
        }
        out_ += '{';
        first_member_ = true;
        for (const auto& [key, text] : texts) {
          if (rng_.Bernoulli(0.05)) Member(UnknownKey(), RandomValueText(rng_, 2));
          if (rng_.Bernoulli(0.05)) Member(key, RandomValueText(rng_, 2));  // shadowed
          Member(key, text);
          if (rng_.Bernoulli(0.01)) Member(key, RandomValueText(rng_, 2));  // wins
        }
        if (rng_.Bernoulli(0.05)) Member(UnknownKey(), RandomValueText(rng_, 2));
        out_ += '}';
        break;
      }
      case JsonValue::Kind::kArray:
        out_ += '[';
        for (size_t i = 0; i < value.size(); ++i) {
          if (i > 0) out_ += ',';
          Scrambler inner(rng_);
          out_ += inner.Scramble(value[i]);
        }
        Space();
        out_ += ']';
        break;
      case JsonValue::Kind::kString:
        String(value.AsString());
        break;
      default:
        out_ += value.Dump();
        break;
    }
    Space();
  }

  std::string UnknownKey() {
    static const char* const kUnknown[] = {"note", "Id", "id ", "profile_v2", "", "schedule2",
                                           "x\ty"};
    return kUnknown[rng_.UniformInt(0, std::size(kUnknown) - 1)];
  }

  Rng& rng_;
  std::string out_;
  bool first_member_ = true;
};

/// One seeded byte flip, truncation or insertion (possibly several).
std::string MutateBytes(Rng& rng, std::string text) {
  static const char kInteresting[] = "{}[]\":,-+.eE0123456789\\ untfl";
  const int rounds = static_cast<int>(rng.UniformInt(1, 3));
  for (int r = 0; r < rounds; ++r) {
    const size_t pos = text.empty() ? 0 : static_cast<size_t>(rng.UniformInt(
                                              0, static_cast<int64_t>(text.size()) - 1));
    const char c = rng.Bernoulli(0.7)
                       ? kInteresting[rng.UniformInt(0, sizeof(kInteresting) - 2)]
                       : static_cast<char>(rng.UniformInt(0, 255));
    switch (rng.UniformInt(0, 2)) {
      case 0:
        if (!text.empty()) text[pos] = c;
        break;
      case 1:
        text.resize(pos);
        break;
      default:
        text.insert(pos, 1, c);
        break;
    }
  }
  return text;
}

// ---- Comparison ------------------------------------------------------------------------

/// The decoders agree on the verdict and, on success, on every field (the
/// encoding is injective over the fields, -0 included).
void ExpectSameOffer(const Result<FlexOffer>& got, const Result<FlexOffer>& want,
                     const std::string& input) {
  ASSERT_EQ(got.ok(), want.ok()) << "input: " << input << "\nstreaming: "
                                 << got.status().ToString()
                                 << "\noracle: " << want.status().ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << input;
    return;
  }
  ASSERT_EQ(core::EncodeFlexOffer(*got), core::EncodeFlexOffer(*want)) << "input: " << input;
}

void ExpectSameMessage(const Result<Message>& got, const Result<Message>& want,
                       const std::string& input) {
  ASSERT_EQ(got.ok(), want.ok()) << "input: " << input << "\nstreaming: "
                                 << got.status().ToString()
                                 << "\noracle: " << want.status().ToString();
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code()) << input;
    return;
  }
  ASSERT_EQ(got->index(), want->index()) << input;
  ASSERT_EQ(core::EncodeMessage(*got), core::EncodeMessage(*want)) << "input: " << input;
}

/// `text` with every "-0" number token written as "0".
std::string WithoutNegativeZeros(std::string text) {
  for (const char* token : {"-0,", "-0]", "-0}"}) {
    for (size_t at = text.find(token); at != std::string::npos; at = text.find(token, at)) {
      text.erase(at, 1);
    }
  }
  return text;
}

// ---- Tests -----------------------------------------------------------------------------

TEST(FlexOfferCodecFuzzTest, EncodingRoundTripsByteIdentically) {
  Rng rng(0xC0DEC0);
  const size_t cases = std::max<size_t>(1, FuzzCases() / 10);
  for (size_t i = 0; i < cases; ++i) {
    const FlexOffer offer = RandomOffer(rng);
    const std::string text = core::EncodeFlexOffer(offer);
    Result<FlexOffer> back = core::DecodeFlexOffer(text);
    ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n" << text;
    ExpectSameOffer(back, OracleDecodeFlexOffer(text), text);
    // -0 energies come back as +0 ("-0" is an integer token); all else is exact.
    ASSERT_EQ(core::EncodeFlexOffer(*back), WithoutNegativeZeros(text));
  }
}

TEST(FlexOfferCodecFuzzTest, ByteMutatedOffersMatchTheDomOracle) {
  Rng rng(0xB17E5);
  const size_t cases = std::max<size_t>(1, FuzzCases() * 3 / 10);
  for (size_t i = 0; i < cases; ++i) {
    const std::string text = MutateBytes(rng, core::EncodeFlexOffer(RandomOffer(rng)));
    ExpectSameOffer(core::DecodeFlexOffer(text), OracleDecodeFlexOffer(text), text);
    if (HasFatalFailure()) return;
  }
}

TEST(FlexOfferCodecFuzzTest, ScrambledOffersMatchTheDomOracle) {
  Rng rng(0x5C4A3B);
  Scrambler scrambler(rng);
  const size_t cases = std::max<size_t>(1, FuzzCases() * 3 / 10);
  size_t accepted = 0;
  for (size_t i = 0; i < cases; ++i) {
    Result<JsonValue> dom = JsonValue::Parse(core::EncodeFlexOffer(RandomOffer(rng)));
    ASSERT_TRUE(dom.ok());
    std::string text = scrambler.Scramble(*dom);
    if (rng.Bernoulli(0.2)) text = MutateBytes(rng, std::move(text));
    Result<FlexOffer> got = core::DecodeFlexOffer(text);
    accepted += got.ok() ? 1 : 0;
    ExpectSameOffer(got, OracleDecodeFlexOffer(text), text);
    if (HasFatalFailure()) return;
  }
  // The rewrites mostly keep the meaning: most cases must still decode.
  EXPECT_GT(accepted, cases / 3);
}

TEST(FlexOfferCodecFuzzTest, MutatedMessagesMatchTheDomOracle) {
  Rng rng(0xE5A6E);
  Scrambler scrambler(rng);
  const std::vector<std::string> messages = EncodedMessages(rng, WorkloadOffers());
  ASSERT_FALSE(messages.empty());
  for (const std::string& text : messages) {
    ASSERT_TRUE(core::DecodeMessage(text).ok()) << text;
    ExpectSameMessage(core::DecodeMessage(text), OracleDecodeMessage(text), text);
  }
  const size_t cases = std::max<size_t>(1, FuzzCases() * 3 / 10);
  size_t accepted = 0;
  for (size_t i = 0; i < cases; ++i) {
    const std::string& valid = messages[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(messages.size()) - 1))];
    std::string text;
    if (rng.Bernoulli(0.5)) {
      text = MutateBytes(rng, valid);
    } else {
      text = scrambler.Scramble(*JsonValue::Parse(valid));
      if (rng.Bernoulli(0.2)) text = MutateBytes(rng, std::move(text));
    }
    Result<Message> got = core::DecodeMessage(text);
    accepted += got.ok() ? 1 : 0;
    ExpectSameMessage(got, OracleDecodeMessage(text), text);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(accepted, cases / 5);
}

}  // namespace
}  // namespace flexvis
