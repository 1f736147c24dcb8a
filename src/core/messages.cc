#include "core/messages.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <type_traits>

#include "util/fault.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace flexvis::core {

using timeutil::TimePoint;
using Token = JsonReader::Token;

namespace {

constexpr const char* kTypeFlexOffer = "flex_offer";
constexpr const char* kTypeAcceptance = "acceptance";
constexpr const char* kTypeAssignment = "assignment";

// ---- Encoding ----------------------------------------------------------------------
// Keys are written in sorted order, the order of the std::map-backed document
// model these records were first written with, so the bytes never move.

void AppendDoubles(std::string* out, const std::vector<double>& values) {
  *out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ',';
    AppendJsonDouble(out, values[i]);
  }
  *out += ']';
}

void AppendFlexOffer(std::string* out, const FlexOffer& offer) {
  *out += "{\"acceptance_min\":";
  AppendJsonInt(out, offer.acceptance_deadline.minutes());
  if (!offer.aggregated_from.empty()) {
    *out += ",\"aggregated_from\":[";
    for (size_t i = 0; i < offer.aggregated_from.size(); ++i) {
      if (i > 0) *out += ',';
      AppendJsonInt(out, offer.aggregated_from[i]);
    }
    *out += ']';
  }
  *out += ",\"appliance_type\":";
  AppendJsonString(out, ApplianceTypeName(offer.appliance_type));
  *out += ",\"assignment_min\":";
  AppendJsonInt(out, offer.assignment_deadline.minutes());
  *out += ",\"creation_min\":";
  AppendJsonInt(out, offer.creation_time.minutes());
  *out += ",\"direction\":";
  AppendJsonString(out, DirectionName(offer.direction));
  *out += ",\"earliest_start_min\":";
  AppendJsonInt(out, offer.earliest_start.minutes());
  *out += ",\"energy_type\":";
  AppendJsonString(out, EnergyTypeName(offer.energy_type));
  *out += ",\"grid_node\":";
  AppendJsonInt(out, offer.grid_node);
  *out += ",\"id\":";
  AppendJsonInt(out, offer.id);
  *out += ",\"latest_start_min\":";
  AppendJsonInt(out, offer.latest_start.minutes());
  *out += ",\"profile\":[";
  for (size_t i = 0; i < offer.profile.size(); ++i) {
    const ProfileSlice& slice = offer.profile[i];
    *out += i > 0 ? ",{\"max_kwh\":" : "{\"max_kwh\":";
    AppendJsonDouble(out, slice.max_energy_kwh);
    *out += ",\"min_kwh\":";
    AppendJsonDouble(out, slice.min_energy_kwh);
    *out += ",\"slices\":";
    AppendJsonInt(out, slice.duration_slices);
    *out += '}';
  }
  *out += "],\"prosumer\":";
  AppendJsonInt(out, offer.prosumer);
  *out += ",\"prosumer_type\":";
  AppendJsonString(out, ProsumerTypeName(offer.prosumer_type));
  *out += ",\"region\":";
  AppendJsonInt(out, offer.region);
  if (offer.schedule.has_value()) {
    *out += ",\"schedule\":{\"energy_kwh\":";
    AppendDoubles(out, offer.schedule->energy_kwh);
    *out += ",\"start_min\":";
    AppendJsonInt(out, offer.schedule->start.minutes());
    *out += '}';
  }
  *out += ",\"state\":";
  AppendJsonString(out, FlexOfferStateName(offer.state));
  *out += '}';
}

// ---- Decoding ----------------------------------------------------------------------
// A record is read in one pass. Each known key fills a field slot that every
// later occurrence of the key overwrites, its error included, so the last
// duplicate wins. Syntax errors abort at once (reader.status()); field-rule
// errors are checked after the whole document parsed, in a fixed field order.

Status MissingNumber(std::string_view key) {
  return InvalidArgumentError(StrFormat("JSON: missing or non-numeric field '%.*s'",
                                        static_cast<int>(key.size()), key.data()));
}

Status MissingString(std::string_view key) {
  return InvalidArgumentError(StrFormat("JSON: missing or non-string field '%.*s'",
                                        static_cast<int>(key.size()), key.data()));
}

/// A scalar number field: absent, a number, or some other kind.
struct NumberField {
  enum class State { kMissing, kNumber, kOther };
  State state = State::kMissing;
  JsonNumber number;
};

bool ReadNumberField(JsonReader& reader, NumberField* field) {
  Token token;
  if (!reader.Peek(&token)) return false;
  if (token != Token::kNumber) {
    field->state = NumberField::State::kOther;
    return reader.SkipValue();
  }
  field->state = NumberField::State::kNumber;
  return reader.ReadNumber(&field->number);
}

Status TakeInt(const NumberField& field, std::string_view key, int64_t* out) {
  if (field.state != NumberField::State::kNumber) return MissingNumber(key);
  return field.number.ToIntField(key, out);
}

Status TakeDouble(const NumberField& field, std::string_view key, double* out) {
  if (field.state != NumberField::State::kNumber) return MissingNumber(key);
  *out = field.number.AsDouble();
  return OkStatus();
}

Status TakeTime(const NumberField& field, std::string_view key, TimePoint* out) {
  int64_t minutes = 0;
  FLEXVIS_RETURN_IF_ERROR(TakeInt(field, key, &minutes));
  *out = TimePoint::FromMinutes(minutes);
  return OkStatus();
}

/// A string field parsed into an enum as soon as it is read (the string's
/// view does not outlive the next read).
template <typename E>
struct EnumField {
  bool present = false;
  Status status;  // kind or name error of the last occurrence
  E value{};
};

template <typename E>
bool ReadEnumField(JsonReader& reader, std::string_view key, Result<E> (*parse)(std::string_view),
                   EnumField<E>* field) {
  field->present = true;
  Token token;
  if (!reader.Peek(&token)) return false;
  if (token != Token::kString) {
    field->status = MissingString(key);
    return reader.SkipValue();
  }
  std::string_view text;
  if (!reader.ReadString(&text)) return false;
  Result<E> parsed = parse(text);
  field->status = parsed.status();
  if (parsed.ok()) field->value = *parsed;
  return true;
}

template <typename E>
Status TakeEnum(const EnumField<E>& field, std::string_view key, E* out) {
  if (!field.present) return MissingString(key);
  FLEXVIS_RETURN_IF_ERROR(field.status);
  *out = field.value;
  return OkStatus();
}

Result<Direction> ParseDirectionName(std::string_view name) {
  return EqualsIgnoreCase(name, "Production") ? Direction::kProduction
                                              : Direction::kConsumption;
}

/// Presence and rule verdict of a field whose value is decoded straight into
/// the record (arrays and the schedule object).
struct FieldState {
  bool present = false;
  Status status;
};

/// Reads one occurrence of an array-valued field; `read_element(&status)`
/// reads one element and may fail the field. After the first failure the
/// rest of the array is only validated.
template <typename ReadElement>
bool ReadArrayField(JsonReader& reader, const char* not_array, FieldState* field,
                    ReadElement read_element) {
  field->present = true;
  field->status = OkStatus();
  Token token;
  if (!reader.Peek(&token)) return false;
  if (token != Token::kArray) {
    field->status = InvalidArgumentError(not_array);
    return reader.SkipValue();
  }
  reader.BeginArray();
  while (reader.NextElement()) {
    if (field->status.ok()) {
      read_element(&field->status);
    } else {
      reader.SkipValue();
    }
  }
  return reader.ok();
}

/// Reads one occurrence of an array of numbers into `values` (doubles, or
/// int64 ids that must fit).
template <typename T>
bool ReadNumberList(JsonReader& reader, const char* not_array, const char* not_number,
                    std::vector<T>* values, FieldState* field) {
  values->clear();
  return ReadArrayField(reader, not_array, field, [&](Status* status) {
    Token token;
    JsonNumber number;
    if (!reader.Peek(&token)) return;
    if (token != Token::kNumber) {
      *status = InvalidArgumentError(not_number);
      reader.SkipValue();
    } else if (!reader.ReadNumber(&number)) {
      return;
    } else if constexpr (std::is_same_v<T, double>) {
      values->push_back(number.AsDouble());
    } else {
      int64_t id = 0;
      if (number.ToInt(&id)) {
        values->push_back(id);
      } else {
        *status = InvalidArgumentError(
            "flex-offer JSON: member id is not an integer within the int64 range");
      }
    }
  });
}

/// Reads one profile slice object into `slice`; `*error` gets its rule verdict.
bool ReadProfileSlice(JsonReader& reader, ProfileSlice* slice, Status* error) {
  Token token;
  if (!reader.Peek(&token)) return false;
  if (token != Token::kObject) {
    *error = MissingNumber("slices");
    return reader.SkipValue();
  }
  NumberField slices;
  NumberField min_kwh;
  NumberField max_kwh;
  reader.BeginObject();
  std::string_view key;
  while (reader.NextMember(&key)) {
    if (key == "slices") {
      ReadNumberField(reader, &slices);
    } else if (key == "min_kwh") {
      ReadNumberField(reader, &min_kwh);
    } else if (key == "max_kwh") {
      ReadNumberField(reader, &max_kwh);
    } else {
      reader.SkipValue();
    }
  }
  if (!reader.ok()) return false;
  int64_t duration = 0;
  *error = TakeInt(slices, "slices", &duration);
  if (error->ok() && (duration < 1 || duration > std::numeric_limits<int>::max())) {
    *error = InvalidArgumentError(
        StrFormat("JSON: field 'slices' is %lld, outside [1, %d]", static_cast<long long>(duration),
                  std::numeric_limits<int>::max()));
  }
  if (error->ok()) *error = TakeDouble(min_kwh, "min_kwh", &slice->min_energy_kwh);
  if (error->ok()) *error = TakeDouble(max_kwh, "max_kwh", &slice->max_energy_kwh);
  slice->duration_slices = static_cast<int>(duration);
  return true;
}

bool ReadProfile(JsonReader& reader, std::vector<ProfileSlice>* profile, FieldState* field) {
  profile->clear();
  return ReadArrayField(reader, "flex-offer JSON: missing profile", field, [&](Status* status) {
    ProfileSlice slice;
    if (ReadProfileSlice(reader, &slice, status) && status->ok()) profile->push_back(slice);
  });
}

bool ReadSchedule(JsonReader& reader, std::optional<Schedule>* schedule, FieldState* field) {
  field->present = true;
  field->status = OkStatus();
  schedule->emplace();
  Token token;
  if (!reader.Peek(&token)) return false;
  if (token != Token::kObject) {
    field->status = MissingNumber("start_min");
    return reader.SkipValue();
  }
  NumberField start;
  FieldState energies;
  reader.BeginObject();
  std::string_view key;
  while (reader.NextMember(&key)) {
    if (key == "start_min") {
      ReadNumberField(reader, &start);
    } else if (key == "energy_kwh") {
      ReadNumberList(reader, "flex-offer JSON: schedule without energy_kwh",
                     "flex-offer JSON: non-numeric scheduled energy",
                     &(*schedule)->energy_kwh, &energies);
    } else {
      reader.SkipValue();
    }
  }
  if (!reader.ok()) return false;
  field->status = TakeTime(start, "start_min", &(*schedule)->start);
  if (field->status.ok()) {
    field->status = energies.present
                        ? energies.status
                        : InvalidArgumentError("flex-offer JSON: schedule without energy_kwh");
  }
  return true;
}

/// Reads one flex-offer object. False on a syntax error (in reader.status());
/// otherwise `*verdict` holds the field-rule result.
bool ReadFlexOffer(JsonReader& reader, FlexOffer* offer, Status* verdict) {
  Token token;
  if (!reader.Peek(&token)) return false;
  if (token != Token::kObject) {
    *verdict = InvalidArgumentError("flex-offer JSON must be an object");
    return reader.SkipValue();
  }
  NumberField id, prosumer, region, grid_node;
  NumberField creation, acceptance, assignment, earliest, latest;
  EnumField<EnergyType> energy_type;
  EnumField<ProsumerType> prosumer_type;
  EnumField<ApplianceType> appliance_type;
  EnumField<Direction> direction;
  EnumField<FlexOfferState> state;
  FieldState profile, schedule, members;
  reader.BeginObject();
  std::string_view key;
  while (reader.NextMember(&key)) {
    if (key == "acceptance_min") {
      ReadNumberField(reader, &acceptance);
    } else if (key == "aggregated_from") {
      ReadNumberList(reader, "flex-offer JSON: aggregated_from must be an array",
                     "flex-offer JSON: non-numeric member id", &offer->aggregated_from, &members);
    } else if (key == "appliance_type") {
      ReadEnumField(reader, "appliance_type", &ParseApplianceType, &appliance_type);
    } else if (key == "assignment_min") {
      ReadNumberField(reader, &assignment);
    } else if (key == "creation_min") {
      ReadNumberField(reader, &creation);
    } else if (key == "direction") {
      ReadEnumField(reader, "direction", &ParseDirectionName, &direction);
    } else if (key == "earliest_start_min") {
      ReadNumberField(reader, &earliest);
    } else if (key == "energy_type") {
      ReadEnumField(reader, "energy_type", &ParseEnergyType, &energy_type);
    } else if (key == "grid_node") {
      ReadNumberField(reader, &grid_node);
    } else if (key == "id") {
      ReadNumberField(reader, &id);
    } else if (key == "latest_start_min") {
      ReadNumberField(reader, &latest);
    } else if (key == "profile") {
      ReadProfile(reader, &offer->profile, &profile);
    } else if (key == "prosumer") {
      ReadNumberField(reader, &prosumer);
    } else if (key == "prosumer_type") {
      ReadEnumField(reader, "prosumer_type", &ParseProsumerType, &prosumer_type);
    } else if (key == "region") {
      ReadNumberField(reader, &region);
    } else if (key == "schedule") {
      ReadSchedule(reader, &offer->schedule, &schedule);
    } else if (key == "state") {
      ReadEnumField(reader, "state", &ParseFlexOfferState, &state);
    } else {
      reader.SkipValue();
    }
  }
  if (!reader.ok()) return false;

  *verdict = [&]() -> Status {
    FLEXVIS_RETURN_IF_ERROR(TakeInt(id, "id", &offer->id));
    FLEXVIS_RETURN_IF_ERROR(TakeInt(prosumer, "prosumer", &offer->prosumer));
    // Optional: anything but a number means "unknown".
    offer->region = kInvalidRegionId;
    if (region.state == NumberField::State::kNumber) {
      FLEXVIS_RETURN_IF_ERROR(TakeInt(region, "region", &offer->region));
    }
    offer->grid_node = kInvalidGridNodeId;
    if (grid_node.state == NumberField::State::kNumber) {
      FLEXVIS_RETURN_IF_ERROR(TakeInt(grid_node, "grid_node", &offer->grid_node));
    }
    FLEXVIS_RETURN_IF_ERROR(TakeEnum(energy_type, "energy_type", &offer->energy_type));
    FLEXVIS_RETURN_IF_ERROR(TakeEnum(prosumer_type, "prosumer_type", &offer->prosumer_type));
    FLEXVIS_RETURN_IF_ERROR(TakeEnum(appliance_type, "appliance_type", &offer->appliance_type));
    FLEXVIS_RETURN_IF_ERROR(TakeEnum(direction, "direction", &offer->direction));
    FLEXVIS_RETURN_IF_ERROR(TakeEnum(state, "state", &offer->state));
    FLEXVIS_RETURN_IF_ERROR(TakeTime(creation, "creation_min", &offer->creation_time));
    FLEXVIS_RETURN_IF_ERROR(TakeTime(acceptance, "acceptance_min", &offer->acceptance_deadline));
    FLEXVIS_RETURN_IF_ERROR(TakeTime(assignment, "assignment_min", &offer->assignment_deadline));
    FLEXVIS_RETURN_IF_ERROR(TakeTime(earliest, "earliest_start_min", &offer->earliest_start));
    FLEXVIS_RETURN_IF_ERROR(TakeTime(latest, "latest_start_min", &offer->latest_start));
    if (!profile.present) return InvalidArgumentError("flex-offer JSON: missing profile");
    FLEXVIS_RETURN_IF_ERROR(profile.status);
    FLEXVIS_RETURN_IF_ERROR(schedule.status);
    FLEXVIS_RETURN_IF_ERROR(members.status);
    return OkStatus();
  }();
  return true;
}

Result<Message> DecodeAcceptance(std::string_view payload) {
  JsonReader reader(payload);
  NumberField offer, sent;
  std::optional<bool> accepted;
  reader.BeginObject();
  std::string_view key;
  while (reader.NextMember(&key)) {
    Token token;
    bool value = false;
    if (key == "offer") {
      ReadNumberField(reader, &offer);
    } else if (key == "sent_at_min") {
      ReadNumberField(reader, &sent);
    } else if (key == "accepted") {
      accepted.reset();
      if (reader.Peek(&token) && token == Token::kBool) {
        if (reader.ReadBool(&value)) accepted = value;
      } else {
        reader.SkipValue();
      }
    } else {
      reader.SkipValue();
    }
  }
  if (!reader.Finish()) return reader.status();
  AcceptanceMessage msg;
  FLEXVIS_RETURN_IF_ERROR(TakeInt(offer, "offer", &msg.offer));
  if (!accepted.has_value()) {
    return InvalidArgumentError("JSON: missing or non-bool field 'accepted'");
  }
  msg.accepted = *accepted;
  FLEXVIS_RETURN_IF_ERROR(TakeTime(sent, "sent_at_min", &msg.sent_at));
  return Message(std::move(msg));
}

Result<Message> DecodeAssignment(std::string_view payload) {
  JsonReader reader(payload);
  AssignmentMessage msg;
  NumberField offer, start, sent;
  FieldState energies;
  reader.BeginObject();
  std::string_view key;
  while (reader.NextMember(&key)) {
    if (key == "offer") {
      ReadNumberField(reader, &offer);
    } else if (key == "start_min") {
      ReadNumberField(reader, &start);
    } else if (key == "energy_kwh") {
      ReadNumberList(reader, "assignment: missing energy_kwh", "assignment: non-numeric energy",
                     &msg.schedule.energy_kwh, &energies);
    } else if (key == "sent_at_min") {
      ReadNumberField(reader, &sent);
    } else {
      reader.SkipValue();
    }
  }
  if (!reader.Finish()) return reader.status();
  FLEXVIS_RETURN_IF_ERROR(TakeInt(offer, "offer", &msg.offer));
  FLEXVIS_RETURN_IF_ERROR(TakeTime(start, "start_min", &msg.schedule.start));
  if (!energies.present) return InvalidArgumentError("assignment: missing energy_kwh");
  FLEXVIS_RETURN_IF_ERROR(energies.status);
  FLEXVIS_RETURN_IF_ERROR(TakeTime(sent, "sent_at_min", &msg.sent_at));
  return Message(std::move(msg));
}

}  // namespace

std::string EncodeFlexOffer(const FlexOffer& offer) {
  std::string out;
  AppendFlexOffer(&out, offer);
  return out;
}

Result<FlexOffer> DecodeFlexOffer(std::string_view text) {
  JsonReader reader(text);
  FlexOffer offer;
  Status verdict;
  if (!ReadFlexOffer(reader, &offer, &verdict) || !reader.Finish()) return reader.status();
  if (!verdict.ok()) return verdict;
  return offer;
}

std::string EncodeMessage(const Message& message) {
  std::string out = "{\"payload\":";
  const char* type = "";
  if (const FlexOffer* offer = std::get_if<FlexOffer>(&message)) {
    type = kTypeFlexOffer;
    AppendFlexOffer(&out, *offer);
  } else if (const AcceptanceMessage* acc = std::get_if<AcceptanceMessage>(&message)) {
    type = kTypeAcceptance;
    out += acc->accepted ? "{\"accepted\":true,\"offer\":" : "{\"accepted\":false,\"offer\":";
    AppendJsonInt(&out, acc->offer);
    out += ",\"sent_at_min\":";
    AppendJsonInt(&out, acc->sent_at.minutes());
    out += '}';
  } else if (const AssignmentMessage* assign = std::get_if<AssignmentMessage>(&message)) {
    type = kTypeAssignment;
    out += "{\"energy_kwh\":";
    AppendDoubles(&out, assign->schedule.energy_kwh);
    out += ",\"offer\":";
    AppendJsonInt(&out, assign->offer);
    out += ",\"sent_at_min\":";
    AppendJsonInt(&out, assign->sent_at.minutes());
    out += ",\"start_min\":";
    AppendJsonInt(&out, assign->schedule.start.minutes());
    out += '}';
  }
  out += ",\"type\":";
  AppendJsonString(&out, type);
  out += '}';
  return out;
}

Result<Message> DecodeMessage(std::string_view text) {
  // A lossy gateway link: an armed fault here models an envelope lost or
  // garbled in transit. Typed, not retried — redelivery is the sender's job.
  FLEXVIS_FAULT_CHECK("core.messages.decode");
  // "payload" sorts before "type", so the envelope pass only validates the
  // payload and keeps its text; it is decoded once the type is known.
  JsonReader reader(text);
  Token token;
  if (!reader.Peek(&token)) return reader.status();
  std::optional<std::string> type;
  std::string_view payload;
  bool payload_is_object = false;
  if (token != Token::kObject) {
    reader.SkipValue();
  } else {
    reader.BeginObject();
    std::string_view key;
    while (reader.NextMember(&key)) {
      if (key == "payload") {
        payload_is_object = reader.Peek(&token) && token == Token::kObject;
        const size_t start = reader.offset();
        reader.SkipValue();
        payload = text.substr(start, reader.offset() - start);
      } else if (key == "type") {
        type.reset();
        std::string_view value;
        if (reader.Peek(&token) && token == Token::kString) {
          if (reader.ReadString(&value)) type = std::string(value);
        } else {
          reader.SkipValue();
        }
      } else {
        reader.SkipValue();
      }
    }
  }
  if (!reader.Finish()) return reader.status();
  if (!type.has_value()) return MissingString("type");
  if (!payload_is_object) return InvalidArgumentError("message: missing payload");

  if (*type == kTypeFlexOffer) {
    Result<FlexOffer> offer = DecodeFlexOffer(payload);
    if (!offer.ok()) return offer.status();
    FLEXVIS_RETURN_IF_ERROR(Validate(*offer));
    return Message(*std::move(offer));
  }
  if (*type == kTypeAcceptance) return DecodeAcceptance(payload);
  if (*type == kTypeAssignment) return DecodeAssignment(payload);
  return InvalidArgumentError(StrFormat("message: unknown type '%s'", type->c_str()));
}

namespace {

/// The smallest line start at or after `pos`: 0, or a byte after a '\n'.
size_t LineStartAtOrAfter(std::string_view text, size_t pos) {
  if (pos == 0) return 0;
  if (pos >= text.size()) return text.size();
  const size_t newline = text.find('\n', pos - 1);
  return newline == std::string_view::npos ? text.size() : newline + 1;
}

/// One decode chunk: its records and their line starts, in file order, up to
/// its first bad record (if any).
struct DecodedChunk {
  std::vector<FlexOffer> offers;
  std::vector<size_t> starts;
  Status bad_record;
  size_t bad_start = 0;
};

/// Decodes the lines starting in [begin, end); `end` is a line start or the
/// end of the text, so every line lies wholly inside the chunk.
void DecodeChunk(std::string_view text, size_t begin, size_t end, DecodedChunk* chunk) {
  size_t start = begin;
  while (start < end) {
    size_t stop = text.find('\n', start);
    if (stop == std::string_view::npos) stop = text.size();
    const std::string_view line = text.substr(start, stop - start);
    if (!StripWhitespace(line).empty()) {
      Result<FlexOffer> offer = DecodeFlexOffer(line);
      if (!offer.ok()) {
        chunk->bad_record = offer.status();
        chunk->bad_start = start;
        return;
      }
      chunk->offers.push_back(*std::move(offer));
      chunk->starts.push_back(start);
    }
    start = stop + 1;
  }
}

size_t LineNumberAt(std::string_view text, size_t offset) {
  return 1 + static_cast<size_t>(std::count(text.begin(), text.begin() + offset, '\n'));
}

}  // namespace

std::string EncodeFlexOfferLines(const std::vector<FlexOffer>& offers) {
  const size_t num_chunks = (offers.size() + kFlexOfferLinesEncodeChunk - 1) /
                            kFlexOfferLinesEncodeChunk;
  std::vector<std::string> chunks(num_chunks);
  ParallelFor(0, offers.size(), kFlexOfferLinesEncodeChunk, [&](size_t begin, size_t end) {
    std::string& out = chunks[begin / kFlexOfferLinesEncodeChunk];
    for (size_t i = begin; i < end; ++i) {
      AppendFlexOffer(&out, offers[i]);
      out += '\n';
    }
  });
  size_t total = 0;
  for (const std::string& chunk : chunks) total += chunk.size();
  std::string lines;
  lines.reserve(total);
  for (std::string& chunk : chunks) {
    lines += chunk;
    std::string().swap(chunk);
  }
  return lines;
}

bool DecodeFlexOfferLines(std::string_view text, DuplicateIds duplicates,
                          std::vector<FlexOffer>* offers, FlexOfferLineError* error) {
  offers->clear();
  // Chunk c holds the lines starting in [c * chunk bytes, (c + 1) * chunk
  // bytes): its bounds move forward to line starts, so they depend on the
  // bytes alone. A line longer than a chunk leaves the chunks it covers
  // empty.
  const size_t num_chunks = (text.size() + kFlexOfferLinesDecodeChunkBytes - 1) /
                            kFlexOfferLinesDecodeChunkBytes;
  std::vector<DecodedChunk> chunks(num_chunks);
  ParallelFor(0, num_chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      DecodeChunk(text, LineStartAtOrAfter(text, c * kFlexOfferLinesDecodeChunkBytes),
                  LineStartAtOrAfter(text, (c + 1) * kFlexOfferLinesDecodeChunkBytes),
                  &chunks[c]);
    }
  });

  // Merge in file order up to the first bad record, which ends the file as
  // the serial loop would; a repeated id before it is the earlier failure.
  size_t total = 0;
  size_t merged = 0;
  while (merged < num_chunks) {
    total += chunks[merged].offers.size();
    if (!chunks[merged++].bad_record.ok()) break;
  }
  offers->reserve(total);
  std::vector<size_t> starts;
  starts.reserve(total);
  for (size_t c = 0; c < merged; ++c) {
    std::move(chunks[c].offers.begin(), chunks[c].offers.end(), std::back_inserter(*offers));
    starts.insert(starts.end(), chunks[c].starts.begin(), chunks[c].starts.end());
    std::vector<FlexOffer>().swap(chunks[c].offers);
  }
  const size_t repeated =
      duplicates == DuplicateIds::kReject ? FirstRepeatedId(*offers) : offers->size();
  FlexOfferLineError found;
  if (repeated < offers->size()) {
    found.byte_offset = starts[repeated];
    found.duplicate_id = (*offers)[repeated].id;
  } else if (merged > 0 && !chunks[merged - 1].bad_record.ok()) {
    found.byte_offset = chunks[merged - 1].bad_start;
    found.bad_record = chunks[merged - 1].bad_record;
  } else {
    return true;
  }
  found.line_number = LineNumberAt(text, found.byte_offset);
  offers->clear();
  if (error != nullptr) *error = std::move(found);
  return false;
}

}  // namespace flexvis::core
