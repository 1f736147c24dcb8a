#include "sim/checkpoint.h"

#include <cstdlib>
#include <iterator>
#include <limits>
#include <utility>

#include "core/messages.h"
#include "sim/forecaster.h"
#include "sim/market.h"
#include "util/json.h"
#include "util/store.h"
#include "util/strings.h"

namespace flexvis::sim {

namespace {

constexpr const char* kMetaRecord = "checkpoint meta.json";

/// Optional-with-default int field of `record`: pre-overload /
/// pre-compaction checkpoints lack the newer keys and must keep resuming with
/// the historical behaviour, so an absent key reads as 0. A present key that
/// is not an integer within int is kDataLoss naming the field.
Status DecodeOptionalInt(const JsonValue& json, const char* record, const char* key, int* out) {
  if (!json.Has(key)) {
    *out = 0;
    return OkStatus();
  }
  Result<int64_t> value = json.GetInt(key);
  if (!value.ok()) {
    return DataLossError(StrFormat("%s field '%s' is not an integer", record, key));
  }
  return NarrowToInt(*value, record, key, out);
}

/// kDataLoss naming meta.json's enum field `field` unless `value` is one of
/// its enum's values 0..`last`: no run writes another.
Status CheckEnumValue(const char* field, int value, int last) {
  if (value >= 0 && value <= last) return OkStatus();
  return DataLossError(StrFormat("%s field '%s' holds %d, not a value of its enum", kMetaRecord,
                                 field, value));
}

/// Optional-with-default string field of meta.json: pre-strategy
/// checkpoints lack the pinned-strategy keys and resume under the defaults,
/// so an absent key reads as "". A present key that is not a string is
/// kDataLoss naming the field.
Status DecodeOptionalString(const JsonValue& json, const char* key, std::string* out) {
  out->clear();
  if (!json.Has(key)) return OkStatus();
  Result<std::string> value = json.GetString(key);
  if (!value.ok()) {
    return DataLossError(StrFormat("%s field '%s' is not a string", kMetaRecord, key));
  }
  *out = *std::move(value);
  return OkStatus();
}

/// meta.json <-> (window, params). Every field the loop's decisions depend
/// on must round-trip exactly; doubles serialize as %.17g so they do.
std::string EncodeMeta(const OnlineParams& params, const timeutil::TimeInterval& window) {
  JsonValue meta = JsonValue::Object();
  meta.Set("schema_version", JsonValue::Int(1));
  meta.Set("window_start_min", JsonValue::Int(window.start.minutes()));
  meta.Set("window_end_min", JsonValue::Int(window.end.minutes()));
  meta.Set("tick_minutes", JsonValue::Int(params.tick_minutes));
  meta.Set("rejection_threshold", JsonValue::Double(params.scheduler.rejection_threshold));
  meta.Set("scheduler_order", JsonValue::Int(static_cast<int64_t>(params.scheduler.order)));
  meta.Set("energy_seed", JsonValue::Int(static_cast<int64_t>(params.energy.seed)));
  meta.Set("wind_mean_kwh", JsonValue::Double(params.energy.wind_mean_kwh));
  meta.Set("solar_peak_kwh", JsonValue::Double(params.energy.solar_peak_kwh));
  meta.Set("demand_base_kwh", JsonValue::Double(params.energy.demand_base_kwh));
  meta.Set("energy_noise", JsonValue::Double(params.energy.noise));
  meta.Set("max_ingest_per_tick", JsonValue::Int(params.max_ingest_per_tick));
  meta.Set("ingest_queue_capacity", JsonValue::Int(params.ingest_queue_capacity));
  meta.Set("shed_policy", JsonValue::Int(static_cast<int64_t>(params.shed_policy)));
  meta.Set("compact_ticks", JsonValue::Int(params.compact_ticks));
  meta.Set("forecaster", JsonValue::Str(params.forecaster));
  meta.Set("bidding", JsonValue::Str(params.bidding));
  return meta.Dump();
}

Status DecodeMeta(std::string_view text, OnlineParams* params,
                  timeutil::TimeInterval* window) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok() || !parsed->is_object()) {
    return DataLossError("checkpoint meta.json is unparsable");
  }
  const JsonValue& meta = *parsed;
  Result<int64_t> start = meta.GetInt("window_start_min");
  Result<int64_t> end = meta.GetInt("window_end_min");
  Result<int64_t> tick = meta.GetInt("tick_minutes");
  Result<double> threshold = meta.GetDouble("rejection_threshold");
  Result<int64_t> order = meta.GetInt("scheduler_order");
  Result<int64_t> seed = meta.GetInt("energy_seed");
  Result<double> wind = meta.GetDouble("wind_mean_kwh");
  Result<double> solar = meta.GetDouble("solar_peak_kwh");
  Result<double> demand = meta.GetDouble("demand_base_kwh");
  Result<double> noise = meta.GetDouble("energy_noise");
  for (const Status* status :
       {&start.status(), &end.status(), &tick.status(), &threshold.status(),
        &order.status(), &seed.status(), &wind.status(), &solar.status(),
        &demand.status(), &noise.status()}) {
    if (!status->ok()) {
      return DataLossError(StrFormat("checkpoint meta.json is incomplete: %s",
                                     status->message().c_str()));
    }
  }
  // No run writes an empty window or a non-positive tick; refused here, before
  // any shard store is resumed on them.
  if (*tick <= 0) {
    return DataLossError(StrFormat("%s field 'tick_minutes' holds %lld, not a positive tick",
                                   kMetaRecord, static_cast<long long>(*tick)));
  }
  if (*end <= *start) {
    return DataLossError(StrFormat("%s field 'window_end_min' %lld is not after window_start_min",
                                   kMetaRecord, static_cast<long long>(*end)));
  }
  int scheduler_order = 0;
  int shed_policy = 0;
  FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*order, kMetaRecord, "scheduler_order", &scheduler_order));
  FLEXVIS_RETURN_IF_ERROR(DecodeOptionalInt(meta, kMetaRecord, "shed_policy", &shed_policy));
  FLEXVIS_RETURN_IF_ERROR(CheckEnumValue(
      "scheduler_order", scheduler_order,
      static_cast<int>(core::SchedulerParams::Order::kArrival)));
  FLEXVIS_RETURN_IF_ERROR(CheckEnumValue("shed_policy", shed_policy,
                                         static_cast<int>(ShedPolicy::kRejectLeastValuable)));
  *window = timeutil::TimeInterval(timeutil::TimePoint::FromMinutes(*start),
                                   timeutil::TimePoint::FromMinutes(*end));
  params->tick_minutes = *tick;
  params->scheduler.rejection_threshold = *threshold;
  params->scheduler.order = static_cast<core::SchedulerParams::Order>(scheduler_order);
  params->energy.seed = static_cast<uint64_t>(*seed);
  params->energy.wind_mean_kwh = *wind;
  params->energy.solar_peak_kwh = *solar;
  params->energy.demand_base_kwh = *demand;
  params->energy.noise = *noise;
  params->shed_policy = static_cast<ShedPolicy>(shed_policy);
  FLEXVIS_RETURN_IF_ERROR(DecodeOptionalInt(meta, kMetaRecord, "max_ingest_per_tick",
                                            &params->max_ingest_per_tick));
  FLEXVIS_RETURN_IF_ERROR(DecodeOptionalInt(meta, kMetaRecord, "ingest_queue_capacity",
                                            &params->ingest_queue_capacity));
  FLEXVIS_RETURN_IF_ERROR(
      DecodeOptionalInt(meta, kMetaRecord, "compact_ticks", &params->compact_ticks));
  // Pinned strategy identity. Absent keys (pre-strategy checkpoints) resume
  // under the defaults; a *present* unknown name is a configuration error
  // surfaced before any replay, naming the registered options.
  FLEXVIS_RETURN_IF_ERROR(DecodeOptionalString(meta, "forecaster", &params->forecaster));
  FLEXVIS_RETURN_IF_ERROR(DecodeOptionalString(meta, "bidding", &params->bidding));
  if (!params->forecaster.empty()) {
    Result<std::unique_ptr<Forecaster>> forecaster =
        ForecasterRegistry::Global().Make(params->forecaster);
    if (!forecaster.ok()) return forecaster.status();
  }
  if (!params->bidding.empty()) {
    Result<std::unique_ptr<BiddingStrategy>> bidding =
        BiddingRegistry::Global().Make(params->bidding);
    if (!bidding.ok()) return bidding.status();
  }
  params->faults = nullptr;
  return OkStatus();
}

}  // namespace

Result<int> CompactTicksFromEnv() {
  const char* env = std::getenv(kCompactTicksEnvVar);
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long long value = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0') {
    return InvalidArgumentError(
        StrFormat("$%s is not an integer: '%s'", kCompactTicksEnvVar, env));
  }
  if (value <= 0 || value > std::numeric_limits<int>::max()) {
    return InvalidArgumentError(
        StrFormat("$%s must be a positive integer of at most %d (unset it to disable "
                  "compaction), got '%s'",
                  kCompactTicksEnvVar, std::numeric_limits<int>::max(), env));
  }
  return static_cast<int>(value);
}

StoreOptions CheckpointStoreOptions() {
  StoreOptions options;
  options.manifest_name = kCheckpointManifestFile;
  options.journal_name = kCheckpointJournalFile;
  return options;
}

void FoldTickRecordInto(OnlineTickRecord* fold, OnlineTickRecord record) {
  fold->folded = true;
  fold->tick = record.tick;
  fold->shed_policy = record.shed_policy;
  fold->changes.insert(fold->changes.end(), std::make_move_iterator(record.changes.begin()),
                       std::make_move_iterator(record.changes.end()));
  fold->sent.insert(fold->sent.end(), std::make_move_iterator(record.sent.begin()),
                    std::make_move_iterator(record.sent.end()));
  fold->offers_received = record.offers_received;
  fold->accepted = record.accepted;
  fold->rejected = record.rejected;
  fold->assigned = record.assigned;
  fold->missed_acceptance = record.missed_acceptance;
  fold->missed_assignment = record.missed_assignment;
  fold->dropped_ingest = record.dropped_ingest;
  fold->failed_sends = record.failed_sends;
  fold->shed_offers = record.shed_offers;
  fold->queue_high_watermark = record.queue_high_watermark;
  fold->next_arrival = record.next_arrival;
  fold->pending_acceptance = std::move(record.pending_acceptance);
  fold->pending_assignment = std::move(record.pending_assignment);
}

StoreFiles EncodeOnlineSnapshot(const OnlineParams& params,
                                const std::vector<core::FlexOffer>& offers,
                                const timeutil::TimeInterval& window) {
  StoreFiles files;
  files.emplace_back(kCheckpointMetaFile, EncodeMeta(params, window));
  // Input order preserved: the report's offers vector mirrors it, and
  // byte-identical recovery depends on the exact order coming back.
  files.emplace_back(kCheckpointOffersFile, core::EncodeFlexOfferLines(offers));
  return files;
}

Status DecodeOnlineSnapshot(const StoreRecovery& recovery, OnlineParams* params,
                            std::vector<core::FlexOffer>* offers,
                            timeutil::TimeInterval* window) {
  auto meta = recovery.files.find(kCheckpointMetaFile);
  if (meta == recovery.files.end()) {
    return DataLossError("checkpoint store has no meta.json");
  }
  FLEXVIS_RETURN_IF_ERROR(DecodeMeta(meta->second, params, window));
  auto offer_lines = recovery.files.find(kCheckpointOffersFile);
  if (offer_lines == recovery.files.end()) {
    return DataLossError("checkpoint store has no offers.jsonl");
  }
  core::FlexOfferLineError bad;
  if (!core::DecodeFlexOfferLines(offer_lines->second, core::DuplicateIds::kAllow, offers,
                                  &bad)) {
    return DataLossError(StrFormat("checkpoint offers.jsonl: bad record near byte %zu: %s",
                                   bad.byte_offset, bad.bad_record.message().c_str()));
  }
  return OkStatus();
}

JsonValue EncodeStateChange(const OnlineStateChange& change) {
  JsonValue c = JsonValue::Object();
  c.Set("offer", JsonValue::Int(change.offer));
  c.Set("state", JsonValue::Int(static_cast<int64_t>(change.state)));
  if (change.schedule.has_value()) {
    c.Set("start_min", JsonValue::Int(change.schedule->start.minutes()));
    JsonValue kwh = JsonValue::Array();
    for (double e : change.schedule->energy_kwh) kwh.Append(JsonValue::Double(e));
    c.Set("kwh", std::move(kwh));
  }
  return c;
}

Result<OnlineStateChange> DecodeStateChange(const JsonValue& c) {
  Result<int64_t> offer = c.GetInt("offer");
  Result<int64_t> state = c.GetInt("state");
  if (!offer.ok() || !state.ok()) {
    return DataLossError("offer-state change is malformed");
  }
  OnlineStateChange change;
  change.offer = *offer;
  change.state = static_cast<core::FlexOfferState>(*state);
  if (c.Has("start_min")) {
    Result<int64_t> start = c.GetInt("start_min");
    const JsonValue& kwh = c.Get("kwh");
    if (!start.ok() || !kwh.is_array()) {
      return DataLossError("offer-state change has a bad schedule");
    }
    core::Schedule schedule;
    schedule.start = timeutil::TimePoint::FromMinutes(*start);
    for (size_t k = 0; k < kwh.size(); ++k) {
      if (!kwh[k].is_number()) {
        return DataLossError("offer-state change has a bad schedule");
      }
      schedule.energy_kwh.push_back(kwh[k].AsDouble());
    }
    change.schedule = std::move(schedule);
  }
  return change;
}

JsonValue EncodeIdArray(const std::vector<core::FlexOfferId>& ids) {
  JsonValue out = JsonValue::Array();
  for (core::FlexOfferId id : ids) out.Append(JsonValue::Int(id));
  return out;
}

Status DecodeIdArray(const JsonValue& value, const char* what,
                     std::vector<core::FlexOfferId>* out) {
  if (!value.is_array()) {
    return DataLossError(StrFormat("%s is not an array", what));
  }
  out->clear();
  for (size_t i = 0; i < value.size(); ++i) {
    if (!value[i].is_int()) {
      return DataLossError(StrFormat("%s holds a non-integer id", what));
    }
    out->push_back(value[i].AsInt());
  }
  return OkStatus();
}

Status NarrowToInt(int64_t value, const char* record, const char* field, int* out) {
  if (value < std::numeric_limits<int>::min() || value > std::numeric_limits<int>::max()) {
    return DataLossError(StrFormat("%s field '%s' holds %lld, outside int", record, field,
                                   static_cast<long long>(value)));
  }
  *out = static_cast<int>(value);
  return OkStatus();
}

std::string EncodeTickRecord(const OnlineTickRecord& record) {
  JsonValue json = JsonValue::Object();
  json.Set("tick", JsonValue::Int(record.tick));
  if (record.folded) json.Set("folded", JsonValue::Bool(true));
  json.Set("shed_policy", JsonValue::Int(record.shed_policy));
  JsonValue changes = JsonValue::Array();
  for (const OnlineStateChange& change : record.changes) {
    changes.Append(EncodeStateChange(change));
  }
  json.Set("changes", std::move(changes));
  JsonValue sent = JsonValue::Array();
  for (const std::string& wire : record.sent) sent.Append(JsonValue::Str(wire));
  json.Set("sent", std::move(sent));
  json.Set("received", JsonValue::Int(record.offers_received));
  json.Set("accepted", JsonValue::Int(record.accepted));
  json.Set("rejected", JsonValue::Int(record.rejected));
  json.Set("assigned", JsonValue::Int(record.assigned));
  json.Set("missed_acc", JsonValue::Int(record.missed_acceptance));
  json.Set("missed_asn", JsonValue::Int(record.missed_assignment));
  json.Set("dropped", JsonValue::Int(record.dropped_ingest));
  json.Set("failed_sends", JsonValue::Int(record.failed_sends));
  json.Set("shed", JsonValue::Int(record.shed_offers));
  json.Set("qhw", JsonValue::Int(record.queue_high_watermark));
  json.Set("next_arrival", JsonValue::Int(record.next_arrival));
  json.Set("pend_acc", EncodeIdArray(record.pending_acceptance));
  json.Set("pend_asn", EncodeIdArray(record.pending_assignment));
  return json.Dump();
}

Result<OnlineTickRecord> DecodeTickRecord(std::string_view text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok() || !parsed->is_object()) {
    return DataLossError("journal record is not a JSON object");
  }
  return DecodeTickRecord(*parsed);
}

Result<OnlineTickRecord> DecodeTickRecord(const JsonValue& json) {
  if (!json.is_object()) return DataLossError("journal record is not a JSON object");
  OnlineTickRecord record;
  struct IntField {
    const char* key;
    int* out;
  };
  // Required, in the order a missing one is reported (next_arrival, an
  // int64, comes last).
  const IntField required[] = {
      {"tick", &record.tick},
      {"received", &record.offers_received},
      {"accepted", &record.accepted},
      {"rejected", &record.rejected},
      {"assigned", &record.assigned},
      {"missed_acc", &record.missed_acceptance},
      {"missed_asn", &record.missed_assignment},
      {"dropped", &record.dropped_ingest},
      {"failed_sends", &record.failed_sends},
  };
  for (const IntField& field : required) {
    Result<int64_t> value = json.GetInt(field.key);
    if (!value.ok()) {
      return DataLossError(
          StrFormat("journal record is incomplete: %s", value.status().message().c_str()));
    }
    FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*value, "journal record", field.key, field.out));
  }
  Result<int64_t> next_arrival = json.GetInt("next_arrival");
  if (!next_arrival.ok()) {
    return DataLossError(StrFormat("journal record is incomplete: %s",
                                   next_arrival.status().message().c_str()));
  }
  record.next_arrival = *next_arrival;
  // Optional-with-default: pre-overload records lack these keys.
  const IntField optional[] = {
      {"shed_policy", &record.shed_policy},
      {"shed", &record.shed_offers},
      {"qhw", &record.queue_high_watermark},
  };
  for (const IntField& field : optional) {
    FLEXVIS_RETURN_IF_ERROR(DecodeOptionalInt(json, "journal record", field.key, field.out));
  }
  record.folded = json.Get("folded").is_bool() && json.Get("folded").AsBool();

  const JsonValue& changes = json.Get("changes");
  if (!changes.is_array()) return DataLossError("journal record lacks a 'changes' array");
  for (size_t i = 0; i < changes.size(); ++i) {
    Result<OnlineStateChange> change = DecodeStateChange(changes[i]);
    if (!change.ok()) {
      return DataLossError(StrFormat("journal record change %zu: %s", i,
                                     change.status().message().c_str()));
    }
    record.changes.push_back(*std::move(change));
  }

  const JsonValue& sent = json.Get("sent");
  if (!sent.is_array()) return DataLossError("journal record lacks a 'sent' array");
  for (size_t i = 0; i < sent.size(); ++i) {
    if (!sent[i].is_string()) {
      return DataLossError(StrFormat("journal record sent[%zu] is not a string", i));
    }
    record.sent.push_back(sent[i].AsString());
  }
  FLEXVIS_RETURN_IF_ERROR(DecodeIdArray(json.Get("pend_acc"), "tick record field 'pend_acc'",
                                        &record.pending_acceptance));
  FLEXVIS_RETURN_IF_ERROR(DecodeIdArray(json.Get("pend_asn"), "tick record field 'pend_asn'",
                                        &record.pending_assignment));
  return record;
}

}  // namespace flexvis::sim
