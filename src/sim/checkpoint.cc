#include "sim/checkpoint.h"

#include <cstdlib>
#include <iterator>
#include <utility>

#include "core/messages.h"
#include "sim/forecaster.h"
#include "sim/market.h"
#include "util/json.h"
#include "util/store.h"
#include "util/strings.h"

namespace flexvis::sim {

namespace {

JsonValue IdArray(const std::vector<core::FlexOfferId>& ids) {
  JsonValue out = JsonValue::Array();
  for (core::FlexOfferId id : ids) out.Append(JsonValue::Int(id));
  return out;
}

Status ReadIdArray(const JsonValue& parent, std::string_view key,
                   std::vector<core::FlexOfferId>* out) {
  const JsonValue& array = parent.Get(key);
  if (!array.is_array()) {
    return DataLossError(StrFormat("tick record field '%.*s' is not an array",
                                   static_cast<int>(key.size()), key.data()));
  }
  out->clear();
  for (size_t i = 0; i < array.size(); ++i) {
    if (!array[i].is_int()) {
      return DataLossError(StrFormat("tick record field '%.*s' holds a non-integer id",
                                     static_cast<int>(key.size()), key.data()));
    }
    out->push_back(array[i].AsInt());
  }
  return OkStatus();
}

/// Optional-with-default integer: pre-overload / pre-compaction checkpoints
/// lack the newer keys and must keep resuming with the historical behaviour.
int64_t GetIntOr(const JsonValue& json, std::string_view key, int64_t fallback) {
  if (!json.Has(key)) return fallback;
  Result<int64_t> value = json.GetInt(key);
  return value.ok() ? *value : fallback;
}

/// Optional-with-default string, same contract as GetIntOr: pre-strategy
/// checkpoints lack the pinned-strategy keys and resume under the defaults.
std::string GetStringOr(const JsonValue& json, std::string_view key, std::string fallback) {
  if (!json.Has(key)) return fallback;
  Result<std::string> value = json.GetString(key);
  return value.ok() ? *std::move(value) : std::move(fallback);
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
  meta.Set("compact_bytes", JsonValue::Int(params.compact_bytes));
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
  *window = timeutil::TimeInterval(timeutil::TimePoint::FromMinutes(*start),
                                   timeutil::TimePoint::FromMinutes(*end));
  params->tick_minutes = *tick;
  params->scheduler.rejection_threshold = *threshold;
  params->scheduler.order = static_cast<core::SchedulerParams::Order>(*order);
  params->energy.seed = static_cast<uint64_t>(*seed);
  params->energy.wind_mean_kwh = *wind;
  params->energy.solar_peak_kwh = *solar;
  params->energy.demand_base_kwh = *demand;
  params->energy.noise = *noise;
  params->max_ingest_per_tick = static_cast<int>(GetIntOr(meta, "max_ingest_per_tick", 0));
  params->ingest_queue_capacity =
      static_cast<int>(GetIntOr(meta, "ingest_queue_capacity", 0));
  params->shed_policy = static_cast<ShedPolicy>(GetIntOr(meta, "shed_policy", 0));
  params->compact_ticks = static_cast<int>(GetIntOr(meta, "compact_ticks", 0));
  params->compact_bytes = GetIntOr(meta, "compact_bytes", 0);
  // Pinned strategy identity. Absent keys (pre-strategy checkpoints) resume
  // under the defaults; a *present* unknown name is a configuration error
  // surfaced before any replay, naming the registered options.
  params->forecaster = GetStringOr(meta, "forecaster", "");
  params->bidding = GetStringOr(meta, "bidding", "");
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

/// Executes the remaining ticks live: journal append + flush before the next
/// tick starts (the flush is the durability point), folding every record
/// into `fold` and compacting the store on the params cadences.
/// `journal_bytes` is the record payload already sitting in the WAL when the
/// loop starts (0 on a fresh run; the replayed tail's bytes on a resume), so
/// the byte trigger continues exactly where the interrupted run left off.
Result<OnlineReport> ContinueJournaled(const OnlineEnterprise& enterprise,
                                       OnlineLoopState state, DurableStore& store,
                                       const StoreFiles& snapshot_files,
                                       OnlineTickRecord* fold, int* ticks_continued,
                                       uint64_t journal_bytes) {
  const int compact_ticks = enterprise.params().compact_ticks;
  const int64_t compact_bytes = enterprise.params().compact_bytes;
  while (!enterprise.Done(state)) {
    OnlineTickRecord record;
    enterprise.Tick(state, &record);
    const std::string encoded = EncodeTickRecord(record);
    FLEXVIS_RETURN_IF_ERROR(store.Append(encoded));
    FLEXVIS_RETURN_IF_ERROR(store.Flush());
    journal_bytes += encoded.size();
    FoldTickRecordInto(fold, record);
    if (ticks_continued != nullptr) ++*ticks_continued;
    const bool ticks_due = compact_ticks > 0 && (record.tick + 1) % compact_ticks == 0;
    const bool bytes_due =
        compact_bytes > 0 && journal_bytes >= static_cast<uint64_t>(compact_bytes);
    if (ticks_due || bytes_due) {
      // Fold the journal into a new generation: the fold covers every tick
      // since Begin (including any previously folded base), so the new
      // snapshot alone reproduces the post-tick state and the WAL restarts
      // empty. The tick cadence keys off the absolute tick index and the
      // byte trigger off the deterministic encoded record sizes, so a
      // resumed run compacts at the same boundaries the uninterrupted run
      // would.
      StoreFiles files = snapshot_files;
      files.emplace_back(kCheckpointStateFile, EncodeTickRecord(*fold));
      FLEXVIS_RETURN_IF_ERROR(store.Compact(files, JsonValue()));
      journal_bytes = 0;
    }
  }
  FLEXVIS_RETURN_IF_ERROR(store.Close());
  return enterprise.Finish(std::move(state));
}

}  // namespace

namespace {

/// Shared parse for the compaction env knobs: unset/empty = 0 (off); a set
/// value must be a strictly positive integer or the result is an
/// InvalidArgument error naming the variable.
Result<int64_t> CompactEnvValue(const char* var) {
  const char* env = std::getenv(var);
  if (env == nullptr || *env == '\0') return static_cast<int64_t>(0);
  char* end = nullptr;
  const long long value = std::strtoll(env, &end, 10);
  if (end == env || *end != '\0') {
    return InvalidArgumentError(
        StrFormat("$%s is not an integer: '%s'", var, env));
  }
  if (value <= 0) {
    return InvalidArgumentError(StrFormat(
        "$%s must be a positive integer (unset it to disable compaction), got '%s'", var,
        env));
  }
  return static_cast<int64_t>(value);
}

}  // namespace

Result<int> CompactTicksFromEnv() {
  Result<int64_t> value = CompactEnvValue(kCompactTicksEnvVar);
  if (!value.ok()) return value.status();
  return static_cast<int>(*value);
}

Result<int64_t> CompactBytesFromEnv() { return CompactEnvValue(kCompactBytesEnvVar); }

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
  json.Set("pend_acc", IdArray(record.pending_acceptance));
  json.Set("pend_asn", IdArray(record.pending_assignment));
  return json.Dump();
}

Result<OnlineTickRecord> DecodeTickRecord(std::string_view text) {
  Result<JsonValue> parsed = JsonValue::Parse(text);
  if (!parsed.ok() || !parsed->is_object()) {
    return DataLossError("journal record is not a JSON object");
  }
  const JsonValue& json = *parsed;
  OnlineTickRecord record;
  Result<int64_t> tick = json.GetInt("tick");
  Result<int64_t> received = json.GetInt("received");
  Result<int64_t> accepted = json.GetInt("accepted");
  Result<int64_t> rejected = json.GetInt("rejected");
  Result<int64_t> assigned = json.GetInt("assigned");
  Result<int64_t> missed_acc = json.GetInt("missed_acc");
  Result<int64_t> missed_asn = json.GetInt("missed_asn");
  Result<int64_t> dropped = json.GetInt("dropped");
  Result<int64_t> failed_sends = json.GetInt("failed_sends");
  Result<int64_t> next_arrival = json.GetInt("next_arrival");
  for (const Status* status :
       {&tick.status(), &received.status(), &accepted.status(), &rejected.status(),
        &assigned.status(), &missed_acc.status(), &missed_asn.status(), &dropped.status(),
        &failed_sends.status(), &next_arrival.status()}) {
    if (!status->ok()) {
      return DataLossError(
          StrFormat("journal record is incomplete: %s", status->message().c_str()));
    }
  }
  record.tick = static_cast<int>(*tick);
  record.folded = json.Get("folded").is_bool() && json.Get("folded").AsBool();
  record.shed_policy = static_cast<int>(GetIntOr(json, "shed_policy", 0));
  record.offers_received = static_cast<int>(*received);
  record.accepted = static_cast<int>(*accepted);
  record.rejected = static_cast<int>(*rejected);
  record.assigned = static_cast<int>(*assigned);
  record.missed_acceptance = static_cast<int>(*missed_acc);
  record.missed_assignment = static_cast<int>(*missed_asn);
  record.dropped_ingest = static_cast<int>(*dropped);
  record.failed_sends = static_cast<int>(*failed_sends);
  record.shed_offers = static_cast<int>(GetIntOr(json, "shed", 0));
  record.queue_high_watermark = static_cast<int>(GetIntOr(json, "qhw", 0));
  record.next_arrival = *next_arrival;

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
  FLEXVIS_RETURN_IF_ERROR(ReadIdArray(json, "pend_acc", &record.pending_acceptance));
  FLEXVIS_RETURN_IF_ERROR(ReadIdArray(json, "pend_asn", &record.pending_assignment));
  return record;
}

Result<OnlineReport> RunOnlineCheckpointed(const OnlineParams& params,
                                           const std::vector<core::FlexOffer>& offers,
                                           const timeutil::TimeInterval& window,
                                           const std::string& directory) {
  OnlineEnterprise enterprise(params);
  Result<OnlineLoopState> state = enterprise.Begin(offers, window);
  if (!state.ok()) return state.status();

  // Create invalidates any previous checkpoint (manifest removed first) and
  // commits the generation-0 snapshot before the first tick runs.
  const StoreFiles snapshot = EncodeOnlineSnapshot(params, offers, window);
  Result<DurableStore> store =
      DurableStore::Create(directory, CheckpointStoreOptions(), snapshot, JsonValue());
  if (!store.ok()) return store.status();

  OnlineTickRecord fold;
  return ContinueJournaled(enterprise, *std::move(state), *store, snapshot, &fold, nullptr,
                           0);
}

Result<OnlineReport> ResumeOnline(const std::string& directory, ResumeInfo* info) {
  if (info != nullptr) *info = ResumeInfo{};

  // Store integrity gates everything: a crash before the manifest landed
  // means no tick ever ran (the journal is only written after the snapshot
  // commits), so the caller can simply rerun from its inputs. Resume also
  // repairs a torn journal tail and garbage-collects compaction debris.
  StoreRecovery recovery;
  Result<DurableStore> store =
      DurableStore::Resume(directory, CheckpointStoreOptions(), &recovery);
  if (!store.ok()) return store.status();

  OnlineParams params;
  timeutil::TimeInterval window;
  std::vector<core::FlexOffer> offers;
  FLEXVIS_RETURN_IF_ERROR(DecodeOnlineSnapshot(recovery, &params, &offers, &window));

  OnlineEnterprise enterprise(params);
  Result<OnlineLoopState> state = enterprise.Begin(offers, window);
  if (!state.ok()) return state.status();

  // A compacted generation carries the fold of every tick before the
  // compaction point as state.json — one Apply recovers them all.
  OnlineTickRecord fold;
  auto folded_state = recovery.files.find(kCheckpointStateFile);
  if (folded_state != recovery.files.end()) {
    Result<OnlineTickRecord> base = DecodeTickRecord(folded_state->second);
    if (!base.ok()) return base.status();
    if (!base->folded) {
      return DataLossError("checkpoint state.json is not a folded tick record");
    }
    FLEXVIS_RETURN_IF_ERROR(enterprise.Apply(*state, *base));
    fold = *std::move(base);
    if (info != nullptr) info->ticks_folded = fold.tick + 1;
  }

  // Replay the journal tail of the committed generation, accounting its
  // record payload so the byte trigger resumes mid-budget.
  uint64_t tail_bytes = 0;
  for (const std::string& record_text : recovery.records) {
    Result<OnlineTickRecord> record = DecodeTickRecord(record_text);
    if (!record.ok()) return record.status();
    FLEXVIS_RETURN_IF_ERROR(enterprise.Apply(*state, *record));
    FoldTickRecordInto(&fold, *record);
    tail_bytes += record_text.size();
  }
  if (info != nullptr) {
    info->ticks_replayed = static_cast<int>(recovery.records.size());
    info->generation = recovery.generation;
    info->torn_tail = recovery.torn_tail;
    info->torn_bytes = recovery.torn_bytes;
  }

  // A journal tail that ends on a compaction boundary — the tick cadence, or
  // a record payload at/over the byte budget — means the crash interrupted
  // that boundary's compaction: an uninterrupted run compacts before the
  // next tick starts, so it never leaves such a tail. Re-execute the
  // compaction now: the directory converges to the layout the uninterrupted
  // run would have, and the bounded-replay guarantees (at most compact_ticks
  // records / compact_bytes payload, plus one record) hold again after
  // recovery.
  const StoreFiles snapshot = EncodeOnlineSnapshot(params, offers, window);
  const bool ticks_due = params.compact_ticks > 0 &&
                         (fold.tick + 1) % params.compact_ticks == 0;
  const bool bytes_due = params.compact_bytes > 0 &&
                         tail_bytes >= static_cast<uint64_t>(params.compact_bytes);
  if (!recovery.records.empty() && (ticks_due || bytes_due)) {
    StoreFiles files = snapshot;
    files.emplace_back(kCheckpointStateFile, EncodeTickRecord(fold));
    FLEXVIS_RETURN_IF_ERROR(store->Compact(files, JsonValue()));
    tail_bytes = 0;
  }
  return ContinueJournaled(enterprise, *std::move(state), *store, snapshot, &fold,
                           info != nullptr ? &info->ticks_continued : nullptr, tail_bytes);
}

}  // namespace flexvis::sim
