#include "sim/coordinator.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <utility>
#include <variant>

#include "core/messages.h"
#include "sim/workload.h"
#include "util/json.h"
#include "util/parallel.h"
#include "util/store.h"
#include "util/strings.h"

namespace flexvis::sim {

namespace fs = std::filesystem;

using core::FlexOffer;
using timeutil::TimeInterval;

namespace {

/// splitmix64-style shard seed: every shard's fault registry draws from its
/// own streams, reproducibly derived from the run's base seed.
uint64_t ShardSeed(uint64_t base, int shard) {
  uint64_t x = base + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(shard + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Element-wise sum of `other` into `acc`, rebasing `acc` when `other`
/// starts earlier (TimeSeries::Add ignores slices before the receiver's
/// start). Used only when merging shard 1+ into the running global series,
/// so a 1-shard merge never touches the copied report.
void AddAligned(core::TimeSeries* acc, const core::TimeSeries& other) {
  if (other.empty()) return;
  if (acc->empty()) {
    *acc = other;
    return;
  }
  if (other.start() < acc->start()) {
    core::TimeSeries rebased(other.start(), 0);
    rebased.Add(*acc);
    *acc = std::move(rebased);
  }
  acc->Add(other);
}

/// The energy-model means one shard of an `n`-shard fleet balances: the
/// zone's means divided by n when `scale` is set (exact at n = 1).
EnergyModelParams ShardEnergy(EnergyModelParams energy, int n, bool scale) {
  if (scale) {
    const double divisor = static_cast<double>(n);
    energy.wind_mean_kwh /= divisor;
    energy.solar_peak_kwh /= divisor;
    energy.demand_base_kwh /= divisor;
  }
  return energy;
}

/// One shard's post-tick load, as the rebalance controller observes it —
/// the same sample whether the tick ran live or was replayed.
ShardLoadSample LoadSampleOf(const OnlineLoopState& state) {
  ShardLoadSample sample;
  sample.shed_offers = state.report.shed_offers;
  sample.queue_depth = static_cast<int>(state.pending_acceptance.size());
  sample.backlog = static_cast<int64_t>(state.arrival.size() - state.next_arrival);
  return sample;
}

/// Adds one shard's cumulative counters and outbox into `total`; the queue
/// watermark is a maximum, not a sum.
void AddCounters(OnlineReport* total, const OnlineReport& shard) {
  total->offers_received += shard.offers_received;
  total->accepted += shard.accepted;
  total->rejected += shard.rejected;
  total->assigned += shard.assigned;
  total->missed_acceptance += shard.missed_acceptance;
  total->missed_assignment += shard.missed_assignment;
  total->dropped_ingest += shard.dropped_ingest;
  total->failed_sends += shard.failed_sends;
  total->shed_offers += shard.shed_offers;
  total->queue_high_watermark =
      std::max(total->queue_high_watermark, shard.queue_high_watermark);
  total->outbox.insert(total->outbox.end(), shard.outbox.begin(), shard.outbox.end());
}

/// True when the global tick boundary after `tick` is a compaction point:
/// the cadence keys off the absolute tick index, so a resumed run compacts
/// at the same boundaries the uninterrupted run would.
bool CompactsAfter(int compact_ticks, int64_t tick) {
  return compact_ticks > 0 && (tick + 1) % compact_ticks == 0;
}

/// Applies `fold` onto `*state` — a fresh Begin over a resized shard's
/// members under the shard-owning `enterprise` — then verifies that the
/// consumed arrival prefix is exactly `expect_consumed` as a set
/// (FailedPrecondition otherwise: ingest-backlog skew would reorder consumed
/// history). On error `*state` is half-built and must be discarded.
Status ApplySplice(const OnlineEnterprise& enterprise, const OnlineTickRecord& fold,
                   const std::vector<core::FlexOfferId>& expect_consumed,
                   OnlineLoopState* state) {
  FLEXVIS_RETURN_IF_ERROR(enterprise.Apply(*state, fold));
  if (state->next_arrival != expect_consumed.size()) {
    return FailedPreconditionError(
        StrFormat("spliced arrival cursor %zu does not cover the %zu consumed arrivals; "
                  "ingest-backlog skew would rewrite consumed history",
                  state->next_arrival, expect_consumed.size()));
  }
  // Set equality over the prefix: stable arrival ordering makes membership
  // the only degree of freedom — an unconsumed offer sorting into the prefix
  // (or a consumed one sorting out) is exactly the backlog-skew reorder the
  // resize must refuse.
  std::set<core::FlexOfferId> expect(expect_consumed.begin(), expect_consumed.end());
  for (size_t pos = 0; pos < state->next_arrival; ++pos) {
    const core::FlexOfferId id = state->report.offers[state->arrival[pos]].id;
    if (expect.erase(id) == 0) {
      return FailedPreconditionError(StrFormat(
          "offer %lld lands inside the spliced consumed-arrival prefix but was never "
          "consumed; ingest-backlog skew would reorder consumed history",
          static_cast<long long>(id)));
    }
  }
  return OkStatus();
}

// ---- Migration journal records ----------------------------------------------
//
// Tick records serialize as JSON objects without a "kind" key (the PR 3
// format, unchanged byte for byte); migration records are tagged with one.
// A migration appends migrate_out to the source journal (flushed first),
// then migrate_in — carrying the full offer payload, so the record is
// self-contained — to the target journal; then COORDINATOR.json is rewritten
// with the bumped epoch (after each MigrateProsumer call, and once after the
// last move of a rebalance plan). Recovery therefore sees one of: both records (the
// migration committed; replay it), only migrate_out (crash between the two
// flushes; complete the migration by synthesizing the migrate_in), or
// neither (the migration never happened).

struct MigrationRecord {
  bool is_in = false;  // migrate_in vs migrate_out
  core::ProsumerId prosumer = core::kInvalidProsumerId;
  int from = 0;
  int to = 0;
  int64_t epoch = 0;
  /// migrate_in only: the migrated prosumer's offers.
  std::vector<FlexOffer> offers;
  /// The prosumer's mid-flight state; encoded (behind an "active" flag) only
  /// when non-empty, so an idle migration's records carry none of it.
  MigratedState moved;
};

std::string EncodeMigrationRecord(const MigrationRecord& record) {
  JsonValue json = JsonValue::Object();
  json.Set("kind", JsonValue::Str(record.is_in ? "migrate_in" : "migrate_out"));
  json.Set("prosumer", JsonValue::Int(record.prosumer));
  json.Set("from", JsonValue::Int(record.from));
  json.Set("to", JsonValue::Int(record.to));
  json.Set("epoch", JsonValue::Int(record.epoch));
  if (record.is_in) {
    JsonValue offers = JsonValue::Array();
    for (const FlexOffer& o : record.offers) {
      offers.Append(JsonValue::Str(core::EncodeFlexOffer(o)));
    }
    json.Set("offers", std::move(offers));
  }
  if (!record.moved.idle()) {
    json.Set("active", JsonValue::Bool(true));
    json.Set("consumed", EncodeIdArray(record.moved.consumed));
    json.Set("pend_acc", EncodeIdArray(record.moved.pending_acceptance));
    json.Set("pend_asn", EncodeIdArray(record.moved.pending_assignment));
    JsonValue states = JsonValue::Array();
    for (const OnlineStateChange& change : record.moved.states) {
      states.Append(EncodeStateChange(change));
    }
    json.Set("states", std::move(states));
  }
  return json.Dump();
}

Result<MigrationRecord> DecodeMigrationRecord(const JsonValue& json) {
  MigrationRecord record;
  Result<std::string> kind = json.GetString("kind");
  Result<int64_t> prosumer = json.GetInt("prosumer");
  Result<int64_t> from = json.GetInt("from");
  Result<int64_t> to = json.GetInt("to");
  Result<int64_t> epoch = json.GetInt("epoch");
  if (!kind.ok() || !prosumer.ok() || !from.ok() || !to.ok() || !epoch.ok()) {
    return DataLossError("migration journal record is incomplete");
  }
  if (*kind == "migrate_in") {
    record.is_in = true;
  } else if (*kind != "migrate_out") {
    return DataLossError(StrFormat("unknown journal record kind '%s'", kind->c_str()));
  }
  record.prosumer = *prosumer;
  FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*from, "migration record", "from", &record.from));
  FLEXVIS_RETURN_IF_ERROR(NarrowToInt(*to, "migration record", "to", &record.to));
  record.epoch = *epoch;
  if (record.is_in) {
    const JsonValue& offers = json.Get("offers");
    if (!offers.is_array()) {
      return DataLossError("migrate_in record lacks an 'offers' array");
    }
    for (size_t i = 0; i < offers.size(); ++i) {
      if (!offers[i].is_string()) {
        return DataLossError("migrate_in record holds a non-string offer");
      }
      Result<FlexOffer> offer = core::DecodeFlexOffer(offers[i].AsString());
      if (!offer.ok()) return offer.status();
      record.offers.push_back(*std::move(offer));
    }
  }
  // Pre-rebalance records have no "active" key and decode as idle.
  if (json.Has("active")) {
    Result<bool> active = json.GetBool("active");
    if (!active.ok() || !*active) {
      return DataLossError("migration record 'active' flag is malformed");
    }
    FLEXVIS_RETURN_IF_ERROR(DecodeIdArray(json.Get("consumed"), "migration record 'consumed'",
                                          &record.moved.consumed));
    FLEXVIS_RETURN_IF_ERROR(DecodeIdArray(json.Get("pend_acc"), "migration record 'pend_acc'",
                                          &record.moved.pending_acceptance));
    FLEXVIS_RETURN_IF_ERROR(DecodeIdArray(json.Get("pend_asn"), "migration record 'pend_asn'",
                                          &record.moved.pending_assignment));
    const JsonValue& states = json.Get("states");
    if (!states.is_array()) {
      return DataLossError("migration record 'states' is not an array");
    }
    for (size_t i = 0; i < states.size(); ++i) {
      Result<OnlineStateChange> change = DecodeStateChange(states[i]);
      if (!change.ok()) return change.status();
      record.moved.states.push_back(*std::move(change));
    }
  }
  return record;
}

/// One replayed journal entry: a tick record or a migration record. A
/// variant, not a pair: resume holds every WAL record at once.
using ReplayedRecord = std::variant<OnlineTickRecord, MigrationRecord>;

Result<ReplayedRecord> ParseJournalRecord(const std::string& payload) {
  Result<JsonValue> parsed = JsonValue::Parse(payload);
  if (!parsed.ok() || !parsed->is_object()) {
    return DataLossError("journal record is not a JSON object");
  }
  if (parsed->Has("kind")) {
    Result<MigrationRecord> migration = DecodeMigrationRecord(*parsed);
    if (!migration.ok()) return migration.status();
    return ReplayedRecord(*std::move(migration));
  }
  Result<OnlineTickRecord> tick = DecodeTickRecord(*parsed);
  if (!tick.ok()) return tick.status();
  return ReplayedRecord(*std::move(tick));
}

/// COORDINATOR.json as a zero-file util/store generation: the
/// atomically-renamed manifest whose `meta` carries the whole coordinator
/// state, plus a write-ahead journal for rebalance-plan records (kind "plan"
/// before any step executes, kind "plan_done" after the last). Compacting
/// the store truncates the plan WAL in the same atomic commit that rewrites
/// the manifest.
StoreOptions CoordinatorStoreOptions() {
  StoreOptions options;
  options.manifest_name = kCoordinatorManifestFile;
  options.journal_name = "coordinator.wal";
  return options;
}

std::string EncodePlanDoneRecord(int64_t id) {
  JsonValue json = JsonValue::Object();
  json.Set("kind", JsonValue::Str("plan_done"));
  json.Set("id", JsonValue::Int(id));
  return json.Dump();
}

/// `offer`'s decided state as a fold carries it: the schedule rides along
/// when assigned.
OnlineStateChange DecidedChange(const FlexOffer& offer) {
  OnlineStateChange change;
  change.offer = offer.id;
  change.state = offer.state;
  if (offer.state == core::FlexOfferState::kAssigned) change.schedule = offer.schedule;
  return change;
}

/// The cumulative counters of `from` (an OnlineReport or a tick record), as a
/// fold carries them.
template <typename Counters>
void CopyCounters(const Counters& from, OnlineTickRecord* to) {
  to->offers_received = from.offers_received;
  to->accepted = from.accepted;
  to->rejected = from.rejected;
  to->assigned = from.assigned;
  to->missed_acceptance = from.missed_acceptance;
  to->missed_assignment = from.missed_assignment;
  to->dropped_ingest = from.dropped_ingest;
  to->failed_sends = from.failed_sends;
  to->shed_offers = from.shed_offers;
  to->queue_high_watermark = from.queue_high_watermark;
}

/// A splice's remap entry for an offer that leaves the shard.
constexpr size_t kLeaves = std::numeric_limits<size_t>::max();

Coordinator::InvariantCheck g_invariant_check = nullptr;

}  // namespace

int ShardsFromEnv(int fallback) {
  const char* env = std::getenv(kShardsEnvVar);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || value < 1 || value > kMaxShards) return fallback;
  return static_cast<int>(value);
}

/// Everything one shard owns: its fault registry, its enterprise (whose
/// params carry the shard's scaled energy and point at that registry), its
/// live state, its history, and — when checkpointed — its open durable store.
struct Coordinator::Shard {
  std::unique_ptr<FaultRegistry> registry;
  OnlineEnterprise enterprise;
  OnlineLoopState state;
  /// Everything applied since `state` was last re-based onto a fresh Begin,
  /// folded in order (FoldTickRecordInto): applied onto Begin(members) it
  /// reproduces `state` bit for bit. Compaction writes it as state.json. A
  /// Snapshot would not do: it re-adds the committed schedules in member
  /// order, which changes the residual's floating-point sums and with them
  /// later decisions.
  OnlineTickRecord history;
  /// The residual of a fresh Begin (the balancing target, independent of the
  /// members): a splice of a shard that has ticked refolds from it.
  core::TimeSeries target;
  DurableStore store;
  /// The committed offers.jsonl (and meta.json) holds exactly the shard's
  /// members in global order: set when the store is created, after every
  /// compaction, and at resume (Recover has just verified the file); cleared
  /// by every Splice that changes the shard's members. While set, compaction hands in
  /// only state.json and the store carries the rest forward by hard link.
  bool offers_committed = false;
};

// Clamped to [1, kMaxShards] up front, so every manifest a run writes names
// a count ResumeSharded accepts.
Coordinator::Coordinator(CoordinatorParams params)
    : params_(std::move(params)),
      router_(std::clamp(params_.num_shards, 1, kMaxShards), params_.policy) {
  params_.num_shards = router_.num_shards();
}

Coordinator::~Coordinator() = default;

FaultRegistry& Coordinator::shard_faults(int shard) {
  return *shards_[static_cast<size_t>(shard)]->registry;
}

std::string Coordinator::ShardDirName(int topology, int shard) {
  if (topology == 0) return StrFormat("%s%04d", kShardDirPrefix, shard);
  return StrFormat("%s%04d.t%d", kShardDirPrefix, shard, topology);
}

std::string Coordinator::ShardDir(int shard) const {
  return (fs::path(directory_) / ShardDirName(topology_, shard)).string();
}

Status Coordinator::AddShard(int s, OnlineParams params, const std::vector<FlexOffer>& members,
                             std::vector<std::unique_ptr<Shard>>* fleet) const {
  auto shard = std::make_unique<Shard>();
  shard->registry = std::make_unique<FaultRegistry>();
  FLEXVIS_RETURN_IF_ERROR(
      InstallFaultsInto(*shard->registry, ShardSeed(params_.fault_seed, s)));
  params.faults = shard->registry.get();
  shard->enterprise = OnlineEnterprise(std::move(params));
  Result<OnlineLoopState> state = shard->enterprise.Begin(members, window_);
  if (!state.ok()) return state.status();
  shard->state = *std::move(state);
  shard->target = shard->state.residual;
  fleet->push_back(std::move(shard));
  return OkStatus();
}

Status Coordinator::Begin(const std::vector<FlexOffer>& offers, const TimeInterval& window) {
  if (begun_) return FailedPreconditionError("coordinator already begun");
  offers_ = offers;
  IndexOffers();
  window_ = window;
  // Keep the unscaled energy means: a resize re-derives exact per-shard
  // params for the new fleet size from these (re-dividing already-scaled
  // values would not be exact in floating point).
  base_energy_ = params_.online.energy;
  if (params_.rebalance.has_value() && controller_ == nullptr) {
    controller_ = std::make_unique<RebalanceController>(*params_.rebalance,
                                                        params_.num_shards, window_);
  }
  const int n = params_.num_shards;
  std::vector<std::vector<size_t>> partition = router_.Partition(offers_);
  shards_.clear();
  OnlineParams shard_params = params_.online;
  shard_params.energy = ShardEnergy(base_energy_, n, params_.scale_energy_per_shard);
  for (int s = 0; s < n; ++s) {
    std::vector<FlexOffer> subset;
    subset.reserve(partition[static_cast<size_t>(s)].size());
    for (size_t idx : partition[static_cast<size_t>(s)]) subset.push_back(offers_[idx]);
    FLEXVIS_RETURN_IF_ERROR(AddShard(s, shard_params, subset, &shards_));
  }
  begun_ = true;
  return OkStatus();
}

Status Coordinator::BeginCheckpointed(const std::vector<FlexOffer>& offers,
                                      const TimeInterval& window,
                                      const std::string& directory) {
  directory_ = directory;
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) {
    return InternalError(StrFormat("cannot create checkpoint directory '%s': %s",
                                   directory.c_str(), ec.message().c_str()));
  }
  // Invalidate any previous run first: dropping COORDINATOR.json means a
  // crash anywhere inside this function recovers to "no committed run"
  // (rerun from inputs), never to a mix of old and new shard state.
  FLEXVIS_RETURN_IF_ERROR(DurableStore::Invalidate(directory_, CoordinatorStoreOptions()));
  for (const fs::directory_entry& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(kShardDirPrefix, 0) != 0) continue;
    (void)DurableStore::Invalidate(entry.path().string(), CheckpointStoreOptions());
  }

  FLEXVIS_RETURN_IF_ERROR(Begin(offers, window));
  checkpointed_ = true;

  // Per-shard stores (each its own commit point via SNAPSHOT.json, WAL
  // opened ready for the first tick), then the coordinator store — the run's
  // overall commit point — last.
  std::vector<std::vector<size_t>> partition = router_.Partition(offers_);
  for (int s = 0; s < params_.num_shards; ++s) {
    std::vector<FlexOffer> subset;
    for (size_t idx : partition[static_cast<size_t>(s)]) subset.push_back(offers_[idx]);
    Result<DurableStore> store = DurableStore::Create(
        ShardDir(s), CheckpointStoreOptions(),
        EncodeOnlineSnapshot(shards_[static_cast<size_t>(s)]->enterprise.params(), subset,
                             window),
        JsonValue());
    if (!store.ok()) return store.status();
    shards_[static_cast<size_t>(s)]->store = *std::move(store);
    shards_[static_cast<size_t>(s)]->offers_committed = true;
  }
  Result<DurableStore> coord =
      DurableStore::Create(directory_, CoordinatorStoreOptions(), {}, CoordinatorMeta());
  if (!coord.ok()) return coord.status();
  coord_store_ = *std::move(coord);
  return OkStatus();
}

bool Coordinator::Done() const {
  if (!begun_) return false;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (!shard->enterprise.Done(shard->state)) return false;
  }
  return true;
}

Status Coordinator::Tick() {
  if (!begun_) return FailedPreconditionError("coordinator not begun");
  int64_t min_tick = -1;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->enterprise.Done(shard->state)) continue;
    if (min_tick < 0 || shard->state.next_tick < min_tick) {
      min_tick = shard->state.next_tick;
    }
  }
  if (min_tick < 0) return FailedPreconditionError("all shards are done");

  // Phase 1: compute every eligible shard's tick in parallel. The tick path
  // touches only shard-owned state and the shard's own FaultRegistry, so
  // execution order across shards cannot change any outcome.
  const size_t n = shards_.size();
  std::vector<OnlineTickRecord> records(n);
  std::vector<char> ticked(n, 0);
  ParallelFor(0, n, 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      Shard& shard = *shards_[s];
      if (shard.enterprise.Done(shard.state) || shard.state.next_tick != min_tick) continue;
      shard.enterprise.Tick(shard.state, &records[s]);
      ticked[s] = 1;
    }
  });

  // Phase 2: journal serially in shard order. All file I/O (and with it the
  // process-wide util.journal.* crash points) happens here, on one thread,
  // in a deterministic order — the property the coordinator kill-matrix
  // test depends on.
  for (size_t s = 0; s < n; ++s) {
    if (!ticked[s]) continue;
    Shard& shard = *shards_[s];
    if (checkpointed_) {
      FLEXVIS_RETURN_IF_ERROR(shard.store.Append(EncodeTickRecord(records[s])));
      FLEXVIS_RETURN_IF_ERROR(shard.store.Flush());
    }
    FoldTickRecordInto(&shard.history, std::move(records[s]));
  }

  // Self-healing controller: once the global tick is complete on every shard
  // (a resumed run's first Tick may only be levelling a one-tick skew),
  // observe the per-shard load and, when a plan triggers, journal and
  // execute it before the boundary compaction — the compaction then bakes
  // the plan's effects into the new snapshots.
  bool resized = false;
  if (controller_ != nullptr && min_tick > controller_->last_observed_tick()) {
    bool complete = true;
    for (const std::unique_ptr<Shard>& shard : shards_) {
      if (shard->state.next_tick != min_tick + 1) {
        complete = false;
        break;
      }
    }
    if (complete) FLEXVIS_RETURN_IF_ERROR(ObserveAndRebalance(min_tick, &resized));
  }

  // Checkpoint compaction at the global tick boundary. A resize already
  // committed fresh snapshots (and empty WALs) this boundary, so there is
  // nothing left to fold.
  if (!resized && checkpointed_ && CompactsAfter(params_.online.compact_ticks, min_tick)) {
    FLEXVIS_RETURN_IF_ERROR(CompactShards());
  }
  return CheckInvariants();
}

Status Coordinator::CompactShards(const std::vector<bool>* include) {
  // base_epoch advances FIRST (its own atomic manifest commit): once any
  // shard folds, a recovery may find a migration record at or below
  // base_epoch whose counterpart was compacted away, and must treat the
  // counterpart shard's snapshot as already carrying that migration. With a
  // controller the boundary always rewrites the manifest — it carries the
  // controller's trend state — and compacts the zero-file coordinator store,
  // so completed plans' WAL records fold away exactly when the shards'
  // migration records do.
  if (controller_ != nullptr) {
    base_epoch_ = epoch_;
    if (checkpointed_ && coord_store_.is_open()) {
      FLEXVIS_RETURN_IF_ERROR(coord_store_.Compact({}, CoordinatorMeta()));
    }
  } else if (base_epoch_ != epoch_) {
    base_epoch_ = epoch_;
    FLEXVIS_RETURN_IF_ERROR(WriteCoordinatorManifest());
  }
  for (int s = 0; s < params_.num_shards; ++s) {
    Shard& shard = *shards_[static_cast<size_t>(s)];
    if (shard.state.next_tick == 0) continue;  // nothing to fold yet
    if (include != nullptr && !(*include)[static_cast<size_t>(s)]) continue;
    StoreFiles files;
    if (!shard.offers_committed) {
      std::vector<FlexOffer> subset;
      for (const FlexOffer& offer : offers_) {
        if (shard.state.index_of.count(offer.id) != 0) subset.push_back(offer);
      }
      files = EncodeOnlineSnapshot(shard.enterprise.params(), subset, window_);
    }
    files.emplace_back(kCheckpointStateFile, EncodeTickRecord(shard.history));
    FLEXVIS_RETURN_IF_ERROR(shard.store.Compact(files, JsonValue()));
    shard.offers_committed = true;
  }
  return OkStatus();
}

Status Coordinator::MigrateProsumer(core::ProsumerId prosumer, int to_shard,
                                    MigrationMode mode) {
  FLEXVIS_RETURN_IF_ERROR(MoveProsumer(prosumer, to_shard, mode));
  return checkpointed_ ? WriteCoordinatorManifest() : OkStatus();
}

Status Coordinator::MoveProsumer(core::ProsumerId prosumer, int to_shard, MigrationMode mode) {
  if (!begun_) return FailedPreconditionError("coordinator not begun");
  if (to_shard < 0 || to_shard >= params_.num_shards) {
    return InvalidArgumentError(
        StrFormat("shard %d out of range [0, %d)", to_shard, params_.num_shards));
  }
  std::vector<FlexOffer> owned = OffersOf(prosumer);
  if (owned.empty()) {
    return NotFoundError(
        StrFormat("prosumer %lld owns no offers", static_cast<long long>(prosumer)));
  }
  const int from = router_.ShardOf(owned.front());
  if (from == to_shard) {
    return InvalidArgumentError(StrFormat("prosumer %lld is already on shard %d",
                                          static_cast<long long>(prosumer), to_shard));
  }

  // The idle rule names every already-ingested offer so the operator sees
  // the whole conflict, not just the first.
  MigrationRecord out;
  out.prosumer = prosumer;
  out.from = from;
  out.to = to_shard;
  out.epoch = epoch_ + 1;
  out.moved = ExtractMovedState(from, prosumer);
  if (!out.moved.idle() && mode == MigrationMode::kIdleOnly) {
    std::string ids;
    for (core::FlexOfferId id : out.moved.consumed) {
      if (!ids.empty()) ids += ", ";
      ids += StrFormat("%lld", static_cast<long long>(id));
    }
    return FailedPreconditionError(StrFormat(
        "prosumer %lld is active on shard %d (offers %s already ingested); migration "
        "requires an idle prosumer",
        static_cast<long long>(prosumer), from, ids.c_str()));
  }

  // Durability order, once both spliced states verified: migrate_out
  // (source journal) -> migrate_in with the offer payload (target journal)
  // -> manifest rewrite (by the caller). Recovery completes a lone
  // migrate_out; a migrate_in cannot exist without its migrate_out.
  auto make_durable = [&]() -> Status {
    if (!checkpointed_) return OkStatus();
    DurableStore& source = shards_[static_cast<size_t>(from)]->store;
    FLEXVIS_RETURN_IF_ERROR(source.Append(EncodeMigrationRecord(out)));
    FLEXVIS_RETURN_IF_ERROR(source.Flush());
    MigrationRecord in = out;
    in.is_in = true;
    in.offers = std::move(owned);
    DurableStore& target = shards_[static_cast<size_t>(to_shard)]->store;
    FLEXVIS_RETURN_IF_ERROR(target.Append(EncodeMigrationRecord(in)));
    return target.Flush();
  };
  return Splice(prosumer, from, to_shard, out.epoch, out.moved, SpliceSides::kBoth,
                make_durable);
}

void Coordinator::IndexOffers() {
  by_prosumer_.clear();
  by_prosumer_.reserve(offers_.size());
  for (size_t pos = 0; pos < offers_.size(); ++pos) {
    by_prosumer_.emplace_back(offers_[pos].prosumer, pos);
  }
  std::sort(by_prosumer_.begin(), by_prosumer_.end());
}

std::span<const std::pair<core::ProsumerId, size_t>> Coordinator::PositionsOf(
    core::ProsumerId prosumer) const {
  auto [begin, end] = std::equal_range(
      by_prosumer_.begin(), by_prosumer_.end(), std::make_pair(prosumer, size_t{0}),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  return {begin, end};
}

size_t Coordinator::GlobalPosition(const FlexOffer& offer) const {
  for (const auto& [prosumer, pos] : PositionsOf(offer.prosumer)) {
    if (offers_[pos].id == offer.id) return pos;
  }
  return offers_.size();
}

std::vector<FlexOffer> Coordinator::OffersOf(core::ProsumerId prosumer) const {
  std::vector<FlexOffer> owned;
  for (const auto& [p, pos] : PositionsOf(prosumer)) owned.push_back(offers_[pos]);
  return owned;
}

MigratedState Coordinator::ExtractMovedState(int s, core::ProsumerId prosumer) const {
  const OnlineLoopState& state = shards_[static_cast<size_t>(s)]->state;
  MigratedState moved;
  for (size_t pos = 0; pos < state.next_arrival; ++pos) {
    const FlexOffer& offer = state.report.offers[state.arrival[pos]];
    if (offer.prosumer == prosumer) moved.consumed.push_back(offer.id);
  }
  for (size_t idx : state.pending_acceptance) {
    const FlexOffer& offer = state.report.offers[idx];
    if (offer.prosumer == prosumer) moved.pending_acceptance.push_back(offer.id);
  }
  for (size_t idx : state.pending_assignment) {
    const FlexOffer& offer = state.report.offers[idx];
    if (offer.prosumer == prosumer) moved.pending_assignment.push_back(offer.id);
  }
  for (const FlexOffer& offer : state.report.offers) {
    if (offer.prosumer != prosumer || offer.state == core::FlexOfferState::kOffered) {
      continue;
    }
    moved.states.push_back(DecidedChange(offer));
  }
  return moved;
}

/// The members of a shard are its offers in global input order, so a splice
/// is a merge: the prosumer's offers leave at their live indices, join at
/// their global positions, and every index-valued field (index_of, arrival,
/// both queues) follows the members that stay through `remap`.
struct Coordinator::SpliceSide {
  Shard* shard = nullptr;
  bool joining = false;
  /// Live indices of the prosumer's offers the shard holds, ascending (a
  /// target normally holds none).
  std::vector<size_t> leaving;
  /// Target only: the prosumer's offers in global order, reset as Begin
  /// resets them with the moved decisions applied, and their indices in the
  /// spliced offer list.
  std::vector<FlexOffer> joined;
  std::vector<size_t> joined_at;
  /// Live index -> spliced index; kLeaves for a leaving offer.
  std::vector<size_t> remap;
  std::vector<size_t> arrival;
  std::vector<size_t> pending_acceptance;
  std::vector<size_t> pending_assignment;
  size_t next_arrival = 0;
  /// The new history without its outbox wires, which the live history hands
  /// over on commit. Unset when the shard has not ticked yet: its history
  /// and residual stay as they are.
  std::optional<OnlineTickRecord> fold;
  /// The residual refolded from the Begin target through the fold's changes;
  /// set with the fold.
  core::TimeSeries residual;
};

Status Coordinator::PlanSpliceSide(core::ProsumerId prosumer, const MigratedState& moved,
                                   SpliceSide* side) const {
  const Shard& shard = *side->shard;
  const OnlineLoopState& live = shard.state;
  const std::vector<FlexOffer>& offers = live.report.offers;
  std::vector<size_t> owned;
  for (const auto& [p, pos] : PositionsOf(prosumer)) {
    owned.push_back(pos);
    auto it = live.index_of.find(offers_[pos].id);
    if (it != live.index_of.end()) side->leaving.push_back(it->second);
  }
  std::sort(side->leaving.begin(), side->leaving.end());
  // A joining offer lands after every staying member that precedes it in
  // global order, and after the joining offers before it.
  if (side->joining) {
    for (size_t j = 0; j < owned.size(); ++j) {
      const size_t before = static_cast<size_t>(
          std::partition_point(offers.begin(), offers.end(),
                               [&](const FlexOffer& offer) {
                                 return GlobalPosition(offer) < owned[j];
                               }) -
          offers.begin());
      const size_t leaving_before = static_cast<size_t>(
          std::lower_bound(side->leaving.begin(), side->leaving.end(), before) -
          side->leaving.begin());
      side->joined_at.push_back(before - leaving_before + j);
      FlexOffer offer = offers_[owned[j]];
      offer.state = core::FlexOfferState::kOffered;
      offer.schedule.reset();
      side->joined.push_back(std::move(offer));
    }
  }
  side->remap.assign(offers.size(), kLeaves);
  for (size_t i = 0, next = 0, l = 0, j = 0; i < offers.size(); ++i) {
    if (l < side->leaving.size() && side->leaving[l] == i) {
      ++l;
      continue;
    }
    for (; j < side->joined_at.size() && side->joined_at[j] == next; ++j) ++next;
    side->remap[i] = next++;
  }

  // The moved state grafts onto a target that has ticked; at tick 0 the new
  // membership is the whole state. Every id it names must be one of the
  // prosumer's offers: anything else is a journal that does not match the
  // snapshots.
  const bool grafting = side->joining && live.next_tick > 0;
  auto joined_slot = [&](core::FlexOfferId id, size_t* slot) -> Status {
    for (size_t j = 0; j < side->joined.size(); ++j) {
      if (side->joined[j].id == id) {
        *slot = j;
        return OkStatus();
      }
    }
    return DataLossError(StrFormat("migrated state names flex-offer %lld, which prosumer %lld "
                                   "does not own",
                                   static_cast<long long>(id),
                                   static_cast<long long>(prosumer)));
  };
  std::vector<char> joined_consumed(side->joined.size(), 0);
  size_t moved_consumed = 0;
  if (grafting) {
    for (const OnlineStateChange& change : moved.states) {
      size_t slot = 0;
      FLEXVIS_RETURN_IF_ERROR(joined_slot(change.offer, &slot));
      FlexOffer& offer = side->joined[slot];
      offer.state = change.state;
      offer.schedule.reset();
      if (change.state == core::FlexOfferState::kAssigned) {
        if (!change.schedule.has_value()) {
          return DataLossError(StrFormat("journal assigns flex-offer %lld without a schedule",
                                         static_cast<long long>(change.offer)));
        }
        offer.schedule = change.schedule;
      }
    }
    for (core::FlexOfferId id : moved.consumed) {
      size_t slot = 0;
      FLEXVIS_RETURN_IF_ERROR(joined_slot(id, &slot));
      if (joined_consumed[slot] != 0) {
        return DataLossError(StrFormat("migrated state consumes flex-offer %lld twice",
                                       static_cast<long long>(id)));
      }
      joined_consumed[slot] = 1;
      ++moved_consumed;
    }
  }

  // Arrival order is (creation time, index), as Begin's stable sort leaves
  // it: the staying arrivals keep their order under the monotone remap, and
  // the joining ones merge in. The consumed prefix must come out as exactly
  // the staying consumed arrivals plus the moved ones (as a set).
  size_t kept_consumed = 0;
  for (size_t pos = 0; pos < live.next_arrival; ++pos) {
    if (side->remap[live.arrival[pos]] != kLeaves) ++kept_consumed;
  }
  side->next_arrival = kept_consumed + moved_consumed;
  std::vector<size_t> joining_order(side->joined.size());
  std::iota(joining_order.begin(), joining_order.end(), 0);
  std::stable_sort(joining_order.begin(), joining_order.end(), [&](size_t a, size_t b) {
    return side->joined[a].creation_time < side->joined[b].creation_time;
  });
  side->arrival.reserve(offers.size() - side->leaving.size() + side->joined.size());
  std::optional<core::FlexOfferId> misplaced;
  auto place = [&](size_t index, bool consumed, core::FlexOfferId id) {
    if (!consumed && !misplaced.has_value() && side->arrival.size() < side->next_arrival) {
      misplaced = id;
    }
    side->arrival.push_back(index);
  };
  for (size_t pos = 0, k = 0;;) {
    while (pos < live.arrival.size() && side->remap[live.arrival[pos]] == kLeaves) ++pos;
    const bool staying = pos < live.arrival.size();
    if (!staying && k == joining_order.size()) break;
    bool join = !staying;
    if (staying && k < joining_order.size()) {
      const FlexOffer& stay = offers[live.arrival[pos]];
      const FlexOffer& come = side->joined[joining_order[k]];
      join = come.creation_time < stay.creation_time ||
             (!(stay.creation_time < come.creation_time) &&
              side->joined_at[joining_order[k]] < side->remap[live.arrival[pos]]);
    }
    if (join) {
      const size_t slot = joining_order[k++];
      place(side->joined_at[slot], joined_consumed[slot] != 0, side->joined[slot].id);
    } else {
      place(side->remap[live.arrival[pos]], pos < live.next_arrival,
            offers[live.arrival[pos]].id);
      ++pos;
    }
  }
  if (misplaced.has_value()) {
    return FailedPreconditionError(StrFormat(
        "offer %lld lands inside the spliced consumed-arrival prefix but was never "
        "consumed; ingest-backlog skew would reorder consumed history",
        static_cast<long long>(*misplaced)));
  }

  // Queues: the staying entries in order, then the moved ones; as indices
  // for the state and as ids for the history.
  auto splice_queue = [&](const std::vector<size_t>& queue,
                          const std::vector<core::FlexOfferId>& moved_ids,
                          std::vector<size_t>* out,
                          std::vector<core::FlexOfferId>* ids) -> Status {
    for (size_t idx : queue) {
      if (side->remap[idx] == kLeaves) continue;
      out->push_back(side->remap[idx]);
      ids->push_back(offers[idx].id);
    }
    if (!grafting) return OkStatus();
    for (core::FlexOfferId id : moved_ids) {
      size_t slot = 0;
      FLEXVIS_RETURN_IF_ERROR(joined_slot(id, &slot));
      out->push_back(side->joined_at[slot]);
      ids->push_back(id);
    }
    return OkStatus();
  };
  std::vector<core::FlexOfferId> acceptance_ids;
  std::vector<core::FlexOfferId> assignment_ids;
  FLEXVIS_RETURN_IF_ERROR(splice_queue(live.pending_acceptance, moved.pending_acceptance,
                                       &side->pending_acceptance, &acceptance_ids));
  FLEXVIS_RETURN_IF_ERROR(splice_queue(live.pending_assignment, moved.pending_assignment,
                                       &side->pending_assignment, &assignment_ids));
  if (live.next_tick == 0) return OkStatus();

  // The new history. An idle move changes no decision, so the shard keeps
  // its own history; moved decisions collapse the shard onto its Snapshot
  // order instead. Either way the prosumer's entries leave and the moved
  // ones append. Counters (including sheds the prosumer caused) stay:
  // cumulative history does not move.
  OnlineTickRecord& fold = side->fold.emplace();
  const OnlineTickRecord& history = shard.history;
  auto leaves = [&](core::FlexOfferId id) {
    auto it = live.index_of.find(id);
    return it != live.index_of.end() && side->remap[it->second] == kLeaves;
  };
  if (moved.idle()) {
    fold.tick = history.tick;
    fold.folded = history.folded;
    fold.shed_policy = history.shed_policy;
    CopyCounters(history, &fold);
    for (const OnlineStateChange& change : history.changes) {
      if (!leaves(change.offer)) fold.changes.push_back(change);
    }
  } else {
    fold.tick = live.next_tick - 1;
    fold.folded = true;
    fold.shed_policy = static_cast<int>(shard.enterprise.params().shed_policy);
    CopyCounters(live.report, &fold);
    for (size_t i = 0; i < offers.size(); ++i) {
      const FlexOffer& offer = offers[i];
      if (side->remap[i] == kLeaves || offer.state == core::FlexOfferState::kOffered) continue;
      fold.changes.push_back(DecidedChange(offer));
    }
  }
  if (grafting) {
    fold.changes.insert(fold.changes.end(), moved.states.begin(), moved.states.end());
  }
  fold.next_arrival = static_cast<int64_t>(side->next_arrival);
  fold.pending_acceptance = std::move(acceptance_ids);
  fold.pending_assignment = std::move(assignment_ids);
  if (side->joining) {
    fold.queue_high_watermark = std::max(fold.queue_high_watermark,
                                         static_cast<int>(fold.pending_acceptance.size()));
  }

  // Refold the residual: Begin's target with every committed schedule in
  // the new history's change order, as Apply books them.
  side->residual = shard.target;
  core::TimeSeries& residual = side->residual;
  for (const OnlineStateChange& change : fold.changes) {
    if (change.state != core::FlexOfferState::kAssigned) continue;
    const FlexOffer* offer = nullptr;
    if (!leaves(change.offer)) {
      auto it = live.index_of.find(change.offer);
      if (it != live.index_of.end()) offer = &offers[it->second];
    }
    if (offer == nullptr) {
      size_t slot = 0;
      FLEXVIS_RETURN_IF_ERROR(joined_slot(change.offer, &slot));
      offer = &side->joined[slot];
    }
    CommitScheduleToResidual(offer->direction, *change.schedule, residual);
  }
  return OkStatus();
}

void Coordinator::CommitSpliceSide(SpliceSide* side) {
  Shard& shard = *side->shard;
  OnlineLoopState& state = shard.state;
  std::vector<FlexOffer>& offers = state.report.offers;
  for (size_t i : side->leaving) state.index_of.erase(offers[i].id);
  std::vector<FlexOffer> spliced(offers.size() - side->leaving.size() + side->joined.size());
  for (size_t i = 0; i < offers.size(); ++i) {
    const size_t to = side->remap[i];
    if (to == kLeaves) continue;
    if (to != i) state.index_of[offers[i].id] = to;
    spliced[to] = std::move(offers[i]);
  }
  for (size_t j = 0; j < side->joined.size(); ++j) {
    state.index_of[side->joined[j].id] = side->joined_at[j];
    spliced[side->joined_at[j]] = std::move(side->joined[j]);
  }
  offers = std::move(spliced);
  state.arrival = std::move(side->arrival);
  state.pending_acceptance = std::move(side->pending_acceptance);
  state.pending_assignment = std::move(side->pending_assignment);
  state.next_arrival = side->next_arrival;
  if (side->fold.has_value()) {
    OnlineTickRecord& fold = *side->fold;
    fold.sent = std::move(shard.history.sent);
    shard.history = std::move(fold);
    state.report.queue_high_watermark = shard.history.queue_high_watermark;
    state.residual = std::move(side->residual);
  }
  shard.offers_committed = false;
}

Status Coordinator::Splice(core::ProsumerId prosumer, int from, int to, int64_t epoch,
                           const MigratedState& moved, SpliceSides sides,
                           const std::function<Status()>& make_durable) {
  std::vector<SpliceSide> spliced;
  if (sides != SpliceSides::kTargetOnly) {
    spliced.emplace_back().shard = shards_[static_cast<size_t>(from)].get();
  }
  if (sides != SpliceSides::kSourceOnly) {
    SpliceSide& target = spliced.emplace_back();
    target.shard = shards_[static_cast<size_t>(to)].get();
    target.joining = true;
  }
  // Moved decisions only mean the same thing on a shard at the same tick.
  if (spliced.size() == 2 && !moved.idle() &&
      spliced[0].shard->state.next_tick != spliced[1].shard->state.next_tick) {
    return FailedPreconditionError(StrFormat(
        "shards %d and %d are not at a common tick boundary (%d vs %d)", from, to,
        spliced[0].shard->state.next_tick, spliced[1].shard->state.next_tick));
  }
  for (SpliceSide& side : spliced) {
    FLEXVIS_RETURN_IF_ERROR(PlanSpliceSide(prosumer, moved, &side));
  }
  if (make_durable) FLEXVIS_RETURN_IF_ERROR(make_durable());
  for (SpliceSide& side : spliced) CommitSpliceSide(&side);
  FLEXVIS_RETURN_IF_ERROR(router_.Assign(prosumer, to));
  // max, not assignment: a resume starts the epoch at the manifest's
  // base_epoch, and a replayed migration below it must not regress it.
  epoch_ = std::max(epoch_, epoch);
  return CheckInvariants();
}

void Coordinator::SetInvariantCheckForTesting(InvariantCheck check) {
  g_invariant_check = check;
}

Status Coordinator::CheckInvariants() const {
  return g_invariant_check != nullptr ? g_invariant_check(*this) : OkStatus();
}

const OnlineEnterprise& Coordinator::shard_enterprise(int shard) const {
  return shards_[static_cast<size_t>(shard)]->enterprise;
}

const OnlineLoopState& Coordinator::shard_state(int shard) const {
  return shards_[static_cast<size_t>(shard)]->state;
}

const OnlineTickRecord& Coordinator::shard_history(int shard) const {
  return shards_[static_cast<size_t>(shard)]->history;
}

Status Coordinator::Resize(int new_num_shards) {
  if (!begun_) return FailedPreconditionError("coordinator not begun");
  if (new_num_shards < 1 || new_num_shards > kMaxShards) {
    return InvalidArgumentError(
        StrFormat("num_shards %d out of range [1, %d]", new_num_shards, kMaxShards));
  }
  if (new_num_shards == params_.num_shards) {
    return InvalidArgumentError(StrFormat("fleet already has %d shards", new_num_shards));
  }
  const int next_tick = shards_[0]->state.next_tick;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (shard->state.next_tick != next_tick) {
      return FailedPreconditionError(
          "shards are not at a common tick boundary; resize only between global ticks");
    }
  }

  // Collapse the whole fleet into one global view: consumed arrivals, queue
  // contents (old shard order, then queue order — the deterministic global
  // ordering both live and resumed resizes derive), decided offer states,
  // and the counter totals. Per-offer counter attribution is impossible from
  // journaled state (e.g. a scheduler demotion does not mark the offer), so
  // every cumulative counter and the global outbox re-home to new shard 0.
  std::set<core::FlexOfferId> consumed;
  std::vector<core::FlexOfferId> global_pend_acc;
  std::vector<core::FlexOfferId> global_pend_asn;
  std::map<core::FlexOfferId, OnlineStateChange> decided;
  OnlineReport totals;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const OnlineLoopState& st = shard->state;
    for (size_t pos = 0; pos < st.next_arrival; ++pos) {
      consumed.insert(st.report.offers[st.arrival[pos]].id);
    }
    for (size_t idx : st.pending_acceptance) {
      global_pend_acc.push_back(st.report.offers[idx].id);
    }
    for (size_t idx : st.pending_assignment) {
      global_pend_asn.push_back(st.report.offers[idx].id);
    }
    for (const FlexOffer& offer : st.report.offers) {
      if (offer.state == core::FlexOfferState::kOffered) continue;
      decided.emplace(offer.id, DecidedChange(offer));
    }
    AddCounters(&totals, st.report);
  }

  // Build the new fleet speculatively: fresh router (a resize drops all
  // overrides — the new hash partition IS the rebalance), per-shard params
  // re-derived from the unscaled base energy, and each shard's state spliced
  // from a hand-built fold through the same verified path migrations use.
  const int new_n = new_num_shards;
  const int new_topology = topology_ + 1;
  ShardRouter new_router(new_n, params_.policy);
  std::vector<std::vector<size_t>> partition = new_router.Partition(offers_);
  std::vector<std::unique_ptr<Shard>> new_shards;
  std::vector<std::vector<FlexOffer>> subsets(static_cast<size_t>(new_n));
  OnlineParams shard_params = params_.online;
  shard_params.energy = ShardEnergy(base_energy_, new_n, params_.scale_energy_per_shard);
  for (int s = 0; s < new_n; ++s) {
    const size_t si = static_cast<size_t>(s);
    subsets[si].reserve(partition[si].size());
    for (size_t idx : partition[si]) subsets[si].push_back(offers_[idx]);
    FLEXVIS_RETURN_IF_ERROR(AddShard(s, shard_params, subsets[si], &new_shards));
    Shard& shard = *new_shards.back();
    if (next_tick > 0) {
      OnlineTickRecord& fold = shard.history;
      fold.tick = next_tick - 1;
      fold.folded = true;
      fold.shed_policy = static_cast<int>(params_.online.shed_policy);
      std::set<core::FlexOfferId> member;
      std::vector<core::FlexOfferId> expect;
      for (const FlexOffer& offer : subsets[si]) {
        member.insert(offer.id);
        if (consumed.count(offer.id) != 0) expect.push_back(offer.id);
        auto it = decided.find(offer.id);
        if (it != decided.end()) fold.changes.push_back(it->second);
      }
      for (core::FlexOfferId id : global_pend_acc) {
        if (member.count(id) != 0) fold.pending_acceptance.push_back(id);
      }
      for (core::FlexOfferId id : global_pend_asn) {
        if (member.count(id) != 0) fold.pending_assignment.push_back(id);
      }
      fold.next_arrival = static_cast<int64_t>(expect.size());
      if (s == 0) {
        CopyCounters(totals, &fold);
        fold.sent = totals.outbox;
        fold.queue_high_watermark = std::max(fold.queue_high_watermark,
                                             static_cast<int>(fold.pending_acceptance.size()));
      } else {
        fold.queue_high_watermark = static_cast<int>(fold.pending_acceptance.size());
      }
      FLEXVIS_RETURN_IF_ERROR(ApplySplice(shard.enterprise, fold, expect, &shard.state));
    }
  }

  // Stage the new topology's stores next to the old ones (distinct directory
  // names), then commit everything at once by compacting the coordinator
  // store — its manifest rewrite both flips the topology and truncates the
  // plan WAL. A crash before that commit recovers under the OLD manifest
  // (old directories intact, staged ones swept as stale); after it, under
  // the new (old directories swept).
  std::vector<std::string> old_dirs;
  if (checkpointed_) {
    for (int s = 0; s < params_.num_shards; ++s) old_dirs.push_back(ShardDir(s));
    for (int s = 0; s < new_n; ++s) {
      const size_t si = static_cast<size_t>(s);
      StoreFiles files =
          EncodeOnlineSnapshot(new_shards[si]->enterprise.params(), subsets[si], window_);
      if (next_tick > 0) {
        files.emplace_back(kCheckpointStateFile, EncodeTickRecord(new_shards[si]->history));
      }
      Result<DurableStore> store = DurableStore::Create(
          (fs::path(directory_) / ShardDirName(new_topology, s)).string(),
          CheckpointStoreOptions(), std::move(files), JsonValue());
      if (!store.ok()) return store.status();
      new_shards[si]->store = *std::move(store);
      new_shards[si]->offers_committed = true;
    }
    for (std::unique_ptr<Shard>& shard : shards_) {
      if (shard->store.is_open()) FLEXVIS_RETURN_IF_ERROR(shard->store.Close());
    }
  }

  params_.num_shards = new_n;
  router_ = std::move(new_router);
  shards_ = std::move(new_shards);
  topology_ = new_topology;
  base_epoch_ = epoch_;
  if (controller_ != nullptr) {
    // All cumulative counters re-homed to new shard 0; seed its shed
    // baseline with the global total so the first post-resize observation
    // does not read the re-homing as one giant shed burst.
    std::vector<int64_t> seed(static_cast<size_t>(new_n), 0);
    seed[0] = totals.shed_offers;
    controller_->ResetShards(new_n, seed);
  }
  if (checkpointed_) {
    FLEXVIS_RETURN_IF_ERROR(coord_store_.Compact({}, CoordinatorMeta()));
    for (const std::string& dir : old_dirs) {
      FLEXVIS_RETURN_IF_ERROR(DurableStore::Destroy(dir, CheckpointStoreOptions()));
    }
  }
  return OkStatus();
}

std::vector<ShardLoadSample> Coordinator::CollectSamples() const {
  std::vector<ShardLoadSample> samples;
  samples.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    samples.push_back(LoadSampleOf(shard->state));
  }
  return samples;
}

RebalancePlan Coordinator::BuildPlan(const RebalanceDecision& decision) const {
  RebalancePlan plan;
  plan.id = decision.plan_id;
  plan.tick = decision.tick;
  plan.action = decision.action;
  plan.new_num_shards = decision.new_num_shards;
  if (decision.action != RebalancePlan::Action::kMove) return plan;
  // Per-prosumer load on the hot shard: offers it has not answered yet
  // (un-ingested arrivals plus both pending queues). std::map iteration
  // gives the id-sorted candidate order PickMoveSet's tie-break expects.
  const OnlineLoopState& hot = shards_[static_cast<size_t>(decision.hot_shard)]->state;
  std::map<core::ProsumerId, int64_t> load;
  for (size_t pos = hot.next_arrival; pos < hot.arrival.size(); ++pos) {
    ++load[hot.report.offers[hot.arrival[pos]].prosumer];
  }
  for (size_t idx : hot.pending_acceptance) ++load[hot.report.offers[idx].prosumer];
  for (size_t idx : hot.pending_assignment) ++load[hot.report.offers[idx].prosumer];
  int64_t total = 0;
  std::vector<ProsumerLoad> candidates;
  candidates.reserve(load.size());
  for (const auto& [prosumer, pending] : load) {
    candidates.push_back({prosumer, pending});
    total += pending;
  }
  std::vector<core::ProsumerId> picked =
      PickMoveSet(std::move(candidates), params_.rebalance->max_moves, (total + 1) / 2);
  for (core::ProsumerId prosumer : picked) {
    plan.moves.push_back({prosumer, decision.hot_shard, decision.cold_shard});
  }
  return plan;
}

Status Coordinator::ExecutePlan(const RebalancePlan& plan, bool already_journaled) {
  const bool journaled = checkpointed_ && coord_store_.is_open();
  if (journaled && !already_journaled) {
    FLEXVIS_RETURN_IF_ERROR(coord_store_.Append(EncodeRebalancePlan(plan).Dump()));
    FLEXVIS_RETURN_IF_ERROR(coord_store_.Flush());
  }
  if (plan.action == RebalancePlan::Action::kMove) {
    bool moved = false;
    for (const RebalanceMove& move : plan.moves) {
      const std::map<core::ProsumerId, int>& overrides = router_.overrides();
      auto it = overrides.find(move.prosumer);
      if (it != overrides.end() && it->second == move.to) {
        continue;  // already committed (a resumed plan replays its moves)
      }
      Status status = MoveProsumer(move.prosumer, move.to, MigrationMode::kAllowActive);
      if (status.code() == StatusCode::kFailedPrecondition ||
          status.code() == StatusCode::kInvalidArgument) {
        // Verification refused the move (ingest-backlog skew, or the offers
        // already route there). The plan stays best-effort; the controller
        // re-triggers after cooldown if the imbalance persists.
        continue;
      }
      FLEXVIS_RETURN_IF_ERROR(status);
      moved = true;
    }
    // One manifest commit for the whole plan. A crash between two moves
    // leaves it behind the journals; the resume's staleness rewrite and its
    // plan reconciliation bring it up to date.
    if (moved && checkpointed_) FLEXVIS_RETURN_IF_ERROR(WriteCoordinatorManifest());
    if (journaled) {
      FLEXVIS_RETURN_IF_ERROR(coord_store_.Append(EncodePlanDoneRecord(plan.id)));
      FLEXVIS_RETURN_IF_ERROR(coord_store_.Flush());
    }
  } else {
    // No plan_done record: Resize's manifest commit truncates the
    // coordinator WAL atomically, which retires the plan record with it.
    FLEXVIS_RETURN_IF_ERROR(Resize(plan.new_num_shards));
  }
  ++plans_executed_;
  return OkStatus();
}

Status Coordinator::ObserveAndRebalance(int64_t tick, bool* resized) {
  std::optional<RebalanceDecision> decision = controller_->Observe(tick, CollectSamples());
  if (!decision.has_value()) return OkStatus();
  RebalancePlan plan = BuildPlan(*decision);
  if (plan.action == RebalancePlan::Action::kMove && plan.moves.empty()) {
    // Nothing movable: journal nothing. The trigger still consumed a plan id
    // and started the cooldown, and a resumed run re-derives the identical
    // empty decision from the replayed load history.
    return OkStatus();
  }
  FLEXVIS_RETURN_IF_ERROR(ExecutePlan(plan, /*already_journaled=*/false));
  if (plan.action != RebalancePlan::Action::kMove) *resized = true;
  return OkStatus();
}

JsonValue Coordinator::CoordinatorMeta() const {
  JsonValue meta = JsonValue::Object();
  meta.Set("schema_version", JsonValue::Int(2));
  meta.Set("num_shards", JsonValue::Int(params_.num_shards));
  meta.Set("policy", JsonValue::Str(std::string(ShardPolicyName(params_.policy))));
  meta.Set("scale_energy_per_shard", JsonValue::Bool(params_.scale_energy_per_shard));
  meta.Set("fault_seed", JsonValue::Int(static_cast<int64_t>(params_.fault_seed)));
  meta.Set("epoch", JsonValue::Int(epoch_));
  meta.Set("base_epoch", JsonValue::Int(base_epoch_));
  meta.Set("topology", JsonValue::Int(topology_));
  // Pinned strategy identity (also pinned per shard in each meta.json):
  // surfaced in the manifest so operators and ResumeSharded see the names a
  // sharded run settles under without opening shard stores.
  meta.Set("forecaster", JsonValue::Str(params_.online.forecaster));
  meta.Set("bidding", JsonValue::Str(params_.online.bidding));
  JsonValue energy = JsonValue::Object();
  energy.Set("wind_mean_kwh", JsonValue::Double(base_energy_.wind_mean_kwh));
  energy.Set("solar_peak_kwh", JsonValue::Double(base_energy_.solar_peak_kwh));
  energy.Set("demand_base_kwh", JsonValue::Double(base_energy_.demand_base_kwh));
  meta.Set("base_energy", std::move(energy));
  if (params_.rebalance.has_value()) {
    meta.Set("rebalance", EncodeRebalanceParams(*params_.rebalance));
  }
  if (controller_ != nullptr) meta.Set("controller", controller_->EncodeState());
  JsonValue overrides = JsonValue::Array();
  for (const auto& [prosumer, shard] : router_.overrides()) {
    JsonValue pair = JsonValue::Array();
    pair.Append(JsonValue::Int(prosumer));
    pair.Append(JsonValue::Int(shard));
    overrides.Append(std::move(pair));
  }
  meta.Set("overrides", std::move(overrides));
  JsonValue order = JsonValue::Array();
  for (const FlexOffer& offer : offers_) order.Append(JsonValue::Int(offer.id));
  meta.Set("offer_order", std::move(order));
  return meta;
}

Status Coordinator::WriteCoordinatorManifest() {
  return coord_store_.Recommit(CoordinatorMeta());
}

Result<MergedOnlineReport> Coordinator::Finish() {
  if (!begun_) return FailedPreconditionError("coordinator not begun");
  MergedOnlineReport merged;
  merged.num_shards = params_.num_shards;
  merged.epoch = epoch_;
  merged.topology = topology_;
  std::vector<std::vector<size_t>> partition = router_.Partition(offers_);
  merged.global.offers.resize(offers_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    if (checkpointed_ && shard.store.is_open()) {
      FLEXVIS_RETURN_IF_ERROR(shard.store.Close());
    }
    OnlineReport report = shard.enterprise.Finish(std::move(shard.state));
    if (report.offers.size() != partition[s].size()) {
      return InternalError(StrFormat(
          "shard %zu finished with %zu offers but owns %zu (partition drift)", s,
          report.offers.size(), partition[s].size()));
    }
    for (size_t i = 0; i < partition[s].size(); ++i) {
      merged.global.offers[partition[s][i]] = report.offers[i];
    }
    AddCounters(&merged.global, report);
    merged.global.imbalance_kwh += report.imbalance_kwh;
    merged.global.ticks = std::max(merged.global.ticks, report.ticks);
    merged.shard_reports.push_back(std::move(report));
  }
  for (const FlexOffer& offer : merged.global.offers) {
    merged.total_offered_kwh += offer.total_max_energy_kwh();
  }
  if (checkpointed_ && coord_store_.is_open()) FLEXVIS_RETURN_IF_ERROR(coord_store_.Close());
  begun_ = false;
  return merged;
}

Result<MergedOnlineReport> Coordinator::RunSharded(const CoordinatorParams& params,
                                                   const std::vector<FlexOffer>& offers,
                                                   const TimeInterval& window) {
  Coordinator coordinator(params);
  FLEXVIS_RETURN_IF_ERROR(coordinator.Begin(offers, window));
  while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
  return coordinator.Finish();
}

Result<MergedOnlineReport> Coordinator::RunShardedCheckpointed(
    const CoordinatorParams& params, const std::vector<FlexOffer>& offers,
    const TimeInterval& window, const std::string& directory) {
  Coordinator coordinator(params);
  FLEXVIS_RETURN_IF_ERROR(coordinator.BeginCheckpointed(offers, window, directory));
  while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
  return coordinator.Finish();
}

Result<MergedOnlineReport> Coordinator::ResumeSharded(const std::string& directory,
                                                      ShardResumeInfo* info) {
  if (info != nullptr) *info = ShardResumeInfo{};

  // The coordinator store manifest is the run's commit point: without it
  // nothing was promised (the crash predates Begin's completion) and the
  // caller reruns from its inputs. Resume also garbage-collects any staging
  // debris a crash left next to it.
  StoreRecovery coord_recovery;
  Result<DurableStore> coord_store =
      DurableStore::Resume(directory, CoordinatorStoreOptions(), &coord_recovery);
  if (!coord_store.ok()) return coord_store.status();
  const JsonValue& meta = coord_recovery.meta;
  if (!meta.is_object()) return DataLossError("COORDINATOR.json carries no coordinator meta");
  Result<int64_t> num_shards = meta.GetInt("num_shards");
  Result<std::string> policy_name = meta.GetString("policy");
  Result<bool> scale = meta.GetBool("scale_energy_per_shard");
  Result<int64_t> fault_seed = meta.GetInt("fault_seed");
  Result<int64_t> manifest_epoch = meta.GetInt("epoch");
  if (!num_shards.ok() || !policy_name.ok() || !scale.ok() || !fault_seed.ok() ||
      !manifest_epoch.ok()) {
    return DataLossError("COORDINATOR.json is incomplete");
  }
  // Bounded before anything is sized or swept from them: a hostile count or
  // topology must not name directories the run never wrote.
  if (*num_shards < 1 || *num_shards > kMaxShards) {
    return DataLossError(StrFormat("COORDINATOR.json num_shards %lld is outside [1, %d]",
                                   static_cast<long long>(*num_shards), kMaxShards));
  }
  const int n = static_cast<int>(*num_shards);
  Result<ShardPolicy> policy = ParseShardPolicy(*policy_name);
  if (!policy.ok()) return DataLossError("COORDINATOR.json names an unknown policy");
  const JsonValue& base_epoch_json = meta.Get("base_epoch");
  const int64_t base_epoch = base_epoch_json.is_int() ? base_epoch_json.AsInt() : 0;
  int topology = 0;  // absent in manifests written before resizing existed
  if (meta.Has("topology")) {
    Result<int64_t> value = meta.GetInt("topology");
    if (!value.ok() || *value < 0 || *value > std::numeric_limits<int>::max()) {
      return DataLossError("COORDINATOR.json topology is not a non-negative int");
    }
    topology = static_cast<int>(*value);
  }
  const JsonValue& order_json = meta.Get("offer_order");
  const JsonValue& overrides_json = meta.Get("overrides");
  if (!order_json.is_array() || !overrides_json.is_array()) {
    return DataLossError("COORDINATOR.json lacks offer_order/overrides arrays");
  }
  std::map<core::ProsumerId, int> manifest_overrides;
  for (size_t i = 0; i < overrides_json.size(); ++i) {
    const JsonValue& pair = overrides_json[i];
    if (!pair.is_array() || pair.size() != 2 || !pair[0].is_int() || !pair[1].is_int() ||
        pair[1].AsInt() < 0 || pair[1].AsInt() >= n) {
      return DataLossError("COORDINATOR.json override entry is malformed");
    }
    manifest_overrides[pair[0].AsInt()] = static_cast<int>(pair[1].AsInt());
  }

  CoordinatorParams params;
  params.num_shards = n;
  params.policy = *policy;
  params.scale_energy_per_shard = *scale;
  params.fault_seed = static_cast<uint64_t>(*fault_seed);
  if (meta.Has("rebalance")) {
    Result<RebalanceParams> rebalance = DecodeRebalanceParams(meta.Get("rebalance"));
    if (!rebalance.ok()) return rebalance.status();
    params.rebalance = *rebalance;
  }

  // Resume every shard store: each verifies its own SNAPSHOT.json, repairs a
  // torn WAL tail, garbage-collects other-generation debris, and reopens the
  // committed generation's WAL for the continuation. Shards recover to
  // *independent* generations — a crash mid-compaction leaves some folded
  // and some not, and the replay below reconciles them.
  Coordinator coordinator(params);
  coordinator.directory_ = directory;
  coordinator.coord_store_ = *std::move(coord_store);
  coordinator.topology_ = topology;
  std::vector<DurableStore> shard_stores(static_cast<size_t>(n));
  std::vector<StoreRecovery> shard_recovery(static_cast<size_t>(n));
  std::vector<OnlineParams> shard_params(static_cast<size_t>(n));
  std::vector<std::vector<FlexOffer>> shard_offers(static_cast<size_t>(n));
  TimeInterval window;
  for (int s = 0; s < n; ++s) {
    const size_t si = static_cast<size_t>(s);
    Result<DurableStore> store = DurableStore::Resume(
        coordinator.ShardDir(s), CheckpointStoreOptions(), &shard_recovery[si]);
    if (!store.ok()) return store.status();
    shard_stores[si] = *std::move(store);
    FLEXVIS_RETURN_IF_ERROR(DecodeOnlineSnapshot(shard_recovery[si], &shard_params[si],
                                                 &shard_offers[si], &window));
  }
  // Only now, with every store the manifest names resumed, sweep the shard
  // directories it does not name: a crash mid-resize leaves either staged
  // new-topology directories (the manifest flip never happened) or the old
  // topology's directories (the flip happened but the destroy did not
  // finish). Either way, only the manifest's topology is live.
  {
    std::set<std::string> expected;
    for (int s = 0; s < n; ++s) expected.insert(ShardDirName(topology, s));
    std::error_code ec;
    for (const fs::directory_entry& entry : fs::directory_iterator(directory, ec)) {
      if (!entry.is_directory()) continue;
      const std::string name = entry.path().filename().string();
      if (name.rfind(kShardDirPrefix, 0) != 0) continue;
      if (expected.count(name) != 0) continue;
      FLEXVIS_RETURN_IF_ERROR(
          DurableStore::Destroy(entry.path().string(), CheckpointStoreOptions()));
      if (info != nullptr) ++info->stale_shard_dirs_swept;
    }
  }

  // Parse every shard's WAL records up front and take a migration inventory:
  // for each epoch, which side(s) survived the crash. A migrate_in whose
  // migrate_out is nowhere and is not covered by base_epoch is impossible
  // under the durability order (out flushes first) — the directory is
  // corrupt, not crashed.
  struct MigrationSides {
    bool has_out = false;
    bool has_in = false;
    core::ProsumerId prosumer = core::kInvalidProsumerId;
  };
  std::map<int64_t, MigrationSides> inventory;
  std::vector<std::deque<ReplayedRecord>> queues(static_cast<size_t>(n));
  if (info != nullptr) info->shards.resize(static_cast<size_t>(n));
  for (int s = 0; s < n; ++s) {
    const size_t si = static_cast<size_t>(s);
    for (const std::string& payload : shard_recovery[si].records) {
      Result<ReplayedRecord> record = ParseJournalRecord(payload);
      if (!record.ok()) return record.status();
      if (const auto* migration = std::get_if<MigrationRecord>(&*record)) {
        MigrationSides& sides = inventory[migration->epoch];
        (migration->is_in ? sides.has_in : sides.has_out) = true;
        sides.prosumer = migration->prosumer;
      }
      queues[si].push_back(*std::move(record));
    }
    if (info != nullptr) {
      info->shards[si].torn_tail = shard_recovery[si].torn_tail;
      info->shards[si].torn_bytes = shard_recovery[si].torn_bytes;
      info->shards[si].generation = shard_recovery[si].generation;
    }
  }
  for (const auto& [epoch, sides] : inventory) {
    if (sides.has_in && !sides.has_out && epoch > base_epoch) {
      return DataLossError(
          StrFormat("migrate_in for prosumer %lld has no matching migrate_out",
                    static_cast<long long>(sides.prosumer)));
    }
  }

  // Rebuild the global offer list in its original input order. Shards on
  // different generations may both carry a migrated prosumer's offers (the
  // source's pre-migration snapshot and the target's compacted one); that is
  // benign exactly when the copies are byte-identical. Offers missing from
  // every snapshot (migrated into a shard whose fold never committed) are
  // recovered from migrate_in payloads.
  std::map<core::FlexOfferId, FlexOffer> by_id;
  for (const std::vector<FlexOffer>& subset : shard_offers) {
    for (const FlexOffer& offer : subset) {
      auto [it, inserted] = by_id.emplace(offer.id, offer);
      if (!inserted &&
          core::EncodeFlexOffer(it->second) != core::EncodeFlexOffer(offer)) {
        return DataLossError(
            StrFormat("flex-offer %lld appears in two shard snapshots with different "
                      "content",
                      static_cast<long long>(offer.id)));
      }
    }
  }
  for (const std::deque<ReplayedRecord>& queue : queues) {
    for (const ReplayedRecord& record : queue) {
      const auto* migration = std::get_if<MigrationRecord>(&record);
      if (migration == nullptr || !migration->is_in) continue;
      for (const FlexOffer& offer : migration->offers) {
        auto [it, inserted] = by_id.emplace(offer.id, offer);
        if (!inserted &&
            core::EncodeFlexOffer(it->second) != core::EncodeFlexOffer(offer)) {
          return DataLossError(
              StrFormat("flex-offer %lld in a migrate_in payload differs from its "
                        "snapshot copy",
                        static_cast<long long>(offer.id)));
        }
      }
    }
  }
  coordinator.params_.online = shard_params[0];
  coordinator.params_.online.faults = nullptr;
  // The snapshots already carry per-shard (scaled) parameters; nothing below
  // rescales, so suppress the Begin-time scaling semantics on this instance.
  coordinator.window_ = window;
  coordinator.base_energy_ = coordinator.params_.online.energy;
  const JsonValue& energy_json = meta.Get("base_energy");
  if (energy_json.is_object()) {
    Result<double> wind = energy_json.GetDouble("wind_mean_kwh");
    Result<double> solar = energy_json.GetDouble("solar_peak_kwh");
    Result<double> demand = energy_json.GetDouble("demand_base_kwh");
    if (!wind.ok() || !solar.ok() || !demand.ok()) {
      return DataLossError("COORDINATOR.json base_energy is incomplete");
    }
    coordinator.base_energy_.wind_mean_kwh = *wind;
    coordinator.base_energy_.solar_peak_kwh = *solar;
    coordinator.base_energy_.demand_base_kwh = *demand;
  } else if (params.scale_energy_per_shard) {
    // v1 manifest: multiply shard 0's scaled means back out. Exact only when
    // the division was (floats), but v1 runs cannot resize anyway.
    const double factor = static_cast<double>(n);
    coordinator.base_energy_.wind_mean_kwh *= factor;
    coordinator.base_energy_.solar_peak_kwh *= factor;
    coordinator.base_energy_.demand_base_kwh *= factor;
  }
  if (coordinator.params_.rebalance.has_value()) {
    coordinator.controller_ = std::make_unique<RebalanceController>(
        *coordinator.params_.rebalance, n, window);
    if (meta.Has("controller")) {
      FLEXVIS_RETURN_IF_ERROR(
          coordinator.controller_->DecodeState(meta.Get("controller")));
    }
  }
  for (size_t i = 0; i < order_json.size(); ++i) {
    if (!order_json[i].is_int()) return DataLossError("offer_order holds a non-integer id");
    auto it = by_id.find(order_json[i].AsInt());
    if (it == by_id.end()) {
      return DataLossError(StrFormat("offer_order names flex-offer %lld absent from every "
                                     "shard snapshot and migration record",
                                     static_cast<long long>(order_json[i].AsInt())));
    }
    coordinator.offers_.push_back(it->second);
  }
  if (coordinator.offers_.size() != by_id.size()) {
    return DataLossError("shard snapshots hold offers missing from offer_order");
  }
  coordinator.IndexOffers();

  // The manifest's overrides cover migrations whose records compaction
  // folded away. Replay below never consults the router (every splice takes
  // its subsets from shard members), so re-assigning the prosumers whose
  // records replay is harmless. The epoch starts at base_epoch — migrations
  // at or below it are baked into (some) snapshots and may have no journal
  // records left to replay.
  for (const auto& [prosumer, shard] : manifest_overrides) {
    FLEXVIS_RETURN_IF_ERROR(coordinator.router_.Assign(prosumer, shard));
  }
  coordinator.epoch_ = base_epoch;
  coordinator.base_epoch_ = base_epoch;

  // Rebuild each shard from its snapshot subset, then fast-forward through
  // the folded state.json of a compacted generation (no decision logic
  // re-runs).
  for (int s = 0; s < n; ++s) {
    const size_t si = static_cast<size_t>(s);
    FLEXVIS_RETURN_IF_ERROR(
        coordinator.AddShard(s, shard_params[si], shard_offers[si], &coordinator.shards_));
    Shard& shard = *coordinator.shards_.back();
    auto folded = shard_recovery[si].files.find(kCheckpointStateFile);
    if (folded != shard_recovery[si].files.end()) {
      Result<OnlineTickRecord> fold = DecodeTickRecord(folded->second);
      if (!fold.ok()) return fold.status();
      if (!fold->folded) {
        return DataLossError(
            StrFormat("shard %d state.json is not a folded tick record", s));
      }
      FLEXVIS_RETURN_IF_ERROR(shard.enterprise.Apply(shard.state, *fold));
      if (info != nullptr) info->shards[si].ticks_folded = fold->tick + 1;
      shard.history = *std::move(fold);
    }
    shard.store = std::move(shard_stores[si]);
    shard.offers_committed = true;
  }
  coordinator.begun_ = true;
  coordinator.checkpointed_ = true;

  // Lockstep replay. Shards recovered to different generations start at
  // different ticks, so migration records do not surface in the same round;
  // a shard that has surfaced a migration record STALLS (applies no further
  // ticks) until the record resolves, by the live migration's own splice:
  //   - paired with its counterpart from the other shard's queue -> splice
  //     both shards;
  //   - counterpart compacted away (epoch at or below base_epoch) -> the
  //     other shard's snapshot already carries the migration; splice only
  //     the surfacing shard;
  //   - lone migrate_out above base_epoch whose target queue is exhausted ->
  //     the crash hit between the two flushes; journal the synthesized
  //     migrate_in and splice both shards.
  // A record that no longer verifies against the replayed state means the
  // journals and snapshots disagree.
  auto replay = [&coordinator](const MigrationRecord& record, SpliceSides sides,
                               const std::function<Status()>& make_durable) -> Status {
    Status status = coordinator.Splice(record.prosumer, record.from, record.to, record.epoch,
                                       record.moved, sides, make_durable);
    if (status.code() == StatusCode::kFailedPrecondition) {
      return DataLossError(status.message());
    }
    return status;
  };
  // Per-tick load samples reconstructed during replay. Ticks at or below the
  // manifest's controller state were already observed live; everything after
  // is fed to the controller once replay settles, so its trend state crosses
  // the crash byte-identically.
  std::map<int64_t, std::vector<std::optional<ShardLoadSample>>> samples;
  struct PendingMigration {
    int shard = 0;  // the shard whose journal surfaced the record
    MigrationRecord record;
  };
  std::vector<PendingMigration> pending_in;
  std::vector<PendingMigration> pending_out;
  std::vector<bool> missed_compaction(static_cast<size_t>(n), false);
  for (;;) {
    bool progressed = false;

    for (int s = 0; s < n; ++s) {
      std::deque<ReplayedRecord>& queue = queues[static_cast<size_t>(s)];
      while (!queue.empty() && std::holds_alternative<MigrationRecord>(queue.front())) {
        MigrationRecord record = std::get<MigrationRecord>(std::move(queue.front()));
        queue.pop_front();
        progressed = true;
        if (record.from < 0 || record.from >= n || record.to < 0 || record.to >= n ||
            record.from == record.to) {
          return DataLossError(StrFormat(
              "migration record moves prosumer %lld from shard %d to shard %d of %d",
              static_cast<long long>(record.prosumer), record.from, record.to, n));
        }
        if (coordinator.PositionsOf(record.prosumer).empty()) {
          return DataLossError(
              StrFormat("migration record names prosumer %lld, which owns no offer",
                        static_cast<long long>(record.prosumer)));
        }
        if (record.is_in) {
          if (record.to != s) {
            return DataLossError("migrate_in found in a journal it does not name as target");
          }
          pending_in.push_back({s, std::move(record)});
        } else {
          if (record.from != s) {
            return DataLossError(
                "migrate_out found in a journal it does not name as source");
          }
          pending_out.push_back({s, std::move(record)});
        }
      }
    }

    // Commit migrations in epoch order as their records pair up.
    std::sort(pending_in.begin(), pending_in.end(), [](const auto& a, const auto& b) {
      return a.record.epoch < b.record.epoch;
    });
    for (auto it = pending_in.begin(); it != pending_in.end();) {
      const MigrationRecord& record = it->record;
      auto match = std::find_if(pending_out.begin(), pending_out.end(),
                                [&](const PendingMigration& out) {
                                  return out.record.prosumer == record.prosumer &&
                                         out.record.epoch == record.epoch &&
                                         out.record.from == record.from &&
                                         out.record.to == record.to;
                                });
      if (match != pending_out.end()) {
        pending_out.erase(match);
        FLEXVIS_RETURN_IF_ERROR(replay(record, SpliceSides::kBoth, nullptr));
      } else if (!inventory[record.epoch].has_out) {
        // The migrate_out was compacted away with the source's old WAL
        // (epoch <= base_epoch, verified above): the source snapshot already
        // excludes the prosumer.
        FLEXVIS_RETURN_IF_ERROR(replay(record, SpliceSides::kTargetOnly, nullptr));
      } else {
        ++it;  // the out exists in some queue; keep draining until it surfaces
        continue;
      }
      if (info != nullptr) ++info->migrations_replayed;
      it = pending_in.erase(it);
      progressed = true;
    }
    for (auto it = pending_out.begin(); it != pending_out.end();) {
      const MigrationRecord& record = it->record;
      if (inventory[record.epoch].has_in) {
        ++it;  // the in exists in some queue; it will pair above
        continue;
      }
      if (record.epoch <= base_epoch) {
        // The migrate_in was compacted away with the target's old WAL: the
        // target snapshot already includes the prosumer.
        FLEXVIS_RETURN_IF_ERROR(replay(record, SpliceSides::kSourceOnly, nullptr));
        if (info != nullptr) ++info->migrations_replayed;
      } else if (queues[static_cast<size_t>(record.to)].empty()) {
        // Lone migrate_out above base_epoch: the crash hit between the two
        // flushes. Re-journal the migrate_in as the splice's durable step.
        MigrationRecord in = record;
        in.is_in = true;
        in.offers = coordinator.OffersOf(in.prosumer);
        DurableStore& target = coordinator.shards_[static_cast<size_t>(in.to)]->store;
        FLEXVIS_RETURN_IF_ERROR(replay(in, SpliceSides::kBoth, [&]() -> Status {
          FLEXVIS_RETURN_IF_ERROR(target.Append(EncodeMigrationRecord(in)));
          return target.Flush();
        }));
        if (info != nullptr) ++info->migrations_repaired;
      } else {
        ++it;  // target still replaying its pre-boundary ticks
        continue;
      }
      it = pending_out.erase(it);
      progressed = true;
    }

    for (int s = 0; s < n; ++s) {
      std::deque<ReplayedRecord>& queue = queues[static_cast<size_t>(s)];
      if (queue.empty() || std::holds_alternative<MigrationRecord>(queue.front())) continue;
      const auto stalled = [s](const PendingMigration& p) { return p.shard == s; };
      if (std::any_of(pending_in.begin(), pending_in.end(), stalled) ||
          std::any_of(pending_out.begin(), pending_out.end(), stalled)) {
        continue;  // this shard's next records postdate its unresolved migration
      }
      Shard& shard = *coordinator.shards_[static_cast<size_t>(s)];
      OnlineTickRecord record = std::get<OnlineTickRecord>(std::move(queue.front()));
      queue.pop_front();
      FLEXVIS_RETURN_IF_ERROR(shard.enterprise.Apply(shard.state, record));
      if (coordinator.controller_ != nullptr) {
        std::vector<std::optional<ShardLoadSample>>& row = samples[record.tick];
        row.resize(static_cast<size_t>(n));
        row[static_cast<size_t>(s)] = LoadSampleOf(shard.state);
      }
      // A boundary tick surviving in the WAL means this shard's fold at that
      // boundary never committed — remembered for the catch-up compaction.
      if (CompactsAfter(coordinator.params_.online.compact_ticks, record.tick)) {
        missed_compaction[static_cast<size_t>(s)] = true;
      }
      FoldTickRecordInto(&shard.history, std::move(record));
      if (info != nullptr) ++info->shards[static_cast<size_t>(s)].ticks_replayed;
      progressed = true;
    }
    if (!progressed) break;
  }
  if (!pending_in.empty() || !pending_out.empty()) {
    return DataLossError("unresolved migration records after journal replay");
  }

  // The journals are authoritative for the assignment epoch; a manifest that
  // lags them (crash between a migration's flushes and its manifest rewrite)
  // is refreshed before the run continues.
  if (coordinator.epoch_ != *manifest_epoch ||
      coordinator.router_.overrides() != manifest_overrides) {
    FLEXVIS_RETURN_IF_ERROR(coordinator.WriteCoordinatorManifest());
    if (info != nullptr) info->manifest_rewritten = true;
  }

  // Re-feed the controller the replayed ticks (its manifest state stops at
  // the last manifest write), then reconcile the plan WAL: a plan record
  // without its done marker means the crash hit mid-plan — its remaining
  // steps complete now. A decision the controller re-derives for the final
  // replayed tick that never even reached the WAL is re-planned whole. Both
  // paths are deterministic re-runs of what the live process was doing.
  const int topology_before_reconcile = coordinator.topology_;
  std::optional<RebalanceDecision> pending_decision;
  if (coordinator.controller_ != nullptr) {
    int64_t min_last = -1;
    for (const std::unique_ptr<Shard>& shard : coordinator.shards_) {
      const int64_t last = static_cast<int64_t>(shard->state.next_tick) - 1;
      if (min_last < 0 || last < min_last) min_last = last;
    }
    for (int64_t t = coordinator.controller_->last_observed_tick() + 1; t <= min_last;
         ++t) {
      auto row = samples.find(t);
      if (row == samples.end() || row->second.size() != static_cast<size_t>(n)) {
        return DataLossError(StrFormat(
            "no replayed load samples for observed tick %lld", static_cast<long long>(t)));
      }
      std::vector<ShardLoadSample> tick_samples;
      tick_samples.reserve(row->second.size());
      for (const std::optional<ShardLoadSample>& sample : row->second) {
        if (!sample.has_value()) {
          return DataLossError(
              StrFormat("a shard is missing its load sample for observed tick %lld",
                        static_cast<long long>(t)));
        }
        tick_samples.push_back(*sample);
      }
      std::optional<RebalanceDecision> decision =
          coordinator.controller_->Observe(t, tick_samples);
      if (decision.has_value() && t == min_last) pending_decision = decision;
    }
  }
  std::vector<RebalancePlan> wal_plans;
  std::set<int64_t> done_ids;
  for (const std::string& payload : coord_recovery.records) {
    Result<JsonValue> json = JsonValue::Parse(payload);
    if (!json.ok() || !json->is_object()) {
      return DataLossError("coordinator WAL record is not a JSON object");
    }
    Result<std::string> kind = json->GetString("kind");
    if (!kind.ok()) return DataLossError("coordinator WAL record lacks a kind");
    if (*kind == "plan") {
      Result<RebalancePlan> plan = DecodeRebalancePlan(*json);
      if (!plan.ok()) return plan.status();
      // A plan was journaled under the manifest's fleet (a resize truncates
      // the WAL): refused like a migration record naming a shard it lacks.
      for (const RebalanceMove& move : plan->moves) {
        if (move.from < 0 || move.from >= n || move.to < 0 || move.to >= n ||
            move.from == move.to) {
          return DataLossError(StrFormat(
              "rebalance plan %lld moves prosumer %lld from shard %d to shard %d of %d",
              static_cast<long long>(plan->id), static_cast<long long>(move.prosumer),
              move.from, move.to, n));
        }
      }
      if (plan->action != RebalancePlan::Action::kMove &&
          (plan->new_num_shards < 1 || plan->new_num_shards > kMaxShards)) {
        return DataLossError(StrFormat("rebalance plan %lld resizes to %d shards, outside [1, %d]",
                                       static_cast<long long>(plan->id),
                                       plan->new_num_shards, kMaxShards));
      }
      wal_plans.push_back(*std::move(plan));
    } else if (*kind == "plan_done") {
      Result<int64_t> id = json->GetInt("id");
      if (!id.ok()) return DataLossError("plan_done record lacks an id");
      done_ids.insert(*id);
    } else {
      return DataLossError(
          StrFormat("coordinator WAL record of unknown kind '%s'", kind->c_str()));
    }
  }
  for (const RebalancePlan& plan : wal_plans) {
    if (done_ids.count(plan.id) != 0) continue;
    FLEXVIS_RETURN_IF_ERROR(coordinator.ExecutePlan(plan, /*already_journaled=*/true));
    if (info != nullptr) ++info->plans_completed;
    if (pending_decision.has_value() && pending_decision->plan_id == plan.id) {
      pending_decision.reset();
    }
  }
  if (pending_decision.has_value() && done_ids.count(pending_decision->plan_id) != 0) {
    // The plan ran to completion live (done marker present); nothing to redo.
    pending_decision.reset();
  }
  if (pending_decision.has_value()) {
    RebalancePlan plan = coordinator.BuildPlan(*pending_decision);
    // An empty kMove plan was never journaled live either; both sides agree
    // by re-deriving it from the same replayed history.
    if (plan.action != RebalancePlan::Action::kMove || !plan.moves.empty()) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.ExecutePlan(plan, /*already_journaled=*/false));
      if (info != nullptr) ++info->plans_reexecuted;
    }
  }

  // A global compaction the crash interrupted: every shard applied through
  // the boundary tick yet some shard's WAL still holds the boundary record —
  // an uninterrupted CompactShards folds it away before the next global tick
  // starts. Re-run the compaction for exactly those shards so the directory
  // converges to the uninterrupted layout and replay stays bounded by the
  // interval on the next recovery. When the crash hit mid-way through the
  // boundary tick's own journaling instead (some shard never got the
  // record), min_next sits below the boundary and the continuation re-runs
  // the global tick and its compaction itself.
  if (coordinator.topology_ == topology_before_reconcile &&
      std::find(missed_compaction.begin(), missed_compaction.end(), true) !=
          missed_compaction.end()) {
    int64_t min_next = -1;
    for (const std::unique_ptr<Shard>& shard : coordinator.shards_) {
      if (min_next < 0 || shard->state.next_tick < min_next) {
        min_next = shard->state.next_tick;
      }
    }
    if (min_next > 0 && CompactsAfter(coordinator.params_.online.compact_ticks, min_next - 1)) {
      FLEXVIS_RETURN_IF_ERROR(coordinator.CompactShards(&missed_compaction));
    }
  }

  // Live ticks are counted per shard of the fleet the continuation ends with.
  // A resize on the way (reconcile-time ones happened above) re-homes every
  // shard, so they are then counted from the fleet's common resume point.
  const int topology_before_continue = coordinator.topology_;
  std::vector<int> replayed_ticks;
  for (const std::unique_ptr<Shard>& shard : coordinator.shards_) {
    replayed_ticks.push_back(shard->state.report.ticks);
  }
  const int resumed_at = *std::min_element(replayed_ticks.begin(), replayed_ticks.end());
  while (!coordinator.Done()) FLEXVIS_RETURN_IF_ERROR(coordinator.Tick());
  if (info != nullptr) {
    const size_t final_shards = coordinator.shards_.size();
    if (info->shards.size() < final_shards) info->shards.resize(final_shards);
    for (size_t s = 0; s < final_shards; ++s) {
      const int from = coordinator.topology_ == topology_before_continue ? replayed_ticks[s]
                                                                         : resumed_at;
      info->shards[s].ticks_continued = coordinator.shards_[s]->state.report.ticks - from;
    }
  }
  return coordinator.Finish();
}

// ---- Offline sharded planning -----------------------------------------------

Result<MergedPlanningReport> PlanHorizonSharded(const EnterpriseParams& params,
                                                int num_shards, ShardPolicy policy,
                                                const std::vector<FlexOffer>& offers,
                                                const TimeInterval& window,
                                                bool scale_energy_per_shard,
                                                uint64_t fault_seed) {
  const int n = num_shards < 1 ? 1 : num_shards;
  ShardRouter router(n, policy);
  std::vector<std::vector<size_t>> partition = router.Partition(offers);

  std::vector<std::unique_ptr<FaultRegistry>> registries(static_cast<size_t>(n));
  std::vector<EnterpriseParams> shard_params(static_cast<size_t>(n), params);
  for (int s = 0; s < n; ++s) {
    registries[static_cast<size_t>(s)] = std::make_unique<FaultRegistry>();
    FLEXVIS_RETURN_IF_ERROR(
        InstallFaultsInto(*registries[static_cast<size_t>(s)], ShardSeed(fault_seed, s)));
    EnterpriseParams& sp = shard_params[static_cast<size_t>(s)];
    sp.energy = ShardEnergy(sp.energy, n, scale_energy_per_shard);
    sp.faults = registries[static_cast<size_t>(s)].get();
    sp.market.faults = registries[static_cast<size_t>(s)].get();
  }

  // Shard planning runs in parallel; each shard touches only its own params,
  // registry, and report slot. Nested parallel sections inside PlanHorizon
  // degrade to serial inline execution (util/parallel), so this composes.
  std::vector<Status> statuses(static_cast<size_t>(n), OkStatus());
  std::vector<PlanningReport> reports(static_cast<size_t>(n));
  ParallelFor(0, static_cast<size_t>(n), 1, [&](size_t begin, size_t end) {
    for (size_t s = begin; s < end; ++s) {
      std::vector<FlexOffer> subset;
      subset.reserve(partition[s].size());
      for (size_t idx : partition[s]) subset.push_back(offers[idx]);
      Enterprise enterprise(shard_params[s]);
      Result<PlanningReport> report = enterprise.PlanHorizon(subset, window);
      if (report.ok()) {
        reports[s] = *std::move(report);
      } else {
        statuses[s] = report.status();
      }
    }
  });
  for (const Status& status : statuses) FLEXVIS_RETURN_IF_ERROR(status);

  MergedPlanningReport merged;
  merged.num_shards = n;
  // Shard 0 seeds the global report (so a 1-shard merge is the unsharded
  // report verbatim); shards 1+ fold in. Prices stay shard 0's curve — a
  // merged price is not meaningful; per-shard curves live in shard_reports.
  merged.global = reports[0];
  for (int s = 1; s < n; ++s) {
    PlanningReport& r = reports[static_cast<size_t>(s)];
    AddAligned(&merged.global.res_production, r.res_production);
    AddAligned(&merged.global.inflexible_demand, r.inflexible_demand);
    AddAligned(&merged.global.planned_against_demand, r.planned_against_demand);
    AddAligned(&merged.global.target, r.target);
    AddAligned(&merged.global.planned_flexible_load, r.planned_flexible_load);
    AddAligned(&merged.global.realized_flexible_load, r.realized_flexible_load);
    AddAligned(&merged.global.deviation, r.deviation);
    merged.global.offers_in += r.offers_in;
    merged.global.aggregates_built += r.aggregates_built;
    merged.global.aggregates_assigned += r.aggregates_assigned;
    merged.global.aggregates_rejected += r.aggregates_rejected;
    merged.global.imbalance_before_kwh += r.imbalance_before_kwh;
    merged.global.imbalance_after_kwh += r.imbalance_after_kwh;
    for (FlexOffer& o : r.member_offers) merged.global.member_offers.push_back(o);
    for (FlexOffer& o : r.aggregate_offers) merged.global.aggregate_offers.push_back(o);
    for (const std::string& stage : r.degraded_stages) {
      merged.global.degraded_stages.push_back(stage);
    }
    AddAligned(&merged.global.settlement.traded_kwh, r.settlement.traded_kwh);
    merged.global.settlement.spot_cost_eur += r.settlement.spot_cost_eur;
    merged.global.settlement.imbalance_kwh += r.settlement.imbalance_kwh;
    merged.global.settlement.imbalance_cost_eur += r.settlement.imbalance_cost_eur;
    merged.global.settlement.total_cost_eur += r.settlement.total_cost_eur;
  }
  if (n > 1) {
    std::sort(merged.global.degraded_stages.begin(), merged.global.degraded_stages.end());
    merged.global.degraded_stages.erase(std::unique(merged.global.degraded_stages.begin(),
                                                    merged.global.degraded_stages.end()),
                                        merged.global.degraded_stages.end());
  }
  // Shard-invariant total: summed over the *input* offers in global order,
  // so the floating-point fold is bit-identical at every shard count.
  for (const FlexOffer& offer : offers) {
    merged.total_offered_kwh += offer.total_max_energy_kwh();
  }
  merged.shard_reports = std::move(reports);
  return merged;
}

}  // namespace flexvis::sim
