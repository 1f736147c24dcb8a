#ifndef FLEXVIS_SIM_COORDINATOR_H_
#define FLEXVIS_SIM_COORDINATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/enterprise.h"
#include "sim/online.h"
#include "sim/rebalance.h"
#include "sim/shard.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/store.h"

namespace flexvis::sim {

/// Multi-enterprise sharding: the prosumer population is partitioned across
/// N Enterprise instances (shards) by a ShardRouter, and a Coordinator
/// drives all shards in lockstep — one global planning tick advances every
/// shard one tick — then merges the per-shard reports into a global view
/// with deterministic ordering. Each shard owns its own FaultRegistry,
/// OnlineLoopState, checkpoint directory, and write-ahead journal; nothing
/// process-wide sits on the tick path, so shard tick *computation* runs in
/// parallel (util/parallel pool) while all journal and snapshot I/O happens
/// serially in shard order (the process-wide util.journal.* / util.fileio.*
/// crash points therefore fire at deterministic positions, which the
/// coordinator kill-matrix test relies on).
///
/// A 1-shard run is byte-identical to the unsharded OnlineEnterprise::Run:
/// the hash partition routes everything to shard 0 in input order, energy
/// scaling divides by 1.0 (exact), and the merge maps shard-local offers
/// back through the identity permutation. That makes the coordinator the one
/// checkpointed online loop: a single enterprise checkpoints, resumes and
/// compacts as a 1-shard RunShardedCheckpointed / ResumeSharded.

/// Layout of a sharded checkpoint directory:
///
///   COORDINATOR.json      the coordinator's util/store manifest (a zero-file
///                         generation whose `meta` carries num_shards, policy,
///                         epoch, base_epoch, migration overrides, and the
///                         global offer order) — written atomically, last at
///                         Begin (the run's commit point), again after each
///                         MigrateProsumer call and once after each rebalance
///                         plan's moves, and at every compaction
///   shard-0000/           one sim/checkpoint store per shard (meta.json,
///   shard-0001/ ...       offers.jsonl, state.json for compacted
///                         generations, SNAPSHOT.json, journal.wal)
///
/// Compaction (OnlineParams::compact_ticks = C > 0) runs at every global tick
/// boundary divisible by C: the coordinator first advances `base_epoch` to
/// the current epoch in COORDINATOR.json, then folds every shard's journal
/// into a new store generation whose offers.jsonl holds the shard's
/// *current* members (committed migrations baked in). A recovery that finds
/// a migration record at or below base_epoch whose counterpart record was
/// compacted away therefore knows the counterpart shard's snapshot already
/// reflects that migration.
inline constexpr const char* kCoordinatorManifestFile = "COORDINATOR.json";
inline constexpr const char* kShardDirPrefix = "shard-";

/// Name of the shard-count environment knob benches and the CLI honour.
inline constexpr const char* kShardsEnvVar = "FLEXVIS_SHARDS";

/// getenv(FLEXVIS_SHARDS) clamped to [1, 64]; `fallback` when unset/invalid.
int ShardsFromEnv(int fallback = 1);

struct CoordinatorParams {
  /// Clamped to [1, kMaxShards] by the Coordinator.
  int num_shards = 1;
  ShardPolicy policy = ShardPolicy::kHash;
  /// Per-shard loop parameters. `online.faults` is ignored: every shard gets
  /// its own registry, seeded from `fault_seed` and armed from
  /// FLEXVIS_FAULTS (a no-op when the variable is unset).
  OnlineParams online;
  /// Divide the energy-model means (wind/solar/demand) by num_shards so each
  /// shard balances its share of the market zone and shard-summed totals
  /// stay comparable to a single-enterprise run. Division by 1.0 is exact,
  /// preserving 1-shard byte-identity.
  bool scale_energy_per_shard = true;
  /// Base seed for the per-shard fault registries (shard s is seeded with a
  /// shard-distinct mix of this).
  uint64_t fault_seed = 2013;
  /// When set, a RebalanceController watches every tick's per-shard load and
  /// autonomously issues journaled RebalancePlans (prosumer moves, and —
  /// when `allow_resize` — shard split/merge). Unset: no controller, the
  /// PR-4 behaviour.
  std::optional<RebalanceParams> rebalance;
};

/// What MigrateProsumer may move. Both modes run the same splice; kIdleOnly
/// only adds a precondition: the prosumer must have no ingested offers
/// (FailedPrecondition naming every ingested offer otherwise). kAllowActive
/// also moves a prosumer with mid-flight state.
enum class MigrationMode {
  kIdleOnly = 0,
  kAllowActive,
};

/// A prosumer's mid-flight state, what a migration moves between shards on
/// top of the offers themselves: journaled inside the migrate_out/migrate_in
/// records and grafted onto the target's collapsed state. Empty for an idle
/// prosumer.
struct MigratedState {
  /// Offers already past the source's arrival cursor, in source arrival
  /// order (ingested or dropped at the ingest seam).
  std::vector<core::FlexOfferId> consumed;
  /// Pending-queue membership, in queue order.
  std::vector<core::FlexOfferId> pending_acceptance;
  std::vector<core::FlexOfferId> pending_assignment;
  /// Decided states (non-kOffered) with committed schedules, in source
  /// subset order.
  std::vector<OnlineStateChange> states;

  /// An idle prosumer: nothing consumed (and therefore nothing pending or
  /// decided) — the only kind MigrationMode::kIdleOnly moves.
  bool idle() const { return consumed.empty(); }
};

/// The coordinator's merged view of one sharded run.
struct MergedOnlineReport {
  int num_shards = 1;
  /// Assignment epoch: number of committed prosumer migrations.
  int64_t epoch = 0;
  /// Shard-layout generation: number of committed split/merge resizes (the
  /// suffix of the shard directories, 0 for the initial layout).
  int topology = 0;
  /// Global report: counters summed across shards (queue_high_watermark is
  /// the max), offers merged back into global input order, outbox
  /// concatenated in shard order.
  OnlineReport global;
  /// Per-shard reports, indexed by shard id (sim/alerts ScanOverload input).
  std::vector<OnlineReport> shard_reports;
  /// Σ total_max_energy_kwh over the input offers in global order — a
  /// shard-invariant total (bit-identical at any shard count).
  double total_offered_kwh = 0.0;
};

/// Observability of a sharded recovery.
struct ShardResumeInfo {
  std::vector<ResumeInfo> shards;
  /// Committed migrations reconstructed from the journals.
  int migrations_replayed = 0;
  /// migrate_out records whose migrate_in was lost to the crash; the resume
  /// completed them (synthesizing the migrate_in) before continuing.
  int migrations_repaired = 0;
  /// True when COORDINATOR.json lagged the journals (crash between a
  /// migration's journal flushes and its manifest rewrite) and was rewritten.
  bool manifest_rewritten = false;
  /// Rebalance plans whose journaled record had no completion marker: the
  /// resume finished their remaining steps (or re-committed the resize).
  int plans_completed = 0;
  /// Plans the controller re-decided from the replayed load history because
  /// the crash hit after the trigger but before the plan record was durable;
  /// the resume executed them from scratch.
  int plans_reexecuted = 0;
  /// Shard store directories of superseded topologies (or uncommitted resize
  /// staging) swept by the recovery.
  int stale_shard_dirs_swept = 0;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorParams params);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  const CoordinatorParams& params() const { return params_; }
  const ShardRouter& router() const { return router_; }
  int64_t epoch() const { return epoch_; }
  /// Number of committed split/merge resizes (0 for the initial layout).
  int topology() const { return topology_; }
  /// Rebalance plans executed by this coordinator instance (controller runs).
  int64_t plans_executed() const { return plans_executed_; }

  /// Per-shard fault registry (armed from FLEXVIS_FAULTS at Begin); valid
  /// after Begin. Tests arm individual shards through this.
  FaultRegistry& shard_faults(int shard);

  /// Partitions `offers` across the shards and builds every shard's loop
  /// state. In-memory mode: nothing touches disk.
  Status Begin(const std::vector<core::FlexOffer>& offers,
               const timeutil::TimeInterval& window);

  /// Begin with checkpointing under `directory` (created if needed; a
  /// previous run there is invalidated first): one snapshot sub-directory
  /// per shard, COORDINATOR.json written last as the commit point, and a
  /// per-shard journal flushed every tick.
  Status BeginCheckpointed(const std::vector<core::FlexOffer>& offers,
                           const timeutil::TimeInterval& window,
                           const std::string& directory);

  /// True when every shard has executed all ticks of the window.
  bool Done() const;

  /// Advances the run one global tick: every shard at the minimum tick index
  /// computes its tick in parallel (per-shard state and registries only),
  /// then the records are journaled serially in shard order.
  Status Tick();

  /// Moves `prosumer` to `to_shard` by splicing the live shard states: the
  /// prosumer's offers and footprint leave the source's state, and enter the
  /// target's with its MigratedState (empty when idle). Both spliced states
  /// are computed and verified before anything becomes durable
  /// (FailedPrecondition when inter-shard ingest backlog skew would reorder
  /// either shard's consumed history, or when an active prosumer's shards
  /// are not at a common tick). Then a migrate_out record goes to the source
  /// journal and a migrate_in record carrying the offer payload to the
  /// target's, and the new assignment epoch is committed to COORDINATOR.json
  /// when checkpointed. Under kIdleOnly the prosumer must be idle
  /// (FailedPrecondition naming *every* already-ingested offer id
  /// otherwise). NotFound when the prosumer owns no offers; InvalidArgument
  /// when already on `to_shard`.
  Status MigrateProsumer(core::ProsumerId prosumer, int to_shard,
                         MigrationMode mode = MigrationMode::kIdleOnly);

  /// Changes the fleet to `new_num_shards` at the current tick boundary
  /// (FailedPrecondition when the shards are not in lockstep or ingest
  /// backlog skew makes the consumed-history splice ambiguous). The global
  /// live state is re-partitioned under a fresh router (overrides cleared),
  /// cumulative counters and the outbox are re-homed to new shard 0, and —
  /// when checkpointed — a new topology of shard stores
  /// (`shard-NNNN.t<topology>/`) is staged and committed atomically by the
  /// COORDINATOR.json rewrite, after which the old topology's directories
  /// are destroyed (a crash in between leaves debris the next resume
  /// sweeps). InvalidArgument when the count is unchanged or out of
  /// [1, kMaxShards].
  Status Resize(int new_num_shards);

  /// Finalizes every shard and merges. Call once, after Done().
  Result<MergedOnlineReport> Finish();

  // ---- One-shot drivers ----------------------------------------------------

  static Result<MergedOnlineReport> RunSharded(const CoordinatorParams& params,
                                               const std::vector<core::FlexOffer>& offers,
                                               const timeutil::TimeInterval& window);

  static Result<MergedOnlineReport> RunShardedCheckpointed(
      const CoordinatorParams& params, const std::vector<core::FlexOffer>& offers,
      const timeutil::TimeInterval& window, const std::string& directory);

  /// Recovers a sharded run from `directory`: reads COORDINATOR.json
  /// (kDataLoss when absent — the run never committed; rerun from inputs),
  /// loads every shard snapshot, replays every shard journal in lockstep —
  /// re-running each committed migration's splice in order, repairing a
  /// migration whose migrate_in was lost to the crash, truncating torn tails
  /// (kDataLoss for a migration record naming a shard outside the fleet, the
  /// same shard twice, or a prosumer without offers) — then resumes all
  /// shards to a consistent epoch, continues the remaining ticks, and
  /// returns the merged report, byte-identical to an uninterrupted run.
  static Result<MergedOnlineReport> ResumeSharded(const std::string& directory,
                                                  ShardResumeInfo* info = nullptr);

  // ---- Invariant checks ------------------------------------------------------

  /// A check of a coordinator's live state; a non-OK status names the fault.
  using InvariantCheck = Status (*)(const Coordinator& coordinator);
  /// Test seam: while set, every Coordinator in the process runs `check`
  /// after each Tick and each committed migration splice (live, inside a
  /// rebalance plan, or replayed by ResumeSharded) and fails that call with
  /// its status. nullptr (the default) runs nothing.
  static void SetInvariantCheckForTesting(InvariantCheck check);

  /// Read-only views for invariant checks: the run's offers in global input
  /// order, and one shard's enterprise, live state, and the folded history
  /// that reproduces that state from Begin over the shard's members.
  const std::vector<core::FlexOffer>& offers() const { return offers_; }
  const OnlineEnterprise& shard_enterprise(int shard) const;
  const OnlineLoopState& shard_state(int shard) const;
  const OnlineTickRecord& shard_history(int shard) const;

 private:
  /// One shard's fault registry, enterprise, live loop state, the folded
  /// history that reproduces that state, and durable store.
  struct Shard;
  /// One shard's side of a migration splice, computed from its live state
  /// without touching it.
  struct SpliceSide;

  /// Appends shard `s` to `fleet`: its own fault registry (seeded from
  /// fault_seed, armed from FLEXVIS_FAULTS), an enterprise running `params`
  /// against that registry, and the fresh Begin state over `members`. The
  /// one way Begin, Resize and ResumeSharded build a shard.
  Status AddShard(int s, OnlineParams params, const std::vector<core::FlexOffer>& members,
                  std::vector<std::unique_ptr<Shard>>* fleet) const;

  std::string ShardDir(int shard) const;
  /// Shard directory name under a specific topology: plain `shard-NNNN` for
  /// topology 0, `shard-NNNN.t<T>` after T resizes.
  static std::string ShardDirName(int topology, int shard);
  /// The coordinator state persisted as the COORDINATOR.json store meta.
  JsonValue CoordinatorMeta() const;
  /// Recommits COORDINATOR.json (the coordinator store manifest) with the
  /// current epoch/base_epoch/overrides — the atomic commit point for every
  /// coordinator-level state change.
  Status WriteCoordinatorManifest();
  /// Folds every shard's journal into a new store generation (current
  /// members + folded tick record), advancing base_epoch first so recovery
  /// can tell baked migrations from lost ones. `include`, when non-null,
  /// restricts the fold to the flagged shards — the resume path's catch-up
  /// for a compaction the crash interrupted partway through the shard list.
  Status CompactShards(const std::vector<bool>* include = nullptr);

  // ---- Migration splice -----------------------------------------------------

  /// Builds by_prosumer_ over offers_; called wherever offers_ is set.
  void IndexOffers();
  /// `prosumer`'s run of by_prosumer_: the global input positions of its
  /// offers, ascending (empty when it owns none).
  std::span<const std::pair<core::ProsumerId, size_t>> PositionsOf(
      core::ProsumerId prosumer) const;
  /// Global input position of `offer`, one of the run's offers.
  size_t GlobalPosition(const core::FlexOffer& offer) const;
  /// `prosumer`'s offers, verbatim input copies in global input order.
  std::vector<core::FlexOffer> OffersOf(core::ProsumerId prosumer) const;
  /// Everything of `prosumer`'s mid-flight state on shard `s`, extracted
  /// from the live loop state.
  MigratedState ExtractMovedState(int s, core::ProsumerId prosumer) const;
  /// Which shards a splice re-bases: both for a live migration or a replayed
  /// record pair; one when compaction already baked the move into the other
  /// shard's snapshot.
  enum class SpliceSides { kBoth, kSourceOnly, kTargetOnly };
  /// The one migration path, live and replayed. Splices `prosumer`'s offers
  /// and footprint out of shard `from`'s live state, and its offers plus
  /// `moved` into shard `to`'s, each over the shard's current members
  /// (never the router's view). The result equals a fresh Begin over the
  /// new members followed by Apply of the new history: the shard's own
  /// history for an idle move, the collapsed Snapshot order otherwise, minus
  /// the prosumer's entries and plus `moved`; a shard that has ticked
  /// refolds its residual from its Begin target in that order. Both sides
  /// are computed and verified before `make_durable` (when set) runs and
  /// before either live state changes; then `prosumer` is assigned to `to`
  /// and the epoch advances to at least `epoch`.
  Status Splice(core::ProsumerId prosumer, int from, int to, int64_t epoch,
                const MigratedState& moved, SpliceSides sides,
                const std::function<Status()>& make_durable = nullptr);
  /// Computes `side`'s spliced state from its shard's live one; refuses as
  /// Splice documents. Touches no live state.
  Status PlanSpliceSide(core::ProsumerId prosumer, const MigratedState& moved,
                        SpliceSide* side) const;
  /// Moves a planned side into its shard's live state; cannot fail.
  static void CommitSpliceSide(SpliceSide* side);
  /// MigrateProsumer without the COORDINATOR.json commit: checks, journals
  /// and splices one move. ExecutePlan commits the manifest once per plan.
  Status MoveProsumer(core::ProsumerId prosumer, int to_shard, MigrationMode mode);
  /// Runs the installed invariant check, if any.
  Status CheckInvariants() const;

  // ---- Rebalance controller wiring -----------------------------------------

  /// One tick's per-shard load samples from the live states (identical to
  /// what a replayed journal record reconstructs).
  std::vector<ShardLoadSample> CollectSamples() const;
  /// Turns a controller decision into a concrete plan (move-set picked from
  /// the hot shard's per-prosumer pending load).
  RebalancePlan BuildPlan(const RebalanceDecision& decision) const;
  /// Journals the plan record, executes it step by step (moves that fail
  /// their precondition are skipped), commits COORDINATOR.json once after
  /// the last committed move, journals the completion marker.
  Status ExecutePlan(const RebalancePlan& plan, bool already_journaled);
  /// Controller observation for the tick just completed; may trigger and
  /// execute a plan. Sets `*resized` when the plan changed the topology.
  Status ObserveAndRebalance(int64_t tick, bool* resized);

  CoordinatorParams params_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<core::FlexOffer> offers_;  // global input order
  /// (prosumer, global input position) of every offer, sorted: each
  /// prosumer's offers form one ascending run (IndexOffers).
  std::vector<std::pair<core::ProsumerId, size_t>> by_prosumer_;
  timeutil::TimeInterval window_;
  int64_t epoch_ = 0;
  /// Highest epoch whose migrations are baked into the shard snapshots (set
  /// when compaction commits COORDINATOR.json before folding the shards).
  int64_t base_epoch_ = 0;
  /// Number of committed split/merge resizes; names the shard directories.
  int topology_ = 0;
  /// The energy-model means before per-shard scaling, kept so a resize can
  /// re-derive exact per-shard params for the new fleet size (re-dividing
  /// already-scaled values would not be exact in floating point).
  EnergyModelParams base_energy_;
  /// Present iff params_.rebalance is set.
  std::unique_ptr<RebalanceController> controller_;
  int64_t plans_executed_ = 0;
  bool checkpointed_ = false;
  std::string directory_;
  /// The zero-file store behind COORDINATOR.json (checkpointed runs only).
  DurableStore coord_store_;
  bool begun_ = false;
};

/// Offline counterpart: PlanHorizon across N enterprise shards, each with
/// its own FaultRegistry and a 1/N-scaled energy model, run in parallel and
/// merged deterministically.
struct MergedPlanningReport {
  int num_shards = 1;
  /// Series and settlement scalars summed across shards; member_offers and
  /// aggregate_offers concatenated in shard order (identical to the
  /// unsharded report at N = 1); degraded_stages is the sorted union.
  PlanningReport global;
  std::vector<PlanningReport> shard_reports;
  /// Σ total_max_energy_kwh over the input offers in global order.
  double total_offered_kwh = 0.0;
};

Result<MergedPlanningReport> PlanHorizonSharded(const EnterpriseParams& params,
                                                int num_shards, ShardPolicy policy,
                                                const std::vector<core::FlexOffer>& offers,
                                                const timeutil::TimeInterval& window,
                                                bool scale_energy_per_shard = true,
                                                uint64_t fault_seed = 2013);

}  // namespace flexvis::sim

#endif  // FLEXVIS_SIM_COORDINATOR_H_
