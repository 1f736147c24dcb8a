#ifndef FLEXVIS_SIM_ONLINE_H_
#define FLEXVIS_SIM_ONLINE_H_

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/messages.h"
#include "core/scheduler.h"
#include "sim/energy_models.h"
#include "util/status.h"

namespace flexvis {
class FaultRegistry;
}

namespace flexvis::sim {

/// What to do with an arrival when the bounded ingest queue is full.
enum class ShedPolicy {
  /// Reject the arriving offer (the historical behaviour): cheapest, but a
  /// burst of low-value offers can crowd out a late high-value one.
  kRejectNewest = 0,
  /// Evict the *queued* offer with the lowest energy-flexibility value
  /// (FlexOffer::energy_flexibility_kwh, ties broken earliest-queued) when
  /// the arrival is worth more than it; otherwise reject the arrival. Under
  /// overload the queue keeps the most flexible offers — the ones the
  /// balancing objective values most.
  kRejectLeastValuable = 1,
};

/// Parameters of the online planning loop.
struct OnlineParams {
  /// Cadence of the planning tick. Each tick ingests newly created offers,
  /// answers every acceptance deadline falling before the next tick, and
  /// commits schedules for every assignment deadline falling before the
  /// next tick.
  int64_t tick_minutes = 60;
  core::SchedulerParams scheduler;
  EnergyModelParams energy;

  // ---- Overload protection (per-shard when run under the coordinator) -----

  /// Per-tick ingest work budget: at most this many arrivals are processed
  /// per tick; the surplus stays in the arrival backlog and is carried into
  /// the next tick, so a traffic spike stretches the backlog, never the
  /// tick. 0 = unlimited (the historical behaviour).
  int max_ingest_per_tick = 0;
  /// Bound on the pending-acceptance queue. An arrival that would overflow
  /// it is shed reject-newest: the enterprise answers it with an immediate
  /// rejection (counted in `shed_offers`) instead of queueing unbounded
  /// work. 0 = unbounded (the historical behaviour).
  int ingest_queue_capacity = 0;
  /// Which offer loses when the queue is full. Journaled in every tick
  /// record so a resumed run can prove it sheds under the same policy.
  ShedPolicy shed_policy = ShedPolicy::kRejectNewest;

  // ---- Checkpoint compaction (sim/checkpoint) -----------------------------

  /// Fold the write-ahead journals into a new-generation snapshot every this
  /// many global ticks, bounding both journal size and resume replay time.
  /// 0 = off (the journals grow for the whole run). Purely a durability
  /// cadence: it never changes a planning decision, so any value produces
  /// byte-identical reports. Read from $FLEXVIS_COMPACT_TICKS by
  /// CompactTicksFromEnv.
  int compact_ticks = 0;

  // ---- Strategy identity (sim/forecaster, sim/market) ---------------------

  /// Named strategies the run's *planning context* is pinned to: the
  /// ForecasterRegistry / BiddingRegistry names a scenario (sim/scenario)
  /// settles its horizon with. The online tick loop itself neither
  /// forecasts nor trades, but the names are serialized into checkpoint
  /// meta.json (and surfaced in COORDINATOR.json) so ResumeSharded replays
  /// under the exact strategies the run was cut with — a resume can never
  /// silently settle under a different strategy. Empty = the defaults
  /// (holt-winters / spot-residual). Validated against the registries at
  /// decode time: an unknown pinned name is a typed kInvalidArgument naming
  /// the registered options.
  std::string forecaster;
  std::string bidding;

  /// Fault registry the loop's sim.online.* seams consult; nullptr means
  /// FaultRegistry::Global() (the historical behaviour). The sharded
  /// coordinator points each shard at its own registry so fault draws are
  /// deterministic per shard regardless of shard-parallel execution order —
  /// no process-wide singleton sits on the tick path. Runtime wiring only:
  /// never serialized into checkpoint metadata.
  FaultRegistry* faults = nullptr;

  /// Publish-generation hook for the concurrent serving layer (src/serve):
  /// invoked at the end of every *live* Tick() with the post-tick loop
  /// state, so an ingest loop can publish a fresh warehouse generation to
  /// concurrent dashboard readers on whatever cadence the hook chooses.
  /// Never invoked during Apply() — journal replay reconstructs state, it
  /// does not serve traffic. Runtime wiring only: never serialized, and it
  /// must not mutate the state it observes (decisions stay byte-identical
  /// with and without a hook installed).
  std::function<void(const struct OnlineLoopState& state)> publish_hook;
};

/// Outcome of one online run.
struct OnlineReport {
  int offers_received = 0;
  int accepted = 0;
  int rejected = 0;
  int assigned = 0;
  /// Deadlines that passed before the loop could answer (late arrivals or a
  /// tick coarser than the deadline spacing). A healthy configuration keeps
  /// both at zero.
  int missed_acceptance = 0;
  int missed_assignment = 0;
  /// Offers lost at the sim.online.ingest seam after retries (lossy uplink):
  /// they stay kOffered, are never answered, and count here so operators see
  /// the loss. Zero unless faults are armed.
  int dropped_ingest = 0;
  /// Outbound messages that could not be delivered at sim.online.send after
  /// retries. A lost acceptance rejects the offer (the prosumer never got a
  /// confirmation to act on); a lost assignment leaves the offer accepted
  /// but uncommitted, so no capacity is booked against its schedule.
  int failed_sends = 0;
  /// Arrivals shed by the bounded ingest queue (reject-newest): answered
  /// with an immediate rejection because pending_acceptance was already at
  /// `ingest_queue_capacity`. Zero unless the capacity knob is set.
  int shed_offers = 0;
  /// Largest pending-acceptance queue depth observed across the run — the
  /// saturation signal operators watch next to `shed_offers`.
  int queue_high_watermark = 0;
  /// Σ|target - committed load| over the horizon after the run.
  double imbalance_kwh = 0.0;
  /// Offers with their final states and committed schedules.
  std::vector<core::FlexOffer> offers;
  /// Every acceptance/assignment message sent, in send order (the protocol
  /// stream a prosumer gateway would receive).
  std::vector<std::string> outbox;
  /// Number of planning ticks executed.
  int ticks = 0;
};

/// One offer's state transition within a tick — the unit the write-ahead
/// journal (sim/checkpoint) persists so a crashed run can be replayed
/// without re-running any decision logic or fault draw.
struct OnlineStateChange {
  core::FlexOfferId offer = core::kInvalidFlexOfferId;
  core::FlexOfferState state = core::FlexOfferState::kOffered;
  /// Present exactly when `state` is kAssigned: the committed schedule whose
  /// energy was booked against the residual.
  std::optional<core::Schedule> schedule;
};

/// Everything one tick changed, in a form that makes replay exact and
/// idempotent: state transitions and sent wires are per-tick deltas (applied
/// in order), while the counters, arrival cursor, and pending queues are
/// absolute post-tick values.
struct OnlineTickRecord {
  /// 0-based index of the tick this record describes.
  int tick = 0;
  /// True for a *folded* record — the cumulative merge of ticks 0..tick that
  /// checkpoint compaction stores as the new-generation snapshot state. A
  /// folded record applies only onto a fresh (tick-0) state and replays the
  /// concatenated deltas of every folded tick in their original order, which
  /// reproduces the live state byte for byte (assignment commits hit the
  /// residual in the same order with the same operands).
  bool folded = false;
  /// ShedPolicy the run sheds under, journaled for provenance so a resumed
  /// run can verify it continues with the policy the journal was cut under.
  int shed_policy = 0;
  std::vector<OnlineStateChange> changes;
  /// Wires appended to the outbox this tick, in send order.
  std::vector<std::string> sent;
  // Absolute counter values after the tick.
  int offers_received = 0;
  int accepted = 0;
  int rejected = 0;
  int assigned = 0;
  int missed_acceptance = 0;
  int missed_assignment = 0;
  int dropped_ingest = 0;
  int failed_sends = 0;
  int shed_offers = 0;
  int queue_high_watermark = 0;
  /// Arrival cursor after the tick (offers ingested or dropped so far).
  int64_t next_arrival = 0;
  /// Post-tick pending queues, as offer ids (stable across processes).
  std::vector<core::FlexOfferId> pending_acceptance;
  std::vector<core::FlexOfferId> pending_assignment;
};

/// Mid-run state of the online loop, exposed so the checkpoint layer can run
/// tick-at-a-time, journal each tick's decisions, and reconstruct a crashed
/// run by applying journaled records. Opaque to other callers; obtain one
/// from OnlineEnterprise::Begin.
struct OnlineLoopState {
  OnlineReport report;
  core::TimeSeries residual;  // shrinks as assignments commit
  timeutil::TimeInterval window;
  std::vector<size_t> arrival;  // indices into report.offers, by creation time
  std::vector<size_t> pending_acceptance;  // ingested, not yet answered
  std::vector<size_t> pending_assignment;  // accepted, not yet scheduled
  size_t next_arrival = 0;
  int next_tick = 0;  // index of the tick Tick() would execute next
  std::unordered_map<core::FlexOfferId, size_t> index_of;  // id -> offers index
};

/// Books a committed schedule's energy against `residual` (consumption
/// positive). The live tick, journal replay and the coordinator's migration
/// splice all commit through it, so every path agrees bit for bit on the
/// remaining target.
void CommitScheduleToResidual(core::Direction direction, const core::Schedule& schedule,
                              core::TimeSeries& residual);

/// The enterprise's *online* mode (Section 2: "performs a complex planning
/// activity in an online fashion"): offers arrive at their creation times;
/// the loop must send the acceptance message before each offer's acceptance
/// deadline and the assignment message (with the schedule) before its
/// assignment deadline, committing plan capacity incrementally — it can
/// never revisit a sent assignment, unlike the offline Enterprise which
/// plans a closed horizon at once.
class OnlineEnterprise {
 public:
  explicit OnlineEnterprise(OnlineParams params) : params_(params) {}
  OnlineEnterprise() : OnlineEnterprise(OnlineParams{}) {}

  const OnlineParams& params() const { return params_; }

  /// Simulates the loop over `window` (clock from window.start to
  /// window.end) with `offers` arriving at their creation times. Offers
  /// whose creation time precedes the window are ingested at the first tick.
  /// Equivalent to Begin + Tick-until-Done + Finish.
  Result<OnlineReport> Run(const std::vector<core::FlexOffer>& offers,
                           const timeutil::TimeInterval& window) const;

  // ---- Checkpoint surface (sim/checkpoint) --------------------------------
  //
  // The tick-at-a-time decomposition of Run. `Tick` executes the next
  // planning tick live (consulting the sim.online.* fault seams exactly as
  // Run does) and optionally records its decisions; `Apply` replays a
  // journaled record onto the state without any decision logic or fault
  // draw, so a resumed run reproduces the original byte for byte.

  /// Validates inputs and builds the initial loop state (offers reset to
  /// kOffered, arrival order computed, balancing target derived).
  Result<OnlineLoopState> Begin(const std::vector<core::FlexOffer>& offers,
                                const timeutil::TimeInterval& window) const;

  /// True when every tick of the window has executed (or been applied).
  bool Done(const OnlineLoopState& state) const;

  /// Executes the next tick. When `record` is non-null it receives the
  /// tick's decisions for journaling. Precondition: !Done(state).
  void Tick(OnlineLoopState& state, OnlineTickRecord* record) const;

  /// Applies a journaled tick record: state transitions, outbox wires,
  /// counters, queues, and committed capacity. Rejects records that are out
  /// of order or name unknown offers (kDataLoss — the journal does not match
  /// the snapshot).
  Status Apply(OnlineLoopState& state, const OnlineTickRecord& record) const;

  /// Collapses a mid-run state into one synthetic *folded* record covering
  /// ticks 0..next_tick-1: applying the result onto a fresh Begin() state of
  /// the same offer subset reproduces `state`, with the residual rebuilt
  /// canonically (assignment commits replayed in subset order rather than
  /// original decision order). The shard coordinator splices these folds to
  /// re-home live state across active-prosumer migrations and split/merge
  /// resizes. Precondition: next_tick > 0 (a fresh state has nothing to fold).
  OnlineTickRecord Snapshot(const OnlineLoopState& state) const;

  /// Finalizes the report (imbalance over the window).
  OnlineReport Finish(OnlineLoopState state) const;

 private:
  OnlineParams params_;
};

}  // namespace flexvis::sim

#endif  // FLEXVIS_SIM_ONLINE_H_
