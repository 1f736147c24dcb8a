// The re-base oracle of the sharded coordinator. Every shard's live state
// must equal a fresh OnlineEnterprise::Begin over the shard's members, in
// global input order, followed by Apply of the shard's folded history: the
// re-base every migration once ran, kept here as the reference for the
// in-place splice. The shard suites install CheckShardsAgainstRebase as the
// coordinator's invariant check, so it runs after every Tick and every
// committed splice, including those a rebalance plan or ResumeSharded runs.

#ifndef FLEXVIS_TESTS_REBASE_ORACLE_H_
#define FLEXVIS_TESTS_REBASE_ORACLE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/messages.h"
#include "sim/coordinator.h"
#include "sim/online.h"
#include "util/status.h"
#include "util/strings.h"

namespace flexvis::rebase_oracle {

/// Checks run so far in this process; suites assert it grows, so a check
/// that was never installed cannot pass silently.
inline int64_t& ChecksRun() {
  static int64_t checks = 0;
  return checks;
}

inline bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The first field in which `live` differs from `ref`, or "" when none:
/// doubles compare bitwise (residual, schedules), everything else exactly.
inline std::string FirstDifference(const sim::OnlineLoopState& live,
                                   const sim::OnlineLoopState& ref) {
  const sim::OnlineReport& a = live.report;
  const sim::OnlineReport& b = ref.report;
  if (a.offers.size() != b.offers.size()) return "offer count";
  for (size_t i = 0; i < a.offers.size(); ++i) {
    const core::FlexOffer& x = a.offers[i];
    const core::FlexOffer& y = b.offers[i];
    if (core::EncodeFlexOffer(x) != core::EncodeFlexOffer(y) || x.state != y.state ||
        x.schedule.has_value() != y.schedule.has_value() ||
        (x.schedule.has_value() &&
         (x.schedule->start != y.schedule->start ||
          !SameBits(x.schedule->energy_kwh, y.schedule->energy_kwh)))) {
      return StrFormat("offer %zu (id %lld)", i, static_cast<long long>(x.id));
    }
  }
  if (a.offers_received != b.offers_received || a.accepted != b.accepted ||
      a.rejected != b.rejected || a.assigned != b.assigned ||
      a.missed_acceptance != b.missed_acceptance ||
      a.missed_assignment != b.missed_assignment || a.dropped_ingest != b.dropped_ingest ||
      a.failed_sends != b.failed_sends || a.shed_offers != b.shed_offers) {
    return "counters";
  }
  if (a.queue_high_watermark != b.queue_high_watermark) return "queue_high_watermark";
  if (std::memcmp(&a.imbalance_kwh, &b.imbalance_kwh, sizeof(double)) != 0) {
    return "imbalance_kwh";
  }
  if (a.outbox != b.outbox) return "outbox";
  if (a.ticks != b.ticks) return "ticks";
  if (live.residual.start() != ref.residual.start() ||
      !SameBits(live.residual.values(), ref.residual.values())) {
    return "residual";
  }
  if (live.window.start != ref.window.start || live.window.end != ref.window.end) {
    return "window";
  }
  if (live.arrival != ref.arrival) return "arrival";
  if (live.pending_acceptance != ref.pending_acceptance) return "pending_acceptance";
  if (live.pending_assignment != ref.pending_assignment) return "pending_assignment";
  if (live.next_arrival != ref.next_arrival) return "next_arrival";
  if (live.next_tick != ref.next_tick) return "next_tick";
  if (live.index_of != ref.index_of) return "index_of";
  return "";
}

/// The oracle: Internal, naming the shard and the field, when a live state
/// is not the re-base of its members and history.
inline Status CheckShardsAgainstRebase(const sim::Coordinator& coordinator) {
  ++ChecksRun();
  for (int s = 0; s < coordinator.params().num_shards; ++s) {
    const sim::OnlineLoopState& live = coordinator.shard_state(s);
    std::vector<core::FlexOffer> members;
    for (const core::FlexOffer& offer : coordinator.offers()) {
      if (live.index_of.count(offer.id) != 0) members.push_back(offer);
    }
    const sim::OnlineEnterprise& enterprise = coordinator.shard_enterprise(s);
    Result<sim::OnlineLoopState> ref = enterprise.Begin(members, live.window);
    if (!ref.ok()) return ref.status();
    if (live.next_tick > 0) {
      FLEXVIS_RETURN_IF_ERROR(enterprise.Apply(*ref, coordinator.shard_history(s)));
    }
    const std::string field = FirstDifference(live, *ref);
    if (!field.empty()) {
      return InternalError(StrFormat("shard %d at tick %d: %s differs from the re-base of its "
                                     "members and history",
                                     s, live.next_tick, field.c_str()));
    }
  }
  return OkStatus();
}

/// Installs the oracle for the lifetime of the object.
class ScopedRebaseOracle {
 public:
  ScopedRebaseOracle() { sim::Coordinator::SetInvariantCheckForTesting(&CheckShardsAgainstRebase); }
  ~ScopedRebaseOracle() { sim::Coordinator::SetInvariantCheckForTesting(nullptr); }
  ScopedRebaseOracle(const ScopedRebaseOracle&) = delete;
  ScopedRebaseOracle& operator=(const ScopedRebaseOracle&) = delete;
};

}  // namespace flexvis::rebase_oracle

#endif  // FLEXVIS_TESTS_REBASE_ORACLE_H_
