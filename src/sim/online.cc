#include "sim/online.h"

#include <algorithm>
#include <numeric>

#include "core/measures.h"
#include "util/fault.h"
#include "util/retry.h"
#include "util/strings.h"

namespace flexvis::sim {

using core::AcceptanceMessage;
using core::AssignmentMessage;
using core::FlexOffer;
using core::TimeSeries;
using timeutil::kMinutesPerSlice;
using timeutil::TimeInterval;
using timeutil::TimePoint;

void CommitScheduleToResidual(core::Direction direction, const core::Schedule& schedule,
                              TimeSeries& residual) {
  const double sign = direction == core::Direction::kConsumption ? 1.0 : -1.0;
  for (size_t i = 0; i < schedule.energy_kwh.size(); ++i) {
    residual.AddAt(schedule.start + static_cast<int64_t>(i) * kMinutesPerSlice,
                   -sign * schedule.energy_kwh[i]);
  }
}

Result<OnlineLoopState> OnlineEnterprise::Begin(const std::vector<FlexOffer>& offers,
                                                const TimeInterval& window) const {
  if (window.empty()) return InvalidArgumentError("online window is empty");
  if (params_.tick_minutes <= 0) {
    return InvalidArgumentError("tick_minutes must be positive");
  }

  OnlineLoopState state;
  state.window = window;
  state.report.offers = offers;
  for (FlexOffer& o : state.report.offers) {
    o.state = core::FlexOfferState::kOffered;
    o.schedule.reset();
  }
  state.index_of.reserve(state.report.offers.size());
  for (size_t i = 0; i < state.report.offers.size(); ++i) {
    state.index_of[state.report.offers[i].id] = i;
  }

  // Arrival order.
  state.arrival.resize(state.report.offers.size());
  std::iota(state.arrival.begin(), state.arrival.end(), 0);
  std::stable_sort(state.arrival.begin(), state.arrival.end(), [&](size_t a, size_t b) {
    return state.report.offers[a].creation_time < state.report.offers[b].creation_time;
  });

  // The balancing target and the running committed load. Committed capacity
  // is never revised: once an assignment message is out, its energy stays.
  state.residual = MakeFlexibilityTarget(MakeResProduction(window, params_.energy),
                                         MakeInflexibleDemand(window, params_.energy));
  return state;
}

bool OnlineEnterprise::Done(const OnlineLoopState& state) const {
  return state.window.start + state.next_tick * params_.tick_minutes >= state.window.end;
}

void OnlineEnterprise::Tick(OnlineLoopState& state, OnlineTickRecord* record) const {
  OnlineReport& report = state.report;
  const TimePoint now = state.window.start + state.next_tick * params_.tick_minutes;
  const TimePoint next_tick = now + params_.tick_minutes;
  ++report.ticks;

  core::Scheduler scheduler(params_.scheduler);
  FaultRegistry& faults =
      params_.faults != nullptr ? *params_.faults : FaultRegistry::Global();

  auto note_change = [&](const FlexOffer& offer) {
    if (record == nullptr) return;
    OnlineStateChange change;
    change.offer = offer.id;
    change.state = offer.state;
    if (offer.state == core::FlexOfferState::kAssigned) change.schedule = offer.schedule;
    record->changes.push_back(std::move(change));
  };

  // Delivery to the prosumer gateway sits behind the sim.online.send seam.
  // Each send retries per policy; persistent failure is absorbed, never
  // propagated — the loop must keep its tick cadence whatever the link does.
  auto deliver = [&](std::string wire) -> bool {
    Status sent = RetryFaultPointIn(faults, "sim.online.send", DefaultRetryPolicy(),
                                    []() -> Status { return OkStatus(); });
    if (!sent.ok()) {
      ++report.failed_sends;
      return false;
    }
    // The encoder grows the wire by appends; the outbox keeps every wire for
    // the rest of the run, so it keeps them at their size.
    wire.shrink_to_fit();
    if (record != nullptr) record->sent.push_back(wire);
    report.outbox.push_back(std::move(wire));
    return true;
  };

  auto send_acceptance = [&](size_t idx, bool accepted) {
    FlexOffer& offer = report.offers[idx];
    AcceptanceMessage msg;
    msg.offer = offer.id;
    msg.accepted = accepted;
    msg.sent_at = std::min(now, offer.acceptance_deadline);
    // A lost acceptance degrades to rejection: without a confirmation the
    // prosumer must assume its offer lapsed, and the enterprise books no
    // capacity against it.
    if (!deliver(core::EncodeMessage(core::Message(msg)))) {
      offer.state = core::FlexOfferState::kRejected;
      ++report.rejected;
      ++report.missed_acceptance;
      note_change(offer);
      return;
    }
    if (accepted) {
      offer.state = core::FlexOfferState::kAccepted;
      ++report.accepted;
      state.pending_assignment.push_back(idx);
    } else {
      offer.state = core::FlexOfferState::kRejected;
      ++report.rejected;
    }
    note_change(offer);
  };

  // 1. Ingest offers created up to now. The uplink from the prosumer
  //    gateway is lossy (sim.online.ingest): an offer whose submission
  //    fails after retries is dropped — counted, left kOffered, never
  //    answered — and the loop moves on. Two overload valves bound the work
  //    a traffic spike can force into one tick: `max_ingest_per_tick`
  //    defers surplus arrivals to the next tick (the backlog stretches, the
  //    tick does not), and `ingest_queue_capacity` sheds reject-newest once
  //    the pending-acceptance queue is full (the shed offer is answered
  //    with a rejection so the prosumer is not left hanging).
  int ingested_this_tick = 0;
  while (state.next_arrival < state.arrival.size() &&
         report.offers[state.arrival[state.next_arrival]].creation_time <= now) {
    if (params_.max_ingest_per_tick > 0 &&
        ingested_this_tick >= params_.max_ingest_per_tick) {
      break;  // work budget exhausted; remaining arrivals carry over
    }
    size_t idx = state.arrival[state.next_arrival++];
    ++ingested_this_tick;
    Status ingested = RetryFaultPointIn(faults, "sim.online.ingest", DefaultRetryPolicy(),
                                        []() -> Status { return OkStatus(); });
    if (!ingested.ok()) {
      ++report.dropped_ingest;
      continue;
    }
    ++report.offers_received;
    if (report.offers[idx].acceptance_deadline < now) {
      // Arrived already expired (coarse tick): count as missed, reject.
      ++report.missed_acceptance;
      send_acceptance(idx, /*accepted=*/false);
    } else if (params_.ingest_queue_capacity > 0 &&
               state.pending_acceptance.size() >=
                   static_cast<size_t>(params_.ingest_queue_capacity)) {
      size_t victim = idx;  // reject-newest: the arrival itself
      if (params_.shed_policy == ShedPolicy::kRejectLeastValuable) {
        // Evict the queued offer with the lowest energy-flexibility value,
        // but only when the arrival is worth strictly more than it — ties
        // keep the queue (earliest-queued wins), so a flood of equal-value
        // offers cannot churn the queue.
        size_t least_pos = 0;
        double least_value =
            report.offers[state.pending_acceptance[0]].energy_flexibility_kwh();
        for (size_t p = 1; p < state.pending_acceptance.size(); ++p) {
          const double value =
              report.offers[state.pending_acceptance[p]].energy_flexibility_kwh();
          if (value < least_value) {
            least_value = value;
            least_pos = p;
          }
        }
        if (report.offers[idx].energy_flexibility_kwh() > least_value) {
          victim = state.pending_acceptance[least_pos];
          state.pending_acceptance.erase(state.pending_acceptance.begin() +
                                         static_cast<ptrdiff_t>(least_pos));
          state.pending_acceptance.push_back(idx);
        }
      }
      ++report.shed_offers;
      send_acceptance(victim, /*accepted=*/false);
    } else {
      state.pending_acceptance.push_back(idx);
      report.queue_high_watermark =
          std::max(report.queue_high_watermark,
                   static_cast<int>(state.pending_acceptance.size()));
    }
  }

  // 2. Answer every acceptance deadline falling before the next tick. The
  //    accept/reject call is a cheap screen: offers whose mandatory energy
  //    can never help (no surplus anywhere in their window) are rejected
  //    up front; everything else is accepted and scheduled later.
  std::vector<size_t> keep;
  for (size_t idx : state.pending_acceptance) {
    FlexOffer& offer = report.offers[idx];
    if (offer.acceptance_deadline >= next_tick) {
      keep.push_back(idx);
      continue;
    }
    bool useful = false;
    const double sign = offer.direction == core::Direction::kConsumption ? 1.0 : -1.0;
    for (TimePoint t = offer.earliest_start; t < offer.latest_end();
         t = t + kMinutesPerSlice) {
      if (sign * state.residual.At(t) > 0.0) {
        useful = true;
        break;
      }
    }
    // With no rejection threshold configured, accept everything (the
    // offline scheduler's behaviour); otherwise screen by usefulness.
    bool accept = params_.scheduler.rejection_threshold < 0.0 || useful;
    send_acceptance(idx, accept);
  }
  state.pending_acceptance = std::move(keep);

  // 3. Commit schedules for every assignment deadline before the next
  //    tick. Scheduling the urgent batch against the *remaining* residual
  //    implements the incremental commitment.
  std::vector<FlexOffer> urgent;
  std::vector<size_t> urgent_idx;
  keep.clear();
  for (size_t idx : state.pending_assignment) {
    FlexOffer& offer = report.offers[idx];
    if (offer.assignment_deadline >= next_tick) {
      keep.push_back(idx);
      continue;
    }
    if (offer.assignment_deadline < now) ++report.missed_assignment;
    urgent.push_back(offer);
    urgent_idx.push_back(idx);
  }
  state.pending_assignment = std::move(keep);
  if (!urgent.empty()) {
    core::ScheduleResult plan = scheduler.Plan(urgent, state.residual);
    for (size_t k = 0; k < plan.offers.size(); ++k) {
      FlexOffer& offer = report.offers[urgent_idx[k]];
      if (!plan.offers[k].schedule.has_value()) {
        // The scheduler rejected it post-acceptance; demote.
        offer.state = core::FlexOfferState::kRejected;
        note_change(offer);
        continue;
      }
      AssignmentMessage msg;
      msg.offer = offer.id;
      msg.schedule = *plan.offers[k].schedule;
      msg.sent_at = std::min(now, offer.assignment_deadline);
      // Commit capacity only after the assignment is delivered: a lost
      // assignment leaves the offer accepted-but-unscheduled (the
      // prosumer never learned what to run), books nothing against the
      // residual, and counts as a missed assignment deadline.
      if (!deliver(core::EncodeMessage(core::Message(msg)))) {
        ++report.missed_assignment;
        continue;
      }
      offer.schedule = plan.offers[k].schedule;
      offer.state = core::FlexOfferState::kAssigned;
      ++report.assigned;
      CommitScheduleToResidual(offer.direction, *offer.schedule, state.residual);
      note_change(offer);
    }
  }

  if (record != nullptr) {
    record->tick = state.next_tick;
    record->shed_policy = static_cast<int>(params_.shed_policy);
    record->offers_received = report.offers_received;
    record->accepted = report.accepted;
    record->rejected = report.rejected;
    record->assigned = report.assigned;
    record->missed_acceptance = report.missed_acceptance;
    record->missed_assignment = report.missed_assignment;
    record->dropped_ingest = report.dropped_ingest;
    record->failed_sends = report.failed_sends;
    record->shed_offers = report.shed_offers;
    record->queue_high_watermark = report.queue_high_watermark;
    record->next_arrival = static_cast<int64_t>(state.next_arrival);
    record->pending_acceptance.clear();
    record->pending_assignment.clear();
    for (size_t idx : state.pending_acceptance) {
      record->pending_acceptance.push_back(report.offers[idx].id);
    }
    for (size_t idx : state.pending_assignment) {
      record->pending_assignment.push_back(report.offers[idx].id);
    }
  }
  ++state.next_tick;
  if (params_.publish_hook) params_.publish_hook(state);
}

Status OnlineEnterprise::Apply(OnlineLoopState& state, const OnlineTickRecord& record) const {
  if (record.folded) {
    // A folded record is the cumulative merge of ticks 0..record.tick; it
    // only makes sense applied onto a fresh state.
    if (state.next_tick != 0) {
      return DataLossError(StrFormat("folded journal record (ticks 0..%d) cannot apply to "
                                     "state already at tick %d",
                                     record.tick, state.next_tick));
    }
  } else if (record.tick != state.next_tick) {
    return DataLossError(StrFormat("journal tick %d does not continue state at tick %d "
                                   "(journal and snapshot disagree)",
                                   record.tick, state.next_tick));
  }
  OnlineReport& report = state.report;
  auto find_index = [&](core::FlexOfferId id, size_t* out) -> Status {
    auto it = state.index_of.find(id);
    if (it == state.index_of.end()) {
      return DataLossError(StrFormat("journal names flex-offer %lld absent from snapshot",
                                     static_cast<long long>(id)));
    }
    *out = it->second;
    return OkStatus();
  };

  for (const OnlineStateChange& change : record.changes) {
    size_t idx = 0;
    FLEXVIS_RETURN_IF_ERROR(find_index(change.offer, &idx));
    FlexOffer& offer = report.offers[idx];
    offer.state = change.state;
    if (change.state == core::FlexOfferState::kAssigned) {
      if (!change.schedule.has_value()) {
        return DataLossError(StrFormat("journal assigns flex-offer %lld without a schedule",
                                       static_cast<long long>(change.offer)));
      }
      offer.schedule = change.schedule;
      CommitScheduleToResidual(offer.direction, *offer.schedule, state.residual);
    } else {
      offer.schedule.reset();
    }
  }
  for (const std::string& wire : record.sent) report.outbox.push_back(wire);

  report.offers_received = record.offers_received;
  report.accepted = record.accepted;
  report.rejected = record.rejected;
  report.assigned = record.assigned;
  report.missed_acceptance = record.missed_acceptance;
  report.missed_assignment = record.missed_assignment;
  report.dropped_ingest = record.dropped_ingest;
  report.failed_sends = record.failed_sends;
  report.shed_offers = record.shed_offers;
  report.queue_high_watermark = record.queue_high_watermark;
  if (record.next_arrival < 0 ||
      static_cast<size_t>(record.next_arrival) > state.arrival.size()) {
    return DataLossError(StrFormat("journal arrival cursor %lld out of range",
                                   static_cast<long long>(record.next_arrival)));
  }
  state.next_arrival = static_cast<size_t>(record.next_arrival);
  state.pending_acceptance.clear();
  for (core::FlexOfferId id : record.pending_acceptance) {
    size_t idx = 0;
    FLEXVIS_RETURN_IF_ERROR(find_index(id, &idx));
    state.pending_acceptance.push_back(idx);
  }
  state.pending_assignment.clear();
  for (core::FlexOfferId id : record.pending_assignment) {
    size_t idx = 0;
    FLEXVIS_RETURN_IF_ERROR(find_index(id, &idx));
    state.pending_assignment.push_back(idx);
  }
  report.ticks = record.tick + 1;
  state.next_tick = record.tick + 1;
  return OkStatus();
}

OnlineReport OnlineEnterprise::Finish(OnlineLoopState state) const {
  // Anything still pending at the end of the window never got answered in
  // time (its deadlines lie beyond the simulated horizon) — leave it
  // kOffered/kAccepted; that is honest bookkeeping, not a miss.
  state.report.imbalance_kwh = state.residual.Slice(state.window).AbsTotal();
  return std::move(state.report);
}

Result<OnlineReport> OnlineEnterprise::Run(const std::vector<FlexOffer>& offers,
                                           const TimeInterval& window) const {
  Result<OnlineLoopState> state = Begin(offers, window);
  if (!state.ok()) return state.status();
  while (!Done(*state)) Tick(*state, nullptr);
  return Finish(*std::move(state));
}

}  // namespace flexvis::sim
