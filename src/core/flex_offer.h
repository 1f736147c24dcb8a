#ifndef FLEXVIS_CORE_FLEX_OFFER_H_
#define FLEXVIS_CORE_FLEX_OFFER_H_

#include <optional>
#include <string>
#include <vector>

#include "core/types.h"
#include "time/time_point.h"
#include "util/status.h"

namespace flexvis::core {

/// One interval of a flex-offer profile: for `duration_slices` consecutive
/// 15-minute market slices the prosumer requires (or offers) an energy amount
/// between `min_energy_kwh` and `max_energy_kwh` *per slice*. The spread
/// between the bounds is the offer's energy flexibility in that interval
/// (Fig. 2 of the paper).
struct ProfileSlice {
  int duration_slices = 1;
  double min_energy_kwh = 0.0;
  double max_energy_kwh = 0.0;

  friend bool operator==(const ProfileSlice& a, const ProfileSlice& b) {
    return a.duration_slices == b.duration_slices && a.min_energy_kwh == b.min_energy_kwh &&
           a.max_energy_kwh == b.max_energy_kwh;
  }
};

/// The schedule the enterprise attaches to an accepted flex-offer during
/// planning: a concrete start time within the offer's start-time flexibility
/// interval, and a per-profile-slice energy amount within the slice's
/// [min, max] bounds ("Scheduled Energy and Start Time", Req. 1).
struct Schedule {
  timeutil::TimePoint start;
  /// One value per 15-minute *unit* slice of the owning offer's profile
  /// (i.e. size == profile_duration_slices()). Unit resolution is required so
  /// disaggregation can distribute an aggregate's schedule exactly even when
  /// member profiles overlap the aggregate's slices at different offsets.
  std::vector<double> energy_kwh;

  friend bool operator==(const Schedule& a, const Schedule& b) {
    return a.start == b.start && a.energy_kwh == b.energy_kwh;
  }
};

/// A flex-offer (Fig. 2): a prosumer's intent or capability to consume or
/// produce energy within a fixed future time window, with explicit time and
/// energy flexibility. This is a passive data object; `Validate` checks the
/// structural invariants, and the derived quantities are provided as const
/// helpers.
struct FlexOffer {
  FlexOfferId id = kInvalidFlexOfferId;
  ProsumerId prosumer = kInvalidProsumerId;

  /// Dimension attributes used by filtering/grouping (Section 3).
  RegionId region = kInvalidRegionId;
  GridNodeId grid_node = kInvalidGridNodeId;
  EnergyType energy_type = EnergyType::kMixedGrid;
  ProsumerType prosumer_type = ProsumerType::kHousehold;
  ApplianceType appliance_type = ApplianceType::kWashingMachine;

  Direction direction = Direction::kConsumption;
  FlexOfferState state = FlexOfferState::kOffered;

  /// When the prosumer created the offer.
  timeutil::TimePoint creation_time;
  /// Latest moment for the enterprise to send the acceptance message.
  timeutil::TimePoint acceptance_deadline;
  /// Latest moment for the enterprise to send the assignment (schedule).
  timeutil::TimePoint assignment_deadline;

  /// Start-time flexibility interval: execution may begin anywhere in
  /// [earliest_start, latest_start].
  timeutil::TimePoint earliest_start;
  timeutil::TimePoint latest_start;

  /// The energy profile, executed contiguously from the chosen start.
  std::vector<ProfileSlice> profile;

  /// Present once the offer is assigned.
  std::optional<Schedule> schedule;

  /// For offers produced by the Aggregator: ids of the constituent offers
  /// ("indications on which flex-offers were aggregated to produce the
  /// pointed flex-offer", Fig. 10). Empty for raw prosumer offers.
  std::vector<FlexOfferId> aggregated_from;

  // ---- Derived quantities -------------------------------------------------

  /// True if this offer is the result of aggregation (drawn light red in the
  /// basic view; raw offers are light blue).
  bool is_aggregate() const { return !aggregated_from.empty(); }

  /// Total profile duration in 15-minute slices.
  int profile_duration_slices() const;

  /// Profile duration in minutes.
  int64_t profile_duration_minutes() const {
    return profile_duration_slices() * timeutil::kMinutesPerSlice;
  }

  /// Latest possible end of execution (latest_start + profile duration);
  /// "5am, latest end time" in Fig. 2.
  timeutil::TimePoint latest_end() const { return latest_start + profile_duration_minutes(); }

  /// Start-time flexibility in minutes (latest_start - earliest_start).
  int64_t time_flexibility_minutes() const { return latest_start - earliest_start; }

  /// Sum over the profile of the per-slice minimum energy (kWh), counting
  /// multi-unit slices once per unit.
  double total_min_energy_kwh() const;

  /// Sum over the profile of the per-slice maximum energy (kWh).
  double total_max_energy_kwh() const;

  /// total_max - total_min: the offer's total energy flexibility (kWh).
  double energy_flexibility_kwh() const { return total_max_energy_kwh() - total_min_energy_kwh(); }

  /// Total scheduled energy (kWh); 0 when unassigned.
  double total_scheduled_energy_kwh() const;

  /// The full temporal extent the offer can possibly occupy:
  /// [earliest_start, latest_end). This drives lane stacking in the views.
  timeutil::TimeInterval extent() const {
    return timeutil::TimeInterval(earliest_start, latest_end());
  }

  /// The largest per-unit-slice max energy; drives the ordinate scale of the
  /// profile view.
  double peak_energy_kwh() const;

  /// Expands the run-length-encoded profile to one entry per 15-minute unit
  /// slice (used by aggregation and scheduling, which work on the unit grid).
  std::vector<ProfileSlice> UnitProfile() const;
};

/// Longest profile Validate accepts, in 15-minute unit slices: one year.
/// Generated, aggregated, scenario and golden profiles span at most days, so
/// the bound only stops a hostile record from expanding into billions of
/// unit-slice rows (and from overflowing profile_duration_slices()).
inline constexpr int64_t kMaxProfileUnitSlices =
    365 * timeutil::kMinutesPerDay / timeutil::kMinutesPerSlice;

/// Checks the structural invariants of `offer`:
///  - profile non-empty, every slice has duration >= 1 and finite bounds
///    with 0 <= min <= max, and at most kMaxProfileUnitSlices unit slices
///    in total;
///  - earliest_start <= latest_start;
///  - start times aligned to the 15-minute grid;
///  - creation <= acceptance deadline <= assignment deadline <= latest_start;
///  - if a schedule is present: one energy per unit slice, start within
///    [earliest_start, latest_start], slice-aligned, energies finite and
///    within bounds.
Status Validate(const FlexOffer& offer);

/// Index of the first offer whose id an earlier offer in `offers` already
/// carries, or offers.size() when every id is distinct. Linear, with no
/// hashing, while the ids ascend (as every saved offer file lists them).
size_t FirstRepeatedId(const std::vector<FlexOffer>& offers);

/// One-line description used by hover tooltips and diagnostics.
std::string Describe(const FlexOffer& offer);

}  // namespace flexvis::core

#endif  // FLEXVIS_CORE_FLEX_OFFER_H_
