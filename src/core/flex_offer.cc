#include "core/flex_offer.h"

#include <cmath>
#include <unordered_set>

#include "util/strings.h"

namespace flexvis::core {

using timeutil::kMinutesPerSlice;

int FlexOffer::profile_duration_slices() const {
  int total = 0;
  for (const ProfileSlice& s : profile) total += s.duration_slices;
  return total;
}

double FlexOffer::total_min_energy_kwh() const {
  double total = 0.0;
  for (const ProfileSlice& s : profile) total += s.min_energy_kwh * s.duration_slices;
  return total;
}

double FlexOffer::total_max_energy_kwh() const {
  double total = 0.0;
  for (const ProfileSlice& s : profile) total += s.max_energy_kwh * s.duration_slices;
  return total;
}

double FlexOffer::total_scheduled_energy_kwh() const {
  if (!schedule.has_value()) return 0.0;
  double total = 0.0;
  for (double e : schedule->energy_kwh) total += e;
  return total;
}

double FlexOffer::peak_energy_kwh() const {
  double peak = 0.0;
  for (const ProfileSlice& s : profile) {
    if (s.max_energy_kwh > peak) peak = s.max_energy_kwh;
  }
  return peak;
}

std::vector<ProfileSlice> FlexOffer::UnitProfile() const {
  std::vector<ProfileSlice> units;
  units.reserve(static_cast<size_t>(profile_duration_slices()));
  for (const ProfileSlice& s : profile) {
    for (int i = 0; i < s.duration_slices; ++i) {
      units.push_back(ProfileSlice{1, s.min_energy_kwh, s.max_energy_kwh});
    }
  }
  return units;
}

namespace {

bool SliceAligned(timeutil::TimePoint t) { return t.minutes() % kMinutesPerSlice == 0; }

}  // namespace

Status Validate(const FlexOffer& offer) {
  if (offer.profile.empty()) {
    return InvalidArgumentError(StrFormat("flex-offer %lld: empty profile",
                                          static_cast<long long>(offer.id)));
  }
  // Summed in 64 bits: each duration fits an int, their total need not.
  int64_t num_units = 0;
  for (size_t i = 0; i < offer.profile.size(); ++i) {
    const ProfileSlice& s = offer.profile[i];
    if (s.duration_slices < 1) {
      return InvalidArgumentError(StrFormat("flex-offer %lld: slice %zu has duration %d",
                                            static_cast<long long>(offer.id), i,
                                            s.duration_slices));
    }
    // NaN would pass the bound comparisons below (both are false).
    if (!std::isfinite(s.min_energy_kwh) || !std::isfinite(s.max_energy_kwh)) {
      return InvalidArgumentError(
          StrFormat("flex-offer %lld: slice %zu has non-finite bounds [%g, %g]",
                    static_cast<long long>(offer.id), i, s.min_energy_kwh, s.max_energy_kwh));
    }
    if (s.min_energy_kwh < 0.0 || s.min_energy_kwh > s.max_energy_kwh) {
      return InvalidArgumentError(
          StrFormat("flex-offer %lld: slice %zu has invalid bounds [%g, %g]",
                    static_cast<long long>(offer.id), i, s.min_energy_kwh, s.max_energy_kwh));
    }
    num_units += s.duration_slices;
  }
  if (num_units > kMaxProfileUnitSlices) {
    return InvalidArgumentError(
        StrFormat("flex-offer %lld: profile spans %lld unit slices, over the limit of %lld",
                  static_cast<long long>(offer.id), static_cast<long long>(num_units),
                  static_cast<long long>(kMaxProfileUnitSlices)));
  }
  if (offer.latest_start < offer.earliest_start) {
    return InvalidArgumentError(StrFormat("flex-offer %lld: latest_start before earliest_start",
                                          static_cast<long long>(offer.id)));
  }
  if (!SliceAligned(offer.earliest_start) || !SliceAligned(offer.latest_start)) {
    return InvalidArgumentError(StrFormat("flex-offer %lld: start bounds not slice-aligned",
                                          static_cast<long long>(offer.id)));
  }
  if (offer.acceptance_deadline < offer.creation_time) {
    return InvalidArgumentError(StrFormat("flex-offer %lld: acceptance before creation",
                                          static_cast<long long>(offer.id)));
  }
  if (offer.assignment_deadline < offer.acceptance_deadline) {
    return InvalidArgumentError(StrFormat("flex-offer %lld: assignment before acceptance",
                                          static_cast<long long>(offer.id)));
  }
  if (offer.latest_start < offer.assignment_deadline) {
    return InvalidArgumentError(
        StrFormat("flex-offer %lld: assignment deadline after latest start",
                  static_cast<long long>(offer.id)));
  }
  if (offer.schedule.has_value()) {
    const Schedule& sched = *offer.schedule;
    // Walk the RLE profile directly instead of materializing UnitProfile():
    // validation runs on every offer of every aggregation pass, and the
    // allocation dominated its cost.
    if (sched.energy_kwh.size() != static_cast<size_t>(num_units)) {
      return InvalidArgumentError(
          StrFormat("flex-offer %lld: schedule has %zu energies for %zu unit slices",
                    static_cast<long long>(offer.id), sched.energy_kwh.size(),
                    static_cast<size_t>(num_units)));
    }
    if (sched.start < offer.earliest_start || offer.latest_start < sched.start) {
      return InvalidArgumentError(StrFormat("flex-offer %lld: scheduled start outside flexibility",
                                            static_cast<long long>(offer.id)));
    }
    if (!SliceAligned(sched.start)) {
      return InvalidArgumentError(StrFormat("flex-offer %lld: scheduled start not slice-aligned",
                                            static_cast<long long>(offer.id)));
    }
    constexpr double kEnergyTolerance = 1e-6;
    size_t unit = 0;
    for (const ProfileSlice& s : offer.profile) {
      for (int k = 0; k < s.duration_slices; ++k, ++unit) {
        double e = sched.energy_kwh[unit];
        if (!std::isfinite(e)) {
          return InvalidArgumentError(
              StrFormat("flex-offer %lld: non-finite scheduled energy at unit slice %zu",
                        static_cast<long long>(offer.id), unit));
        }
        if (e < s.min_energy_kwh - kEnergyTolerance || e > s.max_energy_kwh + kEnergyTolerance) {
          return InvalidArgumentError(
              StrFormat("flex-offer %lld: scheduled energy %g outside [%g, %g] at unit slice %zu",
                        static_cast<long long>(offer.id), e, s.min_energy_kwh, s.max_energy_kwh,
                        unit));
        }
      }
    }
  }
  return OkStatus();
}

size_t FirstRepeatedId(const std::vector<FlexOffer>& offers) {
  size_t ascending = 1;
  while (ascending < offers.size() && offers[ascending - 1].id < offers[ascending].id) {
    ++ascending;
  }
  if (ascending >= offers.size()) return offers.size();
  std::unordered_set<FlexOfferId> seen;
  seen.reserve(offers.size());
  for (size_t i = 0; i < offers.size(); ++i) {
    if (!seen.insert(offers[i].id).second) return i;
  }
  return offers.size();
}

std::string Describe(const FlexOffer& offer) {
  std::string out = StrFormat(
      "FlexOffer %lld [%s, %s] %s %s: profile %d slices, E=[%s, %s] kWh, "
      "time flex %lld min, start in [%s, %s]",
      static_cast<long long>(offer.id), std::string(DirectionName(offer.direction)).c_str(),
      std::string(FlexOfferStateName(offer.state)).c_str(),
      std::string(ProsumerTypeName(offer.prosumer_type)).c_str(),
      std::string(ApplianceTypeName(offer.appliance_type)).c_str(),
      offer.profile_duration_slices(), FormatDouble(offer.total_min_energy_kwh(), 2).c_str(),
      FormatDouble(offer.total_max_energy_kwh(), 2).c_str(),
      static_cast<long long>(offer.time_flexibility_minutes()),
      offer.earliest_start.ToString().c_str(), offer.latest_start.ToString().c_str());
  if (offer.schedule.has_value()) {
    out += StrFormat("; scheduled %s kWh from %s",
                     FormatDouble(offer.total_scheduled_energy_kwh(), 2).c_str(),
                     offer.schedule->start.ToString().c_str());
  }
  if (offer.is_aggregate()) {
    out += StrFormat("; aggregate of %zu offers", offer.aggregated_from.size());
  }
  return out;
}

}  // namespace flexvis::core
