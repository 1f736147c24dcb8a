#include "dw/database.h"

#include <algorithm>

#include "dw/lod.h"
#include "dw/query.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace flexvis::dw {

using core::FlexOffer;
using core::FlexOfferId;
using core::ProfileSlice;
using timeutil::TimePoint;

namespace {

/// fact_flexoffer's columns, in FactFlexOfferSchema() order.
enum FactColumn : size_t {
  kOfferId,
  kProsumerId,
  kRegionId,
  kGridNodeId,
  kEnergyType,
  kProsumerType,
  kApplianceType,
  kDirection,
  kState,
  kCreationMin,
  kAcceptanceMin,
  kAssignmentMin,
  kEarliestStartMin,
  kLatestStartMin,
  kLatestEndMin,
  kProfileSlices,
  kTotalMinKwh,
  kTotalMaxKwh,
  kTimeFlexMin,
  kScheduledStartMin,
  kScheduledKwh,
  kIsAggregate,
  kNumFactColumns
};

std::vector<ColumnSpec> FactFlexOfferSchema() {
  return {
      {"offer_id", ColumnType::kInt64},
      {"prosumer_id", ColumnType::kInt64},
      {"region_id", ColumnType::kInt64},
      {"grid_node_id", ColumnType::kInt64},
      {"energy_type", ColumnType::kInt64},
      {"prosumer_type", ColumnType::kInt64},
      {"appliance_type", ColumnType::kInt64},
      {"direction", ColumnType::kInt64},
      {"state", ColumnType::kInt64},
      {"creation_min", ColumnType::kInt64},
      {"acceptance_min", ColumnType::kInt64},
      {"assignment_min", ColumnType::kInt64},
      {"earliest_start_min", ColumnType::kInt64},
      {"latest_start_min", ColumnType::kInt64},
      {"latest_end_min", ColumnType::kInt64},
      {"profile_slices", ColumnType::kInt64},
      {"total_min_kwh", ColumnType::kDouble},
      {"total_max_kwh", ColumnType::kDouble},
      {"time_flex_min", ColumnType::kInt64},
      {"scheduled_start_min", ColumnType::kInt64},  // nullable
      {"scheduled_kwh", ColumnType::kDouble},
      {"is_aggregate", ColumnType::kInt64},
  };
}

/// fact_profile_slice's columns, in the order the constructor declares them.
enum SliceColumn : size_t { kSliceDuration, kSliceMinKwh, kSliceMaxKwh };

/// bridge_aggregation's columns, in the order the constructor declares them.
enum MemberColumn : size_t { kMemberAggregateId, kMemberId };

/// Offers per load chunk (the check pass and the fill) and per reconstruct
/// chunk: a load or select of a few offers, the serving layer's usual
/// request, stays on the calling thread.
constexpr size_t kLoadGrain = 4096;
constexpr size_t kReconstructGrain = 1024;

/// Calls `emit(duration, first)` for each slice of the canonical form of
/// `profile`, the form core::CompressProfile gives: adjacent slices whose
/// bounds compare == merge and keep the first slice's values, so -0.0 next
/// to +0.0 merges. Validate bounds a profile's length, so `duration` fits an
/// int.
template <typename Emit>
void ForEachCanonicalSlice(const std::vector<ProfileSlice>& profile, Emit emit) {
  for (size_t i = 0; i < profile.size();) {
    const ProfileSlice& first = profile[i];
    int duration = 0;
    for (; i < profile.size() && profile[i].min_energy_kwh == first.min_energy_kwh &&
           profile[i].max_energy_kwh == first.max_energy_kwh;
         ++i) {
      duration += profile[i].duration_slices;
    }
    emit(duration, first);
  }
}

/// The rows one offer adds to each detail range: its canonical slices, its
/// members and its scheduled energies (0 without a schedule: Validate gives
/// a schedule one energy per unit slice).
struct DetailCounts {
  size_t slices = 0;
  size_t members = 0;
  size_t energies = 0;
};

/// Index of the first offer core::Validate refuses, or offers.size(). Up to
/// that offer, `counts[i]` receives offer i's detail counts.
size_t CheckOffers(const std::vector<FlexOffer>& offers, std::vector<DetailCounts>* counts) {
  return ParallelReduce(
      0, offers.size(), kLoadGrain, offers.size(),
      [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const FlexOffer& o = offers[i];
          if (!core::Validate(o).ok()) return i;
          DetailCounts& c = (*counts)[i];
          ForEachCanonicalSlice(o.profile, [&](int, const ProfileSlice&) { ++c.slices; });
          c.members = o.aggregated_from.size();
          c.energies = o.schedule.has_value() ? o.schedule->energy_kwh.size() : 0;
        }
        return offers.size();
      },
      [](size_t a, size_t b) { return std::min(a, b); });
}

/// The predicates of `filter` over fact_flexoffer's columns.
std::vector<Predicate> FilterPredicates(const FlexOfferFilter& filter) {
  std::vector<Predicate> where;
  if (filter.prosumer.has_value()) {
    where.push_back(Predicate::Eq("prosumer_id", Value(*filter.prosumer)));
  }
  if (!filter.window.empty()) {
    // Overlap test: extent.start < window.end AND extent.end > window.start.
    where.push_back(Predicate::Lt("earliest_start_min", Value(filter.window.end.minutes())));
    where.push_back(Predicate::Gt("latest_end_min", Value(filter.window.start.minutes())));
  }
  auto in_list = [](auto items) {
    std::vector<Value> vs;
    vs.reserve(items.size());
    for (auto item : items) vs.push_back(Value(static_cast<int64_t>(item)));
    return vs;
  };
  if (!filter.states.empty()) {
    where.push_back(Predicate::In("state", in_list(filter.states)));
  }
  if (!filter.regions.empty()) {
    where.push_back(Predicate::In("region_id", in_list(filter.regions)));
  }
  if (!filter.grid_nodes.empty()) {
    where.push_back(Predicate::In("grid_node_id", in_list(filter.grid_nodes)));
  }
  if (!filter.energy_types.empty()) {
    where.push_back(Predicate::In("energy_type", in_list(filter.energy_types)));
  }
  if (!filter.prosumer_types.empty()) {
    where.push_back(Predicate::In("prosumer_type", in_list(filter.prosumer_types)));
  }
  if (!filter.appliance_types.empty()) {
    where.push_back(Predicate::In("appliance_type", in_list(filter.appliance_types)));
  }
  if (filter.direction.has_value()) {
    where.push_back(
        Predicate::Eq("direction", Value(static_cast<int64_t>(*filter.direction))));
  }
  if (filter.aggregates == FlexOfferFilter::AggregateFilter::kOnlyAggregates) {
    where.push_back(Predicate::Eq("is_aggregate", Value(int64_t{1})));
  } else if (filter.aggregates == FlexOfferFilter::AggregateFilter::kOnlyRaw) {
    where.push_back(Predicate::Eq("is_aggregate", Value(int64_t{0})));
  }
  return where;
}

/// Appends a sorted integer list (or "*" when unconstrained) to `out`.
template <typename T>
void AppendSortedList(std::string* out, const char* tag, const std::vector<T>& values) {
  *out += tag;
  *out += '=';
  if (values.empty()) {
    *out += "*;";
    return;
  }
  std::vector<long long> sorted;
  sorted.reserve(values.size());
  for (const T& v : values) sorted.push_back(static_cast<long long>(v));
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) *out += ',';
    *out += StrFormat("%lld", sorted[i]);
  }
  *out += ';';
}

/// Adds `info` to a dimension unless its id is taken. `append_row` writes the
/// dimension-table row first, so a failed append leaves no index entry.
template <typename Info, typename AppendRow>
Status RegisterDimension(const Info& info, const char* what, std::vector<Info>* rows,
                         std::unordered_map<int64_t, size_t>* index, AppendRow append_row) {
  if (index->count(info.id) > 0) {
    return AlreadyExistsError(
        StrFormat("%s %lld already registered", what, static_cast<long long>(info.id)));
  }
  FLEXVIS_RETURN_IF_ERROR(append_row());
  index->emplace(info.id, rows->size());
  rows->push_back(info);
  return OkStatus();
}

template <typename Info>
Result<Info> FindDimension(int64_t id, const char* what, const std::vector<Info>& rows,
                           const std::unordered_map<int64_t, size_t>& index) {
  auto it = index.find(id);
  if (it == index.end()) {
    return NotFoundError(StrFormat("%s %lld not found", what, static_cast<long long>(id)));
  }
  return rows[it->second];
}

}  // namespace

std::string CanonicalFilterKey(const FlexOfferFilter& filter) {
  std::string key;
  key += filter.prosumer.has_value()
             ? StrFormat("p=%lld;", static_cast<long long>(*filter.prosumer))
             : std::string("p=*;");
  key += filter.window.empty()
             ? std::string("w=*;")
             : StrFormat("w=%lld..%lld;",
                         static_cast<long long>(filter.window.start.minutes()),
                         static_cast<long long>(filter.window.end.minutes()));
  AppendSortedList(&key, "s", filter.states);
  AppendSortedList(&key, "r", filter.regions);
  AppendSortedList(&key, "g", filter.grid_nodes);
  AppendSortedList(&key, "e", filter.energy_types);
  AppendSortedList(&key, "pt", filter.prosumer_types);
  AppendSortedList(&key, "a", filter.appliance_types);
  key += filter.direction.has_value()
             ? StrFormat("d=%d;", static_cast<int>(*filter.direction))
             : std::string("d=*;");
  key += StrFormat("agg=%d", static_cast<int>(filter.aggregates));
  return key;
}

Database::Database()
    : fact_flexoffer_("fact_flexoffer", FactFlexOfferSchema()),
      fact_profile_slice_("fact_profile_slice",
                          {{"duration_slices", ColumnType::kInt64},
                           {"min_kwh", ColumnType::kDouble},
                           {"max_kwh", ColumnType::kDouble}}),
      bridge_aggregation_("bridge_aggregation",
                          {{"aggregate_id", ColumnType::kInt64},
                           {"member_id", ColumnType::kInt64}}),
      dim_prosumer_("dim_prosumer",
                    {{"prosumer_id", ColumnType::kInt64},
                     {"name", ColumnType::kString},
                     {"prosumer_type", ColumnType::kInt64},
                     {"region_id", ColumnType::kInt64},
                     {"grid_node_id", ColumnType::kInt64}}),
      dim_region_("dim_region",
                  {{"region_id", ColumnType::kInt64},
                   {"name", ColumnType::kString},
                   {"parent_id", ColumnType::kInt64},
                   {"level", ColumnType::kString}}),
      dim_grid_node_("dim_grid_node",
                     {{"grid_node_id", ColumnType::kInt64},
                      {"name", ColumnType::kString},
                      {"kind", ColumnType::kString},
                      {"parent_id", ColumnType::kInt64}}) {}

Status Database::RegisterProsumer(const ProsumerInfo& prosumer) {
  lod_.reset();
  return RegisterDimension(prosumer, "prosumer", &prosumers_, &prosumer_index_, [&] {
    return dim_prosumer_.AppendRow({Value(prosumer.id), Value(prosumer.name),
                                    Value(int64_t{static_cast<int64_t>(prosumer.type)}),
                                    Value(prosumer.region), Value(prosumer.grid_node)});
  });
}

Status Database::RegisterRegion(const RegionInfo& region) {
  lod_.reset();
  return RegisterDimension(region, "region", &regions_, &region_index_, [&] {
    return dim_region_.AppendRow(
        {Value(region.id), Value(region.name), Value(region.parent), Value(region.level)});
  });
}

Status Database::RegisterGridNode(const GridNodeInfo& node) {
  lod_.reset();
  return RegisterDimension(node, "grid node", &grid_nodes_, &grid_node_index_, [&] {
    return dim_grid_node_.AppendRow(
        {Value(node.id), Value(node.name), Value(node.kind), Value(node.parent)});
  });
}

Result<ProsumerInfo> Database::FindProsumer(core::ProsumerId id) const {
  return FindDimension(id, "prosumer", prosumers_, prosumer_index_);
}

Result<RegionInfo> Database::FindRegion(core::RegionId id) const {
  return FindDimension(id, "region", regions_, region_index_);
}

Result<GridNodeInfo> Database::FindGridNode(core::GridNodeId id) const {
  return FindDimension(id, "grid node", grid_nodes_, grid_node_index_);
}

std::vector<core::RegionId> Database::RegionSubtree(core::RegionId root) const {
  std::vector<core::RegionId> out{root};
  // BFS over the parent pointers (regions_ is small; quadratic is fine).
  for (size_t cursor = 0; cursor < out.size(); ++cursor) {
    for (const RegionInfo& r : regions_) {
      if (r.parent == out[cursor]) out.push_back(r.id);
    }
  }
  return out;
}

std::vector<core::GridNodeId> Database::GridSubtree(core::GridNodeId root) const {
  std::vector<core::GridNodeId> out{root};
  for (size_t cursor = 0; cursor < out.size(); ++cursor) {
    for (const GridNodeInfo& n : grid_nodes_) {
      if (n.parent == out[cursor]) out.push_back(n.id);
    }
  }
  return out;
}

Status Database::LoadFlexOffers(const std::vector<FlexOffer>& offers) {
  lod_.reset();
  // Every check runs before the first append. The first failing offer in
  // batch order decides the error, and an offer is validated before its id
  // is checked, as one serial pass over the batch would.
  std::vector<DetailCounts> counts(offers.size());
  const size_t invalid = CheckOffers(offers, &counts);
  const size_t repeated = core::FirstRepeatedId(offers);
  size_t loaded = offers.size();
  if (!offer_row_.empty()) {
    for (size_t i = 0; i < std::min(invalid, repeated); ++i) {
      if (offer_row_.count(offers[i].id) != 0) {
        loaded = i;
        break;
      }
    }
  }
  if (loaded < invalid && loaded <= repeated) {
    return AlreadyExistsError(StrFormat("flex-offer %lld already loaded",
                                        static_cast<long long>(offers[loaded].id)));
  }
  if (repeated < invalid) {
    return AlreadyExistsError(StrFormat("flex-offer %lld appears twice in one load",
                                        static_cast<long long>(offers[repeated].id)));
  }
  if (invalid < offers.size()) return core::Validate(offers[invalid]);

  // Each offer's canonical slices, members and scheduled energies land as
  // one contiguous range each, at prefix-summed offsets. Validate bounded
  // every profile, so the unit counts cannot overflow.
  const size_t n = offers.size();
  const size_t first_row = fact_flexoffer_.NumRows();
  const size_t first_slice = fact_profile_slice_.NumRows();
  const size_t first_member = bridge_aggregation_.NumRows();
  std::vector<DetailRows> details(n);
  size_t slice_end = first_slice;
  size_t member_end = first_member;
  size_t schedule_end = scheduled_kwh_.size();
  for (size_t i = 0; i < n; ++i) {
    details[i] = {slice_end, counts[i].slices, member_end, counts[i].members};
    slice_end += counts[i].slices;
    member_end += counts[i].members;
    if (counts[i].energies > 0) {
      details[i].schedule_begin = schedule_end;
      schedule_end += counts[i].energies;
    }
  }

  // The tables grow to their final sizes first; one pooled pass then writes
  // every offer's cells in place.
  int64_t* fact_ints[kNumFactColumns] = {};
  double* fact_doubles[kNumFactColumns] = {};
  uint8_t* scheduled_valid = nullptr;
  FLEXVIS_RETURN_IF_ERROR(fact_flexoffer_.AppendRows(n, [&](Column* c) {
    for (size_t k = 0; k < kNumFactColumns; ++k) {
      if (c[k].type() == ColumnType::kDouble) {
        fact_doubles[k] = c[k].GrowDouble(n);
      } else {
        fact_ints[k] = c[k].GrowInt64(n, k == kScheduledStartMin ? &scheduled_valid : nullptr);
      }
    }
  }));
  int64_t* slice_duration = nullptr;
  double* slice_min_kwh = nullptr;
  double* slice_max_kwh = nullptr;
  FLEXVIS_RETURN_IF_ERROR(fact_profile_slice_.AppendRows(slice_end - first_slice, [&](Column* c) {
    slice_duration = c[kSliceDuration].GrowInt64(slice_end - first_slice);
    slice_min_kwh = c[kSliceMinKwh].GrowDouble(slice_end - first_slice);
    slice_max_kwh = c[kSliceMaxKwh].GrowDouble(slice_end - first_slice);
  }));
  int64_t* member_aggregate = nullptr;
  int64_t* member_id = nullptr;
  FLEXVIS_RETURN_IF_ERROR(bridge_aggregation_.AppendRows(member_end - first_member, [&](Column* c) {
    member_aggregate = c[kMemberAggregateId].GrowInt64(member_end - first_member);
    member_id = c[kMemberId].GrowInt64(member_end - first_member);
  }));
  if (scheduled_kwh_.capacity() < schedule_end) {
    scheduled_kwh_.reserve(std::max(schedule_end, 2 * scheduled_kwh_.capacity()));
  }
  scheduled_kwh_.resize(schedule_end);

  ParallelFor(0, n, kLoadGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const FlexOffer& o = offers[i];
      const int profile_slices = o.profile_duration_slices();
      fact_ints[kOfferId][i] = o.id;
      fact_ints[kProsumerId][i] = o.prosumer;
      fact_ints[kRegionId][i] = o.region;
      fact_ints[kGridNodeId][i] = o.grid_node;
      fact_ints[kEnergyType][i] = static_cast<int64_t>(o.energy_type);
      fact_ints[kProsumerType][i] = static_cast<int64_t>(o.prosumer_type);
      fact_ints[kApplianceType][i] = static_cast<int64_t>(o.appliance_type);
      fact_ints[kDirection][i] = static_cast<int64_t>(o.direction);
      fact_ints[kState][i] = static_cast<int64_t>(o.state);
      fact_ints[kCreationMin][i] = o.creation_time.minutes();
      fact_ints[kAcceptanceMin][i] = o.acceptance_deadline.minutes();
      fact_ints[kAssignmentMin][i] = o.assignment_deadline.minutes();
      fact_ints[kEarliestStartMin][i] = o.earliest_start.minutes();
      fact_ints[kLatestStartMin][i] = o.latest_start.minutes();
      // FlexOffer::latest_end(), from the duration already summed.
      fact_ints[kLatestEndMin][i] =
          o.latest_start.minutes() + int64_t{profile_slices} * timeutil::kMinutesPerSlice;
      fact_ints[kProfileSlices][i] = profile_slices;
      fact_doubles[kTotalMinKwh][i] = o.total_min_energy_kwh();
      fact_doubles[kTotalMaxKwh][i] = o.total_max_energy_kwh();
      fact_ints[kTimeFlexMin][i] = o.time_flexibility_minutes();
      if (o.schedule.has_value()) {
        fact_ints[kScheduledStartMin][i] = o.schedule->start.minutes();
        std::copy(o.schedule->energy_kwh.begin(), o.schedule->energy_kwh.end(),
                  scheduled_kwh_.begin() + static_cast<ptrdiff_t>(details[i].schedule_begin));
      } else {
        scheduled_valid[i] = 0;
      }
      fact_doubles[kScheduledKwh][i] = o.total_scheduled_energy_kwh();  // 0 when unassigned
      fact_ints[kIsAggregate][i] = o.is_aggregate() ? 1 : 0;

      size_t slice = details[i].slice_begin - first_slice;
      ForEachCanonicalSlice(o.profile, [&](int duration, const ProfileSlice& first) {
        slice_duration[slice] = duration;
        slice_min_kwh[slice] = first.min_energy_kwh;
        slice_max_kwh[slice] = first.max_energy_kwh;
        ++slice;
      });
      size_t member = details[i].member_begin - first_member;
      for (FlexOfferId aggregated : o.aggregated_from) {
        member_aggregate[member] = o.id;
        member_id[member] = aggregated;
        ++member;
      }
    }
  });

  offer_row_.reserve(offer_row_.size() + n);
  for (size_t i = 0; i < n; ++i) offer_row_.emplace(offers[i].id, first_row + i);
  detail_rows_.insert(detail_rows_.end(), details.begin(), details.end());
  return OkStatus();
}

Status Database::UpdateFlexOffer(const FlexOffer& offer) {
  lod_.reset();
  FLEXVIS_RETURN_IF_ERROR(core::Validate(offer));
  auto it = offer_row_.find(offer.id);
  if (it == offer_row_.end()) {
    return NotFoundError(StrFormat("flex-offer %lld not loaded",
                                   static_cast<long long>(offer.id)));
  }
  const size_t row = it->second;
  // Only the mutable planning outputs are updated; identity and profile are
  // immutable once loaded. Equal canonical profiles have equal unit counts,
  // so a schedule that validated fills the offer's run exactly.
  DetailRows& details = detail_rows_[row];
  const int64_t* durations = fact_profile_slice_.column(kSliceDuration).Int64Data();
  const double* min_kwh = fact_profile_slice_.column(kSliceMinKwh).DoubleData();
  const double* max_kwh = fact_profile_slice_.column(kSliceMaxKwh).DoubleData();
  const size_t slice_end = details.slice_begin + details.slice_count;
  size_t slice = details.slice_begin;
  bool same_profile = true;
  ForEachCanonicalSlice(offer.profile, [&](int duration, const ProfileSlice& first) {
    same_profile = same_profile && slice < slice_end && durations[slice] == duration &&
                   min_kwh[slice] == first.min_energy_kwh &&
                   max_kwh[slice] == first.max_energy_kwh;
    ++slice;
  });
  if (!same_profile || slice != slice_end) {
    return InvalidArgumentError(
        StrFormat("flex-offer %lld: profile differs from the loaded one",
                  static_cast<long long>(offer.id)));
  }
  FLEXVIS_RETURN_IF_ERROR(
      fact_flexoffer_.column(kState).Set(row, Value(static_cast<int64_t>(offer.state))));
  Column& sched_start = fact_flexoffer_.column(kScheduledStartMin);
  Column& sched_kwh = fact_flexoffer_.column(kScheduledKwh);
  if (!offer.schedule.has_value()) {
    FLEXVIS_RETURN_IF_ERROR(sched_start.Set(row, Value::Null()));
    return sched_kwh.Set(row, Value(0.0));
  }
  FLEXVIS_RETURN_IF_ERROR(sched_start.Set(row, Value(offer.schedule->start.minutes())));
  FLEXVIS_RETURN_IF_ERROR(sched_kwh.Set(row, Value(offer.total_scheduled_energy_kwh())));
  const std::vector<double>& energy = offer.schedule->energy_kwh;
  if (details.schedule_begin == kNoSchedule) {
    details.schedule_begin = scheduled_kwh_.size();
    scheduled_kwh_.insert(scheduled_kwh_.end(), energy.begin(), energy.end());
  } else {
    std::copy(energy.begin(), energy.end(), scheduled_kwh_.begin() + details.schedule_begin);
  }
  return OkStatus();
}

Status Database::AttachLod(LodPyramid lod) {
  if (!lod.HasShapeOf(*this)) {
    return FailedPreconditionError(StrFormat(
        "LOD pyramid of %lld offers over %lld slices does not match the warehouse",
        static_cast<long long>(lod.num_offers()), static_cast<long long>(lod.num_slices())));
  }
  lod_ = std::make_shared<const LodPyramid>(std::move(lod));
  return OkStatus();
}

struct Database::OfferColumns {
  const Column* fact[kNumFactColumns];
  const int64_t* slice_duration;
  const double* slice_min_kwh;
  const double* slice_max_kwh;
  const int64_t* member_ids;
};

Database::OfferColumns Database::ResolveOfferColumns() const {
  OfferColumns columns;
  for (size_t c = 0; c < kNumFactColumns; ++c) columns.fact[c] = &fact_flexoffer_.column(c);
  columns.slice_duration = fact_profile_slice_.column(kSliceDuration).Int64Data();
  columns.slice_min_kwh = fact_profile_slice_.column(kSliceMinKwh).DoubleData();
  columns.slice_max_kwh = fact_profile_slice_.column(kSliceMaxKwh).DoubleData();
  columns.member_ids = bridge_aggregation_.column(kMemberId).Int64Data();
  return columns;
}

core::FlexOffer Database::ReconstructOffer(const OfferColumns& columns, size_t fact_row) const {
  auto geti = [&](FactColumn c) { return columns.fact[c]->GetInt64(fact_row); };

  FlexOffer offer;
  offer.id = geti(kOfferId);
  offer.prosumer = geti(kProsumerId);
  offer.region = geti(kRegionId);
  offer.grid_node = geti(kGridNodeId);
  offer.energy_type = static_cast<core::EnergyType>(geti(kEnergyType));
  offer.prosumer_type = static_cast<core::ProsumerType>(geti(kProsumerType));
  offer.appliance_type = static_cast<core::ApplianceType>(geti(kApplianceType));
  offer.direction = static_cast<core::Direction>(geti(kDirection));
  offer.state = static_cast<core::FlexOfferState>(geti(kState));
  offer.creation_time = TimePoint::FromMinutes(geti(kCreationMin));
  offer.acceptance_deadline = TimePoint::FromMinutes(geti(kAcceptanceMin));
  offer.assignment_deadline = TimePoint::FromMinutes(geti(kAssignmentMin));
  offer.earliest_start = TimePoint::FromMinutes(geti(kEarliestStartMin));
  offer.latest_start = TimePoint::FromMinutes(geti(kLatestStartMin));

  // The profile is the offer's range of the slice fact table, already in
  // canonical form.
  const DetailRows& details = detail_rows_[fact_row];
  offer.profile.resize(details.slice_count);
  for (size_t k = 0; k < details.slice_count; ++k) {
    const size_t r = details.slice_begin + k;
    offer.profile[k] = ProfileSlice{static_cast<int>(columns.slice_duration[r]),
                                    columns.slice_min_kwh[r], columns.slice_max_kwh[r]};
  }

  if (!columns.fact[kScheduledStartMin]->IsNull(fact_row)) {
    const double* energy = scheduled_kwh_.data() + details.schedule_begin;
    offer.schedule = core::Schedule{TimePoint::FromMinutes(geti(kScheduledStartMin)),
                                    std::vector<double>(energy, energy + geti(kProfileSlices))};
  }

  if (details.member_count > 0) {
    const int64_t* members = columns.member_ids + details.member_begin;
    offer.aggregated_from.assign(members, members + details.member_count);
  }
  return offer;
}

Result<std::vector<size_t>> Database::SelectRows(const FlexOfferFilter& filter) const {
  Result<std::vector<size_t>> rows = FilterRows(fact_flexoffer_, FilterPredicates(filter));
  if (!rows.ok()) return rows.status();
  // Rows come in load order, which is id order for every warehouse loaded
  // from a saved file.
  const int64_t* ids = fact_flexoffer_.column(kOfferId).Int64Data();
  auto by_id = [ids](size_t a, size_t b) { return ids[a] < ids[b]; };
  if (!std::is_sorted(rows->begin(), rows->end(), by_id)) {
    std::sort(rows->begin(), rows->end(), by_id);
  }
  return rows;
}

Result<std::vector<FlexOffer>> Database::SelectFlexOffers(const FlexOfferFilter& filter) const {
  Result<std::vector<size_t>> rows = SelectRows(filter);
  if (!rows.ok()) return rows.status();
  const OfferColumns columns = ResolveOfferColumns();
  std::vector<FlexOffer> out(rows->size());
  ParallelFor(0, rows->size(), kReconstructGrain, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) out[i] = ReconstructOffer(columns, (*rows)[i]);
  });
  return out;
}

Result<FlexOfferFilter> MakeRegionFilter(const Database& db, core::RegionId region) {
  Result<RegionInfo> found = db.FindRegion(region);
  if (!found.ok()) return found.status();
  FlexOfferFilter filter;
  filter.regions = db.RegionSubtree(region);
  return filter;
}

Result<FlexOfferFilter> MakeGridFilter(const Database& db, core::GridNodeId node) {
  Result<GridNodeInfo> found = db.FindGridNode(node);
  if (!found.ok()) return found.status();
  FlexOfferFilter filter;
  filter.grid_nodes = db.GridSubtree(node);
  return filter;
}

Result<core::FlexOffer> Database::GetFlexOffer(core::FlexOfferId id) const {
  auto it = offer_row_.find(id);
  if (it == offer_row_.end()) {
    return NotFoundError(StrFormat("flex-offer %lld not loaded", static_cast<long long>(id)));
  }
  return ReconstructOffer(ResolveOfferColumns(), it->second);
}

}  // namespace flexvis::dw
