#include "dw/database.h"

#include <algorithm>

#include "core/aggregation.h"
#include "util/strings.h"

namespace flexvis::dw {

using core::FlexOffer;
using core::FlexOfferId;
using timeutil::TimePoint;

namespace {

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
                          {{"offer_id", ColumnType::kInt64},
                           {"unit_index", ColumnType::kInt64},
                           {"min_kwh", ColumnType::kDouble},
                           {"max_kwh", ColumnType::kDouble},
                           {"scheduled_kwh", ColumnType::kDouble}}),  // nullable
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
  return RegisterDimension(prosumer, "prosumer", &prosumers_, &prosumer_index_, [&] {
    return dim_prosumer_.AppendRow({Value(prosumer.id), Value(prosumer.name),
                                    Value(int64_t{static_cast<int64_t>(prosumer.type)}),
                                    Value(prosumer.region), Value(prosumer.grid_node)});
  });
}

Status Database::RegisterRegion(const RegionInfo& region) {
  return RegisterDimension(region, "region", &regions_, &region_index_, [&] {
    return dim_region_.AppendRow(
        {Value(region.id), Value(region.name), Value(region.parent), Value(region.level)});
  });
}

Status Database::RegisterGridNode(const GridNodeInfo& node) {
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

Status Database::AppendFactRow(const FlexOffer& offer) {
  Value scheduled_start = Value::Null();
  double scheduled_kwh = 0.0;
  if (offer.schedule.has_value()) {
    scheduled_start = Value(offer.schedule->start.minutes());
    scheduled_kwh = offer.total_scheduled_energy_kwh();
  }
  return fact_flexoffer_.AppendRow({
      Value(offer.id),
      Value(offer.prosumer),
      Value(offer.region),
      Value(offer.grid_node),
      Value(static_cast<int64_t>(offer.energy_type)),
      Value(static_cast<int64_t>(offer.prosumer_type)),
      Value(static_cast<int64_t>(offer.appliance_type)),
      Value(static_cast<int64_t>(offer.direction)),
      Value(static_cast<int64_t>(offer.state)),
      Value(offer.creation_time.minutes()),
      Value(offer.acceptance_deadline.minutes()),
      Value(offer.assignment_deadline.minutes()),
      Value(offer.earliest_start.minutes()),
      Value(offer.latest_start.minutes()),
      Value(offer.latest_end().minutes()),
      Value(static_cast<int64_t>(offer.profile_duration_slices())),
      Value(offer.total_min_energy_kwh()),
      Value(offer.total_max_energy_kwh()),
      Value(offer.time_flexibility_minutes()),
      scheduled_start,
      Value(scheduled_kwh),
      Value(static_cast<int64_t>(offer.is_aggregate() ? 1 : 0)),
  });
}

Status Database::LoadFlexOffers(const std::vector<FlexOffer>& offers) {
  for (const FlexOffer& offer : offers) {
    FLEXVIS_RETURN_IF_ERROR(core::Validate(offer));
    if (offer_row_.count(offer.id) != 0) {
      return AlreadyExistsError(StrFormat("flex-offer %lld already loaded",
                                          static_cast<long long>(offer.id)));
    }
  }
  for (const FlexOffer& offer : offers) {
    FLEXVIS_RETURN_IF_ERROR(AppendFactRow(offer));
    offer_row_[offer.id] = fact_flexoffer_.NumRows() - 1;

    const std::vector<core::ProfileSlice> units = offer.UnitProfile();
    std::vector<size_t>& rows = slice_rows_[offer.id];
    rows.reserve(units.size());
    for (size_t i = 0; i < units.size(); ++i) {
      Value scheduled = Value::Null();
      if (offer.schedule.has_value() && i < offer.schedule->energy_kwh.size()) {
        scheduled = Value(offer.schedule->energy_kwh[i]);
      }
      FLEXVIS_RETURN_IF_ERROR(fact_profile_slice_.AppendRow(
          {Value(offer.id), Value(static_cast<int64_t>(i)), Value(units[i].min_energy_kwh),
           Value(units[i].max_energy_kwh), scheduled}));
      rows.push_back(fact_profile_slice_.NumRows() - 1);
    }
    if (offer.is_aggregate()) {
      for (FlexOfferId member : offer.aggregated_from) {
        FLEXVIS_RETURN_IF_ERROR(bridge_aggregation_.AppendRow({Value(offer.id), Value(member)}));
      }
      aggregate_members_[offer.id] = offer.aggregated_from;
    }
  }
  return OkStatus();
}

Status Database::UpdateFlexOffer(const FlexOffer& offer) {
  FLEXVIS_RETURN_IF_ERROR(core::Validate(offer));
  auto it = offer_row_.find(offer.id);
  if (it == offer_row_.end()) {
    return NotFoundError(StrFormat("flex-offer %lld not loaded",
                                   static_cast<long long>(offer.id)));
  }
  const size_t row = it->second;
  // Only the mutable planning outputs are updated; identity and profile are
  // immutable once loaded.
  Result<size_t> state_col = fact_flexoffer_.ColumnIndex("state");
  Result<size_t> sched_start_col = fact_flexoffer_.ColumnIndex("scheduled_start_min");
  Result<size_t> sched_kwh_col = fact_flexoffer_.ColumnIndex("scheduled_kwh");
  FLEXVIS_RETURN_IF_ERROR(
      fact_flexoffer_.column(*state_col).Set(row, Value(static_cast<int64_t>(offer.state))));
  if (offer.schedule.has_value()) {
    FLEXVIS_RETURN_IF_ERROR(fact_flexoffer_.column(*sched_start_col)
                                .Set(row, Value(offer.schedule->start.minutes())));
    FLEXVIS_RETURN_IF_ERROR(fact_flexoffer_.column(*sched_kwh_col)
                                .Set(row, Value(offer.total_scheduled_energy_kwh())));
  } else {
    FLEXVIS_RETURN_IF_ERROR(fact_flexoffer_.column(*sched_start_col).Set(row, Value::Null()));
    FLEXVIS_RETURN_IF_ERROR(fact_flexoffer_.column(*sched_kwh_col).Set(row, Value(0.0)));
  }
  // Per-slice scheduled energies.
  auto slice_it = slice_rows_.find(offer.id);
  if (slice_it != slice_rows_.end()) {
    Result<size_t> col = fact_profile_slice_.ColumnIndex("scheduled_kwh");
    for (size_t i = 0; i < slice_it->second.size(); ++i) {
      Value v = Value::Null();
      if (offer.schedule.has_value() && i < offer.schedule->energy_kwh.size()) {
        v = Value(offer.schedule->energy_kwh[i]);
      }
      FLEXVIS_RETURN_IF_ERROR(fact_profile_slice_.column(*col).Set(slice_it->second[i], v));
    }
  }
  return OkStatus();
}

core::FlexOffer Database::ReconstructOffer(size_t fact_row) const {
  const Table& f = fact_flexoffer_;
  auto geti = [&](const char* name) {
    return f.FindColumn(name)->GetInt64(fact_row);
  };
  auto getd = [&](const char* name) {
    return f.FindColumn(name)->GetDouble(fact_row);
  };
  (void)getd;

  FlexOffer offer;
  offer.id = geti("offer_id");
  offer.prosumer = geti("prosumer_id");
  offer.region = geti("region_id");
  offer.grid_node = geti("grid_node_id");
  offer.energy_type = static_cast<core::EnergyType>(geti("energy_type"));
  offer.prosumer_type = static_cast<core::ProsumerType>(geti("prosumer_type"));
  offer.appliance_type = static_cast<core::ApplianceType>(geti("appliance_type"));
  offer.direction = static_cast<core::Direction>(geti("direction"));
  offer.state = static_cast<core::FlexOfferState>(geti("state"));
  offer.creation_time = TimePoint::FromMinutes(geti("creation_min"));
  offer.acceptance_deadline = TimePoint::FromMinutes(geti("acceptance_min"));
  offer.assignment_deadline = TimePoint::FromMinutes(geti("assignment_min"));
  offer.earliest_start = TimePoint::FromMinutes(geti("earliest_start_min"));
  offer.latest_start = TimePoint::FromMinutes(geti("latest_start_min"));

  // Profile from the slice fact table.
  auto slice_it = slice_rows_.find(offer.id);
  std::vector<core::ProfileSlice> units;
  std::vector<double> scheduled;
  bool any_scheduled = false;
  if (slice_it != slice_rows_.end()) {
    const Column* min_col = fact_profile_slice_.FindColumn("min_kwh");
    const Column* max_col = fact_profile_slice_.FindColumn("max_kwh");
    const Column* sch_col = fact_profile_slice_.FindColumn("scheduled_kwh");
    units.reserve(slice_it->second.size());
    for (size_t r : slice_it->second) {
      units.push_back(core::ProfileSlice{1, min_col->GetDouble(r), max_col->GetDouble(r)});
      if (!sch_col->IsNull(r)) {
        any_scheduled = true;
        scheduled.push_back(sch_col->GetDouble(r));
      } else {
        scheduled.push_back(0.0);
      }
    }
  }
  offer.profile = core::CompressProfile(units);

  const Column* sched_start = f.FindColumn("scheduled_start_min");
  if (!sched_start->IsNull(fact_row) && any_scheduled) {
    core::Schedule sched;
    sched.start = TimePoint::FromMinutes(sched_start->GetInt64(fact_row));
    sched.energy_kwh = std::move(scheduled);
    offer.schedule = std::move(sched);
  }

  auto agg_it = aggregate_members_.find(offer.id);
  if (agg_it != aggregate_members_.end()) offer.aggregated_from = agg_it->second;
  return offer;
}

Result<std::vector<FlexOffer>> Database::SelectFlexOffers(const FlexOfferFilter& filter) const {
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

  Result<std::vector<size_t>> rows = FilterRows(fact_flexoffer_, where);
  if (!rows.ok()) return rows.status();

  std::vector<FlexOffer> out;
  out.reserve(rows->size());
  for (size_t r : *rows) out.push_back(ReconstructOffer(r));
  std::sort(out.begin(), out.end(),
            [](const FlexOffer& a, const FlexOffer& b) { return a.id < b.id; });
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
  return ReconstructOffer(it->second);
}

}  // namespace flexvis::dw
