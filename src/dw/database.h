#ifndef FLEXVIS_DW_DATABASE_H_
#define FLEXVIS_DW_DATABASE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/flex_offer.h"
#include "dw/table.h"
#include "time/time_point.h"
#include "util/status.h"

namespace flexvis::dw {

/// A prosumer ("legal entity" in Fig. 7's loading tab).
struct ProsumerInfo {
  core::ProsumerId id = core::kInvalidProsumerId;
  std::string name;
  core::ProsumerType type = core::ProsumerType::kHousehold;
  core::RegionId region = core::kInvalidRegionId;
  core::GridNodeId grid_node = core::kInvalidGridNodeId;
};

/// A node of the geographical hierarchy (country -> region -> city ->
/// district), stored flatly with a parent pointer.
struct RegionInfo {
  core::RegionId id = core::kInvalidRegionId;
  std::string name;
  core::RegionId parent = core::kInvalidRegionId;  // kInvalidRegionId at the root
  std::string level;  // "country", "region", "city", "district"
};

/// A node of the grid-topology hierarchy (plant / transmission substation /
/// distribution substation / feeder).
struct GridNodeInfo {
  core::GridNodeId id = core::kInvalidGridNodeId;
  std::string name;
  std::string kind;  // "plant", "transmission", "distribution", "feeder"
  core::GridNodeId parent = core::kInvalidGridNodeId;
};

/// Filter for the flex-offer loading tab (Fig. 7) and for view refreshes:
/// all set members are ANDed; unset members do not constrain.
struct FlexOfferFilter {
  std::optional<core::ProsumerId> prosumer;
  /// Offers whose extent() overlaps this window; empty interval = no
  /// constraint.
  timeutil::TimeInterval window;
  std::vector<core::FlexOfferState> states;
  std::vector<core::RegionId> regions;
  std::vector<core::GridNodeId> grid_nodes;
  std::vector<core::EnergyType> energy_types;
  std::vector<core::ProsumerType> prosumer_types;
  std::vector<core::ApplianceType> appliance_types;
  std::optional<core::Direction> direction;
  /// kAny keeps both raw offers and aggregates.
  enum class AggregateFilter { kAny, kOnlyAggregates, kOnlyRaw } aggregates =
      AggregateFilter::kAny;
};

class Database;
class LodPyramid;

/// Canonical cache-key text for a filter: two filters selecting the same
/// offers via the same constraints produce the same key regardless of the
/// order their IN-lists were assembled in (member lists are sorted; absent
/// constraints print as "*"). The serving layer's result cache keys on
/// (store generation, this string) — see src/serve.
std::string CanonicalFilterKey(const FlexOfferFilter& filter);

/// Builds a filter selecting every flex-offer in the geographic subtree
/// rooted at `region` ("to select data for (or group on) a spacial object,
/// e.g., country, city, or district"). NotFound when the region is not
/// registered.
Result<FlexOfferFilter> MakeRegionFilter(const Database& db, core::RegionId region);

/// Builds a filter selecting every flex-offer attached under `node` in the
/// grid topology ("to select data for (or group on) the topological or
/// electrical structure [of] the electricity grid, e.g., for a particular
/// 110kV transmission line").
Result<FlexOfferFilter> MakeGridFilter(const Database& db, core::GridNodeId node);

/// In-memory columnar data warehouse following the MIRABEL DW star schema
/// (Šikšnys, Thomsen & Pedersen, DaWaK 2012): a flex-offer fact table plus a
/// profile fact table of run-length-encoded slices, an aggregation bridge
/// table, and prosumer / geography / grid-topology dimensions. Substitutes
/// the paper's PostgreSQL instance; see DESIGN.md §2. Group-by and
/// aggregate queries run on the OLAP cube (src/olap) over these tables.
///
/// A database may carry the LOD pyramid of its offers (AttachLod), so a
/// warehouse opened from disk serves the pyramid its save built. Every
/// mutator — the Register* calls, LoadFlexOffers and UpdateFlexOffer —
/// drops it, whether or not the mutation succeeds.
///
/// Column names of fact_flexoffer (all times are minutes since epoch):
///   offer_id, prosumer_id, region_id, grid_node_id, energy_type,
///   prosumer_type, appliance_type, direction, state, creation_min,
///   acceptance_min, assignment_min, earliest_start_min, latest_start_min,
///   latest_end_min, profile_slices, total_min_kwh, total_max_kwh,
///   time_flex_min, scheduled_start_min (nullable), scheduled_kwh,
///   is_aggregate
///
/// fact_profile_slice holds each offer's profile as one contiguous range of
/// rows (duration_slices, min_kwh, max_kwh) in canonical form: no two
/// adjacent rows of an offer have bounds that compare ==. A scheduled offer
/// keeps its profile_slices scheduled energies as one typed run beside the
/// tables; scheduled_start_min is null exactly when the offer has none.
class Database {
 public:
  Database();

  // ---- Dimension loading --------------------------------------------------

  Status RegisterProsumer(const ProsumerInfo& prosumer);
  Status RegisterRegion(const RegionInfo& region);
  Status RegisterGridNode(const GridNodeInfo& node);

  const std::vector<ProsumerInfo>& prosumers() const { return prosumers_; }
  const std::vector<RegionInfo>& regions() const { return regions_; }
  const std::vector<GridNodeInfo>& grid_nodes() const { return grid_nodes_; }

  Result<ProsumerInfo> FindProsumer(core::ProsumerId id) const;
  Result<RegionInfo> FindRegion(core::RegionId id) const;
  Result<GridNodeInfo> FindGridNode(core::GridNodeId id) const;

  /// All region ids in the subtree rooted at `root` (including the root);
  /// used to translate "west Denmark" into a leaf-region IN-list.
  std::vector<core::RegionId> RegionSubtree(core::RegionId root) const;

  /// All grid-node ids in the subtree rooted at `root` (including it).
  std::vector<core::GridNodeId> GridSubtree(core::GridNodeId root) const;

  // ---- Fact loading ---------------------------------------------------------

  /// Loads flex-offers into the fact tables. Offers must validate and ids
  /// must be unique within the batch and across all loads. Every check runs
  /// before the first append, so a refused batch (the first failing offer's
  /// InvalidArgument, or AlreadyExists) leaves the warehouse as it was.
  Status LoadFlexOffers(const std::vector<core::FlexOffer>& offers);

  /// Replaces the stored state/schedule of an already-loaded offer (used
  /// after a planning run). The offer must exist, validate and carry the
  /// stored profile (compared in canonical form): InvalidArgument naming the
  /// id otherwise, with nothing written.
  Status UpdateFlexOffer(const core::FlexOffer& offer);

  size_t NumFlexOffers() const { return fact_flexoffer_.NumRows(); }

  // ---- Attached LOD pyramid -------------------------------------------------

  /// Attaches the LOD pyramid of this database's offers and regions.
  /// FailedPrecondition, and nothing attached, unless `lod` has this
  /// database's shape (LodPyramid::HasShapeOf): the check cannot see bucket
  /// contents, so the caller vouches that `lod` was built over these offers.
  Status AttachLod(LodPyramid lod);

  /// The attached pyramid, or null when none is attached.
  const LodPyramid* lod() const { return lod_.get(); }

  // ---- Retrieval ------------------------------------------------------------

  /// Reconstructs full flex-offers (profile, schedule, provenance) matching
  /// `filter`, in id order. This is the query behind the loading tab
  /// (Fig. 7).
  Result<std::vector<core::FlexOffer>> SelectFlexOffers(const FlexOfferFilter& filter) const;

  /// Reconstructs a single offer by id.
  Result<core::FlexOffer> GetFlexOffer(core::FlexOfferId id) const;

  // ---- Raw access for the OLAP layer ---------------------------------------

  const Table& fact_flexoffer() const { return fact_flexoffer_; }
  const Table& fact_profile_slice() const { return fact_profile_slice_; }
  const Table& bridge_aggregation() const { return bridge_aggregation_; }
  const Table& dim_prosumer() const { return dim_prosumer_; }
  const Table& dim_region() const { return dim_region_; }
  const Table& dim_grid_node() const { return dim_grid_node_; }

 private:
  static constexpr size_t kNoSchedule = SIZE_MAX;

  /// Where one fact row's detail rows sit: its canonical slices in
  /// fact_profile_slice, its members in bridge_aggregation and its scheduled
  /// energies in scheduled_kwh_, each one contiguous range. The schedule run
  /// is kNoSchedule until the offer first gets a schedule; a cleared schedule
  /// keeps its run for the next one.
  struct DetailRows {
    size_t slice_begin = 0;
    size_t slice_count = 0;
    size_t member_begin = 0;
    size_t member_count = 0;
    size_t schedule_begin = kNoSchedule;
  };
  /// Raw storage of the columns ReconstructOffer reads, resolved once per
  /// call.
  struct OfferColumns;

  OfferColumns ResolveOfferColumns() const;
  core::FlexOffer ReconstructOffer(const OfferColumns& columns, size_t fact_row) const;

  Table fact_flexoffer_;
  Table fact_profile_slice_;
  Table bridge_aggregation_;
  Table dim_prosumer_;
  Table dim_region_;
  Table dim_grid_node_;

  std::vector<ProsumerInfo> prosumers_;
  std::vector<RegionInfo> regions_;
  std::vector<GridNodeInfo> grid_nodes_;
  // id -> position in the vector above, so registration and Find* are O(1).
  std::unordered_map<core::ProsumerId, size_t> prosumer_index_;
  std::unordered_map<core::RegionId, size_t> region_index_;
  std::unordered_map<core::GridNodeId, size_t> grid_node_index_;

  std::unordered_map<core::FlexOfferId, size_t> offer_row_;
  std::vector<DetailRows> detail_rows_;  // indexed by fact row
  // One run of profile_slices energies per offer that has had a schedule.
  std::vector<double> scheduled_kwh_;

  // Immutable, so copies of the database share it.
  std::shared_ptr<const LodPyramid> lod_;
};

}  // namespace flexvis::dw

#endif  // FLEXVIS_DW_DATABASE_H_
