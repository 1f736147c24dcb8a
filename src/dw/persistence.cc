#include "dw/persistence.h"

#include <utility>

#include "core/messages.h"
#include "dw/csv.h"
#include "dw/lod.h"
#include "util/json.h"
#include "util/store.h"
#include "util/strings.h"

namespace flexvis::dw {

namespace {

constexpr const char* kProsumerFile = "dim_prosumer.csv";
constexpr const char* kRegionFile = "dim_region.csv";
constexpr const char* kGridFile = "dim_grid_node.csv";
constexpr const char* kOffersFile = "flexoffers.jsonl";

/// A warehouse snapshot is a snapshot-only util/store generation: the four
/// content files covered by MANIFEST.json, no WAL. Content writes and reads
/// keep the dw.persistence.* fault seams through the store's retry wrapping.
StoreOptions SnapshotStoreOptions() {
  StoreOptions options;
  options.manifest_name = kSnapshotManifest;
  options.write_retry_point = "dw.persistence.save";
  options.read_retry_point = "dw.persistence.load";
  return options;
}

Result<Table> TableFromSnapshot(const StoreRecovery& recovery, std::string table_name,
                                const std::vector<ColumnSpec>& schema,
                                const char* file) {
  auto it = recovery.files.find(file);
  if (it == recovery.files.end()) {
    return DataLossError(StrFormat("snapshot manifest does not cover '%s'", file));
  }
  return TableFromCsv(std::move(table_name), schema, it->second);
}

}  // namespace

Status SaveDatabase(const Database& db, const std::string& directory) {
  // The LOD pyramid first: it refuses an extent past kMaxLodSlices before
  // anything is written.
  Result<LodPyramid> lod = BuildLodPyramid(db, FlexOfferFilter{});
  if (!lod.ok()) return lod.status();
  // Offers as JSON Lines in id order. Aggregates must come after their
  // members? Loading re-validates but membership is stored on the aggregate,
  // so order does not matter for correctness; id order keeps diffs stable.
  Result<std::vector<core::FlexOffer>> offers = db.SelectFlexOffers(FlexOfferFilter{});
  if (!offers.ok()) return offers.status();
  std::string lines = core::EncodeFlexOfferLines(*offers);

  // The store writes every file atomically and commits the manifest last, so
  // a crash mid-save leaves no manifest pairing old files with new content —
  // LoadDatabase then reports kDataLoss instead of loading garbage.
  // The LOD pyramid of the same offers rides inside the same generation, so
  // a recovered snapshot pins aggregates consistent with its offer set.
  StoreFiles files;
  files.emplace_back(kProsumerFile, TableToCsv(db.dim_prosumer()));
  files.emplace_back(kRegionFile, TableToCsv(db.dim_region()));
  files.emplace_back(kGridFile, TableToCsv(db.dim_grid_node()));
  files.emplace_back(kOffersFile, std::move(lines));
  files.emplace_back(kLodFile, lod->Serialize());
  Result<DurableStore> store =
      DurableStore::Create(directory, SnapshotStoreOptions(), files, JsonValue());
  if (!store.ok()) return store.status();
  return store->Close();
}

Result<Database> LoadDatabase(const std::string& directory) {
  // Integrity first: Recover refuses to hand back anything until every
  // covered byte matches the manifest, so a torn save or bit rot yields
  // kDataLoss rather than a plausible-but-wrong Database. Stale `.tmp`
  // debris of a crashed save is garbage-collected on the way.
  Result<StoreRecovery> recovery = DurableStore::Recover(directory, SnapshotStoreOptions());
  if (!recovery.ok()) return recovery.status();

  Database db;

  // Dimensions.
  Result<Table> prosumers =
      TableFromSnapshot(*recovery, "dim_prosumer", db.dim_prosumer().schema(), kProsumerFile);
  if (!prosumers.ok()) return prosumers.status();
  for (size_t r = 0; r < prosumers->NumRows(); ++r) {
    ProsumerInfo p;
    p.id = prosumers->FindColumn("prosumer_id")->GetInt64(r);
    p.name = prosumers->FindColumn("name")->GetString(r);
    p.type = static_cast<core::ProsumerType>(
        prosumers->FindColumn("prosumer_type")->GetInt64(r));
    p.region = prosumers->FindColumn("region_id")->GetInt64(r);
    p.grid_node = prosumers->FindColumn("grid_node_id")->GetInt64(r);
    FLEXVIS_RETURN_IF_ERROR(db.RegisterProsumer(p));
  }
  Result<Table> regions =
      TableFromSnapshot(*recovery, "dim_region", db.dim_region().schema(), kRegionFile);
  if (!regions.ok()) return regions.status();
  for (size_t r = 0; r < regions->NumRows(); ++r) {
    RegionInfo info;
    info.id = regions->FindColumn("region_id")->GetInt64(r);
    info.name = regions->FindColumn("name")->GetString(r);
    info.parent = regions->FindColumn("parent_id")->GetInt64(r);
    info.level = regions->FindColumn("level")->GetString(r);
    FLEXVIS_RETURN_IF_ERROR(db.RegisterRegion(info));
  }
  Result<Table> grid_nodes =
      TableFromSnapshot(*recovery, "dim_grid_node", db.dim_grid_node().schema(), kGridFile);
  if (!grid_nodes.ok()) return grid_nodes.status();
  for (size_t r = 0; r < grid_nodes->NumRows(); ++r) {
    GridNodeInfo info;
    info.id = grid_nodes->FindColumn("grid_node_id")->GetInt64(r);
    info.name = grid_nodes->FindColumn("name")->GetString(r);
    info.kind = grid_nodes->FindColumn("kind")->GetString(r);
    info.parent = grid_nodes->FindColumn("parent_id")->GetInt64(r);
    FLEXVIS_RETURN_IF_ERROR(db.RegisterGridNode(info));
  }

  // Offers.
  auto lines_it = recovery->files.find(kOffersFile);
  if (lines_it == recovery->files.end()) {
    return DataLossError(StrFormat("snapshot manifest does not cover '%s'", kOffersFile));
  }
  std::vector<core::FlexOffer> offers;
  core::FlexOfferLineError bad;
  // A duplicated id means two lines claim the same offer; silently letting
  // the last line win would hide whichever state the first carried. Name
  // the id and the line so the operator can diff the file.
  if (!core::DecodeFlexOfferLines(lines_it->second, core::DuplicateIds::kReject, &offers,
                                  &bad)) {
    if (!bad.bad_record.ok()) {
      return InvalidArgumentError(StrFormat("%s: bad offer record near byte %zu: %s",
                                            kOffersFile, bad.byte_offset,
                                            bad.bad_record.message().c_str()));
    }
    return InvalidArgumentError(StrFormat("%s: duplicate flex-offer id %lld at line %zu",
                                          kOffersFile, static_cast<long long>(bad.duplicate_id),
                                          bad.line_number));
  }
  FLEXVIS_RETURN_IF_ERROR(db.LoadFlexOffers(offers));

  // The pyramid the save built over these offers, when it is still there and
  // still has their shape. Anything else — no lod.bin, a payload that does
  // not parse, a pyramid of other offers — leaves the database without one,
  // and publishing it builds the pyramid afresh.
  auto lod_it = recovery->files.find(kLodFile);
  if (lod_it != recovery->files.end()) {
    Result<LodPyramid> saved = LodPyramid::Parse(lod_it->second);
    if (saved.ok()) (void)db.AttachLod(*std::move(saved));
  }
  return db;
}

}  // namespace flexvis::dw
