#include "dw/persistence.h"

#include <algorithm>
#include <filesystem>
#include <map>
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

/// SHARDS.json is a zero-file store manifest whose meta carries the shard
/// count; its atomic rename commits the whole sharded snapshot.
StoreOptions ShardsStoreOptions() {
  StoreOptions options;
  options.manifest_name = kShardsManifest;
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

namespace {

std::string ShardSubdir(int shard) { return StrFormat("shard-%04d", shard); }

}  // namespace

Status SaveDatabaseSharded(const Database& db, const std::string& directory,
                           int num_shards,
                           const std::function<int(const core::FlexOffer&)>& shard_of) {
  if (num_shards < 1) {
    return InvalidArgumentError(StrFormat("num_shards must be >= 1, got %d", num_shards));
  }
  if (!shard_of) return InvalidArgumentError("shard_of routing function is empty");
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return InternalError(StrFormat("cannot create directory '%s': %s", directory.c_str(),
                                   ec.message().c_str()));
  }
  const std::filesystem::path dir(directory);
  // Invalidate a previous sharded snapshot up front: with SHARDS.json gone, a
  // crash mid-save recovers to "no committed snapshot", never to a mix of old
  // and new shard directories.
  FLEXVIS_RETURN_IF_ERROR(DurableStore::Invalidate(directory, ShardsStoreOptions()));

  Result<std::vector<core::FlexOffer>> offers = db.SelectFlexOffers(FlexOfferFilter{});
  if (!offers.ok()) return offers.status();

  std::map<core::FlexOfferId, size_t> index_of;
  for (size_t i = 0; i < offers->size(); ++i) index_of[(*offers)[i].id] = i;
  auto route = [&](const core::FlexOffer& offer) -> Result<int> {
    const core::FlexOffer* routed = &offer;
    // An aggregate lives with its first member so shards stay self-contained.
    if (offer.is_aggregate() && !offer.aggregated_from.empty()) {
      auto it = index_of.find(offer.aggregated_from.front());
      if (it != index_of.end()) routed = &(*offers)[it->second];
    }
    int shard = shard_of(*routed);
    if (shard < 0 || shard >= num_shards) {
      return InvalidArgumentError(
          StrFormat("shard_of routed flex-offer %lld to shard %d, outside [0, %d)",
                    static_cast<long long>(offer.id), shard, num_shards));
    }
    return shard;
  };

  std::vector<std::vector<core::FlexOffer>> partition(static_cast<size_t>(num_shards));
  for (const core::FlexOffer& offer : *offers) {
    Result<int> shard = route(offer);
    if (!shard.ok()) return shard.status();
    partition[static_cast<size_t>(*shard)].push_back(offer);
  }

  for (int s = 0; s < num_shards; ++s) {
    Database shard_db;
    for (const ProsumerInfo& info : db.prosumers()) {
      FLEXVIS_RETURN_IF_ERROR(shard_db.RegisterProsumer(info));
    }
    for (const RegionInfo& info : db.regions()) {
      FLEXVIS_RETURN_IF_ERROR(shard_db.RegisterRegion(info));
    }
    for (const GridNodeInfo& info : db.grid_nodes()) {
      FLEXVIS_RETURN_IF_ERROR(shard_db.RegisterGridNode(info));
    }
    FLEXVIS_RETURN_IF_ERROR(shard_db.LoadFlexOffers(partition[static_cast<size_t>(s)]));
    FLEXVIS_RETURN_IF_ERROR(SaveDatabase(shard_db, (dir / ShardSubdir(s)).string()));
  }

  // The shard manifest is the commit point of the whole sharded snapshot.
  JsonValue meta = JsonValue::Object();
  meta.Set("num_shards", JsonValue::Int(num_shards));
  Result<DurableStore> store =
      DurableStore::Create(directory, ShardsStoreOptions(), {}, meta);
  if (!store.ok()) return store.status();
  return store->Close();
}

Result<Database> LoadDatabaseSharded(const std::string& directory) {
  const std::filesystem::path dir(directory);
  Result<StoreRecovery> recovery = DurableStore::Recover(directory, ShardsStoreOptions());
  if (!recovery.ok()) {
    return DataLossError(StrFormat("no committed shard manifest under '%s': %s",
                                   directory.c_str(),
                                   recovery.status().message().c_str()));
  }
  Result<int64_t> num_shards =
      recovery->meta.is_object() ? recovery->meta.GetInt("num_shards")
                                 : Result<int64_t>(DataLossError("meta is not an object"));
  if (!num_shards.ok() || *num_shards < 1) {
    return DataLossError(StrFormat("%s lacks a valid num_shards", kShardsManifest));
  }

  Database merged;
  std::vector<core::FlexOffer> all_offers;
  for (int s = 0; s < static_cast<int>(*num_shards); ++s) {
    Result<Database> shard_db = LoadDatabase((dir / ShardSubdir(s)).string());
    if (!shard_db.ok()) return shard_db.status();
    if (s == 0) {
      // Dimensions are replicated into every shard; shard 0's copy is the
      // global atlas.
      for (const ProsumerInfo& info : shard_db->prosumers()) {
        FLEXVIS_RETURN_IF_ERROR(merged.RegisterProsumer(info));
      }
      for (const RegionInfo& info : shard_db->regions()) {
        FLEXVIS_RETURN_IF_ERROR(merged.RegisterRegion(info));
      }
      for (const GridNodeInfo& info : shard_db->grid_nodes()) {
        FLEXVIS_RETURN_IF_ERROR(merged.RegisterGridNode(info));
      }
    }
    Result<std::vector<core::FlexOffer>> offers =
        shard_db->SelectFlexOffers(FlexOfferFilter{});
    if (!offers.ok()) return offers.status();
    for (core::FlexOffer& offer : *offers) all_offers.push_back(std::move(offer));
  }
  // Ascending id order makes the merged load independent of shard layout;
  // LoadFlexOffers rejects an id two shards both claim.
  std::sort(all_offers.begin(), all_offers.end(),
            [](const core::FlexOffer& a, const core::FlexOffer& b) { return a.id < b.id; });
  FLEXVIS_RETURN_IF_ERROR(merged.LoadFlexOffers(all_offers));
  return merged;
}

}  // namespace flexvis::dw
