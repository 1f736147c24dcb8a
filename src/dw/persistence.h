#ifndef FLEXVIS_DW_PERSISTENCE_H_
#define FLEXVIS_DW_PERSISTENCE_H_

#include <functional>
#include <string>

#include "dw/database.h"
#include "util/status.h"

namespace flexvis::dw {

/// On-disk persistence for the in-memory warehouse: a directory holding the
/// three dimension tables as CSV (`dim_prosumer.csv`, `dim_region.csv`,
/// `dim_grid_node.csv`), the complete flex-offer set as JSON Lines
/// (`flexoffers.jsonl`, one core message-format offer per line — profiles,
/// schedules, and aggregation provenance included), and a `MANIFEST.json`
/// stamping each file's exact size and CRC-32. This is the substitute for
/// dumping/restoring the paper's PostgreSQL instance.
///
/// Crash consistency: every file is written atomically (staged to a `.tmp`
/// sibling, fsynced, renamed into place) and the manifest is written *last*,
/// so a crash mid-save leaves either the previous complete snapshot's
/// manifest or none — LoadDatabase refuses a directory whose manifest does
/// not match its files with a typed kDataLoss instead of loading garbage.
/// Stale `.tmp` debris from a crashed save is ignored.

/// Name of the checksum manifest SaveDatabase stamps last.
inline constexpr const char* kSnapshotManifest = "MANIFEST.json";

/// Name of the serialized LOD pyramid persisted inside every snapshot (the
/// deterministic binary payload of `LodPyramid::Serialize`).
inline constexpr const char* kLodFile = "lod.bin";

/// Writes `db` under `directory` (created if absent). Existing files are
/// overwritten; each write is atomic and the manifest is refreshed last.
Status SaveDatabase(const Database& db, const std::string& directory);

/// Rebuilds a Database from a directory written by SaveDatabase. The restored
/// instance answers every query identically (dimension rows, fact rows, and
/// offer reconstruction round-trip; see the persistence tests). Returns
/// kDataLoss when the manifest is missing or any file fails its size/CRC
/// check (partial or corrupt snapshot); InvalidArgument on malformed or
/// duplicate offer records (the message names the offending id and line).
///
/// When the manifest covers a `lod.bin` that parses and has the loaded
/// offers' shape (LodPyramid::HasShapeOf), the pyramid is attached to the
/// database (Database::lod) and publishing serves it. It is byte-equal to
/// `BuildLodPyramid(db, {})`: the save built it over the same offers, and a
/// -0.0 energy, which the offer codec reads back as +0.0, folds as +0.0 in
/// both. Without one the database loads the same, with no pyramid attached.
Result<Database> LoadDatabase(const std::string& directory);

// ---- Sharded persistence ----------------------------------------------------
//
// The multi-enterprise deployment stores one warehouse per enterprise shard:
// `shard-0000/`, `shard-0001/`, ... each a complete SaveDatabase directory
// (self-contained and loadable on its own), plus a top-level SHARDS.json
// naming the shard count — written atomically last, so a crash mid-save
// leaves either the previous complete sharded snapshot's manifest or none.
// Dimension tables are replicated into every shard (they are small and every
// enterprise needs the full atlas/grid hierarchies); the flex-offer facts are
// partitioned by the caller-supplied routing function, keeping this layer
// free of any dependency on sim's ShardRouter.

/// Name of the top-level shard manifest SaveDatabaseSharded stamps last.
inline constexpr const char* kShardsManifest = "SHARDS.json";

/// Writes `db` under `directory` as `num_shards` per-shard databases.
/// `shard_of` routes each *raw* offer to a shard in [0, num_shards); an
/// aggregate follows its first member (so every shard's aggregates reference
/// locally present members), falling back to `shard_of(aggregate)` when the
/// member is absent from the database. InvalidArgument when `num_shards` < 1,
/// `shard_of` is empty, or it returns an out-of-range shard.
Status SaveDatabaseSharded(const Database& db, const std::string& directory,
                           int num_shards,
                           const std::function<int(const core::FlexOffer&)>& shard_of);

/// Rebuilds the global Database from a SaveDatabaseSharded directory:
/// verifies SHARDS.json (kDataLoss when missing or malformed), loads every
/// shard database (each verifying its own manifest), and merges — dimensions
/// from shard 0 (they are replicas), offers concatenated in ascending id
/// order, duplicates across shards rejected.
Result<Database> LoadDatabaseSharded(const std::string& directory);

}  // namespace flexvis::dw

#endif  // FLEXVIS_DW_PERSISTENCE_H_
