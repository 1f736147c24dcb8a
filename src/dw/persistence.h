#ifndef FLEXVIS_DW_PERSISTENCE_H_
#define FLEXVIS_DW_PERSISTENCE_H_

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
/// `lod.bin` is `BuildLodPyramid(db, {})`, built before anything is written:
/// its kOutOfRange (an extent past kMaxLodSlices) refuses the save.
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
/// `BuildLodPyramid(db, {})`: the save ran that same column build over the
/// same offers, and a -0.0 energy, which the offer codec reads back as
/// +0.0, folds as +0.0 in both. Without one the database loads the same,
/// with no pyramid attached.
Result<Database> LoadDatabase(const std::string& directory);

}  // namespace flexvis::dw

#endif  // FLEXVIS_DW_PERSISTENCE_H_
