#ifndef FLEXVIS_UTIL_FILEIO_H_
#define FLEXVIS_UTIL_FILEIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace flexvis {

/// Crash-consistent file primitives shared by the warehouse snapshots
/// (dw/persistence), the online-run checkpoints (sim/checkpoint), and the
/// write-ahead journal (util/journal). The atomicity contract: after a crash
/// at *any* instruction, a path either holds its previous complete content
/// or its new complete content — never a prefix — and stale `.tmp` siblings
/// are the only possible debris.

/// Suffix of the scratch file WriteFileAtomic stages into before renaming.
/// Readers must ignore (and cleaners may delete) paths ending in it.
inline constexpr const char* kTmpSuffix = ".tmp";

/// Writes `data` to `path` atomically: stages into `path + ".tmp"` (unlinking
/// any stale staging name first, so a leftover hard link to another file is
/// never written through), checks for short writes and stream errors (a full
/// disk surfaces as a typed error, never a silently truncated file), fsyncs,
/// renames into place, and fsyncs the parent directory so the rename itself
/// is durable.
///
/// Consults the "util.fileio.write" injection point once before touching the
/// filesystem (the kill-matrix crash hook for every persistence write).
Status WriteFileAtomic(const std::string& path, std::string_view data);

/// Makes `to` name the bytes of `from` atomically, without copying them:
/// removes a stale `to + ".tmp"`, hard-links `from` there, renames it into
/// place, and fsyncs the parent directory. `from` must already be durable
/// (a committed snapshot file); the two names then share one inode, so
/// neither may ever be written in place. Where the filesystem cannot link
/// the pair (EXDEV, EPERM, ENOTSUP/EOPNOTSUPP, EMLINK) the bytes are copied
/// as WriteFileAtomic writes them. Any other failure, a missing `from`
/// included, is an error that leaves no `.tmp` behind.
///
/// Consults "util.fileio.write" once before touching the filesystem, as
/// WriteFileAtomic does, so a kill matrix crashes at every link step too.
Status LinkFileAtomic(const std::string& from, const std::string& to);

/// Reads the whole file. NotFound when the path does not exist or cannot be
/// opened; Internal on a read error mid-stream.
Result<std::string> ReadFileToString(const std::string& path);

/// One entry of a snapshot manifest: a file's name (relative to the manifest
/// directory), its exact size, and its CRC-32.
struct ManifestEntry {
  std::string name;
  uint64_t bytes = 0;
  uint32_t crc32 = 0;
};

/// Writes `<directory>/<manifest_name>` (atomically, via WriteFileAtomic)
/// recording size + CRC-32 for each named file as currently on disk. The
/// manifest must be written *after* the files it covers: a crash before the
/// manifest rename leaves the previous manifest (or none) in place, so a
/// reader never trusts a half-written snapshot.
Status WriteManifest(const std::string& directory, const std::string& manifest_name,
                     const std::vector<std::string>& file_names);

/// Verifies `<directory>/<manifest_name>` against the files on disk.
/// Returns kDataLoss when the manifest is absent or unparsable, when a
/// listed file is missing, or when a size/CRC mismatches (partial or corrupt
/// snapshot); OK means every covered byte is exactly as stamped. Stale
/// `.tmp` debris is ignored.
Status VerifyManifest(const std::string& directory, const std::string& manifest_name);

}  // namespace flexvis

#endif  // FLEXVIS_UTIL_FILEIO_H_
