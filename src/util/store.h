#ifndef FLEXVIS_UTIL_STORE_H_
#define FLEXVIS_UTIL_STORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/journal.h"
#include "util/json.h"
#include "util/status.h"

namespace flexvis {

/// Generational durable store — the one durability engine behind the
/// warehouse snapshots (dw/persistence), the online-run checkpoints
/// (sim/checkpoint), and the sharded coordinator (sim/coordinator).
///
/// A *generation* is (snapshot files, WAL, manifest):
///
///   - snapshot files: full-state content written atomically, covered by
///     size + CRC-32 entries in the manifest;
///   - WAL: an append-only journal of records applied *after* the snapshot
///     (length+CRC framed, torn tails repaired on recovery);
///   - manifest: a JSON file naming the generation, every snapshot file's
///     size/CRC, and a caller-owned `meta` object. The manifest's atomic
///     rename is the SOLE commit point — after a crash at any instruction
///     the directory decodes to exactly one committed generation.
///
/// Generation 0 uses the plain logical file names (byte-compatible with the
/// pre-store layouts); generation G > 0 suffixes every snapshot file and the
/// WAL with ".g<G>" while the manifest keeps its fixed name. Compact() folds
/// the WAL into a next-generation snapshot in the crash-safe order
/// (write or hard-link snapshot', fsync, commit manifest', then delete the
/// old generation), and Recover() garbage-collects stale `.tmp` staging files
/// and orphaned non-current-generation files left by a crash on either side
/// of the commit. A snapshot file is never written in place, so one inode
/// may back the same file in consecutive generations.
///
/// Injection points: snapshot + manifest writes go through WriteFileAtomic
/// and carried snapshot files through LinkFileAtomic (both
/// "util.fileio.write"), WAL appends/flushes through JournalWriter
/// ("util.journal.append"/"util.journal.flush"), and compaction adds
/// "util.store.compact" (before the fold starts) and "util.store.delete"
/// (before the old generation is deleted) so the kill matrix can crash at
/// every write/fsync/commit/delete step inside compaction.

struct StoreOptions {
  /// Manifest file name inside the store directory, e.g. "SNAPSHOT.json".
  std::string manifest_name;
  /// Logical WAL name, e.g. "journal.wal". Empty for a snapshot-only store
  /// (Append/Flush/Compact are then FailedPrecondition).
  std::string journal_name;
  /// Optional fault points wrapped (with retries, per DefaultRetryPolicy)
  /// around snapshot-content writes and reads — dw/persistence keeps its
  /// "dw.persistence.save"/"dw.persistence.load" seams through these. Empty
  /// disables the wrapping; manifest I/O is never wrapped (it already fires
  /// "util.fileio.write").
  std::string write_retry_point;
  std::string read_retry_point;
};

/// Snapshot content handed to Create/Compact: (logical name, content) in
/// manifest order.
using StoreFiles = std::vector<std::pair<std::string, std::string>>;

/// Process-wide registry of pinned (store directory, generation) pairs — the
/// MVCC substrate of the concurrent serving layer (src/serve). A reader that
/// snapshots a generation pins it here; while a generation is pinned,
/// Compact() and the Recover()/Create() garbage-collection sweeps must not
/// delete its on-disk files, so the reader's snapshot stays reconstructible
/// for the whole life of the pin. Deletions that would have happened are
/// *deferred*: their paths are parked under the (directory, generation) key
/// and executed by the last Unpin — after firing the "util.store.delete"
/// injection point, so the kill matrix can crash a process between the
/// unpin and the deferred delete and prove the next Recover() sweeps the
/// debris (the crashed process's pins die with it).
///
/// Pins are process-local by design: they protect in-process readers, not
/// cross-process ones (those re-open their own committed generation).
/// Thread-safe; all methods may be called concurrently.
class StorePinRegistry {
 public:
  /// The registry every DurableStore consults.
  static StorePinRegistry& Global();

  /// Increments the pin count of (directory, generation). Directories are
  /// keyed by their canonical absolute path, so "./x" and "x" agree.
  void Pin(const std::string& directory, int64_t generation);

  /// Decrements the pin count. When the count reaches zero and deletions
  /// were deferred onto this generation, fires "util.store.delete" once and
  /// — unless the injection point failed or crashed — removes the deferred
  /// files. An injected failure leaves the files as debris for the next
  /// Recover() sweep; nothing is retried (the files are garbage either way).
  void Unpin(const std::string& directory, int64_t generation);

  /// True while (directory, generation) has at least one live pin.
  bool IsPinned(const std::string& directory, int64_t generation) const;

  /// Every pinned generation of `directory`, for the GC sweeps.
  std::set<int64_t> PinnedGenerations(const std::string& directory) const;

  /// Parks `paths` (absolute) for deletion when (directory, generation)
  /// loses its last pin. Precondition checked by callers, not enforced
  /// here: the pair should currently be pinned — otherwise the paths are
  /// deleted immediately.
  void DeferDelete(const std::string& directory, int64_t generation,
                   std::vector<std::string> paths);

  /// Live pins across every directory (observability for tests/benches).
  int64_t total_pins() const;
  /// Deferred deletions executed so far (after their fault check passed).
  int64_t deferred_deletes_run() const;

 private:
  struct Key {
    std::string directory;
    int64_t generation;
    bool operator<(const Key& other) const {
      if (directory != other.directory) return directory < other.directory;
      return generation < other.generation;
    }
  };

  mutable std::mutex mutex_;
  std::map<Key, int64_t> pins_;
  std::map<Key, std::vector<std::string>> deferred_;
  int64_t deferred_runs_ = 0;
};

/// RAII pin on one store generation: pins in the constructor (via
/// DurableStore::PinGeneration or explicitly), unpins on destruction or
/// Release(). Movable, not copyable; a moved-from or default-constructed pin
/// is empty and releases nothing.
class StoreGenerationPin {
 public:
  StoreGenerationPin() = default;
  StoreGenerationPin(std::string directory, int64_t generation);
  StoreGenerationPin(StoreGenerationPin&& other) noexcept;
  StoreGenerationPin& operator=(StoreGenerationPin&& other) noexcept;
  StoreGenerationPin(const StoreGenerationPin&) = delete;
  StoreGenerationPin& operator=(const StoreGenerationPin&) = delete;
  ~StoreGenerationPin();

  /// Unpins now (idempotent).
  void Release();

  bool empty() const { return directory_.empty(); }
  const std::string& directory() const { return directory_; }
  int64_t generation() const { return generation_; }

 private:
  std::string directory_;  // canonical; empty = no pin held
  int64_t generation_ = 0;
};

/// One snapshot file's manifest entry: its logical name, size and CRC-32.
struct StoreFileEntry {
  std::string name;
  uint64_t bytes = 0;
  uint32_t crc32 = 0;
};

/// What Recover() decoded from a store directory.
struct StoreRecovery {
  /// The committed generation named by the manifest.
  int64_t generation = 0;
  /// Verified snapshot content by logical name.
  std::map<std::string, std::string> files;
  /// The manifest's file entries in manifest order (the order Create/Compact
  /// received), each checked against the bytes in `files`.
  std::vector<StoreFileEntry> entries;
  /// Intact WAL records of the committed generation, in append order.
  /// Empty when the store is snapshot-only or the WAL was never started.
  std::vector<std::string> records;
  /// Caller meta object from the manifest (null when absent — legacy
  /// manifests written before the store engine carry none).
  JsonValue meta;
  /// Torn-tail diagnostics (the tail is repaired — truncated — before
  /// Recover returns, so these describe what was discarded).
  bool torn_tail = false;
  uint64_t torn_bytes = 0;
  std::string torn_detail;
  /// Paths (relative to the store directory) garbage-collected: stale
  /// `.tmp` staging files and orphaned files of non-committed generations.
  std::vector<std::string> removed_debris;
};

class DurableStore {
 public:
  DurableStore() = default;
  DurableStore(DurableStore&&) noexcept = default;
  DurableStore& operator=(DurableStore&&) noexcept = default;
  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// Starts a fresh generation-0 store in `directory` (created if needed).
  /// Invalidates any previous store FIRST — the manifest is removed before
  /// anything else so a crash mid-Create never leaves a manifest covering
  /// mixed content — then writes every snapshot file atomically, commits the
  /// manifest, and opens the WAL for appending (when `journal_name` is set).
  static Result<DurableStore> Create(const std::string& directory, const StoreOptions& options,
                                     const StoreFiles& files, const JsonValue& meta);

  /// Removes the manifest (the commit point) of any store in `directory`,
  /// so readers see kDataLoss until a new Create/commit. Used by callers
  /// that must invalidate before rewriting sibling state (e.g. the sharded
  /// warehouse removes SHARDS.json before rewriting shard subdirectories).
  static Status Invalidate(const std::string& directory, const StoreOptions& options);

  /// Invalidate() + remove the whole store directory. The manifest vanishes
  /// before any content does, so a crash mid-removal leaves an uncommitted
  /// husk (swept by the owner's next recovery pass), never a manifest paired
  /// with partial content. Removing a store that does not exist is OK.
  static Status Destroy(const std::string& directory, const StoreOptions& options);

  /// Decodes the committed generation: verifies the manifest against the
  /// snapshot files (kDataLoss on a missing/corrupt manifest or any
  /// size/CRC mismatch), replays the WAL tolerating a torn tail (repaired
  /// in place via TruncateJournal), and garbage-collects `.tmp` debris and
  /// orphaned other-generation files. Subdirectories and unrecognized names
  /// are never touched.
  static Result<StoreRecovery> Recover(const std::string& directory, const StoreOptions& options);

  /// Recover() + reopen the WAL of the committed generation for appending.
  /// The handle keeps the manifest entries Recover verified, so a later
  /// Recommit writes them back without checksumming the files again.
  /// `recovery`, when non-null, receives the decoded state.
  static Result<DurableStore> Resume(const std::string& directory, const StoreOptions& options,
                                     StoreRecovery* recovery);

  /// Frames and buffers one WAL record (durable after the next Flush).
  Status Append(std::string_view record);

  /// fsyncs the WAL — the durability point for appended records.
  Status Flush();

  /// Folds state into a new generation. Generation G+1 holds the current
  /// snapshot files in manifest order: each one `files` names is rewritten
  /// (atomic + fsynced), each one it does not name is carried forward by
  /// LinkFileAtomic with its verified manifest entry (no read, no CRC), and
  /// names new to the store are appended. Handing in every file is a full
  /// rewrite. Then the new manifest commits atomically, and only then are
  /// the old generation's snapshot names and WAL deleted (a carried file's
  /// bytes live on under its new name). The WAL writer switches to the
  /// (empty) new-generation WAL. A crash anywhere inside recovers to exactly
  /// the old or the new generation — never a mix. When the old generation is
  /// pinned in the StorePinRegistry, its files are not deleted but parked for
  /// deferred deletion by the last Unpin.
  Status Compact(const StoreFiles& files, const JsonValue& meta);

  /// Rewrites the manifest in place — same generation, same snapshot file
  /// entries — with a new `meta` object. The atomic manifest rename is the
  /// commit point, e.g. for the coordinator's epoch/override updates.
  Status Recommit(const JsonValue& meta);

  /// Flushes and closes the WAL. The destructor closes without flushing
  /// (crash semantics: unflushed records are not promised).
  Status Close();

  /// Pins the committed generation in the process-wide StorePinRegistry so
  /// Compact() and the GC sweeps defer deleting its files until the pin is
  /// released. The serving layer pins the generation a reader snapshots.
  StoreGenerationPin PinGeneration() const;

  bool is_open() const { return open_; }
  int64_t generation() const { return generation_; }
  const std::string& directory() const { return directory_; }
  /// Records appended through this handle (not counting recovered ones).
  int64_t records_appended() const { return journal_.records_appended(); }

  /// Physical on-disk name for `logical` at `generation` (gen 0 is the
  /// plain name, gen G > 0 appends ".g<G>"). Exposed for tests and debris
  /// inspection.
  static std::string GenerationFileName(const std::string& logical, int64_t generation);

 private:
  std::string directory_;
  StoreOptions options_;
  int64_t generation_ = 0;
  /// Manifest entries of the committed generation, cached so Recommit need
  /// not re-read disk.
  std::vector<StoreFileEntry> entries_;
  JournalWriter journal_;
  bool open_ = false;
};

}  // namespace flexvis

#endif  // FLEXVIS_UTIL_STORE_H_
