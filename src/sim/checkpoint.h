#ifndef FLEXVIS_SIM_CHECKPOINT_H_
#define FLEXVIS_SIM_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/online.h"
#include "util/json.h"
#include "util/status.h"
#include "util/store.h"

namespace flexvis::sim {

/// Crash-consistent checkpointing for the online planning loop, built on the
/// generational util/store engine. A checkpoint directory is one DurableStore
/// whose generation holds
///
///   meta.json       window + OnlineParams (the run's immutable inputs)
///   offers.jsonl    the input flex-offers, one message-format offer per line
///   state.json      (generations > 0 only) the folded tick record carrying
///                   every tick compacted so far
///   SNAPSHOT.json   the store manifest (generation + size/CRC over the
///                   files above), written last — the commit point
///   journal.wal     write-ahead journal of OnlineTickRecords, one frame per
///                   tick, flushed after every append
///
/// RunOnlineCheckpointed snapshots the inputs before the first tick and
/// journals every tick's decisions; ResumeOnline rebuilds the loop state by
/// replaying snapshot + folded state + journal — applying recorded
/// decisions, never re-running them — and continues the run, producing an
/// OnlineReport and outbox byte-identical to an uninterrupted run. A crash
/// before the snapshot manifest lands surfaces as kDataLoss (nothing was
/// promised yet; rerun from the inputs); a torn journal tail is truncated
/// and the lost ticks re-executed.
///
/// Compaction: with OnlineParams::compact_ticks = C > 0 the run folds the
/// journal into a new store generation after every C-th tick — the folded
/// record becomes state.json, the manifest commit supersedes the old
/// generation, and the WAL restarts empty — so a resume replays at most C
/// tick records no matter how long the run is. OnlineParams::compact_bytes
/// = B > 0 adds a size trigger on the same fold: the run also compacts as
/// soon as the journal's record payload since the last fold reaches B bytes
/// (Σ EncodeTickRecord sizes — a deterministic function of the decisions, so
/// the fold boundaries stay identical across reruns and resumes), bounding
/// resume replay by byte budget even when tick records vary wildly in size.
/// Either trigger may be used alone or both together. Generation > 0 files
/// carry a ".g<G>" suffix; recovery lands on exactly one committed
/// generation and garbage-collects the debris of the other.

inline constexpr const char* kCheckpointMetaFile = "meta.json";
inline constexpr const char* kCheckpointOffersFile = "offers.jsonl";
inline constexpr const char* kCheckpointStateFile = "state.json";
inline constexpr const char* kCheckpointManifestFile = "SNAPSHOT.json";
inline constexpr const char* kCheckpointJournalFile = "journal.wal";

/// Environment knobs for the compaction cadence. Unset or empty = off;
/// anything else must parse as a strictly positive integer (ticks between
/// folds / journal bytes between folds).
inline constexpr const char* kCompactTicksEnvVar = "FLEXVIS_COMPACT_TICKS";
inline constexpr const char* kCompactBytesEnvVar = "FLEXVIS_COMPACT_BYTES";

/// Parses $FLEXVIS_COMPACT_TICKS into an OnlineParams::compact_ticks value.
/// Unset/empty yields 0 (off); a set value that is unparsable, zero, or
/// negative is an InvalidArgument error naming the variable — a cadence of
/// zero is meaningless and silently ignoring it hid misconfigurations. The
/// benches and CLI wire it through explicitly — library code never reads the
/// environment behind a caller's back.
Result<int> CompactTicksFromEnv();

/// Same contract for $FLEXVIS_COMPACT_BYTES -> OnlineParams::compact_bytes.
Result<int64_t> CompactBytesFromEnv();

/// The store layout above as StoreOptions (manifest SNAPSHOT.json, WAL
/// journal.wal). The sharded coordinator opens one such store per shard.
StoreOptions CheckpointStoreOptions();

/// Observability of a recovery: how much state came back from disk.
struct ResumeInfo {
  /// Ticks recovered from the folded state.json of a compacted generation
  /// (no decision logic re-run, no per-tick records read).
  int ticks_folded = 0;
  /// Ticks reconstructed from the journal (no decision logic re-run).
  int ticks_replayed = 0;
  /// Ticks executed live after the replay to finish the window.
  int ticks_continued = 0;
  /// Store generation the recovery landed on (0 = never compacted).
  int64_t generation = 0;
  /// True when the journal ended in a torn frame (crash mid-append); the
  /// debris was truncated before continuing.
  bool torn_tail = false;
  /// Bytes of journal debris discarded.
  uint64_t torn_bytes = 0;
};

/// Runs the online loop over `window` with checkpointing into `directory`
/// (created if needed; any previous run's checkpoint there is replaced).
/// Each tick is journaled and flushed before the next begins, so at every
/// instant the directory recovers to a prefix of this run.
Result<OnlineReport> RunOnlineCheckpointed(const OnlineParams& params,
                                           const std::vector<core::FlexOffer>& offers,
                                           const timeutil::TimeInterval& window,
                                           const std::string& directory);

/// Recovers a run from `directory`: verifies the committed store generation
/// (kDataLoss when the snapshot is partial or corrupt), applies the folded
/// state (if the run compacted) and the journal tail (truncating a torn
/// frame), then continues the remaining ticks — journaling and compacting on
/// the cadence recorded in meta.json — and returns the completed report.
/// Byte-identical to the report the uninterrupted run would have produced,
/// including the outbox stream.
Result<OnlineReport> ResumeOnline(const std::string& directory, ResumeInfo* info = nullptr);

/// Serialization of one tick record (exposed for tests and the recovery
/// bench): compact JSON via EncodeTickRecord, strict decode via
/// DecodeTickRecord (missing fields or type mismatches error; the overload /
/// compaction fields added later are optional-with-default so older journals
/// still replay).
std::string EncodeTickRecord(const OnlineTickRecord& record);
Result<OnlineTickRecord> DecodeTickRecord(std::string_view text);

/// One offer-state change as a JSON object ({"offer","state"} plus
/// {"start_min","kwh"} when a schedule is attached) — the element format of
/// a tick record's "changes" array. Exposed for the coordinator's
/// active-migration records, which carry the moved offers' decided states in
/// the same format.
JsonValue EncodeStateChange(const OnlineStateChange& change);
Result<OnlineStateChange> DecodeStateChange(const JsonValue& value);

/// Merges `record` (the next tick) into the running fold `*fold`: deltas
/// (changes, sent wires) concatenate in order, absolute fields (counters,
/// cursor, queues) come from `record`, and the result is marked folded.
/// Applying the fold of ticks 0..K onto a fresh Begin state reproduces the
/// live post-tick-K state byte for byte — the invariant compaction rests on.
void FoldTickRecordInto(OnlineTickRecord* fold, OnlineTickRecord record);

// ---- Snapshot codec (shared with sim/coordinator) ---------------------------
//
// The sharded coordinator namespaces one of these checkpoint stores per
// shard (shard-0000/, shard-0001/, ...) under its run directory, so every
// shard owns exactly the layout a single-enterprise checkpoint uses.

/// The immutable snapshot content (meta.json, offers.jsonl) for
/// DurableStore::Create/Compact. Never includes state.json — compaction
/// appends that itself.
StoreFiles EncodeOnlineSnapshot(const OnlineParams& params,
                                const std::vector<core::FlexOffer>& offers,
                                const timeutil::TimeInterval& window);

/// Decodes the run's immutable inputs out of a recovered checkpoint store.
/// `params->faults` is always left null — fault wiring is runtime state,
/// never persisted.
Status DecodeOnlineSnapshot(const StoreRecovery& recovery, OnlineParams* params,
                            std::vector<core::FlexOffer>* offers,
                            timeutil::TimeInterval* window);

}  // namespace flexvis::sim

#endif  // FLEXVIS_SIM_CHECKPOINT_H_
