#ifndef FLEXVIS_SIM_CHECKPOINT_H_
#define FLEXVIS_SIM_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/online.h"
#include "util/json.h"
#include "util/status.h"
#include "util/store.h"

namespace flexvis::sim {

/// The per-shard checkpoint store of the online planning loop and its
/// record codec. Every checkpointed online run goes through the coordinator
/// (sim/coordinator; a single enterprise is a 1-shard run), which keeps one
/// generational util/store store per shard (shard-0000/, shard-0001/, ...)
/// under its run directory. A shard store's generation holds
///
///   meta.json       window + the shard's OnlineParams (immutable inputs)
///   offers.jsonl    the shard's member flex-offers, one message-format offer
///                   per line, in global input order
///   state.json      (generations > 0 only) the folded tick record carrying
///                   every tick compacted so far
///   SNAPSHOT.json   the store manifest (generation + size/CRC over the
///                   files above), written last — the commit point
///   journal.wal     write-ahead journal: one tick record per tick (plus the
///                   coordinator's migration records), flushed every tick
///
/// A tick record (EncodeTickRecord) carries everything one tick decided —
/// offer-state changes, sent wires, post-tick counters, arrival cursor and
/// queues — so OnlineEnterprise::Apply replays it without re-running any
/// decision logic or fault draw. FoldTickRecordInto merges consecutive
/// records into one folded record: compaction (OnlineParams::compact_ticks =
/// C > 0) writes that fold as state.json of a new generation after every
/// C-th global tick and restarts the WAL, so a resume replays at most C
/// records no matter how long the run is. Generation > 0 files carry a
/// ".g<G>" suffix; recovery lands on exactly one committed generation and
/// garbage-collects the debris of the other.

inline constexpr const char* kCheckpointMetaFile = "meta.json";
inline constexpr const char* kCheckpointOffersFile = "offers.jsonl";
inline constexpr const char* kCheckpointStateFile = "state.json";
inline constexpr const char* kCheckpointManifestFile = "SNAPSHOT.json";
inline constexpr const char* kCheckpointJournalFile = "journal.wal";

/// Environment knob for the compaction cadence. Unset or empty = off;
/// anything else must parse as a strictly positive integer (ticks between
/// folds).
inline constexpr const char* kCompactTicksEnvVar = "FLEXVIS_COMPACT_TICKS";

/// Parses $FLEXVIS_COMPACT_TICKS into an OnlineParams::compact_ticks value.
/// Unset/empty yields 0 (off); a set value that is unparsable, zero, or
/// negative is an InvalidArgument error naming the variable — a cadence of
/// zero is meaningless and silently ignoring it hid misconfigurations. The
/// benches and CLI wire it through explicitly — library code never reads the
/// environment behind a caller's back.
Result<int> CompactTicksFromEnv();

/// The store layout above as StoreOptions (manifest SNAPSHOT.json, WAL
/// journal.wal). The sharded coordinator opens one such store per shard.
StoreOptions CheckpointStoreOptions();

/// Observability of one shard's recovery (an element of
/// ShardResumeInfo::shards): how much state came back from disk.
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

/// Serialization of one tick record: compact JSON via EncodeTickRecord,
/// strict decode via DecodeTickRecord (kDataLoss for missing fields, type
/// mismatches, or int fields outside int; the overload / compaction fields
/// added later are optional-with-default so older journals still replay).
/// The JsonValue overload decodes a record the caller already parsed.
std::string EncodeTickRecord(const OnlineTickRecord& record);
Result<OnlineTickRecord> DecodeTickRecord(std::string_view text);
Result<OnlineTickRecord> DecodeTickRecord(const JsonValue& json);

/// One offer-state change as a JSON object ({"offer","state"} plus
/// {"start_min","kwh"} when a schedule is attached) — the element format of
/// a tick record's "changes" array. Exposed for the coordinator's
/// active-migration records, which carry the moved offers' decided states in
/// the same format.
JsonValue EncodeStateChange(const OnlineStateChange& change);
Result<OnlineStateChange> DecodeStateChange(const JsonValue& value);

/// A list of offer ids as a JSON array of integers — the queue fields of a
/// tick record and of a migration record. DecodeIdArray replaces `*out`; its
/// kDataLoss messages start with `what` ("tick record field 'pend_acc'").
JsonValue EncodeIdArray(const std::vector<core::FlexOfferId>& ids);
Status DecodeIdArray(const JsonValue& value, const char* what,
                     std::vector<core::FlexOfferId>* out);

/// Narrows `record`'s decoded int field `field` ("journal record", "tick"):
/// kDataLoss naming both and the value when it lies outside int, where a
/// cast would silently wrap.
Status NarrowToInt(int64_t value, const char* record, const char* field, int* out);

/// Merges `record` (the next tick) into the running fold `*fold`: deltas
/// (changes, sent wires) concatenate in order, absolute fields (counters,
/// cursor, queues) come from `record`, and the result is marked folded.
/// Applying the fold of ticks 0..K onto a fresh Begin state reproduces the
/// live post-tick-K state byte for byte — the invariant compaction rests on.
void FoldTickRecordInto(OnlineTickRecord* fold, OnlineTickRecord record);

// ---- Snapshot codec -----------------------------------------------------------

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
