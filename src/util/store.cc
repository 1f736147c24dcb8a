#include "util/store.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <optional>
#include <utility>

#include "util/crc32.h"
#include "util/fault.h"
#include "util/fileio.h"
#include "util/retry.h"
#include "util/strings.h"

namespace flexvis {

namespace fs = std::filesystem;

namespace {

/// Canonical directory key for the pin registry: absolute and lexically
/// normal, so every spelling of one directory maps to one pin entry.
std::string CanonicalDirectory(const std::string& directory) {
  std::error_code ec;
  fs::path absolute = fs::absolute(directory, ec);
  if (ec) absolute = fs::path(directory);
  return absolute.lexically_normal().string();
}

}  // namespace

StorePinRegistry& StorePinRegistry::Global() {
  static StorePinRegistry* registry = new StorePinRegistry();
  return *registry;
}

void StorePinRegistry::Pin(const std::string& directory, int64_t generation) {
  const Key key{CanonicalDirectory(directory), generation};
  std::lock_guard<std::mutex> lock(mutex_);
  ++pins_[key];
}

void StorePinRegistry::Unpin(const std::string& directory, int64_t generation) {
  const Key key{CanonicalDirectory(directory), generation};
  std::vector<std::string> run_now;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pins_.find(key);
    if (it == pins_.end()) return;
    if (--it->second > 0) return;
    pins_.erase(it);
    auto deferred = deferred_.find(key);
    if (deferred != deferred_.end()) {
      run_now = std::move(deferred->second);
      deferred_.erase(deferred);
    }
  }
  if (run_now.empty()) return;
  // The last pin is gone but the files are still on disk: a crash here (the
  // kill matrix arms util.store.delete with crash_at_hit) leaves orphaned
  // old-generation debris for the next Recover() sweep — which now may
  // remove it, precisely because no pin survives a process.
  if (!FaultRegistry::Global().Hit("util.store.delete").ok()) return;
  for (const std::string& path : run_now) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++deferred_runs_;
}

bool StorePinRegistry::IsPinned(const std::string& directory, int64_t generation) const {
  const Key key{CanonicalDirectory(directory), generation};
  std::lock_guard<std::mutex> lock(mutex_);
  return pins_.find(key) != pins_.end();
}

std::set<int64_t> StorePinRegistry::PinnedGenerations(const std::string& directory) const {
  const std::string canonical = CanonicalDirectory(directory);
  std::set<int64_t> generations;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, count] : pins_) {
    if (key.directory == canonical && count > 0) generations.insert(key.generation);
  }
  return generations;
}

void StorePinRegistry::DeferDelete(const std::string& directory, int64_t generation,
                                   std::vector<std::string> paths) {
  const Key key{CanonicalDirectory(directory), generation};
  bool pinned = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    pinned = pins_.find(key) != pins_.end();
    if (pinned) {
      std::vector<std::string>& parked = deferred_[key];
      parked.insert(parked.end(), std::make_move_iterator(paths.begin()),
                    std::make_move_iterator(paths.end()));
    }
  }
  if (pinned) return;
  for (const std::string& path : paths) {
    std::error_code ec;
    fs::remove(path, ec);
  }
}

int64_t StorePinRegistry::total_pins() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t total = 0;
  for (const auto& [key, count] : pins_) total += count;
  return total;
}

int64_t StorePinRegistry::deferred_deletes_run() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deferred_runs_;
}

StoreGenerationPin::StoreGenerationPin(std::string directory, int64_t generation)
    : directory_(CanonicalDirectory(directory)), generation_(generation) {
  StorePinRegistry::Global().Pin(directory_, generation_);
}

StoreGenerationPin::StoreGenerationPin(StoreGenerationPin&& other) noexcept
    : directory_(std::move(other.directory_)), generation_(other.generation_) {
  other.directory_.clear();
}

StoreGenerationPin& StoreGenerationPin::operator=(StoreGenerationPin&& other) noexcept {
  if (this != &other) {
    Release();
    directory_ = std::move(other.directory_);
    generation_ = other.generation_;
    other.directory_.clear();
  }
  return *this;
}

StoreGenerationPin::~StoreGenerationPin() { Release(); }

void StoreGenerationPin::Release() {
  if (directory_.empty()) return;
  StorePinRegistry::Global().Unpin(directory_, generation_);
  directory_.clear();
}

namespace {

/// Snapshot-content write, optionally wrapped in the caller's retry seam.
Status WriteContent(const StoreOptions& options, const std::string& path, std::string_view data) {
  if (options.write_retry_point.empty()) return WriteFileAtomic(path, data);
  return RetryFaultPoint(options.write_retry_point, DefaultRetryPolicy(),
                         [&] { return WriteFileAtomic(path, data); });
}

/// Snapshot-content read, optionally wrapped in the caller's retry seam.
Result<std::string> ReadContent(const StoreOptions& options, const std::string& path) {
  if (options.read_retry_point.empty()) return ReadFileToString(path);
  std::string out;
  Status status = RetryFaultPoint(options.read_retry_point, DefaultRetryPolicy(), [&]() -> Status {
    Result<std::string> data = ReadFileToString(path);
    if (!data.ok()) return data.status();
    out = *std::move(data);
    return OkStatus();
  });
  if (!status.ok()) return status;
  return out;
}

/// Which generation of `logical` a directory entry `base` is, or nullopt
/// when it is not a generation variant of `logical` at all. Plain names are
/// generation 0; "name.g<K>" (K >= 1, all digits) is generation K.
std::optional<int64_t> GenerationOf(const std::string& base, const std::string& logical) {
  if (base == logical) return 0;
  const std::string prefix = logical + ".g";
  if (base.size() <= prefix.size() || base.compare(0, prefix.size(), prefix) != 0) {
    return std::nullopt;
  }
  int64_t generation = 0;
  for (size_t i = prefix.size(); i < base.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(base[i]))) return std::nullopt;
    generation = generation * 10 + (base[i] - '0');
  }
  return generation;
}

/// Removes every file in `directory` that the store can prove is debris:
/// `.tmp` staging leftovers of known names and generation variants of known
/// names whose generation is not `keep_generation` (pass a negative
/// keep_generation to remove every generation). A non-`.tmp` file of a
/// generation pinned in the StorePinRegistry is *not* removed — a live
/// reader still snapshots it — but parked for deferred deletion by the last
/// unpin. Unknown names and subdirectories are never touched. Returns the
/// removed file names.
std::vector<std::string> GarbageCollect(const std::string& directory, const StoreOptions& options,
                                        const std::vector<std::string>& logical_names,
                                        int64_t keep_generation) {
  std::vector<std::string> known = logical_names;
  if (!options.journal_name.empty()) known.push_back(options.journal_name);
  const std::set<int64_t> pinned = StorePinRegistry::Global().PinnedGenerations(directory);
  std::map<int64_t, std::vector<std::string>> deferred;
  std::vector<std::string> removed;
  std::error_code ec;
  fs::directory_iterator it(directory, ec);
  if (ec) return removed;
  for (const fs::directory_entry& entry : it) {
    std::error_code type_ec;
    if (!entry.is_regular_file(type_ec)) continue;
    const std::string name = entry.path().filename().string();
    std::string base = name;
    bool is_tmp = false;
    if (base.size() > 4 && base.ends_with(kTmpSuffix)) {
      base.resize(base.size() - 4);
      is_tmp = true;
    }
    bool remove = false;
    std::optional<int64_t> file_generation;
    if (base == options.manifest_name) {
      remove = is_tmp;  // a manifest staging file is always debris
    } else {
      for (const std::string& logical : known) {
        std::optional<int64_t> generation = GenerationOf(base, logical);
        if (!generation.has_value()) continue;
        remove = is_tmp || keep_generation < 0 || *generation != keep_generation;
        file_generation = generation;
        break;
      }
    }
    if (!remove) continue;
    // Pinned-generation snapshot/WAL content outlives the sweep: a live
    // reader's snapshot still resolves to these bytes. (`.tmp` staging files
    // are never read by anyone and stay removable.)
    if (!is_tmp && file_generation.has_value() && pinned.count(*file_generation) > 0) {
      deferred[*file_generation].push_back(entry.path().string());
      continue;
    }
    std::error_code rm_ec;
    if (fs::remove(entry.path(), rm_ec)) removed.push_back(name);
  }
  for (auto& [generation, paths] : deferred) {
    StorePinRegistry::Global().DeferDelete(directory, generation, std::move(paths));
  }
  return removed;
}

}  // namespace

std::string DurableStore::GenerationFileName(const std::string& logical, int64_t generation) {
  if (generation <= 0) return logical;
  return StrFormat("%s.g%lld", logical.c_str(), static_cast<long long>(generation));
}

Status DurableStore::Invalidate(const std::string& directory, const StoreOptions& options) {
  std::error_code ec;
  fs::remove(fs::path(directory) / options.manifest_name, ec);
  if (ec) {
    return InternalError(StrFormat("cannot remove store manifest '%s' under '%s': %s",
                                   options.manifest_name.c_str(), directory.c_str(),
                                   ec.message().c_str()));
  }
  return OkStatus();
}

Status DurableStore::Destroy(const std::string& directory, const StoreOptions& options) {
  std::error_code ec;
  if (!fs::exists(directory, ec)) return OkStatus();
  FLEXVIS_RETURN_IF_ERROR(Invalidate(directory, options));
  FLEXVIS_FAULT_CHECK("util.store.delete");
  fs::remove_all(directory, ec);
  if (ec) {
    return InternalError(StrFormat("cannot remove store directory '%s': %s", directory.c_str(),
                                   ec.message().c_str()));
  }
  return OkStatus();
}

Result<DurableStore> DurableStore::Create(const std::string& directory,
                                          const StoreOptions& options, const StoreFiles& files,
                                          const JsonValue& meta) {
  if (options.manifest_name.empty()) {
    return InvalidArgumentError("store options need a manifest_name");
  }
  std::error_code ec;
  fs::create_directories(directory, ec);
  if (ec) {
    return InternalError(
        StrFormat("cannot create store directory '%s': %s", directory.c_str(),
                  ec.message().c_str()));
  }
  // Invalidation order matters: the manifest (the commit point) goes first,
  // so a crash anywhere inside Create leaves no manifest pairing old files
  // with new content. Then clear every generation of the known files.
  FLEXVIS_RETURN_IF_ERROR(Invalidate(directory, options));
  std::vector<std::string> names;
  names.reserve(files.size());
  for (const auto& [name, content] : files) names.push_back(name);
  GarbageCollect(directory, options, names, /*keep_generation=*/-1);

  DurableStore store;
  store.directory_ = directory;
  store.options_ = options;
  store.generation_ = 0;
  const fs::path dir(directory);
  for (const auto& [name, content] : files) {
    FLEXVIS_RETURN_IF_ERROR(WriteContent(options, (dir / name).string(), content));
    store.entries_.push_back({name, content.size(), Crc32(content)});
  }
  FLEXVIS_RETURN_IF_ERROR(store.Recommit(meta));
  if (!options.journal_name.empty()) {
    Result<JournalWriter> writer = JournalWriter::Open((dir / options.journal_name).string());
    if (!writer.ok()) return writer.status();
    store.journal_ = *std::move(writer);
  }
  store.open_ = true;
  return store;
}

Result<StoreRecovery> DurableStore::Recover(const std::string& directory,
                                            const StoreOptions& options) {
  const fs::path dir(directory);
  Result<std::string> text = ReadFileToString((dir / options.manifest_name).string());
  if (!text.ok()) {
    return DataLossError(StrFormat("store manifest '%s' missing under '%s': %s",
                                   options.manifest_name.c_str(), directory.c_str(),
                                   text.status().message().c_str()));
  }
  Result<JsonValue> manifest = JsonValue::Parse(*text);
  if (!manifest.ok() || !manifest->is_object() || !manifest->Get("files").is_array()) {
    return DataLossError(
        StrFormat("store manifest '%s' is corrupt", options.manifest_name.c_str()));
  }
  StoreRecovery recovery;
  // Manifests written before the store engine (WriteManifest) carry no
  // generation or meta: default to generation 0, null meta.
  const JsonValue& generation = manifest->Get("generation");
  recovery.generation = generation.is_int() ? generation.AsInt() : 0;
  recovery.meta = manifest->Get("meta");

  const JsonValue& files = manifest->Get("files");
  std::vector<std::string> logical_names;
  recovery.entries.reserve(files.size());
  for (size_t i = 0; i < files.size(); ++i) {
    const JsonValue& entry = files[i];
    Result<std::string> name = entry.GetString("name");
    Result<int64_t> bytes = entry.GetInt("bytes");
    Result<int64_t> crc = entry.GetInt("crc32");
    if (!name.ok() || !bytes.ok() || !crc.ok()) {
      return DataLossError(StrFormat("store manifest '%s' entry %zu is malformed",
                                     options.manifest_name.c_str(), i));
    }
    const std::string physical = GenerationFileName(*name, recovery.generation);
    Result<std::string> data = ReadContent(options, (dir / physical).string());
    if (!data.ok()) {
      if (data.status().code() == StatusCode::kNotFound) {
        return DataLossError(
            StrFormat("snapshot file '%s' listed in manifest is missing", physical.c_str()));
      }
      return data.status();
    }
    if (static_cast<int64_t>(data->size()) != *bytes) {
      return DataLossError(StrFormat("snapshot file '%s' is %zu bytes, manifest says %lld "
                                     "(truncated or partially written)",
                                     physical.c_str(), data->size(),
                                     static_cast<long long>(*bytes)));
    }
    if (static_cast<int64_t>(Crc32(*data)) != *crc) {
      return DataLossError(
          StrFormat("snapshot file '%s' fails its CRC-32 check (corrupt)", physical.c_str()));
    }
    recovery.files[*name] = *std::move(data);
    recovery.entries.push_back(
        {*name, static_cast<uint64_t>(*bytes), static_cast<uint32_t>(*crc)});
    logical_names.push_back(*std::move(name));
  }

  if (!options.journal_name.empty()) {
    const std::string wal =
        (dir / GenerationFileName(options.journal_name, recovery.generation)).string();
    Result<JournalReplay> replay = ReplayJournal(wal);
    if (replay.ok()) {
      recovery.records = std::move(replay->records);
      if (replay->torn_tail) {
        recovery.torn_tail = true;
        recovery.torn_bytes = replay->torn_bytes;
        recovery.torn_detail = TornTailStatus(wal, *replay).message();
        FLEXVIS_RETURN_IF_ERROR(TruncateJournal(wal, replay->valid_bytes));
      }
    } else if (replay.status().code() != StatusCode::kNotFound) {
      return replay.status();
    }
    // NotFound: the WAL of this generation was never started (e.g. a crash
    // right after a compaction commit) — zero records is the right reading.
  }

  recovery.removed_debris =
      GarbageCollect(directory, options, logical_names, recovery.generation);
  return recovery;
}

Result<DurableStore> DurableStore::Resume(const std::string& directory,
                                          const StoreOptions& options, StoreRecovery* recovery) {
  Result<StoreRecovery> recovered = Recover(directory, options);
  if (!recovered.ok()) return recovered.status();
  DurableStore store;
  store.directory_ = directory;
  store.options_ = options;
  store.generation_ = recovered->generation;
  store.entries_ = recovered->entries;
  if (!options.journal_name.empty()) {
    const std::string wal =
        (fs::path(directory) / GenerationFileName(options.journal_name, store.generation_))
            .string();
    Result<JournalWriter> writer = JournalWriter::Open(wal);
    if (!writer.ok()) return writer.status();
    store.journal_ = *std::move(writer);
  }
  store.open_ = true;
  if (recovery != nullptr) *recovery = *std::move(recovered);
  return store;
}

Status DurableStore::Append(std::string_view record) {
  if (!open_) return FailedPreconditionError("store is not open");
  if (options_.journal_name.empty()) {
    return FailedPreconditionError("snapshot-only store has no WAL to append to");
  }
  return journal_.Append(record);
}

Status DurableStore::Flush() {
  if (!open_) return FailedPreconditionError("store is not open");
  if (options_.journal_name.empty()) {
    return FailedPreconditionError("snapshot-only store has no WAL to flush");
  }
  return journal_.Flush();
}

Status DurableStore::Recommit(const JsonValue& meta) {
  JsonValue files = JsonValue::Array();
  for (const StoreFileEntry& file : entries_) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", JsonValue::Str(file.name));
    entry.Set("bytes", JsonValue::Int(static_cast<int64_t>(file.bytes)));
    entry.Set("crc32", JsonValue::Int(static_cast<int64_t>(file.crc32)));
    files.Append(std::move(entry));
  }
  JsonValue manifest = JsonValue::Object();
  manifest.Set("schema_version", JsonValue::Int(1));
  manifest.Set("generation", JsonValue::Int(generation_));
  manifest.Set("files", std::move(files));
  if (!meta.is_null()) manifest.Set("meta", meta);
  return WriteFileAtomic((fs::path(directory_) / options_.manifest_name).string(),
                         manifest.Dump());
}

Status DurableStore::Compact(const StoreFiles& files, const JsonValue& meta) {
  if (!open_) return FailedPreconditionError("store is not open");
  if (options_.journal_name.empty()) {
    return FailedPreconditionError("snapshot-only store cannot compact");
  }
  FLEXVIS_FAULT_CHECK("util.store.compact");
  const int64_t next = generation_ + 1;
  const fs::path dir(directory_);

  // 1. Build the next generation's snapshot files: the current files in
  //    manifest order, then names new to the store. A file `files` names is
  //    written (atomic + fsynced); every other current file is carried
  //    forward by hard link with its verified entry. The old generation's
  //    bytes are never written.
  std::vector<std::pair<std::string, const std::string*>> plan;  // null: carry
  plan.reserve(entries_.size() + files.size());
  for (const StoreFileEntry& current : entries_) plan.emplace_back(current.name, nullptr);
  for (const auto& [name, content] : files) {
    auto slot = std::find_if(plan.begin(), plan.end(),
                             [&](const auto& entry) { return entry.first == name; });
    if (slot == plan.end()) {
      plan.emplace_back(name, &content);
    } else {
      slot->second = &content;
    }
  }
  std::vector<StoreFileEntry> next_entries;
  for (size_t i = 0; i < plan.size(); ++i) {
    const auto& [name, content] = plan[i];
    const std::string path = (dir / GenerationFileName(name, next)).string();
    if (content == nullptr) {
      FLEXVIS_RETURN_IF_ERROR(
          LinkFileAtomic((dir / GenerationFileName(name, generation_)).string(), path));
      next_entries.push_back(entries_[i]);
    } else {
      FLEXVIS_RETURN_IF_ERROR(WriteContent(options_, path, *content));
      next_entries.push_back({name, content->size(), Crc32(*content)});
    }
  }

  // 2. Commit: the manifest rename atomically supersedes the old generation.
  const int64_t old_generation = generation_;
  const std::vector<StoreFileEntry> old_entries = std::move(entries_);
  entries_ = std::move(next_entries);
  generation_ = next;
  Status committed = Recommit(meta);
  if (!committed.ok()) {
    entries_ = old_entries;
    generation_ = old_generation;
    return committed;
  }

  // 3. Release the old WAL handle without flushing (its records are folded
  //    into the new snapshot), then delete the old generation. A generation
  //    pinned by a live reader is not deleted here: its files are parked in
  //    the pin registry and removed by the last Unpin (which fires the same
  //    util.store.delete injection point before touching disk).
  journal_ = JournalWriter();
  std::vector<std::string> old_paths;
  old_paths.reserve(old_entries.size() + 1);
  for (const StoreFileEntry& file : old_entries) {
    old_paths.push_back((dir / GenerationFileName(file.name, old_generation)).string());
  }
  old_paths.push_back(
      (dir / GenerationFileName(options_.journal_name, old_generation)).string());
  if (StorePinRegistry::Global().IsPinned(directory_, old_generation)) {
    StorePinRegistry::Global().DeferDelete(directory_, old_generation, std::move(old_paths));
  } else {
    FLEXVIS_FAULT_CHECK("util.store.delete");
    for (const std::string& path : old_paths) {
      std::error_code ec;
      fs::remove(path, ec);
    }
  }

  // 4. Start the (empty) new-generation WAL.
  Result<JournalWriter> writer =
      JournalWriter::Open((dir / GenerationFileName(options_.journal_name, next)).string());
  if (!writer.ok()) return writer.status();
  journal_ = *std::move(writer);
  return OkStatus();
}

Status DurableStore::Close() {
  if (!open_) return OkStatus();
  open_ = false;
  if (journal_.is_open()) return journal_.Close();
  return OkStatus();
}

StoreGenerationPin DurableStore::PinGeneration() const {
  return StoreGenerationPin(directory_, generation_);
}

}  // namespace flexvis
