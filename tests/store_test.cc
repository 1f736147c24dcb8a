// Tests for the generational durable store (util/store) — the one engine
// behind dw/persistence snapshots, sim/checkpoint runs, and the sharded
// coordinator. The core contract under test: the manifest's atomic rename is
// the SOLE commit point, so after a crash at any instruction — including at
// every byte of an in-flight compaction — the directory decodes to exactly
// one committed generation, never a mix.

#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <sys/stat.h>

#include "util/crc32.h"
#include "util/fileio.h"
#include "util/json.h"
#include "util/status.h"
#include "util/store.h"

namespace flexvis {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const std::string& name) {
  fs::path dir = fs::temp_directory_path() / "flexvis_store_test" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void WriteRaw(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string ReadRaw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

StoreOptions TestOptions() {
  StoreOptions options;
  options.manifest_name = "MANIFEST.json";
  options.journal_name = "journal.wal";
  return options;
}

JsonValue MetaTagged(int64_t tag) {
  JsonValue meta = JsonValue::Object();
  meta.Set("tag", JsonValue::Int(tag));
  return meta;
}

/// Every regular file directly under `dir`, by name.
std::map<std::string, std::string> SnapshotDir(const std::string& dir) {
  std::map<std::string, std::string> state;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      state[entry.path().filename().string()] = ReadRaw(entry.path().string());
    }
  }
  return state;
}

void RestoreDir(const std::string& dir, const std::map<std::string, std::string>& state) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const auto& [name, bytes] : state) WriteRaw(dir + "/" + name, bytes);
}

TEST(StoreTest, CreateResumeRecoverRoundtrip) {
  const std::string dir = TempDir("roundtrip");
  StoreFiles files = {{"state.json", "{\"x\":1}"}, {"offers.jsonl", "a\nb\n"}};
  Result<DurableStore> store = DurableStore::Create(dir, TestOptions(), files, MetaTagged(7));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->generation(), 0);
  ASSERT_TRUE(store->Append("rec-1").ok());
  ASSERT_TRUE(store->Append("rec-2").ok());
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Close().ok());

  Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->generation, 0);
  EXPECT_EQ(recovery->files.at("state.json"), "{\"x\":1}");
  EXPECT_EQ(recovery->files.at("offers.jsonl"), "a\nb\n");
  ASSERT_EQ(recovery->entries.size(), 2u);
  EXPECT_EQ(recovery->entries[0].name, "state.json");
  EXPECT_EQ(recovery->entries[1].name, "offers.jsonl");
  EXPECT_EQ(recovery->entries[1].bytes, 4u);
  EXPECT_EQ(recovery->entries[1].crc32, Crc32("a\nb\n"));
  EXPECT_EQ(recovery->records, (std::vector<std::string>{"rec-1", "rec-2"}));
  ASSERT_TRUE(recovery->meta.is_object());
  EXPECT_EQ(recovery->meta.Get("tag").AsInt(), 7);
  EXPECT_FALSE(recovery->torn_tail);

  // Resume reopens the WAL; appends land after the recovered records.
  Result<DurableStore> resumed = DurableStore::Resume(dir, TestOptions(), nullptr);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(resumed->Append("rec-3").ok());
  ASSERT_TRUE(resumed->Close().ok());
  recovery = DurableStore::Recover(dir, TestOptions());
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records, (std::vector<std::string>{"rec-1", "rec-2", "rec-3"}));
}

TEST(StoreTest, LegacyManifestReadsAsGenerationZeroWithNullMeta) {
  // Manifests written before the store engine (no generation, no meta) must
  // keep decoding: generation 0, meta null.
  const std::string dir = TempDir("legacy");
  ASSERT_TRUE(WriteFileAtomic(dir + "/state.json", "legacy-state").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/offers.jsonl", "legacy-offers\n").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/MANIFEST.json",
                              R"({"files":[{"bytes":12,"crc32":4131018460,"name":"state.json"},)"
                              R"({"bytes":14,"crc32":2803324169,"name":"offers.jsonl"}],)"
                              R"("schema_version":1})")
                  .ok());

  Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->generation, 0);
  EXPECT_TRUE(recovery->meta.is_null());
  EXPECT_EQ(recovery->files.at("state.json"), "legacy-state");
  EXPECT_EQ(recovery->files.at("offers.jsonl"), "legacy-offers\n");
  EXPECT_TRUE(recovery->records.empty());
}

TEST(StoreTest, MissingManifestIsDataLoss) {
  const std::string dir = TempDir("no_manifest");
  WriteRaw(dir + "/state.json", "content");
  Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
  ASSERT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.status().code(), StatusCode::kDataLoss);
}

TEST(StoreTest, RecoverCollectsDebrisButNeverUnknownNamesOrSubdirectories) {
  const std::string dir = TempDir("debris");
  StoreFiles files = {{"state.json", "current"}};
  Result<DurableStore> store = DurableStore::Create(dir, TestOptions(), files, JsonValue());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Close().ok());

  // Debris the GC must remove: stale .tmp staging and orphaned files of a
  // non-committed generation.
  WriteRaw(dir + "/state.json.tmp", "half-written");
  WriteRaw(dir + "/state.json.g7", "orphaned-generation");
  WriteRaw(dir + "/journal.wal.g7", "orphaned-wal");
  // Content the GC must never touch: unknown names (a generation suffix
  // past int64 included) and subdirectories.
  WriteRaw(dir + "/README.txt", "keep me");
  WriteRaw(dir + "/state.json.g99999999999999999999", "not a generation");
  fs::create_directories(dir + "/shard-0000");
  WriteRaw(dir + "/shard-0000/state.json", "nested store");

  Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->files.at("state.json"), "current");
  EXPECT_EQ(recovery->removed_debris.size(), 3u);
  EXPECT_FALSE(fs::exists(dir + "/state.json.tmp"));
  EXPECT_FALSE(fs::exists(dir + "/state.json.g7"));
  EXPECT_FALSE(fs::exists(dir + "/journal.wal.g7"));
  EXPECT_TRUE(fs::exists(dir + "/README.txt"));
  EXPECT_EQ(ReadRaw(dir + "/state.json.g99999999999999999999"), "not a generation");
  EXPECT_EQ(ReadRaw(dir + "/shard-0000/state.json"), "nested store");
}

TEST(StoreTest, RecoverRefusesAGenerationNoStoreCanHaveWritten) {
  // A negative generation would read to the sweep as "remove every
  // generation", the last one has no successor, and a fraction is no
  // generation at all. Each is refused before any file is read or swept,
  // even where the files carry that generation's names.
  for (const std::string hostile : {"-1", "9223372036854775807", "1.5"}) {
    const std::string dir = TempDir("hostile_generation");
    Result<DurableStore> store =
        DurableStore::Create(dir, TestOptions(), {{"state.json", "s"}, {"offers.jsonl", "o"}},
                             MetaTagged(0));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(store->Append("rec").ok());
    ASSERT_TRUE(store->Close().ok());
    if (hostile == "9223372036854775807") {
      const int64_t last = std::numeric_limits<int64_t>::max();
      for (const std::string name : {"state.json", "offers.jsonl", "journal.wal"}) {
        fs::rename(dir + "/" + name, dir + "/" + DurableStore::GenerationFileName(name, last));
      }
    }
    std::string manifest = ReadRaw(dir + "/MANIFEST.json");
    const size_t at = manifest.find("\"generation\":0");
    ASSERT_NE(at, std::string::npos) << manifest;
    manifest.replace(at, std::string("\"generation\":0").size(), "\"generation\":" + hostile);
    WriteRaw(dir + "/MANIFEST.json", manifest);
    const std::map<std::string, std::string> before = SnapshotDir(dir);

    Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
    ASSERT_FALSE(recovery.ok()) << hostile;
    EXPECT_EQ(recovery.status().code(), StatusCode::kDataLoss) << hostile;
    Result<DurableStore> resumed = DurableStore::Resume(dir, TestOptions(), nullptr);
    ASSERT_FALSE(resumed.ok()) << hostile;
    EXPECT_EQ(resumed.status().code(), StatusCode::kDataLoss) << hostile;
    EXPECT_EQ(SnapshotDir(dir), before) << hostile;
  }
}

TEST(StoreTest, CompactAdvancesGenerationAndDeletesTheOldOne) {
  const std::string dir = TempDir("compact");
  Result<DurableStore> store =
      DurableStore::Create(dir, TestOptions(), {{"state.json", "v0"}}, MetaTagged(0));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Append("old-1").ok());
  ASSERT_TRUE(store->Flush().ok());

  ASSERT_TRUE(store->Compact({{"state.json", "v1"}}, MetaTagged(1)).ok());
  EXPECT_EQ(store->generation(), 1);
  // Old generation gone, new generation under .g1 names.
  EXPECT_FALSE(fs::exists(dir + "/state.json"));
  EXPECT_FALSE(fs::exists(dir + "/journal.wal"));
  EXPECT_TRUE(fs::exists(dir + "/state.json.g1"));

  ASSERT_TRUE(store->Append("new-1").ok());
  ASSERT_TRUE(store->Close().ok());

  Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->generation, 1);
  EXPECT_EQ(recovery->files.at("state.json"), "v1");
  EXPECT_EQ(recovery->records, (std::vector<std::string>{"new-1"}));
  ASSERT_TRUE(recovery->meta.is_object());
  EXPECT_EQ(recovery->meta.Get("tag").AsInt(), 1);
}

/// The inode behind `path` (0 when it cannot be stat'ed).
ino_t InodeOf(const std::string& path) {
  struct stat info;
  return ::stat(path.c_str(), &info) == 0 ? info.st_ino : 0;
}

TEST(StoreTest, CompactCarriesFilesItIsNotHandedByHardLink) {
  const std::string dir = TempDir("carry");
  std::string offers(3 * kCrc32Chunk + 5, '\0');
  for (size_t i = 0; i < offers.size(); ++i) offers[i] = static_cast<char>((i * 37) >> 2);
  Result<DurableStore> store = DurableStore::Create(
      dir, TestOptions(), {{"meta.json", "{\"m\":1}"}, {"offers.jsonl", offers}}, MetaTagged(0));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store->Append("tick-0").ok());
  ASSERT_TRUE(store->Flush().ok());
  const ino_t offers_inode = InodeOf(dir + "/offers.jsonl");
  const ino_t meta_inode = InodeOf(dir + "/meta.json");
  ASSERT_NE(offers_inode, 0u);
  const std::string manifest = dir + "/" + TestOptions().manifest_name;
  Result<JsonValue> before = JsonValue::Parse(ReadRaw(manifest));
  ASSERT_TRUE(before.ok());

  // Only the new file is handed in: meta.json and offers.jsonl carry forward
  // in manifest order, the new name is appended, and the old generation's
  // names are deleted while the carried bytes live on.
  ASSERT_TRUE(store->Compact({{"state.json", "S1"}}, MetaTagged(1)).ok());
  EXPECT_FALSE(fs::exists(dir + "/offers.jsonl"));
  EXPECT_FALSE(fs::exists(dir + "/meta.json"));
  EXPECT_EQ(InodeOf(dir + "/offers.jsonl.g1"), offers_inode);
  EXPECT_EQ(InodeOf(dir + "/meta.json.g1"), meta_inode);
  EXPECT_EQ(fs::hard_link_count(dir + "/offers.jsonl.g1"), 1u);
  Result<JsonValue> after = JsonValue::Parse(ReadRaw(manifest));
  ASSERT_TRUE(after.ok());
  const JsonValue& files = after->Get("files");
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].Dump(), before->Get("files")[0].Dump());
  EXPECT_EQ(files[1].Dump(), before->Get("files")[1].Dump());
  EXPECT_EQ(files[2].Get("name").AsString(), "state.json");

  // A second carry keeps the inode; handing in a file rewrites it in place
  // in the manifest order with a new inode.
  ASSERT_TRUE(store->Compact({{"state.json", "S2"}}, MetaTagged(2)).ok());
  EXPECT_EQ(InodeOf(dir + "/offers.jsonl.g2"), offers_inode);
  const std::string rewritten = offers + "more\n";
  const StoreFiles full = {
      {"meta.json", "{\"m\":1}"}, {"offers.jsonl", rewritten}, {"state.json", "S3"}};
  ASSERT_TRUE(store->Compact(full, MetaTagged(3)).ok());
  EXPECT_NE(InodeOf(dir + "/offers.jsonl.g3"), offers_inode);
  ASSERT_TRUE(store->Compact({{"state.json", "S4"}}, MetaTagged(4)).ok());
  ASSERT_TRUE(store->Close().ok());

  Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_EQ(recovery->generation, 4);
  ASSERT_EQ(recovery->entries.size(), 3u);
  EXPECT_EQ(recovery->entries[0].name, "meta.json");
  EXPECT_EQ(recovery->entries[1].name, "offers.jsonl");
  EXPECT_EQ(recovery->entries[1].crc32, Crc32(rewritten));
  EXPECT_EQ(recovery->entries[2].name, "state.json");
  EXPECT_EQ(recovery->files.at("meta.json"), "{\"m\":1}");
  EXPECT_EQ(recovery->files.at("offers.jsonl"), rewritten);
  EXPECT_EQ(recovery->files.at("state.json"), "S4");
  EXPECT_TRUE(recovery->removed_debris.empty());
  EXPECT_EQ(SnapshotDir(dir).size(), 5u);  // 3 snapshot files, manifest, WAL
}

TEST(StoreTest, RecommitRewritesMetaWithoutTouchingFilesOrRecords) {
  const std::string dir = TempDir("recommit");
  Result<DurableStore> store =
      DurableStore::Create(dir, TestOptions(), {{"state.json", "fixed"}}, MetaTagged(1));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Append("rec").ok());
  ASSERT_TRUE(store->Flush().ok());
  ASSERT_TRUE(store->Recommit(MetaTagged(2)).ok());
  ASSERT_TRUE(store->Close().ok());

  Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->meta.Get("tag").AsInt(), 2);
  EXPECT_EQ(recovery->files.at("state.json"), "fixed");
  EXPECT_EQ(recovery->records, (std::vector<std::string>{"rec"}));
}

TEST(StoreTest, ResumeThenRecommitKeepsTheManifestFileEntries) {
  const std::string dir = TempDir("resume_recommit");
  // One file past two CRC chunks, so Create and Recover checksum it on the
  // worker pool.
  std::string big(2 * kCrc32Chunk + 7, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>((i * 131) >> 3);
  Result<DurableStore> store = DurableStore::Create(
      dir, TestOptions(), {{"state.json", "{\"x\":1}"}, {"offers.jsonl", big}}, MetaTagged(1));
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE(store->Close().ok());
  const std::string manifest = dir + "/" + TestOptions().manifest_name;
  Result<JsonValue> before = JsonValue::Parse(ReadRaw(manifest));
  ASSERT_TRUE(before.ok());

  // Resume hands over the entries Recover verified; Recommit writes them
  // back unchanged and only the meta moves.
  StoreRecovery recovery;
  Result<DurableStore> resumed = DurableStore::Resume(dir, TestOptions(), &recovery);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(recovery.entries.size(), 2u);
  EXPECT_EQ(recovery.entries[1].name, "offers.jsonl");
  EXPECT_EQ(recovery.entries[1].bytes, big.size());
  EXPECT_EQ(recovery.entries[1].crc32, Crc32(big));
  ASSERT_TRUE(resumed->Recommit(MetaTagged(2)).ok());
  ASSERT_TRUE(resumed->Close().ok());

  Result<JsonValue> after = JsonValue::Parse(ReadRaw(manifest));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->Get("files").Dump(), before->Get("files").Dump());
  EXPECT_EQ(after->Get("meta").Get("tag").AsInt(), 2);
  Result<StoreRecovery> reread = DurableStore::Recover(dir, TestOptions());
  ASSERT_TRUE(reread.ok()) << reread.status().ToString();
  EXPECT_EQ(reread->files.at("offers.jsonl"), big);
}

TEST(StoreTest, SnapshotOnlyStoreRejectsAppendAndCompact) {
  StoreOptions options;
  options.manifest_name = "MANIFEST.json";  // no journal_name
  const std::string dir = TempDir("snapshot_only");
  Result<DurableStore> store =
      DurableStore::Create(dir, options, {{"data.csv", "1,2\n"}}, JsonValue());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->Append("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store->Flush().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(store->Compact({{"data.csv", "3,4\n"}}, JsonValue()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(store->Close().ok());
}

TEST(StoreTest, InvalidateMakesRecoverDataLoss) {
  const std::string dir = TempDir("invalidate");
  Result<DurableStore> store =
      DurableStore::Create(dir, TestOptions(), {{"state.json", "x"}}, JsonValue());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->Close().ok());
  ASSERT_TRUE(DurableStore::Invalidate(dir, TestOptions()).ok());
  Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
  ASSERT_FALSE(recovery.ok());
  EXPECT_EQ(recovery.status().code(), StatusCode::kDataLoss);
}

// ---- The compaction-boundary sweep --------------------------------------------------
//
// Build a store, compact it, and capture the directory byte-for-byte on both
// sides of the manifest commit. Then reconstruct every possible crash state
// across the boundary — a partially written new-generation file before the
// commit, a torn new-generation WAL after it with the old generation not yet
// deleted — at EVERY truncation length, and assert recovery always lands on
// exactly the old or exactly the new generation. Never a mix, never an error
// (other than the manifest-corruption case, where kDataLoss is the contract).

/// The carried file of the boundary fixture: handed to Create, never to
/// Compact, so generation 1 links it.
constexpr const char* kCarriedBytes = "CARRIED-OFFERS\n";

struct BoundaryFixture {
  std::map<std::string, std::string> old_state;  // committed gen 0
  std::map<std::string, std::string> new_state;  // committed gen 1
  std::vector<std::string> old_records;
  std::vector<std::string> new_records;
};

BoundaryFixture BuildBoundary(const std::string& dir) {
  BoundaryFixture fixture;
  fixture.old_records = {"old-1", "old-22", "old-333"};
  fixture.new_records = {"new-1", "new-22"};
  const StoreFiles old_files = {{"state.json", "OLD-STATE"}, {"offers.jsonl", kCarriedBytes}};
  Result<DurableStore> store = DurableStore::Create(dir, TestOptions(), old_files, MetaTagged(0));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  for (const std::string& record : fixture.old_records) {
    EXPECT_TRUE(store->Append(record).ok());
  }
  EXPECT_TRUE(store->Flush().ok());
  fixture.old_state = SnapshotDir(dir);

  EXPECT_TRUE(store->Compact({{"state.json", "NEW-STATE"}}, MetaTagged(1)).ok());
  for (const std::string& record : fixture.new_records) {
    EXPECT_TRUE(store->Append(record).ok());
  }
  EXPECT_TRUE(store->Flush().ok());
  EXPECT_TRUE(store->Close().ok());
  fixture.new_state = SnapshotDir(dir);
  return fixture;
}

/// Asserts `recovery` decodes to exactly the fixture's old or new generation
/// (full snapshot content and a record prefix of that generation — mixing
/// generations is the corruption the store exists to prevent).
void ExpectOldOrNew(const StoreRecovery& recovery, const BoundaryFixture& fixture,
                    const std::string& context) {
  EXPECT_EQ(recovery.files.at("offers.jsonl"), kCarriedBytes) << context;
  if (recovery.generation == 0) {
    EXPECT_EQ(recovery.files.at("state.json"), "OLD-STATE") << context;
    EXPECT_EQ(recovery.meta.Get("tag").AsInt(), 0) << context;
    ASSERT_LE(recovery.records.size(), fixture.old_records.size()) << context;
    for (size_t i = 0; i < recovery.records.size(); ++i) {
      EXPECT_EQ(recovery.records[i], fixture.old_records[i]) << context;
    }
  } else {
    EXPECT_EQ(recovery.generation, 1) << context;
    EXPECT_EQ(recovery.files.at("state.json"), "NEW-STATE") << context;
    EXPECT_EQ(recovery.meta.Get("tag").AsInt(), 1) << context;
    ASSERT_LE(recovery.records.size(), fixture.new_records.size()) << context;
    for (size_t i = 0; i < recovery.records.size(); ++i) {
      EXPECT_EQ(recovery.records[i], fixture.new_records[i]) << context;
    }
  }
}

TEST(StoreTest, EveryByteCrashBeforeCompactionCommitRecoversOldGeneration) {
  const std::string build_dir = TempDir("boundary_pre_build");
  BoundaryFixture fixture = BuildBoundary(build_dir);
  const std::string new_file = fixture.new_state.at("state.json.g1");

  // Crash before the manifest commit: old generation fully committed, the
  // new generation's snapshot file present at every possible length (and as
  // a .tmp staging file), and the carried file not yet linked, linked under
  // its .g1 name, or linked under its staging name. Recovery must return the
  // complete old generation, sweep the .g1 debris, and leave the old
  // generation's bytes as they were.
  const std::string dir = TempDir("boundary_pre");
  for (size_t len = 0; len <= new_file.size(); ++len) {
    for (const char* name : {"state.json.g1", "state.json.g1.tmp"}) {
      for (const char* link : {"", "offers.jsonl.g1", "offers.jsonl.g1.tmp"}) {
        std::map<std::string, std::string> state = fixture.old_state;
        state[name] = new_file.substr(0, len);
        RestoreDir(dir, state);
        if (*link != '\0') fs::create_hard_link(dir + "/offers.jsonl", dir + "/" + link);
        const std::string context = std::string(name) + " len=" + std::to_string(len) +
                                    " link=" + (*link != '\0' ? link : "none");
        Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
        ASSERT_TRUE(recovery.ok()) << context << ": " << recovery.status().ToString();
        EXPECT_EQ(recovery->generation, 0) << context;
        ExpectOldOrNew(*recovery, fixture, context);
        EXPECT_EQ(recovery->records.size(), fixture.old_records.size()) << context;
        EXPECT_FALSE(fs::exists(dir + "/" + name)) << context;
        if (*link != '\0') {
          EXPECT_FALSE(fs::exists(dir + "/" + link)) << context;
        }
        for (const auto& [old_name, bytes] : fixture.old_state) {
          EXPECT_EQ(ReadRaw(dir + "/" + old_name), bytes) << context << " " << old_name;
        }
        EXPECT_EQ(fs::hard_link_count(dir + "/offers.jsonl"), 1u) << context;
      }
    }
  }
}

TEST(StoreTest, EveryByteCrashAfterCompactionCommitRecoversNewGeneration) {
  const std::string build_dir = TempDir("boundary_post_build");
  BoundaryFixture fixture = BuildBoundary(build_dir);
  const std::string new_wal = fixture.new_state.at("journal.wal.g1");

  // Crash after the manifest commit but before the old generation was
  // deleted: the new generation is committed, the old files linger (the
  // carried offers.jsonl.g1 still a hard link of the old offers.jsonl), and
  // the new WAL is torn at every possible length. Recovery must return the
  // new generation (a record prefix), never an old record, and delete the
  // stale old-generation names without losing the carried bytes.
  const std::string dir = TempDir("boundary_post");
  for (size_t len = 0; len <= new_wal.size(); ++len) {
    std::map<std::string, std::string> state = fixture.new_state;
    for (const auto& [name, bytes] : fixture.old_state) {
      if (name != TestOptions().manifest_name) state[name] = bytes;
    }
    state.erase("offers.jsonl.g1");
    state["journal.wal.g1"] = new_wal.substr(0, len);
    RestoreDir(dir, state);
    fs::create_hard_link(dir + "/offers.jsonl", dir + "/offers.jsonl.g1");
    const std::string context = "len=" + std::to_string(len);
    Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
    ASSERT_TRUE(recovery.ok()) << context << ": " << recovery.status().ToString();
    EXPECT_EQ(recovery->generation, 1) << context;
    ExpectOldOrNew(*recovery, fixture, context);
    EXPECT_FALSE(fs::exists(dir + "/state.json")) << context;
    EXPECT_FALSE(fs::exists(dir + "/journal.wal")) << context;
    EXPECT_FALSE(fs::exists(dir + "/offers.jsonl")) << context;
    EXPECT_EQ(ReadRaw(dir + "/offers.jsonl.g1"), kCarriedBytes) << context;
    // A committed store must also resume and keep appending.
    Result<DurableStore> resumed = DurableStore::Resume(dir, TestOptions(), nullptr);
    ASSERT_TRUE(resumed.ok()) << context << ": " << resumed.status().ToString();
    ASSERT_TRUE(resumed->Append("post-crash").ok()) << context;
    ASSERT_TRUE(resumed->Close().ok()) << context;
  }
}

TEST(StoreTest, EveryByteManifestTruncationIsDataLossOrACommittedGeneration) {
  const std::string build_dir = TempDir("boundary_manifest_build");
  BoundaryFixture fixture = BuildBoundary(build_dir);
  const std::string manifest = fixture.new_state.at("MANIFEST.json");

  // The manifest is written via atomic rename, so a torn manifest is outside
  // the crash contract — but a recovery that meets one (bit rot, manual
  // truncation) must still never decode a mixed state: every truncation is
  // either typed kDataLoss or a complete committed generation.
  const std::string dir = TempDir("boundary_manifest");
  for (size_t len = 0; len < manifest.size(); ++len) {
    std::map<std::string, std::string> state = fixture.new_state;
    state["MANIFEST.json"] = manifest.substr(0, len);
    RestoreDir(dir, state);
    Result<StoreRecovery> recovery = DurableStore::Recover(dir, TestOptions());
    const std::string context = "len=" + std::to_string(len);
    if (recovery.ok()) {
      ExpectOldOrNew(*recovery, fixture, context);
    } else {
      EXPECT_EQ(recovery.status().code(), StatusCode::kDataLoss) << context;
    }
  }
}

}  // namespace
}  // namespace flexvis
