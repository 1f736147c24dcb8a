#include "util/journal.h"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "util/crc32.h"
#include "util/fault.h"
#include "util/fileio.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/status.h"

namespace flexvis {
namespace {

namespace fs = std::filesystem;

std::string TempDir(const char* name) {
  fs::path dir = fs::temp_directory_path() / "flexvis_journal" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::string ReadAll(const std::string& path) {
  Result<std::string> data = ReadFileToString(path);
  EXPECT_TRUE(data.ok()) << data.status().ToString();
  return data.ok() ? *data : std::string();
}

void WriteAll(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::vector<std::string> SampleRecords() {
  return {"alpha", std::string(1, '\0') + std::string("binary\xff\x01 ok"),
          std::string(300, 'x'), "", "{\"tick\":4,\"sent\":[]}"};
}

Status AppendAll(const std::string& path, const std::vector<std::string>& records) {
  Result<JournalWriter> writer = JournalWriter::Open(path);
  if (!writer.ok()) return writer.status();
  for (const std::string& record : records) {
    FLEXVIS_RETURN_IF_ERROR(writer->Append(record));
  }
  return writer->Close();
}

// ---- Crc32 --------------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // The standard CRC-32 check value (IEEE 802.3, reflected 0xEDB88320).
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, SeedChains) {
  const std::string text = "123456789";
  uint32_t split = Crc32(text.substr(4), Crc32(text.substr(0, 4)));
  EXPECT_EQ(split, Crc32(text));
}

// The original bytewise CRC-32, kept as the reference for the slicing-by-8
// implementation.
uint32_t BytewiseCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, SlicingBy8MatchesBytewiseReference) {
  Rng rng(0xC3C32);
  std::vector<uint8_t> buffer(8 + 67 + 4096);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  // Every length 0..67 at every alignment 0..7, so each head, 8-byte body
  // and tail combination is covered, with zero and random seeds.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 67; ++length) {
      const uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(Crc32(data, length), BytewiseCrc32(data, length, 0))
          << "offset " << offset << " length " << length;
      const uint32_t seed = static_cast<uint32_t>(rng.UniformInt(0, 0xFFFFFFFF));
      ASSERT_EQ(Crc32(data, length, seed), BytewiseCrc32(data, length, seed))
          << "offset " << offset << " length " << length << " seed " << seed;
    }
  }
  // Seed chaining at random split points equals the one-shot checksum.
  const uint32_t whole = Crc32(buffer.data(), buffer.size());
  ASSERT_EQ(whole, BytewiseCrc32(buffer.data(), buffer.size(), 0));
  for (int i = 0; i < 200; ++i) {
    const size_t split =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(buffer.size())));
    const uint32_t head = Crc32(buffer.data(), split);
    EXPECT_EQ(Crc32(buffer.data() + split, buffer.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32Test, PooledChunksMatchBytewiseReferenceAtAnyThreadCount) {
  struct ThreadCountGuard {
    ~ThreadCountGuard() { SetParallelThreadCount(0); }
  } guard;
  Rng rng(0xC4C32);
  std::vector<uint8_t> buffer(5 * kCrc32Chunk + 3);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
  // Below two chunks the checksum stays serial; from two chunks on it is
  // joined from per-chunk values, including a ragged last chunk.
  const size_t lengths[] = {0,
                            1,
                            kCrc32Chunk - 1,
                            kCrc32Chunk,
                            kCrc32Chunk + 1,
                            2 * kCrc32Chunk,
                            2 * kCrc32Chunk + 7,
                            5 * kCrc32Chunk + 3};
  for (size_t length : lengths) {
    for (uint32_t seed : {0u, 0x9E3779B9u}) {
      const uint32_t expected = BytewiseCrc32(buffer.data(), length, seed);
      for (int threads : {1, 2, 8}) {
        SetParallelThreadCount(threads);
        ASSERT_EQ(Crc32(buffer.data(), length, seed), expected)
            << "length " << length << " seed " << seed << " threads " << threads;
      }
    }
  }
}

// ---- Journal framing ----------------------------------------------------------------

TEST(JournalTest, AppendFlushReplayRoundtrip) {
  const std::string path = TempDir("roundtrip") + "/j.wal";
  const std::vector<std::string> records = SampleRecords();
  ASSERT_TRUE(AppendAll(path, records).ok());

  Result<JournalReplay> replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->records, records);
  EXPECT_FALSE(replay->torn_tail);
  EXPECT_EQ(replay->torn_bytes, 0u);
  EXPECT_EQ(replay->valid_bytes, fs::file_size(path));
}

TEST(JournalTest, MissingFileIsNotFound) {
  Result<JournalReplay> replay = ReplayJournal(TempDir("missing") + "/absent.wal");
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kNotFound);
}

TEST(JournalTest, EmptyFileIsCleanAndEmpty) {
  const std::string path = TempDir("empty") + "/j.wal";
  WriteAll(path, "");
  Result<JournalReplay> replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->records.empty());
  EXPECT_FALSE(replay->torn_tail);
}

TEST(JournalTest, EveryTruncationPointRecoversThePrefix) {
  // Write a clean journal, then chop it at EVERY byte length and verify the
  // replay returns exactly the records whose frames fit — never garbage,
  // never an error, and torn_tail iff the cut is not on a frame boundary.
  const std::string dir = TempDir("truncate");
  const std::string clean = dir + "/clean.wal";
  const std::vector<std::string> records = {"one", "two-longer", "three"};
  ASSERT_TRUE(AppendAll(clean, records).ok());
  const std::string bytes = ReadAll(clean);

  // Frame boundaries: cumulative framed sizes.
  std::vector<size_t> boundaries = {0};
  for (const std::string& r : records) boundaries.push_back(boundaries.back() + 8 + r.size());
  ASSERT_EQ(boundaries.back(), bytes.size());

  const std::string cut = dir + "/cut.wal";
  for (size_t len = 0; len <= bytes.size(); ++len) {
    WriteAll(cut, bytes.substr(0, len));
    Result<JournalReplay> replay = ReplayJournal(cut);
    ASSERT_TRUE(replay.ok()) << "len=" << len;
    size_t expect_records = 0;
    while (expect_records + 1 < boundaries.size() && boundaries[expect_records + 1] <= len) {
      ++expect_records;
    }
    EXPECT_EQ(replay->records.size(), expect_records) << "len=" << len;
    for (size_t i = 0; i < replay->records.size(); ++i) {
      EXPECT_EQ(replay->records[i], records[i]) << "len=" << len;
    }
    EXPECT_EQ(replay->valid_bytes, boundaries[expect_records]) << "len=" << len;
    EXPECT_EQ(replay->torn_tail, len != boundaries[expect_records]) << "len=" << len;
    EXPECT_EQ(replay->torn_bytes, len - boundaries[expect_records]) << "len=" << len;
  }
}

TEST(JournalTest, FlippedPayloadByteStopsReplayAtThatFrame) {
  const std::string dir = TempDir("flip");
  const std::string path = dir + "/j.wal";
  const std::vector<std::string> records = {"first", "second", "third"};
  ASSERT_TRUE(AppendAll(path, records).ok());
  std::string bytes = ReadAll(path);
  // Flip a byte inside the second record's payload (frame 0 is 8+5 bytes).
  const size_t second_payload = (8 + 5) + 8;
  bytes[second_payload + 2] ^= 0x40;
  WriteAll(path, bytes);

  Result<JournalReplay> replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0], "first");
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_EQ(replay->valid_bytes, 8u + 5u);
}

TEST(JournalTest, TornTailStatusNamesOffsetAndFrameIndex) {
  const std::string dir = TempDir("torn_status");
  const std::string path = dir + "/j.wal";
  const std::vector<std::string> records = {"one", "two-longer", "three"};
  ASSERT_TRUE(AppendAll(path, records).ok());
  const std::string bytes = ReadAll(path);

  // Clean replay: no torn tail, no error to report.
  Result<JournalReplay> clean = ReplayJournal(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(TornTailStatus(path, *clean).ok());

  // Cut 5 bytes into the third frame: two intact records, frame index 2 torn
  // at the byte offset where frame 2 would start.
  const size_t boundary = (8 + records[0].size()) + (8 + records[1].size());
  WriteAll(path, bytes.substr(0, boundary + 5));
  Result<JournalReplay> replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_TRUE(replay->torn_tail);
  EXPECT_EQ(replay->valid_bytes, boundary);
  EXPECT_EQ(replay->torn_frame_index, 2u);
  EXPECT_EQ(replay->torn_bytes, 5u);
  EXPECT_FALSE(replay->torn_reason.empty());

  Status status = TornTailStatus(path, *replay);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  const std::string message = status.message();
  EXPECT_NE(message.find(path), std::string::npos) << message;
  EXPECT_NE(message.find("byte offset " + std::to_string(boundary)), std::string::npos)
      << message;
  EXPECT_NE(message.find("frame index 2"), std::string::npos) << message;
  EXPECT_NE(message.find(replay->torn_reason), std::string::npos) << message;
  EXPECT_NE(message.find("5 trailing bytes"), std::string::npos) << message;
}

TEST(JournalTest, GarbageLengthFieldIsTornNotGiantAllocation) {
  const std::string dir = TempDir("garbage");
  const std::string path = dir + "/j.wal";
  ASSERT_TRUE(AppendAll(path, {"ok"}).ok());
  std::string bytes = ReadAll(path);
  // Append a header claiming a ~4 GiB record; replay must treat it as debris.
  bytes += std::string("\xff\xff\xff\xff\x00\x00\x00\x00", 8);
  bytes += "leftover";
  WriteAll(path, bytes);

  Result<JournalReplay> replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_TRUE(replay->torn_tail);
  EXPECT_EQ(replay->valid_bytes, 8u + 2u);
}

TEST(JournalTest, TruncateThenAppendYieldsCleanJournal) {
  const std::string dir = TempDir("repair");
  const std::string path = dir + "/j.wal";
  ASSERT_TRUE(AppendAll(path, {"keep-1", "keep-2"}).ok());
  // Simulate a crash mid-append: half a frame of debris at the tail.
  std::string bytes = ReadAll(path);
  WriteAll(path, bytes + std::string("\x09\x00\x00", 3));

  Result<JournalReplay> torn = ReplayJournal(path);
  ASSERT_TRUE(torn.ok());
  ASSERT_TRUE(torn->torn_tail);
  ASSERT_TRUE(TruncateJournal(path, torn->valid_bytes).ok());
  ASSERT_TRUE(AppendAll(path, {"after-crash"}).ok());

  Result<JournalReplay> replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records,
            (std::vector<std::string>{"keep-1", "keep-2", "after-crash"}));
  EXPECT_FALSE(replay->torn_tail);
}

TEST(JournalTest, ReopenAppendsAfterExistingRecords) {
  const std::string path = TempDir("reopen") + "/j.wal";
  ASSERT_TRUE(AppendAll(path, {"session-1"}).ok());
  ASSERT_TRUE(AppendAll(path, {"session-2a", "session-2b"}).ok());
  Result<JournalReplay> replay = ReplayJournal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records,
            (std::vector<std::string>{"session-1", "session-2a", "session-2b"}));
}

TEST(JournalTest, OpenInUnwritableDirectoryFailsTyped) {
  Result<JournalWriter> writer = JournalWriter::Open("/proc/flexvis_no_such/j.wal");
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kInternal);
}

TEST(JournalTest, AppendAfterCloseIsFailedPrecondition) {
  const std::string path = TempDir("closed") + "/j.wal";
  Result<JournalWriter> writer = JournalWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Close().ok());
  EXPECT_EQ(writer->Append("late").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(writer->Flush().code(), StatusCode::kFailedPrecondition);
}

// ---- Atomic file I/O ----------------------------------------------------------------

TEST(FileIoTest, WriteFileAtomicLeavesNoTempBehind) {
  const std::string dir = TempDir("atomic");
  const std::string path = dir + "/data.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "payload").ok());
  EXPECT_EQ(ReadAll(path), "payload");
  EXPECT_FALSE(fs::exists(path + kTmpSuffix));
  // Overwrite is atomic too: the new content fully replaces the old.
  ASSERT_TRUE(WriteFileAtomic(path, "v2").ok());
  EXPECT_EQ(ReadAll(path), "v2");
}

TEST(FileIoTest, WriteFileAtomicToUnwritableLocationFailsTyped) {
  Status status = WriteFileAtomic("/proc/flexvis_no_such/data.txt", "x");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(FileIoTest, WriteFileAtomicOverAStaleLinkedTempLeavesTheLinkedFileIntact) {
  // A crash inside LinkFileAtomic can leave `path.tmp` as a hard link to a
  // committed snapshot. Writing `path` must replace that staging name, not
  // write through it into the snapshot's bytes.
  const std::string dir = TempDir("stale_link");
  const std::string committed = dir + "/offers.jsonl.g3";
  const std::string path = dir + "/offers.jsonl.g4";
  ASSERT_TRUE(WriteFileAtomic(committed, "COMMITTED BYTES").ok());
  fs::create_hard_link(committed, path + kTmpSuffix);
  ASSERT_TRUE(WriteFileAtomic(path, "new").ok());
  EXPECT_EQ(ReadAll(committed), "COMMITTED BYTES");
  EXPECT_EQ(ReadAll(path), "new");
  EXPECT_FALSE(fs::exists(path + kTmpSuffix));
  EXPECT_EQ(fs::hard_link_count(committed), 1u);
}

TEST(FileIoTest, LinkFileAtomicSharesTheInodeAndLeavesNoTemp) {
  const std::string dir = TempDir("link");
  const std::string from = dir + "/state.json.g1";
  const std::string to = dir + "/state.json.g2";
  const std::string other = dir + "/other";
  ASSERT_TRUE(WriteFileAtomic(from, "carried").ok());
  ASSERT_TRUE(WriteFileAtomic(other, "untouched").ok());
  // A stale staging name linked to some other file is replaced, never
  // written through; a stale destination is replaced.
  fs::create_hard_link(other, to + kTmpSuffix);
  ASSERT_TRUE(WriteFileAtomic(to, "stale destination").ok());
  fs::create_hard_link(other, to + kTmpSuffix);

  FaultRegistry::Global().Arm("util.fileio.write", FaultConfig{});
  ASSERT_TRUE(LinkFileAtomic(from, to).ok());
  EXPECT_EQ(FaultRegistry::Global().Stats("util.fileio.write").hits, 1);
  FaultRegistry::Global().DisarmAll();

  struct stat from_info, to_info;
  ASSERT_EQ(::stat(from.c_str(), &from_info), 0);
  ASSERT_EQ(::stat(to.c_str(), &to_info), 0);
  EXPECT_EQ(from_info.st_ino, to_info.st_ino);
  EXPECT_EQ(ReadAll(to), "carried");
  EXPECT_EQ(ReadAll(other), "untouched");
  EXPECT_FALSE(fs::exists(to + kTmpSuffix));

  // The carried name outlives the source's.
  fs::remove(from);
  EXPECT_EQ(ReadAll(to), "carried");

  // A missing source is an error, not a copy of nothing, and leaves no debris.
  const std::string orphan = dir + "/orphan";
  Status missing = LinkFileAtomic(dir + "/absent", orphan);
  EXPECT_EQ(missing.code(), StatusCode::kInternal);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_FALSE(fs::exists(orphan + kTmpSuffix));

  // An armed write point fails the link before anything is touched.
  FaultConfig fail;
  fail.always_fail = true;
  FaultRegistry::Global().Arm("util.fileio.write", fail);
  EXPECT_FALSE(LinkFileAtomic(to, orphan).ok());
  FaultRegistry::Global().DisarmAll();
  EXPECT_FALSE(fs::exists(orphan));
}

TEST(FileIoTest, LinkFileAtomicCopiesAcrossFilesystems) {
  // link(2) across devices fails with EXDEV; the bytes are then copied the
  // way WriteFileAtomic writes them.
  const fs::path shm = "/dev/shm";
  const std::string dir = TempDir("link_xdev");
  struct stat shm_info, dir_info;
  if (::stat(shm.c_str(), &shm_info) != 0 || ::stat(dir.c_str(), &dir_info) != 0 ||
      shm_info.st_dev == dir_info.st_dev || ::access(shm.c_str(), W_OK) != 0) {
    GTEST_SKIP() << "needs a writable /dev/shm on another device than " << dir;
  }
  const std::string from = (shm / ("flexvis_link_xdev." + std::to_string(::getpid()))).string();
  const std::string to = dir + "/offers.jsonl.g1";
  ASSERT_TRUE(WriteFileAtomic(from, "bytes from another filesystem").ok());
  Status linked = LinkFileAtomic(from, to);
  struct stat from_info, to_info;
  const bool stated = ::stat(from.c_str(), &from_info) == 0 && ::stat(to.c_str(), &to_info) == 0;
  fs::remove(from);
  ASSERT_TRUE(linked.ok()) << linked.ToString();
  ASSERT_TRUE(stated);
  EXPECT_NE(from_info.st_dev, to_info.st_dev);
  EXPECT_EQ(ReadAll(to), "bytes from another filesystem");
  EXPECT_FALSE(fs::exists(to + kTmpSuffix));
}

TEST(FileIoTest, ReadFileToStringReturnsEveryByte) {
  const std::string dir = TempDir("readall");
  for (size_t size : {size_t{0}, size_t{1}, size_t{8191}, size_t{8192}, size_t{100003}}) {
    std::string data(size, '\0');
    for (size_t i = 0; i < size; ++i) data[i] = static_cast<char>((i * 131) % 251);
    const std::string path = dir + "/f" + std::to_string(size);
    WriteAll(path, data);
    EXPECT_EQ(ReadAll(path), data) << size;
  }
}

TEST(FileIoTest, ReadMissingFileIsNotFound) {
  Result<std::string> data = ReadFileToString(TempDir("readmiss") + "/absent");
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kNotFound);
}

TEST(FileIoTest, ManifestRoundtripVerifies) {
  const std::string dir = TempDir("manifest");
  ASSERT_TRUE(WriteFileAtomic(dir + "/a.txt", "aaaa").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/b.txt", "bb").ok());
  ASSERT_TRUE(WriteManifest(dir, "M.json", {"a.txt", "b.txt"}).ok());
  EXPECT_TRUE(VerifyManifest(dir, "M.json").ok());
}

TEST(FileIoTest, ManifestDetectsEveryCorruption) {
  const std::string dir = TempDir("manifest_corrupt");
  ASSERT_TRUE(WriteFileAtomic(dir + "/a.txt", "aaaa").ok());
  ASSERT_TRUE(WriteManifest(dir, "M.json", {"a.txt"}).ok());

  // Missing manifest.
  EXPECT_EQ(VerifyManifest(dir, "absent.json").code(), StatusCode::kDataLoss);
  // Size mismatch.
  WriteAll(dir + "/a.txt", "aaaaa");
  EXPECT_EQ(VerifyManifest(dir, "M.json").code(), StatusCode::kDataLoss);
  // Same size, flipped byte → CRC mismatch.
  WriteAll(dir + "/a.txt", "aaab");
  EXPECT_EQ(VerifyManifest(dir, "M.json").code(), StatusCode::kDataLoss);
  // Covered file missing entirely.
  fs::remove(dir + "/a.txt");
  EXPECT_EQ(VerifyManifest(dir, "M.json").code(), StatusCode::kDataLoss);
  // Unparsable manifest.
  WriteAll(dir + "/a.txt", "aaaa");
  WriteAll(dir + "/M.json", "{not json");
  EXPECT_EQ(VerifyManifest(dir, "M.json").code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace flexvis
