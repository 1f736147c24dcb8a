#include "util/journal.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <utility>

#include "util/crc32.h"
#include "util/fault.h"
#include "util/fileio.h"
#include "util/strings.h"

namespace flexvis {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc32
/// Upper bound on a single record. A length field beyond this is treated as
/// frame corruption (a torn header read as garbage), not as a real record.
constexpr uint32_t kMaxRecordBytes = 256u * 1024u * 1024u;

uint32_t ReadU32Le(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

void AppendU32Le(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
  out->push_back(static_cast<char>((v >> 16) & 0xFF));
  out->push_back(static_cast<char>((v >> 24) & 0xFF));
}

}  // namespace

Result<JournalReplay> ReplayJournal(const std::string& path) {
  Result<std::string> data = ReadFileToString(path);
  if (!data.ok()) return data.status();

  JournalReplay replay;
  const std::string& bytes = *data;
  size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeaderBytes) {
      replay.torn_reason = StrFormat("torn header (%zu of %zu bytes)", bytes.size() - pos,
                                     kFrameHeaderBytes);
      break;
    }
    const uint32_t length = ReadU32Le(bytes.data() + pos);
    const uint32_t expected_crc = ReadU32Le(bytes.data() + pos + 4);
    if (length > kMaxRecordBytes) {
      replay.torn_reason = StrFormat("garbage length field (%u bytes claimed, max %u)", length,
                                     kMaxRecordBytes);
      break;
    }
    if (bytes.size() - pos - kFrameHeaderBytes < length) {
      replay.torn_reason = StrFormat("torn payload (%zu of %u bytes)",
                                     bytes.size() - pos - kFrameHeaderBytes, length);
      break;
    }
    std::string_view payload(bytes.data() + pos + kFrameHeaderBytes, length);
    if (Crc32(payload) != expected_crc) {
      replay.torn_reason = "crc mismatch";
      break;
    }
    replay.records.emplace_back(payload);
    pos += kFrameHeaderBytes + length;
  }
  replay.valid_bytes = pos;
  replay.torn_bytes = bytes.size() - pos;
  replay.torn_tail = replay.torn_bytes != 0;
  replay.torn_frame_index = replay.records.size();
  if (!replay.torn_tail) replay.torn_reason.clear();
  return replay;
}

Status TornTailStatus(const std::string& path, const JournalReplay& replay) {
  if (!replay.torn_tail) return OkStatus();
  return DataLossError(StrFormat(
      "journal '%s' torn at byte offset %llu (frame index %llu): %s; %llu trailing bytes are "
      "debris",
      path.c_str(), static_cast<unsigned long long>(replay.valid_bytes),
      static_cast<unsigned long long>(replay.torn_frame_index),
      replay.torn_reason.empty() ? "undecodable frame" : replay.torn_reason.c_str(),
      static_cast<unsigned long long>(replay.torn_bytes)));
}

Status TruncateJournal(const std::string& path, uint64_t valid_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    return InternalError(StrFormat("cannot truncate journal '%s' to %llu bytes: %s",
                                   path.c_str(), static_cast<unsigned long long>(valid_bytes),
                                   ec.message().c_str()));
  }
  return OkStatus();
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      path_(std::move(other.path_)) {}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = std::exchange(other.file_, nullptr);
    path_ = std::move(other.path_);
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<JournalWriter> JournalWriter::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return InternalError(StrFormat("cannot open journal '%s' for appending", path.c_str()));
  }
  JournalWriter writer;
  writer.file_ = f;
  writer.path_ = path;
  return writer;
}

Status JournalWriter::Append(std::string_view record) {
  if (file_ == nullptr) return FailedPreconditionError("journal is not open");
  FLEXVIS_FAULT_CHECK("util.journal.append");
  std::string frame;
  frame.reserve(kFrameHeaderBytes + record.size());
  AppendU32Le(&frame, static_cast<uint32_t>(record.size()));
  AppendU32Le(&frame, Crc32(record));
  frame.append(record);
  const size_t written = std::fwrite(frame.data(), 1, frame.size(), file_);
  if (written != frame.size() || std::ferror(file_) != 0) {
    return InternalError(StrFormat("short write appending to journal '%s'", path_.c_str()));
  }
  return OkStatus();
}

Status JournalWriter::Flush() {
  if (file_ == nullptr) return FailedPreconditionError("journal is not open");
  FLEXVIS_FAULT_CHECK("util.journal.flush");
  if (std::fflush(file_) != 0 || std::ferror(file_) != 0) {
    return InternalError(StrFormat("flush failed for journal '%s'", path_.c_str()));
  }
  if (::fsync(::fileno(file_)) != 0) {
    return InternalError(StrFormat("fsync failed for journal '%s'", path_.c_str()));
  }
  return OkStatus();
}

Status JournalWriter::Close() {
  if (file_ == nullptr) return OkStatus();
  Status flushed = Flush();
  const bool closed = std::fclose(file_) == 0;
  file_ = nullptr;
  if (!flushed.ok()) return flushed;
  if (!closed) {
    return InternalError(StrFormat("close failed for journal '%s'", path_.c_str()));
  }
  return OkStatus();
}

}  // namespace flexvis
