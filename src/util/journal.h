#ifndef FLEXVIS_UTIL_JOURNAL_H_
#define FLEXVIS_UTIL_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace flexvis {

/// Append-only write-ahead journal. Each record is framed as
///
///   +----------------+----------------+------------------+
///   | u32 LE length  | u32 LE CRC-32  | payload (length) |
///   +----------------+----------------+------------------+
///
/// so replay can detect a torn tail: a crash mid-append leaves a frame whose
/// header is incomplete, whose payload is shorter than its length field, or
/// whose CRC does not match — replay stops at the first such frame, reports
/// how many records survived, and the writer truncates the debris before
/// appending again. Records already flushed are never lost; the most recent
/// unflushed records are the only possible casualty, which is exactly the
/// contract the checkpoint layer builds on (a tick is durable once its
/// record is flushed).
///
/// Injection points: "util.journal.append" is consulted before a record is
/// buffered and "util.journal.flush" before the buffer reaches the OS — the
/// two crash hooks the kill-matrix drives.

/// Outcome of replaying a journal file.
struct JournalReplay {
  /// Every intact record payload, in append order.
  std::vector<std::string> records;
  /// Bytes of the file covered by intact frames (the truncation point when
  /// repairing a torn tail).
  uint64_t valid_bytes = 0;
  /// Bytes past the last intact frame (0 for a clean journal).
  uint64_t torn_bytes = 0;
  /// True when the file ends in a torn or corrupt frame.
  bool torn_tail = false;
  /// Index of the first bad frame when torn_tail (== records.size(): the
  /// frames before it all decoded). Unspecified for a clean journal.
  uint64_t torn_frame_index = 0;
  /// Why the first bad frame failed to decode ("torn header (3 of 8 bytes)",
  /// "garbage length field", "torn payload (7 of 64 bytes)", or
  /// "crc mismatch"). Empty for a clean journal.
  std::string torn_reason;
};

/// Formats the torn tail of `replay` as a kDataLoss Status whose message
/// names the journal path, the byte offset and frame index of the first bad
/// frame, the decode failure, and how many trailing bytes are debris — the
/// line recovery-diff artifacts carry. OkStatus() when the replay is clean.
Status TornTailStatus(const std::string& path, const JournalReplay& replay);

/// Reads `path` and decodes every intact frame. NotFound when the file does
/// not exist (a journal that was never started); a torn or corrupt tail is
/// NOT an error — it is the expected shape after a crash — and is reported
/// via the JournalReplay fields instead.
Result<JournalReplay> ReplayJournal(const std::string& path);

/// Truncates `path` to `valid_bytes` (as reported by ReplayJournal),
/// discarding a torn tail so subsequent appends start on a frame boundary.
Status TruncateJournal(const std::string& path, uint64_t valid_bytes);

/// Appending side. Open creates the file when absent and positions at the
/// end; callers that may be reopening after a crash should ReplayJournal
/// first and TruncateJournal away any torn tail.
class JournalWriter {
 public:
  JournalWriter() = default;
  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  static Result<JournalWriter> Open(const std::string& path);

  /// Frames and buffers one record. The record is *not* durable until
  /// Flush() returns OK.
  Status Append(std::string_view record);

  /// Pushes buffered frames to the OS and fsyncs — the flush point after
  /// which every appended record survives a crash.
  Status Flush();

  /// Flushes and closes. The destructor closes without flushing (matching
  /// crash semantics: unflushed records are not promised).
  Status Close();

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace flexvis

#endif  // FLEXVIS_UTIL_JOURNAL_H_
