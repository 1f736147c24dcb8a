#include "util/fileio.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/fault.h"
#include "util/strings.h"

namespace flexvis {

namespace {

/// fsyncs an open stream; returns false on failure. Durability, not
/// correctness: the caller decides whether a failed sync is fatal.
bool SyncStream(std::FILE* f) { return ::fsync(::fileno(f)) == 0; }

/// fsyncs a directory so a completed rename survives power loss. Best
/// effort: some filesystems refuse O_RDONLY on directories; the rename is
/// still atomic, only its durability window widens.
void SyncDirectory(const std::filesystem::path& dir) {
  int fd = ::open(dir.string().c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

/// WriteFileAtomic without its injection point: stage, check, fsync, rename,
/// fsync the directory. The staging name is unlinked before it is opened: a
/// stale `.tmp` left by a crashed LinkFileAtomic is a hard link to a committed
/// snapshot, and opening it "wb" would truncate that snapshot in place.
Status WriteStaged(const std::string& path, std::string_view data) {
  const std::string tmp = path + kTmpSuffix;
  ::unlink(tmp.c_str());
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return InternalError(StrFormat("cannot open '%s' for writing", tmp.c_str()));
  }
  const size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  // A short write, a buffered-write error surfacing at fflush, or a stream
  // error flag all mean the staged file is unusable; report before rename so
  // the destination is never replaced with a truncation.
  const bool flushed = std::fflush(f) == 0;
  const bool stream_ok = std::ferror(f) == 0;
  const bool synced = SyncStream(f);
  const bool closed = std::fclose(f) == 0;
  if (written != data.size() || !flushed || !stream_ok || !closed) {
    std::remove(tmp.c_str());
    return InternalError(StrFormat("short or failed write to '%s' (%zu of %zu bytes)",
                                   tmp.c_str(), written, data.size()));
  }
  if (!synced) {
    std::remove(tmp.c_str());
    return InternalError(StrFormat("fsync failed for '%s'", tmp.c_str()));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return InternalError(StrFormat("cannot rename '%s' into place", tmp.c_str()));
  }
  SyncDirectory(std::filesystem::path(path).parent_path());
  return OkStatus();
}

/// link(2) failures that mean "this filesystem or this pair of paths cannot
/// share an inode", not "the source is wrong": the caller copies instead.
bool LinkUnsupported(int error) {
  return error == EXDEV || error == EPERM || error == ENOTSUP || error == EOPNOTSUPP ||
         error == EMLINK;
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view data) {
  FLEXVIS_FAULT_CHECK("util.fileio.write");
  return WriteStaged(path, data);
}

Status LinkFileAtomic(const std::string& from, const std::string& to) {
  FLEXVIS_FAULT_CHECK("util.fileio.write");
  const std::string tmp = to + kTmpSuffix;
  ::unlink(tmp.c_str());
  if (::link(from.c_str(), tmp.c_str()) != 0) {
    const int error = errno;
    if (!LinkUnsupported(error)) {
      return InternalError(StrFormat("cannot link '%s' to '%s': %s", from.c_str(), tmp.c_str(),
                                     std::strerror(error)));
    }
    Result<std::string> data = ReadFileToString(from);
    if (!data.ok()) return data.status();
    return WriteStaged(to, *data);
  }
  if (std::rename(tmp.c_str(), to.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return InternalError(StrFormat("cannot rename '%s' into place", tmp.c_str()));
  }
  SyncDirectory(std::filesystem::path(to).parent_path());
  return OkStatus();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFoundError(StrFormat("cannot open '%s' for reading", path.c_str()));
  }
  // One read into a buffer sized from the file; the loop after it picks up
  // anything the size did not announce (a file still growing, a pipe).
  std::string data;
  struct stat info;
  if (::fstat(::fileno(f), &info) == 0 && info.st_size > 0) {
    data.resize(static_cast<size_t>(info.st_size));
    data.resize(std::fread(data.data(), 1, data.size(), f));
  }
  char buffer[8192];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) data.append(buffer, n);
  const bool stream_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!stream_ok) {
    return InternalError(StrFormat("read error on '%s'", path.c_str()));
  }
  return data;
}

}  // namespace flexvis
