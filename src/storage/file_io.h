// POSIX file plumbing for the persistence subsystem: atomic whole-file
// writes (tmp + fsync + rename + directory fsync), read-only mmap with RAII
// lifetime, an append-only handle for the WAL, and small directory helpers.
// Every failure surfaces as a typed Status naming the path and the errno.
#ifndef VDTUNER_STORAGE_FILE_IO_H_
#define VDTUNER_STORAGE_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace vdt {

/// Writes `bytes` to `path` atomically: the data lands in `<path>.tmp`, is
/// fsync'd, and is renamed over `path`, followed by an fsync of the parent
/// directory — a crash at any point leaves either the old file or the new
/// one, never a torn mix. The rename also atomically replaces an existing
/// file, which is how a checkpoint retried after a failed one rewrites the
/// segment files that attempt already wrote.
Status AtomicWriteFile(const std::string& path,
                       const std::vector<uint8_t>& bytes);

/// Reads the whole file into memory (the non-mmap read path: WAL and
/// manifest files, which are decoded record-by-record anyway).
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

/// A read-only memory mapping of one file, unmapped on destruction. Shared
/// ownership is the mmap-lifetime mechanism: segment loads hand a
/// shared_ptr<MappedFile> to FloatMatrix::Borrow as the owner handle, so the
/// mapping lives exactly as long as the last snapshot referencing the
/// segment.
class MappedFile {
 public:
  static Result<std::shared_ptr<MappedFile>> Map(const std::string& path);

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MappedFile(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_;
  size_t size_;
};

/// Append-only file handle (the WAL). Opens with O_APPEND, creating the
/// file when absent; Sync() fsyncs, TruncateTo() cuts a torn tail during
/// recovery.
class AppendFile {
 public:
  static Result<std::unique_ptr<AppendFile>> Open(const std::string& path);

  AppendFile(const AppendFile&) = delete;
  AppendFile& operator=(const AppendFile&) = delete;
  ~AppendFile();

  Status Append(const uint8_t* data, size_t len);
  Status Sync();
  /// Truncates the file to `size` bytes (recovery: drop a torn tail so
  /// fresh records never append after garbage).
  Status TruncateTo(uint64_t size);

 private:
  AppendFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_;
  std::string path_;
};

/// Creates `path` (one level) when absent; OK when it already exists.
Status EnsureDir(const std::string& path);

bool PathExists(const std::string& path);
bool IsDirectory(const std::string& path);

/// Names (not paths) of the entries in `path`, sorted ascending, `.`/`..`
/// excluded.
Result<std::vector<std::string>> ListDir(const std::string& path);

/// Removes one file; OK when already absent.
Status RemoveFileIfExists(const std::string& path);

/// Recursively removes `path` (files and one level of nesting is all the
/// store layout uses, but the removal walks arbitrarily deep).
Status RemoveDirRecursive(const std::string& path);

/// fsyncs a directory so a just-renamed or just-unlinked entry is durable.
Status FsyncDir(const std::string& path);

}  // namespace vdt

#endif  // VDTUNER_STORAGE_FILE_IO_H_
