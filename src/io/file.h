#ifndef DTDEVOLVE_IO_FILE_H_
#define DTDEVOLVE_IO_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "io/fault.h"
#include "util/status.h"

namespace dtdevolve::io {

/// The file-I/O abstraction of the durability subsystem. Every write,
/// reservation, sync, rename, unlink and truncate on a durable path — the
/// write-ahead log (`store/wal.h`) and the atomic checkpoint files
/// (`WriteFileAtomic`) — goes through this layer, which consults the
/// process-wide `FaultInjector` first. That is what makes failure paths
/// *testable*: a test can fail the 3rd fsync with ENOSPC, persist half of
/// the 7th write and then kill every later operation, and assert
/// recovery.
///
/// Writes are positioned (`pwrite`), never `O_APPEND`: the WAL reserves
/// space ahead of its records with `Allocate` (written zeros) and
/// overwrites it, so the file size changes once per reservation, not once
/// per record, and its commit can be a `DataSync` (`fdatasync`) that
/// flushes the data without a metadata journal commit. Checkpoint files
/// keep the full `Fsync`.
///
/// All functions return `Status`; messages carry the path and
/// `strerror(errno)`. Reads are deliberately not faultable — losing
/// *written* data is the interesting failure class.

/// RAII file descriptor with faultable mutation primitives.
class File {
 public:
  /// Creates/truncates `path` for writing.
  static StatusOr<File> OpenForWrite(const std::string& path);
  /// Opens `path` for in-place writes, creating it when missing and
  /// never clobbering what it holds (WAL segments).
  static StatusOr<File> OpenForUpdate(const std::string& path);

  File() = default;
  /// Adopts an already-open descriptor (used by the Open factories).
  File(int fd, std::string path);
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  bool is_open() const { return fd_ >= 0; }

  /// Writes all of `data` at `offset` (looping over partial writes).
  Status Write(std::string_view data, uint64_t offset);
  /// Reserves disk blocks for `[offset, offset + length)` by writing
  /// zeros there, growing the file to cover them. The range must hold no
  /// data yet. Zeros are written rather than `posix_fallocate`d so that
  /// later overwrites need no extent conversion (see `file.cc`).
  Status Allocate(uint64_t offset, uint64_t length);
  Status Fsync();
  /// `fdatasync`: flushes the data and only the metadata needed to read
  /// it back (a size change), not timestamps. Faults as a `kFsync`.
  Status DataSync();
  Status Truncate(uint64_t size);
  /// Closes and reports the close error, unlike the silent destructor.
  Status Close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Faultable directory-entry operations.
Status Rename(const std::string& from, const std::string& to);
/// `kNotFound` when the file does not exist.
Status Unlink(const std::string& path);
/// Fsyncs the directory itself — the only way to make a completed
/// `rename` or `unlink` durable.
Status FsyncDir(const std::string& dir);
/// mkdir; success when the directory already exists.
Status CreateDir(const std::string& path);

/// Everything up to the final '/' ("." when there is none).
std::string DirName(const std::string& path);

/// The canonical crash-safe file write: `path + ".tmp"` gets the bytes,
/// an fsync and a close, is renamed over `path`, and the parent directory
/// is fsynced so the rename itself survives a crash. Any failure removes
/// the temporary (best effort) and leaves the previous `path` intact.
Status WriteFileAtomic(const std::string& path, std::string_view data);

/// Whole-file read sized by `fstat`, still reading to EOF when the file
/// grew meanwhile; `kNotFound` when it cannot be opened. Not faultable.
StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace dtdevolve::io

#endif  // DTDEVOLVE_IO_FILE_H_
