#include "io/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace dtdevolve::io {

namespace {

Status ErrnoStatus(const std::string& what, const std::string& path,
                   int err) {
  Status status = Status::Internal(what + " " + path + ": " +
                                   std::strerror(err));
  return status;
}

/// One injector consultation. Returns true when the op must fail;
/// `*persist` only matters for writes.
bool Injected(FaultOp op, size_t size, size_t* persist, int* err) {
  return FaultInjector::Instance().ShouldFail(op, size, persist, err);
}

StatusOr<File> OpenWithFlags(const std::string& path, int flags) {
  size_t persist = 0;
  int err = 0;
  if (Injected(FaultOp::kOpen, 0, &persist, &err)) {
    return ErrnoStatus("cannot open", path, err);
  }
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) return ErrnoStatus("cannot open", path, errno);
  return File(fd, path);
}

}  // namespace

File::File(File&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<File> File::OpenForWrite(const std::string& path) {
  return OpenWithFlags(path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC);
}

StatusOr<File> File::OpenForUpdate(const std::string& path) {
  return OpenWithFlags(path, O_WRONLY | O_CREAT | O_CLOEXEC);
}

Status File::Write(std::string_view data, uint64_t offset) {
  if (fd_ < 0) return Status::FailedPrecondition("write on closed file");
  size_t persist = 0;
  int err = 0;
  bool injected = Injected(FaultOp::kWrite, data.size(), &persist, &err);
  // A torn write persists a prefix for real — recovery tests then see
  // exactly the on-disk state a crash mid-write would leave.
  const size_t limit = injected ? persist : data.size();
  size_t written = 0;
  while (written < limit) {
    ssize_t n = ::pwrite(fd_, data.data() + written, limit - written,
                         static_cast<off_t>(offset + written));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ErrnoStatus("write failed on", path_, errno);
    if (n == 0) return ErrnoStatus("short write to", path_, ENOSPC);
    written += static_cast<size_t>(n);
  }
  if (injected) return ErrnoStatus("write failed on", path_, err);
  return Status::Ok();
}

Status File::Allocate(uint64_t offset, uint64_t length) {
  if (fd_ < 0) return Status::FailedPrecondition("allocate on closed file");
  size_t persist = 0;
  int err = 0;
  if (Injected(FaultOp::kAllocate, 0, &persist, &err)) {
    return ErrnoStatus("cannot reserve space in", path_, err);
  }
  // Written zeros, not posix_fallocate: ext4 keeps fallocated blocks as
  // unwritten extents, and the first write into each block converts its
  // extent, a metadata change that the next fdatasync must commit through
  // the journal. Blocks that already hold written zeros are overwritten
  // with no metadata to commit.
  static const char kZeros[64 * 1024] = {};
  uint64_t done = 0;
  while (done < length) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(length - done, sizeof(kZeros)));
    const ssize_t n =
        ::pwrite(fd_, kZeros, chunk, static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return ErrnoStatus("cannot reserve space in", path_, errno);
    if (n == 0) return ErrnoStatus("cannot reserve space in", path_, ENOSPC);
    done += static_cast<uint64_t>(n);
  }
  return Status::Ok();
}

Status File::Fsync() {
  if (fd_ < 0) return Status::FailedPrecondition("fsync on closed file");
  size_t persist = 0;
  int err = 0;
  if (Injected(FaultOp::kFsync, 0, &persist, &err)) {
    return ErrnoStatus("fsync failed on", path_, err);
  }
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync failed on", path_, errno);
  return Status::Ok();
}

Status File::DataSync() {
  if (fd_ < 0) return Status::FailedPrecondition("fdatasync on closed file");
  size_t persist = 0;
  int err = 0;
  if (Injected(FaultOp::kFsync, 0, &persist, &err)) {
    return ErrnoStatus("fdatasync failed on", path_, err);
  }
  if (::fdatasync(fd_) != 0) {
    return ErrnoStatus("fdatasync failed on", path_, errno);
  }
  return Status::Ok();
}

Status File::Truncate(uint64_t size) {
  if (fd_ < 0) return Status::FailedPrecondition("truncate on closed file");
  size_t persist = 0;
  int err = 0;
  if (Injected(FaultOp::kTruncate, 0, &persist, &err)) {
    return ErrnoStatus("truncate failed on", path_, err);
  }
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return ErrnoStatus("truncate failed on", path_, errno);
  }
  return Status::Ok();
}

Status File::Close() {
  if (fd_ < 0) return Status::Ok();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return ErrnoStatus("close failed on", path_, errno);
  return Status::Ok();
}

File::File(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

Status Rename(const std::string& from, const std::string& to) {
  size_t persist = 0;
  int err = 0;
  if (Injected(FaultOp::kRename, 0, &persist, &err)) {
    return ErrnoStatus("cannot rename", from + " -> " + to, err);
  }
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoStatus("cannot rename", from + " -> " + to, errno);
  }
  return Status::Ok();
}

Status Unlink(const std::string& path) {
  size_t persist = 0;
  int err = 0;
  if (Injected(FaultOp::kUnlink, 0, &persist, &err)) {
    return ErrnoStatus("cannot unlink", path, err);
  }
  if (::unlink(path.c_str()) != 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoStatus("cannot unlink", path, errno);
  }
  return Status::Ok();
}

Status FsyncDir(const std::string& dir) {
  size_t persist = 0;
  int err = 0;
  if (Injected(FaultOp::kFsyncDir, 0, &persist, &err)) {
    return ErrnoStatus("fsync failed on directory", dir, err);
  }
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return ErrnoStatus("cannot open directory", dir, errno);
  Status status;
  if (::fsync(fd) != 0) {
    status = ErrnoStatus("fsync failed on directory", dir, errno);
  }
  ::close(fd);
  return status;
}

Status CreateDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::Ok();
  }
  return ErrnoStatus("cannot create directory", path, errno);
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status WriteFileAtomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  StatusOr<File> file = File::OpenForWrite(tmp);
  Status status = file.ok() ? Status::Ok() : file.status();
  if (status.ok()) status = file->Write(data, 0);
  // fsync before rename: the rename must not become durable before the
  // bytes it points at.
  if (status.ok()) status = file->Fsync();
  if (status.ok()) status = file->Close();
  if (status.ok()) status = Rename(tmp, path);
  if (!status.ok()) {
    ::unlink(tmp.c_str());  // best effort; not a faultable op
    return status;
  }
  // The rename is only durable once the parent directory is fsynced.
  return FsyncDir(DirName(path));
}

StatusOr<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("cannot open " + path);
  struct stat info = {};
  const size_t expected =
      ::fstat(fd, &info) == 0 && info.st_size > 0
          ? static_cast<size_t>(info.st_size)
          : 0;
  // One spare byte: a read that fills it means the file grew since the
  // fstat, and the buffer doubles until a read returns EOF.
  std::string data(expected + 1, '\0');
  size_t used = 0;
  for (;;) {
    if (used == data.size()) data.resize(2 * data.size());
    const ssize_t n = ::read(fd, data.data() + used, data.size() - used);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int err = errno;
      ::close(fd);
      return ErrnoStatus("read error on", path, err);
    }
    if (n == 0) break;
    used += static_cast<size_t>(n);
  }
  ::close(fd);
  data.resize(used);
  return data;
}

}  // namespace dtdevolve::io
