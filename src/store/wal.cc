#include "store/wal.h"

#include <dirent.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/crc32.h"

namespace dtdevolve::store {

namespace {

constexpr size_t kRecordHeaderBytes = 16;  // u32 len, u32 crc, u64 lsn
/// Framing sanity bound: a length beyond this cannot be a real record
/// (ingest bodies are capped far below) and is treated as corruption.
constexpr uint32_t kMaxPayloadBytes = 64 * 1024 * 1024;
/// Reservation step: a segment's file grows by whole steps, ahead of the
/// records that fill it. Larger steps buy nothing measurable and make
/// every restart read a longer zero tail.
constexpr uint64_t kReserveBytes = 64 * 1024;

void PutU32(uint32_t value, std::string& out) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void PutU64(uint64_t value, std::string& out) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

uint32_t GetU32(const char* data) {
  uint32_t value = 0;
  for (int i = 3; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(data[i]);
  }
  return value;
}

uint64_t GetU64(const char* data) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | static_cast<unsigned char>(data[i]);
  }
  return value;
}

std::string EncodeRecord(uint64_t lsn, std::string_view payload) {
  std::string record;
  record.reserve(kRecordHeaderBytes + payload.size());
  PutU32(static_cast<uint32_t>(payload.size()), record);
  std::string checked;
  checked.reserve(8 + payload.size());
  PutU64(lsn, checked);
  checked.append(payload);
  PutU32(util::Crc32(checked.data(), checked.size()), record);
  record.append(checked);
  return record;
}

std::string SegmentName(uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%010llu.log",
                static_cast<unsigned long long>(seq));
  return name;
}

/// Sequence numbers of the `wal-<seq>.log` files in `dir`, ascending.
StatusOr<std::vector<uint64_t>> ListSegments(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    return Status::Internal("cannot list " + dir + ": " +
                            std::strerror(errno));
  }
  std::vector<uint64_t> seqs;
  while (struct dirent* entry = ::readdir(handle)) {
    unsigned long long seq = 0;
    char tail = 0;
    if (std::sscanf(entry->d_name, "wal-%llu.lo%c", &seq, &tail) == 2 &&
        tail == 'g') {
      seqs.push_back(seq);
    }
  }
  ::closedir(handle);
  std::sort(seqs.begin(), seqs.end());
  return seqs;
}

/// True when `data` holds nothing but zero bytes.
bool AllZero(std::string_view data) {
  static const char kZeros[4096] = {};
  while (!data.empty()) {
    const size_t n = std::min(data.size(), sizeof(kZeros));
    if (std::memcmp(data.data(), kZeros, n) != 0) return false;
    data.remove_prefix(n);
  }
  return true;
}

/// How a run of frames ends.
enum class FramesEnd {
  kClean,    // at the end of the bytes, or nothing but zeros follow
  kTorn,     // an unframeable or checksum-failing frame, then only zeros
  kCorrupt,  // damage with data after it
};

struct Frame {
  size_t offset = 0;
  uint32_t len = 0;  // payload bytes
  uint64_t lsn = 0;
};

/// Walks the intact frames of a segment file or a replication stream.
struct FrameCursor {
  std::string_view data;
  /// Just past the last intact frame.
  size_t offset = 0;
  FramesEnd end = FramesEnd::kClean;
  const char* why = "";

  /// Decodes the frame at `offset` and steps past it. False once no
  /// intact frame is left; `end` and `why` then say what the rest is.
  bool Next(Frame* frame) {
    if (offset >= data.size()) return false;
    const std::string_view rest = data.substr(offset);
    if (AllZero(rest.substr(0, kRecordHeaderBytes))) {
      // LSN 0 is never issued, so no real header is all zero: the
      // writes stopped here, and the rest must be unused reservation.
      if (!AllZero(rest)) Stop(FramesEnd::kCorrupt, "zeroed frame below data");
      return false;
    }
    if (rest.size() < kRecordHeaderBytes) {
      return Stop(FramesEnd::kTorn, "truncated record header");
    }
    const uint32_t len = GetU32(rest.data());
    if (len > kMaxPayloadBytes) {
      // The length itself is garbage, so the rest cannot be framed.
      return Stop(FramesEnd::kTorn, "implausible record length");
    }
    if (rest.size() < kRecordHeaderBytes + len) {
      return Stop(FramesEnd::kTorn, "truncated record payload");
    }
    if (GetU32(rest.data() + 4) != util::Crc32(rest.data() + 8, 8 + len)) {
      // With only zeros after it, a bad frame is the torn in-flight
      // write; with data after it, damage to a record that was fully
      // written — acked history.
      return AllZero(rest.substr(kRecordHeaderBytes + len))
                 ? Stop(FramesEnd::kTorn, "checksum mismatch on final record")
                 : Stop(FramesEnd::kCorrupt,
                        "checksum mismatch on a complete record");
    }
    frame->offset = offset;
    frame->len = len;
    frame->lsn = GetU64(rest.data() + 8);
    offset += kRecordHeaderBytes + len;
    return true;
  }

  bool Stop(FramesEnd how, const char* reason) {
    end = how;
    why = reason;
    return false;
  }
};

}  // namespace

bool ParseFsyncPolicy(std::string_view text, FsyncPolicy* out) {
  if (text == "always") {
    *out = FsyncPolicy::kAlways;
  } else if (text == "interval") {
    *out = FsyncPolicy::kInterval;
  } else if (text == "none") {
    *out = FsyncPolicy::kNone;
  } else {
    return false;
  }
  return true;
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kInterval: return "interval";
    case FsyncPolicy::kNone: return "none";
  }
  return "?";
}

std::string Wal::SegmentPath(uint64_t seq) const {
  return options_.dir + "/" + SegmentName(seq);
}

StatusOr<std::unique_ptr<Wal>> Wal::Open(WalOptions options,
                                         uint64_t min_next_lsn,
                                         WalReplay* replay) {
  DTDEVOLVE_RETURN_IF_ERROR(io::CreateDir(options.dir));
  std::unique_ptr<Wal> wal(new Wal(std::move(options)));

  StatusOr<std::vector<uint64_t>> seqs = ListSegments(wal->options_.dir);
  if (!seqs.ok()) return seqs.status();

  uint64_t max_lsn = 0;
  // Nonzero after a torn tail was cut from a *non-final* segment: the
  // next record anywhere in the log must carry exactly this LSN. A
  // failed append never consumes an LSN, so contiguity proves the torn
  // bytes were never acked; a gap means acked history is missing.
  uint64_t require_lsn = 0;
  for (const uint64_t seq : *seqs) {
    Segment segment;
    segment.seq = seq;
    segment.path = wal->SegmentPath(seq);
    StatusOr<std::string> bytes = io::ReadFile(segment.path);
    if (!bytes.ok()) return bytes.status();
    const std::string& data = *bytes;

    auto corrupt = [&segment](size_t offset, const std::string& why) {
      return Status::ParseError("corrupt WAL record in " + segment.path +
                                " at offset " + std::to_string(offset) +
                                " (" + why +
                                "): refusing to drop acked history");
    };
    FrameCursor cursor{data};
    Frame frame;
    while (cursor.Next(&frame)) {
      if (frame.lsn <= max_lsn) {
        return corrupt(frame.offset, "LSN went backwards");
      }
      if (require_lsn != 0 && frame.lsn != require_lsn) {
        return corrupt(frame.offset, "LSN gap after a torn segment tail");
      }
      require_lsn = 0;
      max_lsn = frame.lsn;
      if (segment.first_lsn == 0) segment.first_lsn = frame.lsn;
      segment.last_lsn = frame.lsn;
      if (replay != nullptr) {
        replay->records.push_back(
            {frame.lsn, data.substr(frame.offset + kRecordHeaderBytes,
                                    frame.len)});
      }
    }
    segment.size = cursor.offset;
    // A zero tail is unused reservation: the active segment appends
    // into it in place.
    segment.reserved = data.size();
    if (cursor.end == FramesEnd::kCorrupt) {
      return corrupt(cursor.offset, cursor.why);
    }
    if (cursor.end == FramesEnd::kTorn) {
      // Torn tail: that write never committed, so cutting it loses
      // nothing acked. Truncate physically so later writes land on a
      // clean frame boundary. In a non-final segment (a broken write
      // whose WAL self-healed by rotating) the claim still needs proof —
      // the next record must continue the LSN sequence without a gap.
      StatusOr<io::File> file = io::File::OpenForUpdate(segment.path);
      if (!file.ok()) return file.status();
      DTDEVOLVE_RETURN_IF_ERROR(file->Truncate(segment.size));
      DTDEVOLVE_RETURN_IF_ERROR(file->Fsync());
      DTDEVOLVE_RETURN_IF_ERROR(file->Close());
      segment.reserved = segment.size;
      require_lsn = max_lsn + 1;
      if (replay != nullptr) {
        replay->tail_truncated = true;
        if (!replay->warning.empty()) replay->warning += "; ";
        replay->warning += "truncated torn WAL tail in " + segment.path +
                           " at offset " + std::to_string(segment.size) +
                           " (" + cursor.why + ")";
      }
    }
    segment.durable_size = segment.size;
    wal->segments_.push_back(std::move(segment));
  }

  wal->next_lsn_ = std::max(max_lsn + 1, std::max<uint64_t>(min_next_lsn, 1));
  wal->durable_lsn_ = wal->next_lsn_ - 1;
  wal->synced_lsn_ = wal->durable_lsn_;
  DTDEVOLVE_RETURN_IF_ERROR(wal->OpenActive());
  return wal;
}

Wal::~Wal() {
  // A cleanly closed segment ends at its last record; only a crash
  // leaves a zero tail.
  for (Segment& segment : segments_) {
    if (segment.file != nullptr && segment.reserved > segment.size) {
      (void)segment.file->Truncate(segment.size);
    }
  }
}

Status Wal::OpenActive() {
  const bool fresh = segments_.empty();
  if (fresh) {
    Segment segment;
    segment.seq = 1;
    segment.path = SegmentPath(1);
    segments_.push_back(std::move(segment));
  }
  Segment& active = segments_.back();
  StatusOr<io::File> file = io::File::OpenForUpdate(active.path);
  if (!file.ok()) return file.status();
  active.file = std::make_shared<io::File>(std::move(*file));
  dir_synced_seq_ = active.seq;
  return fresh ? io::FsyncDir(options_.dir) : Status::Ok();
}

Status Wal::RotateLocked() {
  Segment segment;
  segment.seq = segments_.back().seq + 1;
  segment.path = SegmentPath(segment.seq);
  StatusOr<io::File> file = io::File::OpenForUpdate(segment.path);
  if (!file.ok()) return file.status();
  segment.file = std::make_shared<io::File>(std::move(*file));
  // The retiring segment ends at its last record: its unused
  // reservation goes (best effort — a zero tail replays clean). A broken
  // segment keeps its torn bytes for replay to judge; cutting them is
  // what just failed.
  Segment& retiring = segments_.back();
  if (!broken_ && retiring.reserved > retiring.size &&
      retiring.file->Truncate(retiring.size).ok()) {
    retiring.reserved = retiring.size;
  }
  // The retiring segment keeps its file open until a sync covers it;
  // the new segment's directory entry is synced by the next commit.
  if (retiring.size == retiring.durable_size &&
      retiring.last_lsn <= synced_lsn_) {
    retiring.file.reset();
  }
  segments_.push_back(std::move(segment));
  if (metrics_.rotations != nullptr) metrics_.rotations->Increment();
  broken_ = false;
  return Status::Ok();
}

void Wal::CountError() {
  if (metrics_.append_errors != nullptr) metrics_.append_errors->Increment();
}

StatusOr<uint64_t> Wal::Write(std::string_view payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (commit_failed_) {
    CountError();
    return Status::Unavailable(
        "wal commit failed; records above LSN " +
        std::to_string(durable_lsn_) + " wait for a rewind");
  }
  if (broken_) {
    // Self-heal. First retry the cleanup that broke the WAL — cutting
    // the torn bytes restores the active segment in place. Failing
    // that, rotate: the fresh segment leaves the unframeable bytes
    // behind in the abandoned one, which replay treats as a torn tail
    // (and verifies against the LSN sequence).
    Segment& active = segments_.back();
    if (active.file->Truncate(active.size).ok()) {
      active.reserved = active.size;
      broken_ = false;
    } else {
      Status rotated = RotateLocked();
      if (!rotated.ok()) {
        CountError();
        return Status::Internal("wal broken and rotation failed: " +
                                rotated.message());
      }
    }
  }
  if (segments_.back().size >= options_.segment_bytes) {
    Status rotated = RotateLocked();
    if (!rotated.ok()) {
      CountError();
      return rotated;
    }
  }

  Segment& segment = segments_.back();
  const uint64_t lsn = next_lsn_;
  const std::string record = EncodeRecord(lsn, payload);
  const uint64_t end = segment.size + record.size();
  Status status;
  if (end > segment.reserved) {
    // Reserve whole steps past the frame, so the file size changes once
    // per step and most commits have no size change to sync.
    const uint64_t reserve_to =
        (end + kReserveBytes - 1) / kReserveBytes * kReserveBytes;
    status = segment.file->Allocate(segment.reserved,
                                    reserve_to - segment.reserved);
    if (status.ok()) segment.reserved = reserve_to;
  }
  if (status.ok()) status = segment.file->Write(record, segment.size);
  if (!status.ok()) {
    CountError();
    // Cut any torn bytes (and the reservation; the next write reserves
    // again) back off so the next write stays framed. When even that
    // fails (crash simulation, dead disk) the WAL is broken until a
    // retried truncate or a rotation succeeds — the torn tail stays for
    // recovery.
    if (segment.file->Truncate(segment.size).ok()) {
      segment.reserved = segment.size;
    } else {
      broken_ = true;
    }
    return status;
  }
  segment.size += record.size();
  if (segment.first_lsn == 0) segment.first_lsn = lsn;
  segment.last_lsn = lsn;
  next_lsn_ = lsn + 1;
  if (metrics_.appends != nullptr) metrics_.appends->Increment();
  if (metrics_.append_bytes != nullptr) {
    metrics_.append_bytes->Increment(record.size());
  }
  return lsn;
}

Status Wal::SyncGroup() {
  struct Target {
    uint64_t seq;
    std::shared_ptr<io::File> file;
    uint64_t size;
  };
  std::vector<Target> targets;
  uint64_t target_lsn = 0;
  uint64_t newest_seq = 0;
  bool sync_dir = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (commit_failed_) {
      return Status::Unavailable("wal commit failed; rewind first");
    }
    target_lsn = next_lsn_ - 1;
    for (const Segment& segment : segments_) {
      if (segment.file != nullptr) {
        targets.push_back({segment.seq, segment.file, segment.size});
      }
    }
    newest_seq = segments_.back().seq;
    sync_dir = newest_seq > dir_synced_seq_;
  }

  // The group's sync, with the append mutex released: writes keep
  // landing behind `target_lsn` and wait for the next group. Records
  // overwrite reserved space, so `fdatasync` seldom has a size change
  // to commit; the directory entry of a new segment still needs the
  // directory's own fsync.
  const auto started = std::chrono::steady_clock::now();
  Status status;
  for (const Target& target : targets) {
    status = target.file->DataSync();
    if (!status.ok()) break;
    if (metrics_.fsyncs != nullptr) metrics_.fsyncs->Increment();
  }
  if (status.ok() && sync_dir) status = io::FsyncDir(options_.dir);
  const auto finished = std::chrono::steady_clock::now();

  std::lock_guard<std::mutex> lock(mutex_);
  if (!status.ok()) {
    CountError();
    // The kernel may have dropped the pages it failed to write, so no
    // later fsync can vouch for this group: it is lost, and the log
    // stays failed until `Rewind` cuts it.
    if (target_lsn > durable_lsn_) commit_failed_ = true;
    return status;
  }
  last_fsync_ = finished;
  if (metrics_.sync_seconds != nullptr) {
    metrics_.sync_seconds->Observe(
        std::chrono::duration<double>(finished - started).count());
  }
  if (metrics_.commit_docs != nullptr && target_lsn > synced_lsn_) {
    metrics_.commit_docs->Observe(
        static_cast<double>(target_lsn - synced_lsn_));
  }
  synced_lsn_ = std::max(synced_lsn_, target_lsn);
  durable_lsn_ = std::max(durable_lsn_, target_lsn);
  if (sync_dir) dir_synced_seq_ = std::max(dir_synced_seq_, newest_seq);
  for (const Target& target : targets) {
    for (Segment& segment : segments_) {
      if (segment.seq != target.seq) continue;
      segment.durable_size = std::max(segment.durable_size, target.size);
      // A retired segment fully covered by this fsync closes.
      if (&segment != &segments_.back() && segment.size == target.size) {
        segment.file.reset();
      }
    }
  }
  return Status::Ok();
}

Status Wal::Commit(uint64_t lsn) {
  std::lock_guard<std::mutex> group(commit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (durable_lsn_ >= lsn) return Status::Ok();
    if (commit_failed_) {
      return Status::Unavailable("wal commit failed; LSN " +
                                 std::to_string(lsn) + " was not made durable");
    }
    if (lsn >= next_lsn_) {
      return Status::FailedPrecondition("commit of unwritten LSN " +
                                        std::to_string(lsn));
    }
    bool fsync = false;
    switch (options_.fsync_policy) {
      case FsyncPolicy::kNone:
        break;
      case FsyncPolicy::kAlways:
        fsync = true;
        break;
      case FsyncPolicy::kInterval:
        fsync = std::chrono::steady_clock::now() - last_fsync_ >=
                options_.fsync_interval;
        break;
    }
    if (!fsync) {
      for (Segment& segment : segments_) segment.durable_size = segment.size;
      durable_lsn_ = next_lsn_ - 1;
      return Status::Ok();
    }
  }
  return SyncGroup();
}

Status Wal::Rewind() {
  std::lock_guard<std::mutex> group(commit_mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!commit_failed_) return Status::Ok();
  for (Segment& segment : segments_) {
    const bool torn = broken_ && &segment == &segments_.back();
    if (segment.size == segment.durable_size && !torn) continue;
    // Bytes above the durable size were never fsynced, so the file is
    // still open.
    DTDEVOLVE_RETURN_IF_ERROR(segment.file->Truncate(segment.durable_size));
    segment.size = segment.durable_size;
    segment.reserved = segment.size;
    if (segment.size == 0) {
      segment.first_lsn = 0;
      segment.last_lsn = 0;
    } else {
      segment.last_lsn = std::min(segment.last_lsn, durable_lsn_);
    }
  }
  broken_ = false;
  next_lsn_ = durable_lsn_ + 1;
  commit_failed_ = false;
  return Status::Ok();
}

StatusOr<uint64_t> Wal::Append(std::string_view payload) {
  StatusOr<uint64_t> lsn = Write(payload);
  if (!lsn.ok()) return lsn;
  Status committed = Commit(*lsn);
  if (!committed.ok()) {
    (void)Rewind();
    return committed;
  }
  return lsn;
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> group(commit_mutex_);
  return SyncGroup();
}

Status Wal::TruncateThrough(uint64_t lsn) {
  std::lock_guard<std::mutex> lock(mutex_);
  // The active segment rotates away first when fully covered, so the
  // unlink loop below can treat every covered segment uniformly.
  if (!segments_.empty() && segments_.back().last_lsn != 0 &&
      segments_.back().last_lsn <= lsn) {
    DTDEVOLVE_RETURN_IF_ERROR(RotateLocked());
  }
  bool removed = false;
  for (size_t i = 0; i + 1 < segments_.size();) {
    // Empty retired segments (left by a rewind) go too.
    if (segments_[i].last_lsn <= lsn) {
      Status status = io::Unlink(segments_[i].path);
      if (!status.ok() && status.code() != Status::Code::kNotFound) {
        return status;
      }
      if (metrics_.truncated_segments != nullptr) {
        metrics_.truncated_segments->Increment();
      }
      segments_.erase(segments_.begin() + static_cast<long>(i));
      removed = true;
    } else {
      ++i;
    }
  }
  if (!removed) return Status::Ok();
  DTDEVOLVE_RETURN_IF_ERROR(io::FsyncDir(options_.dir));
  dir_synced_seq_ = segments_.back().seq;
  return Status::Ok();
}

uint64_t Wal::next_lsn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_lsn_;
}

uint64_t Wal::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return durable_lsn_;
}

bool Wal::commit_failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return commit_failed_;
}

size_t Wal::SegmentCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_.size();
}

std::string EncodeWalRecord(uint64_t lsn, std::string_view payload) {
  return EncodeRecord(lsn, payload);
}

StatusOr<WalExport> ExportWalRecords(const std::string& dir,
                                     uint64_t from_lsn, uint64_t max_bytes,
                                     uint64_t max_lsn) {
  StatusOr<std::vector<uint64_t>> seqs = ListSegments(dir);
  if (!seqs.ok()) return seqs.status();

  WalExport page;
  page.next_lsn = from_lsn;
  uint64_t last_lsn = 0;
  // Nonzero after a torn tail ended a non-final segment: as in
  // `Wal::Open`, the next record must continue the LSN sequence.
  uint64_t require_lsn = 0;
  bool full = false;
  for (size_t s = 0; s < seqs->size() && !full; ++s) {
    const std::string path = dir + "/" + SegmentName((*seqs)[s]);
    StatusOr<std::string> bytes = io::ReadFile(path);
    if (!bytes.ok()) return bytes.status();
    const std::string& data = *bytes;

    FrameCursor cursor{data};
    Frame frame;
    while (!full && cursor.Next(&frame)) {
      if (frame.lsn <= last_lsn) {
        return Status::ParseError("WAL LSN went backwards in " + path);
      }
      if (require_lsn != 0 && frame.lsn != require_lsn) {
        return Status::ParseError("WAL LSN gap after a torn tail in " + path);
      }
      require_lsn = 0;
      last_lsn = frame.lsn;
      if (page.oldest_lsn == 0) page.oldest_lsn = frame.lsn;
      if (frame.lsn > max_lsn) {
        full = true;
      } else if (frame.lsn >= from_lsn) {
        // At least one frame always ships, so a single record larger
        // than `max_bytes` cannot wedge the stream.
        const size_t frame_bytes = kRecordHeaderBytes + frame.len;
        if (!page.bytes.empty() &&
            page.bytes.size() + frame_bytes > max_bytes) {
          full = true;
        } else {
          page.bytes.append(data, frame.offset, frame_bytes);
          page.next_lsn = frame.lsn + 1;
        }
      }
    }
    // Whatever ends the final segment is the in-flight write of a live
    // primary (or its reservation): the page simply ends there.
    if (full || s + 1 == seqs->size()) break;
    if (cursor.end == FramesEnd::kTorn) require_lsn = last_lsn + 1;
    if (cursor.end == FramesEnd::kCorrupt) {
      return Status::ParseError("corrupt WAL record in " + path +
                                " at offset " + std::to_string(cursor.offset) +
                                " (" + cursor.why + ")");
    }
  }
  return page;
}

std::vector<WalRecord> DecodeWalStream(std::string_view bytes,
                                       size_t* consumed) {
  std::vector<WalRecord> records;
  FrameCursor cursor{bytes};
  Frame frame;
  while (cursor.Next(&frame)) {
    records.push_back(
        {frame.lsn, std::string(bytes.substr(
                        frame.offset + kRecordHeaderBytes, frame.len))});
  }
  if (consumed != nullptr) *consumed = cursor.offset;
  return records;
}

}  // namespace dtdevolve::store
