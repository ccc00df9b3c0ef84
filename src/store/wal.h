#ifndef DTDEVOLVE_STORE_WAL_H_
#define DTDEVOLVE_STORE_WAL_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "io/file.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace dtdevolve::store {

/// Durability discipline of a commit (`Wal::Commit`). `kAlways` fsyncs
/// before the commit returns — an acked document survives power loss;
/// commits that wait at the same time share one fsync. `kInterval`
/// fsyncs when the last fsync is older than `fsync_interval` (bounded
/// loss window, much cheaper). `kNone` never fsyncs — the OS decides.
enum class FsyncPolicy { kAlways, kInterval, kNone };

/// "always" / "interval" / "none"; false on anything else.
bool ParseFsyncPolicy(std::string_view text, FsyncPolicy* out);
const char* FsyncPolicyName(FsyncPolicy policy);

struct WalOptions {
  std::string dir;
  FsyncPolicy fsync_policy = FsyncPolicy::kAlways;
  std::chrono::milliseconds fsync_interval{100};
  /// A segment past this size is closed and a new one started; the
  /// checkpoint truncation then drops whole segments.
  uint64_t segment_bytes = 8 * 1024 * 1024;
};

struct WalRecord {
  uint64_t lsn = 0;
  std::string payload;
};

/// What `Wal::Open` found on disk.
struct WalReplay {
  std::vector<WalRecord> records;
  /// A torn final record (crash mid-append) was cut off — the log was
  /// physically truncated back to its last intact record.
  bool tail_truncated = false;
  std::string warning;
};

/// Instrumentation hooks; all pointers optional.
struct WalMetrics {
  obs::Counter* appends = nullptr;
  obs::Counter* append_bytes = nullptr;
  obs::Counter* append_errors = nullptr;
  /// One increment per file sync (`fdatasync` in `Sync` and `Commit`).
  obs::Counter* fsyncs = nullptr;
  obs::Counter* rotations = nullptr;
  obs::Counter* truncated_segments = nullptr;
  /// Records made durable by one fsyncing commit (the group size).
  obs::Histogram* commit_docs = nullptr;
  /// Seconds one syncing commit spent in `fdatasync`.
  obs::Histogram* sync_seconds = nullptr;
};

/// Append-only, length-prefixed, CRC32-checksummed write-ahead log over
/// numbered segment files (`wal-<seq>.log`). Each record is
///
///   [u32 payload length][u32 crc32(lsn || payload)][u64 lsn][payload]
///
/// little-endian, with strictly increasing LSNs across segments.
///
/// Writing is split from making durable (group commit). `Write` assigns
/// the next LSN and `pwrite`s the frame at the segment's logical size
/// under the append mutex; it never syncs. The space comes from a
/// reservation (`io::File::Allocate`) taken in 64 KiB steps whenever the
/// next frame would not fit, so the file size changes once per step, not
/// once per record. `Commit(lsn)` makes every record up to `lsn` durable
/// under the fsync policy: one `fdatasync` per open segment, run
/// *without* the append mutex, covers every record written before it
/// started, so writers keep landing records while it runs and the next
/// commit covers them all. Because the records overwrite reserved
/// space, that `fdatasync` rarely has a size change to commit and does
/// not wait on the filesystem's metadata journal. The ack contract of
/// the ingest server rests on `Commit`: a record whose commit returned
/// OK under `FsyncPolicy::kAlways` is recoverable after any crash.
/// `Append` is `Write` + `Commit` for single-writer callers.
///
/// A failed commit fails its whole group: every record above
/// `durable_lsn()` is lost, and `Write` and `Commit` refuse to run until
/// `Rewind` truncates the log back to its durable size and resets the
/// next LSN to `durable_lsn() + 1`. So a record that was never committed
/// never keeps its LSN, and the log on disk stays gapless.
///
/// Rotation and the destructor truncate the unused reservation, so a
/// cleanly closed segment ends at its last record; only a crash leaves a
/// zero tail. `Open` replays what a previous process left behind:
///
///   * a zero frame header followed only by zeros ends the segment —
///     unused reservation. LSN 0 is never issued, so a real header is
///     never all zero. The active segment keeps appending in place;
///   * a torn final record (short bytes, or a checksum mismatch with
///     nothing but zeros after it) is truncated away with a warning —
///     that record was never committed, so nothing acked is lost and
///     boot proceeds;
///   * the same torn frame ending a non-final segment (a broken write
///     the WAL healed by rotating away from) is truncated too, but only
///     if the next record continues the LSN sequence without a gap — a
///     failed write never consumes an LSN, so contiguity proves the
///     torn bytes were never acked;
///   * anything else — a complete record with a bad checksum below more
///     data, a zeroed region with records after it, an LSN gap — is a
///     hard error: the log lies about history and silently dropping
///     records would lose acked documents.
///
/// A failed write or reservation truncates the segment back to its
/// pre-write size so a torn tail never sits below later records (if even
/// the truncate fails, the WAL turns `broken` and every later write
/// fails until a retried truncate or a rotation succeeds). Thread-safe:
/// writes serialize on the append mutex, so LSN order is write order;
/// commits serialize on their own mutex, so at most one sync group is in
/// flight. A segment's file stays open until a sync covered it, so a
/// rotation or a checkpoint truncation during a commit never pulls a
/// file out from under the sync.
class Wal {
 public:
  /// Opens (creating `options.dir` when missing), scans existing
  /// segments into `*replay`, and positions for appending. LSNs continue
  /// above both what the log contains and `min_next_lsn` (the last
  /// checkpoint's LSN, so truncated history is never re-issued).
  static StatusOr<std::unique_ptr<Wal>> Open(WalOptions options,
                                             uint64_t min_next_lsn,
                                             WalReplay* replay);
  /// Truncates every open segment's unused reservation (best effort: a
  /// zero tail left behind replays clean).
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Writes one record without making it durable; returns its LSN.
  /// Rotates to a new segment first when the active one is full.
  StatusOr<uint64_t> Write(std::string_view payload);

  /// Makes every record with an LSN up to `lsn` durable under the fsync
  /// policy. Returns at once when `durable_lsn() >= lsn`. The only
  /// place the fsync policy is applied.
  Status Commit(uint64_t lsn);

  /// After a failed commit: truncates every segment back to its durable
  /// size and resets the next LSN to `durable_lsn() + 1`. A no-op when
  /// no commit failed. When a truncate fails the log stays failed and
  /// the call can be retried. The caller must make sure nothing still
  /// treats a record above `durable_lsn()` as live — its LSN is reused.
  Status Rewind();

  /// `Write` + `Commit`, rewinding when the commit fails, so a failed
  /// append never consumes an LSN. Only for callers with no concurrent
  /// writer: the rewind also cuts other threads' uncommitted records.
  StatusOr<uint64_t> Append(std::string_view payload);

  /// Explicit fsync of every written record, whatever the policy
  /// (shutdown).
  Status Sync();

  /// Drops every segment whose records all have `lsn <= lsn` — called
  /// after a checkpoint at `lsn` became durable. The active segment is
  /// rotated first when it is fully covered.
  Status TruncateThrough(uint64_t lsn);

  uint64_t next_lsn() const;
  /// Highest committed LSN: records up to it are never rewound.
  uint64_t durable_lsn() const;
  /// True between a failed commit and the `Rewind` that clears it.
  bool commit_failed() const;
  const std::string& dir() const { return options_.dir; }
  /// Number of live segment files (tests; rotation behavior).
  size_t SegmentCount() const;

  void set_metrics(const WalMetrics& metrics) { metrics_ = metrics; }

 private:
  struct Segment {
    uint64_t seq = 0;
    std::string path;
    uint64_t first_lsn = 0;  // 0 when empty
    uint64_t last_lsn = 0;
    /// Logical size: the end of the last record.
    uint64_t size = 0;
    /// File size: `size` plus the zeros reserved for the next records.
    uint64_t reserved = 0;
    /// Bytes holding committed records; `Rewind` truncates back to it.
    uint64_t durable_size = 0;
    /// Open while the segment is active or holds bytes no fsync has
    /// covered yet; shared so an fsync in flight keeps it alive.
    std::shared_ptr<io::File> file;
  };

  explicit Wal(WalOptions options) : options_(std::move(options)) {}

  std::string SegmentPath(uint64_t seq) const;
  Status OpenActive();
  Status RotateLocked();
  /// `fdatasync`s every open segment (and fsyncs the directory when a
  /// segment was created since its last sync) with the append mutex
  /// released, then commits what it covered. Caller holds
  /// `commit_mutex_`, not `mutex_`.
  Status SyncGroup();
  void CountError();

  WalOptions options_;
  WalMetrics metrics_;

  /// Serializes commits, syncs and rewinds; taken before `mutex_`.
  std::mutex commit_mutex_;
  /// The append mutex: guards everything below.
  mutable std::mutex mutex_;
  std::vector<Segment> segments_;  // ascending seq; last one is active
  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  uint64_t synced_lsn_ = 0;     // highest LSN an fsync covered
  uint64_t dir_synced_seq_ = 0; // newest segment whose dir entry is synced
  bool broken_ = false;
  bool commit_failed_ = false;
  std::chrono::steady_clock::time_point last_fsync_ =
      std::chrono::steady_clock::now();
};

/// Encodes one record exactly as `Write` lays it on disk (tests and the
/// replication oracle craft streams and torn tails with it).
std::string EncodeWalRecord(uint64_t lsn, std::string_view payload);

/// One page of a replication stream, served by the primary's
/// `GET /replication/wal?from_lsn=N` endpoint.
struct WalExport {
  /// Concatenated raw frames (the on-disk format, CRC framing included —
  /// the follower gets integrity checking for free), always cut at a
  /// frame boundary.
  std::string bytes;
  /// LSN the follower should request next after applying `bytes`.
  uint64_t next_lsn = 0;
  /// Smallest LSN still on disk (0 when the log holds no records) — the
  /// caller detects truncated history by comparing it to `from_lsn`.
  uint64_t oldest_lsn = 0;
};

/// Reads records with `from_lsn <= lsn <= max_lsn` straight from the
/// segment files of `dir`, capped near `max_bytes` (but always at least
/// one frame when any qualifies). A live primary passes its durable LSN
/// as `max_lsn`: a record above it may still be rewound by a failed
/// commit, and its LSN reused. An undecodable tail on the *final*
/// segment is the in-flight write of a live primary and simply ends the
/// page. Below it, a zero tail (unused reservation) ends its segment and
/// a torn frame followed only by zeros is skipped when the next segment
/// continues the LSN sequence, as in `Wal::Open`; other damage is an
/// error. The caller must hold off
/// checkpoint truncation while exporting (segments must not vanish
/// mid-scan).
StatusOr<WalExport> ExportWalRecords(const std::string& dir,
                                     uint64_t from_lsn, uint64_t max_bytes,
                                     uint64_t max_lsn = UINT64_MAX);

/// Decodes framed records out of a replication stream. Stops cleanly at
/// the first torn or corrupt frame — a disconnect can cut a stream
/// anywhere, and the follower simply resumes from the last applied LSN —
/// reporting how many clean bytes were consumed via `*consumed`.
std::vector<WalRecord> DecodeWalStream(std::string_view bytes,
                                       size_t* consumed);

}  // namespace dtdevolve::store

#endif  // DTDEVOLVE_STORE_WAL_H_
