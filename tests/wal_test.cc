// WAL suite: record framing, segment rotation, and — the part worth the
// suite — what `Wal::Open` does with the wreckage a crash leaves behind.
// The torn-tail / mid-log distinction is the durability contract: a torn
// final record was never acked and is truncated away with a warning,
// while corruption *inside* acked history is a hard error. Segments
// reserve space ahead of their records, so a crash leaves a zero tail,
// which replays clean. Fault
// injection (`io/fault.h`) drives the failed-append and dir-fsync
// regressions deterministically. Under the `durability` ctest label.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dtd/dtd_parser.h"
#include "evolve/persist.h"
#include "io/fault.h"
#include "io/file.h"
#include "obs/metrics.h"
#include "store/checkpoint.h"
#include "store/wal.h"

namespace dtdevolve::store {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "wal_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

WalOptions OptionsFor(const std::string& dir) {
  WalOptions options;
  options.dir = dir;
  options.fsync_policy = FsyncPolicy::kAlways;
  return options;
}

std::unique_ptr<Wal> MustOpen(const WalOptions& options, WalReplay* replay) {
  StatusOr<std::unique_ptr<Wal>> wal = Wal::Open(options, 0, replay);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return wal.ok() ? std::move(*wal) : nullptr;
}

/// Path of the single segment a fresh one-segment log lives in.
std::string OnlySegment(const std::string& dir) {
  std::string found;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_TRUE(found.empty()) << "expected exactly one segment in " << dir;
    found = entry.path().string();
  }
  EXPECT_FALSE(found.empty());
  return found;
}

void CorruptByteAt(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte ^= 0x5A;
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

TEST(WalTest, EmptyLogOpensCleanAndAppendsReplay) {
  const std::string dir = FreshDir("empty");
  WalReplay replay;
  std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), &replay);
  ASSERT_NE(wal, nullptr);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.tail_truncated);
  EXPECT_EQ(wal->next_lsn(), 1u);

  StatusOr<uint64_t> a = wal->Append("alpha");
  StatusOr<uint64_t> b = wal->Append("beta");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, 1u);
  EXPECT_EQ(*b, 2u);
  wal.reset();

  WalReplay reopened;
  wal = MustOpen(OptionsFor(dir), &reopened);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(reopened.records.size(), 2u);
  EXPECT_EQ(reopened.records[0].lsn, 1u);
  EXPECT_EQ(reopened.records[0].payload, "alpha");
  EXPECT_EQ(reopened.records[1].payload, "beta");
  EXPECT_EQ(wal->next_lsn(), 3u);
}

TEST(WalTest, TornFinalRecordIsTruncatedWithWarning) {
  const std::string dir = FreshDir("torn");
  {
    WalReplay replay;
    std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), &replay);
    ASSERT_NE(wal, nullptr);
    ASSERT_TRUE(wal->Append("first record").ok());
    ASSERT_TRUE(wal->Append("second record").ok());
  }
  // Cut the last record in half: a crash mid-append.
  const std::string segment = OnlySegment(dir);
  const uint64_t full = std::filesystem::file_size(segment);
  const uint64_t torn = full - 7;
  std::filesystem::resize_file(segment, torn);

  WalReplay replay;
  std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), &replay);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, "first record");
  EXPECT_TRUE(replay.tail_truncated);
  EXPECT_NE(replay.warning.find("torn"), std::string::npos) << replay.warning;
  // The tail was truncated *physically*, back to the last intact record.
  EXPECT_LT(std::filesystem::file_size(segment), torn);

  // Double recovery is idempotent: the second open sees a clean log.
  wal.reset();
  WalReplay again;
  wal = MustOpen(OptionsFor(dir), &again);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(again.records.size(), 1u);
  EXPECT_FALSE(again.tail_truncated);
  EXPECT_TRUE(again.warning.empty());
  // The torn record's LSN was never acked, so the next append reuses it.
  StatusOr<uint64_t> lsn = wal->Append("third");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 2u);
}

TEST(WalTest, MidLogCorruptionIsAHardError) {
  const std::string dir = FreshDir("midlog");
  {
    WalReplay replay;
    std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), &replay);
    ASSERT_NE(wal, nullptr);
    ASSERT_TRUE(wal->Append("first record").ok());
    ASSERT_TRUE(wal->Append("second record").ok());
  }
  // Flip a payload byte of the *first* record — corruption followed by
  // more data. Dropping the suffix would lose an acked document, so Open
  // must refuse instead of "repairing".
  CorruptByteAt(OnlySegment(dir), 16 + 3);

  WalReplay replay;
  StatusOr<std::unique_ptr<Wal>> wal = Wal::Open(OptionsFor(dir), 0, &replay);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), Status::Code::kParseError);
}

TEST(WalTest, CorruptionInNonFinalSegmentIsAHardError) {
  const std::string dir = FreshDir("nonfinal");
  WalOptions options = OptionsFor(dir);
  options.segment_bytes = 32;  // every record rotates into a new segment
  std::string first_segment;
  {
    WalReplay replay;
    std::unique_ptr<Wal> wal = MustOpen(options, &replay);
    ASSERT_NE(wal, nullptr);
    ASSERT_TRUE(wal->Append("record one, long enough to rotate").ok());
    first_segment = OnlySegment(dir);
    ASSERT_TRUE(wal->Append("record two").ok());
    ASSERT_GT(wal->SegmentCount(), 1u);
  }
  // Cutting the tail of a non-final segment guts an *acked* record: the
  // next segment's LSN then skips the victim, and the gap is the proof
  // that refusing to boot is right.
  std::filesystem::resize_file(first_segment,
                               std::filesystem::file_size(first_segment) - 3);

  WalReplay replay;
  StatusOr<std::unique_ptr<Wal>> wal = Wal::Open(options, 0, &replay);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), Status::Code::kParseError);
  EXPECT_NE(wal.status().message().find("LSN gap"), std::string::npos)
      << wal.status().ToString();
}

TEST(WalTest, RotationBoundaryReplaysAcrossSegmentsAndTruncates) {
  const std::string dir = FreshDir("rotate");
  WalOptions options = OptionsFor(dir);
  options.segment_bytes = 64;
  WalReplay replay;
  std::unique_ptr<Wal> wal = MustOpen(options, &replay);
  ASSERT_NE(wal, nullptr);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(wal->Append("payload number " + std::to_string(i)).ok());
  }
  const size_t segments = wal->SegmentCount();
  EXPECT_GT(segments, 2u);
  wal.reset();

  WalReplay reopened;
  wal = MustOpen(options, &reopened);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(reopened.records.size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(reopened.records[i].lsn, i + 1);
    EXPECT_EQ(reopened.records[i].payload,
              "payload number " + std::to_string(i));
  }

  // Truncating through a checkpointed LSN drops covered segments —
  // segment-granular, so records at or below the checkpoint may linger,
  // but everything above it must survive.
  ASSERT_TRUE(wal->TruncateThrough(5).ok());
  EXPECT_LT(wal->SegmentCount(), segments);
  wal.reset();
  WalReplay truncated;
  wal = MustOpen(options, &truncated);
  ASSERT_NE(wal, nullptr);
  ASSERT_FALSE(truncated.records.empty());
  EXPECT_EQ(truncated.records.back().lsn, 8u);
  uint64_t expect = truncated.records.front().lsn;
  EXPECT_LE(expect, 6u) << "a record above the checkpoint was dropped";
  for (const WalRecord& record : truncated.records) {
    EXPECT_EQ(record.lsn, expect++) << "replay after truncation has a gap";
  }
}

TEST(WalTest, FailedAppendLeavesLogCleanAndRecovers) {
  const std::string dir = FreshDir("enospc");
  WalReplay replay;
  std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), &replay);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->Append("survives").ok());

  {
    // Disk full, half the record persisted — the failed append must
    // truncate its torn bytes back out of the segment.
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kWrite);
    plan.error_code = ENOSPC;
    plan.torn_fraction = 0.5;
    io::ScopedFaultPlan guard(plan);
    StatusOr<uint64_t> lsn = wal->Append("must not surface");
    ASSERT_FALSE(lsn.ok());
  }
  // The next append succeeds and the log replays without the casualty.
  StatusOr<uint64_t> after = wal->Append("after the outage");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  wal.reset();

  WalReplay reopened;
  wal = MustOpen(OptionsFor(dir), &reopened);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(reopened.records.size(), 2u);
  EXPECT_EQ(reopened.records[0].payload, "survives");
  EXPECT_EQ(reopened.records[1].payload, "after the outage");
  EXPECT_FALSE(reopened.tail_truncated);
}

TEST(WalTest, BrokenWalSelfHealsInPlaceWhenTruncateRecovers) {
  const std::string dir = FreshDir("broken_inplace");
  WalReplay replay;
  std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), &replay);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->Append("before").ok());

  {
    // The write fails *and* the cleanup truncate fails: the segment may
    // hold torn bytes, so the WAL must refuse to stack records on top.
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kWrite) |
                   static_cast<uint32_t>(io::FaultOp::kTruncate);
    plan.error_code = EIO;
    plan.torn_fraction = 0.25;
    plan.crash = true;  // every later masked op fails too: the truncate
    io::ScopedFaultPlan guard(plan);
    ASSERT_FALSE(wal->Append("torn and stuck").ok());
  }
  // The disk came back: the retry of the cleanup truncate succeeds, so
  // healing needs no new segment and leaves no torn bytes behind.
  StatusOr<uint64_t> healed = wal->Append("after heal");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(wal->SegmentCount(), 1u);
  wal.reset();

  WalReplay reopened;
  wal = MustOpen(OptionsFor(dir), &reopened);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(reopened.records.size(), 2u);
  EXPECT_EQ(reopened.records[0].payload, "before");
  EXPECT_EQ(reopened.records[1].payload, "after heal");
  EXPECT_FALSE(reopened.tail_truncated);
}

TEST(WalTest, BrokenWalSelfHealsByRotatingWhenTruncateKeepsFailing) {
  const std::string dir = FreshDir("broken_rotate");
  WalReplay replay;
  std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), &replay);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->Append("before").ok());

  {
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kWrite) |
                   static_cast<uint32_t>(io::FaultOp::kTruncate);
    plan.error_code = EIO;
    plan.torn_fraction = 0.25;
    plan.crash = true;
    io::ScopedFaultPlan guard(plan);
    ASSERT_FALSE(wal->Append("torn and stuck").ok());
  }
  {
    // The in-place truncate retry still fails — healing falls back to
    // rotating, abandoning the torn bytes in the retired segment.
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kTruncate);
    plan.error_code = EIO;
    io::ScopedFaultPlan guard(plan);
    StatusOr<uint64_t> healed = wal->Append("after heal");
    ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  }
  EXPECT_EQ(wal->SegmentCount(), 2u);
  wal.reset();

  // Replay tolerates the abandoned torn tail: the failed append never
  // consumed an LSN, so the next segment continues the sequence — the
  // contiguity that separates this from real mid-log corruption.
  WalReplay reopened;
  wal = MustOpen(OptionsFor(dir), &reopened);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(reopened.records.size(), 2u);
  EXPECT_EQ(reopened.records[0].payload, "before");
  EXPECT_EQ(reopened.records[0].lsn, 1u);
  EXPECT_EQ(reopened.records[1].payload, "after heal");
  EXPECT_EQ(reopened.records[1].lsn, 2u);
  EXPECT_TRUE(reopened.tail_truncated);
  EXPECT_NE(reopened.warning.find("torn"), std::string::npos);
}

// --- Reservation and zero tail ----------------------------------------------

/// The file's bytes, as a crash would leave them on disk.
std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// On-disk bytes of records 1, 2, … carrying these payloads.
uint64_t FramedSize(const std::vector<std::string>& payloads) {
  uint64_t size = 0;
  for (size_t i = 0; i < payloads.size(); ++i) {
    size += EncodeWalRecord(i + 1, payloads[i]).size();
  }
  return size;
}

TEST(WalTest, KilledWalReplaysItsZeroTailAndAppendsInPlace) {
  const std::string dir = FreshDir("killed");
  const std::vector<std::string> payloads = {"one", "two", "three"};
  std::string segment;
  std::string at_kill;
  {
    std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), nullptr);
    ASSERT_NE(wal, nullptr);
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(wal->Append(payload).ok());
    }
    segment = OnlySegment(dir);
    // The records sit at the head of a zero-filled reservation.
    at_kill = ReadBytes(segment);
    EXPECT_GT(at_kill.size(), FramedSize(payloads));
  }
  // The process died instead: its destructor never trimmed the tail.
  WriteBytes(segment, at_kill);

  WalReplay replay;
  std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), &replay);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[2].payload, "three");
  EXPECT_FALSE(replay.tail_truncated);
  EXPECT_TRUE(replay.warning.empty()) << replay.warning;
  // The next record lands in the reservation: the file does not grow.
  StatusOr<uint64_t> lsn = wal->Append("four");
  ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
  EXPECT_EQ(*lsn, 4u);
  EXPECT_EQ(std::filesystem::file_size(segment), at_kill.size());
  wal.reset();

  const std::vector<std::string> all = {"one", "two", "three", "four"};
  EXPECT_EQ(std::filesystem::file_size(segment), FramedSize(all));
  WalReplay reopened;
  wal = MustOpen(OptionsFor(dir), &reopened);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(reopened.records.size(), 4u);
  EXPECT_EQ(reopened.records[3].payload, "four");
}

TEST(WalTest, TornFrameBeforeAZeroTailIsCutWithWarning) {
  const std::string dir = FreshDir("torn_zero_tail");
  const std::vector<std::string> payloads = {"first record",
                                             "second record"};
  std::string segment;
  std::string at_kill;
  {
    std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), nullptr);
    ASSERT_NE(wal, nullptr);
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(wal->Append(payload).ok());
    }
    segment = OnlySegment(dir);
    at_kill = ReadBytes(segment);
  }
  // A crash mid-write of record 3: half its frame reached the
  // reservation, zeros follow.
  const uint64_t end = FramedSize(payloads);
  const std::string third = EncodeWalRecord(3, "third record, never acked");
  at_kill.replace(end, third.size() / 2, third.substr(0, third.size() / 2));
  WriteBytes(segment, at_kill);

  WalReplay replay;
  std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), &replay);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_TRUE(replay.tail_truncated);
  EXPECT_NE(replay.warning.find("torn"), std::string::npos) << replay.warning;
  EXPECT_EQ(std::filesystem::file_size(segment), end);
  StatusOr<uint64_t> lsn = wal->Append("third");
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 3u);
}

TEST(WalTest, ZeroedBlockInsideAckedHistoryIsAHardError) {
  const std::string dir = FreshDir("zeroed_block");
  const std::vector<std::string> payloads = {"first record", "second record",
                                             "third record"};
  {
    std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), nullptr);
    ASSERT_NE(wal, nullptr);
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(wal->Append(payload).ok());
    }
  }
  // Record 2 reads back as zeros, record 3 follows: not a zero tail.
  const std::string segment = OnlySegment(dir);
  std::string bytes = ReadBytes(segment);
  const uint64_t second = EncodeWalRecord(1, payloads[0]).size();
  bytes.replace(second, EncodeWalRecord(2, payloads[1]).size(),
                EncodeWalRecord(2, payloads[1]).size(), '\0');
  WriteBytes(segment, bytes);

  WalReplay replay;
  StatusOr<std::unique_ptr<Wal>> wal = Wal::Open(OptionsFor(dir), 0, &replay);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), Status::Code::kParseError);
  EXPECT_EQ(std::filesystem::file_size(segment), bytes.size())
      << "a refused log must not be cut";
}

TEST(WalTest, ZeroTailOfANonFinalSegmentReplaysAndExports) {
  const std::string dir = FreshDir("nonfinal_zero_tail");
  WalOptions options = OptionsFor(dir);
  options.segment_bytes = 32;  // every record rotates into a new segment
  std::string first_segment;
  {
    std::unique_ptr<Wal> wal = MustOpen(options, nullptr);
    ASSERT_NE(wal, nullptr);
    ASSERT_TRUE(wal->Append("record one, long enough to rotate").ok());
    first_segment = OnlySegment(dir);
    ASSERT_TRUE(wal->Append("record two, long enough to rotate").ok());
    ASSERT_TRUE(wal->Append("record three").ok());
    ASSERT_EQ(wal->SegmentCount(), 3u);
  }
  // A crash after the rotation, before its trim reached the disk.
  std::filesystem::resize_file(first_segment, 64 * 1024);

  WalReplay replay;
  std::unique_ptr<Wal> wal = MustOpen(options, &replay);
  ASSERT_NE(wal, nullptr);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_FALSE(replay.tail_truncated);
  EXPECT_TRUE(replay.warning.empty()) << replay.warning;

  StatusOr<WalExport> page = ExportWalRecords(dir, 1, 1 << 20);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  const std::vector<WalRecord> records = DecodeWalStream(page->bytes, nullptr);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].payload, "record three");
  EXPECT_EQ(page->next_lsn, 4u);
}

TEST(WalTest, RotatedAndClosedSegmentsEndAtTheirLastRecord) {
  const std::string dir = FreshDir("trimmed");
  WalOptions options = OptionsFor(dir);
  options.segment_bytes = 64;
  std::unique_ptr<Wal> wal = MustOpen(options, nullptr);
  ASSERT_NE(wal, nullptr);
  std::vector<std::string> payloads;
  for (int i = 0; i < 8; ++i) {
    payloads.push_back("payload number " + std::to_string(i));
    ASSERT_TRUE(wal->Append(payloads.back()).ok());
  }
  ASSERT_EQ(wal->SegmentCount(), 4u);  // two 32-byte frames per segment
  // Open: only the active segment holds a reservation.
  std::vector<uint64_t> sizes;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    sizes.push_back(entry.file_size());
  }
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<uint64_t>{64, 64, 64, 64 * 1024}));
  wal.reset();

  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.file_size(), 64u) << entry.path();
    total += entry.file_size();
  }
  EXPECT_EQ(total, FramedSize(payloads));
}

// --- Group commit ------------------------------------------------------------

/// Every record of the log in `dir`, as a fresh open replays it.
std::vector<WalRecord> Reopen(const WalOptions& options) {
  WalReplay replay;
  std::unique_ptr<Wal> wal = MustOpen(options, &replay);
  EXPECT_FALSE(replay.tail_truncated) << replay.warning;
  return replay.records;
}

TEST(WalTest, OneCommitMakesTheWholeGroupDurableWithOneFsync) {
  const std::string dir = FreshDir("group");
  obs::Registry registry;
  WalMetrics metrics;
  metrics.fsyncs = &registry.GetCounter("fsyncs", "");
  metrics.commit_docs =
      &registry.GetHistogram("commit_docs", "", {1, 2, 4, 8});
  std::unique_ptr<Wal> wal = MustOpen(OptionsFor(dir), nullptr);
  ASSERT_NE(wal, nullptr);
  wal->set_metrics(metrics);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal->Write("doc " + std::to_string(i)).ok());
  }
  EXPECT_EQ(wal->durable_lsn(), 0u);
  EXPECT_EQ(metrics.fsyncs->Value(), 0u) << "Write must never fsync";
  // Committing the first record covers everything written before it.
  ASSERT_TRUE(wal->Commit(1).ok());
  EXPECT_EQ(wal->durable_lsn(), 3u);
  EXPECT_EQ(metrics.fsyncs->Value(), 1u);
  ASSERT_TRUE(wal->Commit(3).ok());
  EXPECT_EQ(metrics.fsyncs->Value(), 1u) << "a durable LSN commits for free";
  EXPECT_EQ(metrics.commit_docs->Count(), 1u);
  EXPECT_EQ(metrics.commit_docs->Sum(), 3.0);
  EXPECT_FALSE(wal->Commit(4).ok()) << "LSN 4 was never written";
}

TEST(WalTest, FailedCommitRewindsTheGroupAndReusesItsLsns) {
  const std::string dir = FreshDir("rewind");
  const WalOptions options = OptionsFor(dir);
  std::unique_ptr<Wal> wal = MustOpen(options, nullptr);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->Append("kept 1").ok());
  ASSERT_TRUE(wal->Append("kept 2").ok());

  ASSERT_TRUE(wal->Write("lost 3").ok());
  StatusOr<uint64_t> lost = wal->Write("lost 4");
  ASSERT_TRUE(lost.ok());
  EXPECT_EQ(*lost, 4u);
  {
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kFsync);
    plan.error_code = EIO;
    io::ScopedFaultPlan guard(plan);
    EXPECT_FALSE(wal->Commit(*lost).ok());
  }
  // The whole group is gone; nothing stacks on it until the rewind.
  EXPECT_EQ(wal->durable_lsn(), 2u);
  EXPECT_TRUE(wal->commit_failed());
  EXPECT_FALSE(wal->Write("refused").ok());
  EXPECT_FALSE(wal->Commit(3).ok());

  ASSERT_TRUE(wal->Rewind().ok());
  EXPECT_FALSE(wal->commit_failed());
  EXPECT_EQ(wal->next_lsn(), 3u);
  StatusOr<uint64_t> reused = wal->Append("after 3");
  ASSERT_TRUE(reused.ok()) << reused.status().ToString();
  EXPECT_EQ(*reused, 3u) << "the first failed LSN is reused";
  wal.reset();

  const std::vector<WalRecord> records = Reopen(options);
  ASSERT_EQ(records.size(), 3u);
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
  }
  EXPECT_EQ(records[0].payload, "kept 1");
  EXPECT_EQ(records[1].payload, "kept 2");
  EXPECT_EQ(records[2].payload, "after 3");
}

TEST(WalTest, FailedCommitAcrossARotationRewindsEverySegment) {
  const std::string dir = FreshDir("rewind_rotate");
  WalOptions options = OptionsFor(dir);
  options.segment_bytes = 48;  // about two records per segment
  std::unique_ptr<Wal> wal = MustOpen(options, nullptr);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->Append("durable record").ok());
  // The uncommitted group spans several segments.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(wal->Write("group record " + std::to_string(i)).ok());
  }
  ASSERT_GT(wal->SegmentCount(), 2u);
  {
    io::FaultPlan plan;
    plan.fail_at = 2;  // the second segment's fsync
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kFsync);
    io::ScopedFaultPlan guard(plan);
    EXPECT_FALSE(wal->Commit(6).ok());
  }
  EXPECT_EQ(wal->durable_lsn(), 1u);
  ASSERT_TRUE(wal->Rewind().ok());
  ASSERT_TRUE(wal->Append("after the rewind").ok());
  // Segments the rewind emptied go with the next checkpoint truncation.
  ASSERT_TRUE(wal->TruncateThrough(0).ok());
  wal.reset();

  const std::vector<WalRecord> records = Reopen(options);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].payload, "durable record");
  EXPECT_EQ(records[1].lsn, 2u);
  EXPECT_EQ(records[1].payload, "after the rewind");
}

TEST(WalTest, FsyncFailureInAppendDoesNotConsumeAnLsn) {
  const std::string dir = FreshDir("append_fsync");
  const WalOptions options = OptionsFor(dir);
  std::unique_ptr<Wal> wal = MustOpen(options, nullptr);
  ASSERT_NE(wal, nullptr);
  ASSERT_TRUE(wal->Append("before").ok());
  {
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kFsync);
    io::ScopedFaultPlan guard(plan);
    EXPECT_FALSE(wal->Append("never acked").ok());
  }
  StatusOr<uint64_t> after = wal->Append("after");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, 2u);
  wal.reset();
  const std::vector<WalRecord> records = Reopen(options);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].payload, "after");
}

// Writers, committers and checkpoint truncation racing on one log (run
// it under ThreadSanitizer with the `concurrency` label): every LSN is
// issued once, every commit covers its own write, and the log that
// survives replays as one gapless run ending at the last write.
TEST(WalConcurrencyTest, ConcurrentWritesCommitsAndTruncationsStayGapless) {
  const std::string dir = FreshDir("concurrent");
  WalOptions options = OptionsFor(dir);
  options.segment_bytes = 2048;  // rotations land inside commits
  std::unique_ptr<Wal> wal = MustOpen(options, nullptr);
  ASSERT_NE(wal, nullptr);

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 150;
  std::atomic<bool> failed{false};
  std::atomic<int> writers_done{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        StatusOr<uint64_t> lsn = wal->Write(
            "writer " + std::to_string(w) + " record " + std::to_string(i));
        if (!lsn.ok()) {
          failed = true;
          break;
        }
        // Every third write waits for its own durability; the rest ride
        // along with someone else's group.
        if (i % 3 == 0 &&
            (!wal->Commit(*lsn).ok() || wal->durable_lsn() < *lsn)) {
          failed = true;
        }
      }
      ++writers_done;
    });
  }
  threads.emplace_back([&] {
    while (writers_done < kWriters) {
      const uint64_t durable = wal->durable_lsn();
      if (!wal->TruncateThrough(durable / 2).ok()) failed = true;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed);

  const uint64_t last = wal->next_lsn() - 1;
  EXPECT_EQ(last, static_cast<uint64_t>(kWriters * kPerWriter));
  ASSERT_TRUE(wal->Commit(last).ok());
  EXPECT_EQ(wal->durable_lsn(), last);
  wal.reset();

  const std::vector<WalRecord> records = Reopen(options);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.back().lsn, last);
  uint64_t expect = records.front().lsn;
  for (const WalRecord& record : records) {
    ASSERT_EQ(record.lsn, expect++) << "gap in the surviving log";
  }
}

// --- checkpoint durability regression ---------------------------------------

TEST(WalTest, CheckpointWriteFsyncsTheParentDirectory) {
  const std::string dir = FreshDir("checkpoint_dirsync");
  ASSERT_TRUE(io::CreateDir(dir).ok());
  StatusOr<dtd::Dtd> dtd = dtd::ParseDtd("<!ELEMENT a (#PCDATA)>");
  ASSERT_TRUE(dtd.ok());
  CheckpointData data;
  data.lsn = 1;
  data.dtds.emplace_back(
      "a", evolve::SerializeExtendedDtd(evolve::ExtendedDtd(std::move(*dtd))));

  {
    // If the checkpoint writer skipped the parent-directory fsync after
    // its renames, this plan would never fire and the write would
    // "succeed".
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kFsyncDir);
    io::ScopedFaultPlan guard(plan);
    Status written = WriteCheckpoint(dir, data);
    ASSERT_FALSE(written.ok())
        << "checkpoint write must surface a parent-dir fsync failure";
  }
  Status written = WriteCheckpoint(dir, data);
  ASSERT_TRUE(written.ok()) << written.ToString();
  StatusOr<CheckpointData> loaded = ReadCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->lsn, 1u);
  EXPECT_EQ(loaded->dtds, data.dtds);
}

}  // namespace
}  // namespace dtdevolve::store
