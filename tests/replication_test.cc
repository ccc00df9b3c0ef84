// Replication suite (`replication` ctest label): the WAL stream's
// torn-frame tolerance at decode and export level, the replication
// oracle's fault-injected sweep, and an end-to-end primary → follower
// pair over real sockets — bootstrap from the checkpoint blob, WAL
// streaming, read-only enforcement, lag reaching zero, a follower
// restart converging onto the same bytes after the primary truncated
// its log, and only durable records ever shipping.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "server/server.h"
#include "store/wal.h"

namespace dtdevolve {
namespace {

// --- Oracle sweep -----------------------------------------------------------

TEST(ReplicationTest, OracleSweepIsCleanAndExercisesFaults) {
  check::ReplicationOracleOptions options;
  options.sweep.scenarios = 30;
  options.sweep.seed = 11;
  check::SweepReport report = check::RunSweep(options);
  EXPECT_TRUE(report.ok()) << check::FormatSweepReport(report);
  EXPECT_EQ(report.scenarios_run, 30u);
  EXPECT_GT(report.polls, 0u);
  // The sweep is only meaningful if the fault injector actually tore
  // pages / re-delivered records and forced post-gap re-bootstraps.
  EXPECT_GT(report.faults, 0u);
  EXPECT_GE(report.bootstraps, 30u);  // at least the initial one each
}

TEST(ReplicationTest, OracleScenarioReplaysDeterministically) {
  check::ReplicationOracleOptions options;
  options.sweep.max_documents = 24;
  check::ScenarioResult first = check::RunReplicationScenario(5, options);
  check::ScenarioResult second = check::RunReplicationScenario(5, options);
  EXPECT_TRUE(first.ok()) << check::FormatScenario(first);
  EXPECT_EQ(first.scenario, second.scenario);
  EXPECT_EQ(first.documents, second.documents);
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

TEST(ReplicationTest, OracleReplayLineCarriesTheDocumentCap) {
  // A failure found at a document cap replays at that cap, not at the
  // default of 40.
  check::ReplicationOracleOptions options;
  options.sweep.scenarios = 0;  // the report's header only
  options.sweep.max_documents = 24;
  options.checkpoint_every = 3;
  check::SweepReport report = check::RunSweep(options);
  check::ScenarioResult failing;
  failing.seed = 7;
  failing.scenario = "replication synthetic";
  failing.violations.push_back(
      {"replication-convergence", "", 24, "follower stalled"});
  report.failures.push_back(failing);
  const std::string text = check::FormatSweepReport(report);
  EXPECT_NE(text.find("  replay: dtdevolve check --replication --seed 7 "
                      "--scenarios 1 --max-documents 24 "
                      "--checkpoint-every 3\n"),
            std::string::npos)
      << text;
}

// --- Torn frames ------------------------------------------------------------

TEST(ReplicationTest, DecodeWalStreamStopsCleanlyAtAnyTruncation) {
  std::string stream;
  std::vector<store::WalRecord> expected;
  std::vector<size_t> boundaries;  // cumulative frame ends
  for (uint64_t lsn = 1; lsn <= 3; ++lsn) {
    std::string payload(17 * lsn, static_cast<char>('a' + lsn));
    stream += store::EncodeWalRecord(lsn, payload);
    expected.push_back({lsn, payload});
    boundaries.push_back(stream.size());
  }

  size_t consumed = 0;
  EXPECT_EQ(store::DecodeWalStream(stream, &consumed).size(), 3u);
  EXPECT_EQ(consumed, stream.size());

  // A disconnect can cut the stream at ANY byte: the decoder must yield
  // exactly the complete frames before the cut and report a consumed
  // offset the next poll can resume from.
  for (size_t cut = 0; cut < stream.size(); ++cut) {
    size_t complete = 0;
    while (complete < boundaries.size() && boundaries[complete] <= cut) {
      ++complete;
    }
    size_t head_consumed = 0;
    std::vector<store::WalRecord> head = store::DecodeWalStream(
        std::string_view(stream).substr(0, cut), &head_consumed);
    ASSERT_EQ(head.size(), complete) << "cut at byte " << cut;
    EXPECT_LE(head_consumed, cut);
    for (size_t i = 0; i < head.size(); ++i) {
      EXPECT_EQ(head[i].lsn, expected[i].lsn);
      EXPECT_EQ(head[i].payload, expected[i].payload);
    }
    // Resuming exactly at the consumed offset recovers the tail.
    size_t tail_consumed = 0;
    std::vector<store::WalRecord> tail = store::DecodeWalStream(
        std::string_view(stream).substr(head_consumed), &tail_consumed);
    EXPECT_EQ(head.size() + tail.size(), 3u) << "cut at byte " << cut;
  }

  // A flipped byte inside the second frame stops decoding before it —
  // the CRC framing rejects the record instead of applying garbage.
  std::string corrupt = stream;
  corrupt[boundaries[0] + 9] ^= 0x40;
  size_t corrupt_consumed = 0;
  EXPECT_EQ(store::DecodeWalStream(corrupt, &corrupt_consumed).size(), 1u);
  EXPECT_EQ(corrupt_consumed, boundaries[0]);
}

TEST(ReplicationTest, ExportServesCommittedRecordsPastATornTail) {
  const std::string dir = ::testing::TempDir() + "replication_export_wal";
  ::mkdir(dir.c_str(), 0755);

  {
    store::WalOptions options;
    options.dir = dir;
    options.fsync_policy = store::FsyncPolicy::kNone;
    store::WalReplay replay;
    StatusOr<std::unique_ptr<store::Wal>> wal =
        store::Wal::Open(options, 0, &replay);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (uint64_t lsn = 1; lsn <= 5; ++lsn) {
      StatusOr<uint64_t> appended =
          (*wal)->Append("payload-" + std::to_string(lsn));
      ASSERT_TRUE(appended.ok());
      EXPECT_EQ(*appended, lsn);
    }
  }

  // Simulate the primary dying mid-append: a torn frame at the tail of
  // the last segment. Export must serve the five committed records and
  // simply stop at the tear (it is the in-flight append, never acked).
  std::string last_segment;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name.rfind("wal-", 0) == 0 && name > last_segment) {
        last_segment = name;
      }
    }
    ::closedir(d);
  }
  ASSERT_FALSE(last_segment.empty());
  const std::string torn = store::EncodeWalRecord(6, "torn").substr(0, 9);
  std::FILE* f = std::fopen((dir + "/" + last_segment).c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(torn.data(), 1, torn.size(), f), torn.size());
  std::fclose(f);

  StatusOr<store::WalExport> full =
      store::ExportWalRecords(dir, 1, 1 << 20);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  size_t consumed = 0;
  std::vector<store::WalRecord> records =
      store::DecodeWalStream(full->bytes, &consumed);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(consumed, full->bytes.size());  // the page itself is clean
  EXPECT_EQ(records.front().lsn, 1u);
  EXPECT_EQ(records.back().lsn, 5u);
  EXPECT_EQ(full->next_lsn, 6u);
  EXPECT_EQ(full->oldest_lsn, 1u);

  // Resume mid-stream, the follower's steady state.
  StatusOr<store::WalExport> page = store::ExportWalRecords(dir, 4, 1 << 20);
  ASSERT_TRUE(page.ok());
  records = store::DecodeWalStream(page->bytes, &consumed);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.front().lsn, 4u);

  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") {
        std::remove((dir + "/" + name).c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

// --- End to end over sockets ------------------------------------------------

const char* kMailDtd = R"(
  <!ELEMENT mail (envelope, body)>
  <!ELEMENT envelope (from, to, subject)>
  <!ELEMENT from (#PCDATA)>
  <!ELEMENT to (#PCDATA)>
  <!ELEMENT subject (#PCDATA)>
  <!ELEMENT body (#PCDATA)>
)";

const char* kConformingDoc =
    "<mail><envelope><from>a</from><to>b</to><subject>s</subject>"
    "</envelope><body>hello</body></mail>";

const char* kDriftedDoc =
    "<mail><envelope><from>a</from><to>b</to><subject>s</subject>"
    "<cc>c</cc></envelope><body>hello</body>"
    "<attachment>x</attachment></mail>";

struct ClientResponse {
  int status = 0;
  std::string body;
};

ClientResponse RoundTrip(uint16_t port, const std::string& request) {
  ClientResponse out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return out;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[4096];
  while (true) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos || raw.rfind("HTTP/1.1 ", 0) != 0) return out;
  out.status = std::atoi(raw.c_str() + 9);
  out.body = raw.substr(split + 4);
  return out;
}

ClientResponse Get(uint16_t port, const std::string& target) {
  return RoundTrip(port, "GET " + target +
                             " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
}

ClientResponse Post(uint16_t port, const std::string& target,
                    const std::string& body) {
  return RoundTrip(port, "POST " + target +
                             " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                             "Content-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n" + body);
}

/// Polls `fetch` until `want(value)` or ~10 s pass; returns the last
/// value.
template <typename Fetch, typename Want>
auto PollUntil(Fetch fetch, Want want) {
  auto value = fetch();
  for (int attempt = 0; attempt < 1000 && !want(value); ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    value = fetch();
  }
  return value;
}

void RemoveTree(const std::string& path) {
  if (DIR* d = ::opendir(path.c_str())) {
    while (dirent* entry = ::readdir(d)) {
      const std::string name = entry->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      struct stat st = {};
      if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
        RemoveTree(child);
      } else {
        std::remove(child.c_str());
      }
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

core::SourceOptions EvolvingOptions() {
  core::SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.15;
  options.min_documents_before_check = 1;
  return options;
}

TEST(ReplicationTest, FollowerBootstrapsStreamsAndStaysReadOnly) {
  const std::string wal_dir = ::testing::TempDir() + "replication_primary_a";
  RemoveTree(wal_dir);

  server::ServerOptions primary_options;
  primary_options.port = 0;
  primary_options.jobs = 2;
  primary_options.wal_dir = wal_dir;
  primary_options.fsync_policy = store::FsyncPolicy::kNone;
  server::IngestServer primary(EvolvingOptions(), primary_options);
  ASSERT_TRUE(primary.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(primary.Start().ok());

  ASSERT_EQ(Post(primary.port(), "/ingest?wait=1", kConformingDoc).status, 200);
  ClientResponse drifted = Post(primary.port(), "/ingest?wait=1", kDriftedDoc);
  ASSERT_EQ(drifted.status, 200);
  EXPECT_NE(drifted.body.find("\"evolved\":true"), std::string::npos);
  const std::string primary_dtd = Get(primary.port(), "/dtds/mail").body;
  ASSERT_NE(primary_dtd.find("attachment"), std::string::npos);

  server::ServerOptions follower_options;
  follower_options.port = 0;
  follower_options.jobs = 2;
  follower_options.follow_url =
      "http://127.0.0.1:" + std::to_string(primary.port());
  follower_options.follow_poll_interval = std::chrono::milliseconds(20);
  server::IngestServer follower(EvolvingOptions(), follower_options);
  ASSERT_TRUE(follower.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(follower.Start().ok());

  // The follower streams the primary's WAL and lands on the evolved DTD.
  const std::string follower_dtd =
      PollUntil([&] { return Get(follower.port(), "/dtds/mail").body; },
                [&](const std::string& body) { return body == primary_dtd; });
  EXPECT_EQ(follower_dtd, primary_dtd);

  // Reads serve; writes are refused — this replica has no WAL of its own.
  EXPECT_EQ(Get(follower.port(), "/stats").status, 200);
  ClientResponse refused = Post(follower.port(), "/ingest", kConformingDoc);
  EXPECT_EQ(refused.status, 403);
  EXPECT_NE(refused.body.find("read-only replica"), std::string::npos)
      << refused.body;
  EXPECT_EQ(Post(follower.port(), "/dtds/induce", "").status, 403);

  // Once caught up the lag gauge reads zero.
  const std::string metrics = PollUntil(
      [&] { return Get(follower.port(), "/metrics").body; },
      [](const std::string& body) {
        return body.find("\ndtdevolve_replication_lag_lsn 0\n") !=
               std::string::npos;
      });
  EXPECT_NE(metrics.find("\ndtdevolve_replication_lag_lsn 0\n"),
            std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("dtdevolve_replication_records_applied_total"),
            std::string::npos);

  // New primary writes keep flowing.
  ASSERT_EQ(Post(primary.port(), "/ingest?wait=1", kConformingDoc).status, 200);
  const std::string stats = PollUntil(
      [&] { return Get(follower.port(), "/stats").body; },
      [](const std::string& body) {
        return body.find("\"documents_processed\":3") != std::string::npos;
      });
  EXPECT_NE(stats.find("\"documents_processed\":3"), std::string::npos)
      << stats;

  follower.Shutdown();
  follower.Wait();
  primary.Shutdown();
  primary.Wait();
  RemoveTree(wal_dir);
}

TEST(ReplicationTest, FollowerRestartConvergesAfterCheckpointTruncation) {
  const std::string wal_dir = ::testing::TempDir() + "replication_primary_b";
  RemoveTree(wal_dir);

  server::ServerOptions primary_options;
  primary_options.port = 0;
  primary_options.jobs = 2;
  primary_options.wal_dir = wal_dir;
  primary_options.fsync_policy = store::FsyncPolicy::kNone;
  server::IngestServer primary(EvolvingOptions(), primary_options);
  ASSERT_TRUE(primary.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(primary.Start().ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(Post(primary.port(), "/ingest?wait=1", kConformingDoc).status,
              200);
  }
  // Checkpoint + truncate: history before the checkpoint is gone, so any
  // follower from here on MUST take the bootstrap path, not LSN 1.
  uint64_t captured_lsn = 0;
  ASSERT_TRUE(primary.CheckpointNow(&captured_lsn).ok());
  EXPECT_GE(captured_lsn, 3u);
  ASSERT_EQ(Post(primary.port(), "/ingest?wait=1", kDriftedDoc).status, 200);
  const std::string primary_dtd = Get(primary.port(), "/dtds/mail").body;

  server::ServerOptions follower_options;
  follower_options.port = 0;
  follower_options.jobs = 2;
  follower_options.follow_url =
      "http://127.0.0.1:" + std::to_string(primary.port());
  follower_options.follow_poll_interval = std::chrono::milliseconds(20);

  // First follower lifetime: converge, then stop.
  {
    server::IngestServer follower(EvolvingOptions(), follower_options);
    ASSERT_TRUE(follower.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(follower.Start().ok());
    const std::string body =
        PollUntil([&] { return Get(follower.port(), "/dtds/mail").body; },
                  [&](const std::string& b) { return b == primary_dtd; });
    EXPECT_EQ(body, primary_dtd);
    follower.Shutdown();
    follower.Wait();
  }

  // The primary moves on while no follower is attached.
  ASSERT_EQ(Post(primary.port(), "/ingest?wait=1", kConformingDoc).status, 200);

  // A fresh follower (a restart: no retained state) bootstraps from the
  // checkpoint, streams the suffix, and matches the primary byte for
  // byte — applying records it would have seen in its first life again
  // is impossible because the bootstrap already carries their effects.
  {
    server::IngestServer follower(EvolvingOptions(), follower_options);
    ASSERT_TRUE(follower.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(follower.Start().ok());
    const std::string stats = PollUntil(
        [&] { return Get(follower.port(), "/stats").body; },
        [](const std::string& b) {
          return b.find("\"documents_processed\":5") != std::string::npos;
        });
    EXPECT_NE(stats.find("\"documents_processed\":5"), std::string::npos)
        << stats;
    EXPECT_EQ(Get(follower.port(), "/dtds/mail").body, primary_dtd);

    const std::string metrics = Get(follower.port(), "/metrics").body;
    EXPECT_NE(metrics.find("dtdevolve_replication_bootstraps_total"),
              std::string::npos);
    follower.Shutdown();
    follower.Wait();
  }

  primary.Shutdown();
  primary.Wait();
  RemoveTree(wal_dir);
}

TEST(ReplicationTest, FollowerNeverReceivesRecordsAboveTheDurableLsn) {
  const std::string wal_dir = ::testing::TempDir() + "replication_primary_c";
  RemoveTree(wal_dir);

  server::ServerOptions primary_options;
  primary_options.port = 0;
  primary_options.jobs = 2;
  primary_options.wal_dir = wal_dir;
  primary_options.fsync_policy = store::FsyncPolicy::kAlways;
  server::IngestServer primary(EvolvingOptions(), primary_options);
  ASSERT_TRUE(primary.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(primary.Start().ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(Post(primary.port(), "/ingest?wait=1", kConformingDoc).status,
              200);
  }

  server::ServerOptions follower_options;
  follower_options.port = 0;
  follower_options.jobs = 2;
  follower_options.follow_url =
      "http://127.0.0.1:" + std::to_string(primary.port());
  follower_options.follow_poll_interval = std::chrono::milliseconds(10);
  server::IngestServer follower(EvolvingOptions(), follower_options);
  ASSERT_TRUE(follower.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(follower.Start().ok());
  PollUntil([&] { return follower.manager().AppliedLsnFor("default"); },
            [](uint64_t lsn) { return lsn == 2; });
  ASSERT_EQ(follower.manager().AppliedLsnFor("default"), 2u);

  // Hold the commit open: with the worker paused, new documents are
  // written to the primary's log but not committed, so their async 202s
  // wait and a failed fsync could still rewind them.
  primary.PauseIngest();
  std::vector<std::atomic<int>> statuses(3);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < statuses.size(); ++i) {
    clients.emplace_back([&, i] {
      statuses[i] = Post(primary.port(), "/ingest", kDriftedDoc).status;
    });
  }
  PollUntil([&] { return Get(primary.port(), "/metrics").body; },
            [](const std::string& body) {
              return body.find("\ndtdevolve_ingest_queue_depth 3\n") !=
                     std::string::npos;
            });
  uint64_t next_lsn = 0;
  StatusOr<store::WalExport> page = primary.manager().ExportWalFor(
      "default", 1, 1 << 20, &next_lsn);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_EQ(next_lsn, 3u) << "the advertised head must be durable + 1";
  size_t consumed = 0;
  const std::vector<store::WalRecord> shipped =
      store::DecodeWalStream(page->bytes, &consumed);
  ASSERT_EQ(shipped.size(), 2u);
  EXPECT_EQ(shipped.back().lsn, 2u);
  // Many follower polls later, nothing above the durable LSN arrived.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(follower.manager().AppliedLsnFor("default"), 2u);
  for (const auto& status : statuses) {
    EXPECT_EQ(status.load(), 0) << "acked before the commit";
  }

  // The commit lands: the 202s go out and the records ship.
  primary.ResumeIngest();
  for (std::thread& client : clients) client.join();
  for (const auto& status : statuses) EXPECT_EQ(status.load(), 202);
  PollUntil([&] { return follower.manager().AppliedLsnFor("default"); },
            [](uint64_t lsn) { return lsn == 5; });
  EXPECT_EQ(follower.manager().AppliedLsnFor("default"), 5u);

  follower.Shutdown();
  follower.Wait();
  primary.Shutdown();
  primary.Wait();
  RemoveTree(wal_dir);
}

}  // namespace
}  // namespace dtdevolve
