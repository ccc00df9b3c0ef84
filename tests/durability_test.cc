// Durability suite: the crash contract of the ingest server, end to end
// over loopback sockets. An acked `/ingest` must survive a process
// death (WAL recovery), checkpoints must bound replay, a full disk must
// degrade — not lie — a failed shutdown checkpoint must not cost the
// acked tail, a boot over corrupt or misplaced state must refuse
// loudly instead of starting empty, a failed group commit must fail
// every document of its group, and a failed WAL space reservation must
// reject its document without leaving a hole in the log. Fault
// injection (`io/fault.h`)
// stands in for the dying disk. Multi-threaded end to end, so the suite runs under both the
// `durability` and `concurrency` ctest labels.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "evolve/persist.h"
#include "io/fault.h"
#include "server/server.h"
#include "store/wal.h"

namespace dtdevolve::server {
namespace {

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
  std::string head;
  std::string body;
};

/// One blocking HTTP exchange; `out->status` stays 0 on transport
/// failure (same framing as server_test.cc: `Connection: close` makes
/// the keep-alive server close after the response).
void HttpRoundTrip(uint16_t port, const std::string& request,
                   ClientResponse* out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ADD_FAILURE() << "connect: " << std::strerror(errno);
    ::close(fd);
    return;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
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
  if (split == std::string::npos || raw.rfind("HTTP/1.1 ", 0) != 0) return;
  out->head = raw.substr(0, split);
  out->body = raw.substr(split + 4);
  out->status = std::atoi(out->head.c_str() + 9);
}

ClientResponse Post(uint16_t port, const std::string& target,
                    const std::string& body) {
  ClientResponse response;
  HttpRoundTrip(port,
                "POST " + target +
                    " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                    "Content-Length: " +
                    std::to_string(body.size()) + "\r\n\r\n" + body,
                &response);
  return response;
}

ClientResponse Get(uint16_t port, const std::string& target) {
  ClientResponse response;
  HttpRoundTrip(port,
                "GET " + target +
                    " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                &response);
  return response;
}

core::SourceOptions EvolvingOptions() {
  core::SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.15;
  options.min_documents_before_check = 1;
  return options;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "durability_test_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// ServerOptions for a WAL-backed server that simulates a crash on
/// stop: no shutdown checkpoint, so the next boot must replay the log.
ServerOptions CrashSimOptions(const std::string& wal_dir) {
  ServerOptions options;
  options.port = 0;
  options.jobs = 2;
  options.wal_dir = wal_dir;
  options.checkpoint_interval = std::chrono::milliseconds(0);
  options.checkpoint_on_shutdown = false;
  return options;
}

/// Everything recovery must reproduce, read from a stopped server.
struct SourceDigest {
  uint64_t processed = 0;
  uint64_t classified = 0;
  uint64_t evolutions = 0;
  size_t repository = 0;
  std::string mail_dtd;
};

SourceDigest DigestOf(const IngestServer& server) {
  SourceDigest digest;
  digest.processed = server.source().documents_processed();
  digest.classified = server.source().documents_classified();
  digest.evolutions = server.source().evolutions_performed();
  digest.repository = server.source().repository().size();
  const evolve::ExtendedDtd* ext = server.source().FindExtended("mail");
  if (ext != nullptr) digest.mail_dtd = evolve::SerializeExtendedDtd(*ext);
  return digest;
}

TEST(DurabilityTest, WalRecoveryReplaysAckedDocuments) {
  const std::string wal_dir = FreshDir("replay");
  SourceDigest before;
  {
    IngestServer server(EvolvingOptions(), CrashSimOptions(wal_dir));
    ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(server.Start().ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status,
                200);
      ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kDriftedDoc).status,
                200);
    }
    server.Shutdown();
    server.Wait();
    before = DigestOf(server);
    EXPECT_EQ(before.processed, 8u);
  }

  // "Reboot": a fresh server over the same WAL dir, seeded with the same
  // DTD text, must replay every acked document and land byte-identical.
  IngestServer server(EvolvingOptions(), CrashSimOptions(wal_dir));
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.recovery_report().checkpoint_lsn, 0u);
  EXPECT_EQ(server.recovery_report().replayed_records, 8u);
  server.Shutdown();
  server.Wait();

  const SourceDigest after = DigestOf(server);
  EXPECT_EQ(after.processed, before.processed);
  EXPECT_EQ(after.classified, before.classified);
  EXPECT_EQ(after.evolutions, before.evolutions);
  EXPECT_EQ(after.repository, before.repository);
  EXPECT_EQ(after.mail_dtd, before.mail_dtd);
}

TEST(DurabilityTest, CheckpointBoundsReplayAndTruncatesWal) {
  const std::string wal_dir = FreshDir("checkpoint");
  SourceDigest before;
  {
    IngestServer server(EvolvingOptions(), CrashSimOptions(wal_dir));
    ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(server.Start().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kDriftedDoc).status,
                200);
    }
    ASSERT_TRUE(server.CheckpointNow().ok());
    // One more document after the checkpoint: replay resumes mid-log.
    ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status,
              200);
    server.Shutdown();
    server.Wait();
    before = DigestOf(server);
  }

  IngestServer server(EvolvingOptions(), CrashSimOptions(wal_dir));
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.recovery_report().checkpoint_lsn, 3u);
  EXPECT_EQ(server.recovery_report().replayed_records, 1u);
  server.Shutdown();
  server.Wait();

  const SourceDigest after = DigestOf(server);
  EXPECT_EQ(after.processed, before.processed);
  EXPECT_EQ(after.repository, before.repository);
  EXPECT_EQ(after.mail_dtd, before.mail_dtd);
}

TEST(DurabilityTest, WalAppendFailureAnswers503AndDegrades) {
  const std::string wal_dir = FreshDir("degraded");
  IngestServer server(EvolvingOptions(), CrashSimOptions(wal_dir));
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  {
    // Disk full at the next WAL write. The document must NOT be acked:
    // 503 with Retry-After, and the degraded gauge raised.
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kWrite);
    plan.error_code = ENOSPC;
    io::ScopedFaultPlan guard(plan);
    ClientResponse rejected =
        Post(server.port(), "/ingest?wait=1", kConformingDoc);
    EXPECT_EQ(rejected.status, 503);
    EXPECT_NE(rejected.head.find("Retry-After:"), std::string::npos);
    EXPECT_NE(rejected.body.find("write-ahead log append failed"),
              std::string::npos);
  }
  ClientResponse metrics = Get(server.port(), "/metrics");
  EXPECT_NE(metrics.body.find("dtdevolve_degraded 1"), std::string::npos);

  // The disk came back: the retried ingest is acked and the gauge drops.
  EXPECT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status,
            200);
  metrics = Get(server.port(), "/metrics");
  EXPECT_NE(metrics.body.find("dtdevolve_degraded 0"), std::string::npos);
  EXPECT_NE(metrics.body.find("dtdevolve_wal_append_errors_total 1"),
            std::string::npos);

  server.Shutdown();
  server.Wait();
  // Only the acked document exists after recovery.
  IngestServer recovered(EvolvingOptions(), CrashSimOptions(wal_dir));
  ASSERT_TRUE(recovered.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_EQ(recovered.recovery_report().replayed_records, 1u);
  recovered.Shutdown();
  recovered.Wait();
  EXPECT_EQ(recovered.source().documents_processed(), 1u);
}

/// Every file under `dir`, relative path → bytes.
std::map<std::string, std::string> FilesUnder(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[std::filesystem::relative(entry.path(), dir).string()] =
        bytes.str();
  }
  return files;
}

/// The current value of an unlabeled counter in `server`'s registry.
double CounterValue(IngestServer& server, const std::string& name) {
  return server.metrics().GetCounter(name, "").Value();
}

TEST(DurabilityTest, ShutdownSyncsWalWhenFinalCheckpointFails) {
  const std::string wal_dir = FreshDir("shutdown_sync");
  ServerOptions options = CrashSimOptions(wal_dir);
  options.fsync_policy = store::FsyncPolicy::kNone;
  options.checkpoint_on_shutdown = true;
  SourceDigest before;
  {
    IngestServer server(EvolvingOptions(), options);
    ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(server.Start().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status,
                200);
      ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kDriftedDoc).status,
                200);
    }
    const double fsyncs = CounterValue(server, "dtdevolve_wal_fsyncs_total");
    {
      // The final checkpoint's first rename fails: the checkpoint is
      // lost, so only an explicit WAL fsync keeps the acked tail.
      io::FaultPlan plan;
      plan.fail_at = 1;
      plan.op_mask = static_cast<uint32_t>(io::FaultOp::kRename);
      plan.error_code = EIO;
      io::ScopedFaultPlan guard(plan);
      server.Shutdown();
      server.Wait();
    }
    EXPECT_EQ(CounterValue(server, "dtdevolve_checkpoint_errors_total"), 1);
    EXPECT_GT(CounterValue(server, "dtdevolve_wal_fsyncs_total"), fsyncs)
        << "shutdown left the acked WAL tail unsynced";
    before = DigestOf(server);
    EXPECT_EQ(before.processed, 6u);
  }

  IngestServer server(EvolvingOptions(), CrashSimOptions(wal_dir));
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.recovery_report().checkpoint_lsn, 0u);
  EXPECT_EQ(server.recovery_report().replayed_records, 6u);
  server.Shutdown();
  server.Wait();
  const SourceDigest after = DigestOf(server);
  EXPECT_EQ(after.processed, before.processed);
  EXPECT_EQ(after.classified, before.classified);
  EXPECT_EQ(after.evolutions, before.evolutions);
  EXPECT_EQ(after.mail_dtd, before.mail_dtd);
}

TEST(DurabilityTest, OldSingleTenantLayoutIsRefusedAtBoot) {
  const std::string wal_dir = FreshDir("old_layout");
  {
    IngestServer server(EvolvingOptions(), CrashSimOptions(wal_dir));
    ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(server.manager().WalDirFor("default"), wal_dir + "/default");
    ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kDriftedDoc).status, 200);
    ASSERT_TRUE(server.CheckpointNow().ok());
    ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status,
              200);
    server.Shutdown();
    server.Wait();
  }
  // Recreate what an older single-tenant server left behind: the
  // checkpoint and WAL segments directly in the WAL directory.
  for (const auto& entry :
       std::filesystem::directory_iterator(wal_dir + "/default")) {
    std::filesystem::rename(entry.path(),
                            wal_dir + "/" + entry.path().filename().string());
  }
  std::filesystem::remove(wal_dir + "/default");
  const std::map<std::string, std::string> old_files = FilesUnder(wal_dir);
  ASSERT_EQ(old_files.count("checkpoint.meta"), 1u);

  {
    IngestServer server(EvolvingOptions(), CrashSimOptions(wal_dir));
    ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
    const Status started = server.Start();
    ASSERT_FALSE(started.ok()) << "booted an empty shard over acked state";
    EXPECT_NE(started.message().find(wal_dir + "/default/"),
              std::string::npos)
        << started.message();
  }
  EXPECT_EQ(FilesUnder(wal_dir), old_files);

  // Moving the files where the message says boots the acked state.
  std::filesystem::create_directory(wal_dir + "/default");
  for (const auto& [name, bytes] : old_files) {
    std::filesystem::rename(wal_dir + "/" + name,
                            wal_dir + "/default/" + name);
  }
  IngestServer server(EvolvingOptions(), CrashSimOptions(wal_dir));
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.recovery_report().checkpoint_lsn, 1u);
  EXPECT_EQ(server.recovery_report().replayed_records, 1u);
  server.Shutdown();
  server.Wait();
  EXPECT_EQ(server.source().documents_processed(), 2u);
}

TEST(DurabilityTest, CorruptCheckpointFailsBootNamingTheDtd) {
  const std::string wal_dir = FreshDir("corrupt_checkpoint");
  ServerOptions options = CrashSimOptions(wal_dir);
  options.checkpoint_on_shutdown = true;
  {
    IngestServer server(EvolvingOptions(), options);
    ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(server.Start().ok());
    ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kDriftedDoc).status, 200);
    server.Shutdown();
    server.Wait();
  }
  // The graceful stop checkpointed at LSN 1; "mail" is DTD index 0.
  const std::string snapshot = wal_dir + "/default/ckpt-1-0.dtdstate";
  ASSERT_TRUE(std::filesystem::exists(snapshot));
  {
    std::ofstream f(snapshot, std::ios::trunc);
    f << "this is not an extended DTD\n";
  }
  const std::map<std::string, std::string> files = FilesUnder(wal_dir);

  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  const Status started = server.Start();
  ASSERT_FALSE(started.ok()) << "booted past a corrupt checkpoint";
  EXPECT_NE(started.message().find("'mail'"), std::string::npos)
      << started.message();
  // Nothing was renamed, rewritten or truncated: the evidence stays.
  EXPECT_EQ(FilesUnder(wal_dir), files);
}

TEST(DurabilityTest, RecvTimeoutReleasesAStalledConnection) {
  ServerOptions options;
  options.port = 0;
  options.jobs = 1;
  options.recv_timeout_seconds = 1;
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // Open a connection, send half a request, then stall. The event
  // loop's read-stall deadline (recv_timeout_seconds) must close the
  // connection — our recv sees EOF (or an error response) — instead of
  // holding it open forever.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char* partial = "POST /ingest HTTP/1.1\r\nContent-Length: 10\r\n\r\n";
  ASSERT_GT(::send(fd, partial, std::strlen(partial), 0), 0);

  const auto deadline_start = std::chrono::steady_clock::now();
  char chunk[1024];
  while (::recv(fd, chunk, sizeof(chunk), 0) > 0) {
  }
  const auto waited = std::chrono::steady_clock::now() - deadline_start;
  ::close(fd);
  EXPECT_LT(waited, std::chrono::seconds(8))
      << "server did not time the stalled connection out";

  server.Shutdown();
  server.Wait();
}

/// The current value of an unlabeled counter in a /metrics scrape, or
/// -1 when the series is absent.
long MetricValue(const std::string& metrics, const std::string& name) {
  const std::string needle = name + " ";
  size_t pos = metrics.find(needle);
  while (pos != std::string::npos) {
    // Skip HELP/TYPE lines and labeled series; match the sample line.
    if ((pos == 0 || metrics[pos - 1] == '\n')) {
      return std::atol(metrics.c_str() + pos + needle.size());
    }
    pos = metrics.find(needle, pos + 1);
  }
  return -1;
}

TEST(DurabilityTest, CheckpointNowReportsTheCapturedLsn) {
  const std::string wal_dir = FreshDir("captured_lsn");
  IngestServer server(EvolvingOptions(), CrashSimOptions(wal_dir));
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status,
              200);
  }
  // The checkpoint must report the LSN it actually captured, not an
  // LSN the caller sampled earlier — the bug that made the periodic
  // thread re-checkpoint unchanged state whenever ingest raced the
  // capture.
  uint64_t captured = 0;
  ASSERT_TRUE(server.CheckpointNow(&captured).ok());
  EXPECT_EQ(captured, 3u);

  ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kDriftedDoc).status, 200);
  ASSERT_TRUE(server.CheckpointNow(&captured).ok());
  EXPECT_EQ(captured, 4u);

  server.Shutdown();
  server.Wait();
}

TEST(DurabilityTest, IdlePeriodsDoNotRewriteCheckpoints) {
  const std::string wal_dir = FreshDir("idle_checkpoints");
  ServerOptions options = CrashSimOptions(wal_dir);
  options.checkpoint_interval = std::chrono::milliseconds(20);
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status,
              200);
  }

  // Wait for the periodic thread to take the post-ingest checkpoint.
  long count = -1;
  for (int i = 0; i < 200 && count < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    count = MetricValue(Get(server.port(), "/metrics").body,
                        "dtdevolve_checkpoints_total");
  }
  ASSERT_GE(count, 1);

  // Idle now: many intervals pass, and with nothing applied since the
  // captured LSN the thread must not write another checkpoint.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const long after_idle = MetricValue(Get(server.port(), "/metrics").body,
                                      "dtdevolve_checkpoints_total");
  EXPECT_EQ(after_idle, count);

  server.Shutdown();
  server.Wait();
}

TEST(DurabilityTest, FailedGroupCommitAnswers503ToTheWholeGroup) {
  const std::string wal_dir = FreshDir("group_commit_fault");
  ServerOptions options = CrashSimOptions(wal_dir);
  // No recovery probe: the degraded state stays until a commit succeeds.
  options.health_probe_interval = std::chrono::milliseconds(0);
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status, 200);

  // Hold the worker so concurrent ingests pile up behind one commit.
  constexpr int kGroup = 6;
  server.PauseIngest();
  std::vector<ClientResponse> group(kGroup);
  std::vector<std::thread> clients;
  for (int i = 0; i < kGroup; ++i) {
    clients.emplace_back([&, i] {
      group[i] = Post(server.port(), "/ingest?wait=1",
                      i % 2 == 0 ? kConformingDoc : kDriftedDoc);
    });
  }
  long queued = 0;
  for (int i = 0; i < 500 && queued < kGroup; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queued = MetricValue(Get(server.port(), "/metrics").body,
                         "dtdevolve_ingest_queue_depth");
  }
  ASSERT_EQ(queued, kGroup);
  {
    // The group's one fsync fails: every document in it is lost.
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kFsync);
    plan.error_code = EIO;
    io::ScopedFaultPlan guard(plan);
    server.ResumeIngest();
    for (std::thread& client : clients) client.join();
  }
  for (const ClientResponse& response : group) {
    EXPECT_EQ(response.status, 503) << response.body;
    EXPECT_NE(response.body.find("write-ahead log commit failed"),
              std::string::npos)
        << response.body;
  }
  ClientResponse metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(MetricValue(metrics.body, "dtdevolve_degraded"), 1);
  EXPECT_EQ(MetricValue(metrics.body, "dtdevolve_documents_processed_total"),
            1);

  // The disk came back: the next documents commit and reuse the lost
  // LSNs, and the shard is healthy again.
  ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kDriftedDoc).status, 200);
  ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status, 200);
  metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(MetricValue(metrics.body, "dtdevolve_degraded"), 0);
  server.Shutdown();
  server.Wait();
  const SourceDigest before = DigestOf(server);
  EXPECT_EQ(before.processed, 3u);

  // A restart recovers exactly the three documents that got a 200.
  IngestServer recovered(EvolvingOptions(), CrashSimOptions(wal_dir));
  ASSERT_TRUE(recovered.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_EQ(recovered.recovery_report().replayed_records, 3u);
  recovered.Shutdown();
  recovered.Wait();
  const SourceDigest after = DigestOf(recovered);
  EXPECT_EQ(after.processed, before.processed);
  EXPECT_EQ(after.classified, before.classified);
  EXPECT_EQ(after.evolutions, before.evolutions);
  EXPECT_EQ(after.mail_dtd, before.mail_dtd);
}

TEST(DurabilityTest, FailedWalReservationAnswers503AndStaysGapless) {
  const std::string wal_dir = FreshDir("reservation");
  ServerOptions options = CrashSimOptions(wal_dir);
  // No recovery probe: the degraded state stays until a write succeeds.
  options.health_probe_interval = std::chrono::milliseconds(0);
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status, 200);

  // A document larger than one reservation step needs a new
  // reservation, and the disk is full.
  const std::string big_doc =
      "<mail><envelope><from>a</from><to>b</to><subject>s</subject>"
      "</envelope><body>" +
      std::string(80 * 1024, 'x') + "</body></mail>";
  {
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kAllocate);
    plan.error_code = ENOSPC;
    io::ScopedFaultPlan guard(plan);
    ClientResponse rejected = Post(server.port(), "/ingest?wait=1", big_doc);
    EXPECT_EQ(rejected.status, 503);
    EXPECT_NE(rejected.body.find("write-ahead log append failed"),
              std::string::npos)
        << rejected.body;
  }
  ClientResponse metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(MetricValue(metrics.body, "dtdevolve_degraded"), 1);
  EXPECT_EQ(MetricValue(metrics.body, "dtdevolve_documents_processed_total"),
            1);

  // Space came back: the retry reserves again and is acked.
  ASSERT_EQ(Post(server.port(), "/ingest?wait=1", big_doc).status, 200);
  ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kDriftedDoc).status, 200);
  metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(MetricValue(metrics.body, "dtdevolve_degraded"), 0);
  EXPECT_EQ(MetricValue(metrics.body, "dtdevolve_wal_append_errors_total"),
            1);
  server.Shutdown();
  server.Wait();

  // The log holds exactly the three acked documents, LSNs 1..3: the
  // rejected one never consumed an LSN.
  StatusOr<store::WalExport> page =
      store::ExportWalRecords(wal_dir + "/default", 1, 1 << 20);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  size_t consumed = 0;
  const std::vector<store::WalRecord> records =
      store::DecodeWalStream(page->bytes, &consumed);
  ASSERT_EQ(records.size(), 3u);
  for (uint64_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].lsn, i + 1);
  }
  EXPECT_EQ(records[1].payload, big_doc);

  IngestServer recovered(EvolvingOptions(), CrashSimOptions(wal_dir));
  ASSERT_TRUE(recovered.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(recovered.Start().ok());
  EXPECT_EQ(recovered.recovery_report().replayed_records, 3u);
  EXPECT_FALSE(recovered.recovery_report().wal_tail_truncated);
  recovered.Shutdown();
  recovered.Wait();
  EXPECT_EQ(recovered.source().documents_processed(), 3u);
}

}  // namespace
}  // namespace dtdevolve::server
