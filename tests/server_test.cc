// Server suite: drives a real IngestServer over loopback sockets —
// ephemeral ports, so suites can run in parallel. Covers the endpoint
// surface, queue backpressure, and the graceful-shutdown checkpoint
// round-trip. Multi-threaded end to end, hence under the `concurrency`
// ctest label for TSan runs.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "io/fault.h"
#include "server/server.h"

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

// Drifted: extra cc + attachment push divergence past τ and evolve the
// DTD once enough instances accumulate.
const char* kDriftedDoc =
    "<mail><envelope><from>a</from><to>b</to><subject>s</subject>"
    "<cc>c</cc></envelope><body>hello</body>"
    "<attachment>x</attachment></mail>";

// Two foreign families that can never classify against the mail DTD —
// repeated verbatim so each family clusters into one structural group.
const char* kInvoiceDoc =
    "<invoice><customer>c</customer><item><sku>s</sku><qty>1</qty></item>"
    "<total>9</total></invoice>";
const char* kPlaylistDoc =
    "<playlist><owner>o</owner><track><artist>a</artist><song>t</song>"
    "</track></playlist>";

struct ClientResponse {
  int status = 0;
  std::string head;  // status line + headers
  std::string body;
};

/// One blocking HTTP exchange against 127.0.0.1:port. The request must
/// carry `Connection: close` so the (keep-alive by default) server
/// closes after the response and "read to EOF" frames it. On any
/// transport failure `out->status` stays 0, which every caller's status
/// expectation then reports.
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
    if (n <= 0) {
      ADD_FAILURE() << "send: " << std::strerror(errno);
      ::close(fd);
      return;
    }
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
  if (split == std::string::npos || raw.rfind("HTTP/1.1 ", 0) != 0) {
    ADD_FAILURE() << "unframed response: " << raw;
    return;
  }
  out->head = raw.substr(0, split);
  out->body = raw.substr(split + 4);
  out->status = std::atoi(out->head.c_str() + 9);
}

ClientResponse Get(uint16_t port, const std::string& target) {
  ClientResponse response;
  HttpRoundTrip(port,
                "GET " + target +
                    " HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
                &response);
  return response;
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

core::SourceOptions EvolvingOptions() {
  core::SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.15;
  options.min_documents_before_check = 1;
  return options;
}

ServerOptions EphemeralOptions() {
  ServerOptions options;
  options.port = 0;  // the kernel picks; tests read server.port()
  options.jobs = 2;
  return options;
}

/// A raw connected socket, or -1 (socket/connect failure — e.g. the fd
/// table is exhausted, which the EMFILE regression test relies on).
int ConnectTo(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServerTest, HealthzRoutesAndMethodChecks) {
  IngestServer server(EvolvingOptions(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(server.port(), 0);

  ClientResponse health = Get(server.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  EXPECT_EQ(Get(server.port(), "/no-such-route").status, 404);
  EXPECT_EQ(Get(server.port(), "/ingest").status, 405);
  EXPECT_EQ(Post(server.port(), "/dtds", "x").status, 405);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, IngestClassifiesAndServesState) {
  IngestServer server(EvolvingOptions(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // Synchronous ingest reports the classification outcome.
  ClientResponse outcome =
      Post(server.port(), "/ingest?wait=1", kConformingDoc);
  EXPECT_EQ(outcome.status, 200);
  EXPECT_NE(outcome.body.find("\"classified\":true"), std::string::npos);
  EXPECT_NE(outcome.body.find("\"dtd\":\"mail\""), std::string::npos);

  // Fire-and-forget ingest is accepted immediately.
  EXPECT_EQ(Post(server.port(), "/ingest", kConformingDoc).status, 202);
  // Malformed XML is rejected on the connection thread.
  EXPECT_EQ(Post(server.port(), "/ingest?wait=1", "<mail>").status, 400);

  ClientResponse list = Get(server.port(), "/dtds");
  EXPECT_EQ(list.status, 200);
  EXPECT_NE(list.body.find("\"mail\""), std::string::npos);

  ClientResponse dtd = Get(server.port(), "/dtds/mail");
  EXPECT_EQ(dtd.status, 200);
  EXPECT_NE(dtd.body.find("<!ELEMENT mail"), std::string::npos);
  EXPECT_EQ(Get(server.port(), "/dtds/nope").status, 404);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, MetricsScrapeExposesPipelineCounters) {
  IngestServer server(EvolvingOptions(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status,
            200);
  ClientResponse metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("dtdevolve_documents_processed_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("dtdevolve_documents_classified_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE dtdevolve_ingest_seconds histogram"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("dtdevolve_documents_scored_total"),
            std::string::npos);

  server.Shutdown();
  server.Wait();
}

/// The sample value of one exact series line ("name{labels}") in a
/// /metrics scrape, or -1 when absent.
double SeriesValue(const std::string& metrics, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const size_t pos = metrics.find(needle);
  if (pos == std::string::npos) return -1;
  return std::atof(metrics.c_str() + pos + needle.size());
}

TEST(ServerTest, ScoreSecondsObservesEachScoredShapeAtMicrosecondResolution) {
  core::SourceOptions options = EvolvingOptions();
  options.auto_evolve = false;  // no evolution, so no re-scoring pass
  IngestServer server(options, EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // Three distinct shapes, each sent twice: the repeats are memo
  // replays, which score nothing and observe nothing.
  const char* kNoSubjectDoc =
      "<mail><envelope><from>a</from><to>b</to></envelope>"
      "<body>hello</body></mail>";
  for (const char* doc : {kConformingDoc, kDriftedDoc, kNoSubjectDoc}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      ASSERT_EQ(Post(server.port(), "/ingest?wait=1", doc).status, 200);
    }
  }
  const std::string metrics = Get(server.port(), "/metrics").body;
  EXPECT_EQ(SeriesValue(metrics, "dtdevolve_documents_processed_total"), 6);
  EXPECT_EQ(SeriesValue(metrics, "dtdevolve_score_seconds_count"), 3);
  // The first bucket resolves a microsecond, not the 100 µs floor of
  // the default latency bounds.
  EXPECT_GE(
      SeriesValue(metrics, "dtdevolve_score_seconds_bucket{le=\"1e-06\"}"),
      0);
  EXPECT_EQ(
      SeriesValue(metrics, "dtdevolve_score_seconds_bucket{le=\"+Inf\"}"),
      3);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, QueuedIngestsShareOneGroupCommitFsync) {
  const std::string dir = testing::TempDir() + "server_group_commit";
  std::filesystem::remove_all(dir);
  ServerOptions options = EphemeralOptions();
  options.wal_dir = dir;
  options.fsync_policy = store::FsyncPolicy::kAlways;
  options.checkpoint_interval = std::chrono::milliseconds(0);
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status,
            200);

  // Four async ingests queue up behind the paused worker; their 202s
  // wait for the commit, which then covers all four with one fsync.
  server.PauseIngest();
  std::vector<std::thread> clients;
  std::vector<int> statuses(4, 0);
  for (size_t i = 0; i < statuses.size(); ++i) {
    clients.emplace_back([&, i] {
      statuses[i] = Post(server.port(), "/ingest", kConformingDoc).status;
    });
  }
  std::string metrics;
  for (int i = 0; i < 500; ++i) {
    metrics = Get(server.port(), "/metrics").body;
    if (SeriesValue(metrics, "dtdevolve_ingest_queue_depth") == 4) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(SeriesValue(metrics, "dtdevolve_ingest_queue_depth"), 4);
  const double fsyncs = SeriesValue(metrics, "dtdevolve_wal_fsyncs_total");
  EXPECT_EQ(fsyncs, 1);
  server.ResumeIngest();
  for (std::thread& client : clients) client.join();
  for (int status : statuses) EXPECT_EQ(status, 202);

  metrics = Get(server.port(), "/metrics").body;
  EXPECT_EQ(SeriesValue(metrics, "dtdevolve_wal_fsyncs_total"), fsyncs + 1);
  // Records per fsync: the lone first ingest, then the group of four.
  EXPECT_EQ(SeriesValue(metrics, "dtdevolve_wal_commit_docs_count"), 2);
  EXPECT_EQ(SeriesValue(metrics, "dtdevolve_wal_commit_docs_sum"), 5);
  EXPECT_EQ(SeriesValue(metrics, "dtdevolve_wal_commit_docs_bucket{le=\"1\"}"),
            1);
  EXPECT_EQ(SeriesValue(metrics, "dtdevolve_wal_commit_docs_bucket{le=\"2\"}"),
            1);
  EXPECT_EQ(SeriesValue(metrics, "dtdevolve_wal_commit_docs_bucket{le=\"4\"}"),
            2);
  EXPECT_EQ(
      SeriesValue(metrics, "dtdevolve_wal_commit_docs_bucket{le=\"1024\"}"),
      2);
  // fsync time, with buckets from 1 µs to 10 s.
  EXPECT_EQ(SeriesValue(metrics, "dtdevolve_wal_sync_seconds_count"), 2);
  EXPECT_GE(
      SeriesValue(metrics, "dtdevolve_wal_sync_seconds_bucket{le=\"1e-06\"}"),
      0);
  EXPECT_EQ(
      SeriesValue(metrics, "dtdevolve_wal_sync_seconds_bucket{le=\"10\"}"),
      2);

  server.Shutdown();
  server.Wait();
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, FullQueueAnswers503WithRetryAfter) {
  ServerOptions options = EphemeralOptions();
  options.queue_capacity = 2;
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // With the worker paused the queue fills deterministically.
  server.PauseIngest();
  EXPECT_EQ(Post(server.port(), "/ingest", kConformingDoc).status, 202);
  EXPECT_EQ(Post(server.port(), "/ingest", kConformingDoc).status, 202);

  ClientResponse rejected = Post(server.port(), "/ingest", kConformingDoc);
  EXPECT_EQ(rejected.status, 503);
  EXPECT_NE(rejected.head.find("Retry-After:"), std::string::npos);

  server.ResumeIngest();
  // The worker drains asynchronously, so the next ingest may still find
  // the queue full — retry until a slot frees up. wait=1 proves the path
  // end to end and leaves no in-flight work behind.
  ClientResponse after;
  for (int attempt = 0; attempt < 200 && after.status != 200; ++attempt) {
    after = Post(server.port(), "/ingest?wait=1", kConformingDoc);
    if (after.status != 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(after.status, 200);

  ClientResponse metrics = Get(server.port(), "/metrics");
  // Line-anchored: a bare find() would land on the `# HELP` line.
  const std::string metric_name = "\ndtdevolve_ingest_rejected_total ";
  const size_t pos = metrics.body.find(metric_name);
  ASSERT_NE(pos, std::string::npos);
  EXPECT_GE(std::atoi(metrics.body.c_str() + pos + metric_name.size()), 1);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, ConcurrentClientsAllGetServed) {
  IngestServer server(EvolvingOptions(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<int> statuses(kClients, 0);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      statuses[i] =
          Post(server.port(), "/ingest?wait=1", kConformingDoc).status;
    });
  }
  for (std::thread& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) EXPECT_EQ(statuses[i], 200) << i;

  ClientResponse stats = Get(server.port(), "/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"documents_processed\":8"), std::string::npos);

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, GracefulShutdownCheckpointsAndRestartRestores) {
  const std::string dir = testing::TempDir() + "server_graceful_wal";
  std::filesystem::remove_all(dir);

  ServerOptions options = EphemeralOptions();
  options.wal_dir = dir;
  options.fsync_policy = store::FsyncPolicy::kNone;
  options.checkpoint_interval = std::chrono::milliseconds(0);

  std::string evolved_dtd;
  std::string induced_dtd;
  {
    IngestServer server(EvolvingOptions(), options);
    ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(server.Start().ok());

    ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status,
              200);
    ClientResponse drifted =
        Post(server.port(), "/ingest?wait=1", kDriftedDoc);
    ASSERT_EQ(drifted.status, 200);
    EXPECT_NE(drifted.body.find("\"evolved\":true"), std::string::npos);

    ClientResponse metrics = Get(server.port(), "/metrics");
    EXPECT_NE(metrics.body.find("dtdevolve_evolutions_total 1"),
              std::string::npos);

    ClientResponse dtd = Get(server.port(), "/dtds/mail");
    EXPECT_NE(dtd.body.find("attachment"), std::string::npos);
    evolved_dtd = dtd.body;

    // A foreign family fills the repository; its induced DTD joins the
    // live set before the shutdown.
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kInvoiceDoc).status,
                200);
    }
    ASSERT_EQ(Post(server.port(), "/dtds/induce", "").status, 200);
    ClientResponse candidates = Get(server.port(), "/dtds/candidates");
    const size_t id_pos = candidates.body.find("\"id\":");
    ASSERT_NE(id_pos, std::string::npos) << candidates.body;
    const std::string id = std::to_string(
        std::strtoull(candidates.body.c_str() + id_pos + 5, nullptr, 10));
    ClientResponse accepted =
        Post(server.port(), "/dtds/candidates/" + id + "/accept", "");
    ASSERT_EQ(accepted.status, 200) << accepted.body;
    ClientResponse induced = Get(server.port(), "/dtds/induced-invoice");
    ASSERT_EQ(induced.status, 200);
    induced_dtd = induced.body;

    server.Shutdown();
    server.Wait();
  }

  // A fresh server seeded with the ORIGINAL DTD only restores the
  // evolved mail state and re-creates the induced DTD from the shutdown
  // checkpoint, with no WAL tail left to replay.
  {
    IngestServer restarted(EvolvingOptions(), options);
    ASSERT_TRUE(restarted.AddDtdText("mail", kMailDtd).ok());
    ASSERT_TRUE(restarted.Start().ok());
    EXPECT_GT(restarted.recovery_report().checkpoint_lsn, 0u);
    EXPECT_EQ(restarted.recovery_report().replayed_records, 0u);

    ClientResponse dtd = Get(restarted.port(), "/dtds/mail");
    EXPECT_EQ(dtd.status, 200);
    EXPECT_EQ(dtd.body, evolved_dtd);

    ClientResponse induced = Get(restarted.port(), "/dtds/induced-invoice");
    EXPECT_EQ(induced.status, 200);
    EXPECT_EQ(induced.body, induced_dtd);
    ClientResponse fresh =
        Post(restarted.port(), "/ingest?wait=1", kInvoiceDoc);
    EXPECT_NE(fresh.body.find("\"classified\":true"), std::string::npos)
        << fresh.body;

    restarted.Shutdown();
    restarted.Wait();
  }
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, ShutdownDrainsQueuedDocumentsBeforeStopping) {
  IngestServer server(EvolvingOptions(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  server.PauseIngest();
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(Post(server.port(), "/ingest", kConformingDoc).status, 202);
  }
  // Shutdown overrides the pause: all five queued documents must be
  // applied before Wait returns.
  server.Shutdown();
  server.Wait();
  EXPECT_EQ(server.source().documents_processed(), 5u);
}

/// Open descriptors of this process, via /proc. The opendir handle
/// itself is one of them, but it is one of them on every call, so
/// equality comparisons between two counts are exact.
size_t OpenFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (dirent* entry = ::readdir(dir)) {
    if (std::strcmp(entry->d_name, ".") == 0 ||
        std::strcmp(entry->d_name, "..") == 0) {
      continue;
    }
    ++count;
  }
  ::closedir(dir);
  return count;
}

TEST(ServerTest, FailedStartReleasesFdsAndCanRetry) {
  // Occupy a concrete port so a second server's bind deterministically
  // fails *after* its wake pipe and listen socket were created.
  IngestServer occupant(EvolvingOptions(), EphemeralOptions());
  ASSERT_TRUE(occupant.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(occupant.Start().ok());

  ServerOptions conflicting = EphemeralOptions();
  conflicting.port = occupant.port();
  IngestServer server(EvolvingOptions(), conflicting);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());

  ASSERT_FALSE(server.Start().ok());
  const size_t baseline = OpenFdCount();
  for (int i = 0; i < 8; ++i) {
    ASSERT_FALSE(server.Start().ok());
  }
  // Before the fix each failed Start leaked the wake pipe (and, on the
  // listen-failure path, the socket): 8 retries grew the fd table.
  EXPECT_EQ(OpenFdCount(), baseline);

  occupant.Shutdown();
  occupant.Wait();

  // The port is free now; the very same server object starts cleanly
  // and serves — a failed Start left no half-initialized state behind.
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(Post(server.port(), "/ingest?wait=1", kConformingDoc).status, 200);
  server.Shutdown();
  server.Wait();
  EXPECT_EQ(server.source().documents_processed(), 1u);
}

TEST(ServerTest, ConflictingContentLengthHeadersAreRejected) {
  IngestServer server(EvolvingOptions(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  const std::string body = kConformingDoc;
  const std::string length = std::to_string(body.size());

  // Two Content-Length headers that disagree is the classic
  // request-smuggling shape: reject, never pick one.
  ClientResponse conflicting;
  HttpRoundTrip(server.port(),
                "POST /ingest?wait=1 HTTP/1.1\r\nHost: t\r\n"
                "Connection: close\r\n"
                "Content-Length: " + length + "\r\n"
                "Content-Length: 5\r\n\r\n" + body,
                &conflicting);
  EXPECT_EQ(conflicting.status, 400);

  // Duplicates that agree are harmless; the request is served.
  ClientResponse agreeing;
  HttpRoundTrip(server.port(),
                "POST /ingest?wait=1 HTTP/1.1\r\nHost: t\r\n"
                "Connection: close\r\n"
                "Content-Length: " + length + "\r\n"
                "Content-Length: " + length + "\r\n\r\n" + body,
                &agreeing);
  EXPECT_EQ(agreeing.status, 200);

  server.Shutdown();
  server.Wait();
  EXPECT_EQ(server.source().documents_processed(), 1u);
}

TEST(ServerTest, InductionLifecycleOverHttp) {
  core::SourceOptions source_options = EvolvingOptions();
  source_options.sigma = 0.5;
  source_options.auto_evolve = false;
  IngestServer server(source_options, EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // Two unclassifiable families pile up in the repository.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kInvoiceDoc).status, 200);
    ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kPlaylistDoc).status, 200);
  }

  // /stats now shows the repository section with two clusters.
  ClientResponse stats = Get(server.port(), "/stats");
  ASSERT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"repository\":{\"size\":8,\"clusters\":2"),
            std::string::npos)
      << stats.body;

  // Induce: one candidate per family.
  ClientResponse induced = Post(server.port(), "/dtds/induce", "");
  ASSERT_EQ(induced.status, 200);
  EXPECT_NE(induced.body.find("\"candidates\":2"), std::string::npos)
      << induced.body;

  ClientResponse candidates = Get(server.port(), "/dtds/candidates");
  ASSERT_EQ(candidates.status, 200);
  EXPECT_NE(candidates.body.find("\"name\":\"induced-invoice\""),
            std::string::npos)
      << candidates.body;
  EXPECT_NE(candidates.body.find("\"name\":\"induced-playlist\""),
            std::string::npos);
  EXPECT_NE(candidates.body.find("\"coverage\":1"), std::string::npos);

  // Parse the first candidate id out of the listing.
  const size_t id_pos = candidates.body.find("\"id\":");
  ASSERT_NE(id_pos, std::string::npos);
  const uint64_t id = std::strtoull(candidates.body.c_str() + id_pos + 5,
                                    nullptr, 10);

  // Accept it: the DTD joins the live set and its members drain.
  ClientResponse accepted = Post(
      server.port(), "/dtds/candidates/" + std::to_string(id) + "/accept", "");
  ASSERT_EQ(accepted.status, 200) << accepted.body;
  EXPECT_NE(accepted.body.find("\"accepted\":true"), std::string::npos);
  EXPECT_NE(accepted.body.find("\"reclassified\":4"), std::string::npos)
      << accepted.body;

  ClientResponse dtds = Get(server.port(), "/dtds");
  EXPECT_NE(dtds.body.find("induced-"), std::string::npos) << dtds.body;

  // The other candidate was retired with the set change; re-induce and
  // reject the remaining family's proposal.
  ClientResponse re_induced = Post(server.port(), "/dtds/induce", "");
  ASSERT_EQ(re_induced.status, 200);
  EXPECT_NE(re_induced.body.find("\"candidates\":1"), std::string::npos);
  ClientResponse listing = Get(server.port(), "/dtds/candidates");
  const size_t pos2 = listing.body.find("\"id\":");
  ASSERT_NE(pos2, std::string::npos);
  const uint64_t id2 =
      std::strtoull(listing.body.c_str() + pos2 + 5, nullptr, 10);
  EXPECT_GT(id2, id);  // candidate ids are never reused
  ClientResponse rejected = Post(
      server.port(), "/dtds/candidates/" + std::to_string(id2) + "/reject",
      "");
  EXPECT_EQ(rejected.status, 200);
  EXPECT_NE(rejected.body.find("\"rejected\":true"), std::string::npos);

  // Unknown ids and bad verbs answer with clean errors.
  EXPECT_EQ(Post(server.port(), "/dtds/candidates/99999/accept", "").status,
            404);
  EXPECT_EQ(Post(server.port(), "/dtds/candidates/x/accept", "").status, 400);
  EXPECT_EQ(Post(server.port(), "/dtds/candidates/1/promote", "").status, 404);
  EXPECT_EQ(Get(server.port(), "/dtds/induce").status, 405);

  // Lifecycle counters reached /metrics.
  ClientResponse metrics = Get(server.port(), "/metrics");
  EXPECT_NE(metrics.body.find("dtdevolve_candidates_accepted_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("dtdevolve_candidates_rejected_total 1"),
            std::string::npos);

  // New arrivals of the accepted family now classify instead of queueing
  // in the repository.
  ClientResponse fresh = Post(server.port(), "/ingest?wait=1", kInvoiceDoc);
  ASSERT_EQ(fresh.status, 200);
  EXPECT_NE(fresh.body.find("\"classified\":true"), std::string::npos)
      << fresh.body;

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, AutoInduceThresholdProposesCandidates) {
  core::SourceOptions source_options = EvolvingOptions();
  source_options.sigma = 0.5;
  source_options.auto_evolve = false;
  ServerOptions options = EphemeralOptions();
  options.auto_induce_threshold = 3;
  IngestServer server(source_options, options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(Post(server.port(), "/ingest?wait=1", kInvoiceDoc).status, 200);
  }
  // The threshold batch already ran induction — candidates are pending
  // without any POST /dtds/induce.
  ClientResponse candidates = Get(server.port(), "/dtds/candidates");
  ASSERT_EQ(candidates.status, 200);
  EXPECT_NE(candidates.body.find("\"name\":\"induced-invoice\""),
            std::string::npos)
      << candidates.body;

  server.Shutdown();
  server.Wait();
}

TEST(ServerTest, ReadinessAnswers503WhileWalFailsAndRecoversAfterward) {
  const std::string dir = testing::TempDir() + "server_readiness_wal";
  std::filesystem::remove_all(dir);

  ServerOptions options = EphemeralOptions();
  options.wal_dir = dir;
  options.fsync_policy = store::FsyncPolicy::kNone;
  options.checkpoint_interval = std::chrono::milliseconds(0);
  options.health_probe_interval = std::chrono::milliseconds(25);
  IngestServer server(EvolvingOptions(), options);
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());

  // Healthy: liveness and readiness both 200, ingest acks.
  EXPECT_EQ(Get(server.port(), "/healthz").status, 200);
  EXPECT_EQ(Get(server.port(), "/healthz?ready=1").status, 200);
  ASSERT_EQ(Post(server.port(), "/ingest", kConformingDoc).status, 202);

  {
    // Every WAL write now fails — writes get 503, readiness flips to
    // 503 with the shard breakdown, liveness stays 200.
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kWrite);
    plan.crash = true;
    io::ScopedFaultPlan fault(plan);

    EXPECT_EQ(Post(server.port(), "/ingest", kConformingDoc).status, 503);
    ClientResponse not_ready = Get(server.port(), "/healthz?ready=1");
    EXPECT_EQ(not_ready.status, 503);
    EXPECT_NE(not_ready.body.find("\"ready\":false"), std::string::npos)
        << not_ready.body;
    EXPECT_EQ(Get(server.port(), "/healthz").status, 200);
  }

  // Fault cleared: the recovery probe reopens the shard without any
  // client traffic.
  int ready_status = 0;
  for (int attempt = 0; attempt < 200 && ready_status != 200; ++attempt) {
    ready_status = Get(server.port(), "/healthz?ready=1").status;
    if (ready_status != 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(ready_status, 200);
  EXPECT_EQ(Post(server.port(), "/ingest", kConformingDoc).status, 202);

  server.Shutdown();
  server.Wait();
  std::filesystem::remove_all(dir);
}

TEST(ServerTest, AcceptRecoversAfterFdExhaustion) {
  IngestServer server(EvolvingOptions(), EphemeralOptions());
  ASSERT_TRUE(server.AddDtdText("mail", kMailDtd).ok());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_EQ(Get(server.port(), "/healthz").status, 200);

  // Starve the process fd table (shared with the server) so accept()
  // fails with EMFILE. Before the listener-backoff fix this busy-looped
  // the level-triggered epoll thread forever.
  struct rlimit saved = {};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  struct rlimit low = saved;
  low.rlim_cur = 64;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);

  // Fill the table completely with /dev/null handles, then free exactly
  // one slot: our client socket takes it, the handshake completes in
  // the kernel backlog, and the server's accept() has no fd left.
  std::vector<int> hogs;
  for (int i = 0; i < 256; ++i) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    hogs.push_back(fd);
  }
  ASSERT_FALSE(hogs.empty());
  ::close(hogs.back());
  hogs.pop_back();
  const int client = ConnectTo(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  if (client >= 0) ::close(client);
  for (int fd : hogs) ::close(fd);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  // With fds free again the timed re-arm must restore accepting.
  int status = 0;
  for (int attempt = 0; attempt < 200 && status != 200; ++attempt) {
    status = Get(server.port(), "/healthz").status;
    if (status != 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(status, 200);

  ClientResponse metrics = Get(server.port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);
  // Leading newline keeps the match off the `# HELP` line.
  const size_t at =
      metrics.body.find("\ndtdevolve_http_accept_stalls_total ");
  ASSERT_NE(at, std::string::npos) << metrics.body;
  EXPECT_GE(std::atoi(metrics.body.c_str() + at + 36), 1) << metrics.body;

  server.Shutdown();
  server.Wait();
}

}  // namespace
}  // namespace dtdevolve::server
