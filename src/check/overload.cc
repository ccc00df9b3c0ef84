#include "check/overload.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "check/harness.h"
#include "core/source.h"
#include "io/fault.h"
#include "server/server.h"
#include "store/wal.h"

namespace dtdevolve::check {

namespace {

constexpr const char* kMailDtd =
    "<!ELEMENT mail (subject, body)>\n"
    "<!ELEMENT subject (#PCDATA)>\n"
    "<!ELEMENT body (#PCDATA)>\n";

/// A conforming document; content varies by (seed, index) so repository
/// and state digests distinguish documents.
std::string MailDoc(uint64_t seed, uint64_t index) {
  return "<mail><subject>s" + std::to_string(seed) + "-" +
         std::to_string(index) + "</subject><body>overload scenario " +
         std::to_string(index) + "</body></mail>";
}

/// A well-formed document no registered DTD comes close to: it lands in
/// the repository, which is what the repository-quota scenarios need.
std::string JunkDoc(uint64_t seed, uint64_t index) {
  return "<junk><kind>k" + std::to_string(seed % 7) + "</kind><payload>p" +
         std::to_string(index) + "</payload></junk>";
}

// --- Minimal blocking HTTP/1.1 client ---------------------------------------

/// Transport failures (connect refused, reply timeout, torn framing)
/// surface as `status == -1` — in this oracle that itself is a finding
/// (the loop stalled or the server vanished), never a retry.
struct HttpReply {
  int status = -1;
  std::map<std::string, std::string> headers;  // names lower-cased
  std::string body;
};

class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    struct timeval tv;
    tv.tv_sec = 5;  // the loop-stall deadline: no reply in 5s is a stall
    tv.tv_usec = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Client() { Close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  HttpReply Post(const std::string& target, const std::string& body) {
    std::string raw = "POST " + target +
                      " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                      std::to_string(body.size()) + "\r\n\r\n" + body;
    if (!SendAll(raw)) return {};
    return ReadReply();
  }

  HttpReply Get(const std::string& target) {
    if (!SendAll("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n")) return {};
    return ReadReply();
  }

  /// Reads a reply without having sent a request — the connection-cap
  /// rejection arrives unsolicited on a just-accepted socket.
  HttpReply ReadReply() {
    HttpReply reply;
    size_t header_end = std::string::npos;
    while ((header_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Recv()) return reply;
    }
    const std::string head = buffer_.substr(0, header_end + 2);
    if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) return reply;
    reply.status = std::atoi(head.c_str() + 9);
    size_t line = head.find("\r\n") + 2;
    while (line < head.size()) {
      const size_t eol = head.find("\r\n", line);
      if (eol == std::string::npos || eol == line) break;
      const size_t colon = head.find(':', line);
      if (colon != std::string::npos && colon < eol) {
        std::string name = head.substr(line, colon - line);
        for (char& c : name) c = static_cast<char>(std::tolower(c));
        size_t value = colon + 1;
        while (value < eol && head[value] == ' ') ++value;
        reply.headers[name] = head.substr(value, eol - value);
      }
      line = eol + 2;
    }
    size_t content_length = 0;
    const auto it = reply.headers.find("content-length");
    if (it != reply.headers.end()) {
      content_length = static_cast<size_t>(std::atoll(it->second.c_str()));
    }
    const size_t total = header_end + 4 + content_length;
    while (buffer_.size() < total) {
      if (!Recv()) {
        reply.status = -1;
        return reply;
      }
    }
    reply.body = buffer_.substr(header_end + 4, content_length);
    buffer_.erase(0, total);  // keep-alive: surplus bytes stay buffered
    return reply;
  }

  /// True when the peer half-closes within the receive timeout — how the
  /// connection-cap test proves the 503 socket was actually dropped.
  bool PeerClosed() {
    char c;
    for (;;) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n == 0) return true;
      if (n < 0) return errno != EAGAIN && errno != EWOULDBLOCK &&
                        errno != EINTR;
    }
  }

 private:
  bool SendAll(const std::string& raw) {
    if (fd_ < 0) return false;
    size_t sent = 0;
    while (sent < raw.size()) {
      const ssize_t n =
          ::send(fd_, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  bool Recv() {
    if (fd_ < 0) return false;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n > 0) {
        buffer_.append(chunk, static_cast<size_t>(n));
        return true;
      }
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF, timeout, or reset
    }
  }

  int fd_ = -1;
  std::string buffer_;
};

// --- Scenario plumbing -------------------------------------------------------

struct Ctx {
  uint64_t seed = 0;
  std::string dir;  // scratch WAL directory
  core::SourceOptions source_options;
  ScenarioResult* result = nullptr;

  void Violate(const std::string& invariant, uint64_t index,
               const std::string& detail) {
    result->AddViolation(invariant, "", index, detail);
  }

  void CountRequest(const HttpReply& reply) {
    ++result->requests;
    if (reply.status == 413 || reply.status == 429 || reply.status == 503) {
      ++result->rejections;
    }
  }
};

server::ServerOptions BaseServerOptions(const Ctx& ctx) {
  server::ServerOptions options;
  options.port = 0;
  options.jobs = 2;
  options.queue_capacity = 512;
  options.wal_dir = ctx.dir;
  // Durability bits are exercised by the crash oracle; here fsync only
  // slows the abuse down.
  options.fsync_policy = store::FsyncPolicy::kNone;
  options.checkpoint_interval = std::chrono::milliseconds(0);
  options.health_probe_interval = std::chrono::milliseconds(25);
  return options;
}

/// Replays exactly the acked bodies, in ack order, through a fresh
/// pipeline and compares — the exactly-once check.
void CheckExactlyOnce(Ctx& ctx, const core::XmlSource& live,
                      const std::vector<std::string>& acked,
                      const char* label) {
  core::XmlSource replay(ctx.source_options);
  (void)replay.AddDtdText("mail", kMailDtd);
  for (const std::string& body : acked) (void)replay.ProcessText(body);
  const std::string diff = DigestDiff(DigestOf(replay), DigestOf(live));
  if (!diff.empty()) {
    ctx.Violate("overload-exactly-once", acked.size(),
                std::string(label) + ": live state diverges from the " +
                    "sequential replay of the acked documents — " + diff);
  }
}

void RequireRetryAfter(Ctx& ctx, const HttpReply& reply, uint64_t index) {
  if (reply.headers.find("retry-after") == reply.headers.end()) {
    ctx.Violate("overload-status-codes", index,
                std::to_string(reply.status) +
                    " rejection without a Retry-After header");
  }
}

uint64_t DocBudget(const OverloadOracleOptions& options, uint64_t kind_default) {
  if (options.sweep.max_documents == 0) return kind_default;
  return std::min<uint64_t>(options.sweep.max_documents, kind_default);
}

// --- Kind 0: rate-limit flood beside a victim --------------------------------

void RunRateLimitFlood(Ctx& ctx, const OverloadOracleOptions& options) {
  server::ServerOptions so = BaseServerOptions(ctx);
  so.tenants = {"victim", "flood"};
  server::TenantQuota quota;
  quota.rate = 40.0;
  quota.burst = 4.0;
  so.tenant_quotas["flood"] = quota;

  server::IngestServer server(ctx.source_options, so);
  (void)server.AddDtdText("mail", kMailDtd);
  Status started = server.Start();
  if (!started.ok()) {
    ctx.Violate("overload-boot", 0, started.message());
    return;
  }

  Client victim(server.port());
  Client flood(server.port());
  const uint64_t victim_docs = DocBudget(options, 10);
  const uint64_t flood_docs = DocBudget(options, 30);
  std::vector<std::string> victim_acked;
  uint64_t flood_acked = 0;
  uint64_t flood_429 = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < std::max(victim_docs, flood_docs); ++i) {
    if (i < victim_docs) {
      const std::string body = MailDoc(ctx.seed, i);
      const HttpReply reply = victim.Post("/ingest/victim", body);
      ctx.CountRequest(reply);
      ++ctx.result->documents;
      if (reply.status == 202) {
        victim_acked.push_back(body);
      } else {
        ctx.Violate("overload-isolation", i,
                    "victim ingest answered " + std::to_string(reply.status) +
                        " while a neighbor tenant was flooding");
      }
    }
    if (i < flood_docs) {
      const HttpReply reply =
          flood.Post("/ingest/flood", MailDoc(ctx.seed + 9001, i));
      ctx.CountRequest(reply);
      ++ctx.result->documents;
      if (reply.status == 202) {
        ++flood_acked;
      } else if (reply.status == 429) {
        ++flood_429;
        RequireRetryAfter(ctx, reply, i);
      } else if (reply.status == 503) {
        RequireRetryAfter(ctx, reply, i);
      } else {
        ctx.Violate("overload-status-codes", i,
                    "flood ingest answered undocumented status " +
                        std::to_string(reply.status));
      }
    }
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Token-bucket bound: burst + rate · elapsed, with slack for the
  // fractional token the refill may have accrued mid-request.
  const double admitted_bound = quota.burst + quota.rate * elapsed + 2.0;
  if (static_cast<double>(flood_acked) > admitted_bound) {
    ctx.Violate("overload-quota-accounting", flood_docs,
                "token bucket admitted " + std::to_string(flood_acked) +
                    " documents, bound was " + std::to_string(admitted_bound));
  }
  if (flood_acked < std::min<uint64_t>(flood_docs,
                                       static_cast<uint64_t>(quota.burst))) {
    ctx.Violate("overload-quota-accounting", flood_docs,
                "token bucket started below its burst capacity (" +
                    std::to_string(flood_acked) + " admitted)");
  }

  const HttpReply health = victim.Get("/healthz");
  ctx.CountRequest(health);
  if (health.status != 200) {
    ctx.Violate("overload-loop-stall", flood_docs,
                "/healthz answered " + std::to_string(health.status) +
                    " during the flood");
  }

  server.Shutdown();
  server.Wait();

  const uint64_t limited =
      server.metrics()
          .GetCounter("dtdevolve_ingest_rate_limited_total",
                      "Ingest requests rejected with 429 (token bucket empty)",
                      {{"tenant", "flood"}})
          .Value();
  if (limited != flood_429) {
    ctx.Violate("overload-quota-accounting", flood_docs,
                "rate-limited counter reads " + std::to_string(limited) +
                    ", clients observed " + std::to_string(flood_429) +
                    " 429s");
  }

  CheckExactlyOnce(ctx, server.source("victim"), victim_acked, "rate flood");
}

// --- Kind 1: oversized bodies ------------------------------------------------

void RunOversizedBodies(Ctx& ctx, const OverloadOracleOptions& options) {
  server::ServerOptions so = BaseServerOptions(ctx);
  so.tenants = {"victim", "flood"};
  server::TenantQuota quota;
  quota.max_doc_bytes = 160;
  so.tenant_quotas["flood"] = quota;

  server::IngestServer server(ctx.source_options, so);
  (void)server.AddDtdText("mail", kMailDtd);
  Status started = server.Start();
  if (!started.ok()) {
    ctx.Violate("overload-boot", 0, started.message());
    return;
  }

  Client victim(server.port());
  Client flood(server.port());
  const uint64_t rounds = DocBudget(options, 12);
  std::vector<std::string> victim_acked;
  uint64_t flood_413 = 0;
  const std::string padding(300, 'x');
  for (uint64_t i = 0; i < rounds; ++i) {
    // Victim documents are themselves larger than the flood tenant's
    // quota — the quota must be the flood tenant's alone.
    const std::string body = "<mail><subject>s" + std::to_string(i) +
                             "</subject><body>" + padding + "</body></mail>";
    const HttpReply victim_reply = victim.Post("/ingest/victim", body);
    ctx.CountRequest(victim_reply);
    ++ctx.result->documents;
    if (victim_reply.status == 202) {
      victim_acked.push_back(body);
    } else {
      ctx.Violate("overload-isolation", i,
                  "victim ingest answered " +
                      std::to_string(victim_reply.status) +
                      " though only the neighbor tenant has a size quota");
    }

    const bool oversize = i % 2 == 0;
    const HttpReply flood_reply = flood.Post(
        "/ingest/flood",
        oversize ? body : MailDoc(ctx.seed + 17, i));
    ctx.CountRequest(flood_reply);
    ++ctx.result->documents;
    if (oversize) {
      if (flood_reply.status == 413) {
        ++flood_413;
      } else {
        ctx.Violate("overload-status-codes", i,
                    "oversized body answered " +
                        std::to_string(flood_reply.status) + ", expected 413");
      }
    } else if (flood_reply.status != 202) {
      ctx.Violate("overload-status-codes", i,
                  "in-quota flood body answered " +
                      std::to_string(flood_reply.status));
    }
  }

  server.Shutdown();
  server.Wait();

  const uint64_t too_large =
      server.metrics()
          .GetCounter(
              "dtdevolve_ingest_doc_too_large_total",
              "Ingest requests rejected with 413 (body over the "
              "document-size quota)",
              {{"tenant", "flood"}})
          .Value();
  if (too_large != flood_413) {
    ctx.Violate("overload-quota-accounting", rounds,
                "doc-too-large counter reads " + std::to_string(too_large) +
                    ", clients observed " + std::to_string(flood_413) +
                    " 413s");
  }

  CheckExactlyOnce(ctx, server.source("victim"), victim_acked,
                   "oversized bodies");
}

// --- Kind 2: connection cap + churn ------------------------------------------

void RunConnectionCap(Ctx& ctx, const OverloadOracleOptions& options) {
  server::ServerOptions so = BaseServerOptions(ctx);
  so.max_connections = 4;

  server::IngestServer server(ctx.source_options, so);
  (void)server.AddDtdText("mail", kMailDtd);
  Status started = server.Start();
  if (!started.ok()) {
    ctx.Violate("overload-boot", 0, started.message());
    return;
  }

  // Occupy every slot (a request proves each connection joined the
  // loop), then every further accept must bounce.
  std::vector<std::unique_ptr<Client>> held;
  for (int i = 0; i < 4; ++i) {
    held.push_back(std::make_unique<Client>(server.port()));
    const HttpReply reply = held.back()->Get("/healthz");
    ctx.CountRequest(reply);
    if (reply.status != 200) {
      ctx.Violate("overload-connection-cap", static_cast<uint64_t>(i),
                  "under-cap connection answered " +
                      std::to_string(reply.status));
    }
  }
  const uint64_t rejected_rounds = DocBudget(options, 6);
  for (uint64_t i = 0; i < rejected_rounds; ++i) {
    Client extra(server.port());
    // The 503 arrives unsolicited — the socket never joins the loop.
    const HttpReply reply = extra.ReadReply();
    ctx.CountRequest(reply);
    if (reply.status != 503) {
      ctx.Violate("overload-connection-cap", i,
                  "over-cap accept answered " + std::to_string(reply.status) +
                      ", expected an immediate 503");
      continue;
    }
    RequireRetryAfter(ctx, reply, i);
    if (!extra.PeerClosed()) {
      ctx.Violate("overload-connection-cap", i,
                  "over-cap socket was not closed after the 503");
    }
  }

  // Readiness reflects saturation while every slot is taken.
  const HttpReply saturated = held[0]->Get("/healthz?ready=1");
  ctx.CountRequest(saturated);
  if (saturated.status != 503 ||
      saturated.body.find("\"saturated\":true") == std::string::npos) {
    ctx.Violate("overload-readiness", 0,
                "readiness at the connection cap answered " +
                    std::to_string(saturated.status));
  }

  // Free two slots; accepting must resume (allow the loop a few turns to
  // observe the closes).
  held.resize(2);
  // Only the poll's final answer is counted: how many retries the loop
  // needs depends on timing, and the summary must not.
  HttpReply resumed;
  for (int attempt = 0; attempt < 50; ++attempt) {
    Client fresh(server.port());
    resumed = fresh.Get("/healthz");
    if (resumed.status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ctx.CountRequest(resumed);
  if (resumed.status != 200) {
    ctx.Violate("overload-connection-cap", rejected_rounds,
                "accepts did not resume after connections closed (last "
                "status " +
                    std::to_string(resumed.status) + ")");
  }

  // Churn: rapid connect/request/close cycles must neither leak slots
  // nor stall the loop.
  for (int i = 0; i < 10; ++i) {
    Client churn(server.port());
    const HttpReply reply = churn.Get("/healthz");
    ctx.CountRequest(reply);
    if (reply.status != 200) {
      ctx.Violate("overload-loop-stall", static_cast<uint64_t>(i),
                  "churn connection answered " + std::to_string(reply.status));
      break;
    }
  }

  server.Shutdown();
  server.Wait();

  const uint64_t rejected =
      server.metrics()
          .GetCounter("dtdevolve_http_connections_rejected_total",
                      "Accepts answered 503-and-close at the connection cap")
          .Value();
  if (rejected < rejected_rounds) {
    ctx.Violate("overload-quota-accounting", rejected_rounds,
                "connection-rejection counter reads " +
                    std::to_string(rejected) + ", at least " +
                    std::to_string(rejected_rounds) + " were bounced");
  }
}

// --- Kind 3: WAL faults mid-flood --------------------------------------------

void RunWalFaultFlood(Ctx& ctx, const OverloadOracleOptions& options) {
  server::ServerOptions so = BaseServerOptions(ctx);
  so.checkpoint_on_shutdown = false;  // leave the WAL as the only truth

  server::IngestServer server(ctx.source_options, so);
  (void)server.AddDtdText("mail", kMailDtd);
  Status started = server.Start();
  if (!started.ok()) {
    ctx.Violate("overload-boot", 0, started.message());
    return;
  }

  Client client(server.port());
  std::vector<std::string> acked;
  const uint64_t healthy_docs = DocBudget(options, 5);
  for (uint64_t i = 0; i < healthy_docs; ++i) {
    const std::string body = MailDoc(ctx.seed, i);
    const HttpReply reply = client.Post("/ingest", body);
    ctx.CountRequest(reply);
    ++ctx.result->documents;
    if (reply.status == 202) {
      acked.push_back(body);
    } else {
      ctx.Violate("overload-status-codes", i,
                  "healthy ingest answered " + std::to_string(reply.status));
    }
  }

  {
    // Kill the disk mid-flood: the first WAL write fails and every
    // later faultable op fails too, until the scope ends.
    io::FaultPlan plan;
    plan.fail_at = 1;
    plan.op_mask = static_cast<uint32_t>(io::FaultOp::kWrite);
    plan.crash = true;
    io::ScopedFaultPlan fault(plan);

    for (uint64_t i = 0; i < 6; ++i) {
      const HttpReply reply =
          client.Post("/ingest", MailDoc(ctx.seed + 31, i));
      ctx.CountRequest(reply);
      ++ctx.result->documents;
      if (reply.status == 202) {
        ctx.Violate("overload-status-codes", i,
                    "ingest was acked while the WAL could not be written");
      } else if (reply.status != 503) {
        ctx.Violate("overload-status-codes", i,
                    "faulted ingest answered " + std::to_string(reply.status) +
                        ", expected 503");
      } else {
        RequireRetryAfter(ctx, reply, i);
      }
    }

    const HttpReply not_ready = client.Get("/healthz?ready=1");
    ctx.CountRequest(not_ready);
    if (not_ready.status != 503 ||
        not_ready.body.find("\"ready\":false") == std::string::npos) {
      ctx.Violate("overload-readiness", healthy_docs,
                  "readiness with a failing WAL answered " +
                      std::to_string(not_ready.status));
    }
    const HttpReply live = client.Get("/healthz");
    ctx.CountRequest(live);
    if (live.status != 200) {
      ctx.Violate("overload-loop-stall", healthy_docs,
                  "liveness answered " + std::to_string(live.status) +
                      " while the WAL was failing");
    }
  }

  // Fault cleared: the recovery probe must reopen the shard.
  // As above, only the poll's final answer is counted.
  HttpReply ready;
  for (int attempt = 0; attempt < 200; ++attempt) {
    ready = client.Get("/healthz?ready=1");
    if (ready.status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ctx.CountRequest(ready);
  if (ready.status != 200) {
    ctx.Violate("overload-readiness", healthy_docs,
                "server never returned to ready after the WAL fault "
                "cleared (last status " +
                    std::to_string(ready.status) + ")");
  } else {
    ++ctx.result->recoveries;
  }

  const uint64_t recovered_docs = DocBudget(options, 5);
  for (uint64_t i = 0; i < recovered_docs; ++i) {
    const std::string body = MailDoc(ctx.seed + 63, i);
    const HttpReply reply = client.Post("/ingest", body);
    ctx.CountRequest(reply);
    ++ctx.result->documents;
    if (reply.status == 202) {
      acked.push_back(body);
    } else {
      ctx.Violate("overload-status-codes", i,
                  "post-recovery ingest answered " +
                      std::to_string(reply.status));
    }
  }

  server.Shutdown();
  server.Wait();

  CheckExactlyOnce(ctx, server.source(), acked, "WAL fault flood");

  // The WAL now contains document records interleaved with the probe's
  // empty eviction records; recovery must replay both to the live state.
  core::XmlSource recovered(ctx.source_options);
  (void)recovered.AddDtdText("mail", kMailDtd);
  StatusOr<std::unique_ptr<store::Wal>> wal =
      RecoverFrom(recovered, server.manager().WalDirFor("default"));
  if (!wal.ok()) {
    ctx.Violate("overload-readiness", acked.size(),
                "recovery from the post-fault WAL failed: " +
                    wal.status().message());
    return;
  }
  const std::string diff =
      DigestDiff(DigestOf(server.source()), DigestOf(recovered));
  if (!diff.empty()) {
    ctx.Violate("overload-exactly-once", acked.size(),
                "WAL recovery diverges from the live state — " + diff);
  }
}

// --- Kind 4: repository quota eviction + crash recovery ----------------------

void RunEvictionRecovery(Ctx& ctx, const OverloadOracleOptions& options) {
  server::ServerOptions so = BaseServerOptions(ctx);
  so.max_repository_docs = 5;
  so.repository_policy = ctx.seed % 2 == 0
                             ? server::RepositoryQuotaPolicy::kEvictOldest
                             : server::RepositoryQuotaPolicy::kRejectNew;
  so.checkpoint_on_shutdown = false;  // recovery must replay the log

  server::IngestServer server(ctx.source_options, so);
  (void)server.AddDtdText("mail", kMailDtd);
  Status started = server.Start();
  if (!started.ok()) {
    ctx.Violate("overload-boot", 0, started.message());
    return;
  }

  Client client(server.port());
  const uint64_t docs = DocBudget(options, 18);
  for (uint64_t i = 0; i < docs; ++i) {
    // Mostly unclassifiable documents (they fill the repository), with
    // classified ones interleaved so eviction records replay against a
    // stream that also moves DTD state.
    const std::string body =
        i % 4 == 3 ? MailDoc(ctx.seed, i) : JunkDoc(ctx.seed, i);
    const HttpReply reply = client.Post("/ingest", body);
    ctx.CountRequest(reply);
    ++ctx.result->documents;
    if (reply.status != 202) {
      ctx.Violate("overload-status-codes", i,
                  "ingest answered " + std::to_string(reply.status));
    }
    if (i == docs / 2) {
      // A mid-stream checkpoint: eviction records logged after it must
      // still replay (and re-applying ones it folded in must be no-ops).
      (void)server.CheckpointNow();
    }
  }

  server.Shutdown();
  server.Wait();

  const core::XmlSource& live = server.source();
  if (live.repository().size() > so.max_repository_docs) {
    ctx.Violate("overload-quota-accounting", docs,
                "repository holds " +
                    std::to_string(live.repository().size()) +
                    " documents, quota was " +
                    std::to_string(so.max_repository_docs));
  }
  const uint64_t evicted =
      server.metrics()
          .GetCounter("dtdevolve_repository_evictions_total",
                      "Repository documents evicted to enforce the "
                      "repository quota")
          .Value();
  if (evicted == 0) {
    ctx.Violate("overload-quota-accounting", docs,
                "the stream overfilled the repository but no eviction was "
                "recorded");
  }
  ctx.result->evictions += evicted;

  // Recovery must land on the identical bounded state — twice, so a
  // crash mid-recovery (re-replaying eviction records) is also covered.
  const StateDigest live_digest = DigestOf(live);
  for (int round = 0; round < 2; ++round) {
    core::XmlSource recovered(ctx.source_options);
    (void)recovered.AddDtdText("mail", kMailDtd);
    StatusOr<std::unique_ptr<store::Wal>> wal =
        RecoverFrom(recovered, server.manager().WalDirFor("default"));
    if (!wal.ok()) {
      ctx.Violate("overload-eviction-recovery", docs,
                  "recovery round " + std::to_string(round) +
                      " failed: " + wal.status().message());
      return;
    }
    const std::string diff = DigestDiff(live_digest, DigestOf(recovered));
    if (!diff.empty()) {
      ctx.Violate("overload-eviction-recovery", docs,
                  "recovery round " + std::to_string(round) +
                      " diverges from the live bounded state — " + diff);
      return;
    }
  }
}

}  // namespace

ScenarioResult RunOverloadScenario(uint64_t scenario_seed,
                                   const OverloadOracleOptions& options) {
  ScenarioResult result;
  result.seed = scenario_seed;

  const ScratchDir dir("overload");
  Ctx ctx;
  ctx.seed = scenario_seed;
  ctx.dir = dir.path();
  ctx.result = &result;
  // Fast classification defaults; every scenario uses the same options
  // for the server and for its replay reference.
  ctx.source_options.min_documents_before_check = 4;

  switch (scenario_seed % 5) {
    case 0:
      result.scenario = "rate-limit flood beside a victim tenant";
      RunRateLimitFlood(ctx, options);
      break;
    case 1:
      result.scenario = "oversized bodies against the size quota";
      RunOversizedBodies(ctx, options);
      break;
    case 2:
      result.scenario = "connection flood against the connection cap";
      RunConnectionCap(ctx, options);
      break;
    case 3:
      result.scenario = "WAL faults mid-flood, then recovery";
      RunWalFaultFlood(ctx, options);
      break;
    default:
      result.scenario = "repository quota eviction + crash recovery";
      RunEvictionRecovery(ctx, options);
      break;
  }

  return result;
}

SweepReport RunSweep(const OverloadOracleOptions& options) {
  return SweepSeeds(SweepMode::kOverload, options.sweep, "--overload", "",
                    [&options](uint64_t seed) {
                      return RunOverloadScenario(seed, options);
                    });
}

}  // namespace dtdevolve::check
