#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "xml/stream_reader.h"

namespace dtdevolve::server {

namespace {

/// Minimal JSON string escaping (DTD names and error messages).
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':  out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n";  break;
      case '\r': out += "\\r";  break;
      case '\t': out += "\\t";  break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

/// Response bytes buffered per connection before the loop stops reading
/// new requests from it (re-armed once the client drains its side) —
/// a pipelining client cannot balloon the server.
constexpr size_t kMaxBufferedOut = 1 << 20;
/// Unparsed request bytes buffered before reads pause for the same
/// reason (pipelined requests parked behind a `?wait=1` head).
constexpr size_t kMaxBufferedIn = 1 << 20;

SourceManagerOptions ManagerOptions(const ServerOptions& options) {
  SourceManagerOptions manager_options;
  manager_options.tenants = options.tenants;
  manager_options.jobs = options.jobs;
  manager_options.queue_capacity = options.queue_capacity;
  manager_options.batch_max = options.batch_max;
  manager_options.wal_dir = options.wal_dir;
  manager_options.fsync_policy = options.fsync_policy;
  manager_options.fsync_interval = options.fsync_interval;
  manager_options.wal_segment_bytes = options.wal_segment_bytes;
  manager_options.checkpoint_interval = options.checkpoint_interval;
  manager_options.checkpoint_on_shutdown = options.checkpoint_on_shutdown;
  manager_options.auto_induce_threshold = options.auto_induce_threshold;
  manager_options.tenant_rate = options.tenant_rate;
  manager_options.tenant_burst = options.tenant_burst;
  manager_options.max_doc_bytes = options.max_doc_bytes;
  manager_options.max_repository_docs = options.max_repository_docs;
  manager_options.repository_policy = options.repository_policy;
  manager_options.tenant_quotas = options.tenant_quotas;
  manager_options.health_probe_interval = options.health_probe_interval;
  if (!options.follow_url.empty()) {
    // A replica owns no durable state — the primary does. Its shards
    // run WAL-less, fed only by replicated records.
    manager_options.wal_dir.clear();
  }
  return manager_options;
}

/// True when no-tenant `/stats` and `/dtds` keep the shapes a
/// single-tenant server has always served: a lone shard named "default".
bool ServesNoTenantShapes(const SourceManager& manager) {
  const std::vector<std::string> tenants = manager.TenantNames();
  return tenants.size() == 1 && tenants[0] == "default";
}

/// Serializes one tenant's stats as the flat JSON object `/stats` has
/// always served (without the surrounding braces' final newline).
std::string StatsJson(const SourceManager::TenantStats& stats,
                      bool include_tenant) {
  std::string body = "{";
  if (include_tenant) {
    body += "\"tenant\":\"" + JsonEscape(stats.tenant) + "\",";
  }
  body += "\"documents_processed\":" + std::to_string(stats.documents_processed);
  body += ",\"documents_classified\":" +
          std::to_string(stats.documents_classified);
  body += ",\"repository_size\":" + std::to_string(stats.repository_size);
  body += ",\"evolutions_performed\":" +
          std::to_string(stats.evolutions_performed);
  // Added after the historical fields, so the original shape (PR 6
  // contract) survives prefix-wise and existing consumers keep parsing.
  body += ",\"repository\":{";
  body += "\"size\":" + std::to_string(stats.repository_size);
  body += ",\"clusters\":" + std::to_string(stats.cluster_count);
  body += ",\"largest_cluster\":" + std::to_string(stats.largest_cluster);
  body += ",\"candidates_pending\":" + std::to_string(stats.candidates_pending);
  body += ",\"candidates_proposed\":" +
          std::to_string(stats.candidates_proposed);
  body += ",\"candidates_accepted\":" +
          std::to_string(stats.candidates_accepted);
  body += ",\"candidates_rejected\":" +
          std::to_string(stats.candidates_rejected);
  body += "}";
  body += ",\"dtds\":{";
  bool first = true;
  for (const SourceManager::TenantDtdStats& dtd : stats.dtds) {
    if (!first) body += ',';
    first = false;
    body += "\"" + JsonEscape(dtd.name) + "\":{";
    body += "\"documents_recorded\":" + std::to_string(dtd.documents_recorded);
    body += ",\"mean_divergence\":" + FormatDouble(dtd.mean_divergence);
    body += ",\"documents_ingested\":" + std::to_string(dtd.documents_ingested);
    body += ",\"evolutions\":" + std::to_string(dtd.evolutions);
    body += "}";
  }
  body += "}}";
  return body;
}

/// HTTP status for the shared tenant/candidate error statuses.
int ErrorStatusCode(const Status& status) {
  switch (status.code()) {
    case Status::Code::kInvalidArgument:
      return 400;
    case Status::Code::kNotFound:
      return 404;
    case Status::Code::kFailedPrecondition:
      return 503;
    default:
      return 500;
  }
}

HttpResponse JsonError(const Status& status) {
  return {ErrorStatusCode(status), "application/json", {},
          "{\"error\":\"" + JsonEscape(status.message()) + "\"}\n"};
}

/// Bounded-cardinality path label: arbitrary 404 targets fold into
/// "other".
std::string PathLabel(const std::string& path) {
  for (const char* known :
       {"/ingest", "/dtds", "/stats", "/metrics", "/healthz", "/tenants",
        "/dtds/induce", "/dtds/candidates", "/replication/checkpoint",
        "/replication/wal"}) {
    if (path == known) return known;
  }
  if (path.rfind("/dtds/candidates/", 0) == 0) {
    return "/dtds/candidates/{id}";
  }
  if (path.rfind("/dtds/", 0) == 0) return "/dtds/{name}";
  if (path.rfind("/ingest/", 0) == 0) return "/ingest/{tenant}";
  return "other";
}

/// The JSON body of a completed `?wait=1` ingest — shared by the
/// synchronous fallback and the worker-side completion callback.
HttpResponse WaitOutcomeResponse(const core::XmlSource::ProcessOutcome& outcome,
                                 const std::string& tenant) {
  std::string body = "{\"classified\":";
  body += outcome.classified ? "true" : "false";
  body += ",\"dtd\":\"" + JsonEscape(outcome.dtd_name) + "\"";
  body += ",\"similarity\":" + FormatDouble(outcome.similarity);
  body += ",\"evolved\":";
  body += outcome.evolved ? "true" : "false";
  body += ",\"reclassified\":" + std::to_string(outcome.reclassified);
  body += ",\"tenant\":\"" + JsonEscape(tenant) + "\"";
  body += "}\n";
  return {200, "application/json", {}, body};
}

/// The 202 of an async ingest.
HttpResponse QueuedResponse(const std::string& tenant) {
  return {202, "application/json", {},
          "{\"queued\":true,\"tenant\":\"" + JsonEscape(tenant) + "\"}\n"};
}

/// The answer of an ingest whose waiter completed: 503 when its group
/// commit failed, else the 202 (async) or the outcome (`?wait=1`).
HttpResponse CompletedIngestResponse(
    const SourceManager::IngestWaiter& waiter, const std::string& tenant,
    int retry_after_seconds) {
  if (!waiter.status.ok()) {
    return {503,
            "application/json",
            {{"Retry-After", std::to_string(retry_after_seconds)}},
            "{\"error\":\"write-ahead log commit failed: " +
                JsonEscape(waiter.status.message()) + "\"}\n"};
  }
  if (waiter.commit_only) return QueuedResponse(tenant);
  return WaitOutcomeResponse(waiter.outcome, tenant);
}

}  // namespace

IngestServer::IngestServer(core::SourceOptions source_options,
                           ServerOptions options)
    : options_(std::move(options)),
      manager_(std::move(source_options), ManagerOptions(options_)) {}

IngestServer::~IngestServer() {
  Shutdown();
  Wait();
}

Status IngestServer::AddDtdText(const std::string& name,
                                std::string_view dtd_text) {
  return manager_.AddDtdText(name, dtd_text);
}

Status IngestServer::AddTenantDtdText(const std::string& tenant,
                                      const std::string& name,
                                      std::string_view dtd_text) {
  return manager_.AddTenantDtdText(tenant, name, dtd_text);
}

Status IngestServer::CheckpointNow(uint64_t* captured_lsn) {
  return manager_.CheckpointAll(captured_lsn);
}

void IngestServer::CloseSockets() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  for (int& fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

Status IngestServer::Start() {
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }

  // Socket setup first: it is the step most likely to fail on
  // operator error (port already bound), and failing before recovery
  // keeps a failed Start trivially retryable. Every error path unwinds
  // the fds acquired so far — a failed Start used to leak the wake pipe
  // and the listener because Wait() early-returns when never started.
  if (::pipe(wake_pipe_) != 0) {
    wake_pipe_[0] = wake_pipe_[1] = -1;
    return Status::Internal(std::string("pipe failed: ") +
                            std::strerror(errno));
  }
  // The event thread must never block on the wake pipe's read side.
  ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) {
    const int saved_errno = errno;
    CloseSockets();
    return Status::Internal(std::string("socket failed: ") +
                            std::strerror(saved_errno));
  }
  int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int saved_errno = errno;
    CloseSockets();
    return Status::Internal(std::string("bind failed: ") +
                            std::strerror(saved_errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    const int saved_errno = errno;
    CloseSockets();
    return Status::Internal(std::string("listen failed: ") +
                            std::strerror(saved_errno));
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                &addr_len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    const int saved_errno = errno;
    CloseSockets();
    return Status::Internal(std::string("epoll_create1 failed: ") +
                            std::strerror(saved_errno));
  }
  struct epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) != 0 ||
      (event.data.fd = wake_pipe_[0],
       ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &event) != 0)) {
    const int saved_errno = errno;
    CloseSockets();
    return Status::Internal(std::string("epoll_ctl failed: ") +
                            std::strerror(saved_errno));
  }

  // Shard lifecycle — metrics wiring, storage directories, recovery,
  // workers, checkpoint thread — lives in the manager. A shard that
  // recovered during a failed Start is not replayed again on retry.
  Status manager_started = manager_.Start(&registry_);
  if (!manager_started.ok()) {
    CloseSockets();
    return manager_started;
  }

  if (!options_.follow_url.empty()) {
    FollowerConfig config;
    config.url = options_.follow_url;
    config.tenants = manager_.TenantNames();
    config.poll_interval = options_.follow_poll_interval;
    follower_ = std::make_unique<Follower>(config, &manager_, &registry_);
    Status follower_started = follower_->Start();
    if (!follower_started.ok()) {
      follower_.reset();
      manager_.Drain();
      CloseSockets();
      return follower_started;
    }
  }

  conns_accepted_ = &registry_.GetCounter("dtdevolve_http_connections_total",
                                          "Connections accepted");
  conns_timed_out_ = &registry_.GetCounter(
      "dtdevolve_http_connection_timeouts_total",
      "Connections closed on an idle, read-stall or write-stall deadline");
  conns_rejected_ = &registry_.GetCounter(
      "dtdevolve_http_connections_rejected_total",
      "Accepts answered 503-and-close at the connection cap");
  accept_stalls_ = &registry_.GetCounter(
      "dtdevolve_http_accept_stalls_total",
      "Listener backoffs after accept failed on fd exhaustion");
  conns_open_ = &registry_.GetGauge("dtdevolve_http_connections_open",
                                    "Connections currently multiplexed");

  // A Shutdown raced against (or issued after) an earlier failed Start
  // must not make the fresh run unstoppable: the flag guards the
  // one-shot wake write, so it has to rearm with the new pipe.
  shutdown_requested_.store(false);
  draining_ = false;
  listener_armed_ = true;
  conns_.clear();
  completions_.clear();
  event_thread_ = std::thread([this] { EventLoop(); });
  started_ = true;
  return Status::Ok();
}

void IngestServer::Shutdown() {
  if (shutdown_requested_.exchange(true)) return;
  if (wake_pipe_[1] >= 0) {
    const char byte = 'q';
    // write() is async-signal-safe; this is the whole signal path.
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void IngestServer::Wait() {
  if (!started_) return;
  // Graceful order: (1) make sure the workers run un-paused, so parked
  // `?wait=1` requests complete and their callbacks land; (2) the event
  // thread drains — listener down, idle connections dropped, in-flight
  // responses (keep-alive included) flushed; (3) the replication thread
  // stops; (4) the workers drain and join — after this no completion
  // callback can fire — then the final WAL sync + checkpoint;
  // (5) the fds close, which is safe exactly because nothing above can
  // touch the wake pipe anymore.
  manager_.ResumeIngest();
  if (event_thread_.joinable()) event_thread_.join();
  if (follower_ != nullptr) {
    follower_->Stop();
    follower_.reset();
  }
  manager_.Drain();
  CloseSockets();
  started_ = false;
}

void IngestServer::PauseIngest() { manager_.PauseIngest(); }

void IngestServer::ResumeIngest() { manager_.ResumeIngest(); }

// --- Event loop -----------------------------------------------------------

void IngestServer::EventLoop() {
  struct epoll_event events[64];
  for (;;) {
    const int budget = TimeoutBudgetMs();
    const int ready =
        ::epoll_wait(epoll_fd_, events, 64, budget);
    if (ready < 0 && errno != EINTR) break;
    const int count = ready < 0 ? 0 : ready;

    // Connection I/O first, accepts last: a connection closed in this
    // batch frees its fd, and accepting first could re-issue that fd
    // while a stale event for the old connection is still in `events`.
    bool accept_ready = false;
    for (int i = 0; i < count; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_pipe_[0]) {
        char drain[256];
        while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready = true;
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier in this batch
      Connection* conn = it->second.get();
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!FlushOut(conn)) continue;
        UpdateInterest(conn);
      }
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
        HandleReadable(conn);
      }
    }

    DrainCompletions();

    if (shutdown_requested_.load() && !draining_) StartDrain();
    if (accept_ready && !draining_) AcceptReady();
    if (!draining_) RearmListenerIfDue();

    CloseExpiredConns();

    if (draining_ && conns_.empty()) return;
  }
}

void IngestServer::AcceptReady() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOMEM ||
          errno == ENOBUFS) {
        // Out of fds (or kernel memory): the pending connection stays in
        // the backlog, so a level-triggered listener would wake the loop
        // on every epoll_wait without ever making progress. Park the
        // listener on a timed backoff instead; by the re-arm an
        // established connection has usually closed and freed an fd.
        DisarmListener();
        break;
      }
      break;
    }
    if (options_.max_connections > 0 &&
        conns_.size() >= options_.max_connections) {
      RejectConnection(fd);
      continue;
    }
    // Responses are written whole, so Nagle only delays them: a
    // pipelined request's answer would otherwise wait for the client's
    // delayed ACK (about 40 ms).
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = ++next_conn_id_;
    conn->events = EPOLLIN;
    conn->last_activity = std::chrono::steady_clock::now();
    struct epoll_event event;
    std::memset(&event, 0, sizeof(event));
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    conns_[fd] = std::move(conn);
    conns_accepted_->Increment();
    conns_open_->Set(static_cast<double>(conns_.size()));
  }
}

void IngestServer::RejectConnection(int fd) {
  // The socket never joins the event loop: one best-effort synchronous
  // write of the 503 (a fresh connection's send buffer is empty, so a
  // response this small does not block), then close. Truncation under a
  // SYN flood is acceptable — the close itself is the backoff signal.
  HttpResponse response{
      503,
      "application/json",
      {{"Retry-After", std::to_string(options_.retry_after_seconds)}},
      "{\"error\":\"connection limit reached\"}\n"};
  const std::string bytes =
      SerializeHttpResponse(response, /*keep_alive=*/false);
  [[maybe_unused]] ssize_t n =
      ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
  ::close(fd);
  conns_rejected_->Increment();
}

/// Listener backoff after fd exhaustion, folded into the epoll budget.
constexpr int kListenerRearmMs = 100;

void IngestServer::DisarmListener() {
  if (!listener_armed_ || listen_fd_ < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  listener_armed_ = false;
  listener_rearm_at_ = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(kListenerRearmMs);
  accept_stalls_->Increment();
}

void IngestServer::RearmListenerIfDue() {
  if (listener_armed_ || listen_fd_ < 0) return;
  if (std::chrono::steady_clock::now() < listener_rearm_at_) return;
  struct epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) == 0) {
    listener_armed_ = true;
    // The backlog accumulated during the stall; drain it now instead of
    // waiting for the next epoll wake.
    AcceptReady();
  } else {
    // Still starved (epoll_ctl itself can fail on ENOMEM) — back off
    // again.
    listener_rearm_at_ = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(kListenerRearmMs);
  }
}

void IngestServer::StartDrain() {
  draining_ = true;
  // No new connections: the listener goes down first, so clients fail
  // fast to another replica instead of queueing behind a dying server.
  if (listen_fd_ >= 0) {
    if (listener_armed_) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    }
    listener_armed_ = false;
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<Connection*> idle;
  for (auto& entry : conns_) {
    Connection* conn = entry.second.get();
    if (conn->waiting_apply) {
      // A parked `?wait=1` request — plus whatever is pipelined behind
      // it — finishes before the close; only new reads stop.
      UpdateInterest(conn);
      continue;
    }
    if (!conn->out.empty()) {
      // In-flight response: flush, then close (the keep-alive drain
      // guarantee).
      conn->close_after_flush = true;
      UpdateInterest(conn);
      continue;
    }
    // Idle keep-alive connections (and half-sent requests that can now
    // never complete) close immediately.
    idle.push_back(conn);
  }
  for (Connection* conn : idle) CloseConn(conn);
}

void IngestServer::HandleReadable(Connection* conn) {
  char buffer[16384];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->in.append(buffer, static_cast<size_t>(n));
      conn->last_activity = std::chrono::steady_clock::now();
      if (conn->in.size() >= kMaxBufferedIn) break;
      continue;
    }
    if (n == 0) {
      // Half-close: nothing more arrives, but responses already earned
      // (parsed requests, parked waits) still go out before the close.
      conn->saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);
    return;
  }
  if (!conn->waiting_apply) ProcessInput(conn);
  if (!FlushOut(conn)) return;
  UpdateInterest(conn);
}

void IngestServer::ProcessInput(Connection* conn) {
  size_t served_this_pass = 0;
  while (!conn->close_after_flush && !conn->waiting_apply) {
    if (conn->in.empty()) break;
    HttpRequest request;
    const HttpParse parsed =
        ParseHttpRequest(conn->in, options_.max_body_bytes, &request);
    if (parsed.result == HttpParseResult::kNeedMore) break;
    if (parsed.result == HttpParseResult::kError) {
      // Malformed framing: answer, then close — the byte stream can no
      // longer be trusted to find the next request boundary.
      HttpResponse response;
      response.status = parsed.error_status;
      response.content_type = "text/plain; charset=utf-8";
      response.body = parsed.error + "\n";
      CountRequest("other", response.status);
      conn->out += SerializeHttpResponse(response, /*keep_alive=*/false);
      conn->last_activity = std::chrono::steady_clock::now();
      conn->close_after_flush = true;
      break;
    }
    conn->in.erase(0, parsed.consumed);
    const bool keep_alive = parsed.keep_alive && !draining_ && !conn->saw_eof;

    if (options_.max_pipeline_depth > 0 &&
        served_this_pass >= options_.max_pipeline_depth) {
      // The client stuffed more requests into one burst than the server
      // is willing to keep in flight. The overflow request gets a 503
      // (its predecessors' responses are already buffered, in order)
      // and the connection closes after the flush.
      HttpResponse response{
          503,
          "application/json",
          {{"Retry-After", std::to_string(options_.retry_after_seconds)}},
          "{\"error\":\"pipeline depth limit reached\"}\n"};
      CountRequest(PathLabel(request.path), response.status);
      conn->out += SerializeHttpResponse(response, /*keep_alive=*/false);
      conn->last_activity = std::chrono::steady_clock::now();
      conn->close_after_flush = true;
      break;
    }
    ++served_this_pass;

    RouteResult routed = Route(request, conn->fd, conn->id, keep_alive);
    if (routed.async) {
      // The response arrives via the completion queue; stop parsing so
      // pipelined successors are answered in order behind it.
      conn->waiting_apply = true;
      break;
    }
    CountRequest(PathLabel(request.path), routed.response.status);
    conn->out += SerializeHttpResponse(routed.response, keep_alive);
    conn->last_activity = std::chrono::steady_clock::now();
    if (!keep_alive) {
      conn->close_after_flush = true;
      break;
    }
  }
  if (draining_ && !conn->waiting_apply) conn->close_after_flush = true;
}

bool IngestServer::FlushOut(Connection* conn) {
  while (!conn->out.empty()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data(), conn->out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn->out.erase(0, static_cast<size_t>(n));
      conn->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(conn);
    return false;
  }
  if (conn->out.empty() &&
      (conn->close_after_flush || (conn->saw_eof && !conn->waiting_apply))) {
    CloseConn(conn);
    return false;
  }
  return true;
}

void IngestServer::UpdateInterest(Connection* conn) {
  uint32_t want = 0;
  // Reads stay armed while the connection can make progress: not during
  // drain, not after EOF, and not while either buffer is at its
  // backpressure cap.
  if (!draining_ && !conn->saw_eof && conn->out.size() < kMaxBufferedOut &&
      conn->in.size() < kMaxBufferedIn) {
    want |= EPOLLIN;
  }
  if (!conn->out.empty()) want |= EPOLLOUT;
  if (want == conn->events) return;
  struct epoll_event event;
  std::memset(&event, 0, sizeof(event));
  event.events = want;
  event.data.fd = conn->fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event) == 0) {
    conn->events = want;
  }
}

void IngestServer::CloseConn(Connection* conn) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  conns_open_->Set(static_cast<double>(conns_.size()));
}

void IngestServer::PushCompletion(WaitCompletion completion) {
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    completions_.push_back(std::move(completion));
  }
  // Wake the event loop; one byte per completion is fine — the reader
  // drains the pipe wholesale.
  if (wake_pipe_[1] >= 0) {
    const char byte = 'c';
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void IngestServer::DrainCompletions() {
  std::vector<WaitCompletion> ready;
  {
    std::lock_guard<std::mutex> lock(completion_mutex_);
    ready.swap(completions_);
  }
  for (WaitCompletion& completion : ready) {
    auto it = conns_.find(completion.fd);
    if (it == conns_.end() || it->second->id != completion.conn_id) {
      // The connection died while its document was applied (the apply
      // itself is durable and acked by the WAL, not by this socket).
      continue;
    }
    Connection* conn = it->second.get();
    conn->waiting_apply = false;
    const bool keep_alive =
        completion.keep_alive && !draining_ && !conn->saw_eof;
    conn->out += SerializeHttpResponse(completion.response, keep_alive);
    conn->last_activity = std::chrono::steady_clock::now();
    if (!keep_alive) {
      conn->close_after_flush = true;
    } else {
      // Requests pipelined behind the parked one resume, still in
      // order.
      ProcessInput(conn);
    }
    if (!FlushOut(conn)) continue;
    UpdateInterest(conn);
  }
}

int IngestServer::TimeoutBudgetMs() const {
  using std::chrono::steady_clock;
  using std::chrono::milliseconds;
  const steady_clock::time_point now = steady_clock::now();
  long best = 1000;  // periodic tick: cheap, bounds every deadline check
  if (!listener_armed_ && listen_fd_ >= 0) {
    // A parked listener re-arms on a deadline, not on an epoll event —
    // the wait budget must not sleep past it.
    const long remaining =
        std::chrono::duration_cast<milliseconds>(listener_rearm_at_ - now)
            .count();
    if (remaining < best) best = remaining;
  }
  for (const auto& entry : conns_) {
    const Connection* conn = entry.second.get();
    int seconds = 0;
    if (conn->waiting_apply) {
      continue;  // the server's own latency; never a client deadline
    } else if (!conn->out.empty()) {
      seconds = options_.send_timeout_seconds;
    } else if (!conn->in.empty()) {
      seconds = options_.recv_timeout_seconds;
    } else {
      seconds = options_.idle_timeout_seconds;
    }
    if (seconds <= 0) continue;
    const auto deadline = conn->last_activity + std::chrono::seconds(seconds);
    const long remaining =
        std::chrono::duration_cast<milliseconds>(deadline - now).count();
    if (remaining < best) best = remaining;
  }
  if (best < 10) best = 10;
  return static_cast<int>(best);
}

void IngestServer::CloseExpiredConns() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<Connection*> expired;
  for (const auto& entry : conns_) {
    Connection* conn = entry.second.get();
    int seconds = 0;
    if (conn->waiting_apply) {
      continue;
    } else if (!conn->out.empty()) {
      // Write stall: the peer stopped reading its response.
      seconds = options_.send_timeout_seconds;
    } else if (!conn->in.empty()) {
      // Read stall mid-request — the slow-loris guard.
      seconds = options_.recv_timeout_seconds;
    } else {
      seconds = options_.idle_timeout_seconds;
    }
    if (seconds <= 0) continue;
    if (now - conn->last_activity >= std::chrono::seconds(seconds)) {
      expired.push_back(conn);
    }
  }
  for (Connection* conn : expired) {
    conns_timed_out_->Increment();
    CloseConn(conn);
  }
}

void IngestServer::CountRequest(const std::string& path, int status) {
  registry_
      .GetCounter("dtdevolve_http_requests_total", "HTTP requests served",
                  {{"path", path}, {"code", std::to_string(status)}})
      .Increment();
}

// --- Routing --------------------------------------------------------------

IngestServer::RouteResult IngestServer::Route(const HttpRequest& request,
                                              int fd, uint64_t conn_id,
                                              bool keep_alive) {
  if (request.path == "/healthz") {
    // Liveness (bare) answers 200 while the event loop turns at all;
    // readiness (?ready=1) also vouches that the server can do useful
    // work right now.
    if (request.QueryFlag("ready")) return {false, HandleReady()};
    return {false, {200, "text/plain; charset=utf-8", {}, "ok\n"}};
  }
  if (follower_ != nullptr && request.method == "POST") {
    // A replica's state is a function of the primary's WAL; local
    // writes would fork it.
    return {false,
            {403, "application/json", {},
             "{\"error\":\"read-only replica (following " +
                 JsonEscape(options_.follow_url) + ")\"}\n"}};
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") return {false, {405, "text/plain", {}, ""}};
    manager_.RefreshLruGauges();
    return {false,
            {200, "text/plain; version=0.0.4; charset=utf-8", {},
             registry_.RenderPrometheus()}};
  }
  if (request.path == "/ingest" || request.path.rfind("/ingest/", 0) == 0) {
    if (request.method != "POST") return {false, {405, "text/plain", {}, ""}};
    return HandleIngest(request, fd, conn_id, keep_alive);
  }
  if (request.path == "/tenants") {
    if (request.method != "GET") return {false, {405, "text/plain", {}, ""}};
    return {false, HandleTenants()};
  }
  if (request.path == "/dtds/induce") {
    if (request.method != "POST") return {false, {405, "text/plain", {}, ""}};
    return {false, HandleInduce(request)};
  }
  if (request.path == "/dtds/candidates" ||
      request.path.rfind("/dtds/candidates/", 0) == 0) {
    return {false, HandleCandidates(request)};
  }
  if (request.path == "/dtds" || request.path.rfind("/dtds/", 0) == 0) {
    if (request.method != "GET") return {false, {405, "text/plain", {}, ""}};
    return {false, HandleDtds(request)};
  }
  if (request.path == "/stats") {
    if (request.method != "GET") return {false, {405, "text/plain", {}, ""}};
    return {false, HandleStats(request)};
  }
  if (request.path == "/replication/checkpoint") {
    if (request.method != "GET") return {false, {405, "text/plain", {}, ""}};
    return {false, HandleReplicationCheckpoint(request)};
  }
  if (request.path == "/replication/wal") {
    if (request.method != "GET") return {false, {405, "text/plain", {}, ""}};
    return {false, HandleReplicationWal(request)};
  }
  return {false, {404, "text/plain; charset=utf-8", {}, "not found\n"}};
}

IngestServer::RouteResult IngestServer::HandleIngest(
    const HttpRequest& request, int fd, uint64_t conn_id, bool keep_alive) {
  // `/ingest/{tenant}` wins over `?tenant=`; both empty means anonymous
  // traffic, which the manager routes (single shard / "default" shard /
  // consistent hash of the root tag).
  std::string tenant;
  if (request.path.rfind("/ingest/", 0) == 0) {
    tenant = request.path.substr(std::strlen("/ingest/"));
  }
  if (tenant.empty()) tenant = request.QueryValue("tenant");

  // The size quota runs before the parse: an over-quota body must not
  // cost the event thread parser time.
  if (!manager_.AdmitDocSize(tenant, request.body.size())) {
    return {false,
            {413, "application/json", {},
             "{\"error\":\"document exceeds the per-tenant size "
             "quota\"}\n"}};
  }

  const bool wait = request.QueryFlag("wait");
  // Single-pass streaming parse straight into an arena tree.
  StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(request.body);
  if (!doc.ok()) {
    return {false,
            {400, "application/json", {},
             "{\"error\":\"" + JsonEscape(doc.status().ToString()) +
                 "\"}\n"}};
  }
  SourceManager::EnqueueResult enqueued =
      manager_.Enqueue(tenant, std::move(*doc), request.body, wait);
  switch (enqueued.code) {
    case SourceManager::EnqueueCode::kUnknownTenant:
      return {false,
              {404, "application/json", {},
               "{\"error\":\"unknown tenant '" + JsonEscape(tenant) +
                   "'\"}\n"}};
    case SourceManager::EnqueueCode::kQueueFull:
      return {false,
              {503,
               "application/json",
               {{"Retry-After", std::to_string(options_.retry_after_seconds)}},
               "{\"error\":\"ingest queue full\"}\n"}};
    case SourceManager::EnqueueCode::kWalError:
      return {false,
              {503,
               "application/json",
               {{"Retry-After", std::to_string(options_.retry_after_seconds)}},
               "{\"error\":\"write-ahead log append failed: " +
                   JsonEscape(enqueued.error) + "\"}\n"}};
    case SourceManager::EnqueueCode::kRateLimited:
      return {false,
              {429,
               "application/json",
               {{"Retry-After", std::to_string(options_.retry_after_seconds)}},
               "{\"error\":\"tenant ingest rate limit exceeded\"}\n"}};
    case SourceManager::EnqueueCode::kReadOnly:
      return {false,
              {503,
               "application/json",
               {{"Retry-After", std::to_string(options_.retry_after_seconds)}},
               "{\"error\":\"shard is read-only (write-ahead log "
               "unavailable)\"}\n"}};
    case SourceManager::EnqueueCode::kOk:
      break;
  }

  // Without a WAL an async ingest is acked at once. Otherwise the ack
  // waits — for the group commit (async) or the apply (`?wait=1`) —
  // without blocking the event thread: register a completion callback
  // under the waiter's mutex. If the worker already finished (it can
  // outrun us), answer synchronously instead.
  std::shared_ptr<SourceManager::IngestWaiter> waiter = enqueued.waiter;
  if (waiter == nullptr) return {false, QueuedResponse(enqueued.tenant)};
  const std::string path_label = PathLabel(request.path);
  const int retry_after = options_.retry_after_seconds;
  {
    std::lock_guard<std::mutex> lock(waiter->mutex);
    if (!waiter->done) {
      waiter->on_done = [this, fd, conn_id, keep_alive, waiter, retry_after,
                         tenant_name = enqueued.tenant, path_label] {
        HttpResponse response =
            CompletedIngestResponse(*waiter, tenant_name, retry_after);
        CountRequest(path_label, response.status);
        WaitCompletion completion;
        completion.fd = fd;
        completion.conn_id = conn_id;
        completion.keep_alive = keep_alive;
        completion.response = std::move(response);
        PushCompletion(std::move(completion));
      };
      return {true, {}};
    }
  }
  return {false,
          CompletedIngestResponse(*waiter, enqueued.tenant, retry_after)};
}

HttpResponse IngestServer::HandleTenants() {
  std::string body = "{\"tenants\":[";
  bool first = true;
  for (const std::string& name : manager_.TenantNames()) {
    if (!first) body += ',';
    first = false;
    body += "\"" + JsonEscape(name) + "\"";
  }
  body += "]}\n";
  return {200, "application/json", {}, body};
}

HttpResponse IngestServer::HandleDtds(const HttpRequest& request) {
  const std::string tenant = request.QueryValue("tenant");
  if (request.path == "/dtds") {
    if (tenant.empty() && !ServesNoTenantShapes(manager_)) {
      // Aggregate rollup: every tenant's DTD list keyed by tenant name.
      std::string body = "{\"tenants\":{";
      bool first_tenant = true;
      for (const std::string& name : manager_.TenantNames()) {
        StatusOr<std::vector<std::string>> names = manager_.DtdNamesFor(name);
        if (!names.ok()) continue;
        if (!first_tenant) body += ',';
        first_tenant = false;
        body += "\"" + JsonEscape(name) + "\":[";
        bool first = true;
        for (const std::string& dtd : *names) {
          if (!first) body += ',';
          first = false;
          body += "\"" + JsonEscape(dtd) + "\"";
        }
        body += "]";
      }
      body += "}}\n";
      return {200, "application/json", {}, body};
    }
    StatusOr<std::vector<std::string>> names = manager_.DtdNamesFor(tenant);
    if (!names.ok()) {
      return {404, "application/json", {},
              "{\"error\":\"" + JsonEscape(names.status().message()) +
                  "\"}\n"};
    }
    std::string body = "{\"dtds\":[";
    bool first = true;
    for (const std::string& name : *names) {
      if (!first) body += ',';
      first = false;
      body += "\"" + JsonEscape(name) + "\"";
    }
    body += "]}\n";
    return {200, "application/json", {}, body};
  }

  const std::string name = request.path.substr(std::strlen("/dtds/"));
  StatusOr<std::string> text = manager_.DtdTextFor(tenant, name);
  if (!text.ok()) {
    const int status =
        text.status().code() == Status::Code::kInvalidArgument ? 400 : 404;
    return {status, "application/json", {},
            "{\"error\":\"" + JsonEscape(text.status().message()) + "\"}\n"};
  }
  return {200, "application/xml-dtd; charset=utf-8", {}, std::move(*text)};
}

HttpResponse IngestServer::HandleInduce(const HttpRequest& request) {
  const std::string tenant = request.QueryValue("tenant");
  StatusOr<size_t> pending = manager_.InduceTenant(tenant);
  if (!pending.ok()) return JsonError(pending.status());
  return {200, "application/json", {},
          "{\"candidates\":" + std::to_string(*pending) + "}\n"};
}

HttpResponse IngestServer::HandleCandidates(const HttpRequest& request) {
  const std::string tenant = request.QueryValue("tenant");

  if (request.path == "/dtds/candidates") {
    if (request.method != "GET") return {405, "text/plain", {}, ""};
    StatusOr<std::vector<SourceManager::CandidateInfo>> candidates =
        manager_.CandidatesFor(tenant);
    if (!candidates.ok()) return JsonError(candidates.status());
    std::string body = "{\"candidates\":[";
    bool first = true;
    for (const SourceManager::CandidateInfo& info : *candidates) {
      if (!first) body += ',';
      first = false;
      body += "{\"id\":" + std::to_string(info.id);
      body += ",\"name\":\"" + JsonEscape(info.name) + "\"";
      body += ",\"members\":" + std::to_string(info.members);
      body += ",\"validated\":" + std::to_string(info.validated);
      body += ",\"coverage\":" + FormatDouble(info.coverage);
      body += ",\"margin\":" + FormatDouble(info.margin);
      body += ",\"dtd\":\"" + JsonEscape(info.dtd_text) + "\"}";
    }
    body += "]}\n";
    return {200, "application/json", {}, body};
  }

  // /dtds/candidates/{id}/accept | /dtds/candidates/{id}/reject
  if (request.method != "POST") return {405, "text/plain", {}, ""};
  std::string rest = request.path.substr(std::strlen("/dtds/candidates/"));
  const size_t slash = rest.find('/');
  if (slash == std::string::npos) {
    return {404, "text/plain; charset=utf-8", {}, "not found\n"};
  }
  const std::string id_text = rest.substr(0, slash);
  const std::string verb = rest.substr(slash + 1);
  char* end = nullptr;
  const uint64_t id = std::strtoull(id_text.c_str(), &end, 10);
  if (id_text.empty() || end == nullptr || *end != '\0') {
    return {400, "application/json", {},
            "{\"error\":\"candidate id must be a number\"}\n"};
  }

  if (verb == "accept") {
    StatusOr<core::XmlSource::AcceptOutcome> outcome =
        manager_.AcceptCandidate(tenant, id);
    if (!outcome.ok()) return JsonError(outcome.status());
    std::string body = "{\"accepted\":true";
    body += ",\"dtd\":\"" + JsonEscape(outcome->dtd_name) + "\"";
    body += ",\"members\":" + std::to_string(outcome->members);
    body += ",\"validated\":" + std::to_string(outcome->validated);
    body += ",\"reclassified\":" + std::to_string(outcome->reclassified);
    body += "}\n";
    return {200, "application/json", {}, body};
  }
  if (verb == "reject") {
    Status rejected = manager_.RejectCandidate(tenant, id);
    if (!rejected.ok()) return JsonError(rejected);
    return {200, "application/json", {},
            "{\"rejected\":true,\"id\":" + std::to_string(id) + "}\n"};
  }
  return {404, "text/plain; charset=utf-8", {}, "not found\n"};
}

HttpResponse IngestServer::HandleStats(const HttpRequest& request) {
  const std::string tenant = request.QueryValue("tenant");
  if (!tenant.empty() || ServesNoTenantShapes(manager_)) {
    StatusOr<SourceManager::TenantStats> stats = manager_.StatsFor(tenant);
    if (!stats.ok()) {
      return {404, "application/json", {},
              "{\"error\":\"" + JsonEscape(stats.status().message()) +
                  "\"}\n"};
    }
    // A lone "default" shard serves the exact historical shape (no
    // tenant key); an explicit ?tenant= adds the tenant name.
    return {200, "application/json", {},
            StatsJson(*stats, /*include_tenant=*/!tenant.empty()) + "\n"};
  }

  // Multi-tenant aggregate: process-wide totals plus a per-tenant
  // rollup.
  std::vector<SourceManager::TenantStats> all = manager_.AllStats();
  uint64_t processed = 0;
  uint64_t classified = 0;
  size_t repository = 0;
  uint64_t evolutions = 0;
  for (const SourceManager::TenantStats& stats : all) {
    processed += stats.documents_processed;
    classified += stats.documents_classified;
    repository += stats.repository_size;
    evolutions += stats.evolutions_performed;
  }
  std::string body = "{";
  body += "\"documents_processed\":" + std::to_string(processed);
  body += ",\"documents_classified\":" + std::to_string(classified);
  body += ",\"repository_size\":" + std::to_string(repository);
  body += ",\"evolutions_performed\":" + std::to_string(evolutions);
  body += ",\"tenants\":{";
  bool first = true;
  for (const SourceManager::TenantStats& stats : all) {
    if (!first) body += ',';
    first = false;
    body += "\"" + JsonEscape(stats.tenant) +
            "\":" + StatsJson(stats, /*include_tenant=*/false);
  }
  body += "}}\n";
  return {200, "application/json", {}, body};
}

HttpResponse IngestServer::HandleReady() {
  // Runs on the event thread, so conns_ is safe to read without a lock.
  const bool saturated = options_.max_connections > 0 &&
                         conns_.size() >= options_.max_connections;
  bool shards_ok = true;
  std::string shards = "{";
  bool first = true;
  for (const SourceManager::ShardHealthInfo& info : manager_.HealthReport()) {
    if (info.health != ShardHealth::kOk) shards_ok = false;
    if (!first) shards += ',';
    first = false;
    shards += "\"" + JsonEscape(info.tenant) + "\":\"" +
              ShardHealthName(info.health) + "\"";
  }
  shards += "}";
  const bool ready = shards_ok && !saturated;
  std::string body = "{\"ready\":";
  body += ready ? "true" : "false";
  body += ",\"connections\":{\"open\":" + std::to_string(conns_.size());
  body += ",\"limit\":" + std::to_string(options_.max_connections);
  body += ",\"saturated\":";
  body += saturated ? "true" : "false";
  body += "},\"shards\":" + shards + "}\n";
  return {ready ? 200 : 503, "application/json", {}, std::move(body)};
}

// --- Replication endpoints ------------------------------------------------

namespace {

/// `?tenant=` resolution for the replication endpoints: explicit name,
/// or the single shard when there is exactly one.
StatusOr<std::string> ReplicationTenant(const SourceManager& manager,
                                        const HttpRequest& request) {
  std::string tenant = request.QueryValue("tenant");
  if (tenant.empty()) {
    std::vector<std::string> names = manager.TenantNames();
    if (names.size() != 1) {
      return Status::InvalidArgument("tenant required (multi-tenant server)");
    }
    tenant = names[0];
  }
  return tenant;
}

}  // namespace

HttpResponse IngestServer::HandleReplicationCheckpoint(
    const HttpRequest& request) {
  StatusOr<std::string> tenant = ReplicationTenant(manager_, request);
  if (!tenant.ok()) return JsonError(tenant.status());
  StatusOr<std::string> blob = manager_.ExportCheckpointFor(*tenant);
  if (!blob.ok()) return JsonError(blob.status());
  return {200, "application/octet-stream", {}, std::move(*blob)};
}

HttpResponse IngestServer::HandleReplicationWal(const HttpRequest& request) {
  StatusOr<std::string> tenant = ReplicationTenant(manager_, request);
  if (!tenant.ok()) return JsonError(tenant.status());

  const std::string from_text = request.QueryValue("from_lsn");
  const uint64_t from_lsn =
      from_text.empty() ? 1 : std::strtoull(from_text.c_str(), nullptr, 10);
  const std::string max_text = request.QueryValue("max_bytes");
  uint64_t max_bytes =
      max_text.empty() ? (1 << 20)
                       : std::strtoull(max_text.c_str(), nullptr, 10);
  if (max_bytes == 0 || max_bytes > (4u << 20)) max_bytes = 4u << 20;

  uint64_t wal_next_lsn = 0;
  StatusOr<store::WalExport> page =
      manager_.ExportWalFor(*tenant, from_lsn, max_bytes, &wal_next_lsn);
  if (!page.ok()) return JsonError(page.status());

  // Gap detection: records below `from_lsn` may have been checkpoint-
  // truncated. Either the log's oldest surviving LSN is already above
  // the request, or the log is empty while the live head says records
  // existed — both mean this follower can only restart from the
  // checkpoint.
  const bool truncated_gap =
      (page->oldest_lsn != 0 && page->oldest_lsn > from_lsn) ||
      (page->oldest_lsn == 0 && wal_next_lsn > 0 && from_lsn < wal_next_lsn);
  if (truncated_gap) {
    return {410, "application/json", {},
            "{\"error\":\"LSN " + std::to_string(from_lsn) +
                " was checkpoint-truncated; re-bootstrap from "
                "/replication/checkpoint\"}\n"};
  }

  return {200,
          "application/octet-stream",
          {{"X-Dtdevolve-Next-Lsn", std::to_string(wal_next_lsn)},
           {"X-Dtdevolve-Page-Next-Lsn", std::to_string(page->next_lsn)}},
          std::move(page->bytes)};
}

}  // namespace dtdevolve::server
