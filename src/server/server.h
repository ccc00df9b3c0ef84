#ifndef DTDEVOLVE_SERVER_SERVER_H_
#define DTDEVOLVE_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/source.h"
#include "obs/metrics.h"
#include "server/follower.h"
#include "server/http.h"
#include "server/source_manager.h"
#include "store/checkpoint.h"
#include "store/wal.h"
#include "util/status.h"

namespace dtdevolve::server {

struct ServerOptions {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back with
  /// `port()` after `Start`).
  uint16_t port = 8080;
  /// Tenant shard names (see SourceManagerOptions::tenants). Empty runs
  /// one shard named "default", which keeps the unlabeled metrics and
  /// the no-tenant `/stats` and `/dtds` shapes.
  std::vector<std::string> tenants;
  /// Scoring threads; one `util::ThreadPool` is shared across every
  /// tenant shard for the server's lifetime.
  size_t jobs = 1;
  /// Pending ingest documents per shard before `POST /ingest` answers
  /// 503 with a `Retry-After` header — the backpressure bound.
  size_t queue_capacity = 256;
  /// Most documents drained into one `ProcessBatch` round per shard.
  size_t batch_max = 64;
  /// Largest accepted request body.
  size_t max_body_bytes = 4 * 1024 * 1024;
  /// Advertised on 503 responses.
  int retry_after_seconds = 1;

  // --- Admission control (event-loop overload guards; 0 disables each) -----

  /// Connections multiplexed at once. An accept over the cap is answered
  /// an immediate 503 + `Retry-After` and closed — it never joins the
  /// event loop, so a connection flood cannot starve established
  /// clients.
  size_t max_connections = 0;
  /// Pipelined requests answered per connection per read pass. A client
  /// that stuffs more requests than this into one burst gets a 503 for
  /// the overflow request and the connection is closed after the flush.
  size_t max_pipeline_depth = 0;

  // --- Per-tenant quotas (SourceManagerOptions; 0 disables each) -----------

  /// Process-wide default ingest rate (documents/second, token bucket)
  /// per tenant shard; over-rate ingests answer 429 + `Retry-After`.
  double tenant_rate = 0.0;
  /// Token-bucket burst capacity; defaults to max(1, tenant_rate).
  double tenant_burst = 0.0;
  /// Largest accepted ingest document per tenant — enforced *before*
  /// the XML parse (413), so an oversized body costs no parser time.
  size_t max_doc_bytes = 0;
  /// Bound on each shard's unclassified-document repository; enforced
  /// after every batch under `repository_policy`, WAL-logged so
  /// recovery replays to the identical bounded state.
  size_t max_repository_docs = 0;
  RepositoryQuotaPolicy repository_policy = RepositoryQuotaPolicy::kEvictOldest;
  /// Per-tenant overrides of the four defaults above (negative fields
  /// inherit).
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Cadence of the degraded-shard recovery probe (a real WAL append
  /// that replays as a no-op); zero disables probing.
  std::chrono::milliseconds health_probe_interval{200};
  // --- Crash durability (store/wal.h, store/checkpoint.h) -----------------

  /// Directory for the write-ahead logs and their checkpoints — one
  /// independent lineage per tenant shard, in `<wal_dir>/<tenant>/`
  /// (`SourceManager::WalDirFor`). Empty disables persistence. When
  /// set, every accepted `/ingest` body is written to its shard's log
  /// and committed by the shard's worker — under `fsync_policy ==
  /// kAlways`, fsynced, one fsync per group of queued documents —
  /// *before* the 202/200 ack, so an acked document survives a crash;
  /// `Start` then recovers each shard's checkpoint plus WAL tail,
  /// induced DTDs included. With `fsync_policy == kNone` an ack costs no
  /// fsync, and the graceful stop still fsyncs the log and checkpoints.
  /// A write or fsync failure (e.g. disk full) answers 503 with
  /// `Retry-After` — to every document of a failed fsync's group — and
  /// raises the `dtdevolve_degraded` gauge until a commit succeeds
  /// again. A corrupt checkpoint fails `Start` with an error naming the
  /// DTD.
  std::string wal_dir;
  store::FsyncPolicy fsync_policy = store::FsyncPolicy::kAlways;
  /// Fsync cadence under `FsyncPolicy::kInterval`.
  std::chrono::milliseconds fsync_interval{100};
  /// WAL segment rotation threshold.
  uint64_t wal_segment_bytes = 8 * 1024 * 1024;
  /// Cadence of the periodic checkpoint thread (snapshot each shard's
  /// pipeline state, then truncate its WAL through the checkpointed
  /// LSN). Zero disables the thread; a final checkpoint still runs on
  /// graceful stop unless `checkpoint_on_shutdown` is off.
  std::chrono::milliseconds checkpoint_interval{30000};
  /// Disable to make a graceful stop leave only WAL state behind —
  /// recovery then has to replay the log, which is how crash-recovery
  /// tests exercise the replay path deterministically.
  bool checkpoint_on_shutdown = true;

  /// When > 0, a shard whose repository reaches this many unclassified
  /// documents automatically runs candidate induction after the batch
  /// that crossed the threshold (proposals only — accepting a candidate
  /// stays an explicit `POST /dtds/candidates/{id}/accept`). Zero
  /// disables auto-induction.
  size_t auto_induce_threshold = 0;

  // --- Connection timeouts (event loop deadlines; 0 disables each) --------

  /// A connection that started a request (partial header or body bytes
  /// received) but stalls this long is closed — the slow-loris guard.
  int recv_timeout_seconds = 10;
  /// A connection with unflushed response bytes that accepts none of
  /// them for this long is closed.
  int send_timeout_seconds = 10;
  /// A keep-alive connection sitting idle between requests this long is
  /// closed.
  int idle_timeout_seconds = 60;

  // --- Replication (read replicas) ----------------------------------------

  /// Non-empty runs this server as a read-only follower of the primary
  /// at this URL ("http://host:port" or "host:port"): it bootstraps
  /// every tenant from the primary's latest checkpoint, then streams
  /// and applies WAL records. Writes answer 403; `wal_dir` is ignored
  /// (the replica owns no durable state — the primary does).
  std::string follow_url;
  /// Poll cadence of the follower when it is caught up (a follower with
  /// a full page in hand polls again immediately).
  std::chrono::milliseconds follow_poll_interval{500};
};

/// The networked front of Fig. 1: a long-running HTTP/1.1 server (plain
/// POSIX sockets, no external dependencies) over a `SourceManager` of
/// per-tenant `XmlSource` shards, driving the classify → record → check
/// → evolve loop over documents that arrive on the wire.
///
/// Endpoints:
///   POST /ingest            body = one XML document. Parsed on the
///                           event thread, routed to a shard, then
///                           queued; that shard's ingest worker drains
///                           its queue in batches through `ProcessBatch`
///                           on the shared pool. Replies 202 once
///                           queued and (with a WAL) committed, or —
///                           with `?wait=1` — 200 with the JSON outcome
///                           after the document was applied (the
///                           connection is parked, never a thread). 400
///                           on parse errors, 404 for unknown tenants,
///                           503 + Retry-After when the shard's queue is
///                           full or its WAL write or commit failed.
///   POST /ingest/{tenant}   same, routed to the named tenant. The
///                           `?tenant=` query is an equivalent spelling
///                           on the bare path. Anonymous traffic goes
///                           to the single shard, the shard named
///                           "default", or (multi-tenant, no default) a
///                           consistent-hash shard of the root tag.
///   GET /tenants            JSON list of tenant shard names.
///   GET /dtds[?tenant=]     JSON list of registered DTD names — one
///                           tenant's, or every tenant's keyed by name.
///   GET /dtds/{name}        the current (possibly evolved)
///                           declarations, as DTD text (`?tenant=`
///                           selects the shard).
///   POST /dtds/induce       clusters the tenant's repository and
///                           induces one candidate DTD per cluster;
///                           answers the number of pending candidates.
///   GET /dtds/candidates    JSON list of pending candidates (id, name,
///                           membership, coverage, margin, DTD text).
///   POST /dtds/candidates/{id}/accept
///                           promotes the candidate into the live set
///                           (WAL-logged in LSN order), re-classifies
///                           the repository against it, and retires the
///                           other pending candidates.
///   POST /dtds/candidates/{id}/reject
///                           drops one pending candidate.
///   GET /stats[?tenant=]    JSON: per-DTD document counts and
///                           divergence, repository size, evolution
///                           count — per tenant, plus aggregate totals
///                           and a per-tenant rollup when multi-tenant.
///   GET /metrics            Prometheus text exposition (per-shard
///                           series carry a {tenant="..."} label, except
///                           on a lone "default" shard).
///   GET /healthz            200 "ok".
///   GET /replication/checkpoint?tenant=
///                           the tenant's latest durable checkpoint as
///                           one blob (follower bootstrap). Primary
///                           only.
///   GET /replication/wal?tenant=&from_lsn=N[&max_bytes=M]
///                           raw durable WAL frames with `lsn >= N`, cut
///                           at a frame boundary; `X-Dtdevolve-Next-Lsn`
///                           carries the durable log head. 410 Gone when
///                           `N` was checkpoint-truncated — the
///                           follower re-bootstraps. Primary only.
///
/// Connection model: ONE event thread multiplexes every connection over
/// epoll — non-blocking sockets, per-connection input/output buffers,
/// HTTP/1.1 keep-alive with pipelining (requests are parsed back to
/// back out of the input buffer and answered strictly in order).
/// Ingests never block the loop, which never fsyncs: the connection
/// parks on the shard's `IngestWaiter` callback and the worker's
/// completion (after the group commit, or after the apply for
/// `?wait=1`) is ferried back over a wake pipe. Accepted sockets set
/// `TCP_NODELAY` so a pipelined answer is not held by Nagle. Slow or idle peers are closed on the
/// `*_timeout_seconds` deadlines.
///
/// Lifecycle: `AddDtdText` seeds every shard (`AddTenantDtdText` one),
/// `Start` binds/recovers/spawns, `Shutdown` (async-signal-safe — wire
/// it to SIGINT/SIGTERM) requests a graceful stop, `Wait` blocks until
/// the stop completed: the listener closes, idle keep-alive connections
/// are dropped, connections with a response in flight (including parked
/// `?wait=1` requests and already-pipelined requests) are served to
/// completion, every queue drains through the loop, and every shard's
/// WAL is fsynced and checkpointed. A failed `Start` cleans up after
/// itself fully (no leaked fds, no half-recovered shards) and may be
/// retried.
///
/// Threading: the event thread only parses, enqueues and serializes;
/// each shard's single ingest worker is the only writer of that shard's
/// `XmlSource`. Read endpoints take the same per-shard state mutex the
/// worker holds while applying a batch, so scrapes see consistent
/// state.
class IngestServer {
 public:
  IngestServer(core::SourceOptions source_options, ServerOptions options);
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Registers a seed DTD on every tenant shard. Call before `Start`.
  Status AddDtdText(const std::string& name, std::string_view dtd_text);
  /// Registers a seed DTD on one tenant shard only.
  Status AddTenantDtdText(const std::string& tenant, const std::string& name,
                          std::string_view dtd_text);

  /// Binds and listens, then recovers/restores every shard (wiring the
  /// metrics), and spawns the event loop, the shard workers and — in
  /// follower mode — the replication thread. On any failure every fd
  /// and thread acquired so far is released, so a failed `Start` can
  /// simply be retried.
  Status Start();

  /// The bound port (useful with `options.port == 0`).
  uint16_t port() const { return port_; }

  /// Requests a graceful stop. Async-signal-safe (a single `write` to a
  /// self-pipe) and idempotent.
  void Shutdown();

  /// Blocks until the graceful stop finished. Returns immediately when
  /// `Start` never ran.
  void Wait();

  /// Pauses / resumes every shard's ingest worker between batches
  /// (documents keep queueing until a queue is full — useful for
  /// maintenance and for exercising backpressure deterministically). A
  /// shutdown overrides a pause so draining always completes.
  void PauseIngest();
  void ResumeIngest();

  /// Checkpoints every shard at its last applied LSN and truncates its
  /// WAL through it. No-op without a WAL. `captured_lsn` (optional)
  /// receives the LSN the checkpoint actually captured — meaningful
  /// with one shard. Called by the periodic checkpoint thread and
  /// by the graceful stop.
  Status CheckpointNow(uint64_t* captured_lsn = nullptr);

  /// What boot-time recovery found (checkpoint LSN, records replayed,
  /// torn-tail warning) for one tenant; empty = the first shard.
  /// Meaningful after `Start` with a `wal_dir`.
  const store::RecoveryReport& recovery_report(
      const std::string& tenant = "") const {
    return manager_.recovery_report(tenant);
  }

  /// Non-fatal boot findings (torn WAL tails)
  /// across every shard — the operator-visible "warn" half of
  /// warn-and-continue.
  const std::vector<std::string>& boot_warnings() const {
    return manager_.boot_warnings();
  }

  obs::Registry& metrics() { return registry_; }

  /// The shard manager, for tests and tools that inspect per-tenant
  /// state directly.
  SourceManager& manager() { return manager_; }
  const SourceManager& manager() const { return manager_; }

  /// A shard's source (empty = the first shard). Only safe while the
  /// server is not running (before `Start` or after `Wait`); running
  /// servers serve state over HTTP instead.
  const core::XmlSource& source(const std::string& tenant = "") const {
    return *manager_.source(tenant);
  }

 private:
  /// One multiplexed connection. Owned (and touched) exclusively by the
  /// event thread; worker threads reach a connection only through the
  /// completion queue.
  struct Connection {
    int fd = -1;
    /// Generation id — completions carry (fd, id) so one landing after
    /// this connection closed and the fd was reused is dropped instead
    /// of answering a stranger.
    uint64_t id = 0;
    std::string in;   // unparsed request bytes
    std::string out;  // serialized, unflushed response bytes
    /// Head request is parked on an `IngestWaiter` (`?wait=1`); parsing
    /// stops so later pipelined requests are answered in order.
    bool waiting_apply = false;
    bool close_after_flush = false;
    bool saw_eof = false;    // client half-closed; flush then close
    uint32_t events = 0;     // current epoll interest mask
    std::chrono::steady_clock::time_point last_activity;
  };

  /// A finished `?wait=1` outcome, ferried worker → event thread.
  struct WaitCompletion {
    int fd = -1;
    uint64_t conn_id = 0;
    bool keep_alive = false;
    HttpResponse response;
  };

  /// Either a ready response or "parked on an ingest waiter".
  struct RouteResult {
    bool async = false;
    HttpResponse response;
  };

  void EventLoop();
  void AcceptReady();
  /// 503 + `Retry-After` written straight to a just-accepted socket that
  /// will not join the loop (connection cap), then close.
  void RejectConnection(int fd);
  /// Deregisters the listener from epoll for a short, timed backoff —
  /// the fd-exhaustion path. Level-triggered epoll would otherwise spin
  /// on a listener whose accepts can only fail.
  void DisarmListener();
  /// Re-registers the listener once the backoff elapsed.
  void RearmListenerIfDue();
  void StartDrain();
  /// Read until EAGAIN, then parse/dispatch/flush. Every return path
  /// except "connection closed" leaves the epoll mask in sync.
  void HandleReadable(Connection* conn);
  /// Parses every complete request out of `in` (stopping at a parked
  /// `?wait=1`), appends responses in order.
  void ProcessInput(Connection* conn);
  /// Writes `out` until EAGAIN; returns false when the connection was
  /// closed (error, `close_after_flush` done, or half-closed and idle).
  bool FlushOut(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CloseConn(Connection* conn);
  void DrainCompletions();
  void PushCompletion(WaitCompletion completion);
  /// Epoll wait budget: min remaining connection deadline, clamped.
  int TimeoutBudgetMs() const;
  void CloseExpiredConns();

  /// `keep_alive` is the parsed request's verdict — an async completion
  /// must echo it (a `Connection: close` `?wait=1` still closes).
  RouteResult Route(const HttpRequest& request, int fd, uint64_t conn_id,
                    bool keep_alive);
  RouteResult HandleIngest(const HttpRequest& request, int fd,
                           uint64_t conn_id, bool keep_alive);
  HttpResponse HandleTenants();
  HttpResponse HandleDtds(const HttpRequest& request);
  HttpResponse HandleInduce(const HttpRequest& request);
  HttpResponse HandleCandidates(const HttpRequest& request);
  HttpResponse HandleStats(const HttpRequest& request);
  /// `/healthz?ready=1`: 200 only when every shard is `ok` and the event
  /// loop has connection headroom; otherwise 503 with a JSON breakdown.
  HttpResponse HandleReady();
  HttpResponse HandleReplicationCheckpoint(const HttpRequest& request);
  HttpResponse HandleReplicationWal(const HttpRequest& request);
  void CountRequest(const std::string& path, int status);

  /// Closes the listener, epoll and wake-pipe fds (if open) — the
  /// error-path unwind of `Start` and the tail of `Wait`.
  void CloseSockets();

  ServerOptions options_;
  obs::Registry registry_;
  SourceManager manager_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> shutdown_requested_{false};

  std::thread event_thread_;
  /// Event-thread state (no locks — single owner).
  std::map<int, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 0;
  bool draining_ = false;
  /// Listener backoff after EMFILE/ENFILE: deregistered until the
  /// deadline, then re-armed (folded into the epoll wait budget).
  bool listener_armed_ = true;
  std::chrono::steady_clock::time_point listener_rearm_at_;

  std::mutex completion_mutex_;
  std::vector<WaitCompletion> completions_;

  std::unique_ptr<Follower> follower_;

  // Connection metric handles (wired in Start).
  obs::Counter* conns_accepted_ = nullptr;
  obs::Counter* conns_timed_out_ = nullptr;
  obs::Counter* conns_rejected_ = nullptr;
  obs::Counter* accept_stalls_ = nullptr;
  obs::Gauge* conns_open_ = nullptr;
};

}  // namespace dtdevolve::server

#endif  // DTDEVOLVE_SERVER_SERVER_H_
