#include "server/follower.h"

#include <netdb.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "store/checkpoint.h"
#include "store/wal.h"

namespace dtdevolve::server {

namespace {

/// Percent-encodes a tenant name for a query value.
std::string UrlEncode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                      c == '.' || c == '~';
    if (safe) {
      out += c;
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "%%%02X",
                    static_cast<unsigned char>(c));
      out += buffer;
    }
  }
  return out;
}

Status ParseBaseUrl(const std::string& url, std::string* host,
                    uint16_t* port) {
  std::string rest = url;
  if (rest.rfind("http://", 0) == 0) rest = rest.substr(7);
  if (rest.rfind("https://", 0) == 0) {
    return Status::InvalidArgument("https primaries are not supported: " +
                                   url);
  }
  const size_t slash = rest.find('/');
  if (slash != std::string::npos) rest = rest.substr(0, slash);
  const size_t colon = rest.rfind(':');
  if (colon == std::string::npos) {
    *host = rest;
    *port = 80;
  } else {
    *host = rest.substr(0, colon);
    char* end = nullptr;
    const unsigned long value = std::strtoul(rest.c_str() + colon + 1, &end,
                                             10);
    if (end == nullptr || *end != '\0' || value == 0 || value > 65535) {
      return Status::InvalidArgument("bad port in primary URL: " + url);
    }
    *port = static_cast<uint16_t>(value);
  }
  if (host->empty()) {
    return Status::InvalidArgument("no host in primary URL: " + url);
  }
  return Status::Ok();
}

StatusOr<int> ConnectTo(const std::string& host, uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* results = nullptr;
  const std::string service = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints,
                               &results);
  if (rc != 0) {
    return Status::Unavailable("resolve " + host + ": " + gai_strerror(rc));
  }
  int fd = -1;
  int saved_errno = 0;
  for (struct addrinfo* it = results; it != nullptr; it = it->ai_next) {
    fd = ::socket(it->ai_family, it->ai_socktype, it->ai_protocol);
    if (fd < 0) {
      saved_errno = errno;
      continue;
    }
    if (::connect(fd, it->ai_addr, it->ai_addrlen) == 0) break;
    saved_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(results);
  if (fd < 0) {
    return Status::Unavailable("connect " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(saved_errno));
  }
  return fd;
}

bool SendAll(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

Follower::Follower(FollowerConfig config, SourceManager* manager,
                   obs::Registry* registry)
    : config_(std::move(config)), manager_(manager), registry_(registry) {}

Follower::~Follower() { Stop(); }

Status Follower::Start() {
  DTDEVOLVE_RETURN_IF_ERROR(ParseBaseUrl(config_.url, &host_, &port_));
  for (const std::string& tenant : config_.tenants) {
    TenantState& state = tenants_[tenant];
    const obs::Labels& labels = manager_->MetricLabelsFor(tenant);
    state.lag = &registry_->GetGauge(
        "dtdevolve_replication_lag_lsn",
        "Primary WAL head LSN minus the replica's applied LSN", labels);
    state.applied = &registry_->GetCounter(
        "dtdevolve_replication_records_applied_total",
        "Replicated WAL records applied", labels);
    state.bootstraps = &registry_->GetCounter(
        "dtdevolve_replication_bootstraps_total",
        "Checkpoint bootstraps (initial and after 410 Gone)", labels);
    state.errors = &registry_->GetCounter(
        "dtdevolve_replication_errors_total",
        "Failed replication polls (transport, decode or apply)", labels);
    state.backoff_gauge = &registry_->GetGauge(
        "dtdevolve_replication_backoff_ms",
        "Current error backoff before this tenant's next poll (0 = healthy)",
        labels);
  }
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
  return Status::Ok();
}

void Follower::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  Disconnect();
}

void Follower::Disconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

StatusOr<HttpClientResponse> Follower::Get(const std::string& target) {
  // Keep-alive with one reconnect: a primary restart (or its idle
  // timeout) closes the cached connection, which surfaces as a failed
  // send or read on the next poll — retry once on a fresh socket.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0) {
      StatusOr<int> fd = ConnectTo(host_, port_);
      if (!fd.ok()) return fd.status();
      fd_ = *fd;
    }
    const std::string request = "GET " + target +
                                " HTTP/1.1\r\n"
                                "Host: " +
                                host_ +
                                "\r\n"
                                "Connection: keep-alive\r\n"
                                "\r\n";
    if (!SendAll(fd_, request)) {
      Disconnect();
      continue;
    }
    StatusOr<HttpClientResponse> response = ReadHttpResponse(fd_);
    if (!response.ok()) {
      Disconnect();
      continue;
    }
    return response;
  }
  return Status::Unavailable("primary unreachable: " + host_ + ":" +
                             std::to_string(port_));
}

void Follower::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    lock.unlock();
    bool busy = false;
    for (const std::string& tenant : config_.tenants) {
      {
        std::lock_guard<std::mutex> check(mutex_);
        if (stop_) break;
      }
      TenantState& state = tenants_[tenant];
      // A tenant inside its error backoff window is skipped — an
      // unreachable or corrupted primary is retried on the doubling
      // schedule, not hammered at the poll cadence.
      if (state.backoff.count() > 0 &&
          std::chrono::steady_clock::now() < state.next_attempt) {
        continue;
      }
      busy = SyncTenant(tenant, state) || busy;
    }
    lock.lock();
    if (stop_) return;
    // Catch-up mode: a tenant that filled its page probably has more
    // waiting — poll again without sleeping.
    if (busy) continue;
    cv_.wait_for(lock, config_.poll_interval, [this] { return stop_; });
  }
}

void Follower::NoteSyncError(TenantState& state) {
  state.errors->Increment();
  // Double from the poll cadence up to the cap, then jitter ±25% so
  // replicas that failed together do not retry together.
  const auto base = state.backoff.count() == 0
                        ? config_.poll_interval
                        : std::min(state.backoff * 2, config_.max_backoff);
  const long jitter_span = std::max<long>(1, base.count() / 2);
  const long jittered =
      base.count() - base.count() / 4 +
      static_cast<long>(rng_() % static_cast<unsigned long>(jitter_span));
  state.backoff = std::chrono::milliseconds(jittered);
  state.next_attempt = std::chrono::steady_clock::now() + state.backoff;
  if (state.backoff_gauge != nullptr) {
    state.backoff_gauge->Set(static_cast<double>(state.backoff.count()));
  }
}

void Follower::NoteSyncOk(TenantState& state) {
  if (state.backoff.count() == 0) return;
  state.backoff = std::chrono::milliseconds(0);
  if (state.backoff_gauge != nullptr) state.backoff_gauge->Set(0.0);
}

bool Follower::SyncTenant(const std::string& tenant, TenantState& state) {
  const std::string tenant_query = "tenant=" + UrlEncode(tenant);

  if (!state.bootstrapped) {
    StatusOr<HttpClientResponse> response =
        Get("/replication/checkpoint?" + tenant_query);
    if (!response.ok() || response->status != 200) {
      NoteSyncError(state);
      return false;
    }
    StatusOr<store::CheckpointData> data =
        store::DecodeCheckpointBlob(response->body);
    if (!data.ok()) {
      NoteSyncError(state);
      return false;
    }
    if (!manager_->BootstrapFromCheckpoint(tenant, *data).ok()) {
      NoteSyncError(state);
      return false;
    }
    state.bootstrapped = true;
    state.bootstraps->Increment();
  }

  const uint64_t applied = manager_->AppliedLsnFor(tenant);
  StatusOr<HttpClientResponse> response = Get(
      "/replication/wal?" + tenant_query +
      "&from_lsn=" + std::to_string(applied + 1) +
      "&max_bytes=" + std::to_string(config_.page_bytes));
  if (!response.ok()) {
    NoteSyncError(state);
    return false;
  }
  if (response->status == 410) {
    // The LSN we need was checkpoint-truncated on the primary — the only
    // way forward is the newer checkpoint. The primary did answer, so
    // this is progress, not an error.
    NoteSyncOk(state);
    state.bootstrapped = false;
    return true;
  }
  if (response->status != 200) {
    NoteSyncError(state);
    return false;
  }

  // A disconnect can cut the stream anywhere; DecodeWalStream stops at
  // the first torn frame and the next poll resumes from applied+1.
  size_t consumed = 0;
  const std::vector<store::WalRecord> records =
      store::DecodeWalStream(response->body, &consumed);
  for (const store::WalRecord& record : records) {
    StatusOr<bool> ok =
        manager_->ApplyReplicated(tenant, record.lsn, record.payload);
    if (!ok.ok()) {
      NoteSyncError(state);
      if (ok.status().code() == Status::Code::kFailedPrecondition) {
        // An LSN gap means this lineage can't be extended — start over
        // from the primary's checkpoint.
        state.bootstrapped = false;
      }
      return false;
    }
    if (*ok) state.applied->Increment();
  }

  NoteSyncOk(state);

  // Lag against the primary's live head, from the page header.
  const std::string* next_header = response->FindHeader("x-dtdevolve-next-lsn");
  if (next_header != nullptr && !next_header->empty()) {
    const uint64_t next = std::strtoull(next_header->c_str(), nullptr, 10);
    const uint64_t now_applied = manager_->AppliedLsnFor(tenant);
    const uint64_t head = next > 0 ? next - 1 : 0;
    state.lag->Set(head > now_applied
                       ? static_cast<double>(head - now_applied)
                       : 0.0);
  }
  return !response->body.empty();
}

}  // namespace dtdevolve::server
