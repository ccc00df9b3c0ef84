#include "server/source_manager.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "dtd/dtd_writer.h"
#include "io/file.h"
#include "store/evict_record.h"
#include "store/induce_record.h"
#include "util/crc32.h"

namespace dtdevolve::server {

namespace {

/// Virtual points per shard on the consistent-hash ring: enough that
/// adding or removing a tenant moves only ~1/N of the anonymous key
/// space, small enough that ring construction stays trivial.
constexpr int kRingPointsPerShard = 64;

bool IsSafeComponentChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
}

/// True when `dir` holds a checkpoint meta or WAL segment file directly,
/// instead of in per-shard subdirectories.
bool HasTopLevelWalFiles(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name == "checkpoint.meta" ||
        (name.starts_with("wal-") && name.ends_with(".log"))) {
      return true;
    }
  }
  return false;
}

/// Records per fsync: powers of two from 1 to 1024.
std::vector<double> CommitDocsBounds() {
  std::vector<double> bounds;
  for (double docs = 1; docs <= 1024; docs *= 2) bounds.push_back(docs);
  return bounds;
}

/// 1-2-5 steps from 1 µs to 10 s, shared by the histograms whose
/// samples fall well under the 100 µs floor of `DefaultLatencyBounds`:
/// an fsync on a fast disk, and the scoring of one document (about
/// 10 µs on a memo miss).
std::vector<double> MicrosecondLatencyBounds() {
  std::vector<double> bounds;
  for (double decade = 1e-6; decade < 10; decade *= 10) {
    for (double step : {1.0, 2.0, 5.0}) bounds.push_back(decade * step);
  }
  bounds.push_back(10.0);
  return bounds;
}

/// Moves the documents with an LSN above `durable` out of `docs` (an LSN-
/// ordered batch or queue, so they are its tail).
template <typename Docs>
std::vector<typename Docs::value_type> TakeAbove(Docs& docs,
                                                 uint64_t durable) {
  auto first = std::find_if(docs.begin(), docs.end(),
                            [durable](const auto& doc) {
                              return doc.lsn > durable;
                            });
  std::vector<typename Docs::value_type> taken(
      std::make_move_iterator(first), std::make_move_iterator(docs.end()));
  docs.erase(first, docs.end());
  return taken;
}

/// Publishes a waiter's completion and runs its callback outside the
/// lock: the callback typically re-enters the server (completion queue
/// + wake pipe) and must not hold the mutex a blocked `cv` waiter also
/// needs.
void CompleteWaiter(SourceManager::IngestWaiter& waiter) {
  std::function<void()> on_done;
  {
    std::lock_guard<std::mutex> lock(waiter.mutex);
    waiter.done = true;
    on_done = std::move(waiter.on_done);
    waiter.cv.notify_all();
  }
  if (on_done) on_done();
}

/// Wires a process-wide LRU's traffic to `<name>_{hits,misses,evictions}
/// _total` and returns its `<name>_bytes` gauge; a null `lru` (the layer
/// is off or borrowed) is skipped and gets no gauge.
template <typename Lru>
obs::Gauge* InstallLruMetrics(obs::Registry* registry, Lru* lru,
                              const std::string& name,
                              const std::string& help) {
  if (lru == nullptr) return nullptr;
  lru->set_metrics(
      &registry->GetCounter(name + "_hits_total", help + " hits"),
      &registry->GetCounter(name + "_misses_total", help + " misses"),
      &registry->GetCounter(name + "_evictions_total",
                            help + " LRU evictions"));
  return &registry->GetGauge(name + "_bytes",
                             help + " bytes held (summed entry costs)");
}

}  // namespace

std::string SafeFileComponent(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  bool changed = name.empty();
  for (char c : name) {
    if (IsSafeComponentChar(c)) {
      out += c;
    } else {
      out += '_';
      changed = true;
    }
  }
  if (out.empty()) out = "_";
  if (changed) {
    // Flattening is lossy ("a/b" and "a_b" both read "a_b"), so any
    // changed name carries a fingerprint of the original to keep
    // distinct names distinct on disk.
    char suffix[16];
    std::snprintf(suffix, sizeof(suffix), "-%08x",
                  util::Crc32(name.data(), name.size()));
    out += suffix;
  }
  return out;
}

const char* ShardHealthName(ShardHealth health) {
  switch (health) {
    case ShardHealth::kOk:
      return "ok";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kReadOnly:
      return "read_only";
  }
  return "unknown";
}

SourceManager::SourceManager(core::SourceOptions source_options,
                             SourceManagerOptions options)
    : source_options_(std::move(source_options)),
      options_(std::move(options)) {
  if (options_.jobs == 0) options_.jobs = util::ThreadPool::DefaultJobs();
  if (options_.batch_max == 0) options_.batch_max = 1;
  if (options_.tenants.empty()) options_.tenants = {"default"};
  // A lone "default" shard keeps the unlabeled series single-tenant
  // servers have always exported; storage and routing never look at it.
  const bool unlabeled =
      options_.tenants.size() == 1 && options_.tenants[0] == "default";

  // One score cache and one classification memo for the whole process:
  // cache entries are keyed by evaluator epoch and memo entries by
  // classifier set-epoch, both globally unique, so shards can never read
  // each other's scores or replay each other's outcomes, while each
  // memory budget is shared instead of multiplied by the tenant count.
  classify::ClassifierOptions& classifier = source_options_.classifier;
  classifier.shared_cache = similarity::SubtreeScoreCache::OwnOrShare(
      classifier.score_cache_bytes, classifier.shared_cache, &shared_cache_);
  classifier.shared_memo = classify::ClassificationMemo::OwnOrShare(
      classifier.classification_memo_bytes, classifier.shared_memo,
      &shared_memo_);

  for (const std::string& tenant : options_.tenants) {
    if (tenant.empty() || by_name_.count(tenant) != 0) continue;
    auto shard = std::make_unique<Shard>(source_options_);
    shard->name = tenant;
    shard->dir_component = SafeFileComponent(tenant);
    if (!unlabeled) shard->labels = {{"tenant", tenant}};
    // Resolve the shard's quota once: named override over process
    // default, negative override fields inheriting.
    TenantQuota quota;
    const auto quota_it = options_.tenant_quotas.find(tenant);
    if (quota_it != options_.tenant_quotas.end()) quota = quota_it->second;
    shard->rate_limit = quota.rate >= 0 ? quota.rate : options_.tenant_rate;
    shard->bucket_capacity =
        quota.burst >= 0 ? quota.burst : options_.tenant_burst;
    if (shard->rate_limit > 0 && shard->bucket_capacity <= 0) {
      shard->bucket_capacity = std::max(1.0, shard->rate_limit);
    }
    shard->tokens = shard->bucket_capacity;
    shard->max_doc_bytes = quota.max_doc_bytes >= 0
                               ? static_cast<size_t>(quota.max_doc_bytes)
                               : options_.max_doc_bytes;
    shard->max_repository_docs =
        quota.max_repository_docs >= 0
            ? static_cast<size_t>(quota.max_repository_docs)
            : options_.max_repository_docs;
    by_name_[tenant] = shard.get();
    if (tenant == "default") default_shard_ = shard.get();
    shards_.push_back(std::move(shard));
  }

  for (const auto& shard : shards_) {
    for (int i = 0; i < kRingPointsPerShard; ++i) {
      const std::string point = shard->name + "#" + std::to_string(i);
      ring_.emplace_back(util::Crc32(point.data(), point.size()),
                         shard.get());
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second->name < b.second->name;
            });
}

SourceManager::~SourceManager() { Drain(); }

Status SourceManager::AddDtdText(const std::string& name,
                                 std::string_view dtd_text) {
  for (const auto& shard : shards_) {
    DTDEVOLVE_RETURN_IF_ERROR(shard->source->AddDtdText(name, dtd_text));
    shard->seed_dtds.emplace_back(name, std::string(dtd_text));
  }
  return Status::Ok();
}

Status SourceManager::AddTenantDtdText(const std::string& tenant,
                                       const std::string& name,
                                       std::string_view dtd_text) {
  Shard* shard = FindShard(tenant);
  if (shard == nullptr) {
    return Status::NotFound("unknown tenant '" + tenant + "'");
  }
  DTDEVOLVE_RETURN_IF_ERROR(shard->source->AddDtdText(name, dtd_text));
  shard->seed_dtds.emplace_back(name, std::string(dtd_text));
  return Status::Ok();
}

SourceManager::Shard* SourceManager::FindShard(const std::string& tenant) {
  auto it = by_name_.find(tenant);
  return it == by_name_.end() ? nullptr : it->second;
}

const SourceManager::Shard* SourceManager::FindShard(
    const std::string& tenant) const {
  auto it = by_name_.find(tenant);
  return it == by_name_.end() ? nullptr : it->second;
}

const SourceManager::Shard* SourceManager::ResolveReadShard(
    const std::string& tenant) const {
  if (!tenant.empty()) return FindShard(tenant);
  if (shards_.size() == 1) return shards_[0].get();
  return default_shard_;
}

SourceManager::Shard* SourceManager::ResolveWriteShard(
    const std::string& tenant) {
  if (!tenant.empty()) return FindShard(tenant);
  if (shards_.size() == 1) return shards_[0].get();
  return default_shard_;
}

Status SourceManager::UnresolvedTenantError(const std::string& tenant) {
  if (tenant.empty()) {
    return Status::InvalidArgument("tenant required (multi-tenant server)");
  }
  return Status::NotFound("unknown tenant '" + tenant + "'");
}

SourceManager::Shard* SourceManager::RouteIngest(const std::string& tenant,
                                                 std::string_view root_tag) {
  if (!tenant.empty()) return FindShard(tenant);
  if (shards_.size() == 1) return shards_[0].get();
  if (default_shard_ != nullptr) return default_shard_;
  // Anonymous traffic across tenants with no "default": consistent-hash
  // the root element tag, so one document population keeps landing on
  // one shard even as the tenant set changes.
  const uint32_t hash = util::Crc32(root_tag.data(), root_tag.size());
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), hash,
      [](const auto& entry, uint32_t value) { return entry.first < value; });
  if (it == ring_.end()) it = ring_.begin();
  return it->second;
}

std::string SourceManager::WalDirFor(const std::string& tenant) const {
  const Shard* shard = ResolveReadShard(tenant);
  return shard == nullptr ? "" : WalDirFor(*shard);
}

std::string SourceManager::WalDirFor(const Shard& shard) const {
  if (options_.wal_dir.empty()) return "";
  return options_.wal_dir + "/" + shard.dir_component;
}

const obs::Labels& SourceManager::MetricLabelsFor(
    const std::string& tenant) const {
  static const obs::Labels kNone;
  const Shard* shard = FindShard(tenant);
  return shard == nullptr ? kNone : shard->labels;
}

void SourceManager::WireShardMetrics(Shard& shard, obs::Registry* registry) {
  if (shard.metrics_wired) return;
  shard.metrics_wired = true;
  const obs::Labels& labels = shard.labels;

  core::SourceMetrics metrics;
  metrics.documents_processed = &registry->GetCounter(
      "dtdevolve_documents_processed_total", "Documents fed into the loop",
      labels);
  metrics.documents_classified = &registry->GetCounter(
      "dtdevolve_documents_classified_total",
      "Documents classified into some DTD", labels);
  metrics.documents_unclassified = &registry->GetCounter(
      "dtdevolve_documents_unclassified_total",
      "Documents left to the repository", labels);
  metrics.documents_reclassified = &registry->GetCounter(
      "dtdevolve_documents_reclassified_total",
      "Repository documents recovered after evolutions", labels);
  metrics.trigger_checks = &registry->GetCounter(
      "dtdevolve_trigger_checks_total",
      "Evolution trigger (tau or rule) evaluations", labels);
  metrics.evolutions = &registry->GetCounter(
      "dtdevolve_evolutions_total", "DTD evolutions fired", labels);
  metrics.documents_scored = &registry->GetCounter(
      "dtdevolve_documents_scored_total",
      "Documents scored against the DTD set", labels);
  metrics.similarity_evaluations = &registry->GetCounter(
      "dtdevolve_similarity_evaluations_total",
      "Document x DTD similarity evaluations", labels);
  metrics.evaluations_pruned = &registry->GetCounter(
      "dtdevolve_classify_pruned_total",
      "Document x DTD evaluations skipped by the score upper bound", labels);
  metrics.score_seconds = &registry->GetHistogram(
      "dtdevolve_score_seconds",
      "Wall-clock seconds scoring one document against the full DTD set",
      MicrosecondLatencyBounds(), labels);
  metrics.documents_recorded = &registry->GetCounter(
      "dtdevolve_documents_recorded_total",
      "Documents recorded into extended DTDs", labels);
  metrics.elements_recorded = &registry->GetCounter(
      "dtdevolve_elements_recorded_total",
      "Element instances recorded into extended DTDs", labels);
  metrics.candidates_proposed = &registry->GetCounter(
      "dtdevolve_candidates_proposed_total",
      "Candidate DTDs induced from repository clusters", labels);
  metrics.candidates_accepted = &registry->GetCounter(
      "dtdevolve_candidates_accepted_total",
      "Candidate DTDs promoted into the live set", labels);
  metrics.candidates_rejected = &registry->GetCounter(
      "dtdevolve_candidates_rejected_total",
      "Candidate DTDs rejected by the operator", labels);
  shard.source_metrics = metrics;
  shard.source->set_metrics(metrics);

  shard.requests_rejected = &registry->GetCounter(
      "dtdevolve_ingest_rejected_total",
      "Ingest requests rejected with 503 (queue full)", labels);
  shard.rate_limited = &registry->GetCounter(
      "dtdevolve_ingest_rate_limited_total",
      "Ingest requests rejected with 429 (token bucket empty)", labels);
  shard.doc_too_large = &registry->GetCounter(
      "dtdevolve_ingest_doc_too_large_total",
      "Ingest requests rejected with 413 (body over the document-size "
      "quota)",
      labels);
  shard.evictions = &registry->GetCounter(
      "dtdevolve_repository_evictions_total",
      "Repository documents evicted to enforce the repository quota",
      labels);
  shard.read_only_rejected = &registry->GetCounter(
      "dtdevolve_ingest_read_only_rejected_total",
      "Ingest requests rejected while the shard was read-only", labels);
  shard.queue_depth = &registry->GetGauge(
      "dtdevolve_ingest_queue_depth",
      "Documents waiting in the ingest queue", labels);
  shard.ingest_seconds = &registry->GetHistogram(
      "dtdevolve_ingest_seconds",
      "Seconds from enqueue to applied, per document",
      obs::Histogram::DefaultLatencyBounds(), labels);
  shard.batch_seconds = &registry->GetHistogram(
      "dtdevolve_ingest_batch_seconds",
      "Seconds spent in one ProcessBatch round",
      obs::Histogram::DefaultLatencyBounds(), labels);
  shard.degraded = &registry->GetGauge(
      "dtdevolve_degraded",
      "1 while ingest is rejected because the write-ahead log cannot be "
      "written (e.g. disk full), 0 otherwise",
      labels);
  shard.checkpoints = &registry->GetCounter(
      "dtdevolve_checkpoints_total", "Checkpoints written successfully",
      labels);
  shard.checkpoint_errors = &registry->GetCounter(
      "dtdevolve_checkpoint_errors_total", "Checkpoint attempts that failed",
      labels);
  shard.checkpoint_lsn_gauge = &registry->GetGauge(
      "dtdevolve_checkpoint_lsn", "LSN of the last durable checkpoint",
      labels);
}

Status SourceManager::StartShard(Shard& shard, obs::Registry* registry) {
  WireShardMetrics(shard, registry);
  // Recovery runs exactly once per shard — a retried Start must not
  // replay the WAL tail onto the already-recovered source.
  if (options_.wal_dir.empty() || shard.recovered) return Status::Ok();

  store::WalOptions wal_options;
  wal_options.dir = WalDirFor(shard);
  wal_options.fsync_policy = options_.fsync_policy;
  wal_options.fsync_interval = options_.fsync_interval;
  wal_options.segment_bytes = options_.wal_segment_bytes;
  shard.recovery_report = {};
  StatusOr<std::unique_ptr<store::Wal>> wal = store::RecoverSource(
      *shard.source, wal_options, &shard.recovery_report);
  if (!wal.ok()) return wal.status();
  shard.wal = std::move(*wal);
  shard.recovered = true;

  const obs::Labels& labels = shard.labels;
  store::WalMetrics wal_metrics;
  wal_metrics.appends = &registry->GetCounter(
      "dtdevolve_wal_appends_total", "WAL records appended", labels);
  wal_metrics.append_bytes = &registry->GetCounter(
      "dtdevolve_wal_append_bytes_total", "WAL bytes appended", labels);
  wal_metrics.append_errors = &registry->GetCounter(
      "dtdevolve_wal_append_errors_total", "WAL appends that failed", labels);
  wal_metrics.fsyncs = &registry->GetCounter(
      "dtdevolve_wal_fsyncs_total", "WAL fsync calls", labels);
  wal_metrics.commit_docs = &registry->GetHistogram(
      "dtdevolve_wal_commit_docs",
      "WAL records made durable by one group-commit fsync",
      CommitDocsBounds(), labels);
  wal_metrics.sync_seconds = &registry->GetHistogram(
      "dtdevolve_wal_sync_seconds",
      "Seconds one group commit spent in fsync", MicrosecondLatencyBounds(),
      labels);
  wal_metrics.rotations = &registry->GetCounter(
      "dtdevolve_wal_rotations_total", "WAL segment rotations", labels);
  wal_metrics.truncated_segments = &registry->GetCounter(
      "dtdevolve_wal_truncated_segments_total",
      "WAL segments dropped by checkpoint truncation", labels);
  shard.wal->set_metrics(wal_metrics);
  registry
      ->GetCounter("dtdevolve_wal_replayed_records_total",
                   "WAL records replayed during boot recovery", labels)
      .Increment(shard.recovery_report.replayed_records);
  shard.applied_lsn = shard.recovery_report.last_applied_lsn;
  shard.last_checkpoint_lsn = shard.recovery_report.checkpoint_lsn;
  shard.checkpoint_lsn_gauge->Set(
      static_cast<double>(shard.recovery_report.checkpoint_lsn));
  if (!shard.recovery_report.warning.empty()) {
    boot_warnings_.push_back("tenant " + shard.name + ": " +
                             shard.recovery_report.warning);
  }
  return Status::Ok();
}

Status SourceManager::Start(obs::Registry* registry) {
  if (started_) {
    return Status::FailedPrecondition("source manager already started");
  }

  if (!options_.wal_dir.empty()) {
    // Booting over the old layout would start an empty shard next to
    // the acked state and silently drop it.
    if (HasTopLevelWalFiles(options_.wal_dir)) {
      return Status::FailedPrecondition(
          "WAL directory " + options_.wal_dir +
          " holds checkpoint.meta or wal-*.log files at its top level, the "
          "layout of older single-tenant servers; move them into " +
          options_.wal_dir + "/default/ and restart");
    }
    // Per-shard WAL subdirectories hang off the root; Wal::Open creates
    // the leaf itself.
    DTDEVOLVE_RETURN_IF_ERROR(io::CreateDir(options_.wal_dir));
  }

  registry
      ->GetGauge("dtdevolve_ingest_queue_capacity",
                 "Configured ingest queue bound")
      .Set(static_cast<double>(options_.queue_capacity));
  registry
      ->GetGauge("dtdevolve_tenants", "Number of tenant shards")
      .Set(static_cast<double>(shards_.size()));
  // The cache and the memo are process-wide, so their traffic counters
  // and size gauges are global — wired once here, never per shard (see
  // Classifier::set_metrics).
  score_cache_bytes_ =
      InstallLruMetrics(registry, shared_cache_.get(), "dtdevolve_score_cache",
                        "Shared subtree score cache");
  memo_bytes_ = InstallLruMetrics(registry, shared_memo_.get(),
                                  "dtdevolve_classification_memo",
                                  "Shared classification memo");
  RefreshLruGauges();

  for (const auto& shard : shards_) {
    DTDEVOLVE_RETURN_IF_ERROR(StartShard(*shard, registry));
  }

  pool_.emplace(options_.jobs);
  checkpoint_stop_ = false;
  for (const auto& shard : shards_) {
    shard->draining = false;
    shard->worker = std::thread([this, s = shard.get()] { IngestWorker(*s); });
  }
  if (!options_.wal_dir.empty() && options_.checkpoint_interval.count() > 0) {
    checkpoint_thread_ = std::thread([this] { CheckpointLoop(); });
  }
  if (!options_.wal_dir.empty() &&
      options_.health_probe_interval.count() > 0) {
    health_stop_ = false;
    health_thread_ = std::thread([this] { HealthProbeLoop(); });
  }
  started_ = true;
  return Status::Ok();
}

void SourceManager::PauseIngest() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->queue_mutex);
    shard->paused = true;
  }
}

void SourceManager::ResumeIngest() {
  for (const auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->queue_mutex);
      shard->paused = false;
    }
    shard->queue_cv.notify_all();
  }
}

SourceManager::EnqueueResult SourceManager::Enqueue(
    const std::string& tenant, xml::ArenaDocument doc,
    const std::string& raw_body, bool wait) {
  EnqueueResult result;
  Shard* shard = RouteIngest(
      tenant, doc.has_root() ? doc.root().tag : std::string_view());
  if (shard == nullptr) {
    result.code = EnqueueCode::kUnknownTenant;
    result.tenant = tenant;
    return result;
  }
  result.tenant = shard->name;

  PendingDoc pending;
  pending.arena = std::move(doc);
  pending.enqueued = std::chrono::steady_clock::now();
  if (wait || shard->wal != nullptr) {
    // With the WAL on even an async ack waits: for the group commit.
    pending.waiter = std::make_shared<IngestWaiter>();
    pending.waiter->commit_only = !wait;
  }
  result.waiter = pending.waiter;

  {
    // Spans capacity check → WAL write → enqueue: concurrent ingests
    // into THIS shard serialize here, so its queue (and therefore its
    // apply order) is exactly its LSN order — the invariant WAL replay
    // depends on. Other shards' ingests proceed in parallel.
    std::lock_guard<std::mutex> order(shard->ingest_order_mutex);
    if (shard->health.load(std::memory_order_relaxed) ==
        static_cast<int>(ShardHealth::kReadOnly)) {
      // The WAL failed repeatedly; stop hammering the dead disk. The
      // recovery probe flips the shard back once a record commits.
      shard->read_only_rejected->Increment();
      result.code = EnqueueCode::kReadOnly;
      result.waiter = nullptr;
      return result;
    }
    if (shard->rate_limit > 0) {
      // Token bucket: refill at `rate_limit` docs/sec up to the burst
      // capacity; one whole token admits one document.
      const auto now = std::chrono::steady_clock::now();
      if (shard->bucket_refilled.time_since_epoch().count() != 0) {
        const double elapsed =
            std::chrono::duration<double>(now - shard->bucket_refilled)
                .count();
        shard->tokens = std::min(shard->bucket_capacity,
                                 shard->tokens + elapsed * shard->rate_limit);
      }
      shard->bucket_refilled = now;
      if (shard->tokens < 1.0) {
        shard->rate_limited->Increment();
        result.code = EnqueueCode::kRateLimited;
        result.waiter = nullptr;
        return result;
      }
      shard->tokens -= 1.0;
    }
    {
      std::lock_guard<std::mutex> lock(shard->queue_mutex);
      if (shard->queue.size() >= options_.queue_capacity) {
        shard->requests_rejected->Increment();
        result.code = EnqueueCode::kQueueFull;
        result.waiter = nullptr;
        return result;
      }
    }
    if (shard->wal != nullptr) {
      // Only the write happens here — no fsync on the event thread. The
      // ack contract still holds: the worker commits the record (fsync
      // under `always`, shared with every record queued meanwhile)
      // before its waiter completes, so no 2xx leaves earlier. When the
      // disk says no, the document is NOT acked — the caller answers
      // 503 so the client retries, and the degraded gauge flags the
      // condition until a commit succeeds again.
      StatusOr<uint64_t> lsn = shard->wal->Write(raw_body);
      if (!lsn.ok()) {
        // A refusal while a failed group awaits its rewind is not new
        // evidence against the disk.
        if (!shard->wal->commit_failed()) NoteWalFailure(*shard);
        shard->requests_rejected->Increment();
        result.code = EnqueueCode::kWalError;
        result.error = lsn.status().message();
        result.waiter = nullptr;
        return result;
      }
      pending.lsn = *lsn;
    }
    {
      std::lock_guard<std::mutex> lock(shard->queue_mutex);
      shard->queue.push_back(std::move(pending));
      shard->queue_depth->Set(static_cast<double>(shard->queue.size()));
    }
  }
  shard->queue_cv.notify_all();
  return result;
}

void SourceManager::IngestWorker(Shard& shard) {
  for (;;) {
    std::vector<PendingDoc> pending;
    {
      std::unique_lock<std::mutex> lock(shard.queue_mutex);
      shard.queue_cv.wait(lock, [&shard] {
        return shard.draining || shard.rewind_requested ||
               (!shard.paused && !shard.queue.empty());
      });
      if (shard.rewind_requested) {
        shard.rewind_requested = false;
        lock.unlock();
        RewindShard(shard);
        continue;
      }
      if (shard.queue.empty() && shard.draining) return;
      const size_t take = std::min(shard.queue.size(), options_.batch_max);
      pending.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        pending.push_back(std::move(shard.queue.front()));
        shard.queue.pop_front();
      }
      shard.queue_depth->Set(static_cast<double>(shard.queue.size()));
    }
    if (!pending.empty()) ProcessPending(shard, std::move(pending));
  }
}

void SourceManager::CommitPending(Shard& shard,
                                  std::vector<PendingDoc>& pending) {
  // The queue is in LSN order, so the last document's LSN covers the
  // batch. While this fsync runs the event thread keeps queueing, and
  // the next batch shares one fsync among all of those documents.
  Status committed = shard.wal->Commit(pending.back().lsn);
  if (committed.ok()) {
    NoteWalSuccess(shard);
  } else {
    NoteWalFailure(shard);
    RejectLost(shard, TakeAbove(pending, shard.wal->durable_lsn()),
               committed);
    RewindShard(shard);
  }
  for (PendingDoc& item : pending) {
    if (item.waiter != nullptr && item.waiter->commit_only) {
      CompleteWaiter(*item.waiter);
    }
  }
}

void SourceManager::RewindShard(Shard& shard) {
  std::vector<PendingDoc> lost;
  {
    // Under the ingest-order mutex every enqueue is either done (its
    // document is in the queue) or not started, so the queued documents
    // above the durable LSN are all the lost ones. A failed rewind keeps
    // the WAL refusing writes; the health probe asks again.
    std::lock_guard<std::mutex> order(shard.ingest_order_mutex);
    (void)shard.wal->Rewind();
    std::lock_guard<std::mutex> lock(shard.queue_mutex);
    lost = TakeAbove(shard.queue, shard.wal->durable_lsn());
    shard.queue_depth->Set(static_cast<double>(shard.queue.size()));
  }
  RejectLost(shard, std::move(lost),
             Status::Unavailable("write-ahead log group commit failed"));
}

void SourceManager::RequestRewind(Shard& shard) {
  {
    std::lock_guard<std::mutex> lock(shard.queue_mutex);
    shard.rewind_requested = true;
  }
  shard.queue_cv.notify_all();
}

void SourceManager::RejectLost(Shard& shard, std::vector<PendingDoc> lost,
                               const Status& status) {
  for (PendingDoc& item : lost) {
    shard.requests_rejected->Increment();
    if (item.waiter == nullptr) continue;
    {
      std::lock_guard<std::mutex> lock(item.waiter->mutex);
      item.waiter->status = status;
    }
    CompleteWaiter(*item.waiter);
  }
}

StatusOr<uint64_t> SourceManager::LogRecord(Shard& shard,
                                            std::string_view payload) {
  StatusOr<uint64_t> lsn = shard.wal->Write(payload);
  if (lsn.ok()) {
    Status committed = shard.wal->Commit(*lsn);
    if (!committed.ok()) {
      // Queued documents may share the failed group; only the worker
      // may rewind, between batches.
      RequestRewind(shard);
      lsn = committed;
    }
  }
  if (lsn.ok()) {
    NoteWalSuccess(shard);
  } else {
    NoteWalFailure(shard);
  }
  return lsn;
}

void SourceManager::ProcessPending(Shard& shard,
                                   std::vector<PendingDoc> pending) {
  if (shard.wal != nullptr) {
    CommitPending(shard, pending);
    if (pending.empty()) return;
  }
  std::vector<xml::ArenaDocument> docs;
  docs.reserve(pending.size());
  for (PendingDoc& item : pending) docs.push_back(std::move(item.arena));

  const auto batch_start = std::chrono::steady_clock::now();
  std::vector<core::XmlSource::ProcessOutcome> outcomes;
  {
    std::lock_guard<std::mutex> lock(shard.state_mutex);
    outcomes = shard.source->ProcessBatch(std::move(docs),
                                          pool_ ? &*pool_ : nullptr);
    for (const core::XmlSource::ProcessOutcome& outcome : outcomes) {
      if (outcome.classified) ++shard.ingested_per_dtd[outcome.dtd_name];
      if (outcome.evolved) ++shard.evolutions_per_dtd[outcome.dtd_name];
    }
    for (const PendingDoc& item : pending) {
      if (item.lsn > shard.applied_lsn) shard.applied_lsn = item.lsn;
    }
    // Eviction records and recovery probes get LSNs out of band (they
    // are applied once logged, not through the queue); fold any that
    // became contiguous into the watermark so checkpoints cover them.
    AbsorbAppliedLsn(shard, shard.applied_lsn);
    // Auto-induction proposes — it never accepts. Gated on "no pending
    // candidates" so a threshold-sized repository doesn't re-cluster on
    // every batch while the operator deliberates.
    if (options_.auto_induce_threshold > 0 &&
        shard.source->repository().size() >= options_.auto_induce_threshold &&
        shard.source->candidates().empty()) {
      shard.source->InduceCandidates();
    }
  }
  EnforceRepositoryQuota(shard);
  const auto now = std::chrono::steady_clock::now();
  shard.batch_seconds->Observe(
      std::chrono::duration<double>(now - batch_start).count());

  for (size_t i = 0; i < pending.size(); ++i) {
    shard.ingest_seconds->Observe(
        std::chrono::duration<double>(now - pending[i].enqueued).count());
    IngestWaiter* waiter = pending[i].waiter.get();
    if (waiter == nullptr || waiter->commit_only) continue;
    {
      std::lock_guard<std::mutex> lock(waiter->mutex);
      waiter->outcome = outcomes[i];
    }
    CompleteWaiter(*waiter);
  }
}

Status SourceManager::CheckpointShard(Shard& shard, uint64_t* captured_lsn) {
  if (shard.wal == nullptr) return Status::Ok();
  // One checkpoint of this shard at a time (periodic thread vs explicit
  // CheckpointTenant calls); the state mutex is still taken only for
  // the in-memory capture, so ingest is not stalled for the I/O.
  std::lock_guard<std::mutex> io(shard.checkpoint_mutex);
  store::CheckpointData data;
  {
    std::lock_guard<std::mutex> lock(shard.state_mutex);
    data = store::CaptureCheckpoint(*shard.source, shard.applied_lsn);
  }
  Status written = store::WriteCheckpoint(WalDirFor(shard), data);
  if (written.ok()) written = shard.wal->TruncateThrough(data.lsn);
  if (!written.ok()) {
    if (shard.checkpoint_errors != nullptr) {
      shard.checkpoint_errors->Increment();
    }
    return written;
  }
  if (shard.checkpoints != nullptr) shard.checkpoints->Increment();
  if (shard.checkpoint_lsn_gauge != nullptr) {
    shard.checkpoint_lsn_gauge->Set(static_cast<double>(data.lsn));
  }
  if (data.lsn > shard.last_checkpoint_lsn) {
    shard.last_checkpoint_lsn = data.lsn;
  }
  // Report the LSN the checkpoint *captured* — not whatever the caller
  // sampled before calling. Ingest racing the capture can move
  // applied_lsn past the sample, and tracking the sample would make the
  // next periodic round re-checkpoint state that never moved.
  if (captured_lsn != nullptr) *captured_lsn = data.lsn;
  return Status::Ok();
}

void SourceManager::RefreshLruGauges() {
  if (score_cache_bytes_ != nullptr) {
    score_cache_bytes_->Set(
        static_cast<double>(shared_cache_->GetStats().bytes));
  }
  if (memo_bytes_ != nullptr) {
    memo_bytes_->Set(static_cast<double>(shared_memo_->GetStats().bytes));
  }
}

void SourceManager::CheckpointLoop() {
  std::unique_lock<std::mutex> lock(checkpoint_wake_mutex_);
  for (;;) {
    checkpoint_wake_cv_.wait_for(lock, options_.checkpoint_interval,
                                 [this] { return checkpoint_stop_; });
    if (checkpoint_stop_) return;
    lock.unlock();
    for (const auto& shard : shards_) {
      if (shard->wal == nullptr) continue;
      uint64_t applied = 0;
      {
        std::lock_guard<std::mutex> state(shard->state_mutex);
        applied = shard->applied_lsn;
      }
      uint64_t last = 0;
      {
        std::lock_guard<std::mutex> io(shard->checkpoint_mutex);
        last = shard->last_checkpoint_lsn;
      }
      // Checkpoints are only worth their I/O when the state moved; a
      // failed attempt is counted and retried next round.
      // CheckpointShard advances last_checkpoint_lsn to the LSN it
      // actually captured, so an ingest racing the capture never causes
      // a redundant extra checkpoint next interval.
      if (applied > last) CheckpointShard(*shard, nullptr);
    }
    lock.lock();
  }
}

void SourceManager::NoteWalFailure(Shard& shard) {
  const uint64_t failures =
      shard.wal_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  // One failed write or commit is a degraded shard (clients should
  // retry); three in a row with no success in between means the disk is
  // gone for now, and writes are refused up front instead of hammering
  // it.
  const int next = failures >= 3 ? static_cast<int>(ShardHealth::kReadOnly)
                                 : static_cast<int>(ShardHealth::kDegraded);
  shard.health.store(next, std::memory_order_relaxed);
  if (shard.degraded != nullptr) shard.degraded->Set(next);
}

void SourceManager::NoteWalSuccess(Shard& shard) {
  shard.wal_failures.store(0, std::memory_order_relaxed);
  if (shard.health.exchange(static_cast<int>(ShardHealth::kOk),
                            std::memory_order_relaxed) !=
      static_cast<int>(ShardHealth::kOk)) {
    if (shard.degraded != nullptr) shard.degraded->Set(0);
  }
}

void SourceManager::AbsorbAppliedLsn(Shard& shard, uint64_t lsn) {
  // Caller holds state_mutex. Out-of-band LSNs (evictions, probes) park
  // in applied_ahead until every record below them has been applied;
  // only a contiguous prefix may move the checkpointable watermark, or
  // a checkpoint could claim coverage of still-queued documents.
  if (lsn > shard.applied_lsn) shard.applied_ahead.insert(lsn);
  auto it = shard.applied_ahead.begin();
  while (it != shard.applied_ahead.end()) {
    if (*it <= shard.applied_lsn) {
      it = shard.applied_ahead.erase(it);
    } else if (*it == shard.applied_lsn + 1) {
      shard.applied_lsn = *it;
      it = shard.applied_ahead.erase(it);
    } else {
      break;
    }
  }
}

void SourceManager::EnforceRepositoryQuota(Shard& shard) {
  if (shard.max_repository_docs == 0) return;
  std::vector<int> victims;
  {
    std::lock_guard<std::mutex> state(shard.state_mutex);
    const classify::Repository& repo = shard.source->repository();
    if (repo.size() <= shard.max_repository_docs) return;
    const size_t excess = repo.size() - shard.max_repository_docs;
    std::vector<int> ids = repo.Ids();
    // kEvictOldest drops the head of the repository (lowest ids);
    // kRejectNew keeps the established set and drops the newcomers.
    if (options_.repository_policy == RepositoryQuotaPolicy::kEvictOldest) {
      victims.assign(ids.begin(), ids.begin() + excess);
    } else {
      victims.assign(ids.end() - excess, ids.end());
    }
  }
  uint64_t evict_lsn = 0;
  if (shard.wal != nullptr) {
    if (shard.health.load(std::memory_order_relaxed) ==
        static_cast<int>(ShardHealth::kReadOnly)) {
      return;  // no log, no eviction — retried after the shard recovers
    }
    // Log before evicting: recovery replays the same explicit ids, so
    // the recovered repository matches the live one even though the
    // eviction raced queued (lower-LSN) documents. Ids absent at replay
    // are skipped, which also makes re-application after a checkpoint
    // a no-op.
    StatusOr<uint64_t> lsn =
        LogRecord(shard, store::EncodeEvictRecord(victims));
    if (!lsn.ok()) return;
    evict_lsn = *lsn;
  }
  {
    std::lock_guard<std::mutex> state(shard.state_mutex);
    const size_t evicted = shard.source->EvictRepositoryDocs(victims);
    if (shard.evictions != nullptr && evicted > 0) {
      shard.evictions->Increment(static_cast<double>(evicted));
    }
    if (evict_lsn != 0) AbsorbAppliedLsn(shard, evict_lsn);
  }
}

void SourceManager::HealthProbeLoop() {
  std::unique_lock<std::mutex> lock(health_wake_mutex_);
  for (;;) {
    health_wake_cv_.wait_for(lock, options_.health_probe_interval,
                             [this] { return health_stop_; });
    if (health_stop_) return;
    lock.unlock();
    for (const auto& shard : shards_) {
      if (shard->wal == nullptr) continue;
      if (shard->health.load(std::memory_order_relaxed) ==
          static_cast<int>(ShardHealth::kOk)) {
        continue;
      }
      if (shard->wal->commit_failed()) {
        // A failed group whose rewind has not succeeded yet: the worker
        // retries it (and the probe proper runs next round).
        RequestRewind(*shard);
        continue;
      }
      // The probe is an empty eviction record: a real write and commit
      // through the full WAL path (rotate/truncate self-healing
      // included) that replays as a no-op. Success proves writes work
      // again and reopens the shard.
      StatusOr<uint64_t> lsn =
          LogRecord(*shard, store::EncodeEvictRecord({}));
      if (lsn.ok()) {
        std::lock_guard<std::mutex> state(shard->state_mutex);
        AbsorbAppliedLsn(*shard, *lsn);
      } else {
        shard->health.store(static_cast<int>(ShardHealth::kReadOnly),
                            std::memory_order_relaxed);
        if (shard->degraded != nullptr) {
          shard->degraded->Set(static_cast<int>(ShardHealth::kReadOnly));
        }
      }
    }
    lock.lock();
  }
}

bool SourceManager::AdmitDocSize(const std::string& tenant, size_t bytes) {
  Shard* shard = ResolveWriteShard(tenant);
  if (shard == nullptr) {
    // Unroutable traffic is still bounded by the process-wide default so
    // an unknown tenant cannot make the server buffer an oversized body.
    return options_.max_doc_bytes == 0 || bytes <= options_.max_doc_bytes;
  }
  if (shard->max_doc_bytes != 0 && bytes > shard->max_doc_bytes) {
    shard->doc_too_large->Increment();
    return false;
  }
  return true;
}

std::vector<SourceManager::ShardHealthInfo> SourceManager::HealthReport()
    const {
  std::vector<ShardHealthInfo> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardHealthInfo info;
    info.tenant = shard->name;
    info.health = static_cast<ShardHealth>(
        shard->health.load(std::memory_order_relaxed));
    out.push_back(std::move(info));
  }
  return out;
}

bool SourceManager::AllShardsOk() const {
  for (const auto& shard : shards_) {
    if (shard->health.load(std::memory_order_relaxed) !=
        static_cast<int>(ShardHealth::kOk)) {
      return false;
    }
  }
  return true;
}

Status SourceManager::CheckpointTenant(const std::string& tenant,
                                       uint64_t* captured_lsn) {
  Shard* shard = FindShard(tenant.empty() && !shards_.empty()
                               ? shards_[0]->name
                               : tenant);
  if (shard == nullptr) {
    return Status::NotFound("unknown tenant '" + tenant + "'");
  }
  return CheckpointShard(*shard, captured_lsn);
}

Status SourceManager::CheckpointAll(uint64_t* captured_lsn) {
  Status first_error;
  for (const auto& shard : shards_) {
    Status status = CheckpointShard(*shard, captured_lsn);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

StatusOr<size_t> SourceManager::InduceTenant(const std::string& tenant) {
  Shard* shard = ResolveWriteShard(tenant);
  if (shard == nullptr) return UnresolvedTenantError(tenant);
  std::lock_guard<std::mutex> lock(shard->state_mutex);
  return shard->source->InduceCandidates();
}

StatusOr<std::vector<SourceManager::CandidateInfo>>
SourceManager::CandidatesFor(const std::string& tenant) const {
  const Shard* shard = ResolveReadShard(tenant);
  if (shard == nullptr) return UnresolvedTenantError(tenant);
  std::lock_guard<std::mutex> lock(shard->state_mutex);
  std::vector<CandidateInfo> out;
  out.reserve(shard->source->candidates().size());
  for (const induce::Candidate& candidate : shard->source->candidates()) {
    CandidateInfo info;
    info.id = candidate.id;
    info.name = candidate.name;
    info.members = candidate.members.size();
    info.validated = candidate.validated.size();
    info.coverage = candidate.coverage;
    info.margin = candidate.margin;
    info.dtd_text = dtd::WriteDtd(candidate.ext.dtd());
    out.push_back(std::move(info));
  }
  return out;
}

StatusOr<core::XmlSource::AcceptOutcome> SourceManager::AcceptCandidate(
    const std::string& tenant, uint64_t id) {
  Shard* shard = ResolveWriteShard(tenant);
  if (shard == nullptr) return UnresolvedTenantError(tenant);

  // The accept must land in the WAL *and* in the source at the same
  // position relative to ingested documents, or replay diverges from
  // the live run. Holding the ingest-order mutex stops new writes;
  // waiting for applied_lsn to catch up with the log flushes everything
  // already written through the worker. Only then is "log the record,
  // apply the accept" the same sequence replay will see.
  std::lock_guard<std::mutex> order(shard->ingest_order_mutex);
  if (shard->wal != nullptr) {
    for (;;) {
      // A failed group is rewound by the worker under the ingest-order
      // mutex, so give it back rather than wait for documents that will
      // never apply.
      if (shard->wal->commit_failed()) {
        return Status::Unavailable("write-ahead log group commit failed");
      }
      const uint64_t last_written = shard->wal->next_lsn() - 1;
      {
        std::lock_guard<std::mutex> state(shard->state_mutex);
        if (shard->applied_lsn >= last_written) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::lock_guard<std::mutex> state(shard->state_mutex);
  const induce::Candidate* candidate = shard->source->FindCandidate(id);
  if (candidate == nullptr) {
    return Status::NotFound("unknown candidate id " + std::to_string(id));
  }
  if (shard->wal != nullptr) {
    const std::string record =
        store::EncodeInduceAcceptRecord(candidate->name, candidate->ext);
    StatusOr<uint64_t> lsn = LogRecord(*shard, record);
    if (!lsn.ok()) return lsn.status();
    shard->applied_lsn = *lsn;
  }
  return shard->source->AcceptCandidate(id, pool_ ? &*pool_ : nullptr);
}

Status SourceManager::RejectCandidate(const std::string& tenant, uint64_t id) {
  Shard* shard = ResolveWriteShard(tenant);
  if (shard == nullptr) return UnresolvedTenantError(tenant);
  std::lock_guard<std::mutex> lock(shard->state_mutex);
  return shard->source->RejectCandidate(id);
}

void SourceManager::Drain() {
  if (started_) {
    for (const auto& shard : shards_) {
      {
        std::lock_guard<std::mutex> lock(shard->queue_mutex);
        shard->paused = false;
        shard->draining = true;
      }
      shard->queue_cv.notify_all();
    }
    for (const auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }

    {
      std::lock_guard<std::mutex> lock(checkpoint_wake_mutex_);
      checkpoint_stop_ = true;
    }
    checkpoint_wake_cv_.notify_all();
    if (checkpoint_thread_.joinable()) checkpoint_thread_.join();

    {
      std::lock_guard<std::mutex> lock(health_wake_mutex_);
      health_stop_ = true;
    }
    health_wake_cv_.notify_all();
    if (health_thread_.joinable()) health_thread_.join();

    for (const auto& shard : shards_) {
      if (shard->wal == nullptr) continue;
      // Everything acked under a lazy fsync policy reaches the disk
      // first: if the final checkpoint fails (it is counted on
      // checkpoint_errors), the log is the only durable copy.
      shard->wal->Sync();
      if (options_.checkpoint_on_shutdown) CheckpointShard(*shard, nullptr);
    }

    if (pool_) pool_->Shutdown();
    started_ = false;
  }
}

std::vector<std::string> SourceManager::TenantNames() const {
  std::vector<std::string> names;
  names.reserve(shards_.size());
  for (const auto& shard : shards_) names.push_back(shard->name);
  return names;
}

bool SourceManager::HasTenant(const std::string& tenant) const {
  return by_name_.count(tenant) != 0;
}

StatusOr<std::vector<std::string>> SourceManager::DtdNamesFor(
    const std::string& tenant) const {
  const Shard* shard = ResolveReadShard(tenant);
  if (shard == nullptr) return UnresolvedTenantError(tenant);
  std::lock_guard<std::mutex> lock(shard->state_mutex);
  return shard->source->DtdNames();
}

StatusOr<std::string> SourceManager::DtdTextFor(const std::string& tenant,
                                                const std::string& name) const {
  const Shard* shard = ResolveReadShard(tenant);
  if (shard == nullptr) return UnresolvedTenantError(tenant);
  std::lock_guard<std::mutex> lock(shard->state_mutex);
  const dtd::Dtd* dtd = shard->source->FindDtd(name);
  if (dtd == nullptr) {
    return Status::NotFound("unknown DTD '" + name + "'");
  }
  return dtd::WriteDtd(*dtd);
}

StatusOr<SourceManager::TenantStats> SourceManager::StatsFor(
    const std::string& tenant) const {
  const Shard* shard = ResolveReadShard(tenant);
  if (shard == nullptr) return UnresolvedTenantError(tenant);
  TenantStats stats;
  stats.tenant = shard->name;
  std::lock_guard<std::mutex> lock(shard->state_mutex);
  stats.documents_processed = shard->source->documents_processed();
  stats.documents_classified = shard->source->documents_classified();
  stats.repository_size = shard->source->repository().size();
  stats.evolutions_performed = shard->source->evolutions_performed();
  const induce::ClusterStats clusters = shard->source->cluster_stats();
  stats.cluster_count = clusters.clusters;
  stats.largest_cluster = clusters.largest_cluster;
  stats.candidates_pending = shard->source->candidates().size();
  stats.candidates_proposed = shard->source->candidates_proposed();
  stats.candidates_accepted = shard->source->candidates_accepted();
  stats.candidates_rejected = shard->source->candidates_rejected();
  for (const std::string& name : shard->source->DtdNames()) {
    const evolve::ExtendedDtd* ext = shard->source->FindExtended(name);
    TenantDtdStats dtd_stats;
    dtd_stats.name = name;
    dtd_stats.documents_recorded = ext->documents_recorded();
    dtd_stats.mean_divergence = ext->MeanDivergence();
    auto ingested = shard->ingested_per_dtd.find(name);
    if (ingested != shard->ingested_per_dtd.end()) {
      dtd_stats.documents_ingested = ingested->second;
    }
    auto evolved = shard->evolutions_per_dtd.find(name);
    if (evolved != shard->evolutions_per_dtd.end()) {
      dtd_stats.evolutions = evolved->second;
    }
    stats.dtds.push_back(std::move(dtd_stats));
  }
  return stats;
}

std::vector<SourceManager::TenantStats> SourceManager::AllStats() const {
  std::vector<TenantStats> all;
  all.reserve(shards_.size());
  for (const auto& shard : shards_) {
    StatusOr<TenantStats> stats = StatsFor(shard->name);
    if (stats.ok()) all.push_back(std::move(*stats));
  }
  return all;
}

const store::RecoveryReport& SourceManager::recovery_report(
    const std::string& tenant) const {
  static const store::RecoveryReport kEmpty;
  const Shard* shard =
      tenant.empty() && !shards_.empty() ? shards_[0].get() : FindShard(tenant);
  return shard == nullptr ? kEmpty : shard->recovery_report;
}

const core::XmlSource* SourceManager::source(const std::string& tenant) const {
  const Shard* shard =
      tenant.empty() && !shards_.empty() ? shards_[0].get() : FindShard(tenant);
  return shard == nullptr ? nullptr : shard->source.get();
}

StatusOr<std::string> SourceManager::ExportCheckpointFor(
    const std::string& tenant) {
  Shard* shard = FindShard(tenant);
  if (shard == nullptr) {
    return Status::NotFound("unknown tenant '" + tenant + "'");
  }
  if (options_.wal_dir.empty()) {
    return Status::FailedPrecondition(
        "replication requires a write-ahead log (--wal-dir)");
  }
  // Under the checkpoint mutex a concurrent checkpoint can neither swap
  // the meta nor unlink checkpoint files mid-read.
  std::lock_guard<std::mutex> io(shard->checkpoint_mutex);
  StatusOr<store::CheckpointData> data =
      store::ReadCheckpoint(WalDirFor(*shard));
  if (!data.ok()) return data.status();
  return store::EncodeCheckpointBlob(*data);
}

StatusOr<store::WalExport> SourceManager::ExportWalFor(
    const std::string& tenant, uint64_t from_lsn, uint64_t max_bytes,
    uint64_t* wal_next_lsn) {
  Shard* shard = FindShard(tenant);
  if (shard == nullptr) {
    return Status::NotFound("unknown tenant '" + tenant + "'");
  }
  if (options_.wal_dir.empty()) {
    return Status::FailedPrecondition(
        "replication requires a write-ahead log (--wal-dir)");
  }
  // The checkpoint mutex holds off TruncateThrough, so segments cannot
  // be unlinked mid-scan. Writes still race at the tail — a torn final
  // frame simply ends the page. The durable LSN is read before the
  // scan: records up to it never change.
  std::lock_guard<std::mutex> io(shard->checkpoint_mutex);
  const uint64_t durable =
      shard->wal != nullptr ? shard->wal->durable_lsn() : UINT64_MAX;
  if (wal_next_lsn != nullptr) {
    *wal_next_lsn = shard->wal != nullptr ? durable + 1 : 0;
  }
  return store::ExportWalRecords(WalDirFor(*shard), from_lsn, max_bytes,
                                 durable);
}

Status SourceManager::BootstrapFromCheckpoint(
    const std::string& tenant, const store::CheckpointData& data) {
  Shard* shard = FindShard(tenant);
  if (shard == nullptr) {
    return Status::NotFound("unknown tenant '" + tenant + "'");
  }
  // Built off to the side — reads keep being served from the old source
  // until the swap — then installed atomically under the state mutex.
  auto fresh = std::make_unique<core::XmlSource>(source_options_);
  for (const auto& seed : shard->seed_dtds) {
    DTDEVOLVE_RETURN_IF_ERROR(fresh->AddDtdText(seed.first, seed.second));
  }
  DTDEVOLVE_RETURN_IF_ERROR(store::ApplyCheckpointToSource(data, *fresh));
  fresh->set_metrics(shard->source_metrics);
  std::lock_guard<std::mutex> lock(shard->state_mutex);
  shard->source = std::move(fresh);
  shard->applied_lsn = data.lsn;
  // The per-DTD ingest tallies describe the replaced lineage and the
  // checkpoint carries none; recorded-document and divergence stats live
  // in the extended DTDs themselves and survive the swap.
  shard->ingested_per_dtd.clear();
  shard->evolutions_per_dtd.clear();
  return Status::Ok();
}

StatusOr<bool> SourceManager::ApplyReplicated(const std::string& tenant,
                                              uint64_t lsn,
                                              std::string_view payload) {
  Shard* shard = FindShard(tenant);
  if (shard == nullptr) {
    return Status::NotFound("unknown tenant '" + tenant + "'");
  }
  std::lock_guard<std::mutex> lock(shard->state_mutex);
  // Streams resume from the last applied LSN after a disconnect, so
  // re-delivery of an already-applied record is normal, not an error.
  if (lsn <= shard->applied_lsn) return false;
  if (lsn != shard->applied_lsn + 1) {
    // Primary LSNs are gapless (a failed append never consumes one), so
    // a hole means the follower skipped acked history — applying would
    // silently diverge from the primary.
    return Status::FailedPrecondition(
        "replication gap: applied LSN " +
        std::to_string(shard->applied_lsn) + ", received LSN " +
        std::to_string(lsn));
  }
  if (store::IsInduceAcceptRecord(payload) || store::IsEvictRecord(payload)) {
    DTDEVOLVE_RETURN_IF_ERROR(
        store::ApplyWalRecordToSource(lsn, payload, *shard->source));
  } else {
    // Inline ProcessText (rather than ApplyWalRecordToSource) to see the
    // outcome — the per-DTD tallies feed /stats on the replica too.
    StatusOr<core::XmlSource::ProcessOutcome> outcome =
        shard->source->ProcessText(payload);
    if (!outcome.ok()) {
      return Status::Internal("replicated record " + std::to_string(lsn) +
                              " does not apply: " +
                              outcome.status().message());
    }
    if (outcome->classified) ++shard->ingested_per_dtd[outcome->dtd_name];
    if (outcome->evolved) ++shard->evolutions_per_dtd[outcome->dtd_name];
  }
  shard->applied_lsn = lsn;
  return true;
}

uint64_t SourceManager::AppliedLsnFor(const std::string& tenant) const {
  const Shard* shard = FindShard(tenant);
  if (shard == nullptr) return 0;
  std::lock_guard<std::mutex> lock(shard->state_mutex);
  return shard->applied_lsn;
}

}  // namespace dtdevolve::server
