#include "check/soak.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "check/harness.h"
#include "core/source.h"
#include "dtd/dtd_writer.h"
#include "server/source_manager.h"
#include "workload/generator.h"
#include "workload/mutator.h"
#include "workload/scenarios.h"
#include "xml/stream_reader.h"
#include "xml/writer.h"

namespace dtdevolve::check {

namespace {

constexpr uint64_t kSeed = 1;
/// Documents per `ProcessBatch` in the engine leg (a shard worker drains
/// up to 64; ingest at serve-like rates batches far fewer).
constexpr size_t kEngineBatch = 32;
constexpr size_t kTenants = 4;
/// Stream layout: every 16th document (offset 7) comes from the drifting
/// scenario, every 64th (offset 13) is foreign; the rest recur.
constexpr uint64_t kDriftEvery = 16;
constexpr uint64_t kForeignEvery = 64;
constexpr size_t kShapesPerDtd = 4;
constexpr uint64_t kDriftPhaseDocs = 200;
constexpr size_t kForeignFamilies = 3;

/// `serve`'s σ/τ/min-docs (tools/dtdevolve_cli.cc) and the soak's LRU
/// budgets; everything else at the library default.
core::SourceOptions ServeSourceOptions() {
  core::SourceOptions options;
  options.sigma = 0.3;
  options.tau = 0.15;
  options.min_documents_before_check = 1;
  options.classifier.score_cache_bytes = kSoakLruBudgetBytes;
  options.classifier.classification_memo_bytes = kSoakLruBudgetBytes;
  return options;
}

/// Mild structural noise on top of the phase drift, so evolutions keep
/// firing over the whole stream instead of settling after one cycle.
workload::MutationOptions DriftMutation() {
  workload::MutationOptions mutation;
  mutation.drop_probability = 0.05;
  mutation.insert_probability = 0.1;
  mutation.duplicate_probability = 0.05;
  mutation.new_tags = {"note", "isbn"};
  return mutation;
}

/// The soak's document stream, deterministic and generated on the fly so
/// the inputs themselves never grow with the document count.
class SoakStream {
 public:
  SoakStream() {
    std::vector<workload::ScenarioStream> scenarios =
        workload::MakeAllScenarios(kSeed);
    // Bibliography drifts (mutated, see `Next`); catalog and news recur
    // valid for their phase-0 DTDs. Forum stays out: its recursive
    // documents run to hundreds of KB.
    for (size_t d = 0; d < 3; ++d) {
      const dtd::Dtd dtd = scenarios[d].InitialDtd();
      dtds_.emplace_back(scenarios[d].name(), dtd::WriteDtd(dtd));
      if (d == 0) continue;
      workload::DocumentGenerator generator(dtd, workload::GeneratorOptions(),
                                            kSeed * 31 + d);
      for (size_t s = 0; s < kShapesPerDtd; ++s) {
        shapes_.push_back(xml::WriteDocument(generator.Generate()));
      }
    }
    for (size_t f = 0; f < kForeignFamilies; ++f) {
      foreign_dtds_.push_back(std::make_unique<dtd::Dtd>(
          workload::MixedPopulationFamilyDtd(f)));
      foreign_.push_back(std::make_unique<workload::DocumentGenerator>(
          *foreign_dtds_.back(), workload::GeneratorOptions(), kSeed + 7 + f));
    }
  }

  const std::vector<std::pair<std::string, std::string>>& dtds() const {
    return dtds_;
  }

  /// The document at stream position `index`; call with 0, 1, 2, ….
  std::string Next(uint64_t index) {
    if (index % kDriftEvery == 7) {
      // The drift restarts from phase 0 whenever it runs out, so every
      // quarter of the stream sees the same mix of phases.
      if (drift_ == nullptr || drift_->Done()) {
        drift_ = std::make_unique<workload::ScenarioStream>(
            workload::MakeBibliographyScenario(kSeed + ++drift_cycles_,
                                               kDriftPhaseDocs));
      }
      xml::Document doc = drift_->Next();
      mutator_.Mutate(doc);
      return xml::WriteDocument(doc);
    }
    if (index % kForeignEvery == 13) {
      return xml::WriteDocument(
          foreign_[(index / kForeignEvery) % foreign_.size()]->Generate());
    }
    return shapes_[index % shapes_.size()];
  }

 private:
  std::unique_ptr<workload::ScenarioStream> drift_;
  workload::Mutator mutator_{DriftMutation(), kSeed + 5};
  uint64_t drift_cycles_ = 0;
  std::vector<std::pair<std::string, std::string>> dtds_;
  std::vector<std::string> shapes_;
  /// Generators keep a pointer to their DTD, so each DTD has a fixed
  /// address.
  std::vector<std::unique_ptr<dtd::Dtd>> foreign_dtds_;
  std::vector<std::unique_ptr<workload::DocumentGenerator>> foreign_;
};

/// Hands free heap pages back to the kernel. Before an RSS reading this
/// makes it count what the program holds, not what the allocator caches
/// (a grown vector's old buffer, per-thread arenas); between legs it
/// keeps one leg's frees from hiding the next leg's growth.
void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

/// The process's resident set in bytes (`VmRSS` of /proc/self/status),
/// counting whatever the allocator keeps; -1 when it cannot be read.
int64_t ReadUntrimmedRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    return std::strtoll(line.c_str() + 6, nullptr, 10) * 1024;
  }
  return -1;
}

/// `VmRSS` read after `TrimHeap`.
int64_t ReadRssBytes() {
  TrimHeap();
  return ReadUntrimmedRssBytes();
}

/// Records the first violation of each invariant; later ones add noise,
/// not information.
void Violate(SoakLegReport& leg, const std::string& invariant, uint64_t index,
             std::string detail, std::string dtd_name = "") {
  for (const Violation& v : leg.result.violations) {
    if (v.invariant == invariant) return;
  }
  leg.result.violations.push_back(
      {invariant, std::move(dtd_name), index, std::move(detail)});
}

template <typename Lru>
void CheckLruBudget(SoakLegReport& leg, const Lru* lru, const char* layer,
                    uint64_t index) {
  if (lru == nullptr) {
    Violate(leg, "soak-lru-budget", index, std::string(layer) + " is off");
    return;
  }
  const uint64_t bytes = lru->GetStats().bytes;
  if (bytes > lru->config().capacity_bytes) {
    Violate(leg, "soak-lru-budget", index,
            std::string(layer) + " holds " + std::to_string(bytes) +
                " bytes over its " +
                std::to_string(lru->config().capacity_bytes) +
                "-byte budget");
  }
}

void CheckRepository(SoakLegReport& leg, size_t size, uint64_t index,
                     const std::string& tenant) {
  leg.max_repository = std::max(leg.max_repository, size);
  if (size > kSoakRepositoryCap) {
    Violate(leg, "soak-repository-cap", index,
            "repository holds " + std::to_string(size) + " documents over " +
                "its cap of " + std::to_string(kSoakRepositoryCap),
            tenant);
  }
}

void CheckNoInstances(SoakLegReport& leg, const core::XmlSource& source) {
  for (const std::string& name : source.DtdNames()) {
    const size_t kept = source.InstancesOf(name).size();
    if (kept != 0) {
      Violate(leg, "soak-instances", leg.result.documents,
              std::to_string(kept) + " classified documents retained", name);
    }
  }
}

/// Per-document growth of one RSS reading from the mark to the end,
/// stored in `*per_doc` and checked against `bound` as `invariant`.
void CheckRssGrowth(SoakLegReport& leg, uint64_t mark_docs,
                    int64_t mark_bytes, int64_t end_bytes, double bound,
                    const char* invariant, double* per_doc) {
  if (mark_bytes < 0 || end_bytes < 0) {
    Violate(leg, invariant, leg.result.documents,
            "VmRSS is unreadable (/proc/self/status)");
    return;
  }
  const uint64_t docs = leg.result.documents - mark_docs;
  if (docs == 0) return;
  *per_doc =
      static_cast<double>(end_bytes - mark_bytes) / static_cast<double>(docs);
  if (*per_doc > bound) {
    char detail[160];
    std::snprintf(detail, sizeof(detail),
                  "VmRSS grew %.1f B/doc over the last %llu documents "
                  "(bound %.0f B/doc)",
                  *per_doc, static_cast<unsigned long long>(docs), bound);
    Violate(leg, invariant, leg.result.documents, detail);
  }
}

/// The trimmed reading, which both legs take.
void CheckRss(SoakLegReport& leg, uint64_t mark_docs) {
  CheckRssGrowth(leg, mark_docs, leg.rss_mark_bytes, leg.rss_end_bytes,
                 kSoakMaxRssBytesPerDoc, "soak-rss-per-doc",
                 &leg.rss_bytes_per_doc);
}

double MemoHitRatio(const classify::ClassificationMemo* memo) {
  if (memo == nullptr) return 0.0;
  const classify::ClassificationMemo::Stats stats = memo->GetStats();
  const uint64_t lookups = stats.hits + stats.misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(stats.hits) /
                            static_cast<double>(lookups);
}

void NoteOutcome(SoakLegReport& leg,
                 const core::XmlSource::ProcessOutcome& outcome) {
  if (outcome.evolved) ++leg.result.evolutions;
  leg.reclassified += outcome.reclassified;
}

SoakLegReport RunEngineLeg() {
  SoakLegReport leg;
  leg.result.seed = kSeed;
  leg.result.scenario = "engine";
  SoakStream stream;
  // The leg brings both LRUs (as a server's manager does) so it can read
  // their stats.
  similarity::SubtreeScoreCache::Config cache_config;
  cache_config.capacity_bytes = kSoakLruBudgetBytes;
  similarity::SubtreeScoreCache cache(cache_config);
  classify::ClassificationMemo::Config memo_config;
  memo_config.capacity_bytes = kSoakLruBudgetBytes;
  classify::ClassificationMemo memo(memo_config);
  core::SourceOptions options = ServeSourceOptions();
  options.classifier.shared_cache = &cache;
  options.classifier.shared_memo = &memo;
  core::XmlSource source(options);
  for (const auto& [name, text] : stream.dtds()) {
    Status added = source.AddDtdText(name, text);
    if (!added.ok()) {
      Violate(leg, "soak-setup", 0, added.ToString(), name);
      return leg;
    }
  }

  const uint64_t mark = kSoakDocuments / 4;
  uint64_t mark_docs = 0;
  uint64_t index = 0;
  std::vector<xml::ArenaDocument> batch;
  while (index < kSoakDocuments) {
    batch.clear();
    const uint64_t end =
        std::min<uint64_t>(kSoakDocuments, index + kEngineBatch);
    for (; index < end; ++index) {
      StatusOr<xml::ArenaDocument> doc =
          xml::ParseArenaDocument(stream.Next(index));
      if (!doc.ok()) {
        Violate(leg, "soak-setup", index, doc.status().ToString());
        return leg;
      }
      batch.push_back(std::move(doc).value());
    }
    for (const core::XmlSource::ProcessOutcome& outcome :
         source.ProcessBatch(std::move(batch), nullptr)) {
      NoteOutcome(leg, outcome);
    }
    // The cap a shard enforces after each batch (evict-oldest).
    if (source.repository().size() > kSoakRepositoryCap) {
      std::vector<int> ids = source.repository().Ids();
      ids.resize(ids.size() - kSoakRepositoryCap);
      leg.evicted += source.EvictRepositoryDocs(ids);
    }
    CheckRepository(leg, source.repository().size(), index, "");
    CheckLruBudget(leg, &cache, "score cache", index);
    CheckLruBudget(leg, &memo, "classification memo", index);
    if (mark_docs == 0 && index >= mark) {
      mark_docs = index;
      leg.rss_mark_bytes = ReadRssBytes();
    }
  }
  leg.result.documents = index;
  leg.rss_end_bytes = ReadRssBytes();
  CheckNoInstances(leg, source);
  CheckRss(leg, mark_docs);
  leg.memo_hit_ratio = MemoHitRatio(&memo);
  return leg;
}

/// p99 of `latencies[begin, end)` in milliseconds.
double P99Ms(const std::vector<double>& latencies, size_t begin, size_t end) {
  std::vector<double> slice(latencies.begin() + begin,
                            latencies.begin() + end);
  if (slice.empty()) return 0.0;
  const size_t rank = (slice.size() * 99) / 100;
  std::nth_element(slice.begin(), slice.begin() + rank, slice.end());
  return slice[rank] * 1e3;
}

SoakLegReport RunLiveLeg() {
  SoakLegReport leg;
  leg.result.seed = kSeed;
  leg.result.scenario = "live, 4 tenants, WAL fsync none, wait ingests";
  const ScratchDir dir("soak");

  server::SourceManagerOptions options;
  for (size_t t = 0; t < kTenants; ++t) {
    options.tenants.push_back("soak-" + std::to_string(t));
  }
  options.wal_dir = dir.path();
  options.fsync_policy = store::FsyncPolicy::kNone;
  // Checkpoints (and the WAL truncation after each) run during the leg,
  // as they do over a server's life.
  options.checkpoint_interval = std::chrono::milliseconds(500);
  options.max_repository_docs = kSoakRepositoryCap;

  SoakStream stream;
  {
    // Declared first: the manager's metric handles point into it.
    obs::Registry registry;
    server::SourceManager manager(ServeSourceOptions(), options);
    for (const auto& [name, text] : stream.dtds()) {
      Status added = manager.AddDtdText(name, text);
      if (!added.ok()) {
        Violate(leg, "soak-setup", 0, added.ToString(), name);
        return leg;
      }
    }
    Status started = manager.Start(&registry);
    if (!started.ok()) {
      Violate(leg, "soak-setup", 0, started.ToString());
      manager.Drain();
      return leg;
    }

    // Preallocated and written through, so recording latencies adds no
    // resident memory inside the measured window.
    std::vector<double> latencies(kSoakDocuments, 0.0);
    const uint64_t mark = kSoakDocuments / 4;
    uint64_t index = 0;
    for (; index < kSoakDocuments; ++index) {
      const std::string text = stream.Next(index);
      StatusOr<xml::ArenaDocument> doc = xml::ParseArenaDocument(text);
      if (!doc.ok()) {
        Violate(leg, "soak-setup", index, doc.status().ToString());
        break;
      }
      // Rotating by the foreign period too spreads the drifting and the
      // foreign documents over every tenant.
      const std::string& tenant =
          options.tenants[(index + index / kForeignEvery) % kTenants];
      const auto start = std::chrono::steady_clock::now();
      server::SourceManager::EnqueueResult enqueued =
          manager.Enqueue(tenant, std::move(doc).value(), text, /*wait=*/true);
      if (enqueued.code != server::SourceManager::EnqueueCode::kOk ||
          enqueued.waiter == nullptr) {
        Violate(leg, "soak-ingest", index,
                "enqueue refused (code " +
                    std::to_string(static_cast<int>(enqueued.code)) + ") " +
                    enqueued.error,
                tenant);
        break;
      }
      server::SourceManager::IngestWaiter& waiter = *enqueued.waiter;
      {
        std::unique_lock<std::mutex> lock(waiter.mutex);
        waiter.cv.wait(lock, [&waiter] { return waiter.done; });
      }
      latencies[index] = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      if (!waiter.status.ok()) {
        Violate(leg, "soak-ingest", index, waiter.status.ToString(), tenant);
        break;
      }
      NoteOutcome(leg, waiter.outcome);
      if ((index + 1) % 1024 == 0 || index + 1 == mark) {
        for (const std::string& name : options.tenants) {
          StatusOr<server::SourceManager::TenantStats> stats =
              manager.StatsFor(name);
          if (stats.ok()) {
            CheckRepository(leg, stats->repository_size, index, name);
          }
        }
        CheckLruBudget(leg, manager.score_cache(), "score cache", index);
        CheckLruBudget(leg, manager.classification_memo(),
                       "classification memo", index);
      }
      if (index + 1 == mark) {
        leg.untrimmed_rss_mark_bytes = ReadUntrimmedRssBytes();
        leg.rss_mark_bytes = ReadRssBytes();
      }
    }
    leg.result.documents = index;
    leg.untrimmed_rss_end_bytes = ReadUntrimmedRssBytes();
    leg.rss_end_bytes = ReadRssBytes();
    leg.memo_hit_ratio = MemoHitRatio(manager.classification_memo());
    manager.Drain();

    for (const std::string& name : options.tenants) {
      const core::XmlSource* source = manager.source(name);
      if (source == nullptr) continue;
      CheckNoInstances(leg, *source);
      CheckRepository(leg, source->repository().size(), index, name);
      leg.evicted += registry
                         .GetCounter("dtdevolve_repository_evictions_total",
                                     "", manager.MetricLabelsFor(name))
                         .Value();
    }
    if (index == kSoakDocuments) {
      CheckRss(leg, mark);
      CheckRssGrowth(leg, mark, leg.untrimmed_rss_mark_bytes,
                     leg.untrimmed_rss_end_bytes,
                     kSoakMaxUntrimmedRssBytesPerDoc,
                     "soak-untrimmed-rss-per-doc",
                     &leg.untrimmed_rss_bytes_per_doc);
      leg.p99_q2_ms = P99Ms(latencies, kSoakDocuments / 4, kSoakDocuments / 2);
      leg.p99_q4_ms =
          P99Ms(latencies, 3 * kSoakDocuments / 4, kSoakDocuments);
      if (leg.p99_q4_ms > kSoakMaxP99Ratio * leg.p99_q2_ms) {
        char detail[160];
        std::snprintf(detail, sizeof(detail),
                      "last-quarter ingest p99 %.3f ms is over %.0fx the "
                      "second quarter's %.3f ms",
                      leg.p99_q4_ms, kSoakMaxP99Ratio, leg.p99_q2_ms);
        Violate(leg, "soak-p99-ratio", index, detail);
      }
    }
  }
  return leg;
}

}  // namespace

SoakReport RunSoak() {
  SoakReport report;
  report.legs.push_back(RunEngineLeg());
  TrimHeap();
  report.legs.push_back(RunLiveLeg());
  return report;
}

std::string FormatSoakReport(const SoakReport& report) {
  std::ostringstream out;
  for (const SoakLegReport& leg : report.legs) {
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "soak %s: %llu documents, %llu evolutions (each followed by a "
        "repository re-classification pass, %llu recovered), %llu evicted, "
        "memo hit ratio %.3f, repository max %zu (cap %zu), "
        "VmRSS %.1f -> %.1f MB, %+.1f B/doc after the 25%% mark "
        "(bound %.0f)",
        leg.result.scenario.c_str(),
        static_cast<unsigned long long>(leg.result.documents),
        static_cast<unsigned long long>(leg.result.evolutions),
        static_cast<unsigned long long>(leg.reclassified),
        static_cast<unsigned long long>(leg.evicted), leg.memo_hit_ratio,
        leg.max_repository, kSoakRepositoryCap,
        static_cast<double>(leg.rss_mark_bytes) / 1e6,
        static_cast<double>(leg.rss_end_bytes) / 1e6, leg.rss_bytes_per_doc,
        kSoakMaxRssBytesPerDoc);
    out << line;
    if (leg.untrimmed_rss_mark_bytes > 0) {
      std::snprintf(line, sizeof(line),
                    ", untrimmed %+.1f B/doc (bound %.0f)",
                    leg.untrimmed_rss_bytes_per_doc,
                    kSoakMaxUntrimmedRssBytesPerDoc);
      out << line;
    }
    if (leg.p99_q2_ms > 0.0) {
      std::snprintf(line, sizeof(line),
                    ", ingest p99 %.3f ms (2nd quarter) -> %.3f ms (last; "
                    "bound %.0fx)",
                    leg.p99_q2_ms, leg.p99_q4_ms, kSoakMaxP99Ratio);
      out << line;
    }
    out << "\n";
  }
  out << "soak: "
      << (report.ok() ? "memory stayed bounded in every leg"
                      : "bounded-memory invariant violated")
      << "\n";
  for (const SoakLegReport& leg : report.legs) {
    if (!leg.result.ok()) out << FormatScenario(leg.result);
  }
  return out.str();
}

}  // namespace dtdevolve::check
