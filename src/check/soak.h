#ifndef DTDEVOLVE_CHECK_SOAK_H_
#define DTDEVOLVE_CHECK_SOAK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.h"

namespace dtdevolve::check {

/// Bounded-memory soak (`dtdevolve check --soak`): feeds one long,
/// deterministic document stream through the serving configuration
/// (`serve`'s σ/τ/min-docs, library defaults otherwise) and asserts that
/// memory plateaus. The stream interleaves recurring valid shapes (memo
/// hits, most of the traffic), one drifting scenario (memo misses,
/// evolutions and the repository re-classification after each) and a
/// trickle of foreign documents that never classify (the repository
/// and its cap). Two legs run it:
///
///   engine — one `XmlSource`, fed in arena batches of 32 the way a
///     shard worker feeds it, with the repository capped by evicting its
///     oldest documents after each batch;
///   live   — a `SourceManager` with 4 tenants, the WAL in a scratch
///     directory at fsync policy none (the leg measures memory, not the
///     disk), `max_repository_docs` as the cap, and every document
///     ingested with `wait`.
///
/// Both legs assert:
///   soak-instances   — `InstancesOf` is empty for every DTD;
///   soak-lru-budget  — the score cache's and the memo's
///     `GetStats().bytes` never exceed their budgets;
///   soak-repository-cap — the repository never exceeds its cap;
///   soak-rss-per-doc — `VmRSS`, read after `malloc_trim`, grows by at
///     most `kSoakMaxRssBytesPerDoc` per document from the 25 % mark to
///     the end. Serving keeps nothing per document (the event log is
///     off, as in `serve`), so the growth measures leaks; a retained
///     DOM would cost about 1 KB/doc, the event log about 88 B/doc.
/// The live leg also asserts
///   soak-untrimmed-rss-per-doc — `VmRSS` read without the trim, which
///     also counts what the shard workers' allocator arenas keep
///     resident, grows by at most `kSoakMaxUntrimmedRssBytesPerDoc`;
///   soak-p99-ratio   — the ingest p99 of the last quarter is at most
///     `kSoakMaxP99Ratio` times that of the second quarter (an in-run
///     ratio, not an absolute latency).
///
/// Both LRU budgets are small (`kSoakLruBudgetBytes`) so that they fill
/// during the first quarter and the measured window sees the plateau.

/// Documents per leg.
inline constexpr uint64_t kSoakDocuments = 200000;
/// Per-document RSS growth allowed between the 25 % mark and the end.
/// Measured 0.9 B/doc (engine) and 5.4 B/doc (live) over five runs.
inline constexpr double kSoakMaxRssBytesPerDoc = 32.0;
/// The same for the live leg's untrimmed reading; measured 5.3–5.4
/// B/doc over the same five runs.
inline constexpr double kSoakMaxUntrimmedRssBytesPerDoc = 32.0;
/// Largest allowed last-quarter / second-quarter ingest p99 ratio.
inline constexpr double kSoakMaxP99Ratio = 3.0;
/// Budget of the score cache and of the classification memo, each.
inline constexpr size_t kSoakLruBudgetBytes = 256 << 10;
/// Repository cap (per tenant in the live leg).
inline constexpr size_t kSoakRepositoryCap = 256;

struct SoakLegReport {
  /// `scenario` names the leg; `violations` are the failed assertions.
  ScenarioResult result;
  uint64_t reclassified = 0;  // repository documents recovered
  uint64_t evicted = 0;       // repository documents dropped at the cap
  double memo_hit_ratio = 0.0;
  size_t max_repository = 0;  // largest repository size seen
  /// VmRSS at the 25 % mark and at the end; growth per document between.
  int64_t rss_mark_bytes = 0;
  int64_t rss_end_bytes = 0;
  double rss_bytes_per_doc = 0.0;
  /// The same, read without the trim (live leg only).
  int64_t untrimmed_rss_mark_bytes = 0;
  int64_t untrimmed_rss_end_bytes = 0;
  double untrimmed_rss_bytes_per_doc = 0.0;
  /// Ingest p99 of the second and the last quarter (live leg only).
  double p99_q2_ms = 0.0;
  double p99_q4_ms = 0.0;
};

struct SoakReport {
  std::vector<SoakLegReport> legs;

  bool ok() const {
    for (const SoakLegReport& leg : legs) {
      if (!leg.result.ok()) return false;
    }
    return true;
  }
};

/// Runs the engine leg, then the live leg.
SoakReport RunSoak();

std::string FormatSoakReport(const SoakReport& report);

}  // namespace dtdevolve::check

#endif  // DTDEVOLVE_CHECK_SOAK_H_
