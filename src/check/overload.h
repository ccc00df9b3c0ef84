#ifndef DTDEVOLVE_CHECK_OVERLOAD_H_
#define DTDEVOLVE_CHECK_OVERLOAD_H_

#include <cstdint>

#include "check/oracle.h"

namespace dtdevolve::check {

/// Overload-resilience oracle (`dtdevolve check --overload`): each
/// scenario boots a real in-process `IngestServer` (ephemeral port,
/// WAL in a scratch directory) and abuses it over actual HTTP, then
/// asserts the overload contract:
///
///   overload-status-codes — every rejection a hostile client observes
///     is one of the documented codes (413 over the document-size
///     quota, 429 over the ingest rate, 503 at the connection cap /
///     pipeline cap / full queue / failed or read-only WAL), and every
///     429/503 carries `Retry-After`;
///   overload-isolation / overload-exactly-once — a well-behaved victim
///     tenant flooded from a neighboring tenant loses nothing: its
///     acked documents land exactly once, proven by digesting the
///     victim shard against a sequential replay of exactly the acked
///     bodies in ack order;
///   overload-quota-accounting — the tenant-labeled rejection counters
///     equal the rejections the clients actually observed, and the
///     token bucket never admits more than burst + rate · elapsed;
///   overload-connection-cap — accepts over `--max-connections` get an
///     immediate 503 and a close, and accepting resumes as soon as a
///     slot frees;
///   overload-loop-stall — the event loop answers a health probe within
///     the scenario deadline at every point of the abuse;
///   overload-readiness — `/healthz?ready=1` reports 503 while a shard
///     is degraded or read-only (injected WAL faults, `io/fault.h`) and
///     returns to 200 after the fault clears (the recovery probe);
///   overload-eviction-recovery — a run whose WAL contains repository
///     eviction records recovers byte-identically from disk, twice
///     (idempotence), including evictions logged after a checkpoint.
///
/// Scenario kinds rotate by seed: rate-limit flood beside a victim,
/// oversized bodies, connection churn against the cap, WAL faults
/// mid-flood (degraded → read-only → recovered), and repository-quota
/// eviction with crash recovery. All randomness derives from the
/// scenario seed.
struct OverloadOracleOptions {
  /// 100 scenarios; `max_documents` caps the documents each scenario
  /// sends (0 = the kind's default).
  SweepOptions sweep{100, 1, 0, 1};
};

/// Runs the hostile scenario derived from `scenario_seed`, counting
/// `requests`, `rejections`, `recoveries` and `evictions`.
ScenarioResult RunOverloadScenario(uint64_t scenario_seed,
                                   const OverloadOracleOptions& options = {});

/// Sweeps `options.sweep` through `RunOverloadScenario`.
SweepReport RunSweep(const OverloadOracleOptions& options);

}  // namespace dtdevolve::check

#endif  // DTDEVOLVE_CHECK_OVERLOAD_H_
