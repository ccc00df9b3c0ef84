#ifndef DTDEVOLVE_CHECK_ORACLE_H_
#define DTDEVOLVE_CHECK_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/source.h"

namespace dtdevolve::check {

/// Differential correctness oracle: replays randomized drift scenarios
/// (synthesized from `workload/` by a seed) through the full
/// classify → record → check → evolve pipeline and asserts the paper's
/// promises after every step:
///
///  1. new-window-validity      — a document whose recorded (µ-surviving)
///     structure put an element in the *new* window validates against the
///     rebuilt declaration;
///  2. restriction-preserves-validity / misc-preserves-validity —
///     old-window operator restriction and the misc window's OR never
///     invalidate an instance that was valid before the evolution;
///  3. batch-divergence         — `ProcessBatch` at every jobs level
///     produces byte-identical outcomes, events, evolved DTDs and
///     extended-DTD state to feeding documents one at a time;
///  4. persist-fixed-point      — serialize → deserialize → re-serialize
///     of the extended DTD is a byte-level fixed point (checkpoint files
///     are covered by the crash oracle's clean-pass recovery);
///  5. trigger-accounting       — the recorded aggregates (Σ nonvalid /
///     elements over Doc_T) equal an independent recount of the raw
///     documents with a fresh Validator.
///
/// All randomness is derived from the scenario seed, so a failure is
/// replayed exactly by re-running the same seed; `MinimizeFailure`
/// shrinks a failing run to the shortest document prefix that still
/// violates an invariant.

/// One invariant violation, pinned to the reference-stream position where
/// it was detected.
struct Violation {
  std::string invariant;  // stable id, e.g. "batch-divergence"
  std::string dtd_name;
  uint64_t document_index = 0;
  std::string detail;
};

/// Per-scenario violation cap: one genuine divergence tends to cascade
/// (every later accounting check also fails), so collecting everything
/// buries the root cause.
inline constexpr size_t kMaxViolationsPerScenario = 24;

/// What a scenario counts, and what a sweep adds up over its scenarios.
/// Every mode counts documents; each other tally, the modes that have it.
struct Tallies {
  uint64_t documents = 0;
  uint64_t evolutions = 0;
  uint64_t crash_points = 0;  // fault-injected crashes exercised
  uint64_t candidates = 0;    // candidates proposed across all rounds
  uint64_t accepts = 0;       // candidates promoted into the live set
  uint64_t polls = 0;         // follower polls simulated
  uint64_t faults = 0;        // torn pages, re-deliveries, forced gaps
  uint64_t bootstraps = 0;    // checkpoint bootstraps (initial + post-gap)
  uint64_t requests = 0;      // HTTP requests driven
  uint64_t rejections = 0;    // documented 413/429/503 rejections observed
  uint64_t recoveries = 0;    // shards probed back to ready after a fault
  uint64_t evictions = 0;     // repository evictions enforced and replayed
  uint64_t wal_replays = 0;   // scenarios that also ran the WAL-replay leg

  Tallies& operator+=(const Tallies& other);
};

struct ScenarioResult : Tallies {
  uint64_t seed = 0;
  std::string scenario;  // human label, e.g. "bibliography+forum mutated"
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  /// Records a violation unless `kMaxViolationsPerScenario` are recorded.
  void AddViolation(std::string invariant, std::string dtd_name,
                    uint64_t index, std::string detail);
};

/// The options every seeded sweep reads; each oracle's options embed them
/// with that oracle's defaults.
struct SweepOptions {
  /// Number of scenarios the sweep derives from `seed` (seed, seed+1, …).
  uint64_t scenarios = 20;
  uint64_t seed = 1;
  /// Feed only the first `max_documents` documents (0 = the full
  /// scenario). `MinimizeFailure` shrinks through this knob; prefixes are
  /// deterministic because generation never depends on the cap.
  uint64_t max_documents = 0;
  /// The sweep stops collecting after this many failing scenarios.
  uint64_t max_failures = 1;
};

/// The seeded sweeps of `dtdevolve check`; each has its own summary line.
enum class SweepMode {
  kDifferential,
  kCrashRecovery,
  kInduction,
  kReplication,
  kOverload,
  kParsePath,
};

struct SweepReport : Tallies {
  SweepMode mode = SweepMode::kDifferential;
  /// What the replay line of a failing scenario needs: the sweep's
  /// options, the mode's flags (before `--seed`) and the flags of the
  /// mode's own options with this run's values (after `--max-documents`).
  SweepOptions sweep;
  std::string mode_flags;
  std::string option_flags;
  uint64_t scenarios_run = 0;
  std::vector<ScenarioResult> failures;

  bool ok() const { return failures.empty(); }
};

/// The summary line of a sweep, then each failure with its replay line:
/// every flag the mode reads, with the run's values.
std::string FormatSweepReport(const SweepReport& report);

// --- State digest -----------------------------------------------------------

/// Named sections of pipeline state, compared byte for byte.
using DigestSections = std::vector<std::pair<std::string, std::string>>;

/// One digest of a source's state. The durable sections are what the
/// durability layer promises to preserve across a crash, a checkpoint or
/// a replica bootstrap: the loop counters, the repository (ids and
/// compact document bytes), and per DTD its declaration and serialized
/// extended state. The process-local sections — outcomes, the event log
/// and the pending candidates — exist only where they were asked for.
struct StateDigest {
  DigestSections durable;
  DigestSections local;

  bool operator==(const StateDigest&) const = default;
};

/// Digests the durable sections of `src`; given `outcomes`, also its
/// process-local sections (those outcomes, the event log, the candidates).
StateDigest DigestOf(
    const core::XmlSource& src,
    const std::vector<core::XmlSource::ProcessOutcome>* outcomes = nullptr);

/// The first section where `actual` differs from `expected`, with its
/// first differing line; empty when the digests are equal.
std::string DigestDiff(const StateDigest& expected, const StateDigest& actual);

// --- Differential oracle ----------------------------------------------------

struct OracleOptions {
  SweepOptions sweep;
  /// Jobs levels the batch replicas run at; every level is compared
  /// byte-for-byte against the sequential reference.
  std::vector<size_t> jobs = {1, 2, 8};
};

/// Replays the scenario derived from `scenario_seed` and checks every
/// invariant. Deterministic: equal seeds and options give equal results.
ScenarioResult RunScenario(uint64_t scenario_seed,
                           const OracleOptions& options = {});

/// Sweeps `options.sweep` through `RunScenario`.
SweepReport RunSweep(const OracleOptions& options);

// --- Crash-recovery oracle --------------------------------------------------

/// Options of the crash-recovery sweep. Each scenario
/// sweeps two legs of the durable pipeline — WAL commit before every
/// apply, periodic checkpoints — one `Wal::Append` per document, then
/// groups of three documents written before one `Wal::Commit` (the
/// server's group commit). Each leg runs once cleanly to enumerate its
/// faultable I/O operations, then once per chosen crash point with the
/// fault injector (`io/fault.h`) set to crash there: the op fails (with
/// EIO or ENOSPC, possibly persisting a torn prefix of a write) and
/// every later I/O op fails too, as if the process had died. Recovery
/// then boots from what is on disk, and the invariant is checked:
///
///   crash-recovery — the recovered pipeline state is byte-identical to
///   sequentially replaying exactly the acked documents (those whose
///   commit returned OK), or, in the append leg, the acked documents
///   plus the single in-flight one — a crash between a record's last
///   byte and its fsync return leaves it durable but unacked, and
///   at-least-once ack semantics admit exactly that one extra. In the
///   group-commit leg any prefix between the acked and the written
///   documents passes: every record of the crashed group may be on disk;
///
///   recovery-idempotence — recovering a second time from the same
///   directory yields the same state (a crash mid-recovery is harmless).
struct CrashOracleOptions {
  /// 40 documents per scenario: the durable run re-executes per crash
  /// point, so scenarios stay small.
  SweepOptions sweep{5, 1, 40, 1};
  /// Crash points per scenario, spread evenly over the clean run's
  /// faultable ops (0 = every op).
  uint64_t max_crash_points = 64;
  /// Checkpoint cadence, in acked documents (0 = never checkpoint).
  uint64_t checkpoint_every = 16;
  /// Sweep induction scenarios instead of drift scenarios: the durable
  /// run ends with candidate induction and WAL-logged accepts, so the
  /// crash points cover the induce-accept record type (append, torn
  /// tail, checkpoint, replay through `AdoptInducedDtd`).
  bool induction = false;
};

/// Sweeps crash points through the scenario derived from `scenario_seed`,
/// counting them in `crash_points`.
ScenarioResult RunCrashScenario(uint64_t scenario_seed,
                                const CrashOracleOptions& options = {});

/// Sweeps `options.sweep` through `RunCrashScenario`.
SweepReport RunSweep(const CrashOracleOptions& options);

// --- Induction oracle -------------------------------------------------------

/// Options of the induction oracle. Each scenario
/// seeds one drift family's DTD and interleaves its stream with a
/// mixed-population stream (disjoint root tags) that drains into the
/// repository, then drives the full candidate lifecycle — induce →
/// accept best-coverage-first → re-induce — and asserts:
///
///   candidate-coverage-accounting — a candidate's `validated` set and
///     `coverage` equal an independent recount of its members with a
///     fresh Validator over the candidate DTD, and meet the configured
///     coverage floor;
///   induced-dtd-roundtrip — every candidate DTD passes `Check` and
///     survives WriteDtd → ParseDtd byte-compatibly re-checked;
///   accept-member-validity — after an accept, the *live* DTD the
///     candidate became validates every member the candidate claimed as
///     validated;
///   accept-reclassify-accounting — exactly `reclassified` documents
///     left the repository, and the accepted candidate's id is never
///     reissued;
///   induction-batch-divergence — replaying the stream through
///     `ProcessBatch` at jobs levels 1, 2 and 8 plus the identical
///     induce/accept op sequence lands on byte-identical state
///     (including the pending-candidate list).
struct InductionOracleOptions {
  SweepOptions sweep;
};

/// Replays the induction scenario derived from `scenario_seed` and
/// checks every induction invariant, counting `candidates` and
/// `accepts`. Deterministic.
ScenarioResult RunInductionScenario(uint64_t scenario_seed,
                                    const InductionOracleOptions& options = {});

/// Sweeps `options.sweep` through `RunInductionScenario`.
SweepReport RunSweep(const InductionOracleOptions& options);

// --- Replication oracle -----------------------------------------------------

/// Options of the replication-correctness sweep.
/// Each scenario runs a step-wise primary — WAL append + apply per
/// operation, a checkpoint (plus WAL truncation) every
/// `checkpoint_every` acked operations — and interleaves seeded polls of
/// a simulated follower that speaks the replication protocol in-process:
/// bootstrap from the primary's checkpoint blob
/// (`EncodeCheckpointBlob` → `DecodeCheckpointBlob` →
/// `ApplyCheckpointToSource`, the wire path), then stream WAL pages
/// (`ExportWalRecords` from the follower's applied LSN) and apply each
/// record through the shared replay dispatch (`ApplyWalRecordToSource`).
///
/// Fault injection is positional, mirroring what a network can actually
/// do to the stream: pages truncated at arbitrary byte offsets (a
/// disconnect mid-frame — the decoder must stop cleanly at the torn
/// frame and the next poll resume), pages re-delivered from one LSN back
/// (at-least-once delivery — re-applied records must be skipped
/// idempotently), and primary checkpoint truncation racing a lagging
/// follower (the gap answer — HTTP 410 on the wire — must force a
/// re-bootstrap that lands on consistent state). Invariants:
///
///   replication-prefix-consistency — after *every* poll, the follower's
///     state digest is byte-identical to the sequential replay of
///     exactly the primary's first `applied` acked operations;
///   replication-convergence — once faults stop, the follower reaches
///     the primary's final state, byte-identically;
///   replication-restart — a fresh follower bootstrapping from the final
///     checkpoint (a follower restart) converges to the same bytes.
///
/// Odd seeds replay induction scenarios, so the replicated stream covers
/// the induce-accept WAL record type too.
struct ReplicationOracleOptions {
  /// 40 documents per scenario: every op is digested.
  SweepOptions sweep{20, 1, 40, 1};
  /// Primary checkpoint cadence, in acked operations (0 = never — the
  /// truncation/re-bootstrap path is then never exercised).
  uint64_t checkpoint_every = 16;
};

/// Replays the replication scenario derived from `scenario_seed`,
/// counting `polls`, `faults` and `bootstraps`. Deterministic.
ScenarioResult RunReplicationScenario(
    uint64_t scenario_seed, const ReplicationOracleOptions& options = {});

/// Sweeps `options.sweep` through `RunReplicationScenario`.
SweepReport RunSweep(const ReplicationOracleOptions& options);

// --- Parse-path oracle ------------------------------------------------------

/// Options of the parse-path-equivalence sweep.
/// Each scenario's documents are serialized and re-read through BOTH
/// parsers — the two-pass DOM parser (`xml::ParseDocument`) and the
/// single-pass streaming reader (`xml::ParseArenaDocument`) — and the
/// equivalence asserted at three levels:
///
///   parse-path-document    — the parsers agree on accept/reject (with
///     the identical error message), the arena tree converts to a
///     structurally equal DOM (tags, attributes, child order, collapsed
///     text, DOCTYPE fields), and the arena's parse-time root
///     fingerprint is bit-identical to `similarity::SubtreeFingerprints`
///     computed over the DOM tree after the fact;
///   parse-path-equivalence — two full pipelines fed the identical text
///     stream — the pure DOM reference (`xml::ParseDocument` then
///     `XmlSource::Process(xml::Document)`, classification memo off)
///     and the ingest path (`ProcessText`: arena parse + memo replay) —
///     land on byte-identical outcomes, events, counters, repository,
///     evolved DTDs and extended-DTD state;
///   parse-path-replay      — WAL replay hits the same code path: on
///     every fourth seed the scenario's stream is appended to a real WAL
///     and recovered (`store::RecoverSource` replays every document
///     record through `ProcessText`), and the recovery must be
///     byte-identical to the durable sections of the streaming run.
struct ParsePathOracleOptions {
  SweepOptions sweep;
};

/// Replays the scenario derived from `scenario_seed` through both parse
/// paths and checks every parse-path invariant, counting `wal_replays`.
/// Deterministic.
ScenarioResult RunParsePathScenario(uint64_t scenario_seed,
                                    const ParsePathOracleOptions& options = {});

/// Sweeps `options.sweep` through `RunParsePathScenario`.
SweepReport RunSweep(const ParsePathOracleOptions& options);

/// Shrinks a failing scenario to the shortest document prefix that still
/// fails (binary search over `max_documents`). Returns the full run when
/// the scenario does not fail at all.
ScenarioResult MinimizeFailure(uint64_t scenario_seed,
                               const OracleOptions& options = {});

/// Human-readable summary of one scenario for the CLI and test logs.
std::string FormatScenario(const ScenarioResult& result);

}  // namespace dtdevolve::check

#endif  // DTDEVOLVE_CHECK_ORACLE_H_
