#ifndef DTDEVOLVE_CHECK_ORACLE_H_
#define DTDEVOLVE_CHECK_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

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
///     of the extended DTD is a byte-level fixed point (and the file
///     round-trip through Save/LoadExtendedDtdFile matches);
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

struct ScenarioResult {
  uint64_t seed = 0;
  std::string scenario;  // human label, e.g. "bibliography+forum mutated"
  uint64_t documents = 0;
  uint64_t evolutions = 0;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

struct OracleOptions {
  /// Number of scenarios `RunOracle` derives from `seed` (seed, seed+1, …).
  uint64_t scenarios = 20;
  uint64_t seed = 1;
  /// Jobs levels the batch replicas run at; every level is compared
  /// byte-for-byte against the sequential reference.
  std::vector<size_t> jobs = {1, 2, 8};
  /// Feed only the first `max_documents` documents (0 = the full
  /// scenario). `MinimizeFailure` shrinks through this knob; prefixes are
  /// deterministic because generation never depends on the cap.
  uint64_t max_documents = 0;
  /// Run the serialize/deserialize fixed-point and file round-trip checks.
  bool check_persistence = true;
  /// `RunOracle` stops collecting after this many failing scenarios.
  uint64_t max_failures = 1;
};

struct OracleReport {
  uint64_t scenarios_run = 0;
  uint64_t documents = 0;
  uint64_t evolutions = 0;
  std::vector<ScenarioResult> failures;

  bool ok() const { return failures.empty(); }
};

/// Replays the scenario derived from `scenario_seed` and checks every
/// invariant. Deterministic: equal seeds and options give equal results.
ScenarioResult RunScenario(uint64_t scenario_seed,
                           const OracleOptions& options = {});

/// Runs `options.scenarios` scenarios starting at `options.seed`.
OracleReport RunOracle(const OracleOptions& options = {});

// --- Crash-recovery oracle --------------------------------------------------

/// Options of the crash-recovery sweep (`RunCrashOracle`). Each scenario
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
  uint64_t scenarios = 5;
  uint64_t seed = 1;
  /// Documents per scenario (the durable run re-executes per crash
  /// point, so this stays small).
  uint64_t max_documents = 40;
  /// Crash points per scenario, spread evenly over the clean run's
  /// faultable ops (0 = every op).
  uint64_t max_crash_points = 64;
  /// Checkpoint cadence, in acked documents (0 = never checkpoint).
  uint64_t checkpoint_every = 16;
  /// Stop after this many failing scenarios.
  uint64_t max_failures = 1;
  /// Sweep induction scenarios instead of drift scenarios: the durable
  /// run ends with candidate induction and WAL-logged accepts, so the
  /// crash points cover the induce-accept record type (append, torn
  /// tail, checkpoint, replay through `AdoptInducedDtd`).
  bool induction = false;
};

struct CrashOracleReport {
  uint64_t scenarios_run = 0;
  uint64_t crash_points = 0;  // fault-injected crashes exercised
  uint64_t documents = 0;
  std::vector<ScenarioResult> failures;

  bool ok() const { return failures.empty(); }
};

/// Sweeps crash points through the scenario derived from `scenario_seed`.
ScenarioResult RunCrashScenario(uint64_t scenario_seed,
                                const CrashOracleOptions& options = {},
                                uint64_t* crash_points = nullptr);

/// Runs `options.scenarios` crash sweeps starting at `options.seed`.
CrashOracleReport RunCrashOracle(const CrashOracleOptions& options = {});

std::string FormatCrashReport(const CrashOracleReport& report);

// --- Induction oracle -------------------------------------------------------

/// Options of the induction oracle (`RunInductionOracle`). Each scenario
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
///     `ProcessBatch` at every jobs level plus the identical
///     induce/accept op sequence lands on byte-identical state
///     (including the pending-candidate list).
struct InductionOracleOptions {
  uint64_t scenarios = 20;
  uint64_t seed = 1;
  /// Jobs levels of the batch replicas.
  std::vector<size_t> jobs = {1, 2, 8};
  /// Feed only the first `max_documents` documents (0 = full scenario).
  uint64_t max_documents = 0;
  /// `RunInductionOracle` stops collecting after this many failures.
  uint64_t max_failures = 1;
};

struct InductionOracleReport {
  uint64_t scenarios_run = 0;
  uint64_t documents = 0;
  uint64_t candidates = 0;  // candidates proposed across all rounds
  uint64_t accepts = 0;     // candidates promoted into the live set
  std::vector<ScenarioResult> failures;

  bool ok() const { return failures.empty(); }
};

/// Replays the induction scenario derived from `scenario_seed` and
/// checks every induction invariant. Deterministic.
ScenarioResult RunInductionScenario(uint64_t scenario_seed,
                                    const InductionOracleOptions& options = {},
                                    uint64_t* candidates = nullptr,
                                    uint64_t* accepts = nullptr);

/// Runs `options.scenarios` induction scenarios starting at
/// `options.seed`.
InductionOracleReport RunInductionOracle(
    const InductionOracleOptions& options = {});

std::string FormatInductionReport(const InductionOracleReport& report);

// --- Replication oracle -----------------------------------------------------

/// Options of the replication-correctness sweep (`RunReplicationOracle`).
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
///     state fingerprint is byte-identical to the sequential replay of
///     exactly the primary's first `applied` acked operations;
///   replication-convergence — once faults stop, the follower reaches
///     the primary's final state, byte-identically;
///   replication-restart — a fresh follower bootstrapping from the final
///     checkpoint (a follower restart) converges to the same bytes.
struct ReplicationOracleOptions {
  uint64_t scenarios = 20;
  uint64_t seed = 1;
  /// Documents per scenario (every op is fingerprinted, so this stays
  /// moderate).
  uint64_t max_documents = 40;
  /// Primary checkpoint cadence, in acked operations (0 = never — the
  /// truncation/re-bootstrap path is then never exercised).
  uint64_t checkpoint_every = 16;
  /// Stop after this many failing scenarios.
  uint64_t max_failures = 1;
  /// Mix induction scenarios in (alternating seeds), so the replicated
  /// stream covers the induce-accept WAL record type too.
  bool induction = true;
};

struct ReplicationOracleReport {
  uint64_t scenarios_run = 0;
  uint64_t documents = 0;
  uint64_t polls = 0;       // follower polls simulated
  uint64_t faults = 0;      // torn pages, re-deliveries, forced gaps
  uint64_t bootstraps = 0;  // checkpoint bootstraps (initial + post-gap)
  std::vector<ScenarioResult> failures;

  bool ok() const { return failures.empty(); }
};

/// Replays the replication scenario derived from `scenario_seed`,
/// accumulating poll/fault/bootstrap counts into `*tally` when given.
/// Deterministic.
ScenarioResult RunReplicationScenario(
    uint64_t scenario_seed, const ReplicationOracleOptions& options = {},
    ReplicationOracleReport* tally = nullptr);

/// Runs `options.scenarios` replication scenarios starting at
/// `options.seed`.
ReplicationOracleReport RunReplicationOracle(
    const ReplicationOracleOptions& options = {});

std::string FormatReplicationReport(const ReplicationOracleReport& report);

// --- Parse-path oracle ------------------------------------------------------

/// Options of the parse-path-equivalence sweep (`RunParsePathOracle`).
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
///   parse-path-replay      — WAL replay hits the same code path: the
///     scenario's stream is appended to a real WAL and recovered
///     (`store::RecoverSource` replays every document record through
///     `ProcessText`), and the recovery must be byte-identical to the
///     live run's durable state.
struct ParsePathOracleOptions {
  uint64_t scenarios = 20;
  uint64_t seed = 1;
  /// Feed only the first `max_documents` documents (0 = full scenario).
  uint64_t max_documents = 0;
  /// Stop after this many failing scenarios.
  uint64_t max_failures = 1;
  /// Run the WAL-replay leg on scenarios whose seed is divisible by this
  /// (0 = never): the leg recovers the stream from a real WAL and re-runs
  /// it live, so it is sampled rather than run per scenario.
  uint64_t wal_replay_every = 4;
};

struct ParsePathOracleReport {
  uint64_t scenarios_run = 0;
  uint64_t documents = 0;
  uint64_t wal_replays = 0;  // scenarios that also ran the WAL-replay leg
  std::vector<ScenarioResult> failures;

  bool ok() const { return failures.empty(); }
};

/// Replays the scenario derived from `scenario_seed` through both parse
/// paths and checks every parse-path invariant. Deterministic; sets
/// `*ran_wal_replay` when the sampled WAL-replay leg executed.
ScenarioResult RunParsePathScenario(uint64_t scenario_seed,
                                    const ParsePathOracleOptions& options = {},
                                    bool* ran_wal_replay = nullptr);

/// Runs `options.scenarios` parse-path scenarios starting at
/// `options.seed`.
ParsePathOracleReport RunParsePathOracle(
    const ParsePathOracleOptions& options = {});

std::string FormatParsePathReport(const ParsePathOracleReport& report);

/// Shrinks a failing scenario to the shortest document prefix that still
/// fails (binary search over `max_documents`). Returns the full run when
/// the scenario does not fail at all.
ScenarioResult MinimizeFailure(uint64_t scenario_seed,
                               const OracleOptions& options = {});

/// Human-readable summaries for the CLI and test logs.
std::string FormatScenario(const ScenarioResult& result);
std::string FormatReport(const OracleReport& report);

}  // namespace dtdevolve::check

#endif  // DTDEVOLVE_CHECK_ORACLE_H_
