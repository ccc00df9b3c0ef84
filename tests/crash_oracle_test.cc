// The crash-recovery oracle itself (src/check): a small fault-injection
// sweep must hold the crash-recovery and recovery-idempotence
// invariants in both legs (per-document append and group commit),
// enumerate a sensible number of crash points, and surface
// violations with a replay command. Kept small — the durable pipeline
// re-runs once per crash point — while `dtdevolve check
// --crash-recovery` runs the full-width sweep.

#include <gtest/gtest.h>

#include <string>

#include "check/oracle.h"

namespace dtdevolve::check {
namespace {

TEST(CrashOracleTest, RecoveryMatchesAckedPrefixAcrossCrashPoints) {
  CrashOracleOptions options;
  options.sweep.scenarios = 2;
  options.sweep.seed = 1;
  options.sweep.max_documents = 12;
  options.max_crash_points = 16;
  options.checkpoint_every = 5;  // the sweep crosses checkpoint writes
  SweepReport report = RunSweep(options);
  EXPECT_TRUE(report.ok()) << FormatSweepReport(report);
  EXPECT_EQ(report.scenarios_run, 2u);
  // Vacuity guard: the sweep must have injected real crashes.
  EXPECT_GE(report.crash_points, 16u);
  EXPECT_GT(report.documents, 0u);
}

TEST(CrashOracleTest, GroupCommitLegSweepsItsOwnCrashPoints) {
  // Each scenario sweeps two legs: one append per document, then groups
  // written before one commit. Each leg enumerates its own crash points.
  CrashOracleOptions options;
  options.sweep.max_documents = 10;
  options.max_crash_points = 12;
  options.checkpoint_every = 4;
  ScenarioResult result = RunCrashScenario(3, options);
  EXPECT_TRUE(result.ok()) << FormatScenario(result);
  EXPECT_GE(result.crash_points, 2 * options.max_crash_points);
}

TEST(CrashOracleTest, InductionSweepCoversInduceAcceptRecords) {
  CrashOracleOptions options;
  options.induction = true;
  options.sweep.scenarios = 2;
  options.sweep.seed = 1;
  options.sweep.max_documents = 16;
  options.max_crash_points = 20;
  options.checkpoint_every = 7;  // checkpoints land between accepts too
  SweepReport report = RunSweep(options);
  EXPECT_TRUE(report.ok()) << FormatSweepReport(report);
  EXPECT_EQ(report.scenarios_run, 2u);
  EXPECT_GE(report.crash_points, 20u);
}

TEST(CrashOracleTest, SweepIsDeterministic) {
  CrashOracleOptions options;
  options.sweep.max_documents = 8;
  options.max_crash_points = 6;
  ScenarioResult first = RunCrashScenario(5, options);
  ScenarioResult second = RunCrashScenario(5, options);
  EXPECT_TRUE(first.ok()) << FormatScenario(first);
  EXPECT_EQ(first.documents, second.documents);
  EXPECT_EQ(first.crash_points, second.crash_points);
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

/// A failing scenario appended to the report a sweep of `options` starts
/// from (a sweep of no scenarios runs nothing).
SweepReport FailingReport(CrashOracleOptions options) {
  options.sweep.scenarios = 0;
  SweepReport report = RunSweep(options);
  report.scenarios_run = 1;
  report.crash_points = 4;
  ScenarioResult scenario;
  scenario.seed = 42;
  scenario.scenario = "synthetic";
  scenario.violations.push_back(
      {"crash-recovery", "mail", 3, "state diverged"});
  report.failures.push_back(scenario);
  return report;
}

TEST(CrashOracleTest, ReportCarriesReplayCommand) {
  const std::string text = FormatSweepReport(FailingReport({}));
  EXPECT_NE(text.find("--crash-recovery"), std::string::npos);
  EXPECT_NE(text.find("--seed 42"), std::string::npos);

  CrashOracleOptions options;
  options.sweep.scenarios = 0;
  SweepReport clean = RunSweep(options);
  clean.scenarios_run = 2;
  clean.crash_points = 64;
  EXPECT_NE(FormatSweepReport(clean).find("matched"), std::string::npos);
}

TEST(CrashOracleTest, ReplayLineCarriesEveryFlagTheSweepRead) {
  // An induction sweep at non-default sizes replays only with all of
  // them: the defaults would rerun a different scenario.
  CrashOracleOptions options;
  options.induction = true;
  options.sweep.max_documents = 12;
  options.max_crash_points = 16;
  options.checkpoint_every = 5;
  const std::string text = FormatSweepReport(FailingReport(options));
  EXPECT_NE(text.find("  replay: dtdevolve check --crash-recovery --induction "
                      "--seed 42 --scenarios 1 --max-documents 12 "
                      "--crash-points 16 --checkpoint-every 5\n"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace dtdevolve::check
