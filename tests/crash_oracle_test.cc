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
  options.scenarios = 2;
  options.seed = 1;
  options.max_documents = 12;
  options.max_crash_points = 16;
  options.checkpoint_every = 5;  // the sweep crosses checkpoint writes
  CrashOracleReport report = RunCrashOracle(options);
  EXPECT_TRUE(report.ok()) << FormatCrashReport(report);
  EXPECT_EQ(report.scenarios_run, 2u);
  // Vacuity guard: the sweep must have injected real crashes.
  EXPECT_GE(report.crash_points, 16u);
  EXPECT_GT(report.documents, 0u);
}

TEST(CrashOracleTest, GroupCommitLegSweepsItsOwnCrashPoints) {
  // Each scenario sweeps two legs: one append per document, then groups
  // written before one commit. Each leg enumerates its own crash points.
  CrashOracleOptions options;
  options.scenarios = 1;
  options.seed = 3;
  options.max_documents = 10;
  options.max_crash_points = 12;
  options.checkpoint_every = 4;
  uint64_t points = 0;
  ScenarioResult result = RunCrashScenario(options.seed, options, &points);
  EXPECT_TRUE(result.ok()) << FormatScenario(result);
  EXPECT_GE(points, 2 * options.max_crash_points);
}

TEST(CrashOracleTest, InductionSweepCoversInduceAcceptRecords) {
  CrashOracleOptions options;
  options.induction = true;
  options.scenarios = 2;
  options.seed = 1;
  options.max_documents = 16;
  options.max_crash_points = 20;
  options.checkpoint_every = 7;  // checkpoints land between accepts too
  CrashOracleReport report = RunCrashOracle(options);
  EXPECT_TRUE(report.ok()) << FormatCrashReport(report);
  EXPECT_EQ(report.scenarios_run, 2u);
  EXPECT_GE(report.crash_points, 20u);
}

TEST(CrashOracleTest, SweepIsDeterministic) {
  CrashOracleOptions options;
  options.scenarios = 1;
  options.seed = 5;
  options.max_documents = 8;
  options.max_crash_points = 6;
  uint64_t points_first = 0;
  uint64_t points_second = 0;
  ScenarioResult first = RunCrashScenario(5, options, &points_first);
  ScenarioResult second = RunCrashScenario(5, options, &points_second);
  EXPECT_TRUE(first.ok()) << FormatScenario(first);
  EXPECT_EQ(first.documents, second.documents);
  EXPECT_EQ(points_first, points_second);
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

TEST(CrashOracleTest, ReportCarriesReplayCommand) {
  CrashOracleReport failing;
  failing.scenarios_run = 1;
  failing.crash_points = 4;
  ScenarioResult scenario;
  scenario.seed = 42;
  scenario.scenario = "synthetic";
  scenario.violations.push_back(
      {"crash-recovery", "mail", 3, "state diverged"});
  failing.failures.push_back(scenario);

  const std::string text = FormatCrashReport(failing);
  EXPECT_NE(text.find("--crash-recovery"), std::string::npos);
  EXPECT_NE(text.find("--seed 42"), std::string::npos);

  CrashOracleReport clean;
  clean.scenarios_run = 2;
  clean.crash_points = 64;
  EXPECT_NE(FormatCrashReport(clean).find("matched"), std::string::npos);
}

}  // namespace
}  // namespace dtdevolve::check
