// The differential oracle itself (src/check): the seeded scenario sweep
// holds every invariant, runs are bit-deterministic, prefix truncation is
// exact (what failing-seed minimization relies on), and the report
// formatting surfaces violations with their replay seed.

#include <gtest/gtest.h>

#include <string>

#include "check/oracle.h"

namespace dtdevolve::check {
namespace {

TEST(CheckerTest, InvariantsHoldOnSeededScenarios) {
  OracleOptions options;
  options.sweep.scenarios = 40;
  options.sweep.seed = 1;
  SweepReport report = RunSweep(options);
  EXPECT_TRUE(report.ok()) << FormatSweepReport(report);
  EXPECT_EQ(report.scenarios_run, 40u);
  // The sweep must actually exercise the pipeline, not vacuously pass.
  EXPECT_GT(report.documents, 1000u);
  EXPECT_GT(report.evolutions, 10u);
}

TEST(CheckerTest, ScenarioRunsAreDeterministic) {
  ScenarioResult first = RunScenario(7);
  ScenarioResult second = RunScenario(7);
  EXPECT_EQ(first.scenario, second.scenario);
  EXPECT_EQ(first.documents, second.documents);
  EXPECT_EQ(first.evolutions, second.evolutions);
  EXPECT_EQ(first.violations.size(), second.violations.size());
  EXPECT_TRUE(first.ok()) << FormatScenario(first);
}

TEST(CheckerTest, MaxDocumentsTruncatesToExactPrefix) {
  ScenarioResult full = RunScenario(11);
  ASSERT_GT(full.documents, 10u);
  OracleOptions capped;
  capped.sweep.max_documents = 10;
  ScenarioResult prefix = RunScenario(11, capped);
  EXPECT_EQ(prefix.documents, 10u);
  EXPECT_EQ(prefix.scenario, full.scenario);
  EXPECT_TRUE(prefix.ok()) << FormatScenario(prefix);
}

TEST(CheckerTest, MinimizeReturnsFullRunWhenScenarioPasses) {
  OracleOptions options;
  ScenarioResult full = RunScenario(3, options);
  ASSERT_TRUE(full.ok()) << FormatScenario(full);
  ScenarioResult minimized = MinimizeFailure(3, options);
  EXPECT_TRUE(minimized.ok());
  EXPECT_EQ(minimized.documents, full.documents);
}

TEST(CheckerTest, CustomJobsLevelsAreCompared) {
  OracleOptions options;
  options.sweep.scenarios = 3;
  options.sweep.seed = 21;
  options.jobs = {1, 3, 5};
  SweepReport report = RunSweep(options);
  EXPECT_TRUE(report.ok()) << FormatSweepReport(report);
}

TEST(CheckerTest, InductionInvariantsHoldOnSeededScenarios) {
  InductionOracleOptions options;
  options.sweep.scenarios = 25;
  options.sweep.seed = 1;
  SweepReport report = RunSweep(options);
  EXPECT_TRUE(report.ok()) << FormatSweepReport(report);
  EXPECT_EQ(report.scenarios_run, 25u);
  // The sweep must drive the whole candidate lifecycle, not vacuously
  // pass: candidates get induced and some get promoted.
  EXPECT_GT(report.candidates, 25u);
  EXPECT_GT(report.accepts, 10u);
}

TEST(CheckerTest, InductionScenarioRunsAreDeterministic) {
  ScenarioResult first = RunInductionScenario(11);
  ScenarioResult second = RunInductionScenario(11);
  EXPECT_EQ(first.scenario, second.scenario);
  EXPECT_EQ(first.documents, second.documents);
  EXPECT_EQ(first.evolutions, second.evolutions);
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

TEST(CheckerTest, InductionReportFormattingCarriesReplaySeed) {
  // A sweep of no scenarios is the empty report of its options.
  InductionOracleOptions options;
  options.sweep.scenarios = 0;
  SweepReport report = RunSweep(options);
  report.scenarios_run = 1;
  report.documents = 30;
  ScenarioResult failing;
  failing.seed = 77;
  failing.scenario = "induction synthetic";
  failing.violations.push_back(
      {"accept-member-validity", "induced-invoice", 2, "member invalid"});
  report.failures.push_back(failing);

  std::string text = FormatSweepReport(report);
  EXPECT_NE(text.find("--induction --seed 77"), std::string::npos);
  EXPECT_NE(text.find("accept-member-validity"), std::string::npos);

  SweepReport clean = RunSweep(options);
  clean.scenarios_run = 2;
  EXPECT_NE(FormatSweepReport(clean).find("all invariants held"),
            std::string::npos);
}

TEST(CheckerTest, ReportFormattingCarriesReplaySeed) {
  ScenarioResult failing;
  failing.seed = 99;
  failing.scenario = "synthetic";
  failing.documents = 12;
  failing.violations.push_back(
      {"trigger-accounting", "mail", 7, "counter drift"});
  SweepReport report;
  report.scenarios_run = 1;
  report.documents = 12;
  report.failures.push_back(failing);

  std::string scenario_text = FormatScenario(failing);
  EXPECT_NE(scenario_text.find("seed=99"), std::string::npos);
  EXPECT_NE(scenario_text.find("trigger-accounting"), std::string::npos);
  EXPECT_NE(scenario_text.find("dtd=mail"), std::string::npos);

  std::string report_text = FormatSweepReport(report);
  EXPECT_NE(report_text.find("--seed 99"), std::string::npos);
  EXPECT_NE(report_text.find("failing scenario"), std::string::npos);

  SweepReport clean;
  clean.scenarios_run = 2;
  EXPECT_NE(FormatSweepReport(clean).find("all invariants held"),
            std::string::npos);
}

}  // namespace
}  // namespace dtdevolve::check
