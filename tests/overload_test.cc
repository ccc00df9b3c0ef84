// Overload-oracle regression suite: a reduced sweep of the hostile
// scenarios `dtdevolve check --overload` drives, wired into ctest so the
// overload contract is exercised on every run (the CLI's 100-scenario
// sweep stays the deep audit). One test per scenario kind keeps a
// failure attributable, plus one mixed sweep across all kinds.

#include "check/overload.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace dtdevolve::check {
namespace {

std::string Explain(const SweepReport& report) {
  std::string out = FormatSweepReport(report);
  for (const ScenarioResult& failure : report.failures) {
    out += "\n" + FormatScenario(failure);
  }
  return out;
}

// Scenario kinds rotate by `seed % 5`; a kind is pinned by driving
// individual seeds congruent to it.
SweepReport RunKind(uint64_t kind, int rounds) {
  SweepReport report;
  report.mode = SweepMode::kOverload;
  for (int round = 0; round < rounds; ++round) {
    const uint64_t seed = 5 * static_cast<uint64_t>(round + 1) + kind;
    ScenarioResult result = RunOverloadScenario(seed);
    ++report.scenarios_run;
    report += result;
    if (!result.ok()) report.failures.push_back(std::move(result));
  }
  return report;
}

TEST(OverloadOracleTest, RateLimitFloodScenariosHold) {
  // Flood one tenant against its token bucket while a victim tenant
  // ingests beside it.
  const SweepReport report = RunKind(0, 2);
  EXPECT_TRUE(report.ok()) << Explain(report);
  EXPECT_GE(report.rejections, 1u);
}

TEST(OverloadOracleTest, OversizedBodyScenarioHolds) {
  const SweepReport report = RunKind(1, 1);
  EXPECT_TRUE(report.ok()) << Explain(report);
  EXPECT_GE(report.rejections, 1u);
}

TEST(OverloadOracleTest, ConnectionCapScenarioHolds) {
  const SweepReport report = RunKind(2, 1);
  EXPECT_TRUE(report.ok()) << Explain(report);
  EXPECT_GE(report.rejections, 1u);
}

TEST(OverloadOracleTest, WalFaultScenarioRecoversReadiness) {
  const SweepReport report = RunKind(3, 1);
  EXPECT_TRUE(report.ok()) << Explain(report);
  EXPECT_GE(report.recoveries, 1u);
}

TEST(OverloadOracleTest, EvictionRecoveryScenariosHold) {
  // Two rounds (seeds 9 and 14) cover both repository-quota policies
  // (policy = seed % 2).
  const SweepReport report = RunKind(4, 2);
  EXPECT_TRUE(report.ok()) << Explain(report);
  EXPECT_GE(report.evictions, 1u);
}

TEST(OverloadOracleTest, MixedSweepAcrossAllKinds) {
  OverloadOracleOptions options;
  options.sweep.seed = 101;
  options.sweep.scenarios = 10;
  options.sweep.max_failures = 10;
  const SweepReport report = RunSweep(options);
  EXPECT_TRUE(report.ok()) << Explain(report);
  EXPECT_EQ(report.scenarios_run, 10u);
  EXPECT_GE(report.requests, 100u);
}

}  // namespace
}  // namespace dtdevolve::check
