// The observability determinism contract: for the same (seed, config),
// metrics snapshots and whole RunReport documents are byte-identical
// across replays and across SweepRunner thread counts.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/harness.h"
#include "obs/run_report.h"

namespace tdr::bench {
namespace {

std::vector<SimConfig> SmallGrid() {
  std::vector<SimConfig> grid;
  for (SchemeKind kind :
       {SchemeKind::kEagerGroup, SchemeKind::kLazyGroup,
        SchemeKind::kLazyMaster}) {
    SimConfig config;
    config.kind = kind;
    config.nodes = 3;
    config.db_size = 100;
    config.tps = 10;
    config.actions = 3;
    config.action_time = 0.005;
    config.sim_seconds = 10;
    grid.push_back(config);
  }
  return grid;
}

obs::RunReport ReportFor(const std::vector<SimConfig>& grid,
                         const std::vector<SimOutcome>& outcomes) {
  obs::RunReport report = MakeReport("determinism", grid[0]);
  // Each row carries its run's whole registry; any nondeterminism in a
  // single counter or bucket shows up as a byte difference.
  for (std::size_t i = 0; i < grid.size(); ++i) {
    obs::Json row = ReportRow(grid[i], outcomes[i]);
    row.Set("metrics", obs::RunReport::MetricsToJson(outcomes[i].metrics));
    report.AddRow(std::move(row));
  }
  return report;
}

TEST(ObsDeterminismTest, RunReportIdenticalAcrossSweepThreadCounts) {
  std::vector<SimConfig> grid = SmallGrid();

  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;

  std::vector<SimOutcome> a = RunSweep(grid, serial);
  std::vector<SimOutcome> b = RunSweep(grid, parallel);
  ASSERT_EQ(a.size(), b.size());

  const std::string json_a = ReportFor(grid, a).ToJson();
  const std::string json_b = ReportFor(grid, b).ToJson();
  EXPECT_EQ(json_a, json_b);
}

TEST(ObsDeterminismTest, PerRunSnapshotsIdenticalAcrossThreadCounts) {
  std::vector<SimConfig> grid = SmallGrid();
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 3;
  std::vector<SimOutcome> a = RunSweep(grid, serial);
  std::vector<SimOutcome> b = RunSweep(grid, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(obs::RunReport::MetricsToJson(a[i].metrics).Dump(),
              obs::RunReport::MetricsToJson(b[i].metrics).Dump())
        << "run " << i;
  }
}

TEST(ObsDeterminismTest, ReplayYieldsIdenticalReportBytes) {
  SimConfig config = SmallGrid()[1];  // lazy group: reconciliation paths
  SimOutcome first = RunScheme(config);
  SimOutcome second = RunScheme(config);
  EXPECT_EQ(obs::RunReport::MetricsToJson(first.metrics).Dump(),
            obs::RunReport::MetricsToJson(second.metrics).Dump());
  EXPECT_EQ(ReportRow(config, first).Dump(),
            ReportRow(config, second).Dump());
}

}  // namespace
}  // namespace tdr::bench
