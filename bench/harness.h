#ifndef TDR_BENCH_HARNESS_H_
#define TDR_BENCH_HARNESS_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analytic/fit.h"
#include "analytic/model.h"
#include "fault/run_scheme.h"
#include "obs/run_report.h"
#include "replication/cluster.h"
#include "replication/eager.h"
#include "replication/lazy_group.h"
#include "replication/lazy_master.h"
#include "replication/ownership.h"
#include "replication/scheme_factory.h"
#include "sim/sweep_runner.h"
#include "workload/workload.h"

namespace tdr::bench {

/// E15's run (bench_runtime, the committed digest baseline): 4 nodes,
/// 4 shards, DB_Size 256, TPS 25, 5 s, drained with the invariant
/// checker armed; the lazy pair batched at 50 ms / 16 updates. The
/// differential suites run it on both backends.
SimConfig E15Config(SchemeKind kind, std::uint64_t seed);

/// Canonical name of the fault plan `config` runs under ("none" when
/// clean, else e.g. "drop=0.05+partition+crash"). Report rows carry it
/// as an identity field, so a regression check pairs a faulted row only
/// with the same faulted row of the baseline.
std::string FaultPlanName(const SimConfig& config);

/// Runs every config (each with its own seed) through RunScheme on a
/// thread pool and returns the outcomes in config order. Each run owns
/// its Simulator, so results are deterministic regardless of thread
/// count or schedule.
std::vector<SimOutcome> RunSweep(const std::vector<SimConfig>& configs,
                                 sim::SweepRunner::Options options = {});

/// Maps a SimConfig onto the analytic model's parameters.
analytic::ModelParams ToModelParams(const SimConfig& config);

/// Measured growth exponent for "rate ~ nodes^k" claims; forwards to
/// analytic::FitPowerLawExponent (see analytic/fit.h for the full fit).
using analytic::FitPowerLawExponent;

/// Banner printing shared by all experiment binaries.
void PrintBanner(const char* experiment_id, const char* title,
                 const char* paper_ref);

/// One report row holding `config`'s sweep knobs and `out`'s rates —
/// the machine-readable twin of the printed table row.
obs::Json ReportRow(const SimConfig& config, const SimOutcome& out);

/// Writes `report` to `path` (under the current working directory by
/// convention: BENCH_<name>.json), logging on failure.
void WriteReport(const obs::RunReport& report, const std::string& path);

}  // namespace tdr::bench

#endif  // TDR_BENCH_HARNESS_H_
