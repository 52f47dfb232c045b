// E12 — The abstract's headline: "Update anywhere-anytime-anyway
// transactional replication has unstable behavior as the workload scales
// up: a ten-fold increase in nodes and traffic gives a thousand fold
// increase in deadlocks or reconciliations. Master copy replication
// schemes reduce this problem."
//
// One table, all schemes, N in {2, 5, 10}, every rate normalized to its
// own N=2 value (at N=1 failure rates are vanishingly small in both the
// model and the simulation — there is nothing robust to divide by). The
// model ratios from 2 -> 10 are (10/2)^3 = 125x for the update-anywhere
// schemes and (10/2)^2 = 25x for master-copy schemes; the 1 -> 10 story
// is the abstract's 1000x vs 100x.
//
// BENCH_headline.json is a tdr.run_report.v1 document (`tools/report.py
// check` validates it in ctest): the scaling table and the
// robustness column as rows, and the retained-throughput map as
// invariants.

#include <cstdio>
#include <map>
#include <string>

#include "bench/harness.h"

namespace tdr::bench {
namespace {

double Normalized(double value, double base) {
  return base > 0 ? value / base : 0;
}

// Robustness column: the same workload under faults — 1% message drop
// plus one partition/heal cycle — with the invariant checker armed (a
// violation aborts the binary). The report records the throughput
// retained under faults so regressions in robustness overhead are
// tracked like any perf number.
void RunFaultedColumn(obs::RunReport* report) {
  std::printf("\nRobustness under faults (N=5, 1%% drop + one partition/"
              "heal cycle,\ninvariants machine-checked throughout; "
              "overhead = faulted/clean\ncommitted rate):\n\n");
  SimConfig base;
  base.nodes = 5;
  base.db_size = 800;
  base.tps = 4;
  base.actions = 5;
  base.action_time = 0.01;
  base.sim_seconds = 1000;

  const SchemeKind kKinds[] = {SchemeKind::kEagerGroup,
                               SchemeKind::kLazyGroup,
                               SchemeKind::kLazyMaster};
  std::vector<SimConfig> grid;
  for (SchemeKind kind : kKinds) {
    SimConfig clean = base;
    clean.kind = kind;
    if (kind == SchemeKind::kLazyMaster) clean.db_size = 300;
    grid.push_back(clean);
    SimConfig faulted = clean;
    faulted.fault_drop_probability = 0.01;
    faulted.fault_partition_cycle = true;
    grid.push_back(faulted);
  }
  std::vector<SimOutcome> outcomes = RunSweep(grid);

  std::printf("%-12s | %10s | %10s | %8s | %9s | %5s\n", "scheme",
              "clean c/s", "fault c/s", "retained", "unavail", "viol");
  std::printf("-------------+------------+------------+----------+-----------"
              "+------\n");
  std::map<std::string, double> clean_rates, faulted_rates, retained;
  std::uint64_t total_violations = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    const SimOutcome& clean = outcomes[2 * i];
    const SimOutcome& faulted = outcomes[2 * i + 1];
    std::string name(SchemeKindName(kKinds[i]));
    clean_rates[name] = clean.Rate(clean.committed);
    faulted_rates[name] = faulted.Rate(faulted.committed);
    retained[name] = Normalized(faulted_rates[name], clean_rates[name]);
    total_violations += faulted.violations;
    std::printf("%-12s | %10.2f | %10.2f | %7.1f%% | %9llu | %5llu\n",
                name.c_str(), clean_rates[name], faulted_rates[name],
                100 * retained[name],
                (unsigned long long)faulted.unavailable,
                (unsigned long long)faulted.violations);
    for (std::size_t j = 0; j < 2; ++j) {
      obs::Json row = ReportRow(grid[2 * i + j], outcomes[2 * i + j]);
      row.Set("table", obs::Json("faults"));
      row.Set("faulted", obs::Json(j == 1));
      report->AddRow(std::move(row));
    }
  }

  obs::Json retained_json = obs::Json::Object();
  for (const auto& [name, ratio] : retained) {
    retained_json.Set(name, obs::Json(ratio));
  }
  obs::Json invariants = obs::Json::Object();
  invariants.Set("faulted_violations",
                 obs::Json(static_cast<std::int64_t>(total_violations)));
  invariants.Set("throughput_retained_under_faults",
                 std::move(retained_json));
  report->SetInvariants(std::move(invariants));
  std::printf("\n(an invariant violation under faults aborts this binary, "
              "so a nonzero\n'viol' column can never ship)\n");
}

void Main() {
  PrintBanner("E12", "Headline scaling table",
              "Abstract + Sections 3-5 summary");
  SimConfig base;
  base.db_size = 800;
  base.tps = 4;
  base.actions = 5;
  base.action_time = 0.01;

  obs::RunReport report = MakeReport("headline", base);

  std::printf("Failure events/second, normalized to each scheme's 2-node "
              "rate.\nfailure = deadlock (eager, lazy-master) or "
              "reconciliation (lazy-group).\nModel ratios 2->10: 125x "
              "(update anywhere, cubic) vs 25x (master, quadratic);\n"
              "extrapolated 1->10: 1000x vs 100x, the abstract's claim.\n"
              "(Each column runs at its own contention level so its rare\n"
              "events are measurable; ratios are within-column.)\n\n");
  std::printf("%5s | %-23s | %-23s | %-23s\n", "", "eager group (Eq.12)",
              "lazy group (Eq.14)", "lazy master (Eq.19)");
  std::printf("%5s | %11s %11s | %11s %11s | %11s %11s\n", "nodes", "model",
              "measured", "model", "measured", "model", "measured");
  std::printf("------+-------------------------+------------------------"
              "-+-------------------------\n");

  // All nine (scheme, N) cells run as one parallel sweep.
  const std::vector<std::uint32_t> kNodes{2, 5, 10};
  std::vector<SimConfig> grid;
  for (std::uint32_t nodes : kNodes) {
    SimConfig config = base;
    config.nodes = nodes;

    // Longer windows at small N (rare events), shorter at N=10 (the
    // cluster is saturating — that IS the instability).
    config.kind = SchemeKind::kEagerGroup;
    config.sim_seconds = nodes >= 10 ? 400 : (nodes >= 5 ? 3000 : 8000);
    grid.push_back(config);

    config.kind = SchemeKind::kLazyGroup;
    grid.push_back(config);

    // Lazy-master deadlocks are ~30x rarer at the same parameters; its
    // column runs a hotter database (still model-regime) so the N=2
    // baseline has events. Ratios stay within-column.
    config.kind = SchemeKind::kLazyMaster;
    config.db_size = 300;
    config.sim_seconds = nodes >= 10 ? 1500 : (nodes >= 5 ? 3000 : 8000);
    grid.push_back(config);
  }
  std::vector<SimOutcome> outcomes = RunSweep(grid);

  double eager2 = 0, lazy2 = 0, master2 = 0;
  double eager2_m = 0, lazy2_m = 0, master2_m = 0;
  for (std::size_t i = 0; i < kNodes.size(); ++i) {
    std::uint32_t nodes = kNodes[i];
    const SimOutcome& eager = outcomes[3 * i];
    const SimOutcome& lazy = outcomes[3 * i + 1];
    const SimOutcome& master = outcomes[3 * i + 2];
    analytic::ModelParams p = ToModelParams(grid[3 * i]);
    analytic::ModelParams pm = ToModelParams(grid[3 * i + 2]);

    double em = analytic::EagerDeadlockRate(p);
    double lm = analytic::LazyGroupReconciliationRate(p);
    double mm = analytic::LazyMasterDeadlockRate(pm);
    if (nodes == 2) {
      eager2 = em;
      lazy2 = lm;
      master2 = mm;
      eager2_m = eager.deadlock_rate();
      lazy2_m = lazy.reconciliation_rate();
      master2_m = master.deadlock_rate();
    }
    const double models[] = {Normalized(em, eager2), Normalized(lm, lazy2),
                             Normalized(mm, master2)};
    const double measured[] = {Normalized(eager.deadlock_rate(), eager2_m),
                               Normalized(lazy.reconciliation_rate(), lazy2_m),
                               Normalized(master.deadlock_rate(), master2_m)};
    std::printf("%5u | %10.1fx %10.1fx | %10.1fx %10.1fx | %10.1fx "
                "%10.1fx\n",
                nodes, models[0], measured[0], models[1], measured[1],
                models[2], measured[2]);
    for (std::size_t j = 0; j < 3; ++j) {
      obs::Json row = ReportRow(grid[3 * i + j], outcomes[3 * i + j]);
      row.Set("table", obs::Json("scaling"));
      row.Set("model_ratio_vs_n2", obs::Json(models[j]));
      row.Set("measured_ratio_vs_n2", obs::Json(measured[j]));
      report.AddRow(std::move(row));
    }
  }
  std::printf(
      "\nReading the last row: lazy-master tracks its quadratic model\n"
      "(~25x). Eager group OVERSHOOTS its cubic model via the\n"
      "same-object replica-ordering race (E5's note) — worse than\n"
      "advertised. Lazy group UNDERSHOOTS its headline ratio for the\n"
      "opposite reason: its N=2 baseline is already cascade-inflated and\n"
      "by N=10 nearly every replica update needs reconciliation — the\n"
      "rate hits its ceiling (total system delusion; see the divergent\n"
      "slot counts in bench_lazy_group). Both distortions are the\n"
      "instability the abstract warns about, arriving even sooner than\n"
      "the first-order model predicts. The two-tier scheme inherits the\n"
      "master column for its base transactions and drives reconciliation\n"
      "to zero with commutative transactions (bench_two_tier).\n");

  RunFaultedColumn(&report);
  WriteReport(report, "BENCH_headline.json");
}

}  // namespace
}  // namespace tdr::bench

int main() { tdr::bench::Main(); }
