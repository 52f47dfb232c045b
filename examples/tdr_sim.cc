// tdr_sim — command-line driver for the replication simulator.
//
//   tdr_sim [scheme] [nodes] [db_size] [tps] [actions] [action_ms]
//           [seconds] [seed]
//
//   scheme: eager-group | eager-group-parallel | eager-group-readlocks |
//           eager-master | lazy-group | lazy-master | quorum-eager |
//           two-tier   (default lazy-group)
//
// Runs the Table-2 workload model under the chosen strategy and prints
// measured rates next to the paper's closed-form predictions — the same
// engine the bench/ binaries use, exposed for ad-hoc exploration. The
// paper models neither quorum nor two-tier, so their model column
// reads "-".

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "bench/harness.h"
#include "util/logging.h"

using namespace tdr;
using namespace tdr::bench;

int main(int argc, char** argv) {
  SimConfig config;
  config.kind = SchemeKind::kLazyGroup;
  if (argc > 1) {
    std::optional<SchemeKind> kind = SchemeKindFromName(argv[1]);
    if (!kind.has_value()) {
      std::fprintf(stderr, "unknown scheme '%s'\n", argv[1]);
      return 2;
    }
    config.kind = *kind;
  }
  config.nodes = argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2]))
                          : 3;
  config.db_size =
      argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 2000;
  config.tps = argc > 4 ? std::atof(argv[4]) : 10;
  config.actions =
      argc > 5 ? static_cast<std::uint32_t>(std::atoi(argv[5])) : 4;
  config.action_time = argc > 6 ? std::atof(argv[6]) / 1000.0 : 0.01;
  config.sim_seconds = argc > 7 ? std::atof(argv[7]) : 300;
  config.seed = argc > 8 ? static_cast<std::uint64_t>(std::atoll(argv[8]))
                         : 42;
  // The library aborts on these (a run with them would hang, divide by
  // zero or sample empty programs); say which argument is wrong instead.
  if (!(config.tps > 0 && std::isfinite(config.tps))) {
    std::fprintf(stderr, "tps %g must be positive and finite\n", config.tps);
    return 2;
  }
  if (config.db_size == 0) {
    std::fprintf(stderr, "db_size must be positive\n");
    return 2;
  }
  if (config.actions == 0 || config.actions > config.db_size) {
    std::fprintf(stderr, "actions %u must be between 1 and db_size %llu\n",
                 config.actions, (unsigned long long)config.db_size);
    return 2;
  }

  std::printf("scheme=%s nodes=%u db=%llu tps=%.3g/node actions=%u "
              "action=%.3gms window=%.0fs seed=%llu\n\n",
              std::string(SchemeKindName(config.kind)).c_str(),
              config.nodes, (unsigned long long)config.db_size, config.tps,
              config.actions, config.action_time * 1000,
              config.sim_seconds, (unsigned long long)config.seed);

  SimOutcome out = RunScheme(config);
  analytic::ModelParams p = ToModelParams(config);

  std::printf("%-28s %12s %12s\n", "", "measured", "model");
  std::printf("%-28s %12llu %12s\n", "transactions submitted",
              (unsigned long long)out.submitted,
              StrPrintf("%.0f", config.tps * config.nodes *
                                    config.sim_seconds)
                  .c_str());
  std::printf("%-28s %12llu\n", "transactions committed",
              (unsigned long long)out.committed);
  // The paper gives no closed form for quorum or two-tier: their model
  // column reads "-" rather than another scheme's equation.
  const bool modeled = config.kind != SchemeKind::kQuorum &&
                       config.kind != SchemeKind::kTwoTier;
  auto model = [modeled](const char* fmt, double value) {
    return modeled ? StrPrintf(fmt, value) : std::string("-");
  };
  const bool lazy_group = config.kind == SchemeKind::kLazyGroup;
  const double model_deadlocks =
      config.kind == SchemeKind::kLazyMaster
          ? analytic::LazyMasterDeadlockRate(p)
          : (lazy_group ? 0.0 : analytic::EagerDeadlockRate(p));
  const double model_reconciliations =
      lazy_group ? analytic::LazyGroupReconciliationRate(p) : 0.0;
  std::printf("%-28s %12.4f %12s\n", "wait rate (/s)", out.wait_rate(),
              model("%.4f", analytic::EagerWaitRate(p)).c_str());
  std::printf("%-28s %12.5f %12s\n", "deadlock rate (/s)",
              out.deadlock_rate(), model("%.5f", model_deadlocks).c_str());
  std::printf("%-28s %12.4f %12s\n", "reconciliation rate (/s)",
              out.reconciliation_rate(),
              model("%.4f", model_reconciliations).c_str());
  std::printf("%-28s %12llu\n", "unavailable",
              (unsigned long long)out.unavailable);
  std::printf("%-28s %12llu\n", "divergent replica slots",
              (unsigned long long)out.divergent_slots);
  std::printf("\nModel references: waits Eq.(10); deadlocks Eq.(12)/(19); "
              "reconciliation Eq.(14).\n");
  return 0;
}
