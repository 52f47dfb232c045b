#ifndef TDR_TESTS_PLAN_HELPERS_H_
#define TDR_TESTS_PLAN_HELPERS_H_

// Test shorthand for the executor's one submission path: fill
// NewPlan(), then RunPlan().

#include <utility>
#include <vector>

#include "txn/executor.h"

namespace tdr {

/// Runs a copy of `steps` as one transaction.
inline TxnId RunSteps(Executor& exec, NodeId origin,
                      const std::vector<ExecStep>& steps,
                      Executor::RunOptions opts,
                      Executor::DoneCallback done) {
  exec.NewPlan() = steps;
  return exec.RunPlan(origin, std::move(opts), std::move(done));
}

/// Runs `program` as a transaction local to `origin` (LocalPlanInto).
inline TxnId RunLocal(Executor& exec, NodeId origin, const Program& program,
                      Executor::RunOptions opts,
                      Executor::DoneCallback done) {
  LocalPlanInto(origin, program, &exec.NewPlan());
  return exec.RunPlan(origin, std::move(opts), std::move(done));
}

}  // namespace tdr

#endif  // TDR_TESTS_PLAN_HELPERS_H_
