#ifndef TDR_ANALYTIC_MODEL_H_
#define TDR_ANALYTIC_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace tdr::analytic {

/// The model parameters of Table 2, plus the mobile-node timing knobs.
/// All times in seconds; rates in events per second.
struct ModelParams {
  double db_size = 10000;     // DB_Size: distinct objects in the database
  double nodes = 1;           // Nodes: each node replicates all objects
  double tps = 10;            // TPS: transactions/second originating per node
  double actions = 4;         // Actions: updates per transaction
  double action_time = 0.01;  // Action_Time: seconds per action
  // Mobile-node parameters (§4 disconnected analysis):
  double time_between_disconnects = 3600;  // mean connected time
  double disconnected_time = 0;            // Disconnect_Time
  // The model ignores message delay and message CPU, so neither is a
  // parameter here.

  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Single-node base case (§3, equations 1–5)
// ---------------------------------------------------------------------------

/// Eq. (1): Transactions = TPS x Actions x Action_Time — the number of
/// concurrent transactions originating at one node.
double ConcurrentTransactions(const ModelParams& p);

/// Eq. (2): PW ≈ Transactions x Actions² / (2 x DB_Size) — probability a
/// transaction waits at least once in its lifetime.
double SingleNodeWaitProbability(const ModelParams& p);

/// Eq. (3): PD ≈ PW² / Transactions = Transactions x Actions⁴ /
/// (4 x DB_Size²) — probability a transaction deadlocks.
double SingleNodeDeadlockProbability(const ModelParams& p);

/// Eq. (4): per-transaction deadlock rate (deadlocks/second) =
/// PD / (Actions x Action_Time).
double SingleNodeTxnDeadlockRate(const ModelParams& p);

/// Eq. (5): whole-node deadlock rate = Eq.(4) x Eq.(1) =
/// TPS² x Action_Time x Actions⁵ / (4 x DB_Size²).
double SingleNodeDeadlockRate(const ModelParams& p);

/// Companion to Eq. (5) by the same argument applied to waits: the
/// single-node wait rate = PW / duration x Transactions =
/// TPS² x Action_Time x Actions³ / (2 x DB_Size).
double SingleNodeWaitRate(const ModelParams& p);

// ---------------------------------------------------------------------------
// Eager replication (§3, equations 6–13)
// ---------------------------------------------------------------------------

/// Eq. (6): transaction size in actions = Actions x Nodes.
double EagerTransactionSize(const ModelParams& p);

/// Eq. (6): transaction duration = Actions x Nodes x Action_Time.
double EagerTransactionDuration(const ModelParams& p);

/// Eq. (6): aggregate user transaction rate = TPS x Nodes.
double TotalTps(const ModelParams& p);

/// Eq. (7): total concurrent transactions in the system =
/// TPS x Actions x Action_Time x Nodes² (holds for eager AND lazy: eager
/// has fewer-longer transactions, lazy more-shorter ones).
double TotalTransactions(const ModelParams& p);

/// Eq. (8): cluster-wide action (update) rate = TPS x Actions x Nodes².
double ActionRate(const ModelParams& p);

/// Eq. (9): probability an eager transaction waits =
/// TPS x Action_Time x Actions³ x Nodes² / (2 x DB_Size).
double EagerWaitProbability(const ModelParams& p);

/// Eq. (10): system-wide eager wait rate =
/// TPS² x Action_Time x (Actions x Nodes)³ / (2 x DB_Size).
double EagerWaitRate(const ModelParams& p);

/// Eq. (11): probability an eager transaction deadlocks =
/// TPS x Action_Time x Actions⁵ x Nodes² / (4 x DB_Size²).
double EagerDeadlockProbability(const ModelParams& p);

/// Eq. (12): system-wide eager deadlock rate =
/// TPS² x Action_Time x Actions⁵ x Nodes³ / (4 x DB_Size²).
/// THE headline: cubic in nodes, fifth power in transaction size.
double EagerDeadlockRate(const ModelParams& p);

/// Eq. (13): Eq. (12) with the database scaled up with the system
/// (DB_Size := db_size x Nodes, as in TPC-A/B/C):
/// TPS² x Action_Time x Actions⁵ x Nodes / (4 x db_size²) — linear in
/// nodes. `p.db_size` is the per-node base size here.
double EagerDeadlockRateScaledDb(const ModelParams& p);

// ---------------------------------------------------------------------------
// Lazy group replication (§4, equations 14–18)
// ---------------------------------------------------------------------------

/// Eq. (14): lazy-group reconciliation rate — transactions that would
/// wait under eager face reconciliation under lazy group, so this equals
/// the eager wait rate, Eq. (10):
/// TPS² x Action_Time x (Actions x Nodes)³ / (2 x DB_Size).
double LazyGroupReconciliationRate(const ModelParams& p);

/// Eq. (15): distinct outbound pending object updates when a mobile node
/// reconnects ≈ Disconnect_Time x TPS x Actions.
double MobileOutboundUpdates(const ModelParams& p);

/// Eq. (16): pending inbound updates from the rest of the network ≈
/// (Nodes - 1) x Disconnect_Time x TPS x Actions.
double MobileInboundUpdates(const ModelParams& p);

/// Eq. (17): probability a reconnecting node needs reconciliation ≈
/// Inbound x Outbound / DB_Size ≈
/// Nodes x (Disconnect_Time x TPS x Actions)² / DB_Size.
double MobileCollisionProbability(const ModelParams& p);

/// Eq. (18): system-wide mobile reconciliation rate ≈
/// P(collision) x Nodes / Disconnect_Time =
/// Disconnect_Time x (TPS x Actions x Nodes)² / DB_Size.
double MobileReconciliationRate(const ModelParams& p);

// ---------------------------------------------------------------------------
// Lazy master replication (§5, equation 19) and two-tier (§7)
// ---------------------------------------------------------------------------

/// Eq. (19): lazy-master deadlock rate =
/// (TPS x Nodes)² x Action_Time x Actions⁵ / (4 x DB_Size²) — quadratic
/// in nodes (all master transactions contend at the owners).
double LazyMasterDeadlockRate(const ModelParams& p);

/// §7: two-tier base transactions execute under lazy-master rules, so
/// their deadlock rate is Eq. (19). Deadlocked base transactions are
/// resubmitted until they succeed.
double TwoTierBaseDeadlockRate(const ModelParams& p);

/// §7: the two-tier reconciliation rate is the acceptance-failure rate;
/// it is ZERO when all transactions commute. `non_commutative_fraction`
/// scales the mobile collision exposure for mixed workloads: only
/// colliding non-commutative tentative transactions can fail acceptance.
double TwoTierReconciliationRate(const ModelParams& p,
                                 double non_commutative_fraction);

// ---------------------------------------------------------------------------
// Sweep helper
// ---------------------------------------------------------------------------

/// One row of the scaling tables the benches print.
struct ScalingRow {
  double nodes = 1;
  double eager_wait_rate = 0;           // Eq. (10)
  double eager_deadlock_rate = 0;       // Eq. (12)
  double eager_deadlock_scaled_db = 0;  // Eq. (13)
  double lazy_group_reconciliation = 0; // Eq. (14)
  double lazy_master_deadlock = 0;      // Eq. (19)
  double two_tier_base_deadlock = 0;    // Eq. (19) applied to base txns
};

/// Evaluates the model at each node count in `node_counts`.
std::vector<ScalingRow> SweepNodes(const ModelParams& base,
                                   const std::vector<double>& node_counts);

}  // namespace tdr::analytic

#endif  // TDR_ANALYTIC_MODEL_H_
