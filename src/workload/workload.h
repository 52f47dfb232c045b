#ifndef TDR_WORKLOAD_WORKLOAD_H_
#define TDR_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/runtime.h"
#include "txn/program.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace tdr {

/// Relative weights of op types in generated transactions. The paper's
/// base model is all-updates ("Inserts and deletes are modeled as
/// updates. Reads are ignored."); the default mix is 100% blind writes.
/// Commutative mixes model the §6/§7 designed-to-commute workloads.
struct OpMix {
  double write = 1.0;     // blind record-value write (NOT commutative)
  double add = 0.0;       // commutative increment
  double subtract = 0.0;  // commutative decrement
  double append = 0.0;    // commutative timestamped append
  double read = 0.0;      // reads (ignored by the model; for extensions)

  static OpMix AllWrites() { return OpMix{1, 0, 0, 0, 0}; }
  static OpMix AllCommutative() { return OpMix{0, 0.5, 0.5, 0, 0}; }
  static OpMix Mixed(double commutative_fraction) {
    OpMix m;
    m.write = 1.0 - commutative_fraction;
    m.add = commutative_fraction / 2;
    m.subtract = commutative_fraction / 2;
    return m;
  }
};

/// Generates transaction programs per the Table 2 model: each
/// transaction touches `actions` distinct objects (the model counts
/// distinct resources) "chosen uniformly from the database" (no
/// hotspots), each with one update action. A Zipfian skew knob exists
/// for the hotspot ablation.
class ProgramGenerator {
 public:
  struct Options {
    std::uint64_t db_size = 10000;
    std::uint32_t actions = 4;
    OpMix mix;
    /// 0 = uniform access (the paper's model); (0,1) = Zipfian skew.
    double zipf_theta = 0.0;
    /// Hot/cold SHARD skew (the bench_sharding scenario). With
    /// skew_hot_shards > 0, the key space is viewed as skew_num_shards
    /// contiguous range shards (set it to match
    /// Cluster::Options::num_shards) and each object pick lands in the
    /// first skew_hot_shards shards with probability skew_hot_fraction,
    /// uniform within the chosen region. Mutually exclusive with
    /// zipf_theta.
    std::uint32_t skew_num_shards = 0;
    std::uint32_t skew_hot_shards = 0;
    double skew_hot_fraction = 0.0;
  };

  /// Operand range for arithmetic/write/append ops.
  static constexpr std::int64_t kOperandLo = 1;
  static constexpr std::int64_t kOperandHi = 100;

  explicit ProgramGenerator(Options options);

  /// Generates the next random program using `rng`.
  Program Next(Rng& rng);

  /// Allocation-free form: regenerates `*out` in place (cleared first,
  /// capacity retained) with the same draws Next() makes. The hot-path
  /// submission loop reuses one scratch Program this way.
  void NextInto(Rng& rng, Program* out);

  const Options& options() const { return options_; }

 private:
  OpType PickType(Rng& rng);
  ObjectId PickObject(Rng& rng);

  Options options_;
  std::vector<std::pair<OpType, double>> cdf_;  // cumulative mix
  std::unique_ptr<ZipfianGenerator> zipf_;
  /// First object id past the hot shard range; 0 = shard skew off.
  std::uint64_t hot_span_ = 0;
  // Per-call scratch (single-threaded generation).
  std::vector<std::uint64_t> sample_scratch_;
  std::vector<ObjectId> chosen_scratch_;
};

/// Open-loop transaction arrivals: each node "originates a fixed number
/// of transactions per second" regardless of how the system copes —
/// that open-loop property is what lets load build up and rates explode,
/// so preserving it matters.
class OpenLoopArrivals {
 public:
  using ArrivalCallback = std::function<void()>;

  struct Options {
    double tps = 10.0;          // arrivals per simulated second
    bool poisson = true;        // exponential gaps; false = deterministic
    /// Node whose worker runs the arrivals under the thread backend
    /// (the originating node); kAnyNode = coordinator-inline.
    std::uint32_t node_affinity = runtime::kAnyNode;
  };

  OpenLoopArrivals(runtime::Runtime* rt, Options options, Rng rng,
                   ArrivalCallback on_arrival);

  /// Stops and cancels any pending arrival event (the scheduled event
  /// captures `this`, so it must not outlive the object).
  ~OpenLoopArrivals();

  OpenLoopArrivals(const OpenLoopArrivals&) = delete;
  OpenLoopArrivals& operator=(const OpenLoopArrivals&) = delete;

  /// Starts generating arrivals from Now() until Stop().
  void Start();
  void Stop();

  std::uint64_t arrivals() const { return arrivals_; }

 private:
  void ScheduleNext();

  runtime::Runtime* sim_;
  Options options_;
  Rng rng_;
  ArrivalCallback on_arrival_;
  bool running_ = false;
  sim::EventId pending_ = sim::kInvalidEventId;
  std::uint64_t arrivals_ = 0;
};

}  // namespace tdr

#endif  // TDR_WORKLOAD_WORKLOAD_H_
