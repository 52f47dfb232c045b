#ifndef TDR_OBS_METRICS_H_
#define TDR_OBS_METRICS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.h"

namespace tdr::obs {

/// What a metric measures. Kinds share one namespace: registering the
/// same canonical name under two kinds is a programming error.
enum class MetricKind : std::uint8_t {
  kCounter = 0,    // monotone uint64 (events, messages, deadlocks)
  kGauge = 1,      // last-write-wins double (queue depth, sim totals)
  kHistogram = 2,  // util/stats.h Histogram (latency-like uint64 values)
  kStats = 3,      // util/stats.h OnlineStats (Welford moments)
  kProfile = 4,    // OnlineStats of WALL-CLOCK values (the thread
                   // runtime's worker measurements, published at
                   // Shutdown). Nondeterministic by nature, so
                   // Snapshot() excludes profile metrics unless
                   // explicitly asked — replay and sweep determinism
                   // must never depend on the host's clock.
};

std::string_view MetricKindName(MetricKind kind);

/// One label dimension of a metric, e.g. {"scheme", "lazy-master"}.
struct Label {
  std::string key;
  std::string value;
};

/// Point-in-time value of one metric (canonical name = base name plus
/// the interned label suffix, e.g. `replica.applied{node=3}`).
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  Histogram histogram;  // kHistogram only
  OnlineStats stats;    // kStats / kProfile only

  std::string ToString() const;
};

/// Deterministic snapshot of a registry: values sorted by canonical
/// name, independent of registration order.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  // sorted by name

  const MetricValue* Find(std::string_view name) const;
  std::uint64_t Counter(std::string_view name) const;
  std::string ToString() const;
};

struct SnapshotOptions {
  /// Include kProfile metrics (wall-clock, nondeterministic). Off by
  /// default so snapshots stay replay- and thread-count-stable.
  bool include_profile = false;
};

/// Labeled metrics registry: the cluster-wide instrumentation sink.
///
/// Hot paths acquire a handle once (name lookup, label interning — the
/// only place that allocates) and update through it in O(1) with no
/// allocation: a handle is a raw pointer at the metric's storage cell,
/// stable for the registry's lifetime (`std::deque` slabs never move).
/// A default-constructed handle is a no-op, so instrumented code runs
/// unchanged — and unmeasurably — when no registry is attached.
///
/// The registry is single-threaded by design, like everything else in
/// one simulation run; parallelism lives in SweepRunner, where each run
/// owns its registry.
///
/// The string API (Increment/Get) serves cold paths and keeps the call
/// sites of the retired CounterRegistry working verbatim; it performs a
/// transparent (no-copy) map lookup per call.
class MetricsRegistry {
 public:
  class Counter {
   public:
    Counter() = default;
    void Increment(std::uint64_t delta = 1) {
      if (cell_ != nullptr) *cell_ += delta;
    }
    std::uint64_t value() const { return cell_ != nullptr ? *cell_ : 0; }

   private:
    friend class MetricsRegistry;
    explicit Counter(std::uint64_t* cell) : cell_(cell) {}
    std::uint64_t* cell_ = nullptr;
  };

  class Gauge {
   public:
    Gauge() = default;
    void Set(double value) {
      if (cell_ != nullptr) *cell_ = value;
    }
    void Add(double delta) {
      if (cell_ != nullptr) *cell_ += delta;
    }
    double value() const { return cell_ != nullptr ? *cell_ : 0.0; }

   private:
    friend class MetricsRegistry;
    explicit Gauge(double* cell) : cell_(cell) {}
    double* cell_ = nullptr;
  };

  class HistogramHandle {
   public:
    HistogramHandle() = default;
    void Record(std::uint64_t value) {
      if (hist_ != nullptr) hist_->Add(value);
    }
    /// Null for a no-op handle.
    const Histogram* histogram() const { return hist_; }

   private:
    friend class MetricsRegistry;
    explicit HistogramHandle(Histogram* hist) : hist_(hist) {}
    Histogram* hist_ = nullptr;
  };

  class StatsHandle {
   public:
    StatsHandle() = default;
    void Record(double value) {
      if (stats_ != nullptr) stats_->Add(value);
    }
    const OnlineStats* stats() const { return stats_; }

   private:
    friend class MetricsRegistry;
    explicit StatsHandle(OnlineStats* stats) : stats_(stats) {}
    OnlineStats* stats_ = nullptr;
  };

  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // --- Handle acquisition (cold; allocates on first registration) ----
  // The same (name, labels) always yields a handle at the same cell,
  // so handles may be acquired redundantly and cached freely.

  Counter GetCounter(std::string_view name, std::vector<Label> labels = {});
  Gauge GetGauge(std::string_view name, std::vector<Label> labels = {});
  HistogramHandle GetHistogram(std::string_view name,
                               std::vector<Label> labels = {});
  StatsHandle GetStats(std::string_view name, std::vector<Label> labels = {});
  /// Like GetStats but kind kProfile: wall-clock values, excluded from
  /// deterministic snapshots (see MetricKind::kProfile).
  StatsHandle GetProfile(std::string_view name,
                         std::vector<Label> labels = {});

  // --- String API (cold-path convenience, CounterRegistry-compatible) -

  void Increment(std::string_view name, std::uint64_t delta = 1);
  /// Counter value; 0 if the name is unknown (or not a counter).
  std::uint64_t Get(std::string_view name) const;
  void SetGauge(std::string_view name, double value);
  /// Counter or gauge value as a double (what TimeSeriesRecorder
  /// samples); 0 for unknown names and non-scalar kinds.
  double Value(std::string_view name) const;

  /// Zeroes every value. Registrations — and outstanding handles — stay
  /// valid.
  void Reset();

  std::size_t size() const { return metrics_.size(); }
  /// Distinct label sets interned so far (the empty set not counted).
  std::size_t label_sets_interned() const { return label_sets_.size(); }

  MetricsSnapshot Snapshot(const SnapshotOptions& options = {}) const;
  /// Sorted (name, value) pairs of the counters only — the old
  /// CounterRegistry::Snapshot shape, kept for table printing.
  std::vector<std::pair<std::string, std::uint64_t>> CounterSnapshot() const;
  std::string ToString() const;

 private:
  struct Metric {
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    Histogram histogram;
    OnlineStats stats;
  };

  /// Interns the label set, returning the canonical suffix ("" for no
  /// labels, else "{k=v,...}" with keys sorted).
  const std::string& InternLabels(std::vector<Label> labels);
  Metric* Resolve(std::string_view name, std::vector<Label> labels,
                  MetricKind kind);

  // Slab of metric storage; deque never relocates, so handles stay
  // valid for the registry's lifetime.
  std::deque<Metric> metrics_;
  // Canonical name -> slab index. Sorted map = deterministic iteration
  // independent of registration order. Transparent comparator: lookups
  // by string_view never build a temporary std::string.
  std::map<std::string, std::size_t, std::less<>> index_;
  // Interned label suffixes (deduplicated, stable addresses).
  std::deque<std::string> label_sets_;
  std::map<std::string, const std::string*, std::less<>> label_index_;
};

}  // namespace tdr::obs

#endif  // TDR_OBS_METRICS_H_
