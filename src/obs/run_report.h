#ifndef TDR_OBS_RUN_REPORT_H_
#define TDR_OBS_RUN_REPORT_H_

#include <string>
#include <string_view>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace tdr::obs {

/// The one machine-readable output format for every bench and chaos
/// run (schema id "tdr.run_report.v1"; tools/check_report.py validates
/// it). A report has fixed top-level sections, each optional except the
/// header, always emitted in the same order:
///
///   schema      "tdr.run_report.v1"
///   experiment  the bench/scenario name
///   config      knobs the run was launched with (insertion-ordered)
///   rows        the bench's table, one object per sweep point
///   metrics     deterministic MetricsSnapshot (name-sorted)
///   series      sim-clock TimeSeries
///   invariants  invariant-checker summary (plain values; obs does not
///               depend on src/fault)
///   profile     WALL-CLOCK phase timings — nondeterministic by
///               design, kept out of every determinism comparison
///
/// Everything except `profile` is a pure function of (seed, plan):
/// byte-identical across replays and SweepRunner thread counts.
class RunReport {
 public:
  explicit RunReport(std::string experiment)
      : experiment_(std::move(experiment)),
        config_(Json::Object()),
        rows_(Json::Array()) {}

  /// Adds one config knob (emitted in insertion order).
  RunReport& SetConfig(std::string_view key, Json value) {
    config_.Set(key, std::move(value));
    return *this;
  }

  /// Appends one result row (an object; emitted in insertion order).
  RunReport& AddRow(Json row) {
    rows_.Push(std::move(row));
    return *this;
  }

  RunReport& SetMetrics(const MetricsSnapshot& snapshot) {
    metrics_ = MetricsToJson(snapshot);
    return *this;
  }

  RunReport& SetSeries(const TimeSeries& series) {
    series_ = SeriesToJson(series);
    return *this;
  }

  /// Invariant-checker summary, passed as a prebuilt object so obs
  /// never depends on src/fault.
  RunReport& SetInvariants(Json summary) {
    invariants_ = std::move(summary);
    return *this;
  }

  /// Profile section from the registry's kProfile metrics (wall-clock;
  /// excluded from determinism guarantees).
  RunReport& SetProfile(const MetricsRegistry& registry);

  // --- Section serializers (also useful standalone in tests) ---------

  /// {"<name>": {"kind": ..., ...}, ...} in snapshot (= sorted) order.
  static Json MetricsToJson(const MetricsSnapshot& snapshot);
  static Json MetricValueToJson(const MetricValue& value);
  static Json SeriesToJson(const TimeSeries& series);

  Json ToJsonValue() const;
  std::string ToJson(int indent = 1) const {
    return ToJsonValue().Dump(indent);
  }

  /// Writes ToJson() plus a trailing newline; false on I/O failure.
  bool WriteFile(const std::string& path, int indent = 1) const;

 private:
  std::string experiment_;
  Json config_;
  Json rows_;
  Json metrics_;     // null until SetMetrics
  Json series_;      // null until SetSeries
  Json invariants_;  // null until SetInvariants
  Json profile_;     // null until SetProfile
};

}  // namespace tdr::obs

#endif  // TDR_OBS_RUN_REPORT_H_
