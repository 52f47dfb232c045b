#ifndef TDR_OBS_TIMESERIES_H_
#define TDR_OBS_TIMESERIES_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "sim/simulator.h"
#include "util/sim_time.h"

namespace tdr::obs {

/// A fixed-interval recording of selected metrics over one run. Sample
/// k of a channel is the metric's value at sim time (k+1) * interval
/// (cumulative channels) or the increment over the k-th interval (rate
/// channels). Channels are name-sorted, so the series — like a metrics
/// snapshot — is independent of registration order.
struct TimeSeries {
  double interval_seconds = 0.0;
  struct Channel {
    std::string name;
    bool rate = false;
    std::vector<double> values;
  };
  std::vector<Channel> channels;  // sorted by name

  std::size_t samples() const {
    return channels.empty() ? 0 : channels.front().values.size();
  }
  const Channel* Find(std::string_view name) const;
  std::string ToString() const;
};

/// Samples registry metrics on the SIMULATOR clock — never wall time —
/// so a recording is as deterministic as the run that produced it: the
/// same (seed, plan) yields the same series, bit for bit, on any
/// machine at any sweep thread count.
class TimeSeriesRecorder {
 public:
  struct Options {
    SimTime interval = SimTime::Millis(500);
  };

  /// `sim` and `registry` must outlive the recorder.
  TimeSeriesRecorder(sim::Simulator* sim, MetricsRegistry* registry)
      : TimeSeriesRecorder(sim, registry, Options()) {}
  TimeSeriesRecorder(sim::Simulator* sim, MetricsRegistry* registry,
                     Options options);
  ~TimeSeriesRecorder();

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// Registers a channel sampling the metric's cumulative value. Call
  /// before Start(). `name` is the canonical metric name (counter or
  /// gauge).
  void Track(std::string_view name);
  /// Registers a channel sampling the per-interval increment.
  void TrackRate(std::string_view name);

  /// Begins sampling: one sample per interval from Now() + interval.
  void Start();
  /// Stops sampling (idempotent; the destructor calls it too).
  void Stop();

  bool running() const { return series_id_ != sim::kInvalidEventId; }

  /// The recording so far; channels sorted by name.
  TimeSeries Series() const;

 private:
  struct Channel {
    std::string name;
    bool rate = false;
    double last = 0.0;
    std::vector<double> values;
  };

  void SampleAll();

  sim::Simulator* sim_;
  MetricsRegistry* registry_;
  Options options_;
  std::vector<Channel> channels_;
  sim::EventId series_id_ = sim::kInvalidEventId;
};

}  // namespace tdr::obs

#endif  // TDR_OBS_TIMESERIES_H_
