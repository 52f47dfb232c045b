#include "obs/timeseries.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace tdr::obs {

const TimeSeries::Channel* TimeSeries::Find(std::string_view name) const {
  for (const Channel& c : channels) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::string TimeSeries::ToString() const {
  char head[64];
  std::snprintf(head, sizeof(head), "interval=%.6gs samples=%zu\n",
                interval_seconds, samples());
  std::string out = head;
  for (const Channel& c : channels) {
    out += c.name;
    out += c.rate ? " (rate):" : ":";
    for (double v : c.values) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.6g", v);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

TimeSeriesRecorder::TimeSeriesRecorder(sim::Simulator* sim,
                                       MetricsRegistry* registry,
                                       Options options)
    : sim_(sim), registry_(registry), options_(options) {}

TimeSeriesRecorder::~TimeSeriesRecorder() { Stop(); }

void TimeSeriesRecorder::Track(std::string_view name) {
  assert(!running() && "Track() must precede Start()");
  channels_.push_back(Channel{std::string(name), false, 0.0, {}});
}

void TimeSeriesRecorder::TrackRate(std::string_view name) {
  assert(!running() && "TrackRate() must precede Start()");
  channels_.push_back(Channel{std::string(name), true, 0.0, {}});
}

void TimeSeriesRecorder::Start() {
  if (running()) return;
  std::sort(channels_.begin(), channels_.end(),
            [](const Channel& a, const Channel& b) { return a.name < b.name; });
  for (Channel& c : channels_) {
    c.last = registry_->Value(c.name);
  }
  series_id_ =
      sim_->RepeatEvery(options_.interval, [this]() { SampleAll(); });
}

void TimeSeriesRecorder::Stop() {
  if (!running()) return;
  sim_->Cancel(series_id_);
  series_id_ = sim::kInvalidEventId;
}

void TimeSeriesRecorder::SampleAll() {
  for (Channel& c : channels_) {
    double now = registry_->Value(c.name);
    c.values.push_back(c.rate ? now - c.last : now);
    c.last = now;
  }
}

TimeSeries TimeSeriesRecorder::Series() const {
  TimeSeries out;
  out.interval_seconds = options_.interval.seconds();
  out.channels.reserve(channels_.size());
  for (const Channel& c : channels_) {
    out.channels.push_back(TimeSeries::Channel{c.name, c.rate, c.values});
  }
  return out;
}

}  // namespace tdr::obs
