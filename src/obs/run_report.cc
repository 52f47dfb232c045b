#include "obs/run_report.h"

#include <cstdio>

namespace tdr::obs {

Json RunReport::MetricValueToJson(const MetricValue& value) {
  Json v = Json::Object();
  v.Set("kind", MetricKindName(value.kind));
  switch (value.kind) {
    case MetricKind::kCounter:
      v.Set("value", value.counter);
      break;
    case MetricKind::kGauge:
      v.Set("value", value.gauge);
      break;
    case MetricKind::kHistogram:
      v.Set("count", value.histogram.count());
      v.Set("mean", value.histogram.mean());
      v.Set("min", value.histogram.min());
      v.Set("max", value.histogram.max());
      v.Set("p50", value.histogram.Percentile(50.0));
      v.Set("p95", value.histogram.Percentile(95.0));
      v.Set("p99", value.histogram.Percentile(99.0));
      break;
    case MetricKind::kProfile:
      v.Set("count", value.stats.count());
      v.Set("mean", value.stats.mean());
      v.Set("stddev", value.stats.stddev());
      v.Set("min", value.stats.min());
      v.Set("max", value.stats.max());
      break;
  }
  return v;
}

Json RunReport::MetricsToJson(const MetricsSnapshot& snapshot) {
  Json out = Json::Object();
  for (const MetricValue& value : snapshot.metrics) {
    out.Set(value.name, MetricValueToJson(value));
  }
  return out;
}

Json RunReport::SeriesToJson(const TimeSeries& series) {
  Json out = Json::Object();
  out.Set("interval_seconds", series.interval_seconds);
  out.Set("samples", static_cast<std::uint64_t>(series.samples()));
  Json channels = Json::Array();
  for (const TimeSeries::Channel& channel : series.channels) {
    Json c = Json::Object();
    c.Set("name", channel.name);
    c.Set("rate", channel.rate);
    Json values = Json::Array();
    for (double v : channel.values) values.Push(v);
    c.Set("values", std::move(values));
    channels.Push(std::move(c));
  }
  out.Set("channels", std::move(channels));
  return out;
}

Json RunReport::ToJsonValue() const {
  Json doc = Json::Object();
  doc.Set("schema", "tdr.run_report.v1");
  doc.Set("experiment", experiment_);
  doc.Set("config", config_);
  doc.Set("rows", rows_);
  if (!metrics_.is_null()) doc.Set("metrics", metrics_);
  if (!series_.is_null()) doc.Set("series", series_);
  if (!invariants_.is_null()) doc.Set("invariants", invariants_);
  return doc;
}

bool RunReport::WriteFile(const std::string& path, int indent) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = ToJson(indent);
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
      std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace tdr::obs
