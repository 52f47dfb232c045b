#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace tdr::obs {

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
    case MetricKind::kProfile:
      return "profile";
  }
  return "?";
}

std::string MetricValue::ToString() const {
  switch (kind) {
    case MetricKind::kCounter:
      return name + "=" + std::to_string(counter);
    case MetricKind::kGauge: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", gauge);
      return name + "=" + buf;
    }
    case MetricKind::kHistogram:
      return name + "=[" + histogram.ToString() + "]";
    case MetricKind::kProfile:
      return name + "=[" + stats.ToString() + "]";
  }
  return name + "=?";
}

const MetricValue* MetricsSnapshot::Find(std::string_view name) const {
  auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const MetricValue& m, std::string_view n) { return m.name < n; });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint64_t MetricsSnapshot::Counter(std::string_view name) const {
  const MetricValue* m = Find(name);
  return m != nullptr && m->kind == MetricKind::kCounter ? m->counter : 0;
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  for (const MetricValue& m : metrics) {
    out += m.ToString();
    out += '\n';
  }
  return out;
}

const std::string& MetricsRegistry::InternLabels(std::vector<Label> labels) {
  static const std::string kEmpty;
  if (labels.empty()) return kEmpty;
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  std::string suffix = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) suffix += ',';
    suffix += labels[i].key;
    suffix += '=';
    suffix += labels[i].value;
  }
  suffix += '}';
  auto it = label_index_.find(suffix);
  if (it != label_index_.end()) return *it->second;
  label_sets_.push_back(std::move(suffix));
  const std::string& interned = label_sets_.back();
  label_index_.emplace(interned, &interned);
  return interned;
}

MetricsRegistry::Metric* MetricsRegistry::Resolve(std::string_view name,
                                                  std::vector<Label> labels,
                                                  MetricKind kind) {
  const std::string& suffix = InternLabels(std::move(labels));
  std::string canonical;
  canonical.reserve(name.size() + suffix.size());
  canonical.append(name);
  canonical.append(suffix);
  auto it = index_.find(canonical);
  if (it != index_.end()) {
    Metric* m = &metrics_[it->second];
    assert(m->kind == kind && "metric re-registered under another kind");
    return m;
  }
  metrics_.emplace_back();
  Metric* m = &metrics_.back();
  m->kind = kind;
  index_.emplace(std::move(canonical), metrics_.size() - 1);
  return m;
}

MetricsRegistry::Counter MetricsRegistry::GetCounter(
    std::string_view name, std::vector<Label> labels) {
  return Counter(
      &Resolve(name, std::move(labels), MetricKind::kCounter)->counter);
}

MetricsRegistry::HistogramHandle MetricsRegistry::GetHistogram(
    std::string_view name, std::vector<Label> labels) {
  return HistogramHandle(
      &Resolve(name, std::move(labels), MetricKind::kHistogram)->histogram);
}

MetricsRegistry::StatsHandle MetricsRegistry::GetProfile(
    std::string_view name, std::vector<Label> labels) {
  return StatsHandle(
      &Resolve(name, std::move(labels), MetricKind::kProfile)->stats);
}

void MetricsRegistry::Increment(std::string_view name, std::uint64_t delta) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    Metric& m = metrics_[it->second];
    assert(m.kind == MetricKind::kCounter);
    m.counter += delta;
    return;
  }
  GetCounter(name).Increment(delta);
}

std::uint64_t MetricsRegistry::Get(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return 0;
  const Metric& m = metrics_[it->second];
  return m.kind == MetricKind::kCounter ? m.counter : 0;
}

void MetricsRegistry::SetGauge(std::string_view name, double value) {
  Resolve(name, {}, MetricKind::kGauge)->gauge = value;
}

double MetricsRegistry::Value(std::string_view name) const {
  auto it = index_.find(name);
  if (it == index_.end()) return 0.0;
  const Metric& m = metrics_[it->second];
  switch (m.kind) {
    case MetricKind::kCounter:
      return static_cast<double>(m.counter);
    case MetricKind::kGauge:
      return m.gauge;
    default:
      return 0.0;
  }
}

MetricsSnapshot MetricsRegistry::Snapshot(
    const SnapshotOptions& options) const {
  MetricsSnapshot snap;
  snap.metrics.reserve(metrics_.size());
  for (const auto& [canonical, idx] : index_) {  // sorted by name
    const Metric& m = metrics_[idx];
    if (m.kind == MetricKind::kProfile && !options.include_profile) continue;
    MetricValue v;
    v.name = canonical;
    v.kind = m.kind;
    v.counter = m.counter;
    v.gauge = m.gauge;
    v.histogram = m.histogram;
    v.stats = m.stats;
    snap.metrics.push_back(std::move(v));
  }
  return snap;
}

std::string MetricsRegistry::ToString() const {
  SnapshotOptions all;
  all.include_profile = true;
  return Snapshot(all).ToString();
}

}  // namespace tdr::obs
