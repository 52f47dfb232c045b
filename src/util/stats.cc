#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tdr {

void OnlineStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::stderr_mean() const {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double OnlineStats::ci95_half_width() const { return 1.96 * stderr_mean(); }

std::string OnlineStats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.6g +/- %.3g [min=%.6g max=%.6g sd=%.4g]",
                static_cast<unsigned long long>(count_), mean(),
                ci95_half_width(), min_, max_, stddev());
  return buf;
}

const std::vector<std::uint64_t>& Histogram::Boundaries() {
  // Upper bounds: 1,2,3,...,10, then 12,14,...  roughly exponential with
  // ~1.5x steps, up to 2^62.
  static const std::vector<std::uint64_t>& kBounds = *[] {
    auto* v = new std::vector<std::uint64_t>;
    for (std::uint64_t i = 1; i <= 10; ++i) v->push_back(i);
    std::uint64_t b = 10;
    while (b < (1ULL << 62)) {
      b += std::max<std::uint64_t>(1, b / 2);
      v->push_back(b);
    }
    return v;
  }();
  return kBounds;
}

Histogram::Histogram() : buckets_(Boundaries().size(), 0) {}

void Histogram::Add(std::uint64_t value) {
  const auto& bounds = Boundaries();
  auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  std::size_t idx = it == bounds.end() ? bounds.size() - 1
                                       : static_cast<std::size_t>(
                                             it - bounds.begin());
  ++buckets_[idx];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double Histogram::mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  double rank = p / 100.0 * static_cast<double>(count_);
  const auto& bounds = Boundaries();
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    double lo_cum = static_cast<double>(cum);
    cum += buckets_[i];
    if (static_cast<double>(cum) >= rank) {
      double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      double hi = static_cast<double>(bounds[i]);
      double frac =
          (rank - lo_cum) / static_cast<double>(buckets_[i]);
      double v = lo + frac * (hi - lo);
      return std::clamp(v, static_cast<double>(min_),
                        static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

std::string Histogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu mean=%.4g p50=%.4g p95=%.4g p99=%.4g max=%llu",
                static_cast<unsigned long long>(count_), mean(),
                Percentile(50), Percentile(95), Percentile(99),
                static_cast<unsigned long long>(max_));
  return buf;
}

}  // namespace tdr
