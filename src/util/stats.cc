#include "util/stats.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>

namespace tdr {
namespace {

constexpr std::uint64_t kLastBoundBelow = std::uint64_t{1} << 62;

constexpr std::uint64_t NextBound(std::uint64_t b) {
  return b + std::max<std::uint64_t>(1, b / 2);
}

constexpr std::size_t CountBounds() {
  std::size_t n = 10;
  for (std::uint64_t b = 10; b < kLastBoundBelow; b = NextBound(b)) ++n;
  return n;
}

constexpr std::size_t kNumBounds = CountBounds();

constexpr std::array<std::uint64_t, kNumBounds> kBounds = [] {
  std::array<std::uint64_t, kNumBounds> bounds{};
  for (std::size_t i = 0; i < 10; ++i) bounds[i] = i + 1;
  for (std::size_t i = 10; i < kNumBounds; ++i) {
    bounds[i] = NextBound(bounds[i - 1]);
  }
  return bounds;
}();

// kFirstOfWidth[w] is the bucket of the least value of bit width w,
// 2^(w-1) (0 for w = 0): every value of that width lands there or a few
// buckets further, past the bounds below it that share its width.
constexpr std::array<std::uint8_t, 65> kFirstOfWidth = [] {
  std::array<std::uint8_t, 65> first{};
  for (int w = 0; w <= 64; ++w) {
    const std::uint64_t least = w == 0 ? 0 : std::uint64_t{1} << (w - 1);
    std::size_t i = 0;
    while (i + 1 < kNumBounds && kBounds[i] < least) ++i;
    first[w] = static_cast<std::uint8_t>(i);
  }
  return first;
}();

}  // namespace

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

std::span<const std::uint64_t> Histogram::Bounds() { return kBounds; }

std::size_t Histogram::BucketOf(std::uint64_t value) {
  std::size_t idx = kFirstOfWidth[std::bit_width(value)];
  while (idx + 1 < kNumBounds && kBounds[idx] < value) ++idx;
  return idx;
}

Histogram::Histogram() : buckets_(kNumBounds, 0) {}

void Histogram::Add(std::uint64_t value) {
  ++buckets_[BucketOf(value)];
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
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    double lo_cum = static_cast<double>(cum);
    cum += buckets_[i];
    if (static_cast<double>(cum) >= rank) {
      double lo = i == 0 ? 0.0 : static_cast<double>(kBounds[i - 1]);
      double hi = static_cast<double>(kBounds[i]);
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
