#ifndef TDR_UTIL_STATS_H_
#define TDR_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace tdr {

/// Online mean/variance accumulator (Welford). O(1) space, numerically
/// stable; used by benches to report measured rates with confidence
/// intervals across simulation repetitions.
class OnlineStats {
 public:
  OnlineStats() = default;

  void Add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

  /// Standard error of the mean.
  double stderr_mean() const;

  /// Half-width of the ~95% confidence interval on the mean (1.96 sigma;
  /// fine for the sample counts benches use).
  double ci95_half_width() const;

  std::string ToString() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-boundary histogram with power-of-two-ish buckets, in the spirit
/// of the RocksDB statistics histograms. Records latency-like values
/// (e.g. lock wait durations in simulated microseconds).
class Histogram {
 public:
  Histogram();

  void Add(std::uint64_t value);

  std::uint64_t count() const { return count_; }
  double mean() const;
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }

  /// Approximate percentile via linear interpolation within the bucket.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }

  std::string ToString() const;

  /// Bucket upper bounds: 1, 2, ..., 10, then steps of about 1.5x up to
  /// 2^62.
  static std::span<const std::uint64_t> Bounds();
  /// The bucket `value` is counted in: the first whose bound is at least
  /// `value`, or the last one for a value past the last bound. Found from
  /// the value's bit width, which no more than four bounds share.
  static std::size_t BucketOf(std::uint64_t value);

 private:
  std::vector<std::uint64_t> buckets_;  // parallel to Bounds()
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace tdr

#endif  // TDR_UTIL_STATS_H_
