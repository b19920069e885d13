#ifndef DRRS_METRICS_HISTOGRAM_H_
#define DRRS_METRICS_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace drrs::metrics {

/// \brief Log-bucketed (HDR-style) histogram for non-negative values.
///
/// Buckets are powers of two subdivided into 8 linear sub-buckets, giving a
/// bounded relative error (~6%) on quantiles at O(1) record cost and a few
/// hundred bytes of memory regardless of sample count. Used for latency and
/// stall-duration distributions (p50/p90/p99/p999) where storing every
/// sample would be wasteful; the exact Fig 12/13 aggregates stay on their
/// original exact accumulators.
///
/// Units are the caller's choice (the engine records milliseconds); the
/// resolution floor is ~2^-10 ≈ 0.001, values below it share bucket 0.
class LogHistogram {
 public:
  void Record(double value);

  uint64_t count() const { return count_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

  /// q in [0, 1]. Returns the midpoint of the bucket holding the rank,
  /// clamped to the observed [min, max]; 0 when empty.
  double Quantile(double q) const;

  struct Summary {
    uint64_t count = 0;
    double mean = 0;
    double p50 = 0;
    double p90 = 0;
    double p99 = 0;
    double p999 = 0;
    double max = 0;
  };
  Summary Summarize() const;
  /// Append Summarize() to `out` as the JSON object
  /// {"count":N,"mean":..,"p50":..,"p90":..,"p99":..,"p999":..,"max":..}
  /// with every double printed as %.6g.
  void AppendJson(std::string* out) const;

 private:
  static constexpr int kSubBits = 3;
  static constexpr int kSub = 1 << kSubBits;  ///< sub-buckets per octave
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 40;

  static size_t BucketIndex(double v);
  static double BucketMidpoint(size_t index);

  std::vector<uint64_t> buckets_;  ///< grown on demand
  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

}  // namespace drrs::metrics

#endif  // DRRS_METRICS_HISTOGRAM_H_
