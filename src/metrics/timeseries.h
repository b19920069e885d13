#ifndef DRRS_METRICS_TIMESERIES_H_
#define DRRS_METRICS_TIMESERIES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sim_time.h"

namespace drrs::metrics {

/// One (time, value) observation.
struct Sample {
  sim::SimTime time = 0;
  double value = 0;
};

/// \brief Append-only series of timestamped observations with simple
/// aggregation helpers. Times must be pushed in non-decreasing order.
class TimeSeries {
 public:
  void Push(sim::SimTime t, double v) { samples_.push_back({t, v}); }

  const std::vector<Sample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }

  /// Max/mean over samples with time in [begin, end].
  double MaxIn(sim::SimTime begin, sim::SimTime end) const;
  double MeanIn(sim::SimTime begin, sim::SimTime end) const;

  /// Aggregate statistics over samples with time in [begin, end], computed
  /// in one pass in sample order (so sums match a hand-written loop bit for
  /// bit). min/max/mean are 0 when the window holds no samples.
  struct WindowStats {
    uint64_t count = 0;
    double min = 0;
    double max = 0;
    double sum = 0;
    double mean() const {
      return count == 0 ? 0 : sum / static_cast<double>(count);
    }
  };
  WindowStats StatsIn(sim::SimTime begin, sim::SimTime end) const;

  /// Mean of |value - ref| over samples in [begin, end]; 0 when empty.
  /// The throughput-deviation metric of Fig 11/15.
  double MeanAbsDeviationIn(double ref, sim::SimTime begin,
                            sim::SimTime end) const;

  /// Reduce to fixed-width buckets; each bucket's value is the mean (or max)
  /// of contained samples. Buckets with no samples are skipped.
  std::vector<Sample> Bucketed(sim::SimTime bucket, bool use_max = false) const;

 private:
  std::vector<Sample> samples_;
};

/// \brief Counts events into fixed-width buckets, yielding a rate series
/// (events per second). Used for throughput measurement.
class RateCounter {
 public:
  explicit RateCounter(sim::SimTime bucket_width) : width_(bucket_width) {}

  void Add(sim::SimTime t, uint64_t n = 1);

  /// Series of (bucket_start, events_per_second).
  TimeSeries ToRateSeries() const;

  uint64_t total() const { return total_; }
  sim::SimTime bucket_width() const { return width_; }

 private:
  sim::SimTime width_;
  std::vector<uint64_t> buckets_;
  uint64_t total_ = 0;
  // Last bucket hit; fast path for monotone (or same-bucket) Add streams.
  // kSimTimeMax start forces the slow path on first use.
  size_t cur_idx_ = 0;
  sim::SimTime cur_start_ = sim::kSimTimeMax;
};

}  // namespace drrs::metrics

#endif  // DRRS_METRICS_TIMESERIES_H_
