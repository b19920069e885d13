#include "metrics/timeseries.h"

#include <algorithm>
#include <cmath>

namespace drrs::metrics {

double TimeSeries::MaxIn(sim::SimTime begin, sim::SimTime end) const {
  double best = 0;
  for (const Sample& s : samples_) {
    if (s.time < begin || s.time > end) continue;
    best = std::max(best, s.value);
  }
  return best;
}

double TimeSeries::MeanIn(sim::SimTime begin, sim::SimTime end) const {
  double sum = 0;
  uint64_t n = 0;
  for (const Sample& s : samples_) {
    if (s.time < begin || s.time > end) continue;
    sum += s.value;
    ++n;
  }
  return n == 0 ? 0 : sum / static_cast<double>(n);
}

TimeSeries::WindowStats TimeSeries::StatsIn(sim::SimTime begin,
                                            sim::SimTime end) const {
  WindowStats w;
  for (const Sample& s : samples_) {
    if (s.time < begin || s.time > end) continue;
    if (w.count == 0) {
      w.min = s.value;
      w.max = s.value;
    } else {
      w.min = std::min(w.min, s.value);
      w.max = std::max(w.max, s.value);
    }
    w.sum += s.value;
    ++w.count;
  }
  return w;
}

double TimeSeries::MeanAbsDeviationIn(double ref, sim::SimTime begin,
                                      sim::SimTime end) const {
  double dev = 0;
  uint64_t n = 0;
  for (const Sample& s : samples_) {
    if (s.time < begin || s.time > end) continue;
    dev += std::abs(s.value - ref);
    ++n;
  }
  return n == 0 ? 0 : dev / static_cast<double>(n);
}

std::vector<Sample> TimeSeries::Bucketed(sim::SimTime bucket,
                                         bool use_max) const {
  std::vector<Sample> out;
  if (samples_.empty() || bucket <= 0) return out;
  size_t i = 0;
  while (i < samples_.size()) {
    sim::SimTime start = samples_[i].time / bucket * bucket;
    double agg = samples_[i].value;
    uint64_t n = 1;
    size_t j = i + 1;
    while (j < samples_.size() && samples_[j].time < start + bucket) {
      if (use_max) {
        agg = std::max(agg, samples_[j].value);
      } else {
        agg += samples_[j].value;
      }
      ++n;
      ++j;
    }
    out.push_back({start, use_max ? agg : agg / static_cast<double>(n)});
    i = j;
  }
  return out;
}

void RateCounter::Add(sim::SimTime t, uint64_t n) {
  if (t < 0) t = 0;
  // Hot path: simulated time moves (mostly) forward, so consecutive Adds
  // usually land in the same bucket — skip the division while they do.
  if (t >= cur_start_ && t - cur_start_ < width_) {
    buckets_[cur_idx_] += n;
    total_ += n;
    return;
  }
  size_t idx = static_cast<size_t>(t / width_);
  if (buckets_.size() <= idx) buckets_.resize(idx + 1, 0);
  buckets_[idx] += n;
  total_ += n;
  cur_idx_ = idx;
  cur_start_ = static_cast<sim::SimTime>(idx) * width_;
}

TimeSeries RateCounter::ToRateSeries() const {
  TimeSeries out;
  double per_second = 1e6 / static_cast<double>(width_);
  for (size_t i = 0; i < buckets_.size(); ++i) {
    out.Push(static_cast<sim::SimTime>(i) * width_,
             static_cast<double>(buckets_[i]) * per_second);
  }
  return out;
}

}  // namespace drrs::metrics
