#include "metrics/histogram.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace drrs::metrics {

size_t LogHistogram::BucketIndex(double v) {
  if (!(v > 0)) return 0;  // also catches NaN
  int e = 0;
  std::frexp(v, &e);
  --e;  // v = m * 2^e with m in [1, 2)
  if (e < kMinExp) return 0;
  if (e > kMaxExp) e = kMaxExp;
  double mantissa = v / std::ldexp(1.0, e);
  int sub = static_cast<int>((mantissa - 1.0) * kSub);
  sub = std::clamp(sub, 0, kSub - 1);
  return 1 + static_cast<size_t>(e - kMinExp) * kSub +
         static_cast<size_t>(sub);
}

double LogHistogram::BucketMidpoint(size_t index) {
  if (index == 0) return 0;
  size_t off = index - 1;
  int e = kMinExp + static_cast<int>(off / kSub);
  double sub = static_cast<double>(off % kSub);
  double scale = std::ldexp(1.0, e);
  double lower = scale * (1.0 + sub / kSub);
  double upper = scale * (1.0 + (sub + 1.0) / kSub);
  return (lower + upper) / 2.0;
}

void LogHistogram::Record(double value) {
  if (std::isnan(value)) return;
  if (value < 0) value = 0;
  size_t idx = BucketIndex(value);
  if (buckets_.size() <= idx) buckets_.resize(idx + 1, 0);
  ++buckets_[idx];
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value;
  ++count_;
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the requested quantile among `count_` samples (nearest-rank).
  auto rank = static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
  uint64_t cum = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    cum += buckets_[i];
    if (cum > rank) {
      return std::clamp(BucketMidpoint(i), min_, max_);
    }
  }
  return max_;
}

LogHistogram::Summary LogHistogram::Summarize() const {
  Summary s;
  s.count = count_;
  s.mean = mean();
  s.p50 = Quantile(0.50);
  s.p90 = Quantile(0.90);
  s.p99 = Quantile(0.99);
  s.p999 = Quantile(0.999);
  s.max = max();
  return s;
}

void LogHistogram::AppendJson(std::string* out) const {
  Summary s = Summarize();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"count\":%" PRIu64
                ",\"mean\":%.6g,\"p50\":%.6g,\"p90\":%.6g,\"p99\":%.6g,"
                "\"p999\":%.6g,\"max\":%.6g}",
                s.count, s.mean, s.p50, s.p90, s.p99, s.p999, s.max);
  *out += buf;
}

}  // namespace drrs::metrics
