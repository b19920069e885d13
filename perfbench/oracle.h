#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Output-equivalence oracle: a cell's results, as captured from the Emit of
// the operator that feeds the sink, compared as a multiset of
// (key, value, event_time) against the no-scale reference of the same
// workload. Header-only and free of simulator types so the benchmark's own
// test can exercise it on synthetic results.

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

namespace perfbench {

struct Result {
  uint64_t key = 0;
  int64_t value = 0;
  int64_t event_time = 0;

  friend bool operator<(const Result& a, const Result& b) {
    return std::tie(a.key, a.event_time, a.value) <
           std::tie(b.key, b.event_time, b.value);
  }
  friend bool operator==(const Result& a, const Result& b) {
    return a.key == b.key && a.value == b.value &&
           a.event_time == b.event_time;
  }
};

/// Results in canonical (sorted) order, so two multisets compare by a
/// single merge.
class ResultMultiset {
 public:
  ResultMultiset() = default;
  explicit ResultMultiset(std::vector<Result> results)
      : results_(std::move(results)) {
    std::sort(results_.begin(), results_.end());
  }

  uint64_t size() const { return results_.size(); }
  const std::vector<Result>& results() const { return results_; }

  /// Order-independent identity of the multiset (FNV-1a over the sorted
  /// results), for comparing runs without keeping every multiset.
  uint64_t Digest() const {
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
      }
    };
    for (const Result& r : results_) {
      mix(r.key);
      mix(static_cast<uint64_t>(r.value));
      mix(static_cast<uint64_t>(r.event_time));
    }
    return h;
  }

 private:
  std::vector<Result> results_;
};

/// How a cell's results differ from the reference. A result is missing when
/// the reference holds it more often than the cell, extra when the cell holds
/// it more often than the reference; a duplicate counts as one extra.
struct Divergence {
  uint64_t expected = 0;  ///< results in the reference
  uint64_t missing = 0;
  uint64_t extra = 0;

  uint64_t failed() const { return missing + extra; }
};

inline Divergence Compare(const ResultMultiset& reference,
                          const ResultMultiset& cell) {
  Divergence d;
  d.expected = reference.size();
  const std::vector<Result>& a = reference.results();
  const std::vector<Result>& b = cell.results();
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++d.missing;
      ++i;
    } else {
      ++d.extra;
      ++j;
    }
  }
  d.missing += a.size() - i;
  d.extra += b.size() - j;
  return d;
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
