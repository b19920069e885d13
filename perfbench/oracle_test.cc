// Tests of the output-equivalence oracle: identical runs count zero, and a
// dropped, duplicated or altered result is counted. Exits non-zero on the
// first failed expectation. Run: `python3 perfbench/run.py --self-test`.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "oracle.h"

namespace {

using perfbench::Compare;
using perfbench::Divergence;
using perfbench::Result;
using perfbench::ResultMultiset;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<Result> Sample() {
  std::vector<Result> rs;
  for (uint64_t k = 0; k < 50; ++k) {
    for (int64_t w = 1; w <= 4; ++w) {
      rs.push_back({k, static_cast<int64_t>(k * 7 + w), w * 500000});
    }
  }
  rs.push_back(rs[3]);  // the reference itself may hold duplicates
  return rs;
}

bool Same(const Divergence& d, uint64_t expected, uint64_t missing,
          uint64_t extra) {
  return d.expected == expected && d.missing == missing && d.extra == extra;
}

}  // namespace

int main() {
  const std::vector<Result> base = Sample();
  const ResultMultiset reference(base);

  // Identical runs, in any emission order, diverge by nothing.
  std::vector<Result> shuffled(base.rbegin(), base.rend());
  const ResultMultiset same(shuffled);
  Expect(Same(Compare(reference, same), base.size(), 0, 0),
         "identical pair counts zero");
  Expect(reference.Digest() == same.Digest(), "digest ignores order");

  // A dropped result is missing.
  std::vector<Result> dropped = base;
  dropped.erase(dropped.begin() + 10);
  Expect(Same(Compare(reference, ResultMultiset(dropped)), base.size(), 1, 0),
         "dropped result counted missing");

  // A duplicated result is extra; dropping one copy of a reference
  // duplicate is missing.
  std::vector<Result> duplicated = base;
  duplicated.push_back(base[20]);
  Expect(Same(Compare(reference, ResultMultiset(duplicated)), base.size(), 0,
              1),
         "duplicated result counted extra");
  std::vector<Result> one_copy = base;
  one_copy.pop_back();
  Expect(Same(Compare(reference, ResultMultiset(one_copy)), base.size(), 1, 0),
         "lost copy of a duplicate counted missing");

  // A wrong value is one missing plus one extra.
  std::vector<Result> altered = base;
  altered[5].value += 1;
  const ResultMultiset altered_set(altered);
  Expect(Same(Compare(reference, altered_set), base.size(), 1, 1),
         "altered value counted missing and extra");
  Expect(altered_set.Digest() != reference.Digest(), "digest sees a change");

  // Empty cells lose everything; an empty reference makes all extra.
  Expect(Same(Compare(reference, ResultMultiset()), base.size(), base.size(),
              0),
         "empty cell misses all");
  Expect(Same(Compare(ResultMultiset(), reference), 0, 0, base.size()),
         "empty reference: all extra");

  if (failures != 0) return EXIT_FAILURE;
  std::printf("oracle tests passed\n");
  return EXIT_SUCCESS;
}
