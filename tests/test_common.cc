#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/export.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/status.h"

namespace drrs {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad key");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad key");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad key");
}

TEST(Status, EqualityComparesCodeOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(Status, AllConstructorsProduceDistinctCodes) {
  std::vector<Status> all = {
      Status::InvalidArgument(""),    Status::NotFound(""),
      Status::AlreadyExists(""),      Status::FailedPrecondition(""),
      Status::ResourceExhausted(""),  Status::Internal(""),
      Status::Unimplemented(""),
  };
  std::set<Status::Code> codes;
  for (const Status& s : all) codes.insert(s.code());
  EXPECT_EQ(codes.size(), all.size());
}

Status Fails() { return Status::Internal("inner"); }
Status Propagates() {
  DRRS_RETURN_NOT_OK(Fails());
  return Status::OK();
}

TEST(Status, ReturnNotOkMacroPropagates) {
  EXPECT_EQ(Propagates().code(), Status::Code::kInternal);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 3);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(123);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.15);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(11);
  double sum = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextExponential(50.0);
  EXPECT_NEAR(sum / kDraws, 50.0, 1.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(3);
  Rng b = a.Fork();
  EXPECT_NE(a.Next(), b.Next());
}

// ---------------------------------------------------------------------------
// ZipfSampler
// ---------------------------------------------------------------------------

TEST(Zipf, ZeroSkewIsUniform) {
  ZipfSampler z(10, 0.0, 42);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[z.Sample()];
  for (int c : counts) EXPECT_NEAR(c, 5000, 800);
}

TEST(Zipf, SamplesWithinRange) {
  ZipfSampler z(100, 1.0, 7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Sample(), 100u);
}

TEST(Zipf, HigherSkewConcentratesOnHead) {
  auto head_mass = [](double skew) {
    ZipfSampler z(1000, skew, 9);
    int head = 0;
    for (int i = 0; i < 20000; ++i) head += (z.Sample() < 10);
    return head;
  };
  int mild = head_mass(0.5);
  int heavy = head_mass(1.5);
  EXPECT_GT(heavy, mild * 2);
}

TEST(Zipf, RankFrequencyMonotone) {
  ZipfSampler z(50, 1.0, 21);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 200000; ++i) ++counts[z.Sample()];
  // First rank clearly beats the 10th, which beats the 40th.
  EXPECT_GT(counts[0], counts[9]);
  EXPECT_GT(counts[9], counts[39]);
}

TEST(Zipf, SingleElementAlwaysZero) {
  ZipfSampler z(1, 1.2, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.Sample(), 0u);
}

// ---------------------------------------------------------------------------
// HashKey
// ---------------------------------------------------------------------------

TEST(Hash, DeterministicAndSpreads) {
  EXPECT_EQ(HashKey(12345), HashKey(12345));
  // Sequential keys should land in many distinct buckets of 128.
  std::set<uint64_t> buckets;
  for (uint64_t k = 0; k < 1000; ++k) buckets.insert(HashKey(k) % 128);
  EXPECT_GE(buckets.size(), 120u);
}

TEST(Hash, BalancedOver128Groups) {
  std::vector<int> counts(128, 0);
  for (uint64_t k = 0; k < 128000; ++k) ++counts[HashKey(k) % 128];
  auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*mn, 800);
  EXPECT_LT(*mx, 1200);
}

// ---------------------------------------------------------------------------
// Export helpers: JSON string escaping and file writes
// ---------------------------------------------------------------------------

TEST(AppendJsonString, EscapesQuotesBackslashAndControlCharacters) {
  std::string out;
  // "\x01" "f": a hex escape would swallow the f.
  AppendJsonString(&out, std::string("a\"b\\c\nd\te\x01" "f"));
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\te\\u0001f\"");
}

TEST(WriteFile, WritesContentAndReportsUnwritablePaths) {
  const std::string path = ::testing::TempDir() + "export_write.txt";
  ASSERT_TRUE(WriteFile(path, "line 1\nline 2\n", "test").ok());
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), "line 1\nline 2\n");

  Status st = WriteFile("/nonexistent-dir/x.txt", "x", "test");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("cannot open test file: /nonexistent-dir/x.txt"),
            std::string::npos);
}

}  // namespace
}  // namespace drrs
