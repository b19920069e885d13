// RingDeque coverage: FIFO order across wrap-around and growth, middle
// insert/erase on both shift sides of a wrapped ring, truncate, move
// semantics, and exactly-once destruction of non-trivial elements.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/ring_deque.h"

namespace drrs {
namespace {

std::vector<int> Contents(const RingDeque<int>& dq) {
  return std::vector<int>(dq.begin(), dq.end());
}

// An 8-slot ring (the initial capacity) holding 0..5 with its head at slot 5,
// so the contents straddle the end of the buffer.
RingDeque<int> WrappedSix() {
  RingDeque<int> dq;
  for (int i = 0; i < 5; ++i) dq.push_back(-1);
  for (int i = 0; i < 5; ++i) dq.pop_front();
  for (int i = 0; i < 6; ++i) dq.push_back(i);
  return dq;
}

TEST(RingDeque, WrapAroundKeepsFifoOrder) {
  RingDeque<int> dq;
  // Interleave push/pop so head walks around the ring repeatedly.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 7; ++i) dq.push_back(next_in++);
    for (int i = 0; i < 5; ++i) {
      ASSERT_FALSE(dq.empty());
      EXPECT_EQ(dq.front(), next_out++);
      dq.pop_front();
    }
  }
  while (!dq.empty()) {
    EXPECT_EQ(dq.front(), next_out++);
    dq.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(RingDeque, GrowthWhileWrappedKeepsFifoOrder) {
  RingDeque<int> dq = WrappedSix();
  ASSERT_EQ(dq.capacity(), 8u);
  // Fill the wrapped ring, then push past it: Grow copies out of a ring
  // whose head is not slot 0.
  dq.push_back(6);
  dq.push_back(7);
  ASSERT_EQ(dq.capacity(), 8u);
  dq.push_back(8);
  EXPECT_EQ(dq.capacity(), 16u);
  dq.push_front(-1);
  EXPECT_EQ(Contents(dq), (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(dq.front(), -1);
  EXPECT_EQ(dq.back(), 8);
  EXPECT_EQ(dq[4], 3);
}

TEST(RingDeque, MiddleInsertShiftsEitherSideOfAWrappedRing) {
  RingDeque<int> tail = WrappedSix();
  tail.insert(4, 40);  // pos * 2 >= size: the tail shifts right
  EXPECT_EQ(Contents(tail), (std::vector<int>{0, 1, 2, 3, 40, 4, 5}));

  RingDeque<int> head = WrappedSix();
  head.insert(2, 20);  // pos * 2 < size: the head shifts left
  EXPECT_EQ(Contents(head), (std::vector<int>{0, 1, 20, 2, 3, 4, 5}));

  // insert at either end is push_front / push_back.
  head.insert(0, -1);
  head.insert(head.size(), 6);
  EXPECT_EQ(Contents(head), (std::vector<int>{-1, 0, 1, 20, 2, 3, 4, 5, 6}));

  // A middle insert into a full wrapped ring grows it first.
  RingDeque<int> full = WrappedSix();
  full.push_back(6);
  full.push_back(7);
  ASSERT_EQ(full.capacity(), 8u);
  full.insert(3, 30);
  EXPECT_EQ(full.capacity(), 16u);
  EXPECT_EQ(Contents(full), (std::vector<int>{0, 1, 2, 30, 3, 4, 5, 6, 7}));
}

TEST(RingDeque, MiddleEraseShiftsEitherSideOfAWrappedRing) {
  RingDeque<int> tail = WrappedSix();
  tail.erase(4);  // pos * 2 >= size: the tail shifts left
  EXPECT_EQ(Contents(tail), (std::vector<int>{0, 1, 2, 3, 5}));

  RingDeque<int> head = WrappedSix();
  head.erase(1);  // pos * 2 < size: the head shifts right
  EXPECT_EQ(Contents(head), (std::vector<int>{0, 2, 3, 4, 5}));

  head.erase(0);
  head.erase(head.size() - 1);
  EXPECT_EQ(Contents(head), (std::vector<int>{2, 3, 4}));
}

TEST(RingDeque, TruncateDropsTheTail) {
  RingDeque<int> dq = WrappedSix();
  dq.truncate(10);  // larger than size: no-op
  EXPECT_EQ(dq.size(), 6u);
  dq.truncate(3);
  EXPECT_EQ(Contents(dq), (std::vector<int>{0, 1, 2}));
  dq.push_back(9);
  EXPECT_EQ(Contents(dq), (std::vector<int>{0, 1, 2, 9}));
  dq.truncate(0);
  EXPECT_TRUE(dq.empty());
  // The buffer is kept for reuse.
  EXPECT_EQ(dq.capacity(), 8u);
}

TEST(RingDeque, MoveLeavesSourceEmptyAndTargetIntact) {
  RingDeque<int> src = WrappedSix();
  RingDeque<int> constructed(std::move(src));
  EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(src.capacity(), 0u);
  EXPECT_EQ(Contents(constructed), (std::vector<int>{0, 1, 2, 3, 4, 5}));

  RingDeque<int> assigned;
  assigned.push_back(99);
  assigned = std::move(constructed);
  EXPECT_TRUE(constructed.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(constructed.capacity(), 0u);
  EXPECT_EQ(Contents(assigned), (std::vector<int>{0, 1, 2, 3, 4, 5}));

  // Both stay usable: the source grows a fresh buffer, the target wraps on.
  constructed.push_back(1);
  EXPECT_EQ(Contents(constructed), (std::vector<int>{1}));
  assigned.push_back(6);
  assigned.push_front(-1);
  EXPECT_EQ(Contents(assigned), (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6}));
}

TEST(RingDeque, NonTrivialElementsAreDestroyedExactlyOnce) {
  auto token = std::make_shared<int>(7);
  {
    RingDeque<std::shared_ptr<int>> dq;
    // Wrap the ring, then grow it twice: each element is moved, not copied,
    // so the count tracks exactly the live elements.
    for (int i = 0; i < 5; ++i) dq.push_back(token);
    for (int i = 0; i < 5; ++i) dq.pop_front();
    EXPECT_EQ(token.use_count(), 1);
    for (int i = 0; i < 20; ++i) dq.push_back(token);
    EXPECT_EQ(dq.capacity(), 32u);
    EXPECT_EQ(token.use_count(), 21);

    dq.erase(3);
    dq.erase(15);
    EXPECT_EQ(token.use_count(), 19);
    dq.insert(5, token);
    EXPECT_EQ(token.use_count(), 20);

    dq.truncate(12);
    EXPECT_EQ(token.use_count(), 13);
    dq.clear();
    EXPECT_EQ(token.use_count(), 1);

    for (int i = 0; i < 9; ++i) dq.push_back(token);
    EXPECT_EQ(token.use_count(), 10);
  }  // destruction releases what is still queued
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace drrs
