#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace drrs::sim {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&] { fired.push_back(3); });
  q.Schedule(10, [&] { fired.push_back(1); });
  q.Schedule(20, [&] { fired.push_back(2); });
  while (!q.empty()) {
    EventQueue::Fired f = q.Pop();
    f.fn(f.arg);
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TieBrokenByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.Schedule(5, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) {
    EventQueue::Fired f = q.Pop();
    f.fn(f.arg);
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, TieBreakIsGlobalInsertionOrder) {
  // The tie-break rule is FIFO by the queue-wide insertion sequence, not a
  // per-timestamp counter: among same-time events, whichever was scheduled
  // first (at any point) pops first.
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(7, [&] { fired.push_back(1); });
  q.Schedule(5, [&] { fired.push_back(2); });
  q.Schedule(7, [&] { fired.push_back(3); });
  q.Schedule(5, [&] { fired.push_back(4); });
  while (!q.empty()) {
    EventQueue::Fired f = q.Pop();
    f.fn(f.arg);
  }
  EXPECT_EQ(fired, (std::vector<int>{2, 4, 1, 3}));
}

TEST(EventQueue, DestroyingReleasesPendingCallbacks) {
  // A run stopped at a horizon leaves events pending; destroying the
  // simulator must destroy their callbacks, captures included.
  auto payload = std::make_shared<int>(7);
  {
    Simulator sim;
    sim.ScheduleAt(Seconds(100), [payload] {});
    sim.RunUntil(Seconds(10));
    EXPECT_EQ(payload.use_count(), 2);
  }
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(EventQueue, PeekTimeEmpty) {
  EventQueue q;
  EXPECT_EQ(q.PeekTime(), kSimTimeMax);
  q.Schedule(42, [] {});
  EXPECT_EQ(q.PeekTime(), 42);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = -1;
  sim.ScheduleAt(100, [&] { seen = sim.now(); });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 100);
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime seen = -1;
  sim.ScheduleAt(50, [&] {
    sim.ScheduleAfter(25, [&] { seen = sim.now(); });
  });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 75);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  Simulator sim;
  SimTime seen = -1;
  sim.ScheduleAt(100, [&] {
    sim.ScheduleAt(10, [&] { seen = sim.now(); });  // in the past
  });
  sim.RunUntilIdle();
  EXPECT_EQ(seen, 100);
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(10, [&] { ++fired; });
  sim.ScheduleAt(20, [&] { ++fired; });
  sim.ScheduleAt(30, [&] { ++fired; });
  uint64_t n = sim.RunUntil(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, 2);
  sim.RunUntilIdle();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, StepExecutesOne) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(1, [&] { ++fired; });
  sim.ScheduleAt(2, [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(Simulator, EventsCanCascade) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) sim.ScheduleAfter(1, recurse);
  };
  sim.ScheduleAt(0, recurse);
  sim.RunUntilIdle();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), 99);
}

TEST(PeriodicProcess, FiresAtPeriod) {
  Simulator sim;
  std::vector<SimTime> fires;
  PeriodicProcess p(&sim, 10, 5, [&] { fires.push_back(sim.now()); });
  sim.RunUntil(30);
  EXPECT_EQ(fires, (std::vector<SimTime>{10, 15, 20, 25, 30}));
  p.Cancel();
  sim.RunUntil(100);
  EXPECT_EQ(fires.size(), 5u);
}

TEST(PeriodicProcess, CancelFromBody) {
  Simulator sim;
  int count = 0;
  PeriodicProcess* handle = nullptr;
  PeriodicProcess p(&sim, 0, 1, [&] {
    if (++count == 3) handle->Cancel();
  });
  handle = &p;
  sim.RunUntilIdle();
  EXPECT_EQ(count, 3);
}

TEST(PeriodicProcess, DestructionCancelsSafely) {
  Simulator sim;
  int count = 0;
  {
    PeriodicProcess p(&sim, 0, 1, [&] { ++count; });
  }
  sim.RunUntil(10);  // must not crash or fire
  EXPECT_EQ(count, 0);
}

TEST(PeriodicProcess, CancelledArmedFireIsNotExecuted) {
  // A cancelled process can still have one armed event in the queue; it
  // must fire as a no-op.
  Simulator sim;
  int count = 0;
  PeriodicProcess p(&sim, 10, 10, [&] { ++count; });
  sim.ScheduleAt(5, [&] { p.Cancel(); });  // cancel while armed for t=10
  sim.RunUntilIdle();
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace drrs::sim
