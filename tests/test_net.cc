#include <gtest/gtest.h>

#include <vector>

#include "dataflow/stream_element.h"
#include "net/channel.h"
#include "sim/simulator.h"

namespace drrs::net {
namespace {

using dataflow::ElementKind;
using dataflow::MakeRecord;
using dataflow::StreamElement;

class RecordingReceiver : public ChannelReceiver {
 public:
  void OnBatchAvailable(Channel* channel, size_t appended) override {
    available_calls += static_cast<int>(appended);
    ++batch_calls;
    last_channel = channel;
  }
  void OnControlBypass(Channel* /*channel*/,
                       const StreamElement& element) override {
    bypassed.push_back(element);
  }

  int available_calls = 0;
  int batch_calls = 0;
  Channel* last_channel = nullptr;
  std::vector<StreamElement> bypassed;
};

class ChannelTest : public ::testing::Test {
 protected:
  NetworkConfig MakeConfig() {
    NetworkConfig c;
    c.base_latency = sim::Micros(100);
    c.bandwidth_bytes_per_us = 100;
    c.input_buffer_capacity = 4;
    c.output_buffer_capacity = 8;
    return c;
  }

  StreamElement Rec(uint64_t key) { return MakeRecord(key, 1, 0, 0, 100); }

  sim::Simulator sim_;
  RecordingReceiver receiver_;
};

TEST_F(ChannelTest, DeliversInFifoOrder) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  for (uint64_t k = 0; k < 4; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  ASSERT_EQ(ch.input_queue_size(), 4u);
  for (uint64_t k = 0; k < 4; ++k) EXPECT_EQ(ch.PopInput().key, k);
}

TEST_F(ChannelTest, DeliveryTakesLatencyAndBandwidth) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  ch.Push(Rec(0));  // 100 bytes at 100 B/us = 1us transfer + 100us latency
  sim_.RunUntil(100);
  EXPECT_EQ(ch.input_queue_size(), 0u);
  sim_.RunUntilIdle();
  EXPECT_EQ(ch.input_queue_size(), 1u);
  EXPECT_EQ(sim_.now(), 101);
}

TEST_F(ChannelTest, CreditWindowLimitsInFlight) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  for (uint64_t k = 0; k < 10; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  // Only input_buffer_capacity elements may be delivered until consumed.
  EXPECT_EQ(ch.input_queue_size(), 4u);
  EXPECT_EQ(ch.output_queue_size(), 6u);
  // Consuming releases credit and resumes transmission.
  ch.PopInput();
  ch.PopInput();
  sim_.RunUntilIdle();
  EXPECT_EQ(ch.input_queue_size(), 4u);
  EXPECT_EQ(ch.output_queue_size(), 4u);
}

TEST_F(ChannelTest, BatchedDeliveryCoalescesSameArrivalInstant) {
  // Fast wire: 100-byte records at 10000 B/us serialize in < 1 time unit, so
  // a burst shares one arrival instant and must land as ONE batch — a single
  // receiver notification covering all records, with the element count kept.
  NetworkConfig c = MakeConfig();
  c.bandwidth_bytes_per_us = 10000;
  Channel ch(&sim_, c, 1, 2, &receiver_);
  for (uint64_t k = 0; k < 4; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  EXPECT_EQ(receiver_.batch_calls, 1);
  EXPECT_EQ(receiver_.available_calls, 4);  // sum of `appended`
  EXPECT_EQ(ch.delivered_elements(), 4u);
  EXPECT_EQ(ch.delivered_batches(), 1u);
  for (uint64_t k = 0; k < 4; ++k) EXPECT_EQ(ch.PopInput().key, k);
}

TEST_F(ChannelTest, StaggeredArrivalsDeliverAsSingletonBatches) {
  // Slow wire: 1 us serialization per record staggers arrivals, so each
  // record is its own due prefix — batching must degrade to per-record
  // delivery without merging records that are not due yet.
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  for (uint64_t k = 0; k < 4; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  EXPECT_EQ(receiver_.batch_calls, 4);
  EXPECT_EQ(receiver_.available_calls, 4);
  EXPECT_EQ(ch.delivered_batches(), 4u);
}

TEST_F(ChannelTest, CongestionSignalsAtCapacity) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  for (uint64_t k = 0; k < 12; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  EXPECT_TRUE(ch.congested());  // 8 left in output cache (12 - 4 delivered)
  int decongest_fired = 0;
  ch.AddDecongestListener([&] { ++decongest_fired; });
  // Drain the input queue repeatedly: credit lets output drain below half.
  while (ch.HasInput()) {
    ch.PopInput();
    sim_.RunUntilIdle();
  }
  EXPECT_GT(decongest_fired, 0);
  EXPECT_FALSE(ch.congested());
}

TEST_F(ChannelTest, PushPriorityJumpsQueue) {
  NetworkConfig cfg = MakeConfig();
  cfg.input_buffer_capacity = 1;  // keep everything in the output cache
  Channel ch(&sim_, cfg, 1, 2, &receiver_);
  for (uint64_t k = 0; k < 3; ++k) ch.Push(Rec(k));
  StreamElement barrier;
  barrier.kind = ElementKind::kConfirmBarrier;
  ch.PushPriority(barrier);
  sim_.RunUntilIdle();
  // First delivery is record 0 (already in flight before the priority push),
  // but the barrier overtakes records 1 and 2.
  EXPECT_EQ(ch.PopInput().key, 0u);
  sim_.RunUntilIdle();
  EXPECT_EQ(ch.PopInput().kind, ElementKind::kConfirmBarrier);
}

TEST_F(ChannelTest, PushBypassSkipsQueues) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  for (uint64_t k = 0; k < 20; ++k) ch.Push(Rec(k));
  StreamElement trigger;
  trigger.kind = ElementKind::kTriggerBarrier;
  ch.PushBypass(trigger);
  sim_.RunUntil(sim::Micros(100));  // exactly base latency
  ASSERT_EQ(receiver_.bypassed.size(), 1u);
  EXPECT_EQ(receiver_.bypassed[0].kind, ElementKind::kTriggerBarrier);
  // Data is still queued behind.
  EXPECT_GT(ch.output_queue_size() + ch.in_flight(), 0u);
}

TEST_F(ChannelTest, ExtractFromOutputPreservesOrder) {
  NetworkConfig cfg = MakeConfig();
  cfg.input_buffer_capacity = 1;
  Channel ch(&sim_, cfg, 1, 2, &receiver_);
  for (uint64_t k = 0; k < 8; ++k) ch.Push(Rec(k));
  sim_.RunUntilIdle();
  // key 0 is in flight/delivered; 1..7 remain in the output cache.
  auto odd = ch.ExtractFromOutput(
      [](const StreamElement& e) { return e.key % 2 == 1; });
  ASSERT_EQ(odd.size(), 4u);
  EXPECT_EQ(odd[0].key, 1u);
  EXPECT_EQ(odd[3].key, 7u);
  // Remaining even keys still deliver in order.
  std::vector<uint64_t> seen;
  while (true) {
    sim_.RunUntilIdle();
    if (!ch.HasInput()) break;
    seen.push_back(ch.PopInput().key);
  }
  EXPECT_EQ(seen, (std::vector<uint64_t>{0, 2, 4, 6}));
}

TEST_F(ChannelTest, ExtractBeforeStopsAtBarrier) {
  NetworkConfig cfg = MakeConfig();
  cfg.input_buffer_capacity = 1;
  Channel ch(&sim_, cfg, 1, 2, &receiver_);
  ch.Push(Rec(100));  // goes in flight
  ch.Push(Rec(1));
  ch.Push(Rec(2));
  StreamElement barrier;
  barrier.kind = ElementKind::kCheckpointBarrier;
  ch.Push(barrier);
  ch.Push(Rec(3));
  auto taken = ch.ExtractFromOutputBefore(
      [](const StreamElement& e) { return e.kind == ElementKind::kRecord; },
      [](const StreamElement& e) {
        return e.kind == ElementKind::kCheckpointBarrier;
      });
  ASSERT_EQ(taken.size(), 2u);  // records 1 and 2 only; 3 is past the barrier
  EXPECT_EQ(taken[0].key, 1u);
  EXPECT_EQ(taken[1].key, 2u);
}

TEST_F(ChannelTest, InsertAfterFirstBarrier) {
  NetworkConfig cfg = MakeConfig();
  cfg.input_buffer_capacity = 1;
  Channel ch(&sim_, cfg, 1, 2, &receiver_);
  ch.Push(Rec(0));
  StreamElement barrier;
  barrier.kind = ElementKind::kCheckpointBarrier;
  ch.Push(barrier);
  ch.Push(Rec(1));
  StreamElement confirm;
  confirm.kind = ElementKind::kConfirmBarrier;
  EXPECT_TRUE(ch.InsertAfterFirst(
      [](const StreamElement& e) {
        return e.kind == ElementKind::kCheckpointBarrier;
      },
      confirm));
  // Drain everything; the confirm must come right after the barrier.
  std::vector<ElementKind> kinds;
  while (true) {
    sim_.RunUntilIdle();
    if (!ch.HasInput()) break;
    kinds.push_back(ch.PopInput().kind);
  }
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[1], ElementKind::kCheckpointBarrier);
  EXPECT_EQ(kinds[2], ElementKind::kConfirmBarrier);
}

TEST_F(ChannelTest, InsertAfterFirstNoMatch) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  StreamElement confirm;
  confirm.kind = ElementKind::kConfirmBarrier;
  EXPECT_FALSE(ch.InsertAfterFirst(
      [](const StreamElement& e) {
        return e.kind == ElementKind::kCheckpointBarrier;
      },
      confirm));
}

TEST_F(ChannelTest, OnElementAvailableFires) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  ch.Push(Rec(0));
  sim_.RunUntilIdle();
  EXPECT_EQ(receiver_.available_calls, 1);
  EXPECT_EQ(receiver_.last_channel, &ch);
}

TEST_F(ChannelTest, StateChunkUsesChunkBytes) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  StreamElement chunk;
  chunk.kind = ElementKind::kStateChunk;
  chunk.chunk_bytes = 10000;  // 100us transfer at 100 B/us + 100us latency
  ch.Push(chunk);
  sim_.RunUntil(150);
  EXPECT_EQ(ch.input_queue_size(), 0u);
  sim_.RunUntilIdle();
  EXPECT_EQ(sim_.now(), 200);
}

TEST_F(ChannelTest, ScalingPathFlag) {
  Channel ch(&sim_, MakeConfig(), 1, 2, &receiver_);
  EXPECT_FALSE(ch.scaling_path());
  ch.set_scaling_path(true);
  EXPECT_TRUE(ch.scaling_path());
}

}  // namespace
}  // namespace drrs::net
