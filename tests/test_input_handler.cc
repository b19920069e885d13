#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "dataflow/key_space.h"
#include "dataflow/operator.h"
#include "dataflow/routing_table.h"
#include "metrics/metrics_hub.h"
#include "net/channel.h"
#include "runtime/task.h"
#include "runtime/task_hook.h"
#include "sim/simulator.h"

namespace drrs::runtime {
namespace {

using dataflow::ElementKind;
using dataflow::MakeRecord;
using dataflow::StreamElement;

/// Records the order in which keys, and their order stamps, reach the
/// operator.
class RecordingOperator : public dataflow::Operator {
 public:
  RecordingOperator(std::vector<dataflow::KeyT>* keys,
                    std::vector<uint64_t>* seqs)
      : keys_(keys), seqs_(seqs) {}
  void ProcessRecord(const StreamElement& record,
                     dataflow::OperatorContext* /*ctx*/) override {
    keys_->push_back(record.key);
    seqs_->push_back(record.seq);
  }

 private:
  std::vector<dataflow::KeyT>* keys_;
  std::vector<uint64_t>* seqs_;
};

/// Hook whose processability is controlled by a key blocklist.
class BlocklistHook : public TaskHook {
 public:
  bool IsProcessable(Task* /*task*/, net::Channel* /*channel*/,
                     const StreamElement& e) override {
    if (e.kind != ElementKind::kRecord || e.rerouted) return true;
    return blocked.count(e.key) == 0;
  }
  std::set<dataflow::KeyT> blocked;
};

class InputHandlerTest : public ::testing::Test {
 protected:
  InputHandlerTest() : key_space_(8) {
    dataflow::OperatorSpec spec;
    spec.name = "probe";
    spec.parallelism = 1;
    spec.is_stateful = false;
    spec.record_cost = sim::Micros(10);
    std::vector<dataflow::KeyT>* keys = &processed_;
    std::vector<uint64_t>* seqs = &seqs_;
    spec.factory = [keys, seqs]() {
      return std::make_unique<RecordingOperator>(keys, seqs);
    };
    task_ = std::make_unique<Task>(&sim_, spec, /*id=*/0, /*op=*/0,
                                   /*subtask=*/0, &key_space_, &hub_,
                                   /*check_invariants=*/false);
  }

  net::Channel* AddChannel(dataflow::InstanceId sender) {
    net::NetworkConfig cfg;
    cfg.base_latency = sim::Micros(10);
    channels_.push_back(std::make_unique<net::Channel>(&sim_, cfg, sender,
                                                       0, task_.get()));
    task_->AddInputChannel(channels_.back().get());
    return channels_.back().get();
  }

  /// A scaling rail from `sender`, opened the way ScalingRails::Open does.
  net::Channel* AddRail(dataflow::InstanceId sender) {
    net::Channel* rail = AddChannel(sender);
    rail->set_scaling_path(true);
    rail->set_rail_open(true);
    return rail;
  }

  /// Close `rail` the way ScalingRails::Release does.
  void ReleaseRail(net::Channel* rail) {
    rail->set_rail_open(false);
    task_->RecomputeWatermark();
  }

  /// A task of another operator whose one hash edge routes every key-group
  /// to task_.
  std::unique_ptr<Task> MakeHashSender(dataflow::InstanceId id,
                                       bool check_invariants) {
    dataflow::OperatorSpec spec;
    spec.name = "sender";
    spec.parallelism = 1;
    auto sender = std::make_unique<Task>(&sim_, spec, id, /*op=*/1,
                                         /*subtask=*/0, &key_space_, &hub_,
                                         check_invariants);
    OutputEdge edge;
    edge.to_op = 0;
    edge.partitioning = dataflow::Partitioning::kHash;
    edge.routing = dataflow::RoutingTable(
        std::vector<dataflow::InstanceId>(key_space_.num_key_groups(), 0));
    edge.channels = {AddChannel(id)};
    sender->AddOutputEdge(std::move(edge));
    return sender;
  }

  sim::Simulator sim_;
  metrics::MetricsHub hub_;
  dataflow::KeySpace key_space_;
  std::vector<dataflow::KeyT> processed_;
  std::vector<uint64_t> seqs_;
  std::vector<std::unique_ptr<net::Channel>> channels_;
  std::unique_ptr<Task> task_;
};

TEST_F(InputHandlerTest, ProcessesFifoWithinChannel) {
  net::Channel* ch = AddChannel(100);
  for (uint64_t k = 1; k <= 5; ++k) ch->Push(MakeRecord(k, 0, 0, 0, 64));
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_, (std::vector<dataflow::KeyT>{1, 2, 3, 4, 5}));
}

TEST_F(InputHandlerTest, DefaultSuspendsOnActiveChannelHead) {
  // Channel A's head is blocked; channel B is fully processable. The default
  // (Flink-like) handler parks on the active channel and suspends — the
  // exact inefficiency Fig 6a illustrates.
  BlocklistHook hook;
  hook.blocked = {1};
  task_->set_hook(&hook);
  net::Channel* a = AddChannel(100);
  net::Channel* b = AddChannel(101);
  a->Push(MakeRecord(1, 0, 0, 0, 64));
  a->Push(MakeRecord(2, 0, 0, 0, 64));
  b->Push(MakeRecord(3, 0, 0, 0, 64));
  sim_.RunUntilIdle();
  // The handler may pick channel B first (it scans from its cursor), but as
  // soon as channel A becomes the active candidate it suspends on key 1:
  // key 2 must never be processed while 1 is blocked.
  EXPECT_EQ(std::count(processed_.begin(), processed_.end(), 2), 0);
  EXPECT_TRUE(task_->stalled());  // suspension interval is open
  // Unblocking resumes in order.
  hook.blocked.clear();
  task_->WakeUp();
  sim_.RunUntilIdle();
  EXPECT_EQ(std::count(processed_.begin(), processed_.end(), 1), 1);
  EXPECT_EQ(std::count(processed_.begin(), processed_.end(), 2), 1);
}

TEST_F(InputHandlerTest, ControlHeadsAreConsumedDuringSuspension) {
  BlocklistHook hook;
  hook.blocked = {1};
  task_->set_hook(&hook);
  net::Channel* a = AddChannel(100);
  net::Channel* b = AddChannel(101);
  a->Push(MakeRecord(1, 0, 0, 0, 64));
  // A watermark at the head of channel B must flow even while the task is
  // suspended on channel A's record.
  b->Push(dataflow::MakeWatermark(1234));
  sim_.RunUntilIdle();
  EXPECT_TRUE(processed_.empty());
  EXPECT_EQ(task_->current_watermark(), -1);  // b reported; a has not
  // Watermark was consumed from b's queue nonetheless.
  EXPECT_FALSE(b->HasInput());
}

TEST_F(InputHandlerTest, ReroutedRecordsBypassSuspension) {
  BlocklistHook hook;
  hook.blocked = {1};
  task_->set_hook(&hook);
  net::Channel* a = AddChannel(100);
  net::Channel* rail = AddChannel(200);
  rail->set_scaling_path(true);
  a->Push(MakeRecord(1, 0, 0, 0, 64));  // unprocessable head
  StreamElement rerouted = MakeRecord(7, 0, 0, 0, 64);
  rerouted.rerouted = true;
  rail->Push(rerouted);
  sim_.RunUntilIdle();
  // The re-routed record was handled as a special event despite suspension.
  EXPECT_EQ(processed_, (std::vector<dataflow::KeyT>{7}));
}

TEST_F(InputHandlerTest, BlockedChannelsAreNotServed) {
  net::Channel* a = AddChannel(100);
  net::Channel* b = AddChannel(101);
  a->Push(MakeRecord(1, 0, 0, 0, 64));
  b->Push(MakeRecord(2, 0, 0, 0, 64));
  sim_.RunUntil(sim::Micros(5));  // deliveries not yet complete
  task_->BlockChannel(a);
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_, (std::vector<dataflow::KeyT>{2}));
  task_->UnblockChannel(a);
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_, (std::vector<dataflow::KeyT>{2, 1}));
}

TEST_F(InputHandlerTest, WatermarkRequiresAllChannels) {
  net::Channel* a = AddChannel(100);
  net::Channel* b = AddChannel(101);
  a->Push(dataflow::MakeWatermark(sim::Seconds(5)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), -1);  // b never reported
  b->Push(dataflow::MakeWatermark(sim::Seconds(3)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(3));  // min over channels
  b->Push(dataflow::MakeWatermark(sim::Seconds(8)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(5));
}

TEST_F(InputHandlerTest, OpenRailWatermarkHoldsOperatorWatermark) {
  net::Channel* a = AddChannel(100);
  net::Channel* rail = AddRail(50);
  rail->Push(dataflow::MakeWatermark(sim::Seconds(2)));  // the seed
  sim_.RunUntilIdle();
  a->Push(dataflow::MakeWatermark(sim::Seconds(10)));
  sim_.RunUntilIdle();
  // Held back by the migrating instance's rail watermark.
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(2));
  rail->Push(dataflow::MakeWatermark(sim::Seconds(6)));  // forwarded
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(6));
  ReleaseRail(rail);
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(10));
}

TEST_F(InputHandlerTest, RailWithoutWatermarkDoesNotHoldOperatorWatermark) {
  net::Channel* a = AddChannel(100);
  AddRail(200);  // open, never seeded
  a->Push(dataflow::MakeWatermark(sim::Seconds(9)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(9));
}

TEST_F(InputHandlerTest, WatermarkInFlightOnReleasedRailIsDropped) {
  net::Channel* a = AddChannel(100);
  net::Channel* rail = AddRail(200);
  a->Push(dataflow::MakeWatermark(sim::Seconds(3)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(3));
  // The sender forwards one more watermark, then the rail is released while
  // that watermark is still on the wire.
  rail->Push(dataflow::MakeWatermark(sim::Seconds(4)));
  ReleaseRail(rail);
  sim_.RunUntilIdle();
  // The late rail watermark must not pin the task: the regular channel
  // alone drives the operator watermark from now on.
  a->Push(dataflow::MakeWatermark(sim::Seconds(12)));
  sim_.RunUntilIdle();
  EXPECT_EQ(task_->current_watermark(), sim::Seconds(12));
}

TEST_F(InputHandlerTest, SuspensionMemoStillWakesOnNewHead) {
  BlocklistHook hook;
  hook.blocked = {1};
  task_->set_hook(&hook);
  net::Channel* a = AddChannel(100);
  net::Channel* b = AddChannel(101);
  a->Push(MakeRecord(1, 0, 0, 0, 64));
  sim_.RunUntilIdle();  // suspends; memo set
  EXPECT_TRUE(processed_.empty());
  // A processable record arriving at the head of an empty channel wakes the
  // task despite the memo. Under the *default* handler the task still parks
  // on the active channel (that is its Flink-like semantics), so nothing is
  // processed — but the memo must have been cleared and re-evaluated, which
  // we observe through the stall interval being re-entered, and through
  // instant progress once the head unblocks.
  b->Push(MakeRecord(5, 0, 0, 0, 64));
  sim_.RunUntilIdle();
  EXPECT_FALSE(task_->suspend_memo() && processed_.empty() &&
               !task_->stalled());
  hook.blocked.clear();
  task_->WakeUp();
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_.size(), 2u);
}

TEST_F(InputHandlerTest, CheckedSenderStampsEmissionOrder) {
  // One counter per sender: A, B, A stamp 1, 2, 3, which still rises
  // within each (sender, key) stream.
  std::unique_ptr<Task> sender = MakeHashSender(100, /*check_invariants=*/true);
  for (dataflow::KeyT key : {7, 9, 7}) {
    sender->Emit(MakeRecord(key, 0, 0, 0, 64));
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_, (std::vector<dataflow::KeyT>{7, 9, 7}));
  EXPECT_EQ(seqs_, (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(InputHandlerTest, UncheckedSenderLeavesSeqUnstamped) {
  std::unique_ptr<Task> sender =
      MakeHashSender(100, /*check_invariants=*/false);
  for (dataflow::KeyT key : {7, 9, 7}) {
    sender->Emit(MakeRecord(key, 0, 0, 0, 64));
  }
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_, (std::vector<dataflow::KeyT>{7, 9, 7}));
  EXPECT_EQ(seqs_, (std::vector<uint64_t>{0, 0, 0}));
}

TEST_F(InputHandlerTest, FreezeDefersEverything) {
  net::Channel* a = AddChannel(100);
  task_->Freeze();
  a->Push(MakeRecord(1, 0, 0, 0, 64));
  sim_.RunUntilIdle();
  EXPECT_TRUE(processed_.empty());
  task_->Unfreeze();
  sim_.RunUntilIdle();
  EXPECT_EQ(processed_.size(), 1u);
}

}  // namespace
}  // namespace drrs::runtime
