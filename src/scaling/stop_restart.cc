#include "scaling/stop_restart.h"

#include <deque>
#include <map>
#include <utility>

#include "common/logging.h"

namespace drrs::scaling {

using runtime::Task;

namespace {
/// Snapshot/restore throughput (bytes per µs), applied twice.
constexpr double kStateRateBytesPerUs = 250.0;
/// Fixed redeploy/restart cost.
constexpr sim::SimTime kRedeployCost = sim::Seconds(2);
}  // namespace

Status StopRestartStrategy::StartScale(const ScalePlan& plan) {
  DRRS_RETURN_NOT_OK(ValidatePlan(plan));
  if (!done()) return Status::FailedPrecondition("scaling already in progress");
  core_.BeginScale();
  sim::SimTime now = graph_->sim()->now();
  hub_->scaling().RecordSignalInjection(0, now);

  // Global halt.
  uint64_t total_bytes = 0;
  for (size_t i = 0; i < graph_->task_count(); ++i) {
    Task* t = graph_->task(static_cast<dataflow::InstanceId>(i));
    t->Freeze();
    if (t->state() != nullptr) total_bytes += t->state()->TotalBytes();
  }
  sim::SimTime serialize = static_cast<sim::SimTime>(
      static_cast<double>(total_bytes) / kStateRateBytesPerUs);
  last_downtime_ = 2 * serialize + kRedeployCost;

  ScalePlan captured = plan;
  graph_->sim()->ScheduleAfter(last_downtime_, [this, captured]() {
    Restore(captured);
  });
  return Status::OK();
}

void StopRestartStrategy::Restore(const ScalePlan& plan) {
  sim::SimTime now = graph_->sim()->now();
  hub_->scaling().RecordFirstMigration(0, now);
  EnsureInstances(plan);

  std::map<dataflow::KeyGroupId, uint32_t> moved;  // kg -> new subtask
  for (const Migration& m : plan.migrations) moved[m.key_group] = m.to;

  // Move state directly between backends (part of the modeled downtime).
  for (const Migration& m : plan.migrations) {
    Task* src = graph_->instance(plan.op, m.from);
    Task* dst = graph_->instance(plan.op, m.to);
    if (!src->state()->OwnsKeyGroup(m.key_group)) continue;
    dst->state()->InstallKeyGroup(src->state()->ExtractKeyGroup(m.key_group));
    hub_->scaling().RecordStateMigrated(0, m.key_group, now);
  }

  // A real restart replays in-flight data from the checkpoint; the frozen
  // simulation equivalent is to reassign everything that was en route to the
  // old owners. The downtime exceeds the wire latency, so all transmissions
  // have landed in input caches by now; what remains sits in the
  // predecessors' output caches.
  const auto& key_space = graph_->key_space();

  // (a) Records already in the old owners' input caches are moved, in FIFO
  //     order, onto the owner's scaling rail as re-routed special events.
  //     The rails carry no state here, so they are not seeded with a
  //     watermark.
  for (Task* inst : graph_->instances_of(plan.op)) {
    for (net::Channel* ch : inst->input_channels()) {
      if (ch->scaling_path()) continue;
      auto* queue = ch->mutable_input_queue();
      // In-place compaction: kept elements slide forward over moved ones,
      // preserving FIFO order of both sequences.
      size_t w = 0;
      size_t extracted = 0;
      const size_t n = queue->size();
      for (size_t r = 0; r < n; ++r) {
        dataflow::StreamElement& e = (*queue)[r];
        uint32_t owner = 0;
        bool is_moved =
            e.kind == dataflow::ElementKind::kRecord &&
            [&] {
              auto it = moved.find(key_space.KeyGroupOf(e.key));
              if (it == moved.end()) return false;
              owner = it->second;
              return true;
            }() &&
            graph_->instance(plan.op, owner) != inst;
        if (is_moved) {
          Task* to = graph_->instance(plan.op, owner);
          dataflow::StreamElement r_el = std::move(e);
          r_el.rerouted = true;
          core_.rails()
              .Open(inst, to, /*seed_watermark=*/false)
              ->mutable_input_queue()
              ->push_back(std::move(r_el));
          ++extracted;
        } else {
          if (w != r) (*queue)[w] = std::move(e);
          ++w;
        }
      }
      queue->truncate(w);
      for (size_t i = 0; i < extracted; ++i) ch->NotifyInputConsumed();
    }
  }

  // (b) Records still cached at the predecessors are redirected to the new
  //     owners' channels, preserving order.
  for (Task* pred : graph_->PredecessorTasksOf(plan.op)) {
    runtime::OutputEdge* edge = graph_->FindEdgeTo(pred, plan.op);
    DRRS_CHECK(edge != nullptr);
    for (uint32_t s = 0; s < edge->channels.size(); ++s) {
      net::Channel* ch = edge->channels[s];
      auto cached = ch->ExtractFromOutput([&](const dataflow::StreamElement&
                                                  e) {
        if (e.kind != dataflow::ElementKind::kRecord) return false;
        auto it = moved.find(key_space.KeyGroupOf(e.key));
        return it != moved.end() && it->second != s;
      });
      for (dataflow::StreamElement& e : cached) {
        edge->channels[moved.at(key_space.KeyGroupOf(e.key))]->Push(
            std::move(e));
      }
    }
    // Restart with the new routing everywhere.
    BarrierInjector::UpdateRouting(edge, plan.migrations);
  }

  for (size_t i = 0; i < graph_->task_count(); ++i) {
    graph_->task(static_cast<dataflow::InstanceId>(i))->Unfreeze();
  }
  core_.EndScale();
}

}  // namespace drrs::scaling
