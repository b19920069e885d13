#include "scaling/core/barrier_injector.h"

#include <utility>

#include "common/logging.h"
#include "observe/observer.h"

namespace drrs::scaling {

using dataflow::ElementKind;
using dataflow::StreamElement;
using runtime::Task;

StreamElement BarrierInjector::Make(ElementKind kind, dataflow::ScaleId scale,
                                    dataflow::SubscaleId subscale,
                                    dataflow::InstanceId from) {
  StreamElement e;
  e.kind = kind;
  e.scale_id = scale;
  e.subscale_id = subscale;
  e.from_instance = from;
  return e;
}

void BarrierInjector::UpdateRouting(runtime::OutputEdge* edge,
                                    const std::vector<Migration>& migrations) {
  for (const Migration& m : migrations) {
    edge->routing.Update(m.key_group, m.to);
  }
}

void BarrierInjector::UpdateRouting(runtime::OutputEdge* edge,
                                    const Subscale& s) {
  for (dataflow::KeyGroupId kg : s.key_groups) {
    edge->routing.Update(kg, s.to);
  }
}

void BarrierInjector::UpdateRoutingAtPredecessors(
    dataflow::OperatorId op, const std::vector<Migration>& migrations) {
  for (Task* pred : graph_->PredecessorTasksOf(op)) {
    runtime::OutputEdge* edge = graph_->FindEdgeTo(pred, op);
    DRRS_CHECK(edge != nullptr);
    UpdateRouting(edge, migrations);
  }
}

std::set<dataflow::OperatorId> BarrierInjector::UpstreamClosure(
    dataflow::OperatorId op) const {
  std::set<dataflow::OperatorId> upstream;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& e : graph_->job().edges()) {
      if ((e.to == op || upstream.count(e.to) > 0) &&
          upstream.insert(e.from).second) {
        changed = true;
      }
    }
  }
  return upstream;
}

void BarrierInjector::Broadcast(Task* task, dataflow::OperatorId target_op,
                                const std::set<dataflow::OperatorId>& upstream,
                                const StreamElement& barrier) {
  for (runtime::OutputEdge& edge : task->output_edges()) {
    if (edge.to_op != target_op && upstream.count(edge.to_op) == 0) continue;
    for (net::Channel* ch : edge.channels) {
      StreamElement b = barrier;
      b.from_instance = task->id();
      ch->Push(std::move(b));
    }
  }
}

void BarrierInjector::InjectCoupled(runtime::OutputEdge* edge,
                                    uint32_t to_subtask,
                                    StreamElement barrier) {
  DRRS_CHECK(to_subtask < edge->channels.size());
  edge->channels[to_subtask]->Push(std::move(barrier));
}

void BarrierInjector::InjectSubscale(Task* pred, dataflow::OperatorId op,
                                     const Subscale& s,
                                     dataflow::ScaleId scale, bool decoupled) {
  runtime::OutputEdge* edge = graph_->FindEdgeTo(pred, op);
  DRRS_CHECK(edge != nullptr);
  DRRS_CHECK(edge->partitioning == dataflow::Partitioning::kHash);
  DRRS_CHECK(s.from < edge->channels.size() && s.to < edge->channels.size());

  UpdateRouting(edge, s);
  net::Channel* to_old = edge->channels[s.from];
  net::Channel* to_new = edge->channels[s.to];

  StreamElement confirm =
      Make(ElementKind::kConfirmBarrier, scale, s.id, pred->id());

  if (!decoupled) {
    // Coupled signal: one FIFO barrier doubling as routing confirmation and
    // migration trigger (alignment happens at the source instance).
    DRRS_OBSERVE(graph_->sim(),
                 OnBarrierInjected(scale, s.id, pred->id(), /*shape=*/0));
    to_old->Push(std::move(confirm));
    return;
  }

  const std::set<dataflow::KeyGroupId> kgs(s.key_groups.begin(),
                                           s.key_groups.end());
  const auto& key_space = graph_->key_space();
  auto in_subscale = [&kgs, &key_space](const StreamElement& e) {
    return e.kind == ElementKind::kRecord &&
           kgs.count(key_space.KeyGroupOf(e.key)) > 0;
  };
  auto is_ckpt = [](const StreamElement& e) {
    return e.kind == ElementKind::kCheckpointBarrier;
  };

  if (to_old->OutputContains(is_ckpt)) {
    // Section IV-C, Fig 9a: redirection concludes at the checkpoint barrier
    // and the signals ride behind it as one integrated barrier (checkpoint,
    // then trigger, then confirm).
    std::vector<StreamElement> moved =
        to_old->ExtractFromOutputBefore(in_subscale, is_ckpt);
    for (StreamElement& e : moved) to_new->Push(std::move(e));
    confirm.value = 1;  // integrated: acts as trigger + confirm
    DRRS_OBSERVE(graph_->sim(),
                 OnBarrierInjected(scale, s.id, pred->id(), /*shape=*/1));
    bool inserted = to_old->InsertAfterFirst(is_ckpt, confirm);
    DRRS_CHECK(inserted);
    return;
  }

  // Normal decoupled injection: redirect bypassed records of the subscale to
  // the new stream, send the trigger over the bypass path and the confirm at
  // the front of the output cache (Section III-A, Fig 4a).
  std::vector<StreamElement> moved = to_old->ExtractFromOutput(in_subscale);
  for (StreamElement& e : moved) to_new->Push(std::move(e));

  DRRS_OBSERVE(graph_->sim(),
               OnBarrierInjected(scale, s.id, pred->id(), /*shape=*/2));
  StreamElement trigger =
      Make(ElementKind::kTriggerBarrier, scale, s.id, pred->id());
  to_old->PushBypass(std::move(trigger));
  to_old->PushPriority(std::move(confirm));
}

}  // namespace drrs::scaling
