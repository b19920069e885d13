#include "scaling/strategy.h"

#include "common/logging.h"
#include "scaling/planner.h"

namespace drrs::scaling {

std::vector<uint32_t> CurrentAssignment(runtime::ExecutionGraph* graph,
                                        dataflow::OperatorId op) {
  std::vector<uint32_t> assignment(graph->key_space().num_key_groups(),
                                   UINT32_MAX);
  const auto& instances = graph->instances_of(op);
  for (uint32_t i = 0; i < instances.size(); ++i) {
    for (dataflow::KeyGroupId kg : instances[i]->state()->owned_key_groups()) {
      assignment[kg] = i;
    }
  }
  for (uint32_t owner : assignment) {
    DRRS_CHECK(owner != UINT32_MAX) << "unowned key-group";
  }
  return assignment;
}

ScalePlan PlanRescale(runtime::ExecutionGraph* graph, dataflow::OperatorId op,
                      uint32_t new_parallelism) {
  std::vector<dataflow::InstanceId> target =
      graph->key_space().UniformAssignment(new_parallelism);
  ScalePlan plan = Planner::ExplicitPlan(
      op, CurrentAssignment(graph, op),
      std::vector<uint32_t>(target.begin(), target.end()));
  plan.new_parallelism = std::max(plan.new_parallelism, new_parallelism);
  return plan;
}

std::vector<double> KeyGroupWeights(runtime::ExecutionGraph* graph,
                                    dataflow::OperatorId op) {
  std::vector<double> weights(graph->key_space().num_key_groups(), 0.0);
  for (runtime::Task* t : graph->instances_of(op)) {
    for (dataflow::KeyGroupId kg : t->state()->owned_key_groups()) {
      weights[kg] = static_cast<double>(t->state()->KeyCount(kg));
    }
  }
  return weights;
}

ScalePlan PlanBalancedRescale(runtime::ExecutionGraph* graph,
                              dataflow::OperatorId op,
                              uint32_t new_parallelism) {
  constexpr double kStickiness = 0.3;
  return Planner::BalancedPlan(op, CurrentAssignment(graph, op),
                               KeyGroupWeights(graph, op), new_parallelism,
                               kStickiness);
}

bool ScalingStrategy::CancelScale(sim::SimTime grace,
                                  std::function<void(bool)> on_done) {
  if (!core_.active()) {
    if (on_done) on_done(false);
    return true;
  }
  if (!SupportsCancel() || cancelling_) return false;
  cancelling_ = true;
  QuiesceScale();
  graph_->sim()->ScheduleAfter(grace, [this, on_done = std::move(on_done)]() {
    cancelling_ = false;
    if (!core_.active()) {
      // The operation completed (or was superseded away) during the grace
      // window; nothing to abort.
      if (on_done) on_done(false);
      return;
    }
    size_t forced = core_.ForceCompleteTransfers();
    AbandonScale();
    core_.AbortActiveScale();
    DRRS_LOG(Warn) << name() << ": scale aborted (roll-forward), " << forced
                   << " transfer(s) force-completed";
    if (on_done) on_done(true);
  });
  return true;
}

const std::vector<runtime::Task*>& ScalingStrategy::EnsureInstances(
    const ScalePlan& plan) {
  uint32_t current = graph_->parallelism_of(plan.op);
  if (plan.new_parallelism > current) {
    graph_->AddInstances(plan.op, plan.new_parallelism - current);
  }
  return graph_->instances_of(plan.op);
}

Status ScalingStrategy::ValidatePlan(const ScalePlan& plan,
                                     bool check_ownership) const {
  if (plan.new_assignment.size() != graph_->key_space().num_key_groups()) {
    return Status::InvalidArgument("plan assignment size != key groups");
  }
  if (plan.new_parallelism == 0) {
    return Status::InvalidArgument("zero target parallelism");
  }
  const auto& spec = graph_->job().operators()[plan.op];
  if (!spec.is_stateful || spec.is_source || spec.is_sink) {
    return Status::InvalidArgument(
        "scaling operator must be a stateful internal operator");
  }
  for (const Migration& m : plan.migrations) {
    if (m.from >= graph_->parallelism_of(plan.op)) {
      return Status::InvalidArgument("migration source out of range");
    }
    if (m.to >= plan.new_parallelism) {
      return Status::InvalidArgument("migration target out of range");
    }
    if (check_ownership &&
        !graph_->instances_of(plan.op)[m.from]->state()->OwnsKeyGroup(
            m.key_group)) {
      return Status::FailedPrecondition(
          "plan is stale: migration source does not own the key-group; "
          "build plans with PlanRescale()");
    }
  }
  return Status::OK();
}

}  // namespace drrs::scaling
