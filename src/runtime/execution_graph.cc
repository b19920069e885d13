#include "runtime/execution_graph.h"

#include <utility>

#include "common/logging.h"
#include "runtime/checkpoint.h"

namespace drrs::runtime {

using dataflow::EdgeSpec;
using dataflow::OperatorId;
using dataflow::OperatorSpec;
using dataflow::Partitioning;

ExecutionGraph::ExecutionGraph(sim::Simulator* sim, dataflow::JobGraph job,
                               EngineConfig config, metrics::MetricsHub* hub)
    : sim_(sim),
      job_(std::move(job)),
      config_(std::move(config)),
      hub_(hub),
      key_space_(job_.num_key_groups()) {}

ExecutionGraph::~ExecutionGraph() = default;

std::unique_ptr<Task> ExecutionGraph::MakeTask(OperatorId op,
                                               uint32_t subtask) {
  const OperatorSpec& spec = job_.operators()[op];
  auto id = static_cast<dataflow::InstanceId>(tasks_.size());
  std::unique_ptr<Task> task;
  if (spec.is_source) {
    auto gen = spec.source_factory(subtask, spec.parallelism);
    task = std::make_unique<SourceTask>(
        sim_, spec, id, op, subtask, &key_space_, hub_,
        config_.check_invariants, std::move(gen));
  } else {
    task = std::make_unique<Task>(sim_, spec, id, op, subtask, &key_space_,
                                  hub_, config_.check_invariants);
    if (spec.is_stateful) task->InitState(job_.num_key_groups());
  }
  task->set_checkpoint_coordinator(checkpoint_coordinator_);
  return task;
}

void ExecutionGraph::set_checkpoint_coordinator(CheckpointCoordinator* c) {
  checkpoint_coordinator_ = c;
  for (auto& t : tasks_) t->set_checkpoint_coordinator(c);
}

Status ExecutionGraph::Build() {
  DRRS_CHECK(!built_);
  DRRS_RETURN_NOT_OK(job_.Validate());
  built_ = true;

  instances_.resize(job_.operators().size());
  for (OperatorId op = 0; op < job_.operators().size(); ++op) {
    const OperatorSpec& spec = job_.operators()[op];
    for (uint32_t s = 0; s < spec.parallelism; ++s) {
      auto task = MakeTask(op, s);
      instances_[op].push_back(task.get());
      tasks_.push_back(std::move(task));
    }
  }

  for (const EdgeSpec& e : job_.edges()) {
    uint32_t down_p = job_.operators()[e.to].parallelism;
    std::vector<dataflow::InstanceId> assignment =
        key_space_.UniformAssignment(down_p);
    for (Task* up : instances_[e.from]) {
      OutputEdge edge;
      edge.to_op = e.to;
      edge.partitioning = e.partitioning;
      if (e.partitioning == Partitioning::kHash) {
        edge.routing = dataflow::RoutingTable(assignment);
      }
      for (Task* down : instances_[e.to]) {
        edge.channels.push_back(CreateChannel(up, down));
      }
      up->AddOutputEdge(std::move(edge));
    }
  }

  // Initial key-group ownership for stateful operators.
  for (OperatorId op = 0; op < job_.operators().size(); ++op) {
    const OperatorSpec& spec = job_.operators()[op];
    if (!spec.is_stateful) continue;
    std::vector<dataflow::InstanceId> assignment =
        key_space_.UniformAssignment(spec.parallelism);
    for (uint32_t kg = 0; kg < job_.num_key_groups(); ++kg) {
      instances_[op][assignment[kg]]->state()->AcquireKeyGroup(kg);
    }
  }
  return Status::OK();
}

void ExecutionGraph::Start() {
  for (SourceTask* s : sources()) s->Start();
}

std::vector<SourceTask*> ExecutionGraph::sources() {
  std::vector<SourceTask*> out;
  for (auto& t : tasks_) {
    if (t->spec().is_source) out.push_back(static_cast<SourceTask*>(t.get()));
  }
  return out;
}

uint64_t ExecutionGraph::TotalStateBytes() {
  uint64_t total = 0;
  for (auto& t : tasks_) {
    if (t->state() != nullptr) total += t->state()->TotalBytes();
  }
  return total;
}

OperatorId ExecutionGraph::OperatorByName(const std::string& name) const {
  for (OperatorId op = 0; op < job_.operators().size(); ++op) {
    if (job_.operators()[op].name == name) return op;
  }
  DRRS_CHECK(false) << "unknown operator: " << name;
  return 0;
}

std::vector<Task*> ExecutionGraph::PredecessorTasksOf(OperatorId op) {
  std::vector<Task*> out;
  for (OperatorId pred : job_.PredecessorsOf(op)) {
    for (Task* t : instances_[pred]) out.push_back(t);
  }
  return out;
}

OutputEdge* ExecutionGraph::FindEdgeTo(Task* pred, OperatorId op) {
  for (OutputEdge& e : pred->output_edges()) {
    if (e.to_op == op) return &e;
  }
  return nullptr;
}

net::Channel* ExecutionGraph::CreateChannel(Task* from, Task* to) {
  channels_.push_back(std::make_unique<net::Channel>(sim_, config_.net,
                                                     from->id(), to->id(), to));
  net::Channel* ch = channels_.back().get();
  to->AddInputChannel(ch);
  return ch;
}

std::vector<Task*> ExecutionGraph::AddInstances(OperatorId op,
                                                uint32_t count) {
  DRRS_CHECK(built_);
  const OperatorSpec& spec = job_.operators()[op];
  DRRS_CHECK(!spec.is_source && !spec.is_sink);
  std::vector<Task*> added;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t subtask = static_cast<uint32_t>(instances_[op].size());
    auto owned = MakeTask(op, subtask);
    Task* fresh = owned.get();
    instances_[op].push_back(fresh);
    tasks_.push_back(std::move(owned));
    added.push_back(fresh);

    // Wire channels from every predecessor instance; the new channel slots
    // line up with the new subtask index in each predecessor's edge.
    for (OperatorId pred_op : job_.PredecessorsOf(op)) {
      for (Task* pred : instances_[pred_op]) {
        OutputEdge* edge = FindEdgeTo(pred, op);
        DRRS_CHECK(edge != nullptr);
        DRRS_CHECK(edge->channels.size() == subtask);
        edge->channels.push_back(CreateChannel(pred, fresh));
      }
    }

    // Wire channels to every successor instance, copying routing from
    // subtask 0 so the new deployment is consistent (Section IV-B).
    Task* reference = instances_[op][0];
    for (const OutputEdge& ref_edge : reference->output_edges()) {
      OutputEdge edge;
      edge.to_op = ref_edge.to_op;
      edge.partitioning = ref_edge.partitioning;
      edge.routing = ref_edge.routing;
      for (Task* down : instances_[ref_edge.to_op]) {
        edge.channels.push_back(CreateChannel(fresh, down));
      }
      fresh->AddOutputEdge(std::move(edge));
    }
  }
  return added;
}

net::Channel* ExecutionGraph::GetOrCreateScalingChannel(Task* from, Task* to) {
  auto key = std::make_pair(from->id(), to->id());
  auto it = scaling_channels_.find(key);
  if (it != scaling_channels_.end()) return it->second;
  net::Channel* ch = CreateChannel(from, to);
  ch->set_scaling_path(true);
  scaling_channels_[key] = ch;
  return ch;
}

net::Channel* ExecutionGraph::FindScalingChannel(dataflow::InstanceId from,
                                                 dataflow::InstanceId to) {
  auto it = scaling_channels_.find(std::make_pair(from, to));
  return it == scaling_channels_.end() ? nullptr : it->second;
}

ExecutionGraph::DeliveryStats ExecutionGraph::TotalDeliveryStats() const {
  DeliveryStats stats;
  for (const auto& ch : channels_) {
    stats.elements += ch->delivered_elements();
    stats.batches += ch->delivered_batches();
  }
  return stats;
}

}  // namespace drrs::runtime
