#ifndef DRRS_RUNTIME_EXECUTION_GRAPH_H_
#define DRRS_RUNTIME_EXECUTION_GRAPH_H_

#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "dataflow/job_graph.h"
#include "dataflow/key_space.h"
#include "metrics/metrics_hub.h"
#include "net/channel.h"
#include "runtime/source_task.h"
#include "runtime/task.h"
#include "sim/simulator.h"

namespace drrs::runtime {

class CheckpointCoordinator;

/// Engine-wide configuration.
struct EngineConfig {
  net::NetworkConfig net;
  /// Enable per-record order/exactly-once/state-ownership checks. Tests keep
  /// this on; benchmarks turn it off for speed. An attached Auditor
  /// (observe builds) stamps records regardless, so audited runs still
  /// count order violations and duplicates; only the state-ownership check
  /// follows this flag alone.
  bool check_invariants = true;
};

/// \brief Physical deployment of a JobGraph: one Task per subtask, channels
/// per edge pair, key-group assignment for stateful operators.
///
/// Supports runtime evolution used by scaling: adding instances to an
/// operator (with full channel wiring) and creating direct scaling-path
/// channels between instances of the same operator.
class ExecutionGraph {
 public:
  ExecutionGraph(sim::Simulator* sim, dataflow::JobGraph job,
                 EngineConfig config, metrics::MetricsHub* hub);
  ~ExecutionGraph();

  ExecutionGraph(const ExecutionGraph&) = delete;
  ExecutionGraph& operator=(const ExecutionGraph&) = delete;

  /// Instantiate tasks and channels. Must be called exactly once.
  Status Build();

  /// Start all source tasks.
  void Start();

  // ---- lookup ----
  sim::Simulator* sim() { return sim_; }
  metrics::MetricsHub* hub() { return hub_; }
  const dataflow::JobGraph& job() const { return job_; }
  const dataflow::KeySpace& key_space() const { return key_space_; }
  const EngineConfig& config() const { return config_; }

  /// Current parallelism (grows when instances are added).
  uint32_t parallelism_of(dataflow::OperatorId op) const {
    return static_cast<uint32_t>(instances_[op].size());
  }
  Task* instance(dataflow::OperatorId op, uint32_t subtask) {
    return instances_[op][subtask];
  }
  const std::vector<Task*>& instances_of(dataflow::OperatorId op) const {
    return instances_[op];
  }
  Task* task(dataflow::InstanceId id) { return tasks_[id].get(); }
  size_t task_count() const { return tasks_.size(); }
  std::vector<SourceTask*> sources();

  /// Operator id by name; aborts when absent.
  dataflow::OperatorId OperatorByName(const std::string& name) const;

  /// Sum of keyed-state bytes across all stateful tasks. O(#tasks x
  /// #key-groups) — cheap enough for periodic metrics sampling.
  uint64_t TotalStateBytes();

  /// All tasks of all operators with an edge into `op`.
  std::vector<Task*> PredecessorTasksOf(dataflow::OperatorId op);

  /// The output edge of `pred` leading to operator `op` (null if none).
  OutputEdge* FindEdgeTo(Task* pred, dataflow::OperatorId op);

  // ---- runtime evolution (scaling) ----

  /// Add `count` fresh instances to a (stateful, non-source/sink) operator:
  /// wires channels from every predecessor instance and to every successor
  /// instance, copies output routing from subtask 0 (deployment consistency,
  /// Section IV-B). New instances own no key-groups. Returns the new tasks.
  std::vector<Task*> AddInstances(dataflow::OperatorId op, uint32_t count);

  /// Direct ordered channel between two instances of the same operator (the
  /// migration / re-route path). Created once per (from, to) pair.
  net::Channel* GetOrCreateScalingChannel(Task* from, Task* to);

  /// The scaling channel from->to if it exists.
  net::Channel* FindScalingChannel(dataflow::InstanceId from,
                                   dataflow::InstanceId to);

  /// Aggregate wire-delivery statistics across every channel in the graph
  /// (data channels and scaling channels alike). `batches <= elements`; the
  /// gap is the work the batched delivery path saved — elements/batches is
  /// the mean records per receiver notification.
  struct DeliveryStats {
    uint64_t elements = 0;
    uint64_t batches = 0;
  };
  DeliveryStats TotalDeliveryStats() const;

  /// Registered by CheckpointCoordinator so dynamically added tasks are
  /// wired into checkpointing and strategies can defer around in-flight
  /// checkpoints (Section IV-C).
  void set_checkpoint_coordinator(CheckpointCoordinator* c);
  CheckpointCoordinator* checkpoint_coordinator() {
    return checkpoint_coordinator_;
  }

 private:
  net::Channel* CreateChannel(Task* from, Task* to);
  std::unique_ptr<Task> MakeTask(dataflow::OperatorId op, uint32_t subtask);
  sim::Simulator* sim_;
  dataflow::JobGraph job_;
  EngineConfig config_;
  metrics::MetricsHub* hub_;
  dataflow::KeySpace key_space_;
  bool built_ = false;

  std::vector<std::unique_ptr<Task>> tasks_;           // by InstanceId
  std::vector<std::unique_ptr<net::Channel>> channels_;
  std::vector<std::vector<Task*>> instances_;          // by OperatorId
  std::map<std::pair<dataflow::InstanceId, dataflow::InstanceId>,
           net::Channel*>
      scaling_channels_;
  CheckpointCoordinator* checkpoint_coordinator_ = nullptr;
};

}  // namespace drrs::runtime

#endif  // DRRS_RUNTIME_EXECUTION_GRAPH_H_
