#ifndef DRRS_SCALING_STRATEGY_H_
#define DRRS_SCALING_STRATEGY_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/execution_graph.h"
#include "scaling/core/scale_context.h"
#include "scaling/scale_plan.h"

namespace drrs::scaling {

/// Live key-group -> subtask assignment of `op`, read from the backends.
/// Requires quiescent ownership: every key-group must have an owner, which
/// is not the case while a scaling operation has state in transit.
std::vector<uint32_t> CurrentAssignment(runtime::ExecutionGraph* graph,
                                        dataflow::OperatorId op);

/// Build a rescale plan from live ownership to the uniform assignment at
/// `new_parallelism`. This is what callers should use at runtime (a plan
/// derived from a stale assignment fails validation).
ScalePlan PlanRescale(runtime::ExecutionGraph* graph, dataflow::OperatorId op,
                      uint32_t new_parallelism);

/// Per-key-group weights read from the live backends (key counts). Input to
/// Planner::BalancedPlan for load-aware repartitioning under skew.
std::vector<double> KeyGroupWeights(runtime::ExecutionGraph* graph,
                                    dataflow::OperatorId op);

/// Load-aware rescale plan from live ownership (see Planner::BalancedPlan;
/// stickiness 0.3).
ScalePlan PlanBalancedRescale(runtime::ExecutionGraph* graph,
                              dataflow::OperatorId op,
                              uint32_t new_parallelism);

/// \brief Interface of an executable scaling mechanism.
///
/// A strategy is constructed idle; StartScale begins one scaling operation
/// (adding instances as needed) and the strategy reports completion through
/// done(). Each strategy is a protocol over the shared scaling/core
/// primitives held by its ScaleContext: rails (old->new paths), barrier
/// injection, leak-checked state transfer and hook lifecycle. Strategies
/// must leave the engine unhooked once done — DRRS's "no disruption during
/// non-scaling periods" property is tested on this, and ScaleContext's
/// teardown enforces the hook and transfer halves of it.
class ScalingStrategy {
 public:
  explicit ScalingStrategy(runtime::ExecutionGraph* graph)
      : graph_(graph), hub_(graph->hub()), core_(graph, graph->hub()) {}
  virtual ~ScalingStrategy() = default;

  ScalingStrategy(const ScalingStrategy&) = delete;
  ScalingStrategy& operator=(const ScalingStrategy&) = delete;

  virtual std::string name() const = 0;

  /// Begin executing `plan`. Returns an error and stays idle when the plan
  /// is invalid or (unless the strategy supports supersession) one is
  /// already running.
  virtual Status StartScale(const ScalePlan& plan) = 0;

  /// True when no scaling operation is in flight.
  bool done() const { return !core_.active(); }

  /// Monotone progress count: state chunks this strategy's transfers have
  /// installed, forced installs included. The scale-retry watchdog re-arms
  /// instead of aborting when it grew since the deadline was armed; every
  /// mechanism gets it from the shared core without protocol plumbing.
  uint64_t progress() const { return core_.transfer().install_count(); }

  /// Whether StartScale on a busy strategy supersedes the in-flight
  /// operation (Section IV-B) instead of failing.
  virtual bool supports_supersession() const { return false; }

  /// Whether the protocol touches tasks beyond the scaled operator's
  /// instances (hooking the upstream closure, freezing the job). Exclusive
  /// strategies must not run concurrently with any other scaling operation.
  virtual bool exclusive() const { return false; }

  /// Whether this strategy implements QuiesceScale/AbandonScale (the
  /// scale-abort-and-retry path of ScaleService). Strategies without cancel
  /// support ride out stalled operations; the service only logs.
  virtual bool SupportsCancel() const { return false; }

  /// Abort the in-flight scaling operation by rolling it *forward*: the
  /// strategy quiesces its protocol (routing already flipped toward
  /// migration targets stays flipped), waits `grace` for the wires to
  /// drain, force-completes every registered transfer at its planned
  /// receiver and tears the scale down via ScaleContext::AbortActiveScale.
  /// Asynchronous: `on_done(aborted)` fires once teardown finished —
  /// `aborted=false` when the operation completed on its own during the
  /// grace window. Returns false (and does nothing) when the strategy does
  /// not support cancellation or a cancel is already running; returns true
  /// with an immediate on_done(false) when no operation is active.
  bool CancelScale(sim::SimTime grace, std::function<void(bool)> on_done);

  /// Turn on per-chunk ack/retransmission for this strategy's transfers.
  void EnableChunkRetry(const ChunkRetryPolicy& policy) {
    core_.transfer().EnableReliability(
        policy, hub_, graph_->config().net.bandwidth_bytes_per_us);
  }

  /// Invoked whenever the strategy transitions to idle (end of EndScale).
  void set_idle_listener(std::function<void()> cb) {
    core_.set_on_idle(std::move(cb));
  }

  /// State-transfer bytes currently staged in flight (telemetry probe).
  uint64_t staging_bytes() const { return core_.transfer().staging_bytes(); }

  runtime::ExecutionGraph* graph() { return graph_; }

 protected:
  /// Grow the scaled operator to plan.new_parallelism (no-op when already
  /// large enough). Returns all instances of the operator afterwards.
  const std::vector<runtime::Task*>& EnsureInstances(const ScalePlan& plan);

  /// `check_ownership` verifies each migration source currently owns its
  /// key-group; superseding plans skip it (migrations are recomputed from
  /// live ownership when the pending plan starts).
  Status ValidatePlan(const ScalePlan& plan, bool check_ownership = true) const;

  /// CancelScale phase 1: stop initiating migrations (clear queues, drop
  /// pending plans) and make routing consistent with the planned targets so
  /// in-flight records drain to a well-defined owner during the grace
  /// window. Must be idempotent against the operation finishing on its own.
  virtual void QuiesceScale() {}

  /// CancelScale phase 2 (after the grace window and ForceCompleteTransfers):
  /// discard all per-operation protocol state, teleport anything the
  /// protocol still holds locally (unsent units, reroute buffers, records
  /// parked in source input queues) to its planned owner, and leave every
  /// task unhooked-ready. ScaleContext::AbortActiveScale runs right after.
  virtual void AbandonScale() {}

  runtime::ExecutionGraph* graph_;
  metrics::MetricsHub* hub_;
  ScaleContext core_;
  bool cancelling_ = false;
};

}  // namespace drrs::scaling

#endif  // DRRS_SCALING_STRATEGY_H_
