#ifndef DRRS_SCALING_MECES_H_
#define DRRS_SCALING_MECES_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "runtime/task_hook.h"
#include "scaling/strategy.h"

namespace drrs::scaling {

/// \brief Meces baseline (Gu et al., ATC'22), ported as in the paper's
/// evaluation (Section V-A): single synchronization, Fetch-on-Demand and
/// Hierarchical State Organization (key-groups split into sub-key-groups).
///
/// Routing switches for all migrating key-groups at once, so propagation
/// delay is minimal; instances then fetch absent sub-key-groups on demand
/// with priority, which causes the characteristic back-and-forth migration
/// of hot state when both the migrate-out and migrate-in instances need the
/// same unit (Section V-B). Execution-order semantics are *not* preserved
/// (the paper calls this out), but exactly-once is.
class MecesStrategy : public ScalingStrategy {
 public:
  explicit MecesStrategy(runtime::ExecutionGraph* graph);
  ~MecesStrategy() override;

  std::string name() const override { return "meces"; }
  Status StartScale(const ScalePlan& plan) override;

 private:
  friend class MecesTaskHook;

  struct Unit {
    dataflow::InstanceId location = 0;
    bool first_move_recorded = false;
    /// True while the unit's chunk is on the wire towards `location`;
    /// it cannot be re-extracted until installed.
    bool in_flight = false;
    /// After installation the holder keeps the unit for a minimum hold time
    /// so it can process at least one pending record before a competing
    /// fetch steals the unit back — otherwise contended units livelock
    /// bouncing between the migrate-in and migrate-out instances. Active use
    /// refreshes the hold (hot state stays while it is being drained, the
    /// practical effect of Meces's hierarchical hot-state organization) up
    /// to a hard bound of 10 hold-times so a busy holder cannot starve the
    /// other side forever.
    sim::SimTime cooldown_until = 0;
    sim::SimTime hold_started = 0;
    /// Instances waiting to fetch this unit, served FIFO. A waiter queue —
    /// rather than point-to-point request messages — keeps the protocol
    /// live when several instances contend for the same hot unit (the
    /// paper's "both migration in/out instances access records
    /// simultaneously" case); the request latency is still modeled.
    std::deque<dataflow::InstanceId> waiters;
    bool serve_scheduled = false;
  };
  using UnitKey = std::pair<dataflow::KeyGroupId, uint32_t>;

  bool HandleControl(runtime::Task* task, net::Channel* channel,
                     const dataflow::StreamElement& e);
  bool HandleIsProcessable(runtime::Task* task, net::Channel* channel,
                           const dataflow::StreamElement& e);

  void IssueFetch(runtime::Task* requester, dataflow::KeyGroupId kg,
                  uint32_t sub);
  void TryServe(dataflow::KeyGroupId kg, uint32_t sub);
  /// Returns the chunk's modeled byte size.
  uint64_t TransferUnit(runtime::Task* holder, dataflow::KeyGroupId kg,
                        uint32_t sub, runtime::Task* to, bool priority);
  void PumpBackground(runtime::Task* src);
  void MaybeFinish();
  runtime::Task* InstanceById(dataflow::InstanceId id) {
    return graph_->task(id);
  }

  std::unique_ptr<runtime::TaskHook> hook_;

  ScalePlan plan_;
  std::map<UnitKey, Unit> units_;
  std::map<dataflow::KeyGroupId, dataflow::InstanceId> destination_;
  std::map<dataflow::InstanceId, size_t> barriers_expected_;
  std::map<dataflow::InstanceId, size_t> barriers_seen_;
  std::map<dataflow::InstanceId, bool> pump_active_;
  size_t outstanding_fetches_ = 0;
};

}  // namespace drrs::scaling

#endif  // DRRS_SCALING_MECES_H_
