#ifndef DRRS_RUNTIME_TASK_H_
#define DRRS_RUNTIME_TASK_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "dataflow/job_graph.h"
#include "dataflow/key_space.h"
#include "dataflow/operator.h"
#include "dataflow/routing_table.h"
#include "dataflow/stream_element.h"
#include "metrics/metrics_hub.h"
#include "net/channel.h"
#include "runtime/input_handler.h"
#include "runtime/task_hook.h"
#include "sim/simulator.h"
#include "state/keyed_state.h"

namespace drrs::runtime {

class CheckpointCoordinator;

/// One fan-out of a task to a downstream operator.
struct OutputEdge {
  dataflow::OperatorId to_op = 0;
  dataflow::Partitioning partitioning = dataflow::Partitioning::kHash;
  /// Per-sender routing table (key-group -> downstream subtask). Scaling
  /// mechanisms update each predecessor's copy individually (Section III-A).
  dataflow::RoutingTable routing;
  /// Indexed by downstream subtask. Grows when the downstream operator
  /// scales out.
  std::vector<net::Channel*> channels;
  uint32_t rr_cursor = 0;  ///< round-robin state for kRebalance and markers
};

/// Observes records reaching a sink (test/benchmark instrumentation).
class SinkCollector {
 public:
  virtual ~SinkCollector() = default;
  virtual void OnRecord(sim::SimTime t,
                        const dataflow::StreamElement& record) = 0;
};

class Task;

/// Admission control over freshly delivered input (overload load shedding).
/// Installed by the overload controller; consulted in OnBatchAvailable
/// before the suspend-memo scan, so a shed element never wakes the task.
class ArrivalGate {
 public:
  virtual ~ArrivalGate() = default;
  /// Called after `appended` elements landed at the tail of `channel`'s
  /// input queue. The gate may remove elements from that suffix (via
  /// Channel::RemoveInputAt) and returns how many of them remain.
  virtual size_t OnArrivals(Task* task, net::Channel* channel,
                            size_t appended) = 0;
};

/// \brief One operator instance (Flink subtask): pulls elements from its
/// input channels, runs the operator, pushes outputs, and cooperates with
/// checkpointing and scaling through pluggable handlers/hooks.
///
/// Everything is event-driven: the task is re-armed by channel deliveries,
/// decongestion callbacks and explicit WakeUp()s from scaling strategies.
class Task : public net::ChannelReceiver, public dataflow::OperatorContext {
 public:
  Task(sim::Simulator* sim, const dataflow::OperatorSpec& spec,
       dataflow::InstanceId id, dataflow::OperatorId op, uint32_t subtask,
       const dataflow::KeySpace* key_space, metrics::MetricsHub* hub,
       bool check_invariants);
  ~Task() override;

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  // ---- identity / structure ----
  dataflow::InstanceId id() const { return id_; }
  dataflow::OperatorId op() const { return op_; }
  const dataflow::OperatorSpec& spec() const { return spec_; }
  const std::vector<net::Channel*>& input_channels() const {
    return input_channels_;
  }
  std::vector<OutputEdge>& output_edges() { return output_edges_; }
  const dataflow::KeySpace* key_space() const { return key_space_; }
  metrics::MetricsHub* hub() { return hub_; }
  sim::Simulator* simulator() { return sim_; }

  // ---- wiring (ExecutionGraph / scaling) ----
  void AddInputChannel(net::Channel* channel);
  void AddOutputEdge(OutputEdge edge);
  void set_checkpoint_coordinator(CheckpointCoordinator* c) {
    checkpoint_coordinator_ = c;
  }
  void set_sink_collector(SinkCollector* c) { sink_collector_ = c; }
  /// Install (or clear, with nullptr) the overload arrival gate. Null when
  /// overload control is off, so the delivery hot path pays one pointer test.
  void set_arrival_gate(ArrivalGate* gate) { arrival_gate_ = gate; }
  ArrivalGate* arrival_gate() const { return arrival_gate_; }

  /// Create the keyed state backend (stateful operators only).
  void InitState(uint32_t num_key_groups);

  // ---- scaling extension points ----
  void set_hook(TaskHook* hook) { hook_ = hook; }
  TaskHook* hook() { return hook_; }
  void InstallInputHandler(std::unique_ptr<InputHandler> handler);
  void ResetInputHandler();

  /// Block/unblock a channel for barrier alignment; blocked channels are
  /// never selected by input handlers.
  void BlockChannel(net::Channel* channel);
  void UnblockChannel(net::Channel* channel);
  bool IsChannelBlocked(net::Channel* channel) const {
    // The flag lives on the channel (each channel has exactly one receiver),
    // so the per-selection check is a load instead of a hash lookup.
    return channel->receiver_blocked();
  }

  /// True when `head` (a data element at the head of `channel`) may be
  /// processed now, per the installed hook.
  bool HeadProcessable(net::Channel* channel,
                       const dataflow::StreamElement& head);

  /// Re-arm the processing loop after external conditions changed
  /// (state arrived, alignment reached, channels unblocked, ...).
  void WakeUp() {
    suspend_memo_ = false;
    MaybeSchedule();
  }

  /// Halt/resume all processing (Stop-Checkpoint-Restart uses this).
  void Freeze();
  void Unfreeze();
  bool frozen() const { return frozen_; }

  // ---- fault injection (src/fault) ----
  /// Simulated process crash: all volatile keyed state is wiped (ownership
  /// and routing survive — the "pod" is rescheduled in place), any
  /// checkpoint alignment in progress is abandoned, and the processing loop
  /// stops until Recover(). Channels and their queued elements persist: the
  /// network holds in-flight elements for the restarted instance.
  void Crash();
  /// Restore keyed state from a checkpoint snapshot (only key-groups this
  /// instance still owns are installed) and resume processing. Returns the
  /// number of in-flight data records waiting in the input caches — these
  /// are replayed against the restored state by the normal processing loop.
  uint64_t Recover(const std::vector<state::KeyGroupState>& snapshot);
  bool crashed() const { return crashed_; }

  // ---- OperatorContext ----
  void Emit(const dataflow::StreamElement& record) override;
  state::KeyedStateBackend* state() override { return state_.get(); }
  sim::SimTime now() const override;
  sim::SimTime watermark() const override { return operator_watermark_; }
  uint32_t subtask_index() const override { return subtask_; }

  // ---- ChannelReceiver ----
  void OnBatchAvailable(net::Channel* channel, size_t appended) override;

  /// Invalidate the suspension memo and re-arm. Strategies must call this
  /// whenever processability may have changed (state installed, confirm
  /// arrived, epoch switched, hooks removed).
  void OnControlBypass(net::Channel* channel,
                       const dataflow::StreamElement& element) override;

  // ---- emission helpers used by strategies and checkpointing ----
  /// Send a control element on every output channel of every edge.
  void BroadcastControl(const dataflow::StreamElement& element);
  /// Stamp provenance and, when order checks are on, the next value of this
  /// task's emission counter. One counter for all keys suffices: it rises
  /// in emission order, so it also rises within every (sender, key)
  /// subsequence the receivers check.
  void StampOutgoing(dataflow::StreamElement* element);

  /// Run one element through the operator, bypassing input selection.
  /// Used by strategies to execute re-routed records (Section III-A: they
  /// are "handled as special events and are not affected by processing
  /// suspension").
  void ProcessRecordDirect(const dataflow::StreamElement& record);

  /// Re-derive the operator watermark from the input channels' watermarks:
  /// the minimum over every regular channel (all must have reported) and
  /// every open scaling rail that carries one. Call after a rail closes.
  void RecomputeWatermark();

  // ---- checkpointing (invoked by CheckpointCoordinator / sources) ----
  void OnCheckpointBarrierDefault(net::Channel* channel,
                                  const dataflow::StreamElement& barrier);
  bool checkpoint_in_progress() const { return ckpt_active_; }
  /// True when any input cache holds an unprocessed checkpoint barrier
  /// (Section IV-C, Fig 9b detection).
  bool HasQueuedCheckpointBarrier() const;

  // ---- stats ----
  uint64_t processed_records() const { return processed_records_; }
  sim::SimTime busy_until() const { return busy_until_; }
  bool stalled() const { return stalled_; }
  bool suspend_memo() const { return suspend_memo_; }
  sim::SimTime busy_time() const { return busy_time_; }
  sim::SimTime current_watermark() const { return operator_watermark_; }

  /// Charge this task the CPU time of (de)serializing `bytes` of migrating
  /// state (part of the paper's inherent overhead L_o).
  void ConsumeSerializationTime(uint64_t bytes);

  /// Arms the processing loop if work might be available.
  void MaybeSchedule();

 protected:
  sim::Simulator* sim_;
  dataflow::OperatorSpec spec_;
  dataflow::InstanceId id_;
  dataflow::OperatorId op_;
  uint32_t subtask_;
  const dataflow::KeySpace* key_space_;
  metrics::MetricsHub* hub_;
  bool check_invariants_;

 protected:
  /// One iteration of the event-driven processing loop; overridden by
  /// SourceTask with generator-pump logic.
  virtual void RunOnce();
  bool AnyOutputCongested();
  /// Pure congestion probe: no decongest-listener registration. Used by the
  /// trailing re-arm elision, which must not alter listener state.
  bool AnyOutputCongestedFast() const;
  void EnterStall(metrics::StallReason reason);
  void ExitStall();

  void ForwardMarker(const dataflow::StreamElement& marker);

  bool frozen_ = false;
  bool crashed_ = false;
  bool run_scheduled_ = false;
  sim::SimTime busy_until_ = 0;

 private:
  void Dispatch(net::Channel* channel, dataflow::StreamElement element);
  void HandleWatermark(net::Channel* channel, sim::SimTime wm);
  void ProcessDataRecord(net::Channel* channel,
                         dataflow::StreamElement& element);
  void CheckRecordInvariants(const dataflow::StreamElement& record);

  std::unique_ptr<dataflow::Operator> operator_;
  std::unique_ptr<state::KeyedStateBackend> state_;
  std::unique_ptr<InputHandler> input_handler_;
  TaskHook* hook_ = nullptr;
  CheckpointCoordinator* checkpoint_coordinator_ = nullptr;
  SinkCollector* sink_collector_ = nullptr;
  ArrivalGate* arrival_gate_ = nullptr;

  std::vector<net::Channel*> input_channels_;
  std::vector<OutputEdge> output_edges_;

  // processing loop state
  bool stalled_ = false;
  /// True while input_handler_ is the stock DefaultInputHandler; gates the
  /// trailing re-arm elision (custom handlers may have their own notion of
  /// available work, so their idle runs are never elided).
  bool default_handler_ = true;
  /// True when the last selection pass found input but nothing processable.
  /// While set, deliveries that provably cannot change the verdict (a data
  /// record buried deep in an already-scanned queue) skip the rescan — this
  /// keeps suspended instances O(1) per delivery instead of O(channels x
  /// lookahead buffer).
  bool suspend_memo_ = false;
  metrics::StallReason stall_reason_ = metrics::StallReason::kAwaitingState;
  sim::SimTime stall_since_ = 0;
  /// Channels already carrying our decongestion wake-up; channels added by a
  /// scale-out get theirs on the next congestion check.
  std::unordered_set<net::Channel*> decongest_listened_;

  sim::SimTime operator_watermark_ = -1;

  // checkpoint alignment state
  bool ckpt_active_ = false;
  uint64_t ckpt_id_ = 0;
  size_t ckpt_expected_ = 0;  ///< regular channels when alignment began
  /// Insertion-ordered (barriers arrive once per channel): the post-align
  /// unblock loop iterates it, and unblock order feeds event scheduling, so
  /// it must not depend on pointer hashing.
  std::vector<net::Channel*> ckpt_received_;

  // emission state
  uint64_t emit_seq_ = 0;  ///< last stamp handed out by StampOutgoing

  // stats
  uint64_t processed_records_ = 0;
  sim::SimTime busy_time_ = 0;
};

}  // namespace drrs::runtime

#endif  // DRRS_RUNTIME_TASK_H_
