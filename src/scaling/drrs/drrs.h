#ifndef DRRS_SCALING_DRRS_DRRS_H_
#define DRRS_SCALING_DRRS_DRRS_H_

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runtime/input_handler.h"
#include "runtime/task_hook.h"
#include "scaling/planner.h"
#include "scaling/scale_plan.h"
#include "scaling/strategy.h"

namespace drrs::scaling {

/// Record Scheduling modes (paper Section III-B).
enum class Scheduling : uint8_t {
  kNone = 0,       ///< Flink-like: suspend when the active head is blocked.
  kInterChannel,   ///< switch to processable channels
  kInterIntra,     ///< + bounded in-channel lookahead (200-record buffer)
};

/// Configuration of the fine-grained scaling engine. The full DRRS system
/// enables everything; the Fig 14 ablation variants and the Megaphone
/// baseline are other settings of the same machinery (Section V-A describes
/// Megaphone's port as Naive Division with coupled signals).
struct DrrsOptions {
  /// Decoupled trigger/confirm signals with re-routing (Section III-A);
  /// false = coupled predecessor-injected barrier with source-side alignment.
  bool decoupled_signals = true;

  Scheduling scheduling = Scheduling::kInterIntra;

  /// Max key-groups per subscale; 0 disables Subscale Division (one subscale
  /// per migration path, Section III-C).
  uint32_t max_key_groups_per_subscale = 8;

  /// Per-instance concurrency threshold for subscales (Section IV-A).
  uint32_t max_concurrent_per_instance = 2;

  /// Global concurrency cap; 0 = unlimited. Megaphone mode sets 1 for its
  /// strictly sequential unit migrations.
  uint32_t global_concurrency = 0;

  /// Record all signal injections at scale start (Megaphone's
  /// timestamp-driven semantics: the whole reconfiguration sequence is
  /// announced upfront).
  bool announce_all_signals_upfront = false;

  /// Use the greedy fewest-held-keys subscale order (else plan order).
  bool greedy_subscale_order = true;

  /// Re-route Manager policy (Section IV-A, B4): E_p records whose state
  /// already left are buffered and flushed to the rail when the buffer
  /// reaches `reroute_batch_capacity` records or `reroute_timeout` elapses,
  /// whichever comes first. A re-routed confirm barrier always forces an
  /// immediate flush to keep records ordered before it. Capacity 1 degrades
  /// to immediate per-record re-routing.
  uint32_t reroute_batch_capacity = 1;
  sim::SimTime reroute_timeout = sim::Millis(5);
};

/// Presets.
DrrsOptions FullDrrsOptions();
DrrsOptions DrOnlyOptions();        ///< Fig 14 "DR"
DrrsOptions ScheduleOnlyOptions();  ///< Fig 14 "Schedule"
DrrsOptions SubscaleOnlyOptions();  ///< Fig 14 "Subscale"
DrrsOptions MegaphoneOptions();     ///< Section V-A Megaphone port

/// \brief The paper's scaling method: Decoupling and Re-routing, Record
/// Scheduling and Subscale Division as a protocol over the shared
/// scaling/core migration primitives.
///
/// One instance may execute one scaling operation at a time; a StartScale on
/// the same operator while one is active supersedes it (Section IV-B): the
/// currently running subscales finish, queued ones are dropped, and the new
/// plan is recomputed from live ownership.
class DrrsStrategy : public ScalingStrategy {
 public:
  DrrsStrategy(runtime::ExecutionGraph* graph, DrrsOptions options,
               std::string name = "drrs");
  ~DrrsStrategy() override;

  std::string name() const override { return name_; }
  Status StartScale(const ScalePlan& plan) override;

  bool supports_supersession() const override { return true; }

  bool SupportsCancel() const override { return true; }

  const DrrsOptions& options() const { return options_; }

  /// Subscales not yet finished (test/diagnostic).
  size_t active_subscales() const { return core_.open_subscales().size(); }
  size_t queued_subscales() const { return queue_.size(); }

 private:
  friend class DrrsTaskHook;
  friend class DrrsInputHandler;

  // ---- per-instance scaling context ----
  struct IncomingSubscale {
    const Subscale* subscale = nullptr;
    std::set<dataflow::KeyGroupId> pending_key_groups;
    std::set<dataflow::InstanceId> pending_confirms;  ///< pred instance ids
    std::set<dataflow::InstanceId> confirmed;
    bool complete_marker = false;
  };
  struct OutgoingSubscale {
    const Subscale* subscale = nullptr;
    std::deque<dataflow::KeyGroupId> to_send;
    /// Re-route Manager buffer (capacity/timeout policy, Section IV-A B4).
    std::vector<dataflow::StreamElement> reroute_buffer;
    bool reroute_flush_scheduled = false;
    size_t expected_confirms = 0;
    size_t confirms_handled = 0;
    bool migration_started = false;
    bool pump_active = false;
    bool complete_sent = false;
    net::Channel* rail = nullptr;
    /// Channels blocked for coupled-mode sender-side alignment.
    std::vector<net::Channel*> blocked;
  };
  struct InstanceCtx {
    std::map<dataflow::SubscaleId, IncomingSubscale> incoming;
    std::map<dataflow::SubscaleId, OutgoingSubscale> outgoing;
    std::map<dataflow::KeyGroupId, dataflow::SubscaleId> kg_in;
    std::map<dataflow::KeyGroupId, dataflow::SubscaleId> kg_out;
    std::vector<dataflow::SubscaleId> deferred_triggers;  ///< Section IV-C(b)
  };

  // ---- lifecycle ----
  void QuiesceScale() override;
  void AbandonScale() override;
  void WaitForCheckpointThenBegin(const ScalePlan& plan);
  void BeginPlan(const ScalePlan& plan);
  void TryLaunch();
  bool CanLaunch(const Subscale& s) const;
  void LaunchSubscale(const Subscale& s);
  void FinishSubscale(dataflow::SubscaleId id);
  void FinishScale();

  // ---- src-side ----
  void OnTrigger(runtime::Task* src, dataflow::SubscaleId id);
  void BufferReroute(runtime::Task* src, dataflow::SubscaleId id,
                     dataflow::StreamElement record);
  void FlushReroutes(runtime::Task* src, dataflow::SubscaleId id);
  void PumpMigration(runtime::Task* src, dataflow::SubscaleId id);
  void OnConfirmAtSource(runtime::Task* src, net::Channel* channel,
                         const dataflow::StreamElement& confirm);
  void MaybeSendComplete(runtime::Task* src, dataflow::SubscaleId id);

  // ---- dst-side ----
  void OnRailElement(runtime::Task* dst, const dataflow::StreamElement& e);
  void MaybeFinalizeIncoming(runtime::Task* dst, dataflow::SubscaleId id);

  // ---- hook callbacks (via DrrsTaskHook) ----
  bool HandleControl(runtime::Task* task, net::Channel* channel,
                     const dataflow::StreamElement& e);
  void HandleBypass(runtime::Task* task, net::Channel* channel,
                    const dataflow::StreamElement& e);
  bool HandleInterceptRecord(runtime::Task* task, net::Channel* channel,
                             dataflow::StreamElement& e);
  bool HandleIsProcessable(runtime::Task* task, net::Channel* channel,
                           const dataflow::StreamElement& e);
  bool HandleCheckpointBarrier(runtime::Task* task, net::Channel* channel,
                               const dataflow::StreamElement& e);

  InstanceCtx& CtxOf(runtime::Task* task);

  DrrsOptions options_;
  std::string name_;

  // active-scale state
  ScalePlan plan_;
  std::vector<Subscale> subscales_;
  std::deque<size_t> queue_;                ///< indexes into subscales_
  std::map<dataflow::SubscaleId, size_t> subscale_index_;
  std::map<dataflow::InstanceId, InstanceCtx> ctx_;
  std::vector<runtime::Task*> predecessors_;
  std::unique_ptr<runtime::TaskHook> hook_;
  bool has_pending_plan_ = false;
  ScalePlan pending_plan_;
  /// Admitted but deferred behind an in-flight checkpoint (Section IV-C);
  /// a cancel during this window simply withdraws the deferred begin.
  bool begin_deferred_ = false;
};

}  // namespace drrs::scaling

#endif  // DRRS_SCALING_DRRS_DRRS_H_
