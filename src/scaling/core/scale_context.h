#ifndef DRRS_SCALING_CORE_SCALE_CONTEXT_H_
#define DRRS_SCALING_CORE_SCALE_CONTEXT_H_

#include <functional>
#include <set>
#include <vector>

#include "metrics/metrics_hub.h"
#include "runtime/execution_graph.h"
#include "scaling/core/barrier_injector.h"
#include "scaling/core/scaling_rail.h"
#include "scaling/core/state_transfer.h"

namespace drrs::scaling {

/// \brief Shared lifecycle of one scaling operation: scale-id allocation,
/// scale start/end metrics, hook attachment with guaranteed detachment,
/// per-subscale tracking and leak-checked state-transfer accounting. Every
/// strategy drives its protocol through one ScaleContext, so "no disruption
/// during non-scaling periods" (idle ⇒ no hooks, no rails, no in-transit
/// state) is enforced in exactly one place.
class ScaleContext {
 public:
  ScaleContext(runtime::ExecutionGraph* graph, metrics::MetricsHub* hub)
      : graph_(graph), hub_(hub), rails_(graph), injector_(graph) {}

  ScaleContext(const ScaleContext&) = delete;
  ScaleContext& operator=(const ScaleContext&) = delete;

  /// Begin one scaling operation: allocate the next ScaleId, record the
  /// scale start and open a transfer session tagged with that id. Callable
  /// while already active (a deferred begin after MarkActive, or a
  /// superseding plan restarting right after EndScale).
  dataflow::ScaleId BeginScale();

  /// Become active without starting metrics or a session — used when the
  /// operation is admitted but deferred (e.g. waiting out a checkpoint,
  /// Section IV-C) so done() flips immediately.
  void MarkActive() { active_ = true; }

  bool active() const { return active_; }

  /// Attach `hook` to `task` and remember it for EndScale's detachment.
  void AttachHook(runtime::Task* task, runtime::TaskHook* hook);

  /// Finish the operation: assert the transfer session drained
  /// (leak-freedom), record the scale end, detach every attached hook (and
  /// wake the tasks), release every rail still open, close subscale
  /// tracking and fire the idle callback.
  void EndScale();

  /// Abort roll-forward helper: install every chunk of the current scale
  /// that is still in the transfer registry directly at its planned
  /// receiver (see StateTransfer::ForceComplete). Returns install count.
  size_t ForceCompleteTransfers();

  /// Tear down an active scale after a strategy abandoned its protocol:
  /// close any still-open subscales and run the normal EndScale (hook
  /// detachment, rail release, metrics, idle callback). The caller must
  /// have already quiesced its migration machinery and force-completed or
  /// aborted its transfers. Returns false when no scale was active.
  bool AbortActiveScale();

  // -- subscale lifecycle (Section III-C / IV-A concurrency control) --
  void OpenSubscale(dataflow::SubscaleId id);
  void CloseSubscale(dataflow::SubscaleId id);
  const std::set<dataflow::SubscaleId>& open_subscales() const {
    return open_subscales_;
  }

  ScalingRails& rails() { return rails_; }
  BarrierInjector& injector() { return injector_; }
  StateTransfer& transfer() { return transfer_; }
  const StateTransfer& transfer() const { return transfer_; }
  /// The current operation's transfer session (valid between BeginScale and
  /// the next BeginScale).
  TransferSession& session() { return session_; }
  dataflow::ScaleId scale_id() const { return session_.scale(); }

  /// Invoked (synchronously) at the end of EndScale; the control plane uses
  /// it to drain queued requests once the strategy is idle again.
  void set_on_idle(std::function<void()> cb) { on_idle_ = std::move(cb); }

 private:
  runtime::ExecutionGraph* graph_;
  metrics::MetricsHub* hub_;
  ScalingRails rails_;
  BarrierInjector injector_;
  StateTransfer transfer_;
  TransferSession session_;
  std::vector<runtime::Task*> hooked_;
  std::set<dataflow::SubscaleId> open_subscales_;
  dataflow::ScaleId next_scale_id_ = 1;
  bool active_ = false;
  std::function<void()> on_idle_;
};

}  // namespace drrs::scaling

#endif  // DRRS_SCALING_CORE_SCALE_CONTEXT_H_
