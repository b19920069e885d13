#ifndef DRRS_SCALING_SCALE_SERVICE_H_
#define DRRS_SCALING_SCALE_SERVICE_H_

#include <functional>
#include <map>
#include <memory>

#include "overload/circuit_breaker.h"
#include "scaling/strategy.h"

namespace drrs::scaling {

/// The scaling mechanisms the control plane can drive — the paper's systems
/// under evaluation (Section V-A), minus the no-op reference.
enum class Mechanism {
  kDrrs = 0,       ///< full DRRS
  kDrrsDR,         ///< Fig 14 ablation: Decoupling & Re-routing only
  kDrrsSchedule,   ///< Fig 14 ablation: Record Scheduling only
  kDrrsSubscale,   ///< Fig 14 ablation: Subscale Division only
  kMegaphone,      ///< Megaphone port (Section V-A)
  kMeces,          ///< Meces port (Section V-A)
  kOtfsFluid,      ///< generalized OTFS with fluid migration
  kOtfsAllAtOnce,  ///< generalized OTFS with all-at-once migration
  kUnbound,        ///< correctness-free probe (Fig 2)
  kStopRestart,    ///< Stop-Checkpoint-Restart
};

/// Stable mechanism identifier (matches the bench system names).
const char* MechanismName(Mechanism mechanism);

/// \brief The paper's control-plane composition as one user-facing object
/// (Fig 8): the Scale Planner (component C) turns a request into a plan —
/// C0's default user-request trigger with uniform repartitioning, or the
/// load-aware variant — and the Scale Coordinator (A) drives per-operator
/// strategies whose task hooks act as the Scale Executors (B). Every
/// Mechanism runs behind this same entry point.
///
/// One strategy instance exists per scaled operator. That alone covers the
/// *same-operator* half of the Section IV-B semantics: a second request for
/// an operator that is already scaling supersedes the in-flight operation
/// (immediately when the mechanism supports supersession, else queued until
/// it finishes). Requests for distinct operators run concurrently — but not
/// for free: adjacent-operator consistency additionally relies on strategies
/// re-capturing the predecessor set at every signal injection (Section IV-B
/// case 2, see DrrsStrategy::LaunchSubscale), and mechanisms that touch
/// tasks beyond the scaled operator (ScalingStrategy::exclusive) are
/// serialized through the service's pending queue rather than run
/// concurrently at all.
class ScaleService {
 public:
  struct Options {
    Mechanism mechanism = Mechanism::kDrrs;
    /// Use Planner::BalancedPlan over live key counts instead of uniform
    /// repartitioning. Superseding requests fall back to the uniform target
    /// (balanced planning needs quiescent ownership).
    bool use_balanced_plan = false;
    /// Scale-abort-and-retry watchdog. When enabled, every started
    /// operation gets a progress deadline; an operation still running when
    /// it expires is aborted (roll-forward, ScalingStrategy::CancelScale)
    /// and re-admitted after an exponential backoff. An operation that
    /// installed state since the deadline was armed (ScalingStrategy::
    /// progress() grew) has made progress: the deadline re-arms instead. A
    /// request that burns through `max_attempts` aborts is cancelled with a
    /// structured log line (and counted in
    /// RecoveryMetrics::scale_cancellations).
    struct RetryPolicy {
      bool enabled = false;
      sim::SimTime progress_deadline = sim::Seconds(20);
      /// Wire-drain window between quiesce and force-completion.
      sim::SimTime abort_grace = sim::Millis(5);
      uint32_t max_attempts = 3;
      sim::SimTime retry_backoff = sim::Millis(200);
      double backoff_factor = 2.0;
    };
    RetryPolicy retry;
    /// Circuit breaker over scale admission (one breaker per operator):
    /// watchdog aborts and cancellations count as failures, opening the
    /// breaker after `failure_threshold` of them. While open, new
    /// RequestRescale calls are rejected with ResourceExhausted and the
    /// watchdog's own re-admissions wait for the half-open probe window.
    overload::CircuitBreaker::Policy breaker;
    /// Per-chunk ack/retransmission for every strategy's state transfers
    /// (applied to each strategy as it is created).
    ChunkRetryPolicy chunk_retry;
  };

  explicit ScaleService(runtime::ExecutionGraph* graph)
      : ScaleService(graph, Options()) {}
  ScaleService(runtime::ExecutionGraph* graph, Options options)
      : graph_(graph), options_(options) {}

  ScaleService(const ScaleService&) = delete;
  ScaleService& operator=(const ScaleService&) = delete;

  /// User-request-based trigger (paper C0's default policy): rescale `op`
  /// to `target_parallelism` on the fly. Returns an error for invalid
  /// requests; a valid request is either started immediately or — when it
  /// conflicts with an in-flight operation it cannot supersede — queued and
  /// started when the conflict clears (the latest queued target per
  /// operator wins).
  Status RequestRescale(dataflow::OperatorId op, uint32_t target_parallelism);

  /// Create the (idle) strategy for `op` upfront without starting anything.
  /// Returns null when `op` cannot be rescaled.
  ScalingStrategy* Prepare(dataflow::OperatorId op);

  /// True when no operator is scaling and no request is queued.
  bool idle() const;

  /// The per-operator strategy (null before the first request for `op`).
  ScalingStrategy* strategy_for(dataflow::OperatorId op);

  /// Requests accepted but not yet started (diagnostic).
  size_t pending_requests() const { return pending_.size(); }

  /// Overload-pressure feed for admission control: returns the current
  /// overload::PressureLevel as an int (the service treats >= 3, i.e.
  /// kThrottled, as "reject new scale requests" — a scale operation adds
  /// migration traffic exactly when the job can least afford it). Unset
  /// (default) means pressure never gates admission.
  void set_pressure_provider(std::function<int()> provider) {
    pressure_provider_ = std::move(provider);
  }

 private:
  /// Per-operator watchdog state for Options::RetryPolicy.
  struct Watch {
    uint64_t epoch = 0;     ///< invalidates stale deadline callbacks
    uint32_t attempts = 0;  ///< aborts charged to the current request
    uint32_t target = 0;    ///< target parallelism being watched
    /// ScalingStrategy::progress() when the current deadline was armed; a
    /// larger count at expiry re-arms the deadline instead of aborting.
    uint64_t armed_progress = 0;
    /// An abort is in flight: the next idle notification is the abort's own
    /// teardown and must not count as a breaker success.
    bool abort_pending = false;
  };

  Status ValidateRequest(dataflow::OperatorId op, uint32_t target) const;
  ScalingStrategy* GetOrCreate(dataflow::OperatorId op);
  /// Start `target` on `strategy` or queue it, per the Section IV-B rules.
  Status Admit(dataflow::OperatorId op, uint32_t target,
               ScalingStrategy* strategy);
  ScalePlan SupersedingPlan(dataflow::OperatorId op, uint32_t target) const;
  void OnStrategyIdle();
  void DrainPending();
  void ArmDeadline(dataflow::OperatorId op, uint32_t target);
  void OnDeadline(dataflow::OperatorId op, uint64_t epoch);
  void RetryAfterAbort(dataflow::OperatorId op);
  /// The admission breaker of `op`, created on first use; null when the
  /// breaker policy is disabled.
  overload::CircuitBreaker* BreakerFor(dataflow::OperatorId op);
  /// Charge one failure (abort/cancellation) to `op`'s breaker, with
  /// metrics and the state-transition trace hook.
  void RecordBreakerFailure(dataflow::OperatorId op);
  /// Report successful completion of `op`'s operation to its breaker.
  void RecordBreakerSuccess(dataflow::OperatorId op);

  runtime::ExecutionGraph* graph_;
  Options options_;
  std::map<dataflow::OperatorId, std::unique_ptr<ScalingStrategy>> strategies_;
  /// op -> deferred target parallelism (latest request wins).
  std::map<dataflow::OperatorId, uint32_t> pending_;
  std::map<dataflow::OperatorId, Watch> watches_;
  /// Per-operator admission breakers (empty while the policy is disabled).
  /// Ordered map: OnStrategyIdle iterates it on a decision path.
  std::map<dataflow::OperatorId, overload::CircuitBreaker> breakers_;
  std::function<int()> pressure_provider_;
  bool drain_scheduled_ = false;
};

/// Build one fresh strategy executing `mechanism` (the factory behind
/// ScaleService; the experiment harness shares it).
std::unique_ptr<ScalingStrategy> MakeMechanismStrategy(
    Mechanism mechanism, runtime::ExecutionGraph* graph);

}  // namespace drrs::scaling

#endif  // DRRS_SCALING_SCALE_SERVICE_H_
