#include "scaling/scale_service.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "observe/observer.h"
#include "scaling/drrs/drrs.h"
#include "scaling/meces.h"
#include "scaling/otfs.h"
#include "scaling/planner.h"
#include "scaling/stop_restart.h"
#include "scaling/unbound.h"

namespace drrs::scaling {

const char* MechanismName(Mechanism mechanism) {
  switch (mechanism) {
    case Mechanism::kNoScale:
      return "no-scale";
    case Mechanism::kDrrs:
      return "drrs";
    case Mechanism::kDrrsDR:
      return "drrs-dr";
    case Mechanism::kDrrsSchedule:
      return "drrs-schedule";
    case Mechanism::kDrrsSubscale:
      return "drrs-subscale";
    case Mechanism::kMegaphone:
      return "megaphone";
    case Mechanism::kMeces:
      return "meces";
    case Mechanism::kOtfsFluid:
      return "otfs-fluid";
    case Mechanism::kOtfsAllAtOnce:
      return "otfs-all-at-once";
    case Mechanism::kUnbound:
      return "unbound";
    case Mechanism::kStopRestart:
      return "stop-restart";
  }
  return "?";
}

std::unique_ptr<ScalingStrategy> MakeMechanismStrategy(
    Mechanism mechanism, runtime::ExecutionGraph* graph) {
  switch (mechanism) {
    case Mechanism::kNoScale:
      return nullptr;
    case Mechanism::kDrrs:
      return std::make_unique<DrrsStrategy>(graph, FullDrrsOptions(),
                                            MechanismName(mechanism));
    case Mechanism::kDrrsDR:
      return std::make_unique<DrrsStrategy>(graph, DrOnlyOptions(),
                                            MechanismName(mechanism));
    case Mechanism::kDrrsSchedule:
      return std::make_unique<DrrsStrategy>(graph, ScheduleOnlyOptions(),
                                            MechanismName(mechanism));
    case Mechanism::kDrrsSubscale:
      return std::make_unique<DrrsStrategy>(graph, SubscaleOnlyOptions(),
                                            MechanismName(mechanism));
    case Mechanism::kMegaphone:
      return std::make_unique<DrrsStrategy>(graph, MegaphoneOptions(),
                                            MechanismName(mechanism));
    case Mechanism::kMeces:
      return std::make_unique<MecesStrategy>(graph);
    case Mechanism::kOtfsFluid:
      return std::make_unique<OtfsStrategy>(
          graph, OtfsStrategy::MigrationMode::kFluid);
    case Mechanism::kOtfsAllAtOnce:
      return std::make_unique<OtfsStrategy>(
          graph, OtfsStrategy::MigrationMode::kAllAtOnce);
    case Mechanism::kUnbound:
      return std::make_unique<UnboundStrategy>(graph);
    case Mechanism::kStopRestart:
      return std::make_unique<StopRestartStrategy>(graph);
  }
  return nullptr;
}

Status ScaleService::ValidateRequest(dataflow::OperatorId op,
                                     uint32_t target) const {
  if (options_.mechanism == Mechanism::kNoScale) {
    return Status::InvalidArgument("no-scale has no mechanism to run");
  }
  if (op >= graph_->job().operators().size()) {
    return Status::InvalidArgument("unknown operator");
  }
  const auto& spec = graph_->job().operators()[op];
  if (!spec.is_stateful || spec.is_source || spec.is_sink) {
    return Status::InvalidArgument(
        "only stateful internal operators can be rescaled");
  }
  if (target == 0) {
    return Status::InvalidArgument("zero target parallelism");
  }
  return Status::OK();
}

ScalingStrategy* ScaleService::GetOrCreate(dataflow::OperatorId op) {
  auto it = strategies_.find(op);
  if (it == strategies_.end()) {
    it = strategies_
             .emplace(op, MakeMechanismStrategy(options_.mechanism, graph_))
             .first;
    it->second->set_idle_listener([this]() { OnStrategyIdle(); });
    if (options_.chunk_retry.enabled) {
      it->second->EnableChunkRetry(options_.chunk_retry);
    }
  }
  return it->second.get();
}

Status ScaleService::RequestRescale(dataflow::OperatorId op,
                                    uint32_t target_parallelism) {
  DRRS_RETURN_NOT_OK(ValidateRequest(op, target_parallelism));
  // Admission gates, cheapest first. Overload pressure: starting a scale
  // while the job is throttled adds migration traffic exactly when it can
  // least be absorbed — the caller retries once pressure subsides.
  if (pressure_provider_ &&
      pressure_provider_() >= 3 /* overload::PressureLevel::kThrottled */) {
    ++graph_->hub()->overload().breaker_rejections;
    return Status::ResourceExhausted(
        "scale admission rejected: job under overload throttling");
  }
  if (overload::CircuitBreaker* breaker = BreakerFor(op)) {
    const auto prev = breaker->state();
    if (!breaker->Admit(graph_->sim()->now())) {
      ++graph_->hub()->overload().breaker_rejections;
      return Status::ResourceExhausted("scale admission breaker open");
    }
    if (breaker->state() != prev) {
      // Open -> HalfOpen: this request runs as the probe.
      ++graph_->hub()->overload().breaker_probes;
      DRRS_OBSERVE(graph_->sim(),
                   OnBreakerTransition(op, static_cast<int>(prev),
                                       static_cast<int>(breaker->state())));
    }
  }
  // A fresh user request starts with a clean abort budget; only the
  // watchdog's own re-admissions carry attempts across.
  if (options_.retry.enabled) watches_[op].attempts = 0;
  return Admit(op, target_parallelism, GetOrCreate(op));
}

ScalingStrategy* ScaleService::Prepare(dataflow::OperatorId op) {
  if (!ValidateRequest(op, /*target=*/1).ok()) return nullptr;
  return GetOrCreate(op);
}

Status ScaleService::Admit(dataflow::OperatorId op, uint32_t target,
                           ScalingStrategy* strategy) {
  bool busy_other = false;
  bool exclusive_other = false;
  for (const auto& [other_op, other] : strategies_) {
    if (other_op == op || other->done()) continue;
    busy_other = true;
    if (other->exclusive()) exclusive_other = true;
  }
  // An exclusive mechanism touches tasks beyond its own operator (upstream
  // hooks, global freeze), so it never overlaps any other operation: defer
  // until the job is quiet again.
  if (exclusive_other || (strategy->exclusive() && busy_other)) {
    pending_[op] = target;
    return Status::OK();
  }
  if (!strategy->done()) {
    if (!strategy->supports_supersession()) {
      pending_[op] = target;
      return Status::OK();
    }
    Status st = strategy->StartScale(SupersedingPlan(op, target));
    if (st.ok()) ArmDeadline(op, target);
    return st;
  }
  ScalePlan plan =
      options_.use_balanced_plan
          ? PlanBalancedRescale(graph_, op, target)
          : PlanRescale(graph_, op, target);
  Status st = strategy->StartScale(plan);
  if (st.ok()) ArmDeadline(op, target);
  return st;
}

void ScaleService::ArmDeadline(dataflow::OperatorId op, uint32_t target) {
  if (!options_.retry.enabled) return;
  Watch& w = watches_[op];
  w.target = target;
  ScalingStrategy* strategy = strategy_for(op);
  w.armed_progress = strategy ? strategy->progress() : 0;
  uint64_t epoch = ++w.epoch;
  graph_->sim()->ScheduleAfter(options_.retry.progress_deadline,
                               [this, op, epoch]() { OnDeadline(op, epoch); });
}

void ScaleService::OnDeadline(dataflow::OperatorId op, uint64_t epoch) {
  auto it = watches_.find(op);
  if (it == watches_.end() || it->second.epoch != epoch) return;
  Watch& w = it->second;
  ScalingStrategy* strategy = strategy_for(op);
  if (strategy == nullptr || strategy->done()) {
    w.attempts = 0;  // finished within its deadline
    return;
  }
  // An operation that installed state since the deadline was armed has
  // made progress — re-arm instead of aborting mid-flight.
  if (strategy->progress() > w.armed_progress) {
    ArmDeadline(op, w.target);
    return;
  }
  metrics::RecoveryMetrics& recovery = graph_->hub()->recovery();
  if (w.attempts >= options_.retry.max_attempts) {
    // Abort budget exhausted: cancel the request for good. The final abort
    // still runs so the job returns to quiescent ownership (roll-forward
    // leaves the planned assignment in place).
    ++recovery.scale_cancellations;
    DRRS_OBSERVE(graph_->sim(),
                 OnScaleWatchdog(op, w.attempts, /*cancelled=*/true));
    DRRS_LOG(Error) << "scale-retry: cancelling rescale of operator " << op
                    << " to parallelism " << w.target << " after "
                    << w.attempts << " aborted attempt(s): "
                    << "no progress within the deadline budget";
    pending_.erase(op);
    RecordBreakerFailure(op);
    w.abort_pending = true;
    strategy->CancelScale(options_.retry.abort_grace, nullptr);
    return;
  }
  ++w.attempts;
  uint32_t attempt = w.attempts;
  ++recovery.scale_aborts;
  RecordBreakerFailure(op);
  DRRS_OBSERVE(graph_->sim(),
               OnScaleWatchdog(op, attempt, /*cancelled=*/false));
  DRRS_LOG(Warn) << "scale-retry: operator " << op
                 << " missed its progress deadline, aborting (attempt "
                 << attempt << "/" << options_.retry.max_attempts << ")";
  w.abort_pending = true;
  bool accepted = strategy->CancelScale(
      options_.retry.abort_grace, [this, op, attempt](bool /*aborted*/) {
        if (watches_.find(op) == watches_.end()) return;
        sim::SimTime backoff = options_.retry.retry_backoff;
        for (uint32_t i = 1; i < attempt; ++i) {
          backoff = static_cast<sim::SimTime>(
              static_cast<double>(backoff) * options_.retry.backoff_factor);
        }
        graph_->sim()->ScheduleAfter(backoff,
                                     [this, op]() { RetryAfterAbort(op); });
      });
  if (!accepted) {
    // Mechanism without cancel support (or a cancel already in flight):
    // keep watching — the operation may still finish on its own, and that
    // finish is a genuine completion, not an abort teardown.
    w.abort_pending = false;
    DRRS_LOG(Warn) << "scale-retry: " << strategy->name()
                   << " cannot abort; re-arming the deadline";
    ArmDeadline(op, w.target);
  }
}

void ScaleService::RetryAfterAbort(dataflow::OperatorId op) {
  auto it = watches_.find(op);
  if (it == watches_.end()) return;
  if (overload::CircuitBreaker* breaker = BreakerFor(op)) {
    const sim::SimTime now = graph_->sim()->now();
    const auto prev = breaker->state();
    if (!breaker->Admit(now)) {
      // Breaker open: the re-admission waits for the half-open probe window
      // instead of hammering a failing operation.
      ++graph_->hub()->overload().breaker_rejections;
      graph_->sim()->ScheduleAt(std::max(breaker->retry_at(), now + 1),
                                [this, op]() { RetryAfterAbort(op); });
      return;
    }
    if (breaker->state() != prev) {
      ++graph_->hub()->overload().breaker_probes;
      DRRS_OBSERVE(graph_->sim(),
                   OnBreakerTransition(op, static_cast<int>(prev),
                                       static_cast<int>(breaker->state())));
    }
  }
  ++graph_->hub()->recovery().scale_retries;
  Status st = Admit(op, it->second.target, GetOrCreate(op));
  if (!st.ok()) {
    DRRS_LOG(Error) << "scale-retry: re-admission for operator " << op
                    << " failed: " << st.ToString();
  }
}

overload::CircuitBreaker* ScaleService::BreakerFor(dataflow::OperatorId op) {
  if (!options_.breaker.enabled) return nullptr;
  auto it = breakers_.find(op);
  if (it == breakers_.end()) {
    it = breakers_.emplace(op, overload::CircuitBreaker(options_.breaker))
             .first;
  }
  return &it->second;
}

void ScaleService::RecordBreakerFailure(dataflow::OperatorId op) {
  overload::CircuitBreaker* breaker = BreakerFor(op);
  if (breaker == nullptr) return;
  const auto prev = breaker->state();
  const uint64_t opens = breaker->opens();
  breaker->OnFailure(graph_->sim()->now());
  if (breaker->opens() > opens) {
    ++graph_->hub()->overload().breaker_opens;
  }
  if (breaker->state() != prev) {
    DRRS_OBSERVE(graph_->sim(),
                 OnBreakerTransition(op, static_cast<int>(prev),
                                     static_cast<int>(breaker->state())));
  }
}

void ScaleService::RecordBreakerSuccess(dataflow::OperatorId op) {
  overload::CircuitBreaker* breaker = BreakerFor(op);
  if (breaker == nullptr) return;
  const auto prev = breaker->state();
  breaker->OnSuccess();
  if (breaker->state() != prev) {
    DRRS_OBSERVE(graph_->sim(),
                 OnBreakerTransition(op, static_cast<int>(prev),
                                     static_cast<int>(breaker->state())));
  }
}

ScalePlan ScaleService::SupersedingPlan(dataflow::OperatorId op,
                                        uint32_t target) const {
  // Live ownership is indeterminate while state is in transit, so a
  // superseding plan carries only the target assignment (no migrations);
  // the strategy recomputes the migrations from live ownership when the
  // pending plan takes over (see DrrsStrategy::FinishScale).
  ScalePlan plan;
  plan.op = op;
  plan.old_parallelism = graph_->parallelism_of(op);
  plan.new_parallelism = target;
  std::vector<dataflow::InstanceId> uniform =
      graph_->key_space().UniformAssignment(target);
  plan.new_assignment.assign(uniform.begin(), uniform.end());
  return plan;
}

void ScaleService::OnStrategyIdle() {
  // Completion feedback for the admission breakers: every operator whose
  // strategy reached idle finished its operation (a breaker in half-open
  // state closes; a closed one clears its failure streak). An idle that is
  // the teardown of an abort consumes the abort_pending flag instead — it
  // must not launder a failure into a success.
  for (auto& [op, breaker] : breakers_) {
    ScalingStrategy* strategy = strategy_for(op);
    if (strategy == nullptr || !strategy->done()) continue;
    auto wit = watches_.find(op);
    if (wit != watches_.end() && wit->second.abort_pending) {
      wit->second.abort_pending = false;
      continue;
    }
    RecordBreakerSuccess(op);
  }
  if (pending_.empty() || drain_scheduled_) return;
  // Deferred one tick: the idle notification fires inside the finishing
  // strategy's teardown, which must complete before a new operation starts.
  drain_scheduled_ = true;
  graph_->sim()->ScheduleAfter(0, [this]() {
    drain_scheduled_ = false;
    DrainPending();
  });
}

void ScaleService::DrainPending() {
  std::map<dataflow::OperatorId, uint32_t> batch;
  batch.swap(pending_);
  for (const auto& [op, target] : batch) {
    // Re-runs admission: a request that still conflicts (e.g. the first
    // drained entry started an exclusive operation) re-queues itself.
    Status st = Admit(op, target, GetOrCreate(op));
    if (!st.ok()) {
      DRRS_LOG(Error) << "deferred rescale of operator " << op
                      << " failed: " << st.ToString();
    }
  }
}

bool ScaleService::idle() const {
  if (!pending_.empty() || drain_scheduled_) return false;
  for (const auto& [op, strategy] : strategies_) {
    if (!strategy->done()) return false;
  }
  return true;
}

ScalingStrategy* ScaleService::strategy_for(dataflow::OperatorId op) {
  auto it = strategies_.find(op);
  return it == strategies_.end() ? nullptr : it->second.get();
}

}  // namespace drrs::scaling
