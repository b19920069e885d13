#include "overload/overload_controller.h"

#include <algorithm>

#include "common/logging.h"
#include "observe/observer.h"

namespace drrs::overload {

const char* PressureLevelName(PressureLevel level) {
  switch (level) {
    case PressureLevel::kOk:
      return "ok";
    case PressureLevel::kBackpressured:
      return "backpressured";
    case PressureLevel::kShedding:
      return "shedding";
    case PressureLevel::kThrottled:
      return "throttled";
  }
  return "?";
}

const char* ShedPolicyName(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kNone:
      return "none";
    case ShedPolicy::kDropTail:
      return "drop-tail";
    case ShedPolicy::kSeededRandom:
      return "seeded-random";
    case ShedPolicy::kColdestKeys:
      return "coldest-keys";
  }
  return "?";
}

OverloadController::OverloadController(runtime::ExecutionGraph* graph,
                                       dataflow::OperatorId op,
                                       const OverloadOptions& options)
    : graph_(graph), op_(op), options_(options), rng_(options.seed) {}

OverloadController::~OverloadController() {
  if (sampler_ != nullptr) sampler_->Cancel();
  // Detach from the graph defensively; in the harness the graph dies first,
  // but tests may tear the controller down mid-run.
  for (runtime::Task* task : graph_->instances_of(op_)) {
    if (task->arrival_gate() == this) task->set_arrival_gate(nullptr);
  }
  for (size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i]->throttle() == buckets_[i].get()) {
      sources_[i]->set_throttle(nullptr);
    }
  }
}

void OverloadController::Arm() {
  DRRS_CHECK(options_.enabled) << "Arm() on a disabled overload controller";
  DRRS_CHECK(options_.backpressure_threshold <= options_.shed_threshold &&
             options_.shed_threshold <= options_.throttle_threshold)
      << "overload thresholds must be nondecreasing";
  DRRS_CHECK(options_.hysteresis > 0.0 && options_.hysteresis <= 1.0)
      << "hysteresis must be in (0, 1]";
  DRRS_CHECK(options_.queue_bound > 0) << "queue_bound must be positive";
  DRRS_CHECK(!graph_->instances_of(op_).empty())
      << "monitored operator has no instances";

  InstallGates();
  sources_ = graph_->sources();
  for (runtime::SourceTask* s : sources_) {
    buckets_.push_back(std::make_unique<TokenBucket>());
    s->set_throttle(buckets_.back().get());
  }
  sampler_ = std::make_unique<sim::PeriodicProcess>(
      graph_->sim(), options_.sample_period, options_.sample_period,
      [this]() { Sample(); });
}

uint64_t OverloadController::MonitoredBacklog() const {
  uint64_t backlog = 0;
  for (const runtime::Task* task : graph_->instances_of(op_)) {
    for (const net::Channel* ch : task->input_channels()) {
      backlog += ch->input_queue_size();
    }
  }
  return backlog;
}

uint64_t OverloadController::ThresholdFor(PressureLevel level) const {
  switch (level) {
    case PressureLevel::kOk:
      return 0;
    case PressureLevel::kBackpressured:
      return options_.backpressure_threshold;
    case PressureLevel::kShedding:
      return options_.shed_threshold;
    case PressureLevel::kThrottled:
      return options_.throttle_threshold;
  }
  return 0;
}

PressureLevel OverloadController::NextLevel(uint64_t backlog) const {
  PressureLevel raw = PressureLevel::kOk;
  if (backlog >= options_.throttle_threshold) {
    raw = PressureLevel::kThrottled;
  } else if (backlog >= options_.shed_threshold) {
    raw = PressureLevel::kShedding;
  } else if (backlog >= options_.backpressure_threshold) {
    raw = PressureLevel::kBackpressured;
  }
  if (raw >= level_) return raw;  // escalation is immediate
  // De-escalate only once the backlog clears the hysteresis band below the
  // current level's threshold; then drop straight to the raw level.
  double release =
      options_.hysteresis * static_cast<double>(ThresholdFor(level_));
  if (static_cast<double>(backlog) < release) return raw;
  return level_;
}

void OverloadController::Sample() {
  InstallGates();  // instances added by a scale-out get their gate
  const uint64_t backlog = MonitoredBacklog();
  metrics::OverloadMetrics& om = graph_->hub()->overload();
  om.last_input_backlog = backlog;
  om.peak_input_backlog = std::max(om.peak_input_backlog, backlog);

  PressureLevel next = NextLevel(backlog);
  if (next != level_) ApplyLevel(next, backlog);
  UpdateThrottle();
  if (options_.shed_policy == ShedPolicy::kColdestKeys) {
    RecomputeColdThreshold();
  }
  // Self-cancel once the sources dried up and the backlog drained, so a
  // run-to-completion horizon still empties the event queue.
  if (backlog == 0 && level_ == PressureLevel::kOk && AllSourcesExhausted()) {
    sampler_->Cancel();
  }
}

void OverloadController::ApplyLevel(PressureLevel next, uint64_t backlog) {
  // Observed only; unused in default builds.
  (void)backlog;
  const PressureLevel prev = level_;
  (void)prev;
  level_ = next;
  ++graph_->hub()->overload().pressure_transitions;
  DRRS_OBSERVE(graph_->sim(),
               OnPressureChange(op_, static_cast<int>(prev),
                                static_cast<int>(next), backlog));
}

void OverloadController::UpdateThrottle() {
  if (options_.throttle_rate_per_sec <= 0 || sources_.empty()) return;
  // Engage at kThrottled; release only once the ladder is fully back at kOk
  // AND every source has drained its dammed-up feed. Releasing earlier lets
  // a lagging source burst its whole catch-up backlog into the queues the
  // throttle just finished draining.
  bool want_throttle = throttle_engaged_;
  if (level_ >= PressureLevel::kThrottled) {
    want_throttle = true;
  } else if (level_ == PressureLevel::kOk) {
    bool lagging = false;
    for (runtime::SourceTask* s : sources_) {
      if (!s->exhausted() && s->current_lag() > 0) lagging = true;
    }
    if (!lagging) want_throttle = false;
  }
  if (want_throttle == throttle_engaged_) return;
  throttle_engaged_ = want_throttle;
  if (want_throttle) ++graph_->hub()->overload().throttle_activations;
  // The aggregate cap splits evenly across sources.
  const double per_source =
      options_.throttle_rate_per_sec / static_cast<double>(sources_.size());
  for (size_t i = 0; i < sources_.size(); ++i) {
    runtime::SourceTask* s = sources_[i];
    if (want_throttle) {
      buckets_[i]->SetRate(per_source, options_.throttle_burst);
    } else {
      buckets_[i]->SetRate(0, options_.throttle_burst);
      // A source parked on the old rate may hold a far-future wakeup;
      // re-check immediately now that the bucket admits everything.
      s->WakeUp();
    }
    DRRS_OBSERVE(
        graph_->sim(),
        OnThrottleChange(s->id(), want_throttle
                                      ? static_cast<int64_t>(per_source)
                                      : 0));
  }
}

void OverloadController::InstallGates() {
  for (runtime::Task* task : graph_->instances_of(op_)) {
    if (task->arrival_gate() != this) task->set_arrival_gate(this);
  }
}

void OverloadController::RecomputeColdThreshold() {
  if (key_heat_.empty()) {
    cold_threshold_ = 0;
    return;
  }
  // Quantile over the observed key heats: keys at or below the
  // cold_fraction-quantile are sheddable. The scan iterates an ordered map
  // and a sorted scratch vector, so the boundary is deterministic.
  std::vector<uint64_t> heats;
  heats.reserve(key_heat_.size());
  for (auto it = key_heat_.begin(); it != key_heat_.end();) {
    // Halve each tick so heat tracks recent traffic, dropping dead keys.
    it->second >>= 1;
    if (it->second == 0) {
      it = key_heat_.erase(it);
    } else {
      heats.push_back(it->second);
      ++it;
    }
  }
  if (heats.empty()) {
    cold_threshold_ = 0;
    return;
  }
  std::sort(heats.begin(), heats.end());
  double f = std::clamp(options_.cold_fraction, 0.0, 1.0);
  size_t idx = static_cast<size_t>(f * static_cast<double>(heats.size() - 1));
  cold_threshold_ = heats[idx];
}

bool OverloadController::AllSourcesExhausted() const {
  for (runtime::SourceTask* s : sources_) {
    if (!s->exhausted()) return false;
  }
  return true;
}

size_t OverloadController::OnArrivals(runtime::Task* task,
                                      net::Channel* channel, size_t appended) {
  const net::Channel::ElementQueue& queue = channel->input_queue();
  const size_t n = channel->input_queue_size();
  const size_t start = n - appended;

  if (options_.shed_policy == ShedPolicy::kColdestKeys) {
    // Heat accrues at every level so the policy has history by the time
    // shedding starts.
    for (size_t j = start; j < n; ++j) {
      const dataflow::StreamElement& e = queue[j];
      if (e.kind == dataflow::ElementKind::kRecord && !e.rerouted) {
        ++key_heat_[e.key];
      }
    }
  }
  if (level_ < PressureLevel::kShedding ||
      options_.shed_policy == ShedPolicy::kNone || channel->scaling_path()) {
    return appended;
  }

  // Policies other than drop-tail get a hard cap at twice the bound, so
  // every policy keeps queues bounded even when its criterion passes.
  const size_t hard_bound = options_.queue_bound * 2;
  uint64_t shed_count = 0;
  // Walk the fresh suffix newest-first: drop-tail sheds the newest records,
  // and erase positions stay valid for the not-yet-visited older part.
  for (size_t idx = n; idx-- > start;) {
    if (channel->input_queue_size() <= options_.queue_bound) break;
    const dataflow::StreamElement& e = queue[idx];
    // Only plain data records are sheddable: control messages, latency
    // markers and re-routed (mid-migration) records always pass.
    if (e.kind != dataflow::ElementKind::kRecord || e.rerouted) continue;
    bool shed = false;
    switch (options_.shed_policy) {
      case ShedPolicy::kNone:
        break;
      case ShedPolicy::kDropTail:
        shed = true;
        break;
      case ShedPolicy::kSeededRandom: {
        double overshoot =
            static_cast<double>(channel->input_queue_size() -
                                options_.queue_bound) /
            static_cast<double>(options_.queue_bound);
        shed = rng_.NextDouble() < std::min(1.0, overshoot);
        break;
      }
      case ShedPolicy::kColdestKeys:
        shed = key_heat_[e.key] <= cold_threshold_;
        break;
    }
    if (!shed && channel->input_queue_size() > hard_bound) shed = true;
    if (!shed) continue;
    // Conservation accounting first (the element must still be in the input
    // cache when the auditor marks it terminal), then the removal.
    DRRS_OBSERVE(task->simulator(), OnRecordShed(e, task->op(), task->id()));
    dataflow::StreamElement removed = channel->RemoveInputAt(idx);
    if (options_.record_shed_log) {
      shed_log_.push_back({task->id(), removed.key, removed.seq});
    }
    ++shed_count;
  }

  if (shed_count > 0) {
    records_shed_ += shed_count;
    metrics::OverloadMetrics& om = task->hub()->overload();
    om.records_shed += shed_count;
    switch (options_.shed_policy) {
      case ShedPolicy::kNone:
        break;
      case ShedPolicy::kDropTail:
        om.shed_drop_tail += shed_count;
        break;
      case ShedPolicy::kSeededRandom:
        om.shed_random += shed_count;
        break;
      case ShedPolicy::kColdestKeys:
        om.shed_cold_key += shed_count;
        break;
    }
    DRRS_OBSERVE(task->simulator(),
                 OnRecordsShed(task->id(), task->op(),
                               static_cast<int>(options_.shed_policy),
                               shed_count));
  }
  return appended - static_cast<size_t>(shed_count);
}

}  // namespace drrs::overload
