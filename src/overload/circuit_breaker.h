#ifndef DRRS_OVERLOAD_CIRCUIT_BREAKER_H_
#define DRRS_OVERLOAD_CIRCUIT_BREAKER_H_

#include <cstdint>

#include "sim/sim_time.h"

namespace drrs::overload {

/// \brief Simulated-time circuit breaker for scale-operation admission.
///
/// The classic three-state machine, driven entirely by the virtual clock so
/// runs stay bit-identical across runs of the same seed:
///
///   Closed    — requests admitted; consecutive failures are counted.
///   Open      — requests rejected until `retry_at()`; each re-opening
///               doubles the backoff (capped at `max_backoff`).
///   Half-open — the first Admit() at/after `retry_at()` passes as a probe;
///               its success closes the breaker (and resets the backoff),
///               its failure re-opens with the next-larger backoff.
///
/// The breaker itself never schedules events: callers ask `Admit(now)` and,
/// when rejected, may re-ask at `retry_at()`. That keeps an idle breaker
/// invisible in the event schedule (bit-identity when unused).
class CircuitBreaker {
 public:
  enum class State : uint8_t { kClosed = 0, kOpen, kHalfOpen };

  struct Policy {
    bool enabled = false;
    /// Consecutive failures that trip Closed -> Open.
    uint32_t failure_threshold = 2;
    /// First Open-state backoff; doubles (x `backoff_factor`) per re-open.
    sim::SimTime open_backoff = sim::Millis(500);
    double backoff_factor = 2.0;
    sim::SimTime max_backoff = sim::Seconds(10);
  };

  CircuitBreaker() = default;
  explicit CircuitBreaker(const Policy& policy) : policy_(policy) {}

  /// Whether a request may proceed at simulated time `now`. In the Open
  /// state the first call at/after `retry_at()` transitions to Half-open and
  /// is admitted as the probe; later calls while the probe is outstanding
  /// are rejected.
  bool Admit(sim::SimTime now) {
    if (!policy_.enabled) return true;
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen:
        if (now >= retry_at_) {
          state_ = State::kHalfOpen;
          return true;
        }
        ++rejections_;
        return false;
      case State::kHalfOpen:
        // One probe in flight; everything else waits for its verdict.
        ++rejections_;
        return false;
    }
    return true;
  }

  /// An admitted request completed successfully: close and reset.
  void OnSuccess() {
    if (!policy_.enabled) return;
    state_ = State::kClosed;
    consecutive_failures_ = 0;
    current_backoff_ = 0;
  }

  /// An admitted request failed (scale abort, deadline overrun). In the
  /// Closed state this counts toward the threshold; a Half-open probe
  /// failure re-opens immediately with a doubled backoff.
  void OnFailure(sim::SimTime now) {
    if (!policy_.enabled) return;
    if (state_ == State::kHalfOpen) {
      Open(now);
      return;
    }
    ++consecutive_failures_;
    if (state_ == State::kClosed &&
        consecutive_failures_ >= policy_.failure_threshold) {
      Open(now);
    }
  }

  State state() const { return policy_.enabled ? state_ : State::kClosed; }
  /// Earliest simulated time an Open breaker admits a half-open probe.
  sim::SimTime retry_at() const { return retry_at_; }
  uint64_t opens() const { return opens_; }
  uint64_t rejections() const { return rejections_; }

 private:
  void Open(sim::SimTime now) {
    state_ = State::kOpen;
    consecutive_failures_ = 0;
    current_backoff_ =
        current_backoff_ <= 0
            ? policy_.open_backoff
            : static_cast<sim::SimTime>(static_cast<double>(current_backoff_) *
                                        policy_.backoff_factor);
    if (current_backoff_ > policy_.max_backoff) {
      current_backoff_ = policy_.max_backoff;
    }
    retry_at_ = now + current_backoff_;
    ++opens_;
  }

  Policy policy_;
  State state_ = State::kClosed;
  uint32_t consecutive_failures_ = 0;
  sim::SimTime current_backoff_ = 0;
  sim::SimTime retry_at_ = 0;
  uint64_t opens_ = 0;
  uint64_t rejections_ = 0;
};

}  // namespace drrs::overload

#endif  // DRRS_OVERLOAD_CIRCUIT_BREAKER_H_
