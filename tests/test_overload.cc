// Overload-control subsystem coverage: token-bucket and circuit-breaker
// units, the chunk-retry backoff cap boundary, fault-schedule validation,
// and flash-crowd integration — deterministic shedding across thread
// counts, bounded queues versus the monitor-only run, source throttling,
// and breaker-gated scale admission.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "harness/experiment.h"
#include "harness/json_summary.h"
#include "overload/circuit_breaker.h"
#include "overload/overload_controller.h"
#include "overload/token_bucket.h"
#include "scaling/core/state_transfer.h"
#include "workloads/workloads.h"

namespace drrs {
namespace {

using overload::CircuitBreaker;
using overload::OverloadOptions;
using overload::PressureLevel;
using overload::ShedPolicy;
using overload::TokenBucket;

// ---------------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------------

TEST(TokenBucket, DisabledAdmitsEverything) {
  TokenBucket bucket;
  sim::SimTime retry = 0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(bucket.AdmitRecord(i, &retry));
  }
  EXPECT_FALSE(bucket.active());
  EXPECT_EQ(bucket.admitted(), 0u);  // inactive bucket counts nothing
}

TEST(TokenBucket, EnforcesRateAfterBurst) {
  // 1000 rec/s = 1 token per ms, burst of 4.
  TokenBucket bucket(1000.0, 4.0);
  sim::SimTime retry = 0;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(bucket.AdmitRecord(0, &retry)) << i;
  }
  EXPECT_FALSE(bucket.AdmitRecord(0, &retry));
  EXPECT_GT(retry, 0);
  EXPECT_LE(retry, sim::Millis(1) + 1);
  // At the suggested retry time admission succeeds — no polling needed.
  EXPECT_TRUE(bucket.AdmitRecord(retry, &retry));
  EXPECT_EQ(bucket.admitted(), 5u);
  EXPECT_EQ(bucket.denied(), 1u);
}

TEST(TokenBucket, SteadyStateMatchesConfiguredRate) {
  TokenBucket bucket(2000.0, 1.0);
  sim::SimTime retry = 0;
  uint64_t admitted = 0;
  // Offer a record every 100 us for one simulated second (10000 offers at
  // 10000/s against a 2000/s cap).
  for (sim::SimTime t = 0; t < sim::Seconds(1); t += 100) {
    if (bucket.AdmitRecord(t, &retry)) ++admitted;
  }
  EXPECT_NEAR(static_cast<double>(admitted), 2000.0, 25.0);
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

CircuitBreaker::Policy BreakerPolicy() {
  CircuitBreaker::Policy p;
  p.enabled = true;
  p.failure_threshold = 2;
  p.open_backoff = sim::Millis(500);
  p.backoff_factor = 2.0;
  p.max_backoff = sim::Seconds(2);
  return p;
}

TEST(CircuitBreaker, DisabledNeverTrips) {
  CircuitBreaker breaker;  // default policy: disabled
  breaker.OnFailure(0);
  breaker.OnFailure(0);
  breaker.OnFailure(0);
  EXPECT_TRUE(breaker.Admit(0));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.opens(), 0u);
}

TEST(CircuitBreaker, OpensAtThresholdAndProbesAfterBackoff) {
  CircuitBreaker breaker(BreakerPolicy());
  EXPECT_TRUE(breaker.Admit(0));
  breaker.OnFailure(sim::Millis(10));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.OnFailure(sim::Millis(20));  // second consecutive failure: trips
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_EQ(breaker.retry_at(), sim::Millis(20) + sim::Millis(500));

  EXPECT_FALSE(breaker.Admit(sim::Millis(100)));
  EXPECT_EQ(breaker.rejections(), 1u);

  // First admit at/after retry_at passes as the half-open probe; a second
  // concurrent request is rejected while the probe is outstanding.
  EXPECT_TRUE(breaker.Admit(breaker.retry_at()));
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Admit(breaker.retry_at()));

  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Admit(sim::Seconds(1)));
}

TEST(CircuitBreaker, ProbeFailureDoublesBackoffUpToCap) {
  CircuitBreaker breaker(BreakerPolicy());
  sim::SimTime now = 0;
  breaker.OnFailure(now);
  breaker.OnFailure(now);  // open #1: backoff 500 ms
  EXPECT_EQ(breaker.retry_at() - now, sim::Millis(500));

  sim::SimTime expected[] = {sim::Millis(1000), sim::Millis(2000),
                             sim::Seconds(2), sim::Seconds(2)};
  for (sim::SimTime want : expected) {
    now = breaker.retry_at();
    EXPECT_TRUE(breaker.Admit(now));  // half-open probe
    breaker.OnFailure(now);           // probe fails: re-open, double backoff
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
    EXPECT_EQ(breaker.retry_at() - now, want);
  }
  EXPECT_EQ(breaker.opens(), 5u);

  // Success out of a later probe fully resets the backoff ladder.
  now = breaker.retry_at();
  EXPECT_TRUE(breaker.Admit(now));
  breaker.OnSuccess();
  breaker.OnFailure(now + 1);
  breaker.OnFailure(now + 2);
  EXPECT_EQ(breaker.retry_at() - (now + 2), sim::Millis(500));
}

// ---------------------------------------------------------------------------
// ChunkRetryBackoff: cap reached exactly, never overshot, no overflow.
// ---------------------------------------------------------------------------

TEST(ChunkRetryBackoff, DoublesAndSaturatesAtCapExactly) {
  scaling::ChunkRetryPolicy policy;  // base 20 ms, max 320 ms
  sim::SimTime expected[] = {sim::Millis(20),  sim::Millis(40),
                             sim::Millis(80),  sim::Millis(160),
                             sim::Millis(320), sim::Millis(320)};
  for (uint32_t attempt = 0; attempt < 6; ++attempt) {
    EXPECT_EQ(scaling::ChunkRetryBackoff(policy, attempt), expected[attempt])
        << "attempt " << attempt;
  }
  // The cap is attained exactly (not 640 ms truncated down, not 319 ms).
  EXPECT_EQ(scaling::ChunkRetryBackoff(policy, 4), policy.ack_timeout_max);
  EXPECT_EQ(scaling::ChunkRetryBackoff(policy, 1000), policy.ack_timeout_max);
}

TEST(ChunkRetryBackoff, UnevenCapIsNeverOvershot) {
  scaling::ChunkRetryPolicy policy;
  policy.ack_timeout_base = sim::Millis(20);
  policy.ack_timeout_max = sim::Millis(300);  // not a power-of-two multiple
  // 20, 40, 80, 160, then 300 exactly (320 would overshoot the cap).
  EXPECT_EQ(scaling::ChunkRetryBackoff(policy, 3), sim::Millis(160));
  EXPECT_EQ(scaling::ChunkRetryBackoff(policy, 4), sim::Millis(300));
  for (uint32_t attempt = 0; attempt < 64; ++attempt) {
    EXPECT_LE(scaling::ChunkRetryBackoff(policy, attempt),
              policy.ack_timeout_max);
  }
}

TEST(ChunkRetryBackoff, LargeAttemptCountsDoNotOverflow) {
  scaling::ChunkRetryPolicy policy;
  policy.ack_timeout_base = sim::Seconds(1);
  policy.ack_timeout_max = sim::kSimTimeMax;
  // The shift-based implementation went negative past attempt ~23; the
  // saturating ladder must stay positive and monotone for any attempt.
  sim::SimTime prev = 0;
  for (uint32_t attempt = 0; attempt < 128; ++attempt) {
    sim::SimTime b = scaling::ChunkRetryBackoff(policy, attempt);
    EXPECT_GT(b, 0) << "attempt " << attempt;
    EXPECT_GE(b, prev) << "attempt " << attempt;
    prev = b;
  }
  // Base above the cap: clamped immediately.
  policy.ack_timeout_base = sim::Seconds(10);
  policy.ack_timeout_max = sim::Seconds(5);
  EXPECT_EQ(scaling::ChunkRetryBackoff(policy, 0), sim::Seconds(5));
  EXPECT_EQ(scaling::ChunkRetryBackoff(policy, 9), sim::Seconds(5));
}

// ---------------------------------------------------------------------------
// FaultSchedule::Validate
// ---------------------------------------------------------------------------

TEST(FaultScheduleValidate, DefaultAndTypicalSchedulesPass) {
  fault::FaultSchedule schedule;
  EXPECT_TRUE(schedule.Validate().ok());

  schedule.chunk.drop_rate = 0.25;
  schedule.chunk.max_drops = 16;
  schedule.links.push_back({/*from=*/1, /*to=*/2, sim::Seconds(1),
                            sim::Seconds(2)});
  schedule.crashes.push_back({/*op=*/0, /*subtask=*/0, sim::Seconds(3),
                              sim::Millis(50)});
  schedule.checkpoints.push_back(sim::Seconds(1));
  EXPECT_TRUE(schedule.Validate().ok());
}

TEST(FaultScheduleValidate, RejectsOutOfRangeRates) {
  fault::FaultSchedule schedule;
  schedule.chunk.drop_rate = 1.5;
  Status st = schedule.Validate();
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.ToString().find("probabilities"), std::string::npos);
}

TEST(FaultScheduleValidate, RejectsZeroCapacityDropCap) {
  fault::FaultSchedule schedule;
  schedule.chunk.drop_rate = 0.5;
  schedule.chunk.max_drops = 0;
  Status st = schedule.Validate();
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.ToString().find("max_drops"), std::string::npos);
}

TEST(FaultScheduleValidate, RejectsInvertedWindows) {
  fault::FaultSchedule schedule;
  schedule.chunk.from = sim::Seconds(10);
  schedule.chunk.until = sim::Seconds(5);
  EXPECT_EQ(schedule.Validate().code(), Status::Code::kInvalidArgument);

  schedule = {};
  schedule.links.push_back({/*from=*/1, /*to=*/2,
                            /*partition_at=*/sim::Seconds(2),
                            /*heal_at=*/sim::Seconds(1)});
  Status st = schedule.Validate();
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.ToString().find("heal"), std::string::npos);
}

TEST(FaultScheduleValidate, RejectsOverlappingPartitionWindows) {
  fault::FaultSchedule schedule;
  schedule.links.push_back({1, 2, sim::Seconds(1), sim::Seconds(3)});
  schedule.links.push_back({1, 2, sim::Seconds(2), sim::Seconds(4)});
  Status st = schedule.Validate();
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.ToString().find("overlapping"), std::string::npos);

  // Same windows on a different directed link are fine.
  schedule.links[1].to = 3;
  EXPECT_TRUE(schedule.Validate().ok());
}

TEST(FaultScheduleValidate, RejectsNegativeTimesAndNonRecovery) {
  fault::FaultSchedule schedule;
  schedule.crashes.push_back({0, 0, /*at=*/-sim::Seconds(1), sim::Millis(50)});
  EXPECT_EQ(schedule.Validate().code(), Status::Code::kInvalidArgument);

  schedule = {};
  schedule.crashes.push_back({0, 0, sim::Seconds(1), /*recover_after=*/0});
  EXPECT_EQ(schedule.Validate().code(), Status::Code::kInvalidArgument);

  schedule = {};
  schedule.checkpoints.push_back(-1);
  EXPECT_EQ(schedule.Validate().code(), Status::Code::kInvalidArgument);

  schedule = {};
  schedule.links.push_back({1, 2, /*partition_at=*/-1, /*heal_at=*/-1,
                            /*bandwidth_factor=*/1.5, sim::Seconds(1),
                            sim::Seconds(2)});
  Status st = schedule.Validate();
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.ToString().find("bandwidth_factor"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Flash-crowd integration. A scaled-down crowd (capacity 5000 rec/s,
// surge 7500 rec/s over [3 s, 8 s)) keeps each run under a second.
// ---------------------------------------------------------------------------

workloads::WorkloadSpec CrowdWorkload() {
  workloads::FlashCrowdParams p;
  p.events_per_second = 1500;
  p.surge_factor = 5.0;  // 7500/s vs 5000/s capacity
  p.surge_at = sim::Seconds(3);
  p.surge_until = sim::Seconds(8);
  p.duration = sim::Seconds(10);
  return workloads::BuildFlashCrowdWorkload(p);
}

OverloadOptions CrowdOptions(ShedPolicy policy) {
  OverloadOptions o;
  o.enabled = true;
  o.backpressure_threshold = 400;
  o.shed_threshold = 800;
  o.throttle_threshold = 1600;
  o.queue_bound = 400;
  o.shed_policy = policy;
  o.record_shed_log = true;
  return o;
}

harness::ExperimentConfig CrowdConfig() {
  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.engine.check_invariants = false;
  c.engine.net.input_buffer_capacity = 1u << 20;
  return c;
}

TEST(OverloadIntegration, MonitorOnlyControllerActsAsDisabled) {
  harness::ExperimentConfig c = CrowdConfig();
  c.overload = CrowdOptions(ShedPolicy::kNone);
  c.overload.backpressure_threshold = 1u << 30;
  c.overload.shed_threshold = 1u << 30;
  c.overload.throttle_threshold = 1u << 30;
  auto r = harness::RunExperiment(CrowdWorkload(), c);
  // The surge outruns capacity by ~2500/s for 5 s: without controls the
  // backlog grows into the tens of thousands.
  EXPECT_GT(r.overload.peak_input_backlog, 8000u);
  EXPECT_EQ(r.overload.records_shed, 0u);
  EXPECT_EQ(r.overload.throttle_activations, 0u);
  EXPECT_TRUE(r.shed_log.empty());
  EXPECT_EQ(r.final_pressure, PressureLevel::kOk);
  EXPECT_EQ(r.sink_records, r.source_records);  // every record survives
}

TEST(OverloadIntegration, SheddingBoundsQueuesAndAuditsCleanly) {
  harness::ExperimentConfig base = CrowdConfig();
  auto monitor = base;
  monitor.overload = CrowdOptions(ShedPolicy::kNone);
  monitor.overload.backpressure_threshold = 1u << 30;
  monitor.overload.shed_threshold = 1u << 30;
  monitor.overload.throttle_threshold = 1u << 30;
  auto unbounded = harness::RunExperiment(CrowdWorkload(), monitor);

  for (ShedPolicy policy : {ShedPolicy::kDropTail, ShedPolicy::kSeededRandom,
                            ShedPolicy::kColdestKeys}) {
    harness::ExperimentConfig c = base;
    c.overload = CrowdOptions(policy);
    auto r = harness::RunExperiment(CrowdWorkload(), c);
    SCOPED_TRACE(overload::ShedPolicyName(policy));
    EXPECT_GT(r.overload.records_shed, 0u);
    EXPECT_EQ(r.overload.records_shed, r.shed_log.size());
    // Bounded degraded state: far below the uncontrolled peak, and within
    // a small multiple of the configured bound (2 channels, hard cap 2x).
    EXPECT_LT(r.overload.peak_input_backlog,
              unbounded.overload.peak_input_backlog / 3);
    EXPECT_LT(r.overload.peak_input_backlog, 6 * c.overload.queue_bound);
    // Kept records ledger: sink + shed accounts for every data record.
    EXPECT_EQ(r.sink_records + r.overload.records_shed, r.source_records);
    EXPECT_EQ(r.final_pressure, PressureLevel::kOk);  // crowd passed
#if DRRS_OBSERVE_BUILD
    EXPECT_TRUE(r.audit.enabled);
    EXPECT_TRUE(r.audit.violations.empty())
        << r.audit.violations.front().message;
    EXPECT_EQ(r.audit.records_shed, r.overload.records_shed);
#endif
  }
}

TEST(OverloadIntegration, ShedDecisionsIdenticalAcrossSameSeedRuns) {
  for (ShedPolicy policy : {ShedPolicy::kDropTail, ShedPolicy::kSeededRandom,
                            ShedPolicy::kColdestKeys}) {
    SCOPED_TRACE(overload::ShedPolicyName(policy));
    harness::ExperimentConfig c = CrowdConfig();
    c.overload = CrowdOptions(policy);
    auto a = harness::RunExperiment(CrowdWorkload(), c);
    auto b = harness::RunExperiment(CrowdWorkload(), c);
    ASSERT_FALSE(a.shed_log.empty());
    EXPECT_EQ(a.shed_log, b.shed_log);
    // Byte-identical machine summary, not merely equal counters.
    EXPECT_EQ(harness::JsonSummary(a), harness::JsonSummary(b));
  }
}

TEST(OverloadIntegration, IdleSubsystemIsByteIdenticalAcrossSameSeedRuns) {
  // All-defaults OverloadOptions construct nothing; the whole run must stay
  // byte-for-byte identical from one run of the seed to the next.
  auto a = harness::RunExperiment(CrowdWorkload(), CrowdConfig());
  auto b = harness::RunExperiment(CrowdWorkload(), CrowdConfig());
  EXPECT_FALSE(a.overload.any());
  EXPECT_EQ(harness::JsonSummary(a), harness::JsonSummary(b));
}

TEST(OverloadIntegration, ThrottleCapsIngestWithoutDroppingRecords) {
  harness::ExperimentConfig c = CrowdConfig();
  c.overload = CrowdOptions(ShedPolicy::kNone);
  c.overload.throttle_rate_per_sec = 3000;
  auto r = harness::RunExperiment(CrowdWorkload(), c);
  EXPECT_GE(r.overload.throttle_activations, 1u);
  EXPECT_EQ(r.overload.records_shed, 0u);
  // Bounded: the throttle engages one sample tick past the threshold.
  EXPECT_LT(r.overload.peak_input_backlog, 2 * c.overload.throttle_threshold);
  EXPECT_EQ(r.sink_records, r.source_records);  // delayed, never dropped
  EXPECT_GT(r.hub->scaling().ThrottledTime(), 0);
  EXPECT_EQ(r.final_pressure, PressureLevel::kOk);
}

TEST(OverloadIntegration, PressureGateRejectsScaleAdmissionMidSurge) {
  harness::ExperimentConfig c = CrowdConfig();
  c.overload = CrowdOptions(ShedPolicy::kNone);
  // Cap at exactly the operator capacity: the backlog stops growing but
  // never drains while the surge lasts, parking the ladder at kThrottled.
  c.overload.throttle_rate_per_sec = 5000;
  c.system = harness::SystemKind::kDrrs;
  c.scale_at = sim::Seconds(6);  // mid-surge: pressure is at kThrottled
  c.target_parallelism = 3;
  c.scale_breaker.enabled = true;
  auto r = harness::RunExperiment(CrowdWorkload(), c);
  EXPECT_GE(r.overload.breaker_rejections, 1u);
  EXPECT_EQ(r.transfers.total_transfers, 0u);  // the rescale never ran
  EXPECT_EQ(r.mechanism_duration, 0);
}

}  // namespace
}  // namespace drrs
