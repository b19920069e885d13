// Tests for the src/fault subsystem and the self-healing machinery it
// exercises: per-chunk ack/retransmission in StateTransfer, the
// scale-abort-and-retry watchdog in ScaleService, and task crash/recovery
// from checkpoints.
//
// Three layers:
//  1. Targeted fault tests seed exactly one fault class (chunk drop,
//     duplicate, delay, link partition, task crash) and assert the matching
//     recovery path fires and the run still completes with every record
//     accounted for.
//  2. Control-plane tests drive the watchdog: a deadline abort followed by
//     a successful retry, budget exhaustion degrading to a logged
//     cancellation, and state installs re-arming the deadline.
//  3. A chaos matrix runs every scaling mechanism against every fault class
//     under the invariant audit (DRRS_OBSERVE builds) and asserts zero
//     violations — recovery must be invisible to the correctness checks.

#include <gtest/gtest.h>

#include "fault/fault_injector.h"
#include "harness/experiment.h"
#include "verify/auditor.h"
#include "workloads/workloads.h"

namespace drrs::fault {
namespace {

namespace sim = drrs::sim;

// Same scaled-down pipeline the audit clean-run suite uses: 2 sources,
// 4->6 aggregators, 1 sink, 30 s of input, run to completion.
workloads::CustomParams PipelineParams() {
  workloads::CustomParams p;
  p.events_per_second = 2000;
  p.num_keys = 1000;
  p.duration = sim::Seconds(30);
  p.record_cost = sim::Micros(150);
  p.source_parallelism = 2;
  p.agg_parallelism = 4;
  p.sink_parallelism = 1;
  p.num_key_groups = 32;
  p.state_bytes_per_key = 2048;
  return p;
}

harness::ExperimentConfig BaseConfig(harness::SystemKind kind) {
  harness::ExperimentConfig c;
  c.system = kind;
  c.target_parallelism = 6;
  c.scale_at = sim::Seconds(10);
  c.restab_hold = sim::Seconds(5);
  // horizon 0: run to completion so conservation leak checks are armed and
  // sink totals are comparable across runs.
  return c;
}

harness::ExperimentResult RunPipeline(const harness::ExperimentConfig& config) {
  return harness::RunExperiment(
      workloads::BuildCustomWorkload(PipelineParams()), config);
}

void ExpectAuditClean(const harness::ExperimentResult& r,
                      bool mechanism_guarantees_order) {
#if DRRS_OBSERVE_BUILD
  ASSERT_TRUE(r.audit.enabled);
  ASSERT_TRUE(r.audit.finalized);
  EXPECT_EQ(r.audit.CountOf(verify::AuditCheck::kConservation), 0u)
      << r.audit.Summary();
  EXPECT_EQ(r.audit.CountOf(verify::AuditCheck::kProtocol), 0u)
      << r.audit.Summary();
  EXPECT_EQ(r.audit.CountOf(verify::AuditCheck::kDeterminism), 0u)
      << r.audit.Summary();
  if (mechanism_guarantees_order) {
    EXPECT_EQ(r.audit.CountOf(verify::AuditCheck::kOrdering), 0u)
        << r.audit.Summary();
  }
  EXPECT_EQ(r.audit.dropped_violations, 0u);
#else
  (void)r;
  (void)mechanism_guarantees_order;
#endif
}

// ---------------------------------------------------------------------------
// Schedule basics
// ---------------------------------------------------------------------------

TEST(FaultSchedule, DefaultsAreInert) {
  FaultSchedule s;
  EXPECT_FALSE(s.any());
  EXPECT_FALSE(s.chunk.any());
  s.chunk.drop_rate = 0.1;
  EXPECT_TRUE(s.any());
}

TEST(FaultSchedule, EmptyScheduleLeavesTraceBitIdentical) {
  // A schedule with any() == false must not perturb the run at all: the
  // harness doesn't even construct the injector, and the trace matches a
  // config that never mentioned faults.
  harness::ExperimentConfig plain = BaseConfig(harness::SystemKind::kDrrs);
  harness::ExperimentResult a = RunPipeline(plain);

  harness::ExperimentConfig with_schedule = plain;
  with_schedule.faults = FaultSchedule{};  // explicit, still inert
  harness::ExperimentResult b = RunPipeline(with_schedule);

  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.sink_records, b.sink_records);
  EXPECT_FALSE(a.recovery.any());
  EXPECT_FALSE(b.recovery.any());
}

// ---------------------------------------------------------------------------
// Chunk faults + ack/retransmission recovery
// ---------------------------------------------------------------------------

TEST(ChunkFaults, DroppedChunksAreRetransmittedAndInstalled) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  c.faults.seed = 7;
  c.faults.chunk.drop_rate = 0.25;
  c.faults.chunk.max_drops = 6;
  c.chunk_retry.enabled = true;
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_GT(r.recovery.chunks_dropped, 0u);
  EXPECT_GE(r.recovery.chunk_retransmits, r.recovery.chunks_dropped);
  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
#if DRRS_OBSERVE_BUILD
  EXPECT_EQ(r.audit.chunks_lost, r.recovery.chunks_dropped);
  EXPECT_EQ(r.audit.chunks_retransmitted, r.recovery.chunk_retransmits);
#endif
}

TEST(ChunkFaults, DuplicatedChunksAreSuppressedAtInstall) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  c.faults.seed = 11;
  c.faults.chunk.duplicate_rate = 0.5;
  c.chunk_retry.enabled = true;  // idempotent-install bookkeeping lives here
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_GT(r.recovery.chunks_duplicated, 0u);
  EXPECT_GT(r.recovery.duplicate_installs_suppressed, 0u);
  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
}

TEST(ChunkFaults, DelayedChunksOnlyStretchTheTransfer) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  c.faults.seed = 13;
  c.faults.chunk.delay_rate = 0.5;
  c.faults.chunk.delay = sim::Millis(5);
  c.chunk_retry.enabled = true;
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_GT(r.recovery.chunks_delayed, 0u);
  EXPECT_EQ(r.recovery.chunks_dropped, 0u);
  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
}

// ---------------------------------------------------------------------------
// Link partition + heal
// ---------------------------------------------------------------------------

TEST(LinkFaults, PartitionHealsAndEveryRecordArrives) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  // Instance ids are assigned in operator order: sources 0-1, aggregators
  // 2-5, sink 6. Partition source 0 -> aggregator 0 for 500 ms mid-run.
  FaultSchedule::LinkFault link;
  link.from = 0;
  link.to = 2;
  link.partition_at = sim::Seconds(5);
  link.heal_at = sim::Seconds(5) + sim::Millis(500);
  c.faults.links.push_back(link);
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_EQ(r.recovery.links_partitioned, 1u);
  EXPECT_EQ(r.recovery.links_healed, 1u);
  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
}

TEST(LinkFaults, DegradedBandwidthStillDelivers) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  FaultSchedule::LinkFault link;
  link.from = 0;
  link.to = 2;
  link.bandwidth_factor = 0.25;
  link.degrade_from = sim::Seconds(5);
  link.degrade_until = sim::Seconds(8);
  c.faults.links.push_back(link);
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
}

// ---------------------------------------------------------------------------
// Task crash + checkpoint recovery
// ---------------------------------------------------------------------------

TEST(CrashFaults, CrashedTaskRecoversFromCheckpointAndReplays) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  c.faults.checkpoints.push_back(sim::Seconds(5));
  FaultSchedule::CrashFault crash;
  crash.op = 1;        // the aggregator operator
  crash.subtask = 1;
  crash.at = sim::Seconds(7);
  crash.recover_after = sim::Millis(50);
  c.faults.crashes.push_back(crash);
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_EQ(r.recovery.crashes_injected, 1u);
  EXPECT_EQ(r.recovery.crash_recoveries, 1u);
  // The crash lands mid-stream on a hot operator: its input queue survives
  // and replays in place, so no record is lost.
  EXPECT_GT(r.recovery.replayed_elements, 0u);
  EXPECT_EQ(r.sink_records, r.source_records);
  EXPECT_EQ(r.invariants.state_miss_processing, 0u);
  ExpectAuditClean(r, true);
}

TEST(CrashFaults, CrashWithoutCheckpointRecoversEmpty) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  FaultSchedule::CrashFault crash;
  crash.op = 1;
  crash.subtask = 0;
  crash.at = sim::Seconds(3);
  c.faults.crashes.push_back(crash);
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_EQ(r.recovery.crash_recoveries, 1u);
  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
}

// ---------------------------------------------------------------------------
// Scale-abort-and-retry watchdog
// ---------------------------------------------------------------------------

TEST(ScaleRetry, DeadlineAbortThenRetryCompletes) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  // A deadline far shorter than any real migration forces the first attempt
  // to abort. The abort rolls ownership forward, so the retry admits a
  // near-empty plan and completes within the same budget.
  c.scale_retry.enabled = true;
  c.scale_retry.progress_deadline = sim::Millis(1);
  c.scale_retry.abort_grace = sim::Millis(5);
  c.scale_retry.retry_backoff = sim::Millis(100);
  c.scale_retry.max_attempts = 3;
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_GE(r.recovery.scale_aborts, 1u);
  EXPECT_GE(r.recovery.scale_retries, 1u);
  EXPECT_EQ(r.recovery.scale_cancellations, 0u);
  // Measured from the first attempt's start, not the near-empty retry's.
  EXPECT_GT(r.mechanism_duration, 0);
  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
}

TEST(ScaleRetry, ExhaustedBudgetCancelsThePlan) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  c.scale_retry.enabled = true;
  c.scale_retry.progress_deadline = sim::Millis(1);
  c.scale_retry.abort_grace = sim::Millis(5);
  c.scale_retry.max_attempts = 0;  // no retries: first deadline cancels
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_EQ(r.recovery.scale_cancellations, 1u);
  EXPECT_EQ(r.recovery.scale_retries, 0u);
  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
}

TEST(ScaleRetry, GenerousDeadlineNeverFires) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  c.scale_retry.enabled = true;
  c.scale_retry.progress_deadline = sim::Seconds(60);
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_EQ(r.recovery.scale_aborts, 0u);
  EXPECT_EQ(r.recovery.scale_retries, 0u);
  EXPECT_EQ(r.recovery.scale_cancellations, 0u);
  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
}

TEST(ScaleRetry, InstallProgressReArmsTheDeadline) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  // This migration has state on the wire from ~0.5 ms and finishes at
  // ~7.4 ms. The 5 ms deadline expires mid-transfer: chunks were installed
  // since the deadline was armed, so the watchdog re-arms instead of
  // aborting, and the second deadline finds it done.
  c.scale_retry.enabled = true;
  c.scale_retry.progress_deadline = sim::Millis(5);
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_GT(r.mechanism_duration, c.scale_retry.progress_deadline);
  EXPECT_LT(r.mechanism_duration, 2 * c.scale_retry.progress_deadline);
  EXPECT_EQ(r.recovery.scale_aborts, 0u);
  EXPECT_EQ(r.recovery.scale_retries, 0u);
  EXPECT_EQ(r.recovery.scale_cancellations, 0u);
  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
}

TEST(ScaleRetry, UnitByUnitMigrationKeepsReArming) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kMegaphone);
  // Megaphone moves one key-group at a time for ~42 ms, installing a unit
  // about every millisecond. Each 8 ms deadline finds new installs, so the
  // migration is never aborted although it outlasts five deadlines.
  c.scale_retry.enabled = true;
  c.scale_retry.progress_deadline = sim::Millis(8);
  harness::ExperimentResult r = RunPipeline(c);

  EXPECT_GT(r.mechanism_duration, 4 * c.scale_retry.progress_deadline);
  EXPECT_EQ(r.recovery.scale_aborts, 0u);
  EXPECT_EQ(r.recovery.scale_retries, 0u);
  EXPECT_EQ(r.recovery.scale_cancellations, 0u);
  EXPECT_EQ(r.sink_records, r.source_records);
  ExpectAuditClean(r, true);
}

// ---------------------------------------------------------------------------
// Determinism: same schedule, same seed => same trace
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, SameSeedReproducesFaultsAndRecovery) {
  harness::ExperimentConfig c = BaseConfig(harness::SystemKind::kDrrs);
  c.faults.seed = 42;
  c.faults.chunk.drop_rate = 0.25;
  c.faults.chunk.duplicate_rate = 0.2;
  c.faults.chunk.max_drops = 6;
  c.chunk_retry.enabled = true;
  c.faults.checkpoints.push_back(sim::Seconds(5));
  FaultSchedule::CrashFault crash;
  crash.op = 1;
  crash.subtask = 2;
  crash.at = sim::Seconds(7);
  c.faults.crashes.push_back(crash);

  harness::ExperimentResult a = RunPipeline(c);
  harness::ExperimentResult b = RunPipeline(c);

  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.sink_records, b.sink_records);
  EXPECT_EQ(a.recovery.chunks_dropped, b.recovery.chunks_dropped);
  EXPECT_EQ(a.recovery.chunk_retransmits, b.recovery.chunk_retransmits);
  EXPECT_EQ(a.recovery.chunks_duplicated, b.recovery.chunks_duplicated);
  EXPECT_EQ(a.recovery.replayed_elements, b.recovery.replayed_elements);
}

// ---------------------------------------------------------------------------
// Chaos matrix: every mechanism x every fault class, audit-clean
// ---------------------------------------------------------------------------

enum class FaultClass {
  kChunkLoss,
  kLinkPartition,
  kTaskCrash,
  kChunkChaosWithCrash
};

const char* FaultClassName(FaultClass f) {
  switch (f) {
    case FaultClass::kChunkLoss:
      return "chunk-loss";
    case FaultClass::kLinkPartition:
      return "link-partition";
    case FaultClass::kTaskCrash:
      return "task-crash";
    case FaultClass::kChunkChaosWithCrash:
      return "chunk-chaos+crash";
  }
  return "?";
}

void RunChaosCell(harness::SystemKind kind, FaultClass fault) {
  harness::ExperimentConfig c = BaseConfig(kind);
  switch (fault) {
    case FaultClass::kChunkLoss:
      // No-op for mechanisms that never put chunks on the wire
      // (stop-restart moves state at a frozen instant) — still a valid
      // matrix cell: the recovery machinery must not misfire either.
      c.faults.seed = 1000 + static_cast<uint64_t>(kind);
      c.faults.chunk.drop_rate = 0.25;
      c.faults.chunk.duplicate_rate = 0.1;
      c.faults.chunk.max_drops = 6;
      c.chunk_retry.enabled = true;
      break;
    case FaultClass::kLinkPartition: {
      FaultSchedule::LinkFault link;
      link.from = 0;
      link.to = 2;
      link.partition_at = sim::Seconds(5);
      link.heal_at = sim::Seconds(5) + sim::Millis(500);
      c.faults.links.push_back(link);
      break;
    }
    case FaultClass::kTaskCrash: {
      c.faults.checkpoints.push_back(sim::Seconds(5));
      FaultSchedule::CrashFault crash;
      crash.op = 1;
      crash.subtask = 1;
      crash.at = sim::Seconds(7);
      c.faults.crashes.push_back(crash);
      break;
    }
    case FaultClass::kChunkChaosWithCrash: {
      // Everything at once: lossy+duplicating+laggy wire for state chunks
      // *and* a task crash mid-run. Exercises the batched delivery path
      // under the least friendly conditions — recovery traffic interleaved
      // with crash replay — and must still be audit-clean.
      c.faults.seed = 2000 + static_cast<uint64_t>(kind);
      c.faults.chunk.drop_rate = 0.2;
      c.faults.chunk.duplicate_rate = 0.1;
      c.faults.chunk.delay_rate = 0.3;
      c.faults.chunk.delay = sim::Millis(2);
      c.faults.chunk.max_drops = 6;
      c.chunk_retry.enabled = true;
      c.faults.checkpoints.push_back(sim::Seconds(5));
      FaultSchedule::CrashFault crash;
      crash.op = 1;
      crash.subtask = 1;
      crash.at = sim::Seconds(7);
      c.faults.crashes.push_back(crash);
      break;
    }
  }
  harness::ExperimentResult r = RunPipeline(c);
  SCOPED_TRACE(std::string(harness::SystemName(kind)) + " x " +
               FaultClassName(fault));
  // Meces preserves exactly-once but not execution order (Section II-B).
  bool guarantees_order = kind != harness::SystemKind::kMeces;
  ExpectAuditClean(r, guarantees_order);
  EXPECT_EQ(r.sink_records, r.source_records);
  if (fault == FaultClass::kLinkPartition) {
    EXPECT_EQ(r.recovery.links_healed, 1u);
  }
  if (fault == FaultClass::kTaskCrash ||
      fault == FaultClass::kChunkChaosWithCrash) {
    EXPECT_EQ(r.recovery.crash_recoveries, 1u);
  }
}

class ChaosMatrix : public ::testing::TestWithParam<harness::SystemKind> {};

TEST_P(ChaosMatrix, ChunkLoss) {
  RunChaosCell(GetParam(), FaultClass::kChunkLoss);
}

TEST_P(ChaosMatrix, LinkPartition) {
  RunChaosCell(GetParam(), FaultClass::kLinkPartition);
}

TEST_P(ChaosMatrix, TaskCrash) {
  RunChaosCell(GetParam(), FaultClass::kTaskCrash);
}

TEST_P(ChaosMatrix, ChunkChaosWithCrash) {
  RunChaosCell(GetParam(), FaultClass::kChunkChaosWithCrash);
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, ChaosMatrix,
    ::testing::Values(harness::SystemKind::kDrrs, harness::SystemKind::kMeces,
                      harness::SystemKind::kOtfsFluid,
                      harness::SystemKind::kUnbound,
                      harness::SystemKind::kStopRestart),
    [](const ::testing::TestParamInfo<harness::SystemKind>& info) {
      std::string name = harness::SystemName(info.param);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace drrs::fault
