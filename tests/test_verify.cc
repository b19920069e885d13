// Tests for the verify subsystem: the always-on InvariantMonitor and the
// verify::Auditor invariant audit.
//
// Three layers:
//  1. Unit tests drive the InvariantMonitor and the Auditor's hooks directly
//     and check that each invariant family (order, conservation, protocol,
//     determinism) accepts legal sequences and rejects illegal ones, the
//     audit with actionable diagnostics.
//  2. Fault-injection tests run the real engine (channels, rails,
//     StateTransfer, ScaleContext) and seed one fault each — a dropped,
//     duplicated or reordered state chunk — asserting the auditor catches
//     it. These need the hook sites of a DRRS_OBSERVE build and are skipped
//     otherwise.
//  3. Clean-run tests execute every scaling mechanism end-to-end through
//     RunExperiment and assert the audit report is free of violations
//     (modulo each mechanism's documented guarantees).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "expect_audit_clean.h"
#include "harness/experiment.h"
#include "scaling/core/scale_context.h"
#include "sim/simulator.h"
#include "verify/auditor.h"
#include "verify/invariants.h"
#include "workloads/workloads.h"

namespace drrs::verify {
namespace {

using dataflow::ElementKind;
using dataflow::StreamElement;

bool AnyMessageContains(const Auditor& a, const std::string& needle) {
  for (const Violation& v : a.violations()) {
    if (v.message.find(needle) != std::string::npos) return true;
  }
  return false;
}

StreamElement Record(dataflow::KeyT key, dataflow::InstanceId from) {
  StreamElement e;
  e.kind = ElementKind::kRecord;
  e.key = key;
  e.from_instance = from;
  return e;
}

StreamElement Chunk(uint64_t transfer_id, dataflow::ScaleId scale,
                    dataflow::SubscaleId subscale = 0,
                    dataflow::KeyGroupId kg = 0) {
  StreamElement e;
  e.kind = ElementKind::kStateChunk;
  e.seq = transfer_id;
  e.scale_id = scale;
  e.subscale_id = subscale;
  e.key_group = kg;
  return e;
}

// ---------------------------------------------------------------------------
// Conservation
// ---------------------------------------------------------------------------

TEST(AuditConservation, CleanLifecyclePasses) {
  Auditor a;
  StreamElement r = Record(7, 1);
  a.OnElementPushed(&r);
  EXPECT_GT(r.audit_id, 0u);  // identity assigned on first push
  a.OnElementTransmitted(r);
  a.OnElementDelivered(r, 1, 1, 8, 2);
  a.OnRecordProcessed(r, 1, 2);
  a.Finalize();
  EXPECT_TRUE(a.clean()) << a.Report().Summary();
  EXPECT_EQ(a.Report().records_tracked, 1u);
  EXPECT_EQ(a.Report().records_processed, 1u);
}

TEST(AuditConservation, DetectsDuplicateProcessing) {
  Auditor a;
  StreamElement r = Record(7, 1);
  a.OnElementPushed(&r);
  a.OnElementTransmitted(r);
  a.OnElementDelivered(r, 1, 1, 8, 2);
  a.OnRecordProcessed(r, 1, 2);
  a.OnRecordProcessed(r, 1, 3);  // fault: replayed to a second instance
  EXPECT_EQ(a.CountOf(AuditCheck::kConservation), 1u);
  EXPECT_TRUE(AnyMessageContains(a, "processed twice"));
}

TEST(AuditConservation, DetectsDuplicatePush) {
  Auditor a;
  StreamElement r = Record(7, 1);
  a.OnElementPushed(&r);
  a.OnElementTransmitted(r);  // on the wire...
  a.OnElementPushed(&r);      // ...and pushed again: duplication
  EXPECT_EQ(a.CountOf(AuditCheck::kConservation), 1u);
  EXPECT_TRUE(AnyMessageContains(a, "re-pushed"));
}

TEST(AuditConservation, DetectsLostRecordAtFinalize) {
  Auditor a;
  StreamElement r = Record(42, 1);
  a.OnElementPushed(&r);
  a.OnElementTransmitted(r);
  a.Finalize();  // never delivered or processed
  EXPECT_EQ(a.CountOf(AuditCheck::kConservation), 1u);
  EXPECT_TRUE(AnyMessageContains(a, "lost"));
}

TEST(AuditConservation, ExtractionAndRepushIsLegal) {
  // The DRRS redirect path: a record is pulled back out of an output cache
  // and re-pushed toward its new owner. Conservation must treat that as a
  // move, not a duplication.
  Auditor a;
  StreamElement r = Record(7, 1);
  a.OnElementPushed(&r);
  a.OnElementsExtracted({r});
  a.OnElementPushed(&r);
  a.OnElementTransmitted(r);
  a.OnElementDelivered(r, 1, 1, 8, 3);
  a.OnRecordProcessed(r, 1, 3);
  a.Finalize();
  EXPECT_TRUE(a.clean()) << a.Report().Summary();
}

// ---------------------------------------------------------------------------
// InvariantMonitor: per-key FIFO order and duplicates, in every build
// ---------------------------------------------------------------------------

TEST(InvariantMonitor, DetectsOrderViolation) {
  InvariantMonitor inv;
  inv.CheckOrder(1, 2, 42, 1);
  inv.CheckOrder(1, 2, 42, 2);
  inv.CheckOrder(1, 2, 42, 5);
  EXPECT_TRUE(inv.Clean());
  inv.CheckOrder(1, 2, 42, 3);  // regression
  EXPECT_EQ(inv.order_violations, 1u);
}

TEST(InvariantMonitor, DetectsDuplicate) {
  InvariantMonitor inv;
  inv.CheckOrder(1, 2, 42, 7);
  inv.CheckOrder(1, 2, 42, 7);
  EXPECT_EQ(inv.duplicate_processing, 1u);
  EXPECT_EQ(inv.order_violations, 0u);
}

TEST(InvariantMonitor, StreamsAreIndependent) {
  InvariantMonitor inv;
  inv.CheckOrder(1, 2, 42, 5);
  inv.CheckOrder(1, 2, 43, 1);  // same sender, different key: fresh stream
  inv.CheckOrder(1, 3, 42, 1);  // same key, different sender: fresh stream
  inv.CheckOrder(2, 2, 42, 1);  // different consumer operator
  EXPECT_TRUE(inv.Clean());
}

TEST(InvariantMonitor, ManyStreamsSurviveGrowth) {
  // Enough distinct streams to grow the table several times; each must keep
  // its own last seq across every rehash. Every key is shared by 21 streams
  // that differ only in op or sender.
  constexpr uint64_t kStreams = 210000;
  auto op_of = [](uint64_t i) { return static_cast<uint32_t>(i % 3); };
  auto sender_of = [](uint64_t i) { return static_cast<uint32_t>(i / 3 % 7); };
  auto key_of = [](uint64_t i) { return i / 21; };
  auto seq_of = [](uint64_t i) { return 10 + i % 5; };
  InvariantMonitor inv;
  for (uint64_t i = 0; i < kStreams; ++i) {
    inv.CheckOrder(op_of(i), sender_of(i), key_of(i), seq_of(i));
  }
  EXPECT_TRUE(inv.Clean());
  for (uint64_t i = 0; i < kStreams; ++i) {
    inv.CheckOrder(op_of(i), sender_of(i), key_of(i), seq_of(i));  // replay
  }
  EXPECT_EQ(inv.duplicate_processing, kStreams);
  EXPECT_EQ(inv.order_violations, 0u);
  for (uint64_t i = 0; i < kStreams; ++i) {
    inv.CheckOrder(op_of(i), sender_of(i), key_of(i), seq_of(i) - 1);
  }
  EXPECT_EQ(inv.order_violations, kStreams);
  EXPECT_EQ(inv.duplicate_processing, kStreams);
}

TEST(InvariantMonitor, ExtremeIdsAreDistinctStreams) {
  // Streams that differ only in an all-ones or all-zero field must not
  // alias each other (nor an empty slot).
  constexpr uint32_t kMax32 = UINT32_MAX;
  constexpr uint64_t kMax64 = UINT64_MAX;
  InvariantMonitor inv;
  inv.CheckOrder(kMax32, kMax32, 0, 5);
  inv.CheckOrder(kMax32, kMax32, kMax64, 3);
  inv.CheckOrder(0, kMax32, 0, 2);
  inv.CheckOrder(kMax32, 0, 0, 1);
  inv.CheckOrder(0, 0, 0, 1);
  inv.CheckOrder(0, 0, kMax64, 1);
  EXPECT_TRUE(inv.Clean());
  inv.CheckOrder(kMax32, kMax32, 0, 5);
  inv.CheckOrder(kMax32, kMax32, kMax64, 2);
  EXPECT_EQ(inv.duplicate_processing, 1u);
  EXPECT_EQ(inv.order_violations, 1u);
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(AuditProtocol, CleanChunkLifecyclePasses) {
  Auditor a;
  a.OnScaleBegin(1);
  a.OnSubscaleOpen(1, 0);
  StreamElement c = Chunk(11, 1, 0, 4);
  a.OnChunkEnqueued(c, 2, 5);
  a.OnElementDelivered(c, 1, 1, 8, 5);
  a.OnChunkInstalled(c, 5);
  a.OnCompleteSent(1, 0, 2, 5);
  a.OnSubscaleClose(1, 0);
  a.OnScaleEnd(1, 0, 0);
  a.Finalize();
  EXPECT_TRUE(a.clean()) << a.Report().Summary();
}

TEST(AuditProtocol, DetectsChunkOutsideActiveScale) {
  Auditor a;
  a.OnChunkEnqueued(Chunk(11, 9), 2, 5);
  EXPECT_EQ(a.CountOf(AuditCheck::kProtocol), 1u);
  EXPECT_TRUE(AnyMessageContains(a, "outside an active scaling operation"));
}

TEST(AuditProtocol, ChunkAfterCompleteIsPerPath) {
  Auditor a;
  a.OnScaleBegin(1);
  a.OnCompleteSent(1, 0, 2, 5);
  // Another path of the same (scale, subscale) is still migrating — legal
  // (OTFS closes its rails independently under one subscale).
  a.OnChunkEnqueued(Chunk(11, 1), 3, 6);
  EXPECT_TRUE(a.clean()) << a.Report().Summary();
  // A chunk on the *completed* path is a protocol violation.
  a.OnChunkEnqueued(Chunk(12, 1), 2, 5);
  EXPECT_EQ(a.CountOf(AuditCheck::kProtocol), 1u);
  EXPECT_TRUE(AnyMessageContains(a, "after its kScaleComplete"));
}

TEST(AuditProtocol, DetectsTransferIdReuse) {
  Auditor a;
  a.OnScaleBegin(1);
  a.OnChunkEnqueued(Chunk(11, 1), 2, 5);
  a.OnChunkEnqueued(Chunk(11, 1), 2, 6);
  EXPECT_EQ(a.CountOf(AuditCheck::kProtocol), 1u);
  EXPECT_TRUE(AnyMessageContains(a, "reused"));
}

TEST(AuditProtocol, DetectsDoubleAndMisroutedInstall) {
  Auditor a;
  a.OnScaleBegin(1);
  StreamElement c = Chunk(11, 1);
  a.OnChunkEnqueued(c, 2, 5);
  a.OnChunkInstalled(c, 5);
  a.OnChunkInstalled(c, 5);  // fault: double install
  EXPECT_TRUE(AnyMessageContains(a, "installed twice"));
  StreamElement d = Chunk(12, 1);
  a.OnChunkEnqueued(d, 2, 5);
  a.OnChunkInstalled(d, 6);  // fault: wrong destination
  EXPECT_TRUE(AnyMessageContains(a, "addressed to instance"));
  EXPECT_EQ(a.CountOf(AuditCheck::kProtocol), 2u);
}

TEST(AuditProtocol, DetectsInstallAfterAbort) {
  Auditor a;
  a.OnScaleBegin(1);
  StreamElement c = Chunk(11, 1);
  a.OnChunkEnqueued(c, 2, 5);
  a.OnChunkAborted(11);
  a.OnChunkInstalled(c, 5);
  EXPECT_EQ(a.CountOf(AuditCheck::kProtocol), 1u);
  EXPECT_TRUE(AnyMessageContains(a, "aborted"));
}

TEST(AuditProtocol, DetectsEndScaleLeaks) {
  Auditor a;
  a.OnScaleBegin(1);
  a.OnSubscaleOpen(1, 0);
  a.OnChunkEnqueued(Chunk(11, 1), 2, 5);
  a.OnScaleEnd(1, /*open_subscales=*/1, /*session_in_flight=*/1);
  EXPECT_TRUE(AnyMessageContains(a, "subscale(s) still open"));
  EXPECT_TRUE(AnyMessageContains(a, "state transfer leak"));
}

TEST(AuditProtocol, DetectsCompleteOvertakingChunk) {
  Auditor a;
  a.OnScaleBegin(1);
  StreamElement c = Chunk(11, 1);
  a.OnChunkEnqueued(c, 2, 5);
  // The path's completion marker arrives while the chunk is still in
  // flight — only possible if the network reordered them.
  StreamElement done;
  done.kind = ElementKind::kScaleComplete;
  done.scale_id = 1;
  done.subscale_id = 0;
  done.from_instance = 2;
  a.OnElementDelivered(done, 1, 1, 8, 5);
  EXPECT_EQ(a.CountOf(AuditCheck::kProtocol), 1u);
  EXPECT_TRUE(AnyMessageContains(a, "overtook state chunk"));
}

TEST(AuditProtocol, DetectsRailReleaseWithChunkInFlight) {
  Auditor a;
  a.OnScaleBegin(1);
  a.OnChunkEnqueued(Chunk(11, 1), 2, 5);
  a.OnRailReleased(2, 5);
  EXPECT_EQ(a.CountOf(AuditCheck::kProtocol), 1u);
  EXPECT_TRUE(AnyMessageContains(a, "released with state chunk"));
}

TEST(AuditProtocol, DetectsCreditViolation) {
  Auditor a;
  StreamElement r = Record(7, 1);
  a.OnElementPushed(&r);
  a.OnElementTransmitted(r);
  // Depths exceeding the credit window: the sender ignored backpressure.
  a.OnElementDelivered(r, /*wire_depth=*/3, /*input_depth=*/6,
                       /*capacity=*/8, 2);
  EXPECT_EQ(a.CountOf(AuditCheck::kProtocol), 1u);
  EXPECT_TRUE(AnyMessageContains(a, "credit violation"));
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(AuditDeterminism, DetectsTimeRegressionAndTieBreakViolations) {
  Auditor a;
  a.OnEventPopped(10, 1);
  a.OnEventPopped(10, 2);  // legal tie: seq increases
  EXPECT_TRUE(a.clean());
  EXPECT_EQ(a.Report().tie_pops, 1u);
  a.OnEventPopped(10, 2);  // fault: tie-break order not by insertion seq
  EXPECT_EQ(a.CountOf(AuditCheck::kDeterminism), 1u);
  a.OnEventPopped(9, 5);  // fault: simulated time regressed
  EXPECT_EQ(a.CountOf(AuditCheck::kDeterminism), 2u);
  EXPECT_TRUE(AnyMessageContains(a, "time regressed"));
}

TEST(AuditReportTest, ViolationCapCountsDropped) {
  Auditor a;
  const uint64_t total = Auditor::kMaxViolations + 3;
  for (uint64_t i = 0; i < total; ++i) {
    a.OnChunkEnqueued(Chunk(10 + i, 9), 2, 5);  // all outside a scale
  }
  EXPECT_EQ(a.violations().size(), Auditor::kMaxViolations);
  EXPECT_EQ(a.Report().dropped_violations, 3u);
  EXPECT_FALSE(a.clean());
}

// ---------------------------------------------------------------------------
// Fault injection through the real engine (DRRS_OBSERVE builds)
// ---------------------------------------------------------------------------

#if DRRS_OBSERVE_BUILD

/// Small live graph + auditor + ScaleContext, with one migration rail
/// opened from instance 0 to instance 1 of the scaled operator.
struct FaultRig {
  FaultRig()
      : workload(workloads::BuildCustomWorkload(Params())),
        graph(&sim, workload.graph, runtime::EngineConfig{}, &hub),
        core(&graph, &hub) {
    sim.set_auditor(&auditor);
    EXPECT_TRUE(graph.Build().ok());
    scale = core.BeginScale();
    src = graph.instance(workload.scaled_op, 0);
    dst = graph.instance(workload.scaled_op, 1);
    rail = core.rails().Open(src, dst);
  }

  static workloads::CustomParams Params() {
    workloads::CustomParams p;
    p.events_per_second = 100;
    p.num_keys = 64;
    p.duration = sim::Seconds(1);
    p.source_parallelism = 1;
    p.agg_parallelism = 2;
    p.sink_parallelism = 1;
    p.num_key_groups = 8;
    return p;
  }

  /// Send key-group 0 over the rail and return a copy of the chunk element
  /// (transfer ids are allocated from 1 per StateTransfer): the fault
  /// injections below replay or reorder that copy.
  StreamElement SendChunk() {
    uint64_t bytes = core.session().SendKeyGroup(src, rail, /*kg=*/0,
                                                 /*subscale=*/0);
    StreamElement chunk = Chunk(/*transfer_id=*/1, scale, 0, /*kg=*/0);
    chunk.chunk_bytes = bytes;
    chunk.from_instance = src->id();
    return chunk;
  }

  sim::Simulator sim;
  Auditor auditor;
  metrics::MetricsHub hub;
  workloads::WorkloadSpec workload;
  runtime::ExecutionGraph graph;
  scaling::ScaleContext core;
  dataflow::ScaleId scale = 0;
  runtime::Task* src = nullptr;
  runtime::Task* dst = nullptr;
  net::Channel* rail = nullptr;
};

TEST(AuditFaultInjection, DroppedChunkIsReportedAsLeak) {
  FaultRig rig;
  rig.SendChunk();
  // Fault: the receiver drops the chunk — delivered but never installed.
  rig.sim.RunUntilIdle();
  rig.core.EndScale();  // soft-fails under audit instead of aborting
  // Two violations: EndScale finds the chunk leaked, and releasing the still
  // open rail finds a chunk in flight on it.
  EXPECT_EQ(rig.auditor.CountOf(AuditCheck::kProtocol), 2u)
      << rig.auditor.Report().Summary();
  EXPECT_TRUE(AnyMessageContains(rig.auditor, "state transfer leak"));
  EXPECT_TRUE(AnyMessageContains(rig.auditor, "never installed or aborted"));
  EXPECT_TRUE(AnyMessageContains(rig.auditor,
                                 "released with state chunk (transfer 1"));
}

TEST(AuditFaultInjection, DuplicatedChunkIsReportedOnSecondInstall) {
  FaultRig rig;
  StreamElement chunk = rig.SendChunk();
  rig.sim.RunUntilIdle();  // chunk delivered
  EXPECT_TRUE(rig.core.session().Install(rig.dst, chunk));
  EXPECT_TRUE(rig.auditor.clean());
  // Fault: a duplicate of the chunk element arrives and installs a second
  // time. Under audit this is recorded and refused instead of crashing.
  EXPECT_FALSE(rig.core.session().Install(rig.dst, chunk));
  EXPECT_EQ(rig.auditor.CountOf(AuditCheck::kProtocol), 1u);
  EXPECT_TRUE(AnyMessageContains(rig.auditor, "unknown transfer id"));
  rig.core.EndScale();
  EXPECT_EQ(rig.auditor.CountOf(AuditCheck::kProtocol), 1u)
      << "only the duplicate install may be flagged: "
      << rig.auditor.Report().Summary();
}

TEST(AuditFaultInjection, ReorderedChunkBehindCompleteIsReported) {
  FaultRig rig;
  // Fault: the path's kScaleComplete marker travels ahead of the state
  // chunk (network reordering). Both sides are caught: the send after the
  // path closed, and the marker overtaking the still-in-flight chunk at
  // delivery.
  rig.core.rails().PushComplete(rig.rail, rig.src->id(), rig.scale,
                                /*subscale=*/0);
  StreamElement chunk = rig.SendChunk();
  EXPECT_TRUE(AnyMessageContains(rig.auditor, "after its kScaleComplete"));
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(AnyMessageContains(rig.auditor, "overtook state chunk"));
  EXPECT_EQ(rig.auditor.CountOf(AuditCheck::kProtocol), 2u)
      << rig.auditor.Report().Summary();
  // The late chunk still installs, so teardown itself stays leak-free.
  EXPECT_TRUE(rig.core.session().Install(rig.dst, chunk));
  rig.core.EndScale();
  EXPECT_EQ(rig.auditor.CountOf(AuditCheck::kProtocol), 2u);
}

TEST(AuditFaultInjection, ChunkOfAbortedScaleIsDroppedOnArrival) {
  // A scale is aborted while its chunk element is still on the wire. The
  // late arrival must be dropped (not installed into state the abort
  // roll-forward already placed), recorded as an audit note rather than a
  // violation — and the drop must be persistent, because a retransmission
  // can surface the same transfer id twice.
  FaultRig rig;
  StreamElement chunk = rig.SendChunk();
  rig.core.session().Abort();
  rig.sim.RunUntilIdle();  // the orphaned chunk element arrives
  EXPECT_FALSE(rig.core.session().Install(rig.dst, chunk));
  EXPECT_FALSE(rig.core.session().Install(rig.dst, chunk));  // persistent
  EXPECT_TRUE(rig.auditor.clean()) << rig.auditor.Report().Summary();
  EXPECT_EQ(rig.auditor.Report().aborted_drops, 2u);
  // Nothing leaked: the abort accounted for the chunk.
  EXPECT_EQ(rig.core.session().in_flight(), 0u);
  rig.core.EndScale();
  EXPECT_TRUE(rig.auditor.clean()) << rig.auditor.Report().Summary();
}

#endif  // DRRS_OBSERVE_BUILD

// ---------------------------------------------------------------------------
// Clean runs: every mechanism end-to-end under audit
// ---------------------------------------------------------------------------

workloads::CustomParams CleanRunParams() {
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

harness::ExperimentResult RunCleanExperiment(harness::SystemKind kind) {
  harness::ExperimentConfig c;
  c.system = kind;
  c.target_parallelism = 6;
  c.scale_at = sim::Seconds(10);
  c.restab_hold = sim::Seconds(5);
  // horizon stays 0: run to completion so the auditor's Finalize leak
  // checks (element conservation end-to-end) are armed.
  return harness::RunExperiment(workloads::BuildCustomWorkload(CleanRunParams()),
                                c);
}

TEST(AuditCleanRun, Drrs) {
  ExpectAuditClean(RunCleanExperiment(harness::SystemKind::kDrrs), true);
}

TEST(AuditCleanRun, Meces) {
  // Meces preserves exactly-once but not execution order (Section II-B) —
  // conservation and protocol must still hold.
  ExpectAuditClean(RunCleanExperiment(harness::SystemKind::kMeces), false);
}

TEST(AuditCleanRun, Otfs) {
  ExpectAuditClean(RunCleanExperiment(harness::SystemKind::kOtfsFluid), true);
}

TEST(AuditCleanRun, Unbound) {
  // Unbound sacrifices state locality, not element conservation or order.
  ExpectAuditClean(RunCleanExperiment(harness::SystemKind::kUnbound), true);
}

TEST(AuditCleanRun, StopRestart) {
  ExpectAuditClean(RunCleanExperiment(harness::SystemKind::kStopRestart),
                   true);
}

}  // namespace
}  // namespace drrs::verify
