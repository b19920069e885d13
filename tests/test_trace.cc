// Tests for the structured tracing layer (trace::Tracer). The class is
// compiled in every build — only the engine hook sites are gated by the
// DRRS_OBSERVE option — so the direct-call tests below run everywhere;
// end-to-end experiment coverage additionally needs an observe build.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "dataflow/stream_element.h"
#include "harness/experiment.h"
#include "harness/json_summary.h"
#include "trace/tracer.h"
#include "verify/auditor.h"
#include "workloads/workloads.h"

namespace drrs::trace {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

dataflow::StreamElement Chunk(uint64_t transfer, dataflow::KeyGroupId kg,
                              uint64_t bytes) {
  dataflow::StreamElement e;
  e.kind = dataflow::ElementKind::kStateChunk;
  e.seq = transfer;
  e.key_group = kg;
  e.chunk_bytes = bytes;
  return e;
}

TEST(Tracer, RingWrapsAndSnapshotsOldestFirst) {
  Tracer::Options opt;
  opt.flight_dump_path.clear();
  Tracer t(opt);
  const uint64_t total = Tracer::kRingCapacity + 6;
  for (uint64_t i = 0; i < total; ++i) t.OnScaleAborted(i);
  EXPECT_EQ(t.event_count(), total);
  auto snap = t.FlightRecorderSnapshot();
  ASSERT_EQ(snap.size(), Tracer::kRingCapacity);
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].args[0].value, static_cast<int64_t>(6 + i));
  }
}

TEST(Tracer, SnapshotBeforeWrapKeepsEmissionOrder) {
  Tracer::Options opt;
  opt.flight_dump_path.clear();
  Tracer t(opt);
  t.OnScaleAborted(1);
  t.OnScaleAborted(2);
  auto snap = t.FlightRecorderSnapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].args[0].value, 1);
  EXPECT_EQ(snap[1].args[0].value, 2);
}

TEST(Tracer, BackpressureIntervalEmittedAtRelease) {
  Tracer::Options opt;
  opt.flight_dump_path.clear();
  Tracer t(opt);
  t.OnBackpressureOnset(5, 9);
  EXPECT_EQ(t.event_count(), 0u);  // interval still open
  t.OnBackpressureRelease(5, 9);
  ASSERT_EQ(t.events().size(), 1u);
  const TraceEvent& e = t.events()[0];
  EXPECT_EQ(e.phase, TraceEvent::Phase::kComplete);
  EXPECT_STREQ(e.name, "backpressure");
  EXPECT_EQ(e.args[0].value, 5);
  EXPECT_EQ(e.args[1].value, 9);
  // A release with no matching onset is dropped, not fabricated.
  t.OnBackpressureRelease(5, 9);
  EXPECT_EQ(t.events().size(), 1u);
}

TEST(Tracer, ChunkInstallFeedsFlightHistogram) {
  Tracer::Options opt;
  opt.flight_dump_path.clear();
  Tracer t(opt);
  t.OnChunkEnqueued(Chunk(7, 12, 4096), 1, 2);
  t.OnChunkInstalled(Chunk(7, 12, 4096), 2);
  EXPECT_EQ(t.chunk_flight_histogram().count(), 1u);
  // Forced installs and aborts close the id without a flight sample.
  t.OnChunkEnqueued(Chunk(8, 13, 4096), 1, 2);
  t.OnChunkForceInstalled(8, 2);
  t.OnChunkEnqueued(Chunk(9, 14, 4096), 1, 2);
  t.OnChunkAborted(9);
  EXPECT_EQ(t.chunk_flight_histogram().count(), 1u);
}

TEST(Tracer, StallsFeedPerOperatorHistogram) {
  Tracer::Options opt;
  opt.flight_dump_path.clear();
  Tracer t(opt);
  t.OnTaskStall(1, 42, metrics::StallReason::kAwaitingState, 0,
                sim::Millis(10));
  t.OnTaskStall(2, 42, metrics::StallReason::kAlignment, 0, sim::Millis(20));
  t.OnTaskStall(1, 42, metrics::StallReason::kAwaitingState, 100, 100);  // nop
  t.OnTaskStall(1, 42, metrics::StallReason::kAwaitingState, 100, 50);   // nop
  ASSERT_EQ(t.stall_histograms().count(42), 1u);
  EXPECT_EQ(t.stall_histograms().at(42).count(), 2u);
  EXPECT_EQ(t.events().size(), 2u);
}

TEST(Tracer, RingOnlyKeepsNoFullLogAndRefusesExport) {
  Tracer::Options opt;
  opt.ring_only = true;
  opt.flight_dump_path.clear();
  Tracer t(opt);
  for (uint64_t i = 0; i < 5; ++i) t.OnScaleBegin(i);
  EXPECT_EQ(t.event_count(), 5u);
  EXPECT_EQ(t.dropped_events(), 5u);
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.FlightRecorderSnapshot().size(), 5u);
  Status st = t.ExportJson(TempPath("ring_only.json"));
  EXPECT_FALSE(st.ok());
}

TEST(Tracer, ExportJsonWritesPerfettoDocument) {
  Tracer::Options opt;
  opt.flight_dump_path.clear();
  Tracer t(opt);
  t.OnScaleBegin(1);
  t.OnSubscaleOpen(1, 0);
  t.OnChunkEnqueued(Chunk(3, 5, 1024), 1, 2);
  t.OnChunkInstalled(Chunk(3, 5, 1024), 2);
  t.OnSubscaleClose(1, 0);
  t.OnScaleEnd(1, 0, 0);
  std::string path = TempPath("export.json");
  ASSERT_TRUE(t.ExportJson(path).ok());
  std::string doc = Slurp(path);
  ASSERT_FALSE(doc.empty());
  // Perfetto essentials: the event array, named tracks, our span names.
  EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("thread_name"), std::string::npos);
  EXPECT_NE(doc.find("\"scale_op\""), std::string::npos);
  EXPECT_NE(doc.find("\"subscale\""), std::string::npos);
  EXPECT_NE(doc.find("\"chunk_transfer\""), std::string::npos);
  // Sidecar keys (legal as extra top-level members of the JSON object).
  EXPECT_NE(doc.find("\"drrsHistograms\""), std::string::npos);
  EXPECT_NE(doc.find("\"drrsTotalEvents\":6"), std::string::npos);
}

TEST(Tracer, FlightRecorderDumpWritesReasonAndEvents) {
  Tracer::Options opt;
  opt.flight_dump_path = TempPath("flight.json");
  Tracer t(opt);
  std::remove(opt.flight_dump_path.c_str());
  t.OnScaleBegin(2);
  t.OnScaleAborted(2);
  t.DumpFlightRecorder("test: forced failure");
  EXPECT_EQ(t.flight_dumps(), 1u);
  std::string doc = Slurp(opt.flight_dump_path);
  ASSERT_FALSE(doc.empty());
  EXPECT_NE(doc.find("\"drrsFlightReason\":\"test: forced failure\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"scale_aborted\""), std::string::npos);
}

TEST(Tracer, EmptyDumpPathCountsButWritesNothing) {
  Tracer::Options opt;
  opt.flight_dump_path.clear();
  Tracer t(opt);
  t.OnScaleBegin(1);
  t.DumpFlightRecorder("nowhere to go");
  EXPECT_EQ(t.flight_dumps(), 1u);
}

TEST(Tracer, AuditorViolationCallbackTriggersDump) {
  // The same wiring RunExperiment installs: an audit violation dumps the
  // flight recorder with the violation message as the reason.
  Tracer::Options opt;
  opt.flight_dump_path = TempPath("violation_flight.json");
  Tracer t(opt);
  std::remove(opt.flight_dump_path.c_str());
  t.OnScaleBegin(1);

  verify::Auditor auditor;
  auditor.set_on_violation([&t](const verify::Violation& v) {
    t.DumpFlightRecorder("audit violation: " + v.message);
  });
  // Deterministic protocol violation: close a subscale that was never open.
  auditor.OnSubscaleClose(1, 2);
  ASSERT_EQ(auditor.Report().violations.size(), 1u);
  EXPECT_EQ(t.flight_dumps(), 1u);
  std::string doc = Slurp(opt.flight_dump_path);
  ASSERT_FALSE(doc.empty());
  EXPECT_NE(doc.find("audit violation"), std::string::npos);
  EXPECT_NE(doc.find("\"scale_op\""), std::string::npos);
}

TEST(Tracer, CategoryNamesAreStable) {
  EXPECT_STREQ(CategoryName(kScale), "scale");
  EXPECT_STREQ(CategoryName(kNet), "net");
  EXPECT_STREQ(CategoryName(kRuntime), "runtime");
  EXPECT_STREQ(CategoryName(kFault), "fault");
}

// ---------------------------------------------------------------------------
// JSON run summary (harness/json_summary.h)
// ---------------------------------------------------------------------------

TEST(JsonSummary, EmitsStableSchemaWithoutHub) {
  harness::ExperimentResult r;
  r.system = "drrs";
  r.workload = "custom \"quoted\"";
  r.source_records = 123;
  std::string json = harness::JsonSummary(r);
  EXPECT_NE(json.find("\"schema_version\":2"), std::string::npos);
  // v2 additions: the simulated end time and the telemetry block (rendered
  // as a disabled stub when the sampler was never constructed).
  EXPECT_NE(json.find("\"sim_end_us\":0"), std::string::npos);
  EXPECT_NE(json.find("\"telemetry\":{\"enabled\":0}"), std::string::npos);
  EXPECT_NE(json.find("\"system\":\"drrs\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);  // escaping
  EXPECT_NE(json.find("\"latency\":{"), std::string::npos);
  EXPECT_NE(json.find("\"overheads\":{"), std::string::npos);
  EXPECT_NE(json.find("\"recovery\":{"), std::string::npos);
  EXPECT_NE(json.find("\"trace\":{"), std::string::npos);
  EXPECT_NE(json.find("\"source_records\":123"), std::string::npos);
  // Hub-backed sections (histograms) are absent without a hub, but the keys
  // that exist must still form a parseable object.
  EXPECT_EQ(json.find("histogram_ms"), std::string::npos);
}

TEST(JsonSummary, WriteCreatesFile) {
  harness::ExperimentResult r;
  r.system = "meces";
  std::string path = TempPath("summary.json");
  ASSERT_TRUE(harness::WriteJsonSummary(r, path).ok());
  std::string doc = Slurp(path);
  EXPECT_NE(doc.find("\"system\":\"meces\""), std::string::npos);
  EXPECT_FALSE(harness::WriteJsonSummary(r, "/nonexistent-dir/x.json").ok());
}

#if DRRS_OBSERVE_BUILD

// End-to-end: a scaled experiment in an observe build produces a trace with
// spans for every phase of the operation, and the same hook calls reach the
// Auditor, which sees one clean scale.
TEST(TracerEndToEnd, ScaledRunExportsFullTrace) {
  workloads::CustomParams p;
  p.events_per_second = 1000;
  p.num_keys = 200;
  p.duration = sim::Seconds(15);
  p.record_cost = sim::Micros(200);
  p.agg_parallelism = 3;
  p.num_key_groups = 24;

  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kDrrs;
  c.target_parallelism = 5;
  c.scale_at = sim::Seconds(5);
  c.restab_hold = sim::Seconds(3);
  c.trace_path = TempPath("e2e_trace.json");
  std::remove(c.trace_path.c_str());

  auto r = harness::RunExperiment(workloads::BuildCustomWorkload(p), c);
  EXPECT_GT(r.trace_events, 0u);
  std::string doc = Slurp(c.trace_path);
  ASSERT_FALSE(doc.empty());
  // Injection -> migration -> install/ack -> rails release, all present.
  EXPECT_NE(doc.find("\"scale_op\""), std::string::npos);
  EXPECT_NE(doc.find("\"subscale\""), std::string::npos);
  EXPECT_NE(doc.find("\"barrier_injected\""), std::string::npos);
  EXPECT_NE(doc.find("\"chunk_transfer\""), std::string::npos);
  EXPECT_NE(doc.find("\"chunk_wire\""), std::string::npos);
  EXPECT_NE(doc.find("\"rail_released\""), std::string::npos);
  EXPECT_NE(doc.find("\"drrsHistograms\""), std::string::npos);
  EXPECT_TRUE(r.audit.enabled);
  EXPECT_TRUE(r.audit.clean()) << r.audit.Summary();
  EXPECT_EQ(r.audit.scales_observed, 1u);
}

// Without a trace path the tracer stays in ring-only mode: events are
// counted (flight recorder armed) but no file is written.
TEST(TracerEndToEnd, NoPathRunsRingOnly) {
  workloads::CustomParams p;
  p.events_per_second = 500;
  p.num_keys = 50;
  p.duration = sim::Seconds(5);
  p.record_cost = sim::Micros(200);
  p.agg_parallelism = 2;
  p.num_key_groups = 8;

  harness::ExperimentConfig c;
  c.system = harness::SystemKind::kNoScale;
  c.scale_at = sim::Seconds(2);
  auto r = harness::RunExperiment(workloads::BuildCustomWorkload(p), c);
  EXPECT_GT(r.trace_events, 0u);
  EXPECT_EQ(r.flight_dumps, 0u);
}

#endif  // DRRS_OBSERVE_BUILD

}  // namespace
}  // namespace drrs::trace
