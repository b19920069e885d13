#ifndef DRRS_VERIFY_AUDITOR_H_
#define DRRS_VERIFY_AUDITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/stream_element.h"
#include "sim/sim_time.h"

namespace drrs::sim {
class Simulator;
}  // namespace drrs::sim

namespace drrs::verify {

/// Which invariant a violation belongs to. Mirrors the four audit families:
/// element conservation, per-key FIFO ordering, scale-protocol conformance
/// and determinism hazards.
enum class AuditCheck : uint8_t {
  kConservation = 0,
  kOrdering,
  kProtocol,
  kDeterminism,
};

const char* AuditCheckName(AuditCheck check);

/// One detected invariant violation. Violations are recorded, never fatal:
/// fault-injection tests assert on them and clean runs assert none exist.
struct Violation {
  AuditCheck check = AuditCheck::kConservation;
  sim::SimTime time = 0;  ///< simulated time of detection (0 in Finalize)
  std::string message;    ///< actionable diagnostic (ids, keys, phases)
};

/// Snapshot of an Auditor's findings plus diagnostic counters, copyable into
/// an ExperimentResult. Compiled in every build; only the *hooks* that feed
/// an Auditor are gated behind the DRRS_AUDIT compile option.
struct AuditReport {
  bool enabled = false;  ///< an Auditor was installed for the run
  bool finalized = false;
  std::vector<Violation> violations;
  uint64_t dropped_violations = 0;  ///< beyond Options::max_violations

  // Diagnostics (not violations).
  uint64_t records_tracked = 0;
  uint64_t records_processed = 0;
  /// Records deliberately removed by overload load shedding — a legal
  /// terminal phase, distinct from conservation leaks (zero when overload
  /// control is off).
  uint64_t records_shed = 0;
  uint64_t chunks_tracked = 0;
  uint64_t chunks_installed = 0;
  uint64_t scales_observed = 0;
  // Fault-injection lifecycle diagnostics (all zero in fault-free runs).
  uint64_t chunks_lost = 0;            ///< dropped on the wire by a fault
  uint64_t chunks_retransmitted = 0;   ///< ack-timeout retransmissions
  uint64_t chunks_force_installed = 0; ///< installed by abort roll-forward
  uint64_t duplicate_suppressed = 0;   ///< receiver-side idempotent drops
  uint64_t aborted_drops = 0;          ///< aborted-scale chunks dropped on arrival
  /// Events popped at the same simulated time as their predecessor: their
  /// relative order is decided purely by the queue's insertion-seq
  /// tie-break. Deterministic, but a hazard marker for logic that assumes
  /// strict time separation.
  uint64_t tie_pops = 0;

  bool clean() const { return violations.empty() && dropped_violations == 0; }
  size_t CountOf(AuditCheck check) const;
  std::string Summary() const;
};

/// \brief Event-granular invariant auditor for the scaling control plane.
///
/// Installed on a Simulator (`sim.set_auditor(&a)`); the engine's hook
/// sites — channels, tasks, the event queue and scaling/core — then report
/// every element movement and protocol step through the DRRS_AUDIT_CALL
/// macro (see verify/audit_hooks.h). In non-audit builds those call sites
/// compile to nothing, so the auditor costs zero when off.
///
/// Checks enforced:
///  * Conservation — every record pushed onto a channel moves through a
///    strict lifecycle (output cache -> wire -> input cache -> processed),
///    with held/re-routed detours allowed only via extraction or re-push.
///    A record processed twice, re-pushed while still queued, or never
///    processed at all (Finalize) is a violation.
///  * Ordering — per (consumer operator, sender instance, key), stamped
///    sequence numbers must be strictly increasing at processing time, even
///    across a migration (re-routed records keep their original stamp).
///  * Protocol — a state machine over scale/subscale lifecycle, state-chunk
///    transfer and rail teardown events rejects illegal sequences: chunks
///    outside an active scale, chunks after kScaleComplete, a complete
///    marker overtaking an in-flight chunk, duplicate/unknown installs,
///    EndScale with open subscales or undrained transfers, rail release
///    with chunks still in flight, and receiver input-buffer overruns
///    (credit violations).
///  * Determinism — simulated time must never regress, same-time pops must
///    respect the insertion-seq tie-break, and every same-time pop is
///    counted as a tie-break hazard diagnostic.
class Auditor {
 public:
  struct Options {
    bool conservation = true;
    bool ordering = true;
    bool protocol = true;
    bool determinism = true;
    size_t max_violations = 256;
  };

  Auditor() = default;
  explicit Auditor(const Options& options) : options_(options) {}

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Called by Simulator::set_auditor so diagnostics carry sim time.
  void AttachSimulator(const sim::Simulator* sim) { sim_ = sim; }

  /// Observer invoked on every recorded violation (not on dropped ones).
  /// The harness uses it to dump the tracer's flight recorder so a failure
  /// carries its immediate event history.
  void set_on_violation(std::function<void(const Violation&)> cb) {
    on_violation_ = std::move(cb);
  }

  // ---- channel hooks (net::Channel) ----

  /// Element entering a channel's output cache (Push / PushPriority). May
  /// assign the element's audit identity, hence the mutable pointer.
  void OnElementPushed(dataflow::StreamElement* element);
  /// Element moving from the output cache onto the wire.
  void OnElementTransmitted(const dataflow::StreamElement& element);
  /// Element arriving in the receiver's input cache. Depths are post-
  /// delivery; `capacity` is the credit window being enforced.
  void OnElementDelivered(const dataflow::StreamElement& element,
                          size_t wire_depth, size_t input_depth,
                          size_t capacity, dataflow::InstanceId receiver);
  /// Elements removed from an output cache by ExtractFromOutput[Before].
  void OnElementsExtracted(
      const std::vector<dataflow::StreamElement>& extracted);

  // ---- task hooks (runtime::Task) ----

  /// A data record reaching the operator (or sink), after any intercept.
  void OnRecordProcessed(const dataflow::StreamElement& record,
                         dataflow::OperatorId op,
                         dataflow::InstanceId instance);

  // ---- overload hooks (overload::OverloadController) ----

  /// A data record deliberately removed from `instance`'s input cache by
  /// load shedding. Shedding is a legal terminal phase of the conservation
  /// lifecycle (kInput -> kShed), not a leak; shedding a record that is not
  /// in an input cache, or processing one after it was shed, is a violation.
  void OnRecordShed(const dataflow::StreamElement& record,
                    dataflow::OperatorId op, dataflow::InstanceId instance);

  // ---- scaling/core hooks ----

  void OnScaleBegin(dataflow::ScaleId scale);
  /// `open_subscales` / `session_in_flight` are the ScaleContext's own view
  /// at EndScale; both must be zero for a leak-free teardown.
  void OnScaleEnd(dataflow::ScaleId scale, size_t open_subscales,
                  size_t session_in_flight);
  void OnSubscaleOpen(dataflow::ScaleId scale, dataflow::SubscaleId subscale);
  void OnSubscaleClose(dataflow::ScaleId scale, dataflow::SubscaleId subscale);
  void OnChunkEnqueued(const dataflow::StreamElement& chunk,
                       dataflow::InstanceId from, dataflow::InstanceId to);
  void OnChunkAborted(uint64_t transfer_id);
  void OnChunkInstalled(const dataflow::StreamElement& chunk,
                        dataflow::InstanceId to);
  /// A chunk was dropped on the wire by the fault plane. Not a violation:
  /// the sender's retransmission (or abort roll-forward) must cover it, and
  /// the leak checks still fire if nothing ever does.
  void OnChunkWireDropped(const dataflow::StreamElement& chunk);
  /// The sender retransmitted `transfer_id` after an ack timeout. Re-arms
  /// the chunk's lifecycle (back to sent) without counting as a reuse.
  void OnChunkRetransmitted(uint64_t transfer_id);
  /// Abort roll-forward installed the registry copy of `transfer_id`
  /// directly at its planned receiver, bypassing the wire.
  void OnChunkForceInstalled(uint64_t transfer_id, dataflow::InstanceId to);
  /// The receiver suppressed a duplicate install (idempotent retry path).
  void OnChunkDuplicateSuppressed(const dataflow::StreamElement& chunk);
  /// A chunk of an aborted scale arrived and was dropped instead of
  /// installed. Audit note, not a violation.
  void OnChunkDroppedAborted(const dataflow::StreamElement& chunk);
  /// StateTransfer::Install got a transfer id it has no record of (a
  /// duplicated or corrupted chunk). Under audit this is a recorded
  /// violation instead of a process abort.
  void OnChunkUnknownInstall(const dataflow::StreamElement& chunk);
  void OnCompleteSent(dataflow::ScaleId scale, dataflow::SubscaleId subscale,
                      dataflow::InstanceId from, dataflow::InstanceId to);
  void OnRailReleased(dataflow::InstanceId from, dataflow::InstanceId to);

  // ---- simulator hooks (sim::EventQueue) ----

  void OnEventPopped(sim::SimTime time, uint64_t seq);

  // ---- wrap-up ----

  /// End-of-run leak checks: records never processed, chunks never
  /// installed/aborted, scales never ended. Only meaningful after the event
  /// queue fully drained. Idempotent.
  void Finalize();

  bool clean() const { return violations_.empty() && dropped_ == 0; }
  const std::vector<Violation>& violations() const { return violations_; }
  size_t CountOf(AuditCheck check) const;
  AuditReport Report() const;

 private:
  /// Conservation lifecycle of one tracked record.
  enum class Phase : uint8_t {
    kOutput = 0,  ///< in a sender's output cache
    kWire,        ///< in flight on a channel
    kInput,       ///< in a receiver's input cache (or re-spliced there)
    kHeld,        ///< extracted/held by a scaling strategy
    kDone,        ///< processed by an operator or sink
    kShed,        ///< removed by overload load shedding (legal terminal)
  };
  struct RecordInfo {
    Phase phase = Phase::kOutput;
    dataflow::InstanceId from = 0;
    dataflow::KeyT key = 0;
  };

  /// Transfer lifecycle of one state chunk (keyed by transfer id).
  enum class ChunkState : uint8_t {
    kSent = 0,
    kDelivered,
    kInstalled,
    kAborted,
    kLost,  ///< dropped on the wire; awaiting retransmit or roll-forward
  };
  struct ChunkInfo {
    ChunkState state = ChunkState::kSent;
    bool retransmitted = false;  ///< at least one ack-timeout retransmission
    dataflow::ScaleId scale = 0;
    dataflow::SubscaleId subscale = 0;
    dataflow::KeyGroupId key_group = 0;
    dataflow::InstanceId from = 0;
    dataflow::InstanceId to = 0;
    sim::SimTime sent_at = 0;
  };

  struct OrderState {
    uint64_t seq = 0;
    dataflow::InstanceId instance = 0;
    sim::SimTime time = 0;
  };

  static const char* PhaseName(Phase phase);

  void AddViolation(AuditCheck check, std::string message);
  sim::SimTime Now() const;
  RecordInfo* TrackedRecord(uint64_t audit_id);

  Options options_;
  const sim::Simulator* sim_ = nullptr;
  std::function<void(const Violation&)> on_violation_;

  std::vector<Violation> violations_;
  uint64_t dropped_ = 0;
  bool finalized_ = false;

  // conservation: audit_id - 1 indexes records_.
  std::vector<RecordInfo> records_;
  uint64_t records_processed_ = 0;
  uint64_t records_shed_ = 0;

  // ordering: (consumer op, sender instance, key) -> last observed stamp.
  std::map<std::tuple<dataflow::OperatorId, dataflow::InstanceId,
                      dataflow::KeyT>,
           OrderState>
      order_;

  // protocol
  std::map<uint64_t, ChunkInfo> chunks_;
  std::set<dataflow::ScaleId> active_scales_;
  std::map<dataflow::ScaleId, std::set<dataflow::SubscaleId>> open_subscales_;
  // Completion is a per-path marker: mechanisms (e.g. OTFS) close each
  // migration rail independently under the same subscale, so "chunk after
  // complete" is only a violation on the completed (from, to) path.
  std::set<std::tuple<dataflow::ScaleId, dataflow::SubscaleId,
                      dataflow::InstanceId, dataflow::InstanceId>>
      complete_sent_;
  uint64_t chunks_installed_ = 0;
  uint64_t scales_observed_ = 0;
  uint64_t chunks_lost_ = 0;
  uint64_t chunks_retransmitted_ = 0;
  uint64_t chunks_force_installed_ = 0;
  uint64_t duplicate_suppressed_ = 0;
  uint64_t aborted_drops_ = 0;

  // determinism
  bool popped_any_ = false;
  sim::SimTime last_pop_time_ = 0;
  uint64_t last_pop_seq_ = 0;
  uint64_t tie_pops_ = 0;
};

}  // namespace drrs::verify

#endif  // DRRS_VERIFY_AUDITOR_H_
