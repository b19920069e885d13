#include "verify/auditor.h"

#include <sstream>
#include <utility>

#include "common/logging.h"
#include "sim/simulator.h"

namespace drrs::verify {

using dataflow::ElementKind;
using dataflow::StreamElement;

const char* AuditCheckName(AuditCheck check) {
  switch (check) {
    case AuditCheck::kConservation:
      return "conservation";
    case AuditCheck::kProtocol:
      return "protocol";
    case AuditCheck::kDeterminism:
      return "determinism";
  }
  return "?";
}

size_t AuditReport::CountOf(AuditCheck check) const {
  size_t n = 0;
  for (const Violation& v : violations) {
    if (v.check == check) ++n;
  }
  return n;
}

std::string AuditReport::Summary() const {
  std::ostringstream os;
  os << "audit: " << violations.size() << " violation(s)";
  if (dropped_violations > 0) os << " (+" << dropped_violations << " dropped)";
  os << " [conservation=" << CountOf(AuditCheck::kConservation)
     << " protocol=" << CountOf(AuditCheck::kProtocol)
     << " determinism=" << CountOf(AuditCheck::kDeterminism) << "]"
     << "; records tracked=" << records_tracked
     << " processed=" << records_processed;
  if (records_shed > 0) os << " shed=" << records_shed;
  os << ", chunks tracked=" << chunks_tracked
     << " installed=" << chunks_installed
     << ", scales=" << scales_observed << ", tie-break pops=" << tie_pops;
  if (chunks_lost + chunks_retransmitted + chunks_force_installed +
          duplicate_suppressed + aborted_drops >
      0) {
    os << "; faults: lost=" << chunks_lost
       << " retransmitted=" << chunks_retransmitted
       << " force-installed=" << chunks_force_installed
       << " dup-suppressed=" << duplicate_suppressed
       << " aborted-drops=" << aborted_drops;
  }
  return os.str();
}

const char* Auditor::PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kOutput:
      return "output-cache";
    case Phase::kWire:
      return "in-flight";
    case Phase::kInput:
      return "input-cache";
    case Phase::kHeld:
      return "held";
    case Phase::kDone:
      return "processed";
    case Phase::kShed:
      return "shed";
  }
  return "?";
}

sim::SimTime Auditor::Now() const { return sim_ != nullptr ? sim_->now() : 0; }

void Auditor::AddViolation(AuditCheck check, std::string message) {
  if (violations_.size() >= kMaxViolations) {
    ++dropped_;
    return;
  }
  DRRS_LOG(Error) << "audit[" << AuditCheckName(check) << "] t=" << Now()
                  << ": " << message;
  violations_.push_back(Violation{check, Now(), std::move(message)});
  if (on_violation_) on_violation_(violations_.back());
}

Auditor::RecordInfo* Auditor::TrackedRecord(uint64_t audit_id) {
  if (audit_id == 0 || audit_id > records_.size()) return nullptr;
  return &records_[audit_id - 1];
}

// ---------------------------------------------------------------------------
// Conservation
// ---------------------------------------------------------------------------

void Auditor::OnElementPushed(StreamElement* element) {
  if (element->kind != ElementKind::kRecord) return;
  if (element->audit_id == 0) {
    // First channel hop of a fresh emission: assign identity.
    records_.push_back(
        RecordInfo{Phase::kOutput, element->from_instance, element->key});
    element->audit_id = records_.size();
    return;
  }
  RecordInfo* info = TrackedRecord(element->audit_id);
  if (info == nullptr) {
    AddViolation(AuditCheck::kConservation,
                 "record with unknown audit id " +
                     std::to_string(element->audit_id) + " pushed");
    return;
  }
  // A known record may re-enter a channel only after being taken off one:
  // held (extracted / intercepted) or consumed-from-input (re-routed copy).
  if (info->phase != Phase::kHeld && info->phase != Phase::kInput) {
    std::ostringstream os;
    os << "record " << element->audit_id << " (key " << element->key
       << ", from instance " << info->from << ") re-pushed while "
       << PhaseName(info->phase)
       << " — duplicated element entering a channel";
    AddViolation(AuditCheck::kConservation, os.str());
  }
  info->phase = Phase::kOutput;
}

void Auditor::OnElementTransmitted(const StreamElement& element) {
  if (element.kind != ElementKind::kRecord) return;
  RecordInfo* info = TrackedRecord(element.audit_id);
  if (info == nullptr) return;
  if (info->phase != Phase::kOutput) {
    std::ostringstream os;
    os << "record " << element.audit_id << " (key " << element.key
       << ") entered the wire while " << PhaseName(info->phase);
    AddViolation(AuditCheck::kConservation, os.str());
  }
  info->phase = Phase::kWire;
}

void Auditor::OnElementDelivered(const StreamElement& element,
                                 size_t wire_depth, size_t input_depth,
                                 size_t capacity,
                                 dataflow::InstanceId receiver) {
  if (wire_depth + input_depth > capacity) {
    std::ostringstream os;
    os << "credit violation at instance " << receiver << ": wire depth "
       << wire_depth << " + input depth " << input_depth
       << " exceeds the credit window of " << capacity;
    AddViolation(AuditCheck::kProtocol, os.str());
  }
  switch (element.kind) {
    case ElementKind::kRecord: {
      RecordInfo* info = TrackedRecord(element.audit_id);
      if (info == nullptr) return;
      if (info->phase != Phase::kWire) {
        std::ostringstream os;
        os << "record " << element.audit_id << " (key " << element.key
           << ") delivered to instance " << receiver << " while "
           << PhaseName(info->phase)
           << " — duplicated or replayed delivery";
        AddViolation(AuditCheck::kConservation, os.str());
      }
      info->phase = Phase::kInput;
      return;
    }
    case ElementKind::kStateChunk: {
      auto it = chunks_.find(element.seq);
      if (it == chunks_.end()) return;  // crafted/abort remnant; Install decides
      if (it->second.state == ChunkState::kSent) {
        it->second.state = ChunkState::kDelivered;
      }
      return;
    }
    case ElementKind::kScaleComplete: {
      for (const auto& [id, chunk] : chunks_) {
        // Lost or retransmitted chunks legitimately trail the complete
        // marker: the ack-timeout recovery path re-sends them after the
        // sender already believed the path drained.
        if (chunk.scale == element.scale_id &&
            chunk.subscale == element.subscale_id &&
            chunk.from == element.from_instance && chunk.to == receiver &&
            chunk.state == ChunkState::kSent && !chunk.retransmitted) {
          std::ostringstream os;
          os << "kScaleComplete for scale " << element.scale_id
             << " subscale " << element.subscale_id << " ("
             << chunk.from << " -> " << chunk.to
             << ") overtook state chunk (transfer " << id << ", key-group "
             << chunk.key_group << ") still in flight";
          AddViolation(AuditCheck::kProtocol, os.str());
        }
      }
      return;
    }
    default:
      return;
  }
}

void Auditor::OnElementsExtracted(
    const std::vector<StreamElement>& extracted) {
  for (const StreamElement& e : extracted) {
    if (e.kind != ElementKind::kRecord) continue;
    RecordInfo* info = TrackedRecord(e.audit_id);
    if (info == nullptr) continue;
    if (info->phase != Phase::kOutput) {
      std::ostringstream os;
      os << "record " << e.audit_id << " (key " << e.key
         << ") extracted from an output cache while "
         << PhaseName(info->phase);
      AddViolation(AuditCheck::kConservation, os.str());
    }
    info->phase = Phase::kHeld;
  }
}

void Auditor::OnRecordProcessed(const StreamElement& record,
                                dataflow::OperatorId op,
                                dataflow::InstanceId instance) {
  (void)op;
  RecordInfo* info = TrackedRecord(record.audit_id);
  if (info == nullptr) return;
  if (info->phase == Phase::kDone) {
    std::ostringstream os;
    os << "record " << record.audit_id << " (key " << record.key
       << ", from instance " << info->from
       << ") processed twice — duplicate processing at instance " << instance;
    AddViolation(AuditCheck::kConservation, os.str());
  } else if (info->phase == Phase::kShed) {
    std::ostringstream os;
    os << "record " << record.audit_id << " (key " << record.key
       << ") processed at instance " << instance
       << " after being shed — shedding must be terminal";
    AddViolation(AuditCheck::kConservation, os.str());
  } else if (info->phase != Phase::kInput && info->phase != Phase::kHeld) {
    std::ostringstream os;
    os << "record " << record.audit_id << " (key " << record.key
       << ") processed at instance " << instance << " while "
       << PhaseName(info->phase) << " — skipped delivery";
    AddViolation(AuditCheck::kConservation, os.str());
  }
  info->phase = Phase::kDone;
  ++records_processed_;
}

void Auditor::OnRecordShed(const StreamElement& record,
                           dataflow::OperatorId op,
                           dataflow::InstanceId instance) {
  (void)op;
  RecordInfo* info = TrackedRecord(record.audit_id);
  if (info == nullptr) return;
  if (info->phase == Phase::kShed) {
    std::ostringstream os;
    os << "record " << record.audit_id << " (key " << record.key
       << ") shed twice at instance " << instance;
    AddViolation(AuditCheck::kConservation, os.str());
  } else if (info->phase != Phase::kInput) {
    std::ostringstream os;
    os << "record " << record.audit_id << " (key " << record.key
       << ") shed at instance " << instance << " while "
       << PhaseName(info->phase)
       << " — shedding is only legal from an input cache";
    AddViolation(AuditCheck::kConservation, os.str());
  }
  info->phase = Phase::kShed;
  ++records_shed_;
}

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

void Auditor::OnScaleBegin(dataflow::ScaleId scale) {
  ++scales_observed_;
  active_scales_.insert(scale);
}

void Auditor::OnScaleEnd(dataflow::ScaleId scale, size_t open_subscales,
                         size_t in_flight) {
  if (open_subscales > 0) {
    std::ostringstream os;
    os << "EndScale for scale " << scale << " with " << open_subscales
       << " subscale(s) still open";
    AddViolation(AuditCheck::kProtocol, os.str());
  }
  size_t outstanding = 0;
  for (const auto& [id, chunk] : chunks_) {
    if (chunk.scale != scale) continue;
    if (chunk.state == ChunkState::kSent ||
        chunk.state == ChunkState::kDelivered ||
        chunk.state == ChunkState::kLost) {
      if (outstanding < 4) {
        std::ostringstream os;
        os << "state transfer leak at EndScale: chunk (transfer " << id
           << ", key-group " << chunk.key_group << ", " << chunk.from
           << " -> " << chunk.to << ") sent at t=" << chunk.sent_at
           << " never installed or aborted";
        AddViolation(AuditCheck::kProtocol, os.str());
      }
      ++outstanding;
    }
  }
  if (in_flight > outstanding) {
    std::ostringstream os;
    os << "EndScale for scale " << scale << ": transfer session reports "
       << in_flight << " chunk(s) in flight";
    AddViolation(AuditCheck::kProtocol, os.str());
  }
  active_scales_.erase(scale);
  open_subscales_.erase(scale);
}

void Auditor::OnSubscaleOpen(dataflow::ScaleId scale,
                             dataflow::SubscaleId subscale) {
  if (active_scales_.count(scale) == 0) {
    std::ostringstream os;
    os << "subscale " << subscale << " opened outside an active scaling"
       << " operation (scale " << scale << ")";
    AddViolation(AuditCheck::kProtocol, os.str());
  }
  if (!open_subscales_[scale].insert(subscale).second) {
    std::ostringstream os;
    os << "subscale " << subscale << " of scale " << scale
       << " opened twice";
    AddViolation(AuditCheck::kProtocol, os.str());
  }
}

void Auditor::OnSubscaleClose(dataflow::ScaleId scale,
                              dataflow::SubscaleId subscale) {
  auto it = open_subscales_.find(scale);
  if (it == open_subscales_.end() || it->second.erase(subscale) == 0) {
    std::ostringstream os;
    os << "subscale " << subscale << " of scale " << scale
       << " closed without being open";
    AddViolation(AuditCheck::kProtocol, os.str());
  }
}

void Auditor::OnChunkEnqueued(const StreamElement& chunk,
                              dataflow::InstanceId from,
                              dataflow::InstanceId to) {
  if (active_scales_.count(chunk.scale_id) == 0) {
    std::ostringstream os;
    os << "state chunk (transfer " << chunk.seq << ", key-group "
       << chunk.key_group << ") enqueued outside an active scaling operation"
       << " (scale " << chunk.scale_id << ")";
    AddViolation(AuditCheck::kProtocol, os.str());
  }
  if (complete_sent_.count({chunk.scale_id, chunk.subscale_id, from, to}) >
      0) {
    std::ostringstream os;
    os << "state chunk (transfer " << chunk.seq << ", key-group "
       << chunk.key_group << ") enqueued on path " << from << " -> " << to
       << " after its kScaleComplete for scale " << chunk.scale_id
       << " subscale " << chunk.subscale_id;
    AddViolation(AuditCheck::kProtocol, os.str());
  }
  auto [it, inserted] = chunks_.emplace(
      chunk.seq, ChunkInfo{ChunkState::kSent, false, chunk.scale_id,
                           chunk.subscale_id, chunk.key_group, from, to,
                           Now()});
  if (!inserted) {
    std::ostringstream os;
    os << "transfer id " << chunk.seq << " reused for a second state chunk";
    AddViolation(AuditCheck::kProtocol, os.str());
    it->second = ChunkInfo{ChunkState::kSent, false, chunk.scale_id,
                           chunk.subscale_id, chunk.key_group, from, to,
                           Now()};
  }
}

void Auditor::OnChunkAborted(uint64_t transfer_id) {
  auto it = chunks_.find(transfer_id);
  if (it != chunks_.end()) it->second.state = ChunkState::kAborted;
}

void Auditor::OnChunkInstalled(const StreamElement& chunk,
                               dataflow::InstanceId to) {
  ++chunks_installed_;
  auto it = chunks_.find(chunk.seq);
  if (it == chunks_.end()) return;  // enqueued before the auditor attached
  ChunkInfo& info = it->second;
  if (info.state == ChunkState::kInstalled) {
    std::ostringstream os;
    os << "state chunk (transfer " << chunk.seq << ", key-group "
       << info.key_group << ") installed twice at instance " << to;
    AddViolation(AuditCheck::kProtocol, os.str());
  } else if (info.state == ChunkState::kAborted) {
    std::ostringstream os;
    os << "state chunk (transfer " << chunk.seq
       << ") installed after its scale " << info.scale << " was aborted";
    AddViolation(AuditCheck::kProtocol, os.str());
  }
  info.state = ChunkState::kInstalled;
  if (info.to != to) {
    std::ostringstream os;
    os << "state chunk (transfer " << chunk.seq << ") addressed to instance "
       << info.to << " but installed at instance " << to;
    AddViolation(AuditCheck::kProtocol, os.str());
  }
}

void Auditor::OnChunkWireDropped(const StreamElement& chunk) {
  ++chunks_lost_;
  auto it = chunks_.find(chunk.seq);
  if (it != chunks_.end() && it->second.state != ChunkState::kInstalled &&
      it->second.state != ChunkState::kAborted) {
    it->second.state = ChunkState::kLost;
  }
}

void Auditor::OnChunkRetransmitted(uint64_t transfer_id,
                                   uint32_t /*attempt*/) {
  ++chunks_retransmitted_;
  auto it = chunks_.find(transfer_id);
  if (it == chunks_.end()) return;
  it->second.retransmitted = true;
  if (it->second.state == ChunkState::kLost ||
      it->second.state == ChunkState::kDelivered) {
    it->second.state = ChunkState::kSent;
  }
}

void Auditor::OnChunkForceInstalled(uint64_t transfer_id,
                                    dataflow::InstanceId to) {
  ++chunks_force_installed_;
  auto it = chunks_.find(transfer_id);
  if (it == chunks_.end()) return;
  ChunkInfo& info = it->second;
  if (info.state == ChunkState::kInstalled) {
    std::ostringstream os;
    os << "state chunk (transfer " << transfer_id
       << ") force-installed at instance " << to
       << " after a regular install";
    AddViolation(AuditCheck::kProtocol, os.str());
  }
  if (info.to != to) {
    std::ostringstream os;
    os << "state chunk (transfer " << transfer_id << ") addressed to instance "
       << info.to << " but force-installed at instance " << to;
    AddViolation(AuditCheck::kProtocol, os.str());
  }
  info.state = ChunkState::kInstalled;
}

void Auditor::OnChunkDuplicateSuppressed(const StreamElement& chunk) {
  ++duplicate_suppressed_;
  // A suppressed duplicate must correspond to an already-installed transfer;
  // suppressing a chunk that was never installed would lose state.
  auto it = chunks_.find(chunk.seq);
  if (it != chunks_.end() && it->second.state != ChunkState::kInstalled) {
    std::ostringstream os;
    os << "duplicate suppression of transfer " << chunk.seq
       << " whose chunk was never installed";
    AddViolation(AuditCheck::kProtocol, os.str());
  }
}

void Auditor::OnChunkDroppedAborted(const StreamElement& chunk) {
  ++aborted_drops_;
  // Audit note only: dropping an aborted scale's floating chunk is the
  // *correct* behavior. Tracked so chaos tests can assert it happened.
  DRRS_LOG(Debug) << "audit note: chunk of aborted scale " << chunk.scale_id
                  << " (transfer " << chunk.seq << ", key-group "
                  << chunk.key_group << ") dropped on arrival";
}

void Auditor::OnChunkUnknownInstall(const StreamElement& chunk) {
  std::ostringstream os;
  os << "install of unknown transfer id " << chunk.seq << " (key-group "
     << chunk.key_group << ", scale " << chunk.scale_id
     << ") — duplicated, corrupted or already-consumed state chunk";
  AddViolation(AuditCheck::kProtocol, os.str());
}

void Auditor::OnCompleteSent(dataflow::ScaleId scale,
                             dataflow::SubscaleId subscale,
                             dataflow::InstanceId from,
                             dataflow::InstanceId to) {
  if (active_scales_.count(scale) == 0) {
    std::ostringstream os;
    os << "kScaleComplete sent (" << from << " -> " << to
       << ") outside an active scaling operation (scale " << scale << ")";
    AddViolation(AuditCheck::kProtocol, os.str());
  }
  complete_sent_.insert({scale, subscale, from, to});
}

void Auditor::OnRailReleased(dataflow::InstanceId from,
                             dataflow::InstanceId to) {
  for (const auto& [id, chunk] : chunks_) {
    if (chunk.from != from || chunk.to != to) continue;
    if (chunk.state == ChunkState::kSent ||
        chunk.state == ChunkState::kDelivered) {
      std::ostringstream os;
      os << "scaling rail " << from << " -> " << to
         << " released with state chunk (transfer " << id << ", key-group "
         << chunk.key_group << ") still in flight";
      AddViolation(AuditCheck::kProtocol, os.str());
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

void Auditor::OnEventPopped(sim::SimTime time, uint64_t seq) {
  if (popped_any_) {
    if (time < last_pop_time_) {
      std::ostringstream os;
      os << "event time regressed: popped t=" << time << " seq=" << seq
         << " after t=" << last_pop_time_ << " seq=" << last_pop_seq_;
      AddViolation(AuditCheck::kDeterminism, os.str());
    } else if (time == last_pop_time_) {
      ++tie_pops_;
      if (seq <= last_pop_seq_) {
        std::ostringstream os;
        os << "tie-break order violated at t=" << time << ": seq " << seq
           << " popped after seq " << last_pop_seq_
           << " (insertion order must win ties)";
        AddViolation(AuditCheck::kDeterminism, os.str());
      }
    }
  }
  popped_any_ = true;
  last_pop_time_ = time;
  last_pop_seq_ = seq;
}

// ---------------------------------------------------------------------------
// Finalize / report
// ---------------------------------------------------------------------------

void Auditor::Finalize() {
  if (finalized_) return;
  finalized_ = true;
  uint64_t leaked = 0;
  for (size_t i = 0; i < records_.size(); ++i) {
    const RecordInfo& info = records_[i];
    // Shed is a legal terminal: the record was deliberately and
    // accountably removed, not lost.
    if (info.phase == Phase::kDone || info.phase == Phase::kShed) continue;
    if (leaked < 8) {
      std::ostringstream os;
      os << "record " << (i + 1) << " (key " << info.key
         << ", from instance " << info.from << ") lost: still "
         << PhaseName(info.phase) << " at end of run";
      AddViolation(AuditCheck::kConservation, os.str());
    }
    ++leaked;
  }
  if (leaked > 8) {
    AddViolation(AuditCheck::kConservation,
                 std::to_string(leaked) +
                     " record(s) total never reached an operator");
  }
  for (const auto& [id, chunk] : chunks_) {
    if (chunk.state == ChunkState::kSent ||
        chunk.state == ChunkState::kDelivered ||
        chunk.state == ChunkState::kLost) {
      std::ostringstream os;
      os << "state chunk (transfer " << id << ", key-group "
         << chunk.key_group << ", " << chunk.from << " -> " << chunk.to
         << ") sent at t=" << chunk.sent_at
         << " never installed or aborted";
      AddViolation(AuditCheck::kProtocol, os.str());
    }
  }
  for (dataflow::ScaleId scale : active_scales_) {
    AddViolation(AuditCheck::kProtocol,
                 "scale " + std::to_string(scale) + " begun but never ended");
  }
}

size_t Auditor::CountOf(AuditCheck check) const {
  size_t n = 0;
  for (const Violation& v : violations_) {
    if (v.check == check) ++n;
  }
  return n;
}

AuditReport Auditor::Report() const {
  AuditReport report;
  report.enabled = true;
  report.finalized = finalized_;
  report.violations = violations_;
  report.dropped_violations = dropped_;
  report.records_tracked = records_.size();
  report.records_processed = records_processed_;
  report.records_shed = records_shed_;
  report.chunks_tracked = chunks_.size();
  report.chunks_installed = chunks_installed_;
  report.scales_observed = scales_observed_;
  report.chunks_lost = chunks_lost_;
  report.chunks_retransmitted = chunks_retransmitted_;
  report.chunks_force_installed = chunks_force_installed_;
  report.duplicate_suppressed = duplicate_suppressed_;
  report.aborted_drops = aborted_drops_;
  report.tie_pops = tie_pops_;
  return report;
}

}  // namespace drrs::verify
