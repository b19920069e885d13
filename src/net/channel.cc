#include "net/channel.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/logging.h"
#include "net/fault_plane.h"
#include "observe/observer.h"

namespace drrs::net {

using dataflow::StreamElement;

Channel::Channel(sim::Simulator* sim, const NetworkConfig& config,
                 dataflow::InstanceId sender, dataflow::InstanceId receiver,
                 ChannelReceiver* receiver_task)
    : sim_(sim),
      config_(config),
      sender_id_(sender),
      receiver_id_(receiver),
      receiver_task_(receiver_task) {
  DRRS_CHECK(receiver_task_ != nullptr);
  DRRS_CHECK(config_.bandwidth_bytes_per_us > 0);
}

void Channel::Push(StreamElement element) {
  DRRS_OBSERVE(sim_, OnElementPushed(&element));
  output_queue_.push_back(std::move(element));
  if (congested() && !congestion_latched_) {
    congestion_latched_ = true;
    DRRS_OBSERVE(sim_, OnBackpressureOnset(sender_id_, receiver_id_));
  }
  TryTransmit();
}

void Channel::PushPriority(StreamElement element) {
  DRRS_OBSERVE(sim_, OnElementPushed(&element));
  output_queue_.push_front(std::move(element));
  if (congested() && !congestion_latched_) {
    congestion_latched_ = true;
    DRRS_OBSERVE(sim_, OnBackpressureOnset(sender_id_, receiver_id_));
  }
  TryTransmit();
}

void Channel::PushBypass(StreamElement element) {
  // Control messages on the bypass path are tiny; model pure propagation.
  // now() is nondecreasing, so bypass arrivals are FIFO like the wire's.
  sim::SimTime arrival = sim_->now() + config_.base_latency;
  bypass_.push_back(WireEntry{arrival, std::move(element)});
  ArmBypassEvent();
}

std::vector<StreamElement> Channel::ExtractFromOutput(
    const std::function<bool(const StreamElement&)>& pred) {
  std::vector<StreamElement> extracted;
  const size_t n = output_queue_.size();
  size_t r = 0;
  while (r < n && !pred(output_queue_[r])) ++r;
  if (r == n) return extracted;  // nothing matches: leave the cache untouched
  // Compact in place: kept elements slide forward over the extracted ones,
  // preserving the relative order of both sequences.
  size_t w = r;
  for (; r < n; ++r) {
    StreamElement& e = output_queue_[r];
    if (pred(e)) {
      extracted.push_back(std::move(e));
    } else {
      output_queue_[w++] = std::move(e);
    }
  }
  output_queue_.truncate(w);
  DRRS_OBSERVE(sim_, OnElementsExtracted(extracted));
  MaybeFireDecongest();
  return extracted;
}

std::vector<StreamElement> Channel::ExtractFromOutputBefore(
    const std::function<bool(const StreamElement&)>& pred,
    const std::function<bool(const StreamElement&)>& stop) {
  std::vector<StreamElement> extracted;
  const size_t n = output_queue_.size();
  size_t r = 0;
  for (; r < n; ++r) {
    if (stop(output_queue_[r])) return extracted;  // barrier before any match
    if (pred(output_queue_[r])) break;
  }
  if (r == n) return extracted;
  size_t w = r;
  bool stopped = false;
  for (; r < n; ++r) {
    StreamElement& e = output_queue_[r];
    if (!stopped && stop(e)) stopped = true;
    if (!stopped && pred(e)) {
      extracted.push_back(std::move(e));
    } else {
      output_queue_[w++] = std::move(e);
    }
  }
  output_queue_.truncate(w);
  DRRS_OBSERVE(sim_, OnElementsExtracted(extracted));
  MaybeFireDecongest();
  return extracted;
}

bool Channel::InsertAfterFirst(
    const std::function<bool(const StreamElement&)>& match,
    StreamElement element) {
  for (size_t i = 0; i < output_queue_.size(); ++i) {
    if (match(output_queue_[i])) {
      output_queue_.insert(i + 1, std::move(element));
      return true;
    }
  }
  return false;
}

bool Channel::OutputContains(
    const std::function<bool(const StreamElement&)>& pred) const {
  for (const StreamElement& e : output_queue_) {
    if (pred(e)) return true;
  }
  return false;
}

StreamElement Channel::PopInput() {
  DRRS_CHECK(!input_queue_.empty());
  StreamElement e = std::move(input_queue_.front());
  // NOLINTNEXTLINE(drrs-audit-hook-coverage): consumption is observed at
  // delivery (OnElementDelivered) and extraction (OnElementsExtracted);
  // the pop itself is credit bookkeeping via NotifyInputConsumed().
  input_queue_.pop_front();
  NotifyInputConsumed();
  return e;
}

StreamElement Channel::RemoveInputAt(size_t pos) {
  DRRS_CHECK(pos < input_queue_.size());
  StreamElement e = std::move(input_queue_[pos]);
  // NOLINTNEXTLINE(drrs-audit-hook-coverage): the overload controller fires
  // Auditor::OnRecordShed for every removal before calling this; the erase
  // itself is credit bookkeeping via NotifyInputConsumed().
  input_queue_.erase(pos);
  NotifyInputConsumed();
  return e;
}

void Channel::NotifyInputConsumed() {
  // Credit released: the wire may admit the next buffered element.
  TryTransmit();
}

void Channel::TryTransmit() {
  FaultPlane* faults = sim_->fault_plane();
  bool sent = false;
  while (!output_queue_.empty() &&
         CreditInFlight() < config_.input_buffer_capacity) {
    if (faults != nullptr && !faults->AllowTransmit(*this)) break;
    StreamElement e = std::move(output_queue_.front());
    output_queue_.pop_front();
    sent = true;
    DRRS_OBSERVE(sim_, OnElementTransmitted(e));
    double bandwidth = config_.bandwidth_bytes_per_us;
    sim::SimTime extra_delay = 0;
    bool duplicate = false;
    if (faults != nullptr) {
      bandwidth *= faults->BandwidthFactor(*this);
      if (e.kind == dataflow::ElementKind::kStateChunk) {
        ChunkFaultDecision verdict = faults->OnChunkTransmit(*this, e);
        if (verdict.drop) {
          // Lost on the wire: the serializer still spent the time, the
          // receiver never sees it. Recovery is the sender's ack timeout.
          sim::SimTime lost_depart = std::max(sim_->now(), link_free_at_);
          link_free_at_ =
              lost_depart + static_cast<sim::SimTime>(
                                static_cast<double>(e.WireBytes()) / bandwidth);
          DRRS_OBSERVE(sim_, OnChunkWireDropped(e));
          continue;
        }
        extra_delay = verdict.extra_delay;
        duplicate = verdict.duplicate;
      }
    }
    sim::SimTime depart = std::max(sim_->now(), link_free_at_);
    auto transfer = static_cast<sim::SimTime>(
        static_cast<double>(e.WireBytes()) / bandwidth);
    link_free_at_ = depart + transfer + extra_delay;
    sim::SimTime arrival = link_free_at_ + config_.base_latency;
    if (e.kind == dataflow::ElementKind::kStateChunk) {
      DRRS_OBSERVE(sim_, OnChunkWireFlight(e, sender_id_, receiver_id_,
                                           depart, arrival));
    }
    // A duplicated chunk consumes one extra credit; skip the copy when the
    // window cannot admit it (the injector only best-effort duplicates).
    if (duplicate && CreditInFlight() + 1 < config_.input_buffer_capacity) {
      StreamElement copy = e;
      copy.audit_id = 0;  // untracked by conservation: same logical element
      wire_.push_back(WireEntry{arrival, std::move(copy)});
    }
    wire_.push_back(WireEntry{arrival, std::move(e)});
  }
  if (sent) {
    ArmWireEvent();
    MaybeFireDecongest();
  }
}

void Channel::ArmWireEvent() {
  if (wire_event_armed_ || wire_.empty()) return;
  wire_event_armed_ = true;
  sim_->ScheduleRawAt(
      wire_.front().arrival,
      [](void* arg) { static_cast<Channel*>(arg)->FireWireEvent(); }, this);
}

void Channel::FireWireEvent() {
  // The armed flag stays set while draining so reentrant TryTransmit calls
  // (a receiver consuming synchronously releases credit) cannot double-arm.
  // The outer loop re-checks after each batch: a synchronous consumer can
  // release credit and admit fresh wire entries due at the same instant.
  while (!wire_.empty() && wire_.front().arrival <= sim_->now()) {
    DeliverDueBatch();
  }
  wire_event_armed_ = false;
  ArmWireEvent();
}

void Channel::DeliverDueBatch() {
  // RecordBatch flush: move the due prefix of the wire into the input cache
  // element by element (hooks and stats stay per-record), then notify the
  // receiver once for the whole batch.
  const sim::SimTime now = sim_->now();
  size_t batch = 0;
  while (!wire_.empty() && wire_.front().arrival <= now) {
    StreamElement e = std::move(wire_.front().element);
    wire_.pop_front();
    ++delivered_elements_;
    DRRS_OBSERVE(sim_, OnElementDelivered(e, wire_.size(),
                                          input_queue_.size() + 1,
                                          config_.input_buffer_capacity,
                                          receiver_id_));
    input_queue_.push_back(std::move(e));
    ++batch;
  }
  ++delivered_batches_;
  receiver_task_->OnBatchAvailable(this, batch);
  // Note: we do not TryTransmit() here; credit was consumed, not released.
}

void Channel::ArmBypassEvent() {
  if (bypass_event_armed_ || bypass_.empty()) return;
  bypass_event_armed_ = true;
  sim_->ScheduleRawAt(
      bypass_.front().arrival,
      [](void* arg) { static_cast<Channel*>(arg)->FireBypassEvent(); }, this);
}

void Channel::FireBypassEvent() {
  while (!bypass_.empty() && bypass_.front().arrival <= sim_->now()) {
    StreamElement e = std::move(bypass_.front().element);
    bypass_.pop_front();
    receiver_task_->OnControlBypass(this, e);
  }
  bypass_event_armed_ = false;
  ArmBypassEvent();
}

void Channel::MaybeFireDecongest() {
  if (!congestion_latched_) return;
  if (output_queue_.size() >= config_.output_buffer_capacity / 2) return;
  congestion_latched_ = false;
  DRRS_OBSERVE(sim_, OnBackpressureRelease(sender_id_, receiver_id_));
  for (auto& cb : decongest_listeners_) cb();
}

}  // namespace drrs::net
