#ifndef DRRS_NET_CHANNEL_H_
#define DRRS_NET_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/ring_deque.h"
#include "dataflow/stream_element.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"

namespace drrs::net {

/// Link parameters for one point-to-point channel. Defaults model the
/// paper's Gigabit-Ethernet testbed (1 Gbps ~ 125 bytes/us, sub-millisecond
/// propagation).
struct NetworkConfig {
  sim::SimTime base_latency = sim::Micros(500);
  double bandwidth_bytes_per_us = 125.0;
  /// Credit window: max elements in (in-flight + receiver input queue).
  size_t input_buffer_capacity = 64;
  /// Sender-side cache size; at/above this the channel reports congestion
  /// and the sending task applies backpressure.
  size_t output_buffer_capacity = 256;
};

class Channel;

/// Receiver-side callbacks, implemented by runtime::Task.
class ChannelReceiver {
 public:
  virtual ~ChannelReceiver() = default;

  /// A batch of `appended` elements was appended to the channel's input
  /// queue in one wire-event flush (elements sharing a deliverable window
  /// arrive together; `appended` is 1 for isolated arrivals). Per-element
  /// semantics — barrier handling, fault interception, audit hooks — have
  /// already run element by element on the delivery side.
  virtual void OnBatchAvailable(Channel* channel, size_t appended) = 0;

  /// A bypass (priority) control message arrived, skipping both caches —
  /// the delivery path of DRRS trigger barriers (paper Section III-A).
  virtual void OnControlBypass(Channel* channel,
                               const dataflow::StreamElement& element) = 0;
};

/// \brief Simulated point-to-point stream between two task instances.
///
/// Structure mirrors the paper's model of a Flink connection:
///
///   sender ->[output cache]->(in-flight: latency+bandwidth)->[input cache]-> receiver
///
/// * FIFO order is preserved end to end for normally pushed elements.
/// * `PushPriority` inserts at the *front* of the output cache (confirm
///   barriers: "treated as a priority message only in the output cache").
/// * `PushBypass` skips both caches entirely (trigger barriers: "bypasses all
///   in-flight data").
/// * Transmission is credit-gated by the receiver's input-cache capacity;
///   a full output cache raises `congested()` which the sending task treats
///   as backpressure.
///
/// Delivery is *batched*: wire entries whose arrival times share a
/// deliverable window (arrival <= now when the armed event fires) drain as
/// one RecordBatch with a single receiver notification, so N same-instant
/// records cost one simulator event instead of N. Conservation/FIFO audit
/// hooks and fault interception still run per record. Every queue (output
/// cache, wire, input cache) is a heap ring that keeps its buffer once grown
/// to the working set: the steady-state path performs no heap allocation.
class Channel {
 public:
  using ElementQueue = RingDeque<dataflow::StreamElement>;

  Channel(sim::Simulator* sim, const NetworkConfig& config,
          dataflow::InstanceId sender, dataflow::InstanceId receiver,
          ChannelReceiver* receiver_task);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  dataflow::InstanceId sender_id() const { return sender_id_; }
  dataflow::InstanceId receiver_id() const { return receiver_id_; }

  /// Marks this channel as a migration/re-route path (a scaling rail)
  /// between two instances of the *same* operator. Its data elements are
  /// treated as eagerly consumable re-routed events, and its watermark only
  /// constrains the receiver while the rail is open.
  void set_scaling_path(bool v) { scaling_path_ = v; }
  bool scaling_path() const { return scaling_path_; }

  /// Open or close a scaling rail. Either way the channel forgets its
  /// watermark: a rail constrains the receiver only with a watermark sent
  /// during the current opening, and a closed rail drops the watermarks
  /// still in flight on it.
  void set_rail_open(bool open) {
    rail_open_ = open;
    watermark_ = kNoWatermark;
  }
  bool rail_open() const { return rail_open_; }

  // ---- sender side ----

  /// Append to the output cache (normal data path).
  void Push(dataflow::StreamElement element);

  /// Insert at the front of the output cache, ahead of buffered records.
  void PushPriority(dataflow::StreamElement element);

  /// Deliver directly to the receiver's control handler after the base
  /// latency, ignoring both caches and the credit window.
  void PushBypass(dataflow::StreamElement element);

  /// True when the output cache is at/above capacity (backpressure signal).
  bool congested() const {
    return output_queue_.size() >= config_.output_buffer_capacity;
  }

  /// Register a persistent callback fired whenever the output cache drains
  /// below half capacity after having been congested.
  void AddDecongestListener(std::function<void()> cb) {
    decongest_listeners_.push_back(std::move(cb));
  }

  /// Remove-and-return all output-cache elements matching `pred`, preserving
  /// the relative order of both kept and extracted elements. Used by DRRS to
  /// redirect records bypassed by a confirm barrier (Section III-A) and by
  /// the checkpoint-interaction logic (Section IV-C).
  std::vector<dataflow::StreamElement> ExtractFromOutput(
      const std::function<bool(const dataflow::StreamElement&)>& pred);

  /// Like ExtractFromOutput but only considers elements positioned before
  /// the first element matching `stop`. Used when a checkpoint barrier sits
  /// in the output cache: "redirection concludes at the barrier"
  /// (Section IV-C, Fig 9a).
  std::vector<dataflow::StreamElement> ExtractFromOutputBefore(
      const std::function<bool(const dataflow::StreamElement&)>& pred,
      const std::function<bool(const dataflow::StreamElement&)>& stop);

  /// Insert `element` immediately after the first output-cache element
  /// matching `match`; returns false (and does not insert) when none
  /// matches. Implements the integrated checkpoint+scaling signal.
  bool InsertAfterFirst(
      const std::function<bool(const dataflow::StreamElement&)>& match,
      dataflow::StreamElement element);

  /// True if any output-cache element matches `pred`.
  bool OutputContains(
      const std::function<bool(const dataflow::StreamElement&)>& pred) const;

  size_t output_queue_size() const { return output_queue_.size(); }
  const ElementQueue& output_queue() const { return output_queue_; }
  size_t in_flight() const { return wire_.size(); }

  // ---- receiver side ----

  bool HasInput() const { return !input_queue_.empty(); }
  const dataflow::StreamElement& PeekInput() const {
    return input_queue_.front();
  }
  dataflow::StreamElement PopInput();

  /// Mutable access for intra-channel record scheduling (removing an element
  /// from the middle of the input cache). Caller must call
  /// `NotifyInputConsumed()` once per removed element to release credit.
  ElementQueue* mutable_input_queue() { return &input_queue_; }
  const ElementQueue& input_queue() const { return input_queue_; }
  void NotifyInputConsumed();

  /// Remove and return the input-cache element at `pos`, releasing its
  /// credit (overload load shedding). The caller is responsible for the
  /// conservation accounting of the removed record (Auditor::OnRecordShed).
  dataflow::StreamElement RemoveInputAt(size_t pos);

  size_t input_queue_size() const { return input_queue_.size(); }

  /// Re-attempt transmission after an external gate lifted (e.g. the fault
  /// plane healed a link partition). No-op when nothing can move.
  void PokeTransmit() { TryTransmit(); }

  /// When the serializer frees up (>= now while transmissions are queued on
  /// the wire). Retry timers use it to size ack timeouts to the backlog.
  sim::SimTime link_free_at() const { return link_free_at_; }

  // ---- barrier alignment (owned by the receiving task) ----

  /// Alignment flag: while set, the receiving task's input handlers skip
  /// this channel. Stored here (one flag per channel + a counter in the
  /// task) so the per-record selection loop avoids a hash-set probe.
  bool receiver_blocked() const { return receiver_blocked_; }
  void set_receiver_blocked(bool v) { receiver_blocked_ = v; }

  // ---- watermark (owned by the receiving task) ----

  /// The last watermark received on this channel; kNoWatermark until the
  /// first one arrives (and again after a rail opens or closes).
  static constexpr sim::SimTime kNoWatermark = INT64_MIN;
  sim::SimTime watermark() const { return watermark_; }
  void set_watermark(sim::SimTime wm) { watermark_ = wm; }

  // ---- stats ----
  uint64_t delivered_elements() const { return delivered_elements_; }
  /// Number of wire-batch flushes (single receiver notifications); the mean
  /// batch size is delivered_elements()/delivered_batches().
  uint64_t delivered_batches() const { return delivered_batches_; }

 private:
  /// One element travelling the simulated wire (or the bypass path), tagged
  /// with its computed arrival time. Arrival times are nondecreasing along
  /// each FIFO, so only the front entry ever needs a pending event.
  struct WireEntry {
    sim::SimTime arrival = 0;
    dataflow::StreamElement element;
  };

  void TryTransmit();
  void DeliverDueBatch();
  void MaybeFireDecongest();
  void ArmWireEvent();
  void FireWireEvent();
  void ArmBypassEvent();
  void FireBypassEvent();
  /// Elements in flight against the receiver's credit window: wire + input
  /// depth.
  size_t CreditInFlight() const { return wire_.size() + input_queue_.size(); }

  sim::Simulator* sim_;
  NetworkConfig config_;
  dataflow::InstanceId sender_id_;
  dataflow::InstanceId receiver_id_;
  ChannelReceiver* receiver_task_;

  ElementQueue output_queue_;
  ElementQueue input_queue_;
  /// In-flight FIFO: elements that left the output cache, keyed by arrival
  /// time. At most ONE event per channel is armed in the simulator's global
  /// queue (for the front entry); it re-arms itself after delivering. The
  /// due prefix drains as one batch with a single receiver notification.
  RingDeque<WireEntry> wire_;
  bool wire_event_armed_ = false;
  /// Bypass-path FIFO (trigger barriers), same single-armed-event scheme.
  RingDeque<WireEntry> bypass_;
  bool bypass_event_armed_ = false;
  sim::SimTime link_free_at_ = 0;  ///< serializer availability (FIFO wire)

  std::vector<std::function<void()>> decongest_listeners_;

  uint64_t delivered_elements_ = 0;
  uint64_t delivered_batches_ = 0;
  sim::SimTime watermark_ = kNoWatermark;
  bool scaling_path_ = false;
  bool rail_open_ = false;
  bool receiver_blocked_ = false;
  /// Set when the output cache hits capacity; cleared (with listeners fired)
  /// once it drains below half capacity.
  bool congestion_latched_ = false;
};

}  // namespace drrs::net

#endif  // DRRS_NET_CHANNEL_H_
