#ifndef DRRS_DATAFLOW_STREAM_ELEMENT_H_
#define DRRS_DATAFLOW_STREAM_ELEMENT_H_

#include <cstdint>
#include <string>

#include "sim/sim_time.h"

namespace drrs::dataflow {

/// Identifier types used across the engine.
using KeyT = uint64_t;
using InstanceId = uint32_t;   ///< Global task-instance id in ExecutionGraph.
using OperatorId = uint32_t;   ///< Logical operator id in JobGraph.
using KeyGroupId = uint32_t;   ///< Key-group index (atomic migration unit).
using ScaleId = uint64_t;      ///< Id of one scaling operation.
using SubscaleId = uint32_t;   ///< Id of a subscale within a scaling op.

/// What kind of element flows on a channel. Data-plane kinds carry user data;
/// the rest are control messages used by checkpointing and the scaling
/// mechanisms (paper Sections III and IV).
enum class ElementKind : uint8_t {
  kRecord = 0,         ///< Keyed data record.
  kLatencyMarker,      ///< End-to-end latency probe; bypasses window logic.
  kWatermark,          ///< Event-time watermark (broadcast).
  kCheckpointBarrier,  ///< Aligned-checkpoint barrier (broadcast).
  kTriggerBarrier,     ///< DRRS trigger barrier: priority, bypasses caches.
  kConfirmBarrier,     ///< DRRS/coupled confirm barrier: routing confirmation.
  kStateChunk,         ///< Migrating state of one (sub-)key-group.
  kFetchRequest,       ///< Meces fetch-on-demand request (new -> old).
  kScaleComplete,      ///< Marks end of a migration stream on a scaling path.
};

/// \brief The unit that flows through channels.
///
/// A deliberately flat POD: one type for data and control keeps channel and
/// input-gate code simple and cache-friendly. Unused fields are zero.
struct StreamElement {
  ElementKind kind = ElementKind::kRecord;

  // --- data-plane fields ---
  KeyT key = 0;                 ///< Record key (also used by state chunks).
  int64_t value = 0;            ///< Payload value consumed by operators.
  sim::SimTime event_time = 0;  ///< Event timestamp (watermark value too).
  sim::SimTime create_time = 0; ///< Ingestion time (latency accounting).
  uint32_t payload_bytes = 0;   ///< Modeled wire size of the element.
  /// Sender's emission counter, stamped on keyed edges when order checks are
  /// on (0 = unstamped). It rises in emission order, so it rises within each
  /// (sender, key) stream; receivers check that per stream.
  uint64_t seq = 0;

  // --- provenance ---
  InstanceId from_instance = 0; ///< Sender task instance (set on emission).
  /// Conservation-audit identity, assigned at first channel Push when a
  /// verify::Auditor is installed (DRRS_OBSERVE builds); 0 = untracked. The
  /// field exists unconditionally so element layout — and therefore every
  /// golden trace — is identical between audit and non-audit builds.
  uint64_t audit_id = 0;

  // --- control-plane fields ---
  uint64_t checkpoint_id = 0;
  ScaleId scale_id = 0;
  SubscaleId subscale_id = 0;
  KeyGroupId key_group = 0;     ///< State chunk / fetch target key-group.
  uint32_t sub_key_group = 0;   ///< Meces hierarchical unit within key_group.
  uint64_t chunk_bytes = 0;     ///< State chunk serialized size.
  bool rerouted = false;        ///< True once re-routed old->new (E_p path).

  bool IsData() const {
    return kind == ElementKind::kRecord || kind == ElementKind::kLatencyMarker;
  }
  bool IsControl() const { return !IsData(); }

  /// Wire size used by the network model (control messages are small).
  uint64_t WireBytes() const {
    if (kind == ElementKind::kStateChunk) return chunk_bytes;
    if (IsData()) return payload_bytes;
    return 64;  // control message envelope
  }

  std::string ToString() const;
};

/// Factory helpers for the common element kinds.
StreamElement MakeRecord(KeyT key, int64_t value, sim::SimTime event_time,
                         sim::SimTime create_time, uint32_t payload_bytes);
StreamElement MakeLatencyMarker(sim::SimTime create_time);
StreamElement MakeWatermark(sim::SimTime watermark);
StreamElement MakeCheckpointBarrier(uint64_t checkpoint_id);

}  // namespace drrs::dataflow

#endif  // DRRS_DATAFLOW_STREAM_ELEMENT_H_
