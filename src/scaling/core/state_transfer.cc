#include "scaling/core/state_transfer.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "observe/observer.h"
#include "runtime/execution_graph.h"

namespace drrs::scaling {

using dataflow::ElementKind;
using dataflow::StreamElement;

namespace {
/// Wire envelope for a state chunk even when the key-group is empty.
constexpr uint64_t kChunkEnvelopeBytes = 256;
}  // namespace

sim::SimTime ChunkRetryBackoff(const ChunkRetryPolicy& policy,
                               uint32_t attempts) {
  sim::SimTime backoff = std::min(policy.ack_timeout_base,
                                  policy.ack_timeout_max);
  for (uint32_t i = 0; i < attempts && backoff < policy.ack_timeout_max; ++i) {
    // Cap-exact doubling: once the next step would pass the cap, land on the
    // cap itself. (A raw `base << attempts` overflows int64 for attempts
    // near 63 — and for large bases much earlier — producing a negative
    // timeout that fires immediately.)
    if (backoff > policy.ack_timeout_max / 2) {
      backoff = policy.ack_timeout_max;
    } else {
      backoff *= 2;
    }
  }
  return backoff;
}

uint64_t StateTransfer::Enqueue(runtime::Task* from, net::Channel* rail,
                                state::KeyGroupState state, bool whole,
                                const StreamElement& proto, bool priority) {
  uint64_t bytes = state.TotalBytes() + kChunkEnvelopeBytes;
  uint64_t id = next_id_++;
  sim_ = from->simulator();
  StreamElement chunk = proto;
  chunk.kind = ElementKind::kStateChunk;
  chunk.from_instance = from->id();
  chunk.seq = id;
  chunk.chunk_bytes = bytes;
  Transit& transit = in_transit_[id];
  transit.state = std::move(state);
  transit.whole_group = whole;
  transit.scale = proto.scale_id;
  transit.chunk = chunk;
  transit.rail = rail;
  transit.to = rail->receiver_id();
  staging_bytes_ += bytes;
  DRRS_OBSERVE(sim_, OnChunkEnqueued(chunk, from->id(), rail->receiver_id()));
  if (priority) {
    rail->PushPriority(std::move(chunk));
  } else {
    rail->Push(std::move(chunk));
  }
  // Armed only in reliability mode: fault-free runs keep an unchanged event
  // schedule (bit-identical traces to pre-fault builds).
  if (policy_.enabled) ArmAckTimer(id);
  return bytes;
}

void StateTransfer::EnableReliability(const ChunkRetryPolicy& policy,
                                      metrics::MetricsHub* hub,
                                      double bandwidth_bytes_per_us) {
  policy_ = policy;
  policy_.enabled = true;
  bandwidth_bytes_per_us_ = bandwidth_bytes_per_us;
  hub_ = hub;
}

void StateTransfer::ArmAckTimer(uint64_t id) {
  auto it = in_transit_.find(id);
  if (it == in_transit_.end()) return;
  const Transit& transit = it->second;
  sim::SimTime backoff = ChunkRetryBackoff(policy_, transit.attempts);
  // Size-proportional slack covers the chunk's own wire time plus the
  // rail's current backlog (serializer busy time and any credit-blocked
  // queue): a migration several chunks deep legitimately delays the
  // implicit ack, and timing out on queueing delay would retransmit chunks
  // that were never lost.
  uint64_t pending_bytes = transit.chunk.chunk_bytes;
  for (const dataflow::StreamElement& e : transit.rail->output_queue()) {
    pending_bytes += e.chunk_bytes;
  }
  sim::SimTime busy = std::max<sim::SimTime>(
      0, transit.rail->link_free_at() - sim_->now());
  auto wire_slack =
      busy + static_cast<sim::SimTime>(static_cast<double>(pending_bytes) /
                                       bandwidth_bytes_per_us_);
  sim_->ScheduleAfter(backoff + wire_slack, [this, id] { OnAckTimeout(id); });
}

void StateTransfer::OnAckTimeout(uint64_t id) {
  auto it = in_transit_.find(id);
  if (it == in_transit_.end()) return;  // installed or aborted: implicit ack
  Transit& transit = it->second;
  if (transit.attempts >= policy_.max_attempts) {
    DRRS_LOG(Error) << "state transfer " << id << " (key-group "
                    << transit.chunk.key_group << ", scale " << transit.scale
                    << ") gave up after " << transit.attempts
                    << " retransmission(s)";
    return;  // surfaces as a transfer leak / scale-abort target
  }
  ++transit.attempts;
  if (hub_ != nullptr) ++hub_->recovery().chunk_retransmits;
  DRRS_OBSERVE(sim_, OnChunkRetransmitted(id, transit.attempts));
  // Priority re-send: the retransmission must not queue behind a backlog
  // that already overtook the lost chunk once.
  transit.rail->PushPriority(transit.chunk);
  ArmAckTimer(id);
}

uint64_t StateTransfer::SendKeyGroup(runtime::Task* from, net::Channel* rail,
                                     dataflow::KeyGroupId kg,
                                     dataflow::ScaleId scale,
                                     dataflow::SubscaleId subscale,
                                     bool priority) {
  DRRS_CHECK(from->state() != nullptr);
  DRRS_CHECK(from->state()->OwnsKeyGroup(kg))
      << "instance " << from->id() << " does not own key-group " << kg;
  StreamElement proto;
  proto.scale_id = scale;
  proto.subscale_id = subscale;
  proto.key_group = kg;
  return Enqueue(from, rail, from->state()->ExtractKeyGroup(kg), true, proto,
                 priority);
}

uint64_t StateTransfer::SendSubKeyGroup(runtime::Task* from,
                                        net::Channel* rail,
                                        dataflow::KeyGroupId kg, uint32_t sub,
                                        uint32_t fanout,
                                        dataflow::ScaleId scale,
                                        dataflow::SubscaleId subscale,
                                        bool priority) {
  DRRS_CHECK(from->state() != nullptr);
  StreamElement proto;
  proto.scale_id = scale;
  proto.subscale_id = subscale;
  proto.key_group = kg;
  proto.sub_key_group = sub;
  return Enqueue(from, rail, from->state()->ExtractSubKeyGroup(kg, sub, fanout),
                 false, proto, priority);
}

void StateTransfer::InstallCells(runtime::Task* to, Transit* transit) {
  DRRS_CHECK(to->state() != nullptr);
  transit->state.key_group = transit->chunk.key_group;
  if (transit->whole_group) {
    to->state()->InstallKeyGroup(std::move(transit->state));
  } else {
    to->state()->MergeCells(std::move(transit->state));
  }
  ++install_count_;
}

bool StateTransfer::Install(runtime::Task* to, const StreamElement& chunk) {
  DRRS_CHECK(chunk.kind == ElementKind::kStateChunk);
  auto it = in_transit_.find(chunk.seq);
  if (it == in_transit_.end()) {
    // A chunk whose scale was aborted mid-flight is dropped on arrival —
    // persistently, since a retransmission can surface the same id again.
    if (aborted_.count(chunk.seq) > 0) {
      DRRS_OBSERVE(to->simulator(), OnChunkDroppedAborted(chunk));
      return false;
    }
    // Reliability mode: an already-installed id is a duplicated delivery or
    // a late retransmission — suppressed idempotently.
    if (policy_.enabled && installed_.count(chunk.seq) > 0) {
      if (hub_ != nullptr) ++hub_->recovery().duplicate_installs_suppressed;
      DRRS_OBSERVE(to->simulator(), OnChunkDuplicateSuppressed(chunk));
      return false;
    }
#if DRRS_OBSERVE_BUILD
    if (verify::Auditor* auditor = to->simulator()->auditor()) {
      // Under audit a duplicated/corrupted chunk is a recorded violation,
      // not a process abort, so fault-injection tests can assert on it.
      auditor->OnChunkUnknownInstall(chunk);
      return false;
    }
#endif
    DRRS_CHECK(false) << "unknown state transfer " << chunk.seq;
    return false;
  }
  Transit transit = std::move(it->second);
  // NOLINTNEXTLINE(drrs-audit-hook-coverage): OnChunkInstalled fires after
  // the merge below completes — past the lexical pairing window, but still
  // in this function, and only on the success path this erase commits to.
  in_transit_.erase(it);
  staging_bytes_ -= transit.chunk.chunk_bytes;
  InstallCells(to, &transit);
  if (policy_.enabled) installed_.insert(chunk.seq);
  DRRS_OBSERVE(to->simulator(), OnChunkInstalled(chunk, to->id()));
  return true;
}

size_t StateTransfer::ForceComplete(dataflow::ScaleId scale,
                                    runtime::ExecutionGraph* graph,
                                    metrics::MetricsHub* hub) {
  size_t installed = 0;
  for (auto it = in_transit_.begin(); it != in_transit_.end();) {
    if (it->second.scale != scale) {
      ++it;
      continue;
    }
    Transit transit = std::move(it->second);
    uint64_t id = it->first;
    // NOLINTNEXTLINE(drrs-audit-hook-coverage): OnChunkForceInstalled fires
    // at the end of this loop body, after the forced install lands.
    it = in_transit_.erase(it);
    staging_bytes_ -= transit.chunk.chunk_bytes;
    runtime::Task* to = graph->task(transit.to);
    DRRS_CHECK(to != nullptr);
    InstallCells(to, &transit);
    // The chunk element (original or retransmitted copy) may still float on
    // the wire; remember the id so arrival drops it instead of double-
    // installing.
    aborted_.insert(id);
    ++installed;
    if (hub != nullptr) ++hub->recovery().forced_chunk_installs;
    DRRS_OBSERVE(to->simulator(), OnChunkForceInstalled(id, transit.to));
    to->WakeUp();
  }
  return installed;
}

void StateTransfer::AbortScale(dataflow::ScaleId scale) {
  for (auto it = in_transit_.begin(); it != in_transit_.end();) {
    if (it->second.scale == scale) {
      // An in-flight entry implies Enqueue ran, so sim_ is set.
      DRRS_OBSERVE(sim_, OnChunkAborted(it->first));
      aborted_.insert(it->first);
      staging_bytes_ -= it->second.chunk.chunk_bytes;
      it = in_transit_.erase(it);
    } else {
      ++it;
    }
  }
}

size_t StateTransfer::in_transit_count(dataflow::ScaleId scale) const {
  size_t n = 0;
  for (const auto& [id, transit] : in_transit_) {
    if (transit.scale == scale) ++n;
  }
  return n;
}

}  // namespace drrs::scaling
