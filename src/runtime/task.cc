#include "runtime/task.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "observe/observer.h"
#include "runtime/checkpoint.h"

namespace drrs::runtime {

using dataflow::ElementKind;
using dataflow::StreamElement;

namespace {
constexpr sim::SimTime kControlCost = sim::Micros(2);
constexpr sim::SimTime kMarkerCost = sim::Micros(5);
/// State (de)serialization throughput during migration: ~300 MB/s, in the
/// ballpark of Flink's serializer.
constexpr double kStateSerializeBytesPerUs = 300.0;

/// Re-routed data records are handled as special events: like control
/// elements, they are eligible for eager head consumption and never gated by
/// suspension (paper Section III-A).
bool EagerlyConsumable(const StreamElement& e) {
  return e.IsControl() || e.rerouted;
}
}  // namespace

// ---------------------------------------------------------------------------
// DefaultInputHandler
// ---------------------------------------------------------------------------

InputHandler::Selection DefaultInputHandler::SelectNext(Task* task) {
  Selection sel;
  const auto& chans = task->input_channels();
  size_t n = chans.size();
  if (n == 0) return sel;
  if (cursor_ >= n) cursor_ = 0;

  // Pass 1: control elements (and re-routed records) at channel heads are
  // consumed eagerly; they are never subject to data suspension.
  for (size_t i = 0; i < n; ++i) {
    net::Channel* ch = chans[i];
    if (!ch->HasInput() || task->IsChannelBlocked(ch)) continue;
    const StreamElement& head = ch->PeekInput();
    if (!EagerlyConsumable(head)) continue;
    if (!task->HeadProcessable(ch, head)) continue;
    sel.has_element = true;
    sel.channel = ch;
    sel.element = ch->PopInput();
    return sel;
  }

  // Pass 2: Flink-like data selection. The active channel (cursor_) is
  // served until it drains; when its head record is unprocessable the task
  // suspends even if other channels hold processable records — the
  // behaviour DRRS's Record Scheduling improves on (Section III-B).
  bool any_input = false;
  for (size_t step = 0; step < n; ++step) {
    size_t idx = (cursor_ + step) % n;
    net::Channel* ch = chans[idx];
    if (!ch->HasInput()) continue;
    any_input = true;
    if (task->IsChannelBlocked(ch)) continue;
    cursor_ = idx;  // becomes (or stays) the active channel
    const StreamElement& head = ch->PeekInput();
    if (task->HeadProcessable(ch, head)) {
      sel.has_element = true;
      sel.channel = ch;
      sel.element = ch->PopInput();
      return sel;
    }
    sel.suspend = true;
    sel.reason = metrics::StallReason::kAwaitingState;
    return sel;
  }
  if (any_input) {
    // Only blocked channels hold data: alignment stall.
    sel.suspend = true;
    sel.reason = metrics::StallReason::kAlignment;
  }
  return sel;
}

std::unique_ptr<InputHandler> MakeDefaultInputHandler() {
  return std::make_unique<DefaultInputHandler>();
}

// ---------------------------------------------------------------------------
// Task
// ---------------------------------------------------------------------------

Task::Task(sim::Simulator* sim, const dataflow::OperatorSpec& spec,
           dataflow::InstanceId id, dataflow::OperatorId op, uint32_t subtask,
           const dataflow::KeySpace* key_space, metrics::MetricsHub* hub,
           bool check_invariants)
    : sim_(sim),
      spec_(spec),
      id_(id),
      op_(op),
      subtask_(subtask),
      key_space_(key_space),
      hub_(hub),
      check_invariants_(check_invariants),
      input_handler_(MakeDefaultInputHandler()) {
  if (spec_.factory) {
    operator_ = spec_.factory();
  }
}

Task::~Task() = default;

void Task::AddInputChannel(net::Channel* channel) {
  input_channels_.push_back(channel);
}

void Task::AddOutputEdge(OutputEdge edge) {
  output_edges_.push_back(std::move(edge));
}

void Task::InitState(uint32_t num_key_groups) {
  state_ = std::make_unique<state::KeyedStateBackend>(num_key_groups);
  if (operator_) operator_->Open(this);
}

void Task::InstallInputHandler(std::unique_ptr<InputHandler> handler) {
  input_handler_ = std::move(handler);
  default_handler_ = false;
  suspend_memo_ = false;
  MaybeSchedule();
}

void Task::ResetInputHandler() {
  input_handler_ = MakeDefaultInputHandler();
  default_handler_ = true;
  suspend_memo_ = false;
  MaybeSchedule();
}

void Task::BlockChannel(net::Channel* channel) {
  if (channel->receiver_blocked()) return;
  channel->set_receiver_blocked(true);
}

void Task::UnblockChannel(net::Channel* channel) {
  channel->set_receiver_blocked(false);
  suspend_memo_ = false;
  MaybeSchedule();
}

bool Task::HeadProcessable(net::Channel* channel, const StreamElement& head) {
  if (hook_) return hook_->IsProcessable(this, channel, head);
  return true;
}

void Task::Freeze() {
  frozen_ = true;
  ExitStall();
}

void Task::Unfreeze() {
  frozen_ = false;
  MaybeSchedule();
}

void Task::Crash() {
  DRRS_CHECK(!crashed_) << "task " << id_ << " crashed twice";
  crashed_ = true;
  DRRS_OBSERVE(sim_, OnTaskCrashed(id_));
  ExitStall();
  // Abandon an in-progress barrier alignment: the blocked channels must not
  // stay blocked across the restart (the coordinator's checkpoint simply
  // never completes).
  for (net::Channel* ch : ckpt_received_) {
    ch->set_receiver_blocked(false);
  }
  ckpt_active_ = false;
  ckpt_received_.clear();
  // Volatile state is gone; key-group ownership (the routing role) is not.
  if (state_ != nullptr) state_->DropAllCells();
}

uint64_t Task::Recover(const std::vector<state::KeyGroupState>& snapshot) {
  DRRS_CHECK(crashed_) << "task " << id_ << " recovered without a crash";
  crashed_ = false;
  if (state_ != nullptr) {
    for (const state::KeyGroupState& kg : snapshot) {
      // A key-group migrated away since the snapshot belongs to its new
      // owner; installing it here would fork the state.
      if (!state_->OwnsKeyGroup(kg.key_group)) continue;
      state_->InstallKeyGroup(kg);  // deep copy: snapshot stays reusable
    }
  }
  // Everything the network delivered while we were down is replayed by the
  // regular processing loop; count it for the recovery metrics.
  uint64_t replayed = 0;
  for (net::Channel* ch : input_channels_) {
    for (const StreamElement& e : ch->input_queue()) {
      if (e.kind == ElementKind::kRecord) ++replayed;
    }
  }
  suspend_memo_ = false;
  DRRS_OBSERVE(sim_, OnTaskRecovered(id_, replayed));
  MaybeSchedule();
  return replayed;
}

sim::SimTime Task::now() const { return sim_->now(); }

void Task::OnBatchAvailable(net::Channel* channel, size_t appended) {
  if (arrival_gate_ != nullptr && appended > 0) {
    // The gate sheds from the freshly appended suffix only, so the memo scan
    // below still sees exactly the elements that survived delivery.
    appended = arrival_gate_->OnArrivals(this, channel, appended);
  }
  if (suspend_memo_) {
    // A previous pass found nothing processable. A freshly delivered element
    // can only change that if it became a channel head, or if it sits within
    // the lookahead window and is itself processable. Scanning the appended
    // batch in delivery order reproduces the per-element delivery semantics
    // exactly (the first relevant element clears the memo; the rest of the
    // batch then needs no checks, as repeated MaybeSchedule calls coalesce).
    const auto& queue = channel->input_queue();
    const size_t n = queue.size();
    bool relevant = false;
    for (size_t j = n - appended; j < n && !relevant; ++j) {
      const StreamElement& fresh = queue[j];
      relevant = j == 0 || (j < 200 && !EagerlyConsumable(fresh) &&
                            HeadProcessable(channel, fresh));
    }
    if (!relevant) return;
    suspend_memo_ = false;
  }
  MaybeSchedule();
}

void Task::OnControlBypass(net::Channel* channel,
                           const StreamElement& element) {
  if (hook_) {
    hook_->OnBypass(this, channel, element);
    return;
  }
  DRRS_LOG(Warn) << "task " << id_ << ": bypass element without hook: "
                 << element.ToString();
}

void Task::ConsumeSerializationTime(uint64_t bytes) {
  auto d = static_cast<sim::SimTime>(bytes / kStateSerializeBytesPerUs);
  if (d <= 0) return;
  busy_until_ = std::max(busy_until_, sim_->now()) + d;
  busy_time_ += d;
}

void Task::MaybeSchedule() {
  if (run_scheduled_ || frozen_ || crashed_) return;
  run_scheduled_ = true;
  sim::SimTime at = std::max(sim_->now(), busy_until_);
  sim_->ScheduleRawAt(
      at,
      [](void* arg) {
        auto* self = static_cast<Task*>(arg);
        self->run_scheduled_ = false;
        self->RunOnce();
      },
      this);
}

bool Task::AnyOutputCongested() {
  bool congested = false;
  for (OutputEdge& edge : output_edges_) {
    for (net::Channel* ch : edge.channels) {
      if (ch->congested()) {
        congested = true;
        break;
      }
    }
    if (congested) break;
  }
  if (congested) {
    for (OutputEdge& edge : output_edges_) {
      for (net::Channel* ch : edge.channels) {
        if (decongest_listened_.insert(ch).second) {
          ch->AddDecongestListener([this]() { MaybeSchedule(); });
        }
      }
    }
  }
  return congested;
}

bool Task::AnyOutputCongestedFast() const {
  for (const OutputEdge& edge : output_edges_) {
    for (net::Channel* ch : edge.channels) {
      if (ch->congested()) return true;
    }
  }
  return false;
}

void Task::EnterStall(metrics::StallReason reason) {
  if (stalled_ && stall_reason_ == reason) return;
  ExitStall();
  stalled_ = true;
  stall_reason_ = reason;
  stall_since_ = sim_->now();
}

void Task::ExitStall() {
  if (!stalled_) return;
  stalled_ = false;
  hub_->scaling().RecordStall(stall_reason_, stall_since_, sim_->now());
  DRRS_OBSERVE(sim_, OnTaskStall(id_, op_, stall_reason_, stall_since_,
                                 sim_->now()));
}

void Task::RunOnce() {
  if (frozen_ || crashed_) return;
  if (AnyOutputCongested()) {
    EnterStall(metrics::StallReason::kBackpressure);
    return;  // decongest listener re-arms us
  }
  InputHandler::Selection sel = input_handler_->SelectNext(this);
  if (!sel.has_element) {
    if (sel.suspend) {
      EnterStall(sel.reason);
      suspend_memo_ = true;
    } else {
      ExitStall();  // idle, not suspended
    }
    return;  // OnElementAvailable / WakeUp re-arms us
  }
  ExitStall();
  suspend_memo_ = false;
  Dispatch(sel.channel, std::move(sel.element));
  MaybeSchedule();
}

void Task::Dispatch(net::Channel* channel, StreamElement element) {
  switch (element.kind) {
    case ElementKind::kRecord:
      ProcessDataRecord(channel, element);
      return;
    case ElementKind::kLatencyMarker:
      busy_until_ = sim_->now() + kMarkerCost;
      if (spec_.is_sink) {
        hub_->RecordMarkerLatency(sim_->now(), element.create_time);
      } else {
        ForwardMarker(element);
      }
      return;
    case ElementKind::kWatermark:
      busy_until_ = sim_->now() + kControlCost;
      HandleWatermark(channel, element.event_time);
      return;
    case ElementKind::kCheckpointBarrier:
      busy_until_ = sim_->now() + kControlCost;
      if (hook_ && hook_->OnCheckpointBarrier(this, channel, element)) return;
      OnCheckpointBarrierDefault(channel, element);
      return;
    default:
      busy_until_ = sim_->now() + kControlCost;
      if (hook_ && hook_->OnControl(this, channel, element)) return;
      DRRS_LOG(Warn) << "task " << id_ << ": unhandled control element "
                     << element.ToString();
      return;
  }
}

void Task::ProcessDataRecord(net::Channel* channel, StreamElement& element) {
  if (hook_ && hook_->InterceptRecord(this, channel, element)) {
    busy_until_ = sim_->now() + kControlCost;
    return;
  }
  DRRS_OBSERVE(sim_, OnRecordProcessed(element, op_, id_));
  CheckRecordInvariants(element);
  busy_until_ = sim_->now() + spec_.record_cost;
  busy_time_ += spec_.record_cost;
  ++processed_records_;
  if (spec_.is_sink) {
    hub_->RecordSinkArrival(sim_->now());
    if (sink_collector_) sink_collector_->OnRecord(sim_->now(), element);
    return;
  }
  DRRS_CHECK(operator_ != nullptr);
  operator_->ProcessRecord(element, this);
}

void Task::ProcessRecordDirect(const StreamElement& record) {
  StreamElement copy = record;
  DRRS_OBSERVE(sim_, OnRecordProcessed(copy, op_, id_));
  CheckRecordInvariants(copy);
  busy_until_ = std::max(busy_until_, sim_->now()) + spec_.record_cost;
  busy_time_ += spec_.record_cost;
  ++processed_records_;
  if (spec_.is_sink) {
    hub_->RecordSinkArrival(sim_->now());
    if (sink_collector_) sink_collector_->OnRecord(sim_->now(), copy);
    return;
  }
  DRRS_CHECK(operator_ != nullptr);
  operator_->ProcessRecord(copy, this);
}

void Task::CheckRecordInvariants(const StreamElement& record) {
  auto& inv = hub_->invariants();
  // Every stamped record is checked: stamps exist exactly when invariant
  // checks are on or an Auditor is attached (StampOutgoing).
  if (record.seq > 0) {
    inv.CheckOrder(op_, record.from_instance, record.key, record.seq);
  }
  if (!check_invariants_) return;
  if (spec_.is_stateful && state_ != nullptr) {
    dataflow::KeyGroupId kg = key_space_->KeyGroupOf(record.key);
    if (!state_->OwnsKeyGroup(kg) &&
        !(hook_ && hook_->AllowsMissingState())) {
      ++inv.state_miss_processing;
    }
  }
}

void Task::HandleWatermark(net::Channel* channel, sim::SimTime wm) {
  if (channel == nullptr) return;
  // A watermark still in flight when its rail closed constrains nothing.
  if (channel->scaling_path() && !channel->rail_open()) return;
  if (wm <= channel->watermark()) return;
  channel->set_watermark(wm);
  RecomputeWatermark();
}

void Task::RecomputeWatermark() {
  sim::SimTime wm = sim::kSimTimeMax;
  for (const net::Channel* ch : input_channels_) {
    if (ch->watermark() != net::Channel::kNoWatermark) {
      wm = std::min(wm, ch->watermark());
    } else if (!ch->scaling_path()) {
      return;  // the operator watermark needs every regular channel
    }
  }
  if (wm == sim::kSimTimeMax || wm <= operator_watermark_) return;
  operator_watermark_ = wm;
  if (operator_) operator_->ProcessWatermark(wm, this);
  if (hook_) hook_->OnWatermarkAdvance(this, wm);
  if (!spec_.is_sink) {
    StreamElement w = dataflow::MakeWatermark(wm);
    w.from_instance = id_;
    BroadcastControl(w);
  }
}

void Task::ForwardMarker(const StreamElement& marker) {
  for (OutputEdge& edge : output_edges_) {
    if (edge.channels.empty()) continue;
    uint32_t target = edge.rr_cursor++ % edge.channels.size();
    StreamElement m = marker;
    m.from_instance = id_;
    edge.channels[target]->Push(std::move(m));
  }
}

void Task::StampOutgoing(StreamElement* element) {
  element->from_instance = id_;
  bool stamp = check_invariants_;
  // Audited runs check order even with the other invariant checks off.
  DRRS_OBSERVE_ONLY(stamp = stamp || sim_->auditor() != nullptr;)
  if (stamp && element->kind == ElementKind::kRecord) {
    element->seq = ++emit_seq_;
  }
}

void Task::Emit(const StreamElement& record) {
  busy_until_ = std::max(busy_until_, sim_->now()) + spec_.emit_cost;
  for (OutputEdge& edge : output_edges_) {
    if (edge.channels.empty()) continue;
    StreamElement e = record;
    e.from_instance = id_;
    e.seq = 0;
    e.audit_id = 0;  // operator emission: a new logical element
    uint32_t target = 0;
    switch (edge.partitioning) {
      case dataflow::Partitioning::kHash:
        // Emission stamps underpin the per-(sender, key) order invariant;
        // they are only meaningful on keyed edges (rebalance legitimately
        // spreads a key across consumer subtasks).
        StampOutgoing(&e);
        target = edge.routing.TargetOf(key_space_->KeyGroupOf(e.key));
        break;
      case dataflow::Partitioning::kRebalance:
        target = edge.rr_cursor++ % edge.channels.size();
        break;
      case dataflow::Partitioning::kForward:
        target = subtask_ % edge.channels.size();
        break;
    }
    DRRS_CHECK(target < edge.channels.size());
    edge.channels[target]->Push(std::move(e));
  }
}

void Task::BroadcastControl(const StreamElement& element) {
  for (OutputEdge& edge : output_edges_) {
    for (net::Channel* ch : edge.channels) {
      StreamElement e = element;
      e.from_instance = id_;
      ch->Push(std::move(e));
    }
  }
}

bool Task::HasQueuedCheckpointBarrier() const {
  for (net::Channel* ch : input_channels_) {
    for (const StreamElement& e : ch->input_queue()) {
      if (e.kind == ElementKind::kCheckpointBarrier) return true;
    }
  }
  return false;
}

void Task::OnCheckpointBarrierDefault(net::Channel* channel,
                                      const StreamElement& barrier) {
  if (!ckpt_active_) {
    ckpt_active_ = true;
    ckpt_id_ = barrier.checkpoint_id;
    ckpt_received_.clear();
    // Align over the regular channels present now; channels added by a
    // scaling operation mid-alignment never carry this barrier.
    ckpt_expected_ = 0;
    for (net::Channel* ch : input_channels_) {
      if (!ch->scaling_path()) ++ckpt_expected_;
    }
  }
  DRRS_CHECK(ckpt_id_ == barrier.checkpoint_id);
  if (std::find(ckpt_received_.begin(), ckpt_received_.end(), channel) ==
      ckpt_received_.end()) {
    ckpt_received_.push_back(channel);
  }
  BlockChannel(channel);
  if (ckpt_received_.size() < ckpt_expected_) return;
  // Aligned: snapshot, forward, unblock.
  if (state_ != nullptr) {
    // Snapshot cost modeled at ~500 bytes/us of serialized state.
    busy_until_ = sim_->now() + static_cast<sim::SimTime>(
                                    state_->TotalBytes() / 500.0);
  }
  if (checkpoint_coordinator_ != nullptr) {
    std::vector<state::KeyGroupState> snapshot;
    if (state_ != nullptr) snapshot = state_->Snapshot();
    checkpoint_coordinator_->OnSnapshot(this, ckpt_id_, std::move(snapshot));
  }
  if (!spec_.is_sink) BroadcastControl(barrier);
  for (net::Channel* ch : ckpt_received_) UnblockChannel(ch);
  ckpt_active_ = false;
  ckpt_received_.clear();
}

}  // namespace drrs::runtime
