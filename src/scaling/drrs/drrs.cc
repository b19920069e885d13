#include "scaling/drrs/drrs.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "runtime/checkpoint.h"

namespace drrs::scaling {

using dataflow::ElementKind;
using dataflow::StreamElement;
using runtime::Task;

// ---------------------------------------------------------------------------
// Option presets
// ---------------------------------------------------------------------------

DrrsOptions FullDrrsOptions() { return DrrsOptions{}; }

DrrsOptions DrOnlyOptions() {
  DrrsOptions o;
  o.scheduling = Scheduling::kNone;
  o.max_key_groups_per_subscale = 0;  // single subscale per path
  return o;
}

DrrsOptions ScheduleOnlyOptions() {
  DrrsOptions o;
  o.decoupled_signals = false;
  o.scheduling = Scheduling::kInterIntra;
  o.max_key_groups_per_subscale = 0;
  return o;
}

DrrsOptions SubscaleOnlyOptions() {
  DrrsOptions o;
  o.decoupled_signals = false;  // coupled signals interfere (Fig 7a)
  o.scheduling = Scheduling::kNone;
  o.max_key_groups_per_subscale = 8;
  return o;
}

DrrsOptions MegaphoneOptions() {
  DrrsOptions o;
  o.decoupled_signals = false;
  // The authors add DRRS's 200-record buffer to Megaphone for fairness
  // (Section V-A), so it gets the same Record Scheduling handler.
  o.scheduling = Scheduling::kInterIntra;
  o.max_key_groups_per_subscale = 1;  // Naive Division: unit = key-group
  o.global_concurrency = 1;           // strictly sequential units
  o.announce_all_signals_upfront = true;  // timestamp-driven semantics
  o.greedy_subscale_order = false;
  return o;
}

// ---------------------------------------------------------------------------
// Hook and input handler
// ---------------------------------------------------------------------------

/// Thin dispatcher: forwards every task event to the strategy.
class DrrsTaskHook : public runtime::TaskHook {
 public:
  explicit DrrsTaskHook(DrrsStrategy* strategy) : strategy_(strategy) {}

  bool OnControl(Task* task, net::Channel* channel,
                 const StreamElement& e) override {
    return strategy_->HandleControl(task, channel, e);
  }
  void OnBypass(Task* task, net::Channel* channel,
                const StreamElement& e) override {
    strategy_->HandleBypass(task, channel, e);
  }
  bool InterceptRecord(Task* task, net::Channel* channel,
                       StreamElement& e) override {
    return strategy_->HandleInterceptRecord(task, channel, e);
  }
  bool IsProcessable(Task* task, net::Channel* channel,
                     const StreamElement& e) override {
    return strategy_->HandleIsProcessable(task, channel, e);
  }
  void OnWatermarkAdvance(Task* task, sim::SimTime wm) override {
    strategy_->core_.rails().ForwardWatermark(task, wm);
  }
  bool OnCheckpointBarrier(Task* task, net::Channel* channel,
                           const StreamElement& e) override {
    return strategy_->HandleCheckpointBarrier(task, channel, e);
  }

 private:
  DrrsStrategy* strategy_;
};

namespace {
bool EagerHead(const StreamElement& e) { return e.IsControl() || e.rerouted; }

/// Intra-channel lookahead depth of Scheduling::kInterIntra (the paper's
/// 200-record buffer).
constexpr size_t kIntraChannelBuffer = 200;
}  // namespace

/// Record Scheduling (Section III-B): inter-channel switching plus bounded
/// intra-channel lookahead that never crosses control elements.
class DrrsInputHandler : public runtime::InputHandler {
 public:
  explicit DrrsInputHandler(const DrrsOptions* options) : options_(options) {}

  Selection SelectNext(Task* task) override {
    Selection sel;
    const auto& chans = task->input_channels();
    size_t n = chans.size();
    if (n == 0) return sel;
    if (cursor_ >= n) cursor_ = 0;

    // Eager control / re-routed heads first (same as the default handler).
    for (size_t i = 0; i < n; ++i) {
      net::Channel* ch = chans[i];
      if (!ch->HasInput() || task->IsChannelBlocked(ch)) continue;
      const StreamElement& head = ch->PeekInput();
      if (!EagerHead(head)) continue;
      if (!task->HeadProcessable(ch, head)) continue;
      sel.has_element = true;
      sel.channel = ch;
      sel.element = ch->PopInput();
      return sel;
    }

    // Inter-channel Scheduling: take the first processable data head,
    // scanning every channel instead of suspending on the active one.
    bool any_input = false;
    for (size_t step = 0; step < n; ++step) {
      size_t idx = (cursor_ + step) % n;
      net::Channel* ch = chans[idx];
      if (!ch->HasInput()) continue;
      any_input = true;
      if (task->IsChannelBlocked(ch)) continue;
      const StreamElement& head = ch->PeekInput();
      if (!task->HeadProcessable(ch, head)) continue;
      cursor_ = idx;
      sel.has_element = true;
      sel.channel = ch;
      sel.element = ch->PopInput();
      return sel;
    }
    if (!any_input) return sel;  // idle

    // Intra-channel Scheduling: bypass unprocessable records within a
    // channel, up to the bounded buffer, never crossing a control element
    // (watermarks, barriers) to preserve time semantics.
    if (options_->scheduling == Scheduling::kInterIntra) {
      for (size_t step = 0; step < n; ++step) {
        size_t idx = (cursor_ + step) % n;
        net::Channel* ch = chans[idx];
        if (!ch->HasInput() || task->IsChannelBlocked(ch)) continue;
        if (ch->scaling_path()) continue;  // rail heads handled eagerly
        auto* queue = ch->mutable_input_queue();
        size_t depth = std::min(queue->size(), kIntraChannelBuffer);
        for (size_t i = 0; i < depth; ++i) {
          const StreamElement& e = (*queue)[i];
          if (e.IsControl() || e.rerouted) break;  // never cross signals
          if (!task->HeadProcessable(ch, e)) continue;
          sel.has_element = true;
          sel.channel = ch;
          sel.element = (*queue)[i];
          queue->erase(i);
          ch->NotifyInputConsumed();
          return sel;
        }
      }
    }

    sel.suspend = true;
    sel.reason = metrics::StallReason::kAwaitingState;
    return sel;
  }

 private:
  const DrrsOptions* options_;
  size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// DrrsStrategy
// ---------------------------------------------------------------------------

DrrsStrategy::DrrsStrategy(runtime::ExecutionGraph* graph, DrrsOptions options,
                           std::string name)
    : ScalingStrategy(graph),
      options_(options),
      name_(std::move(name)),
      hook_(std::make_unique<DrrsTaskHook>(this)) {}

DrrsStrategy::~DrrsStrategy() = default;

DrrsStrategy::InstanceCtx& DrrsStrategy::CtxOf(Task* task) {
  return ctx_[task->id()];
}

Status DrrsStrategy::StartScale(const ScalePlan& plan) {
  DRRS_RETURN_NOT_OK(ValidatePlan(plan, /*check_ownership=*/done()));
  if (!done()) {
    if (plan.op != plan_.op) {
      return Status::FailedPrecondition(
          "another operator is scaling; concurrent ops on distinct operators "
          "need separate strategy instances");
    }
    // Supersession (Section IV-B): drop queued subscales, let active ones
    // finish, then restart from live ownership with the new target.
    queue_.clear();
    pending_plan_ = plan;
    has_pending_plan_ = true;
    if (core_.open_subscales().empty()) FinishScale();
    return Status::OK();
  }
  // Section IV-C: scaling and fault tolerance never start concurrently —
  // wait out an in-flight checkpoint, then begin.
  runtime::CheckpointCoordinator* ckpt = graph_->checkpoint_coordinator();
  if (ckpt != nullptr && ckpt->AnyIncomplete()) {
    core_.MarkActive();
    begin_deferred_ = true;
    ScalePlan deferred = plan;
    WaitForCheckpointThenBegin(deferred);
    return Status::OK();
  }
  BeginPlan(plan);
  return Status::OK();
}

void DrrsStrategy::WaitForCheckpointThenBegin(const ScalePlan& plan) {
  if (!begin_deferred_) return;  // withdrawn by a cancel while waiting
  runtime::CheckpointCoordinator* ckpt = graph_->checkpoint_coordinator();
  if (ckpt != nullptr && ckpt->AnyIncomplete()) {
    ScalePlan deferred = plan;
    graph_->sim()->ScheduleAfter(sim::Millis(5), [this, deferred]() {
      WaitForCheckpointThenBegin(deferred);
    });
    return;
  }
  // Ownership may have been unchanged while waiting (no migrations run
  // during a checkpoint), so the plan is still valid.
  BeginPlan(plan);
}

void DrrsStrategy::BeginPlan(const ScalePlan& plan) {
  begin_deferred_ = false;
  plan_ = plan;
  core_.BeginScale();
  EnsureInstances(plan_);
  predecessors_ = graph_->PredecessorTasksOf(plan_.op);
  DRRS_CHECK(!predecessors_.empty());

  uint32_t max_per_subscale = options_.max_key_groups_per_subscale == 0
                                  ? UINT32_MAX
                                  : options_.max_key_groups_per_subscale;
  subscales_ = Planner::DivideSubscales(plan_, max_per_subscale);
  subscale_index_.clear();
  for (size_t i = 0; i < subscales_.size(); ++i) {
    subscale_index_[subscales_[i].id] = i;
  }
  queue_.clear();
  if (options_.greedy_subscale_order) {
    for (size_t i : Planner::GreedyOrder(plan_, subscales_)) queue_.push_back(i);
  } else {
    for (size_t i = 0; i < subscales_.size(); ++i) queue_.push_back(i);
  }

  for (Task* t : graph_->instances_of(plan_.op)) {
    core_.AttachHook(t, hook_.get());
    if (options_.scheduling != Scheduling::kNone) {
      t->InstallInputHandler(std::make_unique<DrrsInputHandler>(&options_));
    }
  }

  if (options_.announce_all_signals_upfront) {
    for (const Subscale& s : subscales_) {
      hub_->scaling().RecordSignalInjection(s.id, graph_->sim()->now());
    }
  }

  if (subscales_.empty()) {
    FinishScale();
    return;
  }
  TryLaunch();
}

bool DrrsStrategy::CanLaunch(const Subscale& s) const {
  const std::set<dataflow::SubscaleId>& active = core_.open_subscales();
  if (options_.global_concurrency > 0 &&
      active.size() >= options_.global_concurrency) {
    return false;
  }
  auto active_touching = [&](uint32_t subtask) {
    uint32_t count = 0;
    for (dataflow::SubscaleId id : active) {
      const Subscale& a = subscales_[subscale_index_.at(id)];
      if (a.from == subtask || a.to == subtask) ++count;
    }
    return count;
  };
  return active_touching(s.from) < options_.max_concurrent_per_instance &&
         active_touching(s.to) < options_.max_concurrent_per_instance;
}

void DrrsStrategy::TryLaunch() {
  for (auto it = queue_.begin(); it != queue_.end();) {
    const Subscale& s = subscales_[*it];
    if (CanLaunch(s)) {
      it = queue_.erase(it);
      LaunchSubscale(s);
      // Restart the scan: LaunchSubscale may have changed concurrency.
      it = queue_.begin();
    } else {
      ++it;
    }
  }
}

void DrrsStrategy::LaunchSubscale(const Subscale& s) {
  sim::SimTime now = graph_->sim()->now();
  core_.OpenSubscale(s.id);
  if (!options_.announce_all_signals_upfront) {
    hub_->scaling().RecordSignalInjection(s.id, now);
  }
  Task* src = graph_->instance(plan_.op, s.from);
  Task* dst = graph_->instance(plan_.op, s.to);
  net::Channel* rail = core_.rails().Open(src, dst, /*seed_watermark=*/false);
  // Re-capture predecessors: a concurrently scaling upstream operator may
  // have deployed new instances since the plan began (Section IV-B case 2).
  // They copied their routing from subtask 0 — which already reflects every
  // injected subscale — so they are only relevant for *future* injections.
  predecessors_ = graph_->PredecessorTasksOf(plan_.op);

  InstanceCtx& sc = CtxOf(src);
  OutgoingSubscale out;
  out.subscale = &subscales_[subscale_index_.at(s.id)];
  out.to_send.assign(s.key_groups.begin(), s.key_groups.end());
  out.expected_confirms = predecessors_.size();
  out.rail = rail;
  sc.outgoing[s.id] = std::move(out);
  for (dataflow::KeyGroupId kg : s.key_groups) sc.kg_out[kg] = s.id;

  InstanceCtx& dc = CtxOf(dst);
  IncomingSubscale in;
  in.subscale = &subscales_[subscale_index_.at(s.id)];
  in.pending_key_groups.insert(s.key_groups.begin(), s.key_groups.end());
  if (options_.decoupled_signals) {
    for (Task* pred : predecessors_) in.pending_confirms.insert(pred->id());
  }
  dc.incoming[s.id] = std::move(in);
  for (dataflow::KeyGroupId kg : s.key_groups) dc.kg_in[kg] = s.id;

  // (Re-)seed the rail with the source's watermark so the destination cannot
  // fire event-time windows ahead of the source while state and re-routed
  // records are in flight ("duplicated to both input streams", Section
  // III-A). Every launch re-seeds, even on an already-open rail: the source
  // may have advanced.
  ScalingRails::SeedWatermark(rail, src);

  for (Task* pred : predecessors_) {
    core_.injector().InjectSubscale(pred, plan_.op, s, core_.scale_id(),
                                    options_.decoupled_signals);
  }
}

// ---- source side ----------------------------------------------------------

void DrrsStrategy::OnTrigger(Task* src, dataflow::SubscaleId id) {
  InstanceCtx& c = CtxOf(src);
  auto it = c.outgoing.find(id);
  if (it == c.outgoing.end()) return;  // stale/duplicate trigger
  OutgoingSubscale& out = it->second;
  if (out.migration_started) return;  // "ignore any subsequent triggers"
  out.migration_started = true;
  hub_->scaling().RecordFirstMigration(id, graph_->sim()->now());
  for (net::Channel* ch : out.blocked) src->UnblockChannel(ch);
  out.blocked.clear();
  if (!out.pump_active) PumpMigration(src, id);
}

void DrrsStrategy::PumpMigration(Task* src, dataflow::SubscaleId id) {
  InstanceCtx& c = CtxOf(src);
  auto it = c.outgoing.find(id);
  if (it == c.outgoing.end()) return;
  OutgoingSubscale& out = it->second;
  if (out.to_send.empty()) {
    out.pump_active = false;
    MaybeSendComplete(src, id);
    return;
  }
  out.pump_active = true;
  dataflow::KeyGroupId kg = out.to_send.front();
  out.to_send.pop_front();
  uint64_t bytes = core_.session().SendKeyGroup(src, out.rail, kg, id);
  src->ConsumeSerializationTime(bytes);
  hub_->scaling().RecordStateMigrated(id, kg, graph_->sim()->now());
  // Fluid migration: extract the next unit only once this one has left the
  // wire, so records of still-local units keep processing at the source.
  auto delay = static_cast<sim::SimTime>(
      static_cast<double>(bytes) / graph_->config().net.bandwidth_bytes_per_us);
  graph_->sim()->ScheduleAfter(delay + 1,
                               [this, src, id]() { PumpMigration(src, id); });
}

void DrrsStrategy::OnConfirmAtSource(Task* src, net::Channel* channel,
                                     const StreamElement& confirm) {
  InstanceCtx& c = CtxOf(src);
  auto it = c.outgoing.find(confirm.subscale_id);
  if (it == c.outgoing.end()) return;
  OutgoingSubscale& out = it->second;

  if (options_.decoupled_signals) {
    if (confirm.value == 1) OnTrigger(src, confirm.subscale_id);  // integrated
    // Re-route the confirm to the destination, ordered behind everything the
    // source already re-routed (implicit alignment, Section III-A). A
    // re-routed confirm forces buffered records out first ("causes an
    // immediate re-route of records ... to maintain the relative order").
    FlushReroutes(src, confirm.subscale_id);
    StreamElement rerouted = confirm;
    rerouted.rerouted = true;
    out.rail->Push(std::move(rerouted));
    ++out.confirms_handled;
    MaybeSendComplete(src, confirm.subscale_id);
    return;
  }

  // Coupled mode: sender-side alignment with input blocking (Fig 1a / 7a).
  if (channel != nullptr) {
    src->BlockChannel(channel);
    out.blocked.push_back(channel);
  }
  ++out.confirms_handled;
  if (out.confirms_handled >= out.expected_confirms) {
    OnTrigger(src, confirm.subscale_id);  // aligned: migrate + unblock
  }
  MaybeSendComplete(src, confirm.subscale_id);
}

void DrrsStrategy::MaybeSendComplete(Task* src, dataflow::SubscaleId id) {
  InstanceCtx& c = CtxOf(src);
  auto it = c.outgoing.find(id);
  if (it == c.outgoing.end()) return;
  OutgoingSubscale& out = it->second;
  if (out.complete_sent) return;
  if (!out.reroute_buffer.empty()) FlushReroutes(src, id);
  if (out.confirms_handled < out.expected_confirms) return;
  if (!out.migration_started || out.pump_active || !out.to_send.empty()) {
    return;
  }
  out.complete_sent = true;
  core_.rails().PushComplete(out.rail, src->id(), core_.scale_id(), id);
}

// ---- destination side -----------------------------------------------------

void DrrsStrategy::OnRailElement(Task* dst, const StreamElement& e) {
  InstanceCtx& c = CtxOf(dst);
  auto it = c.incoming.find(e.subscale_id);
  if (it == c.incoming.end()) {
    DRRS_LOG(Warn) << "rail element for unknown subscale " << e.subscale_id;
    return;
  }
  IncomingSubscale& in = it->second;
  switch (e.kind) {
    case ElementKind::kStateChunk:
      // A false return is a dropped chunk (aborted scale still draining, or
      // a suppressed duplicate delivery): it must not advance this
      // subscale's bookkeeping.
      if (core_.session().Install(dst, e)) {
        dst->ConsumeSerializationTime(e.chunk_bytes);
        in.pending_key_groups.erase(e.key_group);
        dst->WakeUp();
      }
      break;
    case ElementKind::kConfirmBarrier:
      in.confirmed.insert(e.from_instance);
      in.pending_confirms.erase(e.from_instance);
      dst->WakeUp();
      break;
    case ElementKind::kScaleComplete:
      in.complete_marker = true;
      break;
    default:
      DRRS_LOG(Warn) << "unexpected rail element " << e.ToString();
      return;
  }
  MaybeFinalizeIncoming(dst, e.subscale_id);
}

void DrrsStrategy::MaybeFinalizeIncoming(Task* dst, dataflow::SubscaleId id) {
  InstanceCtx& c = CtxOf(dst);
  auto it = c.incoming.find(id);
  if (it == c.incoming.end()) return;
  IncomingSubscale& in = it->second;
  if (!in.complete_marker || !in.pending_key_groups.empty() ||
      !in.pending_confirms.empty()) {
    return;
  }
  FinishSubscale(id);
}

void DrrsStrategy::FinishSubscale(dataflow::SubscaleId id) {
  const Subscale& s = subscales_[subscale_index_.at(id)];
  Task* src = graph_->instance(plan_.op, s.from);
  Task* dst = graph_->instance(plan_.op, s.to);
  net::Channel* rail = graph_->FindScalingChannel(src->id(), dst->id());

  InstanceCtx& sc = CtxOf(src);
  sc.outgoing.erase(id);
  InstanceCtx& dc = CtxOf(dst);
  dc.incoming.erase(id);
  for (dataflow::KeyGroupId kg : s.key_groups) {
    sc.kg_out.erase(kg);
    dc.kg_in.erase(kg);
  }
  // Release the rail (and its watermark constraint) once no other active
  // subscale uses it.
  bool rail_busy = false;
  for (const auto& [oid, out] : sc.outgoing) {
    if (out.rail == rail) rail_busy = true;
  }
  if (!rail_busy && rail != nullptr) {
    core_.rails().Release(rail);
  }
  core_.CloseSubscale(id);
  dst->WakeUp();
  src->WakeUp();

  if (core_.open_subscales().empty() && queue_.empty()) {
    FinishScale();
    return;
  }
  TryLaunch();
}

void DrrsStrategy::FinishScale() {
  for (Task* t : graph_->instances_of(plan_.op)) {
    t->ResetInputHandler();
  }
  ctx_.clear();
  subscales_.clear();
  subscale_index_.clear();
  queue_.clear();
  core_.EndScale();

  if (has_pending_plan_) {
    // Supersession: recompute migrations from live ownership.
    has_pending_plan_ = false;
    ScalePlan next = pending_plan_;
    std::vector<uint32_t> current(graph_->key_space().num_key_groups(), 0);
    const auto& instances = graph_->instances_of(next.op);
    for (uint32_t kg = 0; kg < current.size(); ++kg) {
      for (uint32_t i = 0; i < instances.size(); ++i) {
        if (instances[i]->state()->OwnsKeyGroup(kg)) {
          current[kg] = i;
          break;
        }
      }
    }
    ScalePlan recomputed =
        Planner::ExplicitPlan(next.op, current, next.new_assignment);
    recomputed.new_parallelism =
        std::max(recomputed.new_parallelism, next.new_parallelism);
    BeginPlan(recomputed);
  }
}

// ---- scale-abort (roll-forward) -------------------------------------------

void DrrsStrategy::QuiesceScale() {
  has_pending_plan_ = false;
  if (begin_deferred_) {
    // Admitted but never begun: withdrawing the deferred begin is the whole
    // quiesce; plan_ still holds the *previous* operation's plan.
    begin_deferred_ = false;
    return;
  }
  if (subscales_.empty()) return;
  // Register never-launched subscales at their destinations so records
  // arriving after the routing flip below wait for the teleported state
  // (HandleIsProcessable gates on pending_key_groups). complete_marker stays
  // false: these can only be finalized by AbandonScale's wholesale clear.
  for (size_t idx : queue_) {
    const Subscale& s = subscales_[idx];
    Task* dst = graph_->instance(plan_.op, s.to);
    InstanceCtx& dc = CtxOf(dst);
    IncomingSubscale in;
    in.subscale = &subscales_[idx];
    in.pending_key_groups.insert(s.key_groups.begin(), s.key_groups.end());
    dc.incoming[s.id] = std::move(in);
    for (dataflow::KeyGroupId kg : s.key_groups) dc.kg_in[kg] = s.id;
  }
  queue_.clear();
  // Roll forward: every record produced from now on goes straight to its
  // planned owner; E_p records already re-routed ride the rails during the
  // grace window.
  core_.injector().UpdateRoutingAtPredecessors(plan_.op, plan_.migrations);
  for (auto& [inst_id, c] : ctx_) {
    Task* t = graph_->task(inst_id);
    for (auto& [sid, out] : c.outgoing) {
      if (!out.reroute_buffer.empty()) FlushReroutes(t, sid);
    }
  }
}

void DrrsStrategy::AbandonScale() {
  if (subscales_.empty()) return;
  const auto& key_space = graph_->key_space();
  std::map<dataflow::KeyGroupId, uint32_t> moved;  // kg -> planned subtask
  for (const Migration& m : plan_.migrations) {
    if (m.from != m.to) moved[m.key_group] = m.to;
  }

  // Source-side protocol leftovers: flush re-route buffers onto the rails
  // and lift coupled-mode channel blocks.
  for (auto& [inst_id, c] : ctx_) {
    Task* t = graph_->task(inst_id);
    for (auto& [sid, out] : c.outgoing) {
      FlushReroutes(t, sid);
      for (net::Channel* ch : out.blocked) t->UnblockChannel(ch);
      out.blocked.clear();
    }
  }

  // Units the protocol never extracted (queued subscales, unfinished
  // to_send queues): move them to the planned owner directly. Units already
  // on the wire were force-completed by the caller.
  for (const Migration& m : plan_.migrations) {
    if (m.from == m.to) continue;
    Task* src = graph_->instance(plan_.op, m.from);
    Task* dst = graph_->instance(plan_.op, m.to);
    if (src->state() != nullptr && src->state()->OwnsKeyGroup(m.key_group)) {
      dst->state()->InstallKeyGroup(src->state()->ExtractKeyGroup(m.key_group));
      dst->WakeUp();
    }
  }

  // Pre-flip records of migrated key-groups parked in old-owner input
  // queues replay at the new owner over the rails, in FIFO order (the
  // StopRestart splice). Rail heads are eager, so they process ahead of the
  // post-flip records waiting in the new owner's regular channels.
  for (Task* inst : graph_->instances_of(plan_.op)) {
    for (net::Channel* ch : inst->input_channels()) {
      if (ch->scaling_path()) continue;
      auto* queue = ch->mutable_input_queue();
      // In-place compaction: kept elements slide forward over moved ones,
      // preserving FIFO order of both sequences.
      size_t w = 0;
      size_t extracted = 0;
      const size_t n = queue->size();
      for (size_t r = 0; r < n; ++r) {
        StreamElement& e = (*queue)[r];
        uint32_t owner = 0;
        bool is_moved =
            e.kind == ElementKind::kRecord &&
            [&] {
              auto it = moved.find(key_space.KeyGroupOf(e.key));
              if (it == moved.end()) return false;
              owner = it->second;
              return true;
            }() &&
            graph_->instance(plan_.op, owner) != inst;
        if (is_moved) {
          Task* to = graph_->instance(plan_.op, owner);
          StreamElement r_el = std::move(e);
          r_el.rerouted = true;
          core_.rails()
              .Open(inst, to, /*seed_watermark=*/false)
              ->mutable_input_queue()
              ->push_back(std::move(r_el));
          ++extracted;
          to->WakeUp();
        } else {
          if (w != r) (*queue)[w] = std::move(e);
          ++w;
        }
      }
      queue->truncate(w);
      for (size_t i = 0; i < extracted; ++i) ch->NotifyInputConsumed();
    }
  }

  // Pre-flip records still cached at the predecessors follow the same rail
  // path (appending them to the new owner's regular channel would order
  // them behind post-flip records already queued there).
  for (Task* pred : graph_->PredecessorTasksOf(plan_.op)) {
    runtime::OutputEdge* edge = graph_->FindEdgeTo(pred, plan_.op);
    if (edge == nullptr) continue;
    for (uint32_t s = 0; s < edge->channels.size(); ++s) {
      net::Channel* ch = edge->channels[s];
      auto cached = ch->ExtractFromOutput([&](const StreamElement& e) {
        if (e.kind != ElementKind::kRecord) return false;
        auto it = moved.find(key_space.KeyGroupOf(e.key));
        return it != moved.end() && it->second != s;
      });
      if (cached.empty()) continue;
      Task* old_owner = graph_->instance(plan_.op, s);
      for (StreamElement& e : cached) {
        Task* to =
            graph_->instance(plan_.op, moved.at(key_space.KeyGroupOf(e.key)));
        StreamElement r = std::move(e);
        r.rerouted = true;
        core_.rails()
            .Open(old_owner, to, /*seed_watermark=*/false)
            ->mutable_input_queue()
            ->push_back(std::move(r));
        to->WakeUp();
      }
    }
  }

  // Drop all per-operation protocol state; ScaleContext::AbortActiveScale
  // (the caller) closes subscales, releases rails and detaches the hooks.
  for (Task* t : graph_->instances_of(plan_.op)) t->ResetInputHandler();
  ctx_.clear();
  subscales_.clear();
  subscale_index_.clear();
  queue_.clear();
}

// ---- hook dispatch ---------------------------------------------------------

bool DrrsStrategy::HandleControl(Task* task, net::Channel* channel,
                                 const StreamElement& e) {
  switch (e.kind) {
    case ElementKind::kStateChunk:
    case ElementKind::kScaleComplete:
      OnRailElement(task, e);
      return true;
    case ElementKind::kConfirmBarrier:
      if (e.rerouted) {
        OnRailElement(task, e);
      } else {
        OnConfirmAtSource(task, channel, e);
      }
      return true;
    case ElementKind::kTriggerBarrier:
      OnTrigger(task, e.subscale_id);
      return true;
    default:
      return false;
  }
}

void DrrsStrategy::HandleBypass(Task* task, net::Channel* /*channel*/,
                                const StreamElement& e) {
  if (e.kind != ElementKind::kTriggerBarrier) return;
  // Section IV-C, Fig 9b: a checkpoint barrier already in the input buffer
  // absorbs the trigger; migration starts after the barrier is processed.
  if (task->checkpoint_in_progress() || task->HasQueuedCheckpointBarrier()) {
    CtxOf(task).deferred_triggers.push_back(e.subscale_id);
    return;
  }
  OnTrigger(task, e.subscale_id);
}

bool DrrsStrategy::HandleInterceptRecord(Task* task, net::Channel* /*channel*/,
                                         StreamElement& e) {
  InstanceCtx& c = CtxOf(task);
  dataflow::KeyGroupId kg = graph_->key_space().KeyGroupOf(e.key);
  auto it = c.kg_out.find(kg);
  if (it == c.kg_out.end()) return false;
  if (task->state()->OwnsKeyGroup(kg)) return false;  // still local: process
  auto out_it = c.outgoing.find(it->second);
  if (out_it == c.outgoing.end()) return false;
  // E_p record whose state already migrated out: re-route it, preserving the
  // original provenance so per-(sender, key) order checks span instances.
  StreamElement rerouted = e;
  rerouted.rerouted = true;
  BufferReroute(task, it->second, std::move(rerouted));
  return true;
}

void DrrsStrategy::BufferReroute(Task* src, dataflow::SubscaleId id,
                                 StreamElement record) {
  InstanceCtx& c = CtxOf(src);
  auto it = c.outgoing.find(id);
  if (it == c.outgoing.end()) return;
  OutgoingSubscale& out = it->second;
  if (options_.reroute_batch_capacity <= 1) {
    out.rail->Push(std::move(record));
    return;
  }
  out.reroute_buffer.push_back(std::move(record));
  if (out.reroute_buffer.size() >= options_.reroute_batch_capacity) {
    FlushReroutes(src, id);
    return;
  }
  if (!out.reroute_flush_scheduled) {
    out.reroute_flush_scheduled = true;
    graph_->sim()->ScheduleAfter(options_.reroute_timeout, [this, src, id]() {
      FlushReroutes(src, id);
    });
  }
}

void DrrsStrategy::FlushReroutes(Task* src, dataflow::SubscaleId id) {
  InstanceCtx& c = CtxOf(src);
  auto it = c.outgoing.find(id);
  if (it == c.outgoing.end()) return;
  OutgoingSubscale& out = it->second;
  out.reroute_flush_scheduled = false;
  for (StreamElement& e : out.reroute_buffer) {
    out.rail->Push(std::move(e));
  }
  out.reroute_buffer.clear();
}

bool DrrsStrategy::HandleIsProcessable(Task* task, net::Channel* channel,
                                       const StreamElement& e) {
  if (e.rerouted) return true;                    // special events
  if (channel != nullptr && channel->scaling_path()) return true;
  if (e.kind != ElementKind::kRecord) return true;
  InstanceCtx& c = CtxOf(task);
  dataflow::KeyGroupId kg = graph_->key_space().KeyGroupOf(e.key);
  auto it = c.kg_in.find(kg);
  if (it == c.kg_in.end()) return true;  // not migrating into this instance
  auto in_it = c.incoming.find(it->second);
  if (in_it == c.incoming.end()) return true;
  const IncomingSubscale& in = in_it->second;
  if (in.pending_key_groups.count(kg) > 0) return false;  // state in flight
  if (options_.decoupled_signals) {
    if (options_.scheduling != Scheduling::kNone) {
      // Fluid confirmation: each channel switches epoch independently once
      // its own re-routed confirm arrived (Section III-B). Senders we are
      // not awaiting a confirm from were deployed after the injection (a
      // concurrently scaled upstream operator, Section IV-B) and inherited
      // post-injection routing, so they have no E_p records to wait for.
      if (channel != nullptr &&
          in.pending_confirms.count(channel->sender_id()) > 0) {
        return false;
      }
    } else if (!in.pending_confirms.empty()) {
      // Strict implicit alignment: all re-routed confirms must arrive.
      return false;
    }
  }
  return true;
}

bool DrrsStrategy::HandleCheckpointBarrier(Task* task, net::Channel* channel,
                                           const StreamElement& e) {
  task->OnCheckpointBarrierDefault(channel, e);
  InstanceCtx& c = CtxOf(task);
  if (!task->checkpoint_in_progress() && !c.deferred_triggers.empty()) {
    std::vector<dataflow::SubscaleId> fire;
    fire.swap(c.deferred_triggers);
    for (dataflow::SubscaleId id : fire) OnTrigger(task, id);
  }
  return true;
}

}  // namespace drrs::scaling
