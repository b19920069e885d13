#include "scaling/otfs.h"

#include <utility>

#include "common/logging.h"

namespace drrs::scaling {

using dataflow::ElementKind;
using dataflow::StreamElement;
using runtime::Task;

class OtfsTaskHook : public runtime::TaskHook {
 public:
  explicit OtfsTaskHook(OtfsStrategy* s) : s_(s) {}
  bool OnControl(Task* task, net::Channel* channel,
                 const StreamElement& e) override {
    return s_->HandleControl(task, channel, e);
  }
  bool IsProcessable(Task* task, net::Channel* channel,
                     const StreamElement& e) override {
    return s_->HandleIsProcessable(task, channel, e);
  }
  void OnWatermarkAdvance(Task* task, sim::SimTime wm) override {
    s_->core_.rails().ForwardWatermark(task, wm);
  }

 private:
  OtfsStrategy* s_;
};

OtfsStrategy::OtfsStrategy(runtime::ExecutionGraph* graph, MigrationMode mode)
    : ScalingStrategy(graph),
      mode_(mode),
      hook_(std::make_unique<OtfsTaskHook>(this)) {}

OtfsStrategy::~OtfsStrategy() = default;

Status OtfsStrategy::StartScale(const ScalePlan& plan) {
  DRRS_RETURN_NOT_OK(ValidatePlan(plan));
  if (!done()) return Status::FailedPrecondition("scaling already in progress");
  plan_ = plan;
  dataflow::ScaleId scale = core_.BeginScale();
  sim::SimTime now = graph_->sim()->now();
  hub_->scaling().RecordSignalInjection(0, now);
  EnsureInstances(plan_);

  // Upstream closure: every operator from which the scaling operator is
  // reachable participates in signal propagation.
  upstream_ = core_.injector().UpstreamClosure(plan_.op);

  // Build per-source outgoing paths and destination bookkeeping. Each rail
  // is seeded with its source's watermark when opened (see ScalingRails).
  out_.clear();
  dst_.clear();
  align_.clear();
  open_path_count_ = 0;
  std::map<std::pair<uint32_t, uint32_t>, std::vector<dataflow::KeyGroupId>>
      by_path;
  for (const Migration& m : plan_.migrations) {
    by_path[{m.from, m.to}].push_back(m.key_group);
  }
  for (auto& [path, kgs] : by_path) {
    Task* src = graph_->instance(plan_.op, path.first);
    Task* dst = graph_->instance(plan_.op, path.second);
    net::Channel* rail = core_.rails().Open(src, dst);
    out_[src->id()].push_back(OutPath{dst, kgs, rail});
    DstCtx& d = dst_[dst->id()];
    d.pending.insert(kgs.begin(), kgs.end());
    d.open_paths.insert(src->id());
    ++open_path_count_;
  }

  // Hook every participating task: upstream forwarders + the scaling op.
  align_needed_ = 0;
  aligned_count_ = 0;
  for (dataflow::OperatorId op : upstream_) {
    for (Task* t : graph_->instances_of(op)) core_.AttachHook(t, hook_.get());
  }
  for (Task* t : graph_->instances_of(plan_.op)) {
    core_.AttachHook(t, hook_.get());
  }
  for (dataflow::OperatorId op : upstream_) {
    for (Task* t : graph_->instances_of(op)) {
      if (!t->input_channels().empty()) ++align_needed_;
    }
  }
  for (Task* t : graph_->instances_of(plan_.op)) {
    if (!t->input_channels().empty()) ++align_needed_;
  }

  if (plan_.migrations.empty()) {
    align_needed_ = 0;
    MaybeFinish();
    return Status::OK();
  }

  // Source injection: each source emits the barrier into its output stream.
  // A source that is itself a direct predecessor confirms routing first,
  // like any other predecessor would at alignment.
  StreamElement barrier =
      BarrierInjector::Make(ElementKind::kConfirmBarrier, scale, 0, 0);
  for (runtime::SourceTask* s : graph_->sources()) {
    if (upstream_.count(s->op()) == 0) continue;
    runtime::OutputEdge* edge = graph_->FindEdgeTo(s, plan_.op);
    if (edge != nullptr &&
        edge->partitioning == dataflow::Partitioning::kHash) {
      BarrierInjector::UpdateRouting(edge, plan_.migrations);
    }
    core_.injector().Broadcast(s, plan_.op, upstream_, barrier);
  }
  return Status::OK();
}

bool OtfsStrategy::HandleControl(Task* task, net::Channel* channel,
                                 const StreamElement& e) {
  switch (e.kind) {
    case ElementKind::kConfirmBarrier: {
      // Alignment at every hop: block the delivering channel until the
      // barrier arrived on all regular inputs.
      TaskCtx& ctx = align_[task->id()];
      if (ctx.aligned) return true;  // late barrier on a fresh channel
      if (channel != nullptr && !channel->scaling_path()) {
        task->BlockChannel(channel);
        ctx.blocked.push_back(channel);
      }
      ++ctx.barriers_seen;
      size_t regular = 0;
      for (net::Channel* ch : task->input_channels()) {
        if (!ch->scaling_path()) ++regular;
      }
      if (ctx.barriers_seen >= regular) {
        ctx.aligned = true;
        ++aligned_count_;
        OnBarrierAligned(task);
        for (net::Channel* ch : ctx.blocked) task->UnblockChannel(ch);
        ctx.blocked.clear();
        MaybeFinish();
      }
      return true;
    }
    case ElementKind::kStateChunk: {
      // Duplicated deliveries and chunks of an aborted scale are dropped by
      // the session; only a real install advances the migration.
      if (!core_.session().Install(task, e)) {
        task->WakeUp();
        return true;
      }
      task->ConsumeSerializationTime(e.chunk_bytes);
      DstCtx& d = dst_[task->id()];
      if (mode_ == MigrationMode::kAllAtOnce &&
          d.open_paths.count(e.from_instance) > 0) {
        // Batch semantics: installed but unusable until the path completes.
        // A retransmission landing after its path already closed skips the
        // gate — the batch was released and nothing would clear it again.
        d.unreleased.insert(e.key_group);
      }
      d.pending.erase(e.key_group);
      task->WakeUp();
      // A retransmitted chunk can be the last thing the scale was waiting
      // for: the path markers are long delivered by then.
      MaybeFinish();
      return true;
    }
    case ElementKind::kScaleComplete: {
      DstCtx& d = dst_[task->id()];
      d.open_paths.erase(e.from_instance);
      if (d.open_paths.empty()) d.unreleased.clear();
      core_.rails().Release(channel);
      task->WakeUp();
      DRRS_CHECK(open_path_count_ > 0);
      --open_path_count_;
      MaybeFinish();
      return true;
    }
    default:
      return false;
  }
}

void OtfsStrategy::OnBarrierAligned(Task* task) {
  // Predecessors of the scaling operator confirm routing when forwarding.
  runtime::OutputEdge* edge = graph_->FindEdgeTo(task, plan_.op);
  if (edge != nullptr && edge->partitioning == dataflow::Partitioning::kHash) {
    BarrierInjector::UpdateRouting(edge, plan_.migrations);
  }
  if (task->op() != plan_.op) {
    StreamElement barrier = BarrierInjector::Make(ElementKind::kConfirmBarrier,
                                                  core_.scale_id(), 0, 0);
    core_.injector().Broadcast(task, plan_.op, upstream_, barrier);
    return;
  }
  // Scaling-operator instance: after alignment its migrating state is no
  // longer needed locally — start the migration.
  PumpMigration(task);
}

void OtfsStrategy::PumpMigration(Task* src) {
  auto it = out_.find(src->id());
  if (it == out_.end()) return;  // nothing to migrate from this instance
  std::vector<OutPath>& paths = it->second;
  // Find the first path with work left.
  for (OutPath& p : paths) {
    if (p.to_send.empty()) continue;
    dataflow::KeyGroupId kg = p.to_send.front();
    p.to_send.erase(p.to_send.begin());
    sim::SimTime now = graph_->sim()->now();
    hub_->scaling().RecordFirstMigration(0, now);
    uint64_t bytes = core_.session().SendKeyGroup(src, p.rail, kg, 0);
    src->ConsumeSerializationTime(bytes);
    hub_->scaling().RecordStateMigrated(0, kg, now);
    sim::SimTime delay =
        mode_ == MigrationMode::kAllAtOnce
            ? 1  // single synchronized batch: enqueue back-to-back
            : static_cast<sim::SimTime>(
                  static_cast<double>(bytes) /
                  graph_->config().net.bandwidth_bytes_per_us) +
                  1;
    graph_->sim()->ScheduleAfter(delay,
                                 [this, src]() { PumpMigration(src); });
    return;
  }
  // All paths drained: close each with a completion marker (once). The
  // receiver releases the rail when the marker arrives.
  for (OutPath& p : paths) {
    if (p.rail == nullptr) continue;
    core_.rails().PushComplete(p.rail, src->id(), core_.scale_id(), 0);
    p.rail = nullptr;
  }
}

bool OtfsStrategy::HandleIsProcessable(Task* task, net::Channel* channel,
                                       const StreamElement& e) {
  if (channel != nullptr && channel->scaling_path()) return true;
  if (e.kind != ElementKind::kRecord) return true;
  auto it = dst_.find(task->id());
  if (it == dst_.end()) return true;
  const DstCtx& d = it->second;
  dataflow::KeyGroupId kg = graph_->key_space().KeyGroupOf(e.key);
  if (d.pending.count(kg) > 0) return false;      // state still in flight
  if (d.unreleased.count(kg) > 0) return false;   // all-at-once batch gate
  return true;
}

void OtfsStrategy::MaybeFinish() {
  if (done()) return;
  if (open_path_count_ > 0 || aligned_count_ < align_needed_) return;
  // Chunks lost on the wire are still registered in-transit until their
  // retransmission installs; completing now would leak them.
  if (core_.session().in_flight() > 0) return;
  align_.clear();
  dst_.clear();
  out_.clear();
  core_.EndScale();
}

}  // namespace drrs::scaling
