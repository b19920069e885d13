#include "scaling/unbound.h"

#include <utility>

#include "common/logging.h"

namespace drrs::scaling {

using dataflow::ElementKind;
using dataflow::StreamElement;
using runtime::Task;

class UnboundTaskHook : public runtime::TaskHook {
 public:
  explicit UnboundTaskHook(UnboundStrategy* s) : s_(s) {}
  bool OnControl(Task* task, net::Channel* /*channel*/,
                 const StreamElement& e) override {
    return s_->HandleControl(task, e);
  }
  // Everything is always processable (universal keys); the state-miss
  // counter stays armed on purpose.

 private:
  UnboundStrategy* s_;
};

UnboundStrategy::UnboundStrategy(runtime::ExecutionGraph* graph)
    : ScalingStrategy(graph), hook_(std::make_unique<UnboundTaskHook>(this)) {}

UnboundStrategy::~UnboundStrategy() = default;

Status UnboundStrategy::StartScale(const ScalePlan& plan) {
  DRRS_RETURN_NOT_OK(ValidatePlan(plan));
  if (!done()) return Status::FailedPrecondition("scaling already in progress");
  plan_ = plan;
  core_.BeginScale();
  sim::SimTime now = graph_->sim()->now();
  hub_->scaling().RecordSignalInjection(0, now);
  EnsureInstances(plan_);

  out_.clear();
  pending_.clear();
  for (Task* t : graph_->instances_of(plan_.op)) {
    core_.AttachHook(t, hook_.get());
  }

  // Instant routing update at every predecessor — no signals, no alignment.
  core_.injector().UpdateRoutingAtPredecessors(plan_.op, plan_.migrations);

  // Background best-effort state copy. The rails carry state the receiver
  // uses opportunistically; they are not seeded with a watermark (the probe
  // ignores time-semantic correctness by design).
  std::map<std::pair<uint32_t, uint32_t>, std::vector<dataflow::KeyGroupId>>
      by_path;
  for (const Migration& m : plan_.migrations) {
    by_path[{m.from, m.to}].push_back(m.key_group);
    pending_.insert(m.key_group);
  }
  for (auto& [path, kgs] : by_path) {
    Task* src = graph_->instance(plan_.op, path.first);
    Task* dst = graph_->instance(plan_.op, path.second);
    out_[src->id()].push_back(
        OutPath{dst, kgs, core_.rails().Open(src, dst, /*seed=*/false)});
  }
  for (auto& [src_id, paths] : out_) {
    PumpCopy(graph_->task(src_id));
  }
  if (plan_.migrations.empty()) MaybeFinish();
  return Status::OK();
}

void UnboundStrategy::PumpCopy(Task* src) {
  auto it = out_.find(src->id());
  if (it == out_.end()) return;
  for (OutPath& p : it->second) {
    if (p.to_send.empty()) continue;
    dataflow::KeyGroupId kg = p.to_send.front();
    p.to_send.erase(p.to_send.begin());
    sim::SimTime now = graph_->sim()->now();
    hub_->scaling().RecordFirstMigration(0, now);
    uint64_t bytes = core_.session().SendKeyGroup(src, p.rail, kg, 0);
    src->ConsumeSerializationTime(bytes);
    hub_->scaling().RecordStateMigrated(0, kg, now);
    auto delay = static_cast<sim::SimTime>(
        static_cast<double>(bytes) /
        graph_->config().net.bandwidth_bytes_per_us);
    graph_->sim()->ScheduleAfter(delay + 1,
                                 [this, src]() { PumpCopy(src); });
    return;
  }
}

bool UnboundStrategy::HandleControl(Task* task, const StreamElement& e) {
  if (e.kind != ElementKind::kStateChunk) return false;
  // A dropped install (aborted-scale chunk still draining, suppressed
  // duplicate) must not advance this operation's completion accounting.
  if (core_.session().Install(task, e)) {
    pending_.erase(e.key_group);
    task->WakeUp();
    MaybeFinish();
  }
  return true;
}

void UnboundStrategy::AbandonScale() {
  // Key-groups never extracted are still owned by their sources; move them
  // to the planned owner directly (chunks on the wire were force-completed
  // by the caller).
  for (auto& [src_id, paths] : out_) {
    Task* src = graph_->task(src_id);
    for (OutPath& p : paths) {
      for (dataflow::KeyGroupId kg : p.to_send) {
        if (src->state() == nullptr || !src->state()->OwnsKeyGroup(kg)) {
          continue;
        }
        p.dst->state()->InstallKeyGroup(src->state()->ExtractKeyGroup(kg));
        p.dst->WakeUp();
      }
    }
  }
  out_.clear();
  pending_.clear();
}

void UnboundStrategy::MaybeFinish() {
  if (done() || !pending_.empty()) return;
  out_.clear();
  core_.EndScale();
}

}  // namespace drrs::scaling
