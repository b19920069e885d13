#include "scaling/meces.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace drrs::scaling {

using dataflow::ElementKind;
using dataflow::StreamElement;
using runtime::Task;

namespace {
/// Sub-key-groups per key-group (Hierarchical State Organization).
constexpr uint32_t kSubKeyGroupFanout = 4;
/// Minimum hold time of an installed unit (see Unit::cooldown_until).
constexpr sim::SimTime kUnitCooldown = sim::Millis(10);

uint32_t SubOf(dataflow::KeyT key) {
  return static_cast<uint32_t>(HashKey(key ^ 0x5BD1E995) %
                               kSubKeyGroupFanout);
}
}  // namespace

class MecesTaskHook : public runtime::TaskHook {
 public:
  explicit MecesTaskHook(MecesStrategy* s) : s_(s) {}
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
  // Ownership is tracked per sub-key-group by the strategy; the engine's
  // key-group-granular check cannot express that.
  bool AllowsMissingState() const override { return true; }

 private:
  MecesStrategy* s_;
};

MecesStrategy::MecesStrategy(runtime::ExecutionGraph* graph)
    : ScalingStrategy(graph),
      hook_(std::make_unique<MecesTaskHook>(this)) {}

MecesStrategy::~MecesStrategy() = default;

Status MecesStrategy::StartScale(const ScalePlan& plan) {
  DRRS_RETURN_NOT_OK(ValidatePlan(plan));
  if (!done()) return Status::FailedPrecondition("scaling already in progress");
  plan_ = plan;
  core_.BeginScale();
  sim::SimTime now = graph_->sim()->now();
  hub_->scaling().RecordSignalInjection(0, now);
  EnsureInstances(plan_);

  units_.clear();
  destination_.clear();
  barriers_expected_.clear();
  barriers_seen_.clear();
  pump_active_.clear();
  outstanding_fetches_ = 0;

  std::set<dataflow::InstanceId> sources_of_state;
  for (const Migration& m : plan_.migrations) {
    Task* src = graph_->instance(plan_.op, m.from);
    Task* dst = graph_->instance(plan_.op, m.to);
    destination_[m.key_group] = dst->id();
    sources_of_state.insert(src->id());
    for (uint32_t sub = 0; sub < kSubKeyGroupFanout; ++sub) {
      Unit unit;
      unit.location = src->id();
      units_[{m.key_group, sub}] = std::move(unit);
    }
    // Key-group-level ownership flips to the destination upfront (Meces's
    // routing is switched once); sub-unit locality governs processing.
    if (src->state()->OwnsKeyGroup(m.key_group)) {
      src->state()->ReleaseKeyGroup(m.key_group);
      dst->state()->AcquireKeyGroup(m.key_group);
    }
  }

  for (Task* t : graph_->instances_of(plan_.op)) {
    core_.AttachHook(t, hook_.get());
  }

  if (plan_.migrations.empty()) {
    MaybeFinish();
    return Status::OK();
  }

  // Single synchronization: all predecessors update routing and emit one
  // barrier per channel to the instances that hold migrating state.
  for (Task* pred : graph_->PredecessorTasksOf(plan_.op)) {
    runtime::OutputEdge* edge = graph_->FindEdgeTo(pred, plan_.op);
    DRRS_CHECK(edge != nullptr);
    BarrierInjector::UpdateRouting(edge, plan_.migrations);
    for (dataflow::InstanceId src_id : sources_of_state) {
      Task* src = InstanceById(src_id);
      StreamElement barrier = BarrierInjector::Make(
          ElementKind::kConfirmBarrier, core_.scale_id(), 0, pred->id());
      BarrierInjector::InjectCoupled(edge, src->subtask_index(),
                                     std::move(barrier));
      ++barriers_expected_[src_id];
    }
  }

  // Background migration pumps start once the coordinator's command reaches
  // the worker (one network hop).
  for (dataflow::InstanceId src_id : sources_of_state) {
    pump_active_[src_id] = true;
    graph_->sim()->ScheduleAfter(
        graph_->config().net.base_latency,
        [this, src_id]() { PumpBackground(InstanceById(src_id)); });
  }
  return Status::OK();
}

void MecesStrategy::IssueFetch(Task* requester, dataflow::KeyGroupId kg,
                               uint32_t sub) {
  auto it = units_.find({kg, sub});
  if (it == units_.end()) return;
  Unit& unit = it->second;
  if (unit.location == requester->id() && !unit.in_flight) return;
  for (dataflow::InstanceId w : unit.waiters) {
    if (w == requester->id()) return;  // already queued
  }
  unit.waiters.push_back(requester->id());
  ++outstanding_fetches_;
  // Model the fetch request's wire latency before it can be served.
  graph_->sim()->ScheduleAfter(graph_->config().net.base_latency,
                               [this, kg, sub]() { TryServe(kg, sub); });
}

void MecesStrategy::TryServe(dataflow::KeyGroupId kg, uint32_t sub) {
  auto it = units_.find({kg, sub});
  if (it == units_.end()) return;
  Unit& unit = it->second;
  unit.serve_scheduled = false;
  // Drop waiters already satisfied by an earlier transfer.
  while (!unit.waiters.empty() && unit.waiters.front() == unit.location &&
         !unit.in_flight) {
    unit.waiters.pop_front();
    DRRS_CHECK(outstanding_fetches_ > 0);
    --outstanding_fetches_;
  }
  if (unit.waiters.empty()) {
    MaybeFinish();
    return;
  }
  if (unit.in_flight) return;  // the install callback re-serves
  sim::SimTime now = graph_->sim()->now();
  if (now < unit.cooldown_until) {
    // Holder keeps it until the hold expires; retry then.
    if (!unit.serve_scheduled) {
      unit.serve_scheduled = true;
      graph_->sim()->ScheduleAt(unit.cooldown_until + 1,
                                [this, kg, sub]() { TryServe(kg, sub); });
    }
    return;
  }
  dataflow::InstanceId to = unit.waiters.front();
  unit.waiters.pop_front();
  DRRS_CHECK(outstanding_fetches_ > 0);
  --outstanding_fetches_;
  TransferUnit(InstanceById(unit.location), kg, sub, InstanceById(to),
               /*priority=*/true);
}

uint64_t MecesStrategy::TransferUnit(Task* holder, dataflow::KeyGroupId kg,
                                     uint32_t sub, Task* to, bool priority) {
  Unit& unit = units_.at({kg, sub});
  DRRS_CHECK(unit.location == holder->id());
  DRRS_CHECK(!unit.in_flight);
  unit.location = to->id();
  unit.in_flight = true;
  sim::SimTime now = graph_->sim()->now();
  hub_->scaling().RecordFirstMigration(0, now);
  if (!unit.first_move_recorded) {
    unit.first_move_recorded = true;
    hub_->scaling().RecordStateMigrated(0, kg, now);
  }
  hub_->scaling().RecordUnitTransfer(kg, sub);
  uint64_t bytes = core_.session().SendSubKeyGroup(
      holder, core_.rails().Open(holder, to), kg, sub, kSubKeyGroupFanout, 0,
      priority);
  holder->ConsumeSerializationTime(bytes);
  return bytes;
}

bool MecesStrategy::HandleControl(Task* task, net::Channel* /*channel*/,
                                  const StreamElement& e) {
  switch (e.kind) {
    case ElementKind::kStateChunk: {
      // A suppressed duplicate (or a chunk of an aborted scale) must not
      // touch the unit bookkeeping: the unit may have moved on since.
      if (!core_.session().Install(task, e)) {
        task->WakeUp();
        return true;
      }
      task->ConsumeSerializationTime(e.chunk_bytes);
      auto it = units_.find({e.key_group, e.sub_key_group});
      if (it != units_.end() && it->second.location == task->id()) {
        Unit& unit = it->second;
        unit.in_flight = false;
        // The hold only starts once the holder is free to actually use the
        // unit — otherwise installation-time CPU charges (deserialization)
        // eat the hold and contended units rotate without any record ever
        // being processed.
        sim::SimTime usable_from =
            std::max(graph_->sim()->now(), task->busy_until());
        unit.hold_started = usable_from;
        unit.cooldown_until = usable_from + kUnitCooldown;
        if (!unit.waiters.empty() && !unit.serve_scheduled) {
          unit.serve_scheduled = true;
          dataflow::KeyGroupId kg = e.key_group;
          uint32_t sub = e.sub_key_group;
          graph_->sim()->ScheduleAt(unit.cooldown_until + 1,
                                    [this, kg, sub]() { TryServe(kg, sub); });
        }
      }
      task->WakeUp();
      // Returning units may re-enable the holder's background pump.
      if (!pump_active_[task->id()]) PumpBackground(task);
      MaybeFinish();
      return true;
    }
    case ElementKind::kConfirmBarrier: {
      ++barriers_seen_[task->id()];
      MaybeFinish();
      return true;
    }
    default:
      return false;
  }
}

void MecesStrategy::PumpBackground(Task* src) {
  // Send the next still-local unit towards its destination, paced by the
  // wire; priority fetches overtake these background chunks on the rail.
  pump_active_[src->id()] = false;
  sim::SimTime now = graph_->sim()->now();
  sim::SimTime earliest_cooldown = sim::kSimTimeMax;
  for (auto& [key, unit] : units_) {
    if (unit.location != src->id() || unit.in_flight) continue;
    dataflow::InstanceId dest = destination_[key.first];
    if (dest == src->id()) continue;
    if (!unit.waiters.empty()) continue;  // demand has priority over pump
    if (now < unit.cooldown_until) {
      earliest_cooldown = std::min(earliest_cooldown, unit.cooldown_until);
      continue;
    }
    Task* to = InstanceById(dest);
    pump_active_[src->id()] = true;
    uint64_t bytes = TransferUnit(src, key.first, key.second, to,
                                  /*priority=*/false);
    // Pace by the actual wire time so background chunks do not flood the
    // rails ahead of priority fetches.
    auto delay = static_cast<sim::SimTime>(
        static_cast<double>(bytes) /
        graph_->config().net.bandwidth_bytes_per_us);
    graph_->sim()->ScheduleAfter(
        delay + 100, [this, src]() { PumpBackground(src); });
    return;
  }
  if (earliest_cooldown < sim::kSimTimeMax) {
    // Units are only parked for their hold time: retry once it expires.
    pump_active_[src->id()] = true;
    graph_->sim()->ScheduleAt(earliest_cooldown + 1,
                              [this, src]() { PumpBackground(src); });
    return;
  }
  MaybeFinish();
}

bool MecesStrategy::HandleIsProcessable(Task* task, net::Channel* channel,
                                        const StreamElement& e) {
  if (channel != nullptr && channel->scaling_path()) return true;
  if (e.kind != ElementKind::kRecord) return true;
  dataflow::KeyGroupId kg = graph_->key_space().KeyGroupOf(e.key);
  auto it = units_.find({kg, SubOf(e.key)});
  if (it == units_.end()) return true;  // key-group not migrating
  Unit& unit = it->second;
  // The unit must be assigned here AND its cells must have landed —
  // processing against a fresh cell while the chunk is still on the wire
  // would be overwritten at install time (lost update).
  if (unit.location == task->id()) {
    if (unit.in_flight) return false;
    // Active use refreshes the hold (hot state stays while draining),
    // bounded to 10 hold-times so contenders cannot starve.
    sim::SimTime now = graph_->sim()->now();
    unit.cooldown_until =
        std::min(unit.hold_started + 10 * kUnitCooldown,
                 std::max(unit.cooldown_until, now + kUnitCooldown));
    return true;
  }
  // Fetch-on-Demand: request the unit with priority and suspend.
  IssueFetch(task, kg, SubOf(e.key));
  return false;
}

void MecesStrategy::MaybeFinish() {
  if (done()) return;
  if (outstanding_fetches_ > 0) return;
  for (const auto& [id, expected] : barriers_expected_) {
    auto it = barriers_seen_.find(id);
    if (it == barriers_seen_.end() || it->second < expected) return;
  }
  for (const auto& [key, unit] : units_) {
    if (unit.location != destination_[key.first] || unit.in_flight) return;
  }
  for (const auto& [id, active] : pump_active_) {
    if (active) return;
  }
  units_.clear();
  core_.EndScale();
}

}  // namespace drrs::scaling
