#include "fault/fault_injector.h"

#include <utility>

#include "common/logging.h"
#include "observe/observer.h"
#include "runtime/checkpoint.h"

namespace drrs::fault {

using dataflow::ElementKind;
using dataflow::StreamElement;

namespace {

std::string LinkName(const FaultSchedule::LinkFault& link) {
  return "link " + std::to_string(link.from) + "->" + std::to_string(link.to);
}

bool ValidRate(double rate) { return rate >= 0.0 && rate <= 1.0; }

}  // namespace

Status FaultSchedule::Validate() const {
  if (!ValidRate(chunk.drop_rate) || !ValidRate(chunk.duplicate_rate) ||
      !ValidRate(chunk.delay_rate)) {
    return Status::InvalidArgument(
        "chunk fault rates must be probabilities in [0, 1]");
  }
  if (chunk.delay < 0) {
    return Status::InvalidArgument("chunk delay must be non-negative");
  }
  if (chunk.from < 0) {
    return Status::InvalidArgument(
        "chunk fault window start must be non-negative");
  }
  if (chunk.until >= 0 && chunk.until <= chunk.from) {
    return Status::InvalidArgument(
        "chunk fault window must end after it starts (until > from, or "
        "until < 0 for open-ended)");
  }
  if (chunk.drop_rate > 0.0 && chunk.max_drops == 0) {
    return Status::InvalidArgument(
        "chunk drop_rate set with a zero-capacity max_drops cap — drops can "
        "never fire; raise max_drops or clear drop_rate");
  }
  for (size_t i = 0; i < links.size(); ++i) {
    const LinkFault& link = links[i];
    if (link.partition_at >= 0 && link.heal_at <= link.partition_at) {
      return Status::InvalidArgument(
          LinkName(link) + " partition must heal after it starts "
          "(heal_at > partition_at; healing is mandatory)");
    }
    if (link.degrade_from >= 0) {
      if (link.degrade_until <= link.degrade_from) {
        return Status::InvalidArgument(
            LinkName(link) +
            " degrade window must end after it starts "
            "(degrade_until > degrade_from)");
      }
      if (link.bandwidth_factor <= 0.0 || link.bandwidth_factor > 1.0) {
        return Status::InvalidArgument(
            LinkName(link) + " bandwidth_factor must be in (0, 1]");
      }
    }
    // Overlapping partition windows on the same directed link would heal in
    // the wrong order (HealLinks pokes on the *first* heal time).
    for (size_t j = i + 1; j < links.size(); ++j) {
      const LinkFault& other = links[j];
      if (link.from != other.from || link.to != other.to) continue;
      if (link.partition_at < 0 || other.partition_at < 0) continue;
      if (link.partition_at < other.heal_at &&
          other.partition_at < link.heal_at) {
        return Status::InvalidArgument(
            LinkName(link) + " has overlapping partition windows");
      }
    }
  }
  for (const CrashFault& crash : crashes) {
    if (crash.at < 0) {
      return Status::InvalidArgument("crash time must be non-negative");
    }
    if (crash.recover_after <= 0) {
      return Status::InvalidArgument(
          "crash recover_after must be positive (recovery is mandatory)");
    }
  }
  for (sim::SimTime at : checkpoints) {
    if (at < 0) {
      return Status::InvalidArgument("checkpoint time must be non-negative");
    }
  }
  return Status::OK();
}

FaultInjector::FaultInjector(runtime::ExecutionGraph* graph,
                             FaultSchedule schedule)
    : graph_(graph), schedule_(std::move(schedule)), rng_(schedule_.seed) {}

Status FaultInjector::Arm() {
  DRRS_RETURN_NOT_OK(schedule_.Validate());
  sim::Simulator* sim = graph_->sim();
  sim->set_fault_plane(this);

  for (sim::SimTime at : schedule_.checkpoints) {
    sim->ScheduleAt(at, [this]() {
      runtime::CheckpointCoordinator* ckpt = graph_->checkpoint_coordinator();
      if (ckpt == nullptr) {
        DRRS_LOG(Warn) << "fault schedule asks for a checkpoint but the "
                          "graph has no CheckpointCoordinator";
        return;
      }
      ckpt->Trigger();
    });
  }

  for (const FaultSchedule::LinkFault& link : schedule_.links) {
    if (link.partition_at < 0) continue;
    sim->ScheduleAt(link.partition_at,
                    [this]() { ++recovery().links_partitioned; });
    sim->ScheduleAt(link.heal_at, [this]() { HealLinks(); });
  }

  for (const FaultSchedule::CrashFault& crash : schedule_.crashes) {
    FaultSchedule::CrashFault c = crash;
    sim->ScheduleAt(c.at, [this, c]() { InjectCrash(c); });
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Link faults
// ---------------------------------------------------------------------------

bool FaultInjector::AllowTransmit(const net::Channel& channel) {
  sim::SimTime now = graph_->sim()->now();
  for (const FaultSchedule::LinkFault& link : schedule_.links) {
    if (link.partition_at < 0) continue;
    if (link.from != channel.sender_id() || link.to != channel.receiver_id()) {
      continue;
    }
    if (now >= link.partition_at && now < link.heal_at) {
      // Remember the channel (once) so HealLinks can restart it: nothing
      // else re-attempts transmission when no new element is pushed.
      if (blocked_seen_.insert(&channel).second) {
        blocked_channels_.push_back(const_cast<net::Channel*>(&channel));
        DRRS_OBSERVE(graph_->sim(), OnLinkPartitioned(channel.sender_id(),
                                                      channel.receiver_id()));
      }
      return false;
    }
  }
  return true;
}

void FaultInjector::HealLinks() {
  ++recovery().links_healed;
  DRRS_OBSERVE(graph_->sim(), OnLinksHealed(blocked_channels_.size()));
  // Poke every channel a partition ever stopped. Channels still inside
  // another partition window simply stay blocked.
  // lint:allow(unordered-iteration): vector in deterministic first-block
  for (net::Channel* ch : blocked_channels_) ch->PokeTransmit();
}

double FaultInjector::BandwidthFactor(const net::Channel& channel) {
  sim::SimTime now = graph_->sim()->now();
  double factor = 1.0;
  for (const FaultSchedule::LinkFault& link : schedule_.links) {
    if (link.degrade_from < 0) continue;
    if (link.from != channel.sender_id() || link.to != channel.receiver_id()) {
      continue;
    }
    if (now >= link.degrade_from && now < link.degrade_until) {
      factor *= link.bandwidth_factor;
    }
  }
  return factor;
}

// ---------------------------------------------------------------------------
// Chunk faults
// ---------------------------------------------------------------------------

net::ChunkFaultDecision FaultInjector::OnChunkTransmit(
    const net::Channel& /*channel*/, const StreamElement& chunk) {
  net::ChunkFaultDecision verdict;
  const FaultSchedule::ChunkFaults& f = schedule_.chunk;
  if (!f.any()) return verdict;
  sim::SimTime now = graph_->sim()->now();
  if (now < f.from || (f.until >= 0 && now >= f.until)) return verdict;
  DRRS_CHECK(chunk.kind == ElementKind::kStateChunk);
  if (f.drop_rate > 0.0 && drops_done_ < f.max_drops &&
      rng_.NextDouble() < f.drop_rate) {
    ++drops_done_;
    ++recovery().chunks_dropped;
    DRRS_OBSERVE(graph_->sim(), OnChunkFault("chunk_drop", chunk));
    verdict.drop = true;
    return verdict;
  }
  if (f.duplicate_rate > 0.0 && rng_.NextDouble() < f.duplicate_rate) {
    ++recovery().chunks_duplicated;
    DRRS_OBSERVE(graph_->sim(), OnChunkFault("chunk_duplicate", chunk));
    verdict.duplicate = true;
  }
  if (f.delay_rate > 0.0 && rng_.NextDouble() < f.delay_rate) {
    ++recovery().chunks_delayed;
    DRRS_OBSERVE(graph_->sim(), OnChunkFault("chunk_delay", chunk));
    verdict.extra_delay = f.delay;
  }
  return verdict;
}

// ---------------------------------------------------------------------------
// Task crash / recovery
// ---------------------------------------------------------------------------

void FaultInjector::InjectCrash(const FaultSchedule::CrashFault& crash) {
  DRRS_CHECK(crash.subtask < graph_->parallelism_of(crash.op))
      << "crash fault targets missing subtask " << crash.subtask
      << " of operator " << crash.op;
  runtime::Task* task = graph_->instance(crash.op, crash.subtask);
  DRRS_LOG(Warn) << "fault: crashing task " << task->id() << " (operator "
                 << crash.op << " subtask " << crash.subtask << ")";
  DRRS_OBSERVE(graph_->sim(), OnCrashInjected(crash.op, crash.subtask));
  task->Crash();
  ++recovery().crashes_injected;
  dataflow::InstanceId id = task->id();
  graph_->sim()->ScheduleAfter(crash.recover_after,
                               [this, id]() { RecoverTask(id); });
}

void FaultInjector::RecoverTask(dataflow::InstanceId id) {
  runtime::Task* task = graph_->task(id);
  static const std::vector<state::KeyGroupState> kEmptySnapshot;
  const std::vector<state::KeyGroupState>* snapshot = &kEmptySnapshot;
  runtime::CheckpointCoordinator* ckpt = graph_->checkpoint_coordinator();
  const runtime::CheckpointData* latest =
      ckpt != nullptr ? ckpt->LatestComplete() : nullptr;
  if (latest != nullptr) {
    auto it = latest->snapshots.find(id);
    if (it != latest->snapshots.end()) snapshot = &it->second;
  } else {
    DRRS_LOG(Warn) << "fault: no completed checkpoint; task " << id
                   << " recovers with empty keyed state";
  }
  DRRS_OBSERVE(graph_->sim(),
               OnRecoveryAction("checkpoint_restore", id,
                                latest != nullptr ? latest->id : 0));
  uint64_t replayed = task->Recover(*snapshot);
  ++recovery().crash_recoveries;
  recovery().replayed_elements += replayed;
  DRRS_LOG(Warn) << "fault: task " << id << " recovered (checkpoint "
                 << (latest != nullptr ? latest->id : 0) << ", " << replayed
                 << " queued record(s) replay in place)";
}

}  // namespace drrs::fault
