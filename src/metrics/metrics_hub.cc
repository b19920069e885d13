#include "metrics/metrics_hub.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"

namespace drrs::metrics {

void ScalingMetrics::RecordSignalInjection(dataflow::SubscaleId signal,
                                           sim::SimTime t) {
  SignalTimes& s = signals_[signal];
  if (s.injection < 0) s.injection = t;
}

void ScalingMetrics::RecordFirstMigration(dataflow::SubscaleId signal,
                                          sim::SimTime t) {
  SignalTimes& s = signals_[signal];
  if (s.first_migration < 0) s.first_migration = t;
}

void ScalingMetrics::RecordStateMigrated(dataflow::SubscaleId signal,
                                         dataflow::KeyGroupId /*kg*/,
                                         sim::SimTime t) {
  auto it = signals_.find(signal);
  sim::SimTime injection = it == signals_.end() ? scale_start_
                                                : it->second.injection;
  if (injection < 0) injection = scale_start_;
  if (injection >= 0 && t >= injection) {
    dependency_deltas_.push_back(t - injection);
  }
}

void ScalingMetrics::RecordUnitTransfer(dataflow::KeyGroupId kg,
                                        uint32_t sub_key_group) {
  ++unit_transfers_[{kg, sub_key_group}];
}

void ScalingMetrics::RecordStall(StallReason reason, sim::SimTime begin,
                                 sim::SimTime end) {
  if (end <= begin) return;
  stall_hists_[static_cast<size_t>(reason)].Record(sim::ToMillis(end - begin));
  if (reason == StallReason::kBackpressure) {
    backpressure_total_ += end - begin;
    return;
  }
  if (reason == StallReason::kThrottled) {
    throttled_total_ += end - begin;
    return;
  }
  stalls_.push_back(Stall{reason, begin, end});
}

sim::SimTime ScalingMetrics::CumulativePropagationDelay() const {
  sim::SimTime total = 0;
  for (const auto& [id, s] : signals_) {
    if (s.injection >= 0 && s.first_migration >= s.injection) {
      total += s.first_migration - s.injection;
    }
  }
  return total;
}

double ScalingMetrics::AverageDependencyOverheadUs() const {
  if (dependency_deltas_.empty()) return 0;
  double sum = 0;
  for (sim::SimTime d : dependency_deltas_) sum += static_cast<double>(d);
  return sum / static_cast<double>(dependency_deltas_.size());
}

sim::SimTime ScalingMetrics::CumulativeSuspension() const {
  sim::SimTime total = 0;
  for (const Stall& s : stalls_) total += s.end - s.begin;
  return total;
}

TimeSeries ScalingMetrics::SuspensionSeries() const {
  std::vector<Stall> sorted = stalls_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Stall& a, const Stall& b) { return a.end < b.end; });
  TimeSeries out;
  sim::SimTime cum = 0;
  for (const Stall& s : sorted) {
    cum += s.end - s.begin;
    out.Push(s.end, sim::ToMillis(cum));
  }
  return out;
}

ScalingMetrics::TransferStats ScalingMetrics::UnitTransferStats() const {
  TransferStats out;
  for (const auto& [unit, count] : unit_transfers_) {
    ++out.units;
    out.total_transfers += count;
    out.max_transfers = std::max(out.max_transfers, count);
  }
  if (out.units > 0) {
    out.avg_transfers = static_cast<double>(out.total_transfers) /
                        static_cast<double>(out.units);
  }
  return out;
}

namespace {

size_t SlotOf(dataflow::OperatorId op, dataflow::InstanceId sender,
              dataflow::KeyT key, size_t mask) {
  uint64_t stream = (static_cast<uint64_t>(op) << 32) | sender;
  return static_cast<size_t>(HashKey(key ^ (stream * 0x9E3779B97F4A7C15ULL))) &
         mask;
}

}  // namespace

void InvariantMonitor::CheckOrder(dataflow::OperatorId op,
                                  dataflow::InstanceId sender,
                                  dataflow::KeyT key, uint64_t seq) {
  DRRS_CHECK(seq > 0) << "unstamped record in the order check";
  size_t mask = slots_.size() - 1;
  for (size_t i = SlotOf(op, sender, key, mask);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.last == 0) {
      slot = Slot{op, sender, key, seq};
      if (2 * ++used_ > slots_.size()) Grow();
      return;
    }
    if (slot.key == key && slot.sender == sender && slot.op == op) {
      if (seq == slot.last) {
        ++duplicate_processing;
      } else if (seq < slot.last) {
        ++order_violations;
      } else {
        slot.last = seq;
      }
      return;
    }
  }
}

void InvariantMonitor::Grow() {
  std::vector<Slot> old =
      std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
  size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.last == 0) continue;
    size_t i = SlotOf(s.op, s.sender, s.key, mask);
    while (slots_[i].last != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

sim::SimTime DetectRestabilization(const TimeSeries& latency_ms,
                                   sim::SimTime scale_start,
                                   double threshold_ms, sim::SimTime hold) {
  const auto& samples = latency_ms.samples();
  double threshold = threshold_ms;
  // Last sample violating the threshold after scale_start; the system is
  // restabilized `hold` before any later point only if no violation occurs
  // in between. We return the earliest t >= scale_start such that all
  // samples in [t, t+hold] satisfy the threshold and at least `hold` of
  // trailing data exists.
  sim::SimTime last_violation = scale_start;
  sim::SimTime last_sample = scale_start;
  for (const Sample& s : samples) {
    if (s.time < scale_start) continue;
    last_sample = std::max(last_sample, s.time);
    if (s.value > threshold) last_violation = s.time;
  }
  if (last_sample - last_violation >= hold) return last_violation;
  return last_sample;  // never restabilized within the measured horizon
}

}  // namespace drrs::metrics
