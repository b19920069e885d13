#include "scaling/core/scaling_rail.h"

#include <algorithm>
#include <utility>

#include "observe/observer.h"

namespace drrs::scaling {

using dataflow::ElementKind;
using dataflow::StreamElement;

net::Channel* ScalingRails::Open(runtime::Task* from, runtime::Task* to,
                                 bool seed_watermark) {
  net::Channel* rail = graph_->GetOrCreateScalingChannel(from, to);
  std::vector<net::Channel*>& rails = by_source_[from->id()];
  if (std::find(rails.begin(), rails.end(), rail) == rails.end()) {
    rails.push_back(rail);
    DRRS_OBSERVE(graph_->sim(), OnRailSeeded(from->id(), to->id()));
    if (seed_watermark) SeedWatermark(rail, from);
  }
  return rail;
}

void ScalingRails::SeedWatermark(net::Channel* rail, runtime::Task* from) {
  StreamElement wm = dataflow::MakeWatermark(
      std::max<sim::SimTime>(0, from->current_watermark()));
  wm.from_instance = from->id();
  rail->Push(std::move(wm));
}

void ScalingRails::ForwardWatermark(runtime::Task* from, sim::SimTime wm) {
  auto it = by_source_.find(from->id());
  if (it == by_source_.end()) return;
  for (net::Channel* rail : it->second) {
    StreamElement w = dataflow::MakeWatermark(wm);
    w.from_instance = from->id();
    rail->Push(std::move(w));
  }
}

void ScalingRails::PushComplete(net::Channel* rail, dataflow::InstanceId from,
                                dataflow::ScaleId scale,
                                dataflow::SubscaleId subscale) {
  DRRS_OBSERVE(graph_->sim(),
               OnCompleteSent(scale, subscale, from, rail->receiver_id()));
  StreamElement done;
  done.kind = ElementKind::kScaleComplete;
  done.scale_id = scale;
  done.subscale_id = subscale;
  done.from_instance = from;
  rail->Push(std::move(done));
}

void ScalingRails::Release(net::Channel* rail) {
  auto it = by_source_.find(rail->sender_id());
  if (it == by_source_.end()) return;
  auto pos = std::find(it->second.begin(), it->second.end(), rail);
  if (pos == it->second.end()) return;
  it->second.erase(pos);
  DRRS_OBSERVE(graph_->sim(),
               OnRailReleased(rail->sender_id(), rail->receiver_id()));
  graph_->task(rail->receiver_id())->ClearSideWatermark(rail->sender_id());
}

void ScalingRails::ReleaseAll() {
  for (const auto& [from, rails] : by_source_) {
    for (net::Channel* rail : rails) {
      DRRS_OBSERVE(graph_->sim(), OnRailReleased(from, rail->receiver_id()));
      graph_->task(rail->receiver_id())->ClearSideWatermark(from);
    }
  }
  by_source_.clear();
}

}  // namespace drrs::scaling
