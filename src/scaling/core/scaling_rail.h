#ifndef DRRS_SCALING_CORE_SCALING_RAIL_H_
#define DRRS_SCALING_CORE_SCALING_RAIL_H_

#include <map>
#include <vector>

#include "net/channel.h"
#include "runtime/execution_graph.h"

namespace drrs::scaling {

/// \brief Lifecycle of the old->new scaling rails (migration / re-route
/// paths) of one scaling operation.
///
/// A rail is an ordered channel between two instances of the scaled operator
/// carrying state chunks, re-routed records, re-routed confirm barriers and
/// kScaleComplete teardown markers. Opening a rail opens its channel and
/// registers it for watermark forwarding; (optionally) it also seeds the rail
/// with the sender's current operator watermark. While open, the rail's
/// watermark holds the receiver's operator watermark back, so the receiver
/// cannot fire event-time windows ahead of in-flight state and re-routed
/// records ("duplicated to both input streams", Section III-A). Releasing a
/// rail closes its channel, which lifts that constraint and drops any
/// watermark still in flight on it. ScaleContext::EndScale releases every
/// rail still open, so no rail outlives its scaling operation.
class ScalingRails {
 public:
  explicit ScalingRails(runtime::ExecutionGraph* graph) : graph_(graph) {}

  ScalingRails(const ScalingRails&) = delete;
  ScalingRails& operator=(const ScalingRails&) = delete;

  /// Get-or-create the rail `from` -> `to`, open it and register it for
  /// watermark forwarding. When the rail is newly opened and
  /// `seed_watermark` is set, it is seeded immediately.
  net::Channel* Open(runtime::Task* from, runtime::Task* to,
                     bool seed_watermark = true);

  /// Push the sender's current operator watermark onto `rail` (re-seed;
  /// DRRS does this per subscale launch even on an already-open rail).
  static void SeedWatermark(net::Channel* rail, runtime::Task* from);

  /// Forward an advanced operator watermark over every open rail of `from`
  /// (the shared TaskHook::OnWatermarkAdvance behavior).
  void ForwardWatermark(runtime::Task* from, sim::SimTime wm);

  /// Push the kScaleComplete teardown marker closing one old->new path.
  /// (Member, not static: the audit hook needs the graph's simulator.)
  void PushComplete(net::Channel* rail, dataflow::InstanceId from,
                    dataflow::ScaleId scale, dataflow::SubscaleId subscale);

  /// Release one open rail: stop forwarding over it, close its channel and
  /// re-derive the receiver's watermark. No-op for a rail not open.
  void Release(net::Channel* rail);

  /// Release every open rail (ScaleContext::EndScale).
  void ReleaseAll();

 private:
  /// Close a rail already removed from the registry.
  void Close(net::Channel* rail);

  runtime::ExecutionGraph* graph_;
  // Rails per source in open order: watermark forwarding and teardown walk
  // this list, so it must not be keyed by channel address (pointer order is
  // not stable across runs).
  std::map<dataflow::InstanceId, std::vector<net::Channel*>> by_source_;
};

}  // namespace drrs::scaling

#endif  // DRRS_SCALING_CORE_SCALING_RAIL_H_
