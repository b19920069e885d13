#ifndef DRRS_SCALING_STOP_RESTART_H_
#define DRRS_SCALING_STOP_RESTART_H_

#include <string>

#include "scaling/strategy.h"

namespace drrs::scaling {

/// \brief The mainstream Stop-Checkpoint-Restart mechanism (Section I/II-A):
/// halt the whole job, snapshot global state, redeploy with the new
/// configuration, restore, resume.
///
/// Downtime is modeled from the global state volume (serialize + restore at
/// a fixed rate) plus a fixed redeployment cost; during the halt the sources
/// stop draining the feed, so latency accrues exactly as with a real
/// restart.
class StopRestartStrategy : public ScalingStrategy {
 public:
  explicit StopRestartStrategy(runtime::ExecutionGraph* graph)
      : ScalingStrategy(graph) {}

  std::string name() const override { return "stop-restart"; }
  Status StartScale(const ScalePlan& plan) override;

  /// Freezes every task in the job, not just the scaled operator.
  bool exclusive() const override { return true; }

  sim::SimTime last_downtime() const { return last_downtime_; }

 private:
  void Restore(const ScalePlan& plan);

  sim::SimTime last_downtime_ = 0;
};

}  // namespace drrs::scaling

#endif  // DRRS_SCALING_STOP_RESTART_H_
