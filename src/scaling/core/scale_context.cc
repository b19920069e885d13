#include "scaling/core/scale_context.h"

#include "common/logging.h"
#include "observe/observer.h"

namespace drrs::scaling {

dataflow::ScaleId ScaleContext::BeginScale() {
  dataflow::ScaleId id = next_scale_id_++;
  session_ = TransferSession(&transfer_, id);
  active_ = true;
  hub_->scaling().RecordScaleStart(graph_->sim()->now());
  DRRS_OBSERVE(graph_->sim(), OnScaleBegin(id));
  return id;
}

void ScaleContext::AttachHook(runtime::Task* task, runtime::TaskHook* hook) {
  task->set_hook(hook);
  hooked_.push_back(task);
}

void ScaleContext::OpenSubscale(dataflow::SubscaleId id) {
  DRRS_OBSERVE(graph_->sim(), OnSubscaleOpen(session_.scale(), id));
  open_subscales_.insert(id);
}

void ScaleContext::CloseSubscale(dataflow::SubscaleId id) {
  DRRS_OBSERVE(graph_->sim(), OnSubscaleClose(session_.scale(), id));
  open_subscales_.erase(id);
}

size_t ScaleContext::ForceCompleteTransfers() {
  if (!session_.valid()) return 0;
  return transfer_.ForceComplete(session_.scale(), graph_, hub_);
}

bool ScaleContext::AbortActiveScale() {
  if (!active_) return false;
  DRRS_OBSERVE(graph_->sim(), OnScaleAborted(session_.scale()));
  // Close subscales on a copy: CloseSubscale mutates open_subscales_.
  std::set<dataflow::SubscaleId> open = open_subscales_;
  for (dataflow::SubscaleId id : open) CloseSubscale(id);
  rails_.ReleaseAll();
  EndScale();
  return true;
}

void ScaleContext::EndScale() {
  DRRS_OBSERVE(graph_->sim(),
               OnScaleEnd(session_.scale(), open_subscales_.size(),
                          session_.valid() ? session_.in_flight() : 0));
  bool enforce = true;
  // An installed auditor records protocol violations (open subscales,
  // transfer leaks) instead of aborting, so fault-injection tests can
  // observe them.
  DRRS_OBSERVE_ONLY(enforce = graph_->sim()->auditor() == nullptr;)
  if (enforce && session_.valid()) {
    DRRS_CHECK(session_.in_flight() == 0)
        << "state transfer leak: " << session_.in_flight()
        << " chunk(s) of scale " << session_.scale()
        << " still in transit at completion";
  }
  hub_->scaling().RecordScaleEnd(graph_->sim()->now());
  for (runtime::Task* t : hooked_) {
    t->set_hook(nullptr);
    t->WakeUp();
  }
  hooked_.clear();
  open_subscales_.clear();
  active_ = false;
  if (on_idle_) on_idle_();
}

}  // namespace drrs::scaling
