#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

// Wrappers the benchmark installs around the simulator's public extension
// points: every source generator (JobGraph source_factory), every operator
// (OperatorSpec::factory, via JobGraph::mutable_operator) and the
// OperatorContext handed to operators. They count calls and, in a traced
// cell, time them; all figures stay in memory until the cell ends.
//
// Spans nest (an Emit runs inside ProcessRecord), so each layer keeps its
// *self* time: a span's duration minus the spans opened inside it. The self
// times of all spans plus the untraced remainder sum to the cell's wall time.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/job_graph.h"
#include "dataflow/operator.h"
#include "dataflow/source_generator.h"
#include "oracle.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls into one layer boundary and their self nanoseconds.
struct LayerCounter {
  uint64_t calls = 0;
  int64_t self_ns = 0;

  void Add(const LayerCounter& o) {
    calls += o.calls;
    self_ns += o.self_ns;
  }
};

class SpanStack {
 public:
  void Open(LayerCounter* layer) { open_.push_back({layer, NowNs(), 0}); }
  void Close() {
    const OpenSpan s = open_.back();
    open_.pop_back();
    const int64_t duration = NowNs() - s.start_ns;
    ++s.layer->calls;
    s.layer->self_ns += duration - s.child_ns;
    if (!open_.empty()) open_.back().child_ns += duration;
  }

 private:
  struct OpenSpan {
    LayerCounter* layer;
    int64_t start_ns;
    int64_t child_ns;
  };
  std::vector<OpenSpan> open_;
};

/// Per-operator counters: records and watermarks handed to the operator, and
/// the self time of ProcessRecord and ProcessWatermark.
struct OperatorCounters {
  LayerCounter record;
  LayerCounter watermark;

  void Add(const OperatorCounters& o) {
    record.Add(o.record);
    watermark.Add(o.watermark);
  }
};

/// Everything the wrappers of one cell run record.
struct CellProbe {
  explicit CellProbe(bool traced_in) : traced(traced_in) {}

  const bool traced;
  SpanStack spans;
  LayerCounter source;   ///< SourceGenerator::Next
  LayerCounter emit;     ///< OperatorContext::Emit (routing, stamping, push)
  LayerCounter capture;  ///< the oracle's own copy of each sink result
  std::map<std::string, OperatorCounters> ops;
  int64_t first_next_ns = -1;   ///< wall clock of the first source Next()
  std::vector<Result> results;  ///< what the sink-feeding operator emitted
};

/// RAII span; in an untraced cell it only counts the call.
class Span {
 public:
  Span(CellProbe* probe, LayerCounter* layer)
      : stack_(probe->traced ? &probe->spans : nullptr) {
    if (stack_ != nullptr) {
      stack_->Open(layer);
    } else {
      ++layer->calls;
    }
  }
  ~Span() {
    if (stack_ != nullptr) stack_->Close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStack* stack_;
};

class ProbedSource final : public drrs::dataflow::SourceGenerator {
 public:
  ProbedSource(std::unique_ptr<drrs::dataflow::SourceGenerator> inner,
               CellProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  bool Next(drrs::dataflow::StreamElement* out,
            drrs::sim::SimTime* arrival) override {
    if (probe_->first_next_ns < 0) probe_->first_next_ns = NowNs();
    Span span(probe_, &probe_->source);
    return inner_->Next(out, arrival);
  }

 private:
  std::unique_ptr<drrs::dataflow::SourceGenerator> inner_;
  CellProbe* probe_;
};

/// The context a wrapped operator sees: forwards to the engine's context,
/// timing Emit and, for the operator that feeds the sink, capturing results.
class ProbedContext final : public drrs::dataflow::OperatorContext {
 public:
  ProbedContext(CellProbe* probe, bool capture)
      : probe_(probe), capture_(capture) {}

  void Bind(drrs::dataflow::OperatorContext* inner) { inner_ = inner; }

  void Emit(const drrs::dataflow::StreamElement& record) override {
    if (capture_) {
      Span span(probe_, &probe_->capture);
      probe_->results.push_back(
          {record.key, record.value, record.event_time});
    }
    Span span(probe_, &probe_->emit);
    inner_->Emit(record);
  }
  drrs::state::KeyedStateBackend* state() override { return inner_->state(); }
  drrs::sim::SimTime now() const override { return inner_->now(); }
  drrs::sim::SimTime watermark() const override { return inner_->watermark(); }
  uint32_t subtask_index() const override { return inner_->subtask_index(); }

 private:
  CellProbe* probe_;
  bool capture_;
  drrs::dataflow::OperatorContext* inner_ = nullptr;
};

class ProbedOperator final : public drrs::dataflow::Operator {
 public:
  ProbedOperator(std::unique_ptr<drrs::dataflow::Operator> inner,
                 CellProbe* probe, OperatorCounters* counters, bool capture)
      : inner_(std::move(inner)),
        probe_(probe),
        counters_(counters),
        ctx_(probe, capture) {}

  void Open(drrs::dataflow::OperatorContext* ctx) override {
    ctx_.Bind(ctx);
    inner_->Open(&ctx_);
  }
  void ProcessRecord(const drrs::dataflow::StreamElement& record,
                     drrs::dataflow::OperatorContext* ctx) override {
    ctx_.Bind(ctx);
    Span span(probe_, &counters_->record);
    inner_->ProcessRecord(record, &ctx_);
  }
  void ProcessWatermark(drrs::sim::SimTime watermark,
                        drrs::dataflow::OperatorContext* ctx) override {
    ctx_.Bind(ctx);
    Span span(probe_, &counters_->watermark);
    inner_->ProcessWatermark(watermark, &ctx_);
  }

 private:
  std::unique_ptr<drrs::dataflow::Operator> inner_;
  CellProbe* probe_;
  OperatorCounters* counters_;
  ProbedContext ctx_;
};

/// Wraps every source and operator of `graph` for `probe`, which must
/// outlive every run of the graph. The probe is not synchronised: run the
/// graph with threads = 1. Untraced cells still wrap everything (the
/// wrappers only count), so traced and untraced runs differ only in timing.
inline void Instrument(drrs::dataflow::JobGraph* graph, CellProbe* probe) {
  using drrs::dataflow::OperatorId;
  for (OperatorId id = 0; id < graph->operators().size(); ++id) {
    drrs::dataflow::OperatorSpec* spec = graph->mutable_operator(id);
    if (spec->is_source) {
      drrs::dataflow::SourceGeneratorFactory inner = spec->source_factory;
      spec->source_factory = [inner, probe](uint32_t subtask,
                                            uint32_t parallelism) {
        return std::unique_ptr<drrs::dataflow::SourceGenerator>(
            new ProbedSource(inner(subtask, parallelism), probe));
      };
    }
    if (!spec->factory) continue;
    bool feeds_sink = false;
    for (OperatorId succ : graph->SuccessorsOf(id)) {
      feeds_sink = feeds_sink || graph->operators()[succ].is_sink;
    }
    OperatorCounters* counters = &probe->ops[spec->name];
    drrs::dataflow::OperatorFactory inner = spec->factory;
    spec->factory = [inner, probe, counters, feeds_sink]() {
      return std::unique_ptr<drrs::dataflow::Operator>(
          new ProbedOperator(inner(), probe, counters, feeds_sink));
    };
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
