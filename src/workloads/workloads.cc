#include "workloads/workloads.h"

#include <memory>

#include "common/logging.h"
#include "workloads/operators.h"

namespace drrs::workloads {

using dataflow::JobGraph;
using dataflow::OperatorId;
using dataflow::OperatorSpec;
using dataflow::Partitioning;

WorkloadSpec BuildCustomWorkload(const CustomParams& params) {
  JobGraph graph(params.num_key_groups);

  RateGenerator::Params gen;
  gen.events_per_second = params.events_per_second;
  gen.num_keys = params.num_keys;
  gen.key_skew = params.skew;
  gen.duration = params.duration;
  gen.seed = params.seed;

  OperatorSpec source;
  source.name = "generator";
  source.parallelism = params.source_parallelism;
  source.is_source = true;
  source.record_cost = sim::Micros(10);
  source.source_factory = MakeRateGeneratorFactory(gen);
  OperatorId src = graph.AddOperator(std::move(source));

  OperatorSpec agg;
  agg.name = "aggregator";
  agg.parallelism = params.agg_parallelism;
  agg.is_stateful = true;
  agg.record_cost = params.record_cost;
  agg.emit_cost = sim::Micros(2);
  uint64_t padding = params.state_bytes_per_key;
  agg.factory = [padding]() {
    return std::make_unique<KeyedAggregateOperator>(padding);
  };
  OperatorId aggregator = graph.AddOperator(std::move(agg));

  OperatorSpec sink;
  sink.name = "sink";
  sink.parallelism = params.sink_parallelism;
  sink.is_sink = true;
  sink.record_cost = sim::Micros(5);
  OperatorId sk = graph.AddOperator(std::move(sink));

  DRRS_CHECK(graph.Connect(src, aggregator, Partitioning::kHash).ok());
  DRRS_CHECK(graph.Connect(aggregator, sk, Partitioning::kRebalance).ok());

  return WorkloadSpec{"custom", std::move(graph), aggregator};
}

WorkloadSpec BuildFlashCrowdWorkload(const FlashCrowdParams& params) {
  JobGraph graph(params.num_key_groups);

  RateGenerator::Params gen;
  gen.events_per_second = params.events_per_second;
  gen.num_keys = params.num_keys;
  gen.key_skew = params.skew;
  gen.duration = params.duration;
  gen.seed = params.seed;
  gen.surge_at = params.surge_at;
  gen.surge_factor = params.surge_factor;
  gen.surge_until = params.surge_until;
  gen.surge_hot_fraction = params.surge_hot_fraction;
  gen.surge_hot_keys = params.surge_hot_keys;

  OperatorSpec source;
  source.name = "crowd-source";
  source.parallelism = params.source_parallelism;
  source.is_source = true;
  source.record_cost = sim::Micros(10);
  source.source_factory = MakeRateGeneratorFactory(gen);
  OperatorId src = graph.AddOperator(std::move(source));

  OperatorSpec agg;
  agg.name = "aggregator";
  agg.parallelism = params.agg_parallelism;
  agg.is_stateful = true;
  agg.record_cost = params.record_cost;
  agg.emit_cost = sim::Micros(2);
  uint64_t padding = params.state_bytes_per_key;
  agg.factory = [padding]() {
    return std::make_unique<KeyedAggregateOperator>(padding);
  };
  OperatorId aggregator = graph.AddOperator(std::move(agg));

  OperatorSpec sink;
  sink.name = "sink";
  sink.parallelism = params.sink_parallelism;
  sink.is_sink = true;
  sink.record_cost = sim::Micros(5);
  OperatorId sk = graph.AddOperator(std::move(sink));

  DRRS_CHECK(graph.Connect(src, aggregator, Partitioning::kHash).ok());
  DRRS_CHECK(graph.Connect(aggregator, sk, Partitioning::kRebalance).ok());

  return WorkloadSpec{"flash-crowd", std::move(graph), aggregator};
}

WorkloadSpec BuildNexmarkWorkload(const NexmarkParams& params) {
  DRRS_CHECK(params.query == 7 || params.query == 8);
  JobGraph graph(params.num_key_groups);

  RateGenerator::Params gen;
  gen.events_per_second = params.events_per_second;
  gen.num_keys = params.num_auctions;
  gen.key_skew = params.auction_skew;
  gen.duration = params.duration;
  gen.seed = params.seed;
  gen.value_range = 1000000;  // bid prices

  OperatorSpec source;
  source.name = params.query == 7 ? "bids" : "auctions";
  source.parallelism = params.source_parallelism;
  source.is_source = true;
  source.record_cost = sim::Micros(10);
  source.source_factory = MakeRateGeneratorFactory(gen);
  OperatorId src = graph.AddOperator(std::move(source));

  // Q7: highest bid per sliding window (10 s / 500 ms).
  // Q8: new-user monitoring, modeled as per-seller windowed counts over a
  //     long window (40 s / 5 s) with heavier per-key state.
  sim::SimTime wsize = params.query == 7 ? sim::Seconds(10) : sim::Seconds(40);
  sim::SimTime wslide = params.query == 7 ? sim::Millis(500) : sim::Seconds(5);
  AggFn fn = params.query == 7 ? AggFn::kMax : AggFn::kCount;

  OperatorSpec window;
  window.name = params.query == 7 ? "q7-window" : "q8-window";
  window.parallelism = params.window_parallelism;
  window.is_stateful = true;
  window.record_cost = params.record_cost;
  window.emit_cost = sim::Micros(2);
  uint64_t padding = params.state_padding_bytes;
  window.factory = [wsize, wslide, fn, padding]() {
    return std::make_unique<SlidingWindowOperator>(wsize, wslide, fn, padding);
  };
  OperatorId win = graph.AddOperator(std::move(window));

  OperatorSpec sink;
  sink.name = "sink";
  sink.parallelism = 2;
  sink.is_sink = true;
  sink.record_cost = sim::Micros(5);
  OperatorId sk = graph.AddOperator(std::move(sink));

  DRRS_CHECK(graph.Connect(src, win, Partitioning::kHash).ok());
  DRRS_CHECK(graph.Connect(win, sk, Partitioning::kRebalance).ok());

  return WorkloadSpec{params.query == 7 ? "nexmark-q7" : "nexmark-q8",
                      std::move(graph), win};
}

WorkloadSpec BuildTwitchWorkload(const TwitchParams& params) {
  JobGraph graph(params.num_key_groups);

  RateGenerator::Params gen;
  gen.events_per_second = params.events_per_second;
  gen.num_keys = params.num_users;
  gen.key_skew = params.user_skew;
  gen.duration = params.duration;
  gen.seed = params.seed;
  gen.deterministic_gaps = params.deterministic_gaps;
  gen.value_range = 600;  // watch-time seconds per event

  OperatorSpec source;
  source.name = "events";
  source.parallelism = params.source_parallelism;
  source.is_source = true;
  source.record_cost = sim::Micros(10);
  source.source_factory = MakeRateGeneratorFactory(gen);
  OperatorId src = graph.AddOperator(std::move(source));

  OperatorSpec parse;
  parse.name = "parse";
  parse.parallelism = params.source_parallelism;
  parse.record_cost = sim::Micros(20);
  parse.factory = []() { return std::make_unique<MapOperator>(); };
  OperatorId parse_id = graph.AddOperator(std::move(parse));

  OperatorSpec filter;
  filter.name = "filter";
  filter.parallelism = params.source_parallelism;
  filter.record_cost = sim::Micros(15);
  filter.factory = []() { return std::make_unique<MapOperator>(); };
  OperatorId filter_id = graph.AddOperator(std::move(filter));

  OperatorSpec session;
  session.name = "sessionize";
  session.parallelism = params.session_parallelism;
  session.is_stateful = true;
  session.record_cost = sim::Micros(60);
  sim::SimTime gap = params.session_gap;
  session.factory = [gap]() { return std::make_unique<SessionOperator>(gap); };
  OperatorId session_id = graph.AddOperator(std::move(session));

  OperatorSpec loyalty;
  loyalty.name = "loyalty";
  loyalty.parallelism = params.loyalty_parallelism;
  loyalty.is_stateful = true;
  loyalty.record_cost = params.record_cost;
  loyalty.emit_cost = sim::Micros(2);
  uint64_t padding = params.state_padding_bytes;
  loyalty.factory = [padding]() {
    return std::make_unique<KeyedAggregateOperator>(padding);
  };
  OperatorId loyalty_id = graph.AddOperator(std::move(loyalty));

  OperatorSpec normalize;
  normalize.name = "normalize";
  normalize.parallelism = params.loyalty_parallelism;
  normalize.record_cost = sim::Micros(15);
  normalize.factory = []() { return std::make_unique<MapOperator>(1, 10); };
  OperatorId norm_id = graph.AddOperator(std::move(normalize));

  OperatorSpec sink;
  sink.name = "sink";
  sink.parallelism = 2;
  sink.is_sink = true;
  sink.record_cost = sim::Micros(5);
  OperatorId sk = graph.AddOperator(std::move(sink));

  DRRS_CHECK(graph.Connect(src, parse_id, Partitioning::kForward).ok());
  DRRS_CHECK(graph.Connect(parse_id, filter_id, Partitioning::kForward).ok());
  DRRS_CHECK(graph.Connect(filter_id, session_id, Partitioning::kHash).ok());
  DRRS_CHECK(graph.Connect(session_id, loyalty_id, Partitioning::kHash).ok());
  DRRS_CHECK(graph.Connect(loyalty_id, norm_id, Partitioning::kRebalance).ok());
  DRRS_CHECK(graph.Connect(norm_id, sk, Partitioning::kRebalance).ok());

  return WorkloadSpec{"twitch", std::move(graph), loyalty_id};
}

}  // namespace drrs::workloads
