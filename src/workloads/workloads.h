#ifndef DRRS_WORKLOADS_WORKLOADS_H_
#define DRRS_WORKLOADS_WORKLOADS_H_

#include <string>

#include "dataflow/job_graph.h"
#include "workloads/generators.h"

namespace drrs::workloads {

/// A built job plus the operator the experiments rescale.
struct WorkloadSpec {
  std::string name;
  dataflow::JobGraph graph;
  dataflow::OperatorId scaled_op = 0;
};

/// \brief Custom 3-operator job (Section V-A): generator -> keyed aggregator
/// -> sink, with adjustable state size, input rate and skewness. Used for
/// the Fig 15 sensitivity analysis.
struct CustomParams {
  double events_per_second = 4000;
  uint64_t num_keys = 4000;
  double skew = 0.0;
  uint64_t state_bytes_per_key = 4096;
  sim::SimTime duration = sim::Seconds(120);
  sim::SimTime record_cost = sim::Micros(220);
  uint32_t source_parallelism = 2;
  uint32_t agg_parallelism = 8;
  uint32_t sink_parallelism = 2;
  uint32_t num_key_groups = 128;
  uint64_t seed = 42;
};
WorkloadSpec BuildCustomWorkload(const CustomParams& params);

/// \brief NEXMark-style auction workload (Section V-A). Q7 monitors the
/// highest bid in sliding windows (high rate, 10 s / 500 ms); Q8 monitors
/// new users (low rate, 40 s / 5 s, larger per-key state).
struct NexmarkParams {
  int query = 7;  ///< 7 or 8
  double events_per_second = 4000;
  uint64_t num_auctions = 4000;
  double auction_skew = 0.6;
  sim::SimTime duration = sim::Seconds(120);
  uint64_t state_padding_bytes = 8192;  ///< per-key extra state
  uint32_t source_parallelism = 2;
  uint32_t window_parallelism = 8;
  uint32_t sink_parallelism = 2;
  uint32_t num_key_groups = 128;
  sim::SimTime record_cost = sim::Micros(220);
  uint64_t seed = 1337;
};
WorkloadSpec BuildNexmarkWorkload(const NexmarkParams& params);

/// \brief Synthetic Twitch engagement workload (Section V-A): a 7-operator
/// pipeline (source -> parse -> filter -> sessionize -> loyalty -> normalize
/// -> sink) computing viewer loyalty scores; streamer popularity follows a
/// Zipf distribution, mirroring the real dataset's heavy skew.
struct TwitchParams {
  double events_per_second = 4000;
  uint64_t num_users = 20000;
  double user_skew = 0.8;
  sim::SimTime duration = sim::Seconds(120);
  uint64_t state_padding_bytes = 2048;
  sim::SimTime session_gap = sim::Seconds(30);
  uint32_t source_parallelism = 2;
  uint32_t session_parallelism = 4;
  uint32_t loyalty_parallelism = 8;  ///< the scaled operator
  uint32_t num_key_groups = 128;
  sim::SimTime record_cost = sim::Micros(200);
  uint64_t seed = 7;
  bool deterministic_gaps = false;
};
WorkloadSpec BuildTwitchWorkload(const TwitchParams& params);

/// \brief Flash-crowd overload workload: the 3-operator custom pipeline
/// driven past aggregator capacity during a bounded surge window. Aggregator
/// capacity is `agg_parallelism / record_cost` records/s; the defaults put
/// the baseline at ~40% of capacity and the surge at ~2x capacity, with the
/// surge concentrated on a handful of hot keys. Single-component by
/// construction so it can host overload control and fault injection.
struct FlashCrowdParams {
  double events_per_second = 2000;   ///< baseline input rate
  double surge_factor = 5.0;         ///< surge rate = base * factor
  sim::SimTime surge_at = sim::Seconds(5);
  sim::SimTime surge_until = sim::Seconds(15);
  double surge_hot_fraction = 0.6;   ///< P(surge record hits a hot key)
  uint64_t surge_hot_keys = 8;
  uint64_t num_keys = 2000;
  double skew = 0.3;
  uint64_t state_bytes_per_key = 512;
  sim::SimTime duration = sim::Seconds(25);
  sim::SimTime record_cost = sim::Micros(400);
  uint32_t source_parallelism = 1;
  uint32_t agg_parallelism = 2;      ///< capacity = 2 / 400 us = 5000 rec/s
  uint32_t sink_parallelism = 1;
  uint32_t num_key_groups = 128;
  uint64_t seed = 42;
};
WorkloadSpec BuildFlashCrowdWorkload(const FlashCrowdParams& params);

}  // namespace drrs::workloads

#endif  // DRRS_WORKLOADS_WORKLOADS_H_
