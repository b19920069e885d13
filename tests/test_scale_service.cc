#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "scaling/scale_service.h"
#include "sim/simulator.h"
#include "workloads/workloads.h"

namespace drrs::scaling {
namespace {

struct ServiceRig {
  ServiceRig() {
    workloads::TwitchParams p;
    p.events_per_second = 1500;
    p.num_users = 3000;
    p.user_skew = 0.5;
    p.duration = sim::Seconds(30);
    p.session_parallelism = 3;
    p.loyalty_parallelism = 4;
    p.num_key_groups = 32;
    p.record_cost = sim::Micros(300);
    workload = workloads::BuildTwitchWorkload(p);
    graph = std::make_unique<runtime::ExecutionGraph>(
        &sim, workload.graph, runtime::EngineConfig{}, &hub);
    EXPECT_TRUE(graph->Build().ok());
  }
  sim::Simulator sim;
  metrics::MetricsHub hub;
  workloads::WorkloadSpec workload{"", dataflow::JobGraph(1), 0};
  std::unique_ptr<runtime::ExecutionGraph> graph;
};

TEST(ScaleService, RescalesOnRequest) {
  ServiceRig rig;
  ScaleService service(rig.graph.get());
  rig.sim.ScheduleAt(sim::Seconds(10), [&] {
    ASSERT_TRUE(service.RequestRescale(rig.workload.scaled_op, 6).ok());
    EXPECT_FALSE(service.idle());
  });
  rig.graph->Start();
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(service.idle());
  EXPECT_EQ(rig.graph->parallelism_of(rig.workload.scaled_op), 6u);
  EXPECT_TRUE(rig.hub.invariants().Clean());
}

TEST(ScaleService, RejectsInvalidTargets) {
  ServiceRig rig;
  ScaleService service(rig.graph.get());
  EXPECT_FALSE(service.RequestRescale(99, 4).ok());  // unknown operator
  EXPECT_FALSE(service.RequestRescale(0, 4).ok());   // source
  EXPECT_FALSE(
      service.RequestRescale(rig.graph->OperatorByName("sink"), 4).ok());
  EXPECT_FALSE(service.RequestRescale(rig.workload.scaled_op, 0).ok());
  EXPECT_EQ(service.strategy_for(rig.workload.scaled_op), nullptr);
}

TEST(ScaleService, RejectsNoScaleMechanism) {
  ServiceRig rig;
  ScaleService::Options options;
  options.mechanism = Mechanism::kNoScale;
  ScaleService service(rig.graph.get(), options);
  Status st = service.RequestRescale(rig.workload.scaled_op, 6);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
  EXPECT_EQ(service.Prepare(rig.workload.scaled_op), nullptr);
  EXPECT_EQ(service.strategy_for(rig.workload.scaled_op), nullptr);
  EXPECT_TRUE(service.idle());
}

TEST(ScaleService, ConcurrentOperatorsAndSupersession) {
  ServiceRig rig;
  ScaleService service(rig.graph.get());
  dataflow::OperatorId session = rig.graph->OperatorByName("sessionize");
  dataflow::OperatorId loyalty = rig.workload.scaled_op;
  rig.sim.ScheduleAt(sim::Seconds(10), [&] {
    ASSERT_TRUE(service.RequestRescale(loyalty, 6).ok());
    ASSERT_TRUE(service.RequestRescale(session, 5).ok());
  });
  // Supersede loyalty's in-flight scale shortly after (Section IV-B).
  rig.sim.ScheduleAt(sim::Seconds(10) + sim::Millis(20), [&] {
    ASSERT_TRUE(service.RequestRescale(loyalty, 8).ok());
  });
  rig.graph->Start();
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(service.idle());
  EXPECT_TRUE(rig.hub.invariants().Clean());
  // Final deployments reflect the latest requests.
  auto loyal_assign = rig.graph->key_space().UniformAssignment(8);
  for (uint32_t kg = 0; kg < 32; ++kg) {
    EXPECT_TRUE(rig.graph->instance(loyalty, loyal_assign[kg])
                    ->state()
                    ->OwnsKeyGroup(kg));
  }
  auto sess_assign = rig.graph->key_space().UniformAssignment(5);
  for (uint32_t kg = 0; kg < 32; ++kg) {
    EXPECT_TRUE(rig.graph->instance(session, sess_assign[kg])
                    ->state()
                    ->OwnsKeyGroup(kg));
  }
}

TEST(ScaleService, BalancedPlannerOption) {
  ServiceRig rig;
  ScaleService::Options options;
  options.use_balanced_plan = true;
  ScaleService service(rig.graph.get(), options);
  rig.sim.ScheduleAt(sim::Seconds(10), [&] {
    ASSERT_TRUE(service.RequestRescale(rig.workload.scaled_op, 6).ok());
  });
  rig.graph->Start();
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(service.idle());
  EXPECT_TRUE(rig.hub.invariants().Clean());
  // Every key-group has exactly one owner among the 6 instances.
  for (uint32_t kg = 0; kg < 32; ++kg) {
    int owners = 0;
    for (uint32_t i = 0; i < 6; ++i) {
      owners += rig.graph->instance(rig.workload.scaled_op, i)
                    ->state()
                    ->OwnsKeyGroup(kg);
    }
    EXPECT_EQ(owners, 1) << "kg " << kg;
  }
}

// ---- mechanism-generic control-plane semantics ----------------------------
//
// The same ScaleService entry point must drive every mechanism, covering the
// supersession/exclusivity matrix: DRRS (supersedes, concurrent), Meces
// (no supersession, concurrent), OTFS (exclusive: hooks the upstream
// closure), Stop-Restart (exclusive: freezes the job).

class ScaleServiceMechanisms : public ::testing::TestWithParam<Mechanism> {};

INSTANTIATE_TEST_SUITE_P(AllMechanisms, ScaleServiceMechanisms,
                         ::testing::Values(Mechanism::kDrrs, Mechanism::kMeces,
                                           Mechanism::kOtfsFluid,
                                           Mechanism::kStopRestart),
                         [](const ::testing::TestParamInfo<Mechanism>& info) {
                           std::string n = MechanismName(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST_P(ScaleServiceMechanisms, RescalesTwoOperators) {
  ServiceRig rig;
  ScaleService::Options options;
  options.mechanism = GetParam();
  ScaleService service(rig.graph.get(), options);
  dataflow::OperatorId session = rig.graph->OperatorByName("sessionize");
  dataflow::OperatorId loyalty = rig.workload.scaled_op;
  rig.sim.ScheduleAt(sim::Seconds(10), [&] {
    ASSERT_TRUE(service.RequestRescale(loyalty, 6).ok());
    // Non-exclusive mechanisms run this concurrently; exclusive ones queue
    // it until the first operation finishes. Either way it must be accepted
    // and eventually applied.
    ASSERT_TRUE(service.RequestRescale(session, 5).ok());
    if (service.strategy_for(loyalty)->exclusive()) {
      EXPECT_EQ(service.pending_requests(), 1u);
    } else {
      EXPECT_EQ(service.pending_requests(), 0u);
    }
  });
  rig.graph->Start();
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(service.idle());
  EXPECT_EQ(rig.graph->parallelism_of(loyalty), 6u);
  EXPECT_EQ(rig.graph->parallelism_of(session), 5u);
  auto loyal_assign = rig.graph->key_space().UniformAssignment(6);
  auto sess_assign = rig.graph->key_space().UniformAssignment(5);
  for (uint32_t kg = 0; kg < 32; ++kg) {
    EXPECT_TRUE(rig.graph->instance(loyalty, loyal_assign[kg])
                    ->state()
                    ->OwnsKeyGroup(kg));
    EXPECT_TRUE(rig.graph->instance(session, sess_assign[kg])
                    ->state()
                    ->OwnsKeyGroup(kg));
  }
  EXPECT_TRUE(rig.hub.invariants().Clean());
}

TEST_P(ScaleServiceMechanisms, SupersedesOrQueuesInFlightRescale) {
  ServiceRig rig;
  ScaleService::Options options;
  options.mechanism = GetParam();
  ScaleService service(rig.graph.get(), options);
  dataflow::OperatorId loyalty = rig.workload.scaled_op;
  rig.sim.ScheduleAt(sim::Seconds(10), [&] {
    ASSERT_TRUE(service.RequestRescale(loyalty, 6).ok());
  });
  rig.sim.ScheduleAt(sim::Seconds(10) + sim::Millis(2), [&] {
    ScalingStrategy* strategy = service.strategy_for(loyalty);
    ASSERT_NE(strategy, nullptr);
    bool busy = !strategy->done();
    ASSERT_TRUE(service.RequestRescale(loyalty, 8).ok());
    if (busy && !strategy->supports_supersession()) {
      EXPECT_EQ(service.pending_requests(), 1u);
    } else {
      EXPECT_EQ(service.pending_requests(), 0u);
    }
  });
  rig.graph->Start();
  rig.sim.RunUntilIdle();
  EXPECT_TRUE(service.idle());
  EXPECT_EQ(rig.graph->parallelism_of(loyalty), 8u);
  auto assign = rig.graph->key_space().UniformAssignment(8);
  for (uint32_t kg = 0; kg < 32; ++kg) {
    EXPECT_TRUE(
        rig.graph->instance(loyalty, assign[kg])->state()->OwnsKeyGroup(kg));
  }
  EXPECT_TRUE(rig.hub.invariants().Clean());
}

TEST_P(ScaleServiceMechanisms, IdleServiceIsNeutral) {
  // A prepared-but-unused control plane must not perturb the vanilla trace:
  // "no disruption during non-scaling periods" holds for every mechanism.
  auto run = [](bool with_service, Mechanism mechanism) {
    ServiceRig rig;
    std::optional<ScaleService> service;
    if (with_service) {
      ScaleService::Options options;
      options.mechanism = mechanism;
      service.emplace(rig.graph.get(), options);
      EXPECT_NE(service->Prepare(rig.workload.scaled_op), nullptr);
      EXPECT_TRUE(service->idle());
    }
    rig.graph->Start();
    rig.sim.RunUntilIdle();
    struct Trace {
      std::vector<metrics::Sample> latency;
      uint64_t events;
      uint64_t sunk;
    };
    return Trace{rig.hub.latency_ms().samples(), rig.sim.executed_events(),
                 rig.hub.sink_rate().total()};
  };
  auto vanilla = run(false, GetParam());
  auto prepared = run(true, GetParam());
  EXPECT_EQ(vanilla.events, prepared.events);
  EXPECT_EQ(vanilla.sunk, prepared.sunk);
  ASSERT_EQ(vanilla.latency.size(), prepared.latency.size());
  for (size_t i = 0; i < vanilla.latency.size(); ++i) {
    ASSERT_EQ(vanilla.latency[i].time, prepared.latency[i].time) << "i=" << i;
    ASSERT_EQ(vanilla.latency[i].value, prepared.latency[i].value)
        << "i=" << i;
  }
}

}  // namespace
}  // namespace drrs::scaling
