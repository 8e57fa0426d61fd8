// The paper-default fleet and workload cut to a given object count, placed
// parallel-batch with a second copy of every object in another library.
// Shared by the outage and crash-recovery tests, which both need a
// realistic replicated plan to trip multi-copy recovery paths.
#pragma once

#include <cstdint>

#include "core/plan.hpp"
#include "core/replication.hpp"
#include "exp/experiment.hpp"

namespace tapesim::sched {

struct ReplicatedPaperScenario {
  exp::ExperimentConfig config;
  exp::Experiment experiment;
  core::PlacementPlan plan;

  explicit ReplicatedPaperScenario(std::uint32_t objects)
      : config(make_config(objects)), experiment(config), plan(make_plan()) {}

  static exp::ExperimentConfig make_config(std::uint32_t objects) {
    exp::ExperimentConfig c;
    c.workload.num_objects = objects;
    return c;
  }

  core::PlacementPlan make_plan() const {
    const auto schemes = exp::make_standard_schemes(2);
    core::PlacementContext context{&experiment.workload(), &config.spec,
                                   &experiment.clusters()};
    core::ReplicationPolicy::Params rp;
    rp.replicas = 2;
    return core::ReplicationPolicy(*schemes.parallel_batch, rp)
        .place(context);
  }
};

}  // namespace tapesim::sched
