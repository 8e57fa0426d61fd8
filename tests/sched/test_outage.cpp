// Library-level fault domains: correlated outages, degraded-mode serving,
// and disaster recovery in the retrieval simulator.
//
// Pins the outage acceptance bar from several directions: (1) a default
// OutageConfig — even with every DR knob set to a non-default value — must
// not perturb a single event of a faulty run (outages disabled is
// bit-identical, clock included); (2) transient outages over an
// unreplicated plan park the affected extents and serve every byte after
// the restore; (3) with cross-library replicas the same outages are
// absorbed by failover reads; (4) a site disaster destroys the library,
// loses its resident cartridges, and drives a DR re-replication surge whose
// completion lands a time-to-full-redundancy sample; (5) the tracer's
// kOutage lane and outage.* counters reconcile exactly against the
// scheduler's own running totals (downtime conservation included); (6)
// two regression scenarios on a replicated paper-default fleet pin the
// tape/drive bookkeeping under outages.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/plan.hpp"
#include "metrics/request_metrics.hpp"
#include "obs/tracer.hpp"
#include "sched/simulator.hpp"
#include "tape/system.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/model.hpp"

#include "replicated_scenario.hpp"

namespace tapesim::sched {
namespace {

using core::Alignment;
using core::PlacementPlan;
using metrics::RequestStatus;
using workload::ObjectInfo;
using workload::Request;
using workload::Workload;

/// Two libraries, two drives and four 10 GB tapes each. Six objects with
/// primaries split across the libraries; with `replicated`, every object
/// has a second copy in the *other* library, so any single outage leaves a
/// live replica.
struct TwoLibScenario {
  tape::SystemSpec spec;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<PlacementPlan> plan;

  explicit TwoLibScenario(bool replicated) {
    spec.num_libraries = 2;
    spec.library.drives_per_library = 2;
    spec.library.tapes_per_library = 4;
    spec.library.tape_capacity = 10_GB;

    std::vector<ObjectInfo> objects{
        {ObjectId{0}, 2_GB}, {ObjectId{1}, 3_GB}, {ObjectId{2}, 2_GB},
        {ObjectId{3}, 1_GB}, {ObjectId{4}, 2_GB}, {ObjectId{5}, 1_GB}};
    std::vector<Request> requests;
    const double p = 1.0 / 6.0;
    requests.push_back(Request{RequestId{0}, p, {ObjectId{0}}});
    requests.push_back(Request{RequestId{1}, p, {ObjectId{1}, ObjectId{4}}});
    requests.push_back(Request{RequestId{2}, p, {ObjectId{2}}});
    requests.push_back(Request{RequestId{3}, p, {ObjectId{3}, ObjectId{5}}});
    requests.push_back(Request{RequestId{4}, p, {ObjectId{4}}});
    requests.push_back(Request{RequestId{5}, p, {ObjectId{0}, ObjectId{2}}});
    workload =
        std::make_unique<Workload>(std::move(objects), std::move(requests));

    plan = std::make_unique<PlacementPlan>(spec, *workload);
    // Tapes 0..3 live in library 0, tapes 4..7 in library 1.
    plan->assign(ObjectId{0}, TapeId{0});
    plan->assign(ObjectId{1}, TapeId{1});
    plan->assign(ObjectId{2}, TapeId{4});
    plan->assign(ObjectId{3}, TapeId{5});
    plan->assign(ObjectId{4}, TapeId{0});
    plan->assign(ObjectId{5}, TapeId{4});
    plan->align_all(Alignment::kGivenOrder);
    if (replicated) {
      plan->freeze_layout();
      plan->assign_replica(ObjectId{0}, TapeId{6});
      plan->assign_replica(ObjectId{1}, TapeId{6});
      plan->assign_replica(ObjectId{2}, TapeId{2});
      plan->assign_replica(ObjectId{3}, TapeId{2});
      plan->assign_replica(ObjectId{4}, TapeId{7});
      plan->assign_replica(ObjectId{5}, TapeId{3});
      plan->align_all(Alignment::kGivenOrder);
    }
    plan->compute_tape_popularity();
  }
};

/// A faulty-but-outage-free posture shared by the bit-identity tests.
SimulatorConfig faulty_config() {
  SimulatorConfig config;
  config.faults.seed = 23;
  config.faults.drive_mtbf = Seconds{40000.0};
  config.faults.drive_mttr = Seconds{900.0};
  config.faults.mount_failure_prob = 0.02;
  config.faults.robot_jam_prob = 0.01;
  return config;
}

TEST(LibraryOutage, OutageOffBitIdenticalRequestsAndClock) {
  // Same faulty scenario twice; the second arms every outage knob *except*
  // the master switch (library_mtbf stays 0). Request outcomes and the
  // engine clock itself must match bit for bit.
  TwoLibScenario base(/*replicated=*/true);
  TwoLibScenario other(/*replicated=*/true);
  RetrievalSimulator plain(*base.plan, faulty_config());

  SimulatorConfig armed_cfg = faulty_config();
  armed_cfg.faults.outage.library_mttr = Seconds{123.0};
  armed_cfg.faults.outage.disaster_fraction = 0.5;
  armed_cfg.faults.outage.dr_bandwidth_fraction = 0.9;
  armed_cfg.faults.outage.dr_max_concurrent = 7;
  ASSERT_FALSE(armed_cfg.faults.outage.enabled());
  ASSERT_TRUE(armed_cfg.try_validate().ok());
  RetrievalSimulator armed(*other.plan, armed_cfg);

  for (int round = 0; round < 3; ++round) {
    for (const std::uint32_t r : {2u, 5u, 1u, 0u, 3u, 4u}) {
      const auto a = plain.run_request(RequestId{r});
      const auto b = armed.run_request(RequestId{r});
      EXPECT_EQ(a.response.count(), b.response.count());
      EXPECT_EQ(a.seek.count(), b.seek.count());
      EXPECT_EQ(a.transfer.count(), b.transfer.count());
      EXPECT_EQ(a.switch_time.count(), b.switch_time.count());
      EXPECT_EQ(a.status, b.status);
      EXPECT_EQ(b.extents_parked, 0u);
      EXPECT_EQ(plain.engine().now().count(), armed.engine().now().count());
    }
  }
  EXPECT_EQ(armed.outage_stats().started, 0u);
  EXPECT_EQ(armed.outage_stats().downtime.count(), 0.0);
}

TEST(LibraryOutage, TransientOutageParksUnreplicatedWorkUntilRestore) {
  // No replicas: demand behind a downed library has nowhere to go, so it
  // parks and is served once the library returns — transient outages must
  // not lose a single byte.
  TwoLibScenario s(/*replicated=*/false);
  obs::Tracer tracer;
  SimulatorConfig config;
  config.tracer = &tracer;
  config.faults.seed = 5;
  config.faults.outage.library_mtbf = Seconds{30000.0};
  config.faults.outage.library_mttr = Seconds{4000.0};
  RetrievalSimulator sim(*s.plan, config);
  ASSERT_FALSE(sim.replicated());

  metrics::ExperimentMetrics agg;
  for (int round = 0; round < 24; ++round) {
    for (const std::uint32_t r : {2u, 5u, 1u, 0u, 3u, 4u}) {
      const auto o = sim.run_request(RequestId{r});
      EXPECT_EQ(o.status, RequestStatus::kServed);
      EXPECT_EQ(o.bytes_unavailable.count(), 0u);
      agg.add(o);
    }
  }
  const OutageStats& stats = sim.outage_stats();
  ASSERT_GT(stats.started, 0u) << "seed no longer produces an outage";
  EXPECT_EQ(stats.disasters, 0u);
  EXPECT_GT(stats.extents_parked, 0u)
      << "no request ever waited out an outage";
  EXPECT_EQ(stats.failovers, 0u);  // nothing to fail over to
  EXPECT_GT(stats.ended, 0u);
  EXPECT_GT(stats.downtime.count(), 0.0);
  EXPECT_EQ(agg.total_extents_parked(), stats.extents_parked);
  EXPECT_GT(agg.parked_request_count(), 0u);
  EXPECT_LE(agg.parked_request_count(), stats.requests_parked);

  // Downtime conservation: the kOutage lane's closed windows sum exactly
  // to the scheduler's accumulated downtime, one span per ended outage.
  double span_downtime = 0.0;
  std::uint64_t outage_spans = 0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.track != obs::Track::kOutage ||
        span.phase != obs::Phase::kOutage) {
      continue;
    }
    ++outage_spans;
    EXPECT_GT(span.end.count(), span.start.count());
    span_downtime += span.duration().count();
  }
  EXPECT_EQ(outage_spans, stats.ended);
  EXPECT_DOUBLE_EQ(span_downtime, stats.downtime.count());

  // Registry mirror: the outage.* counters agree with the stats exactly.
  auto& reg = tracer.registry();
  EXPECT_EQ(reg.counter("outage.started").value(), stats.started);
  EXPECT_EQ(reg.counter("outage.ended").value(), stats.ended);
  EXPECT_EQ(reg.counter("outage.requests_parked").value(),
            stats.requests_parked);
  EXPECT_EQ(reg.counter("outage.failovers").value(), stats.failovers);
  EXPECT_EQ(reg.gauge("outage.downtime_s").value(), stats.downtime.count());

  // Restores that served parked work land RTO samples.
  EXPECT_GT(stats.ttfb.count(), 0u);

  // The injector and the scheduler agree on how many outages happened.
  const fault::FaultInjector* inj = sim.fault_injector();
  ASSERT_NE(inj, nullptr);
  EXPECT_EQ(inj->counters().library_outages, stats.started);
  EXPECT_EQ(inj->counters().library_disasters, 0u);
}

TEST(LibraryOutage, ReplicasAbsorbTransientOutagesThroughFailover) {
  // Same outage timeline, but every object has a copy in the other
  // library: reads route around the downed library instead of waiting.
  TwoLibScenario s(/*replicated=*/true);
  SimulatorConfig config;
  config.faults.seed = 5;
  config.faults.outage.library_mtbf = Seconds{30000.0};
  config.faults.outage.library_mttr = Seconds{4000.0};
  RetrievalSimulator sim(*s.plan, config);
  ASSERT_TRUE(sim.replicated());

  for (int round = 0; round < 24; ++round) {
    for (const std::uint32_t r : {2u, 5u, 1u, 0u, 3u, 4u}) {
      const auto o = sim.run_request(RequestId{r});
      EXPECT_EQ(o.status, RequestStatus::kServed);
      EXPECT_EQ(o.bytes_unavailable.count(), 0u);
    }
  }
  const OutageStats& stats = sim.outage_stats();
  ASSERT_GT(stats.started, 0u) << "seed no longer produces an outage";
  EXPECT_GT(stats.failovers, 0u) << "no read ever routed around an outage";
}

TEST(LibraryOutage, DisasterDestroysLibraryAndDrRestoresRedundancy) {
  // Every outage is a site disaster. The struck library never returns, its
  // cartridges are lost, and the DR surge re-replicates the lost copies
  // into the surviving library, closing with a time-to-full-redundancy
  // sample.
  TwoLibScenario s(/*replicated=*/true);
  obs::Tracer tracer;
  SimulatorConfig config;
  config.tracer = &tracer;
  config.faults.seed = 5;
  config.faults.outage.library_mtbf = Seconds{60000.0};
  config.faults.outage.disaster_fraction = 1.0;
  config.faults.outage.dr_bandwidth_fraction = 1.0;
  config.faults.outage.dr_max_concurrent = 2;
  config.repair.enabled = true;
  RetrievalSimulator sim(*s.plan, config);

  for (int round = 0; round < 24; ++round) {
    for (const std::uint32_t r : {2u, 5u, 1u, 0u, 3u, 4u}) {
      const auto o = sim.run_request(RequestId{r});
      // Cross-library replicas mean a single disaster loses no data.
      EXPECT_EQ(o.status, RequestStatus::kServed);
    }
    if (sim.outage_stats().disasters > 0) break;
  }
  const OutageStats& stats = sim.outage_stats();
  ASSERT_GT(stats.disasters, 0u) << "seed no longer produces a disaster";

  // Exactly one library can be down (the fixture has two, and data loss
  // would have surfaced above had both died).
  std::uint32_t destroyed = 0;
  LibraryId dead{};
  for (std::uint32_t l = 0; l < 2; ++l) {
    if (sim.system().library_state(LibraryId{l}) ==
        tape::LibraryState::kDestroyed) {
      ++destroyed;
      dead = LibraryId{l};
    }
  }
  ASSERT_EQ(destroyed, 1u);
  // Every cartridge resident in the destroyed library is lost.
  for (std::uint32_t t = 0; t < 4; ++t) {
    const TapeId tp{dead.value() * 4 + t};
    EXPECT_TRUE(sim.system().cartridge_lost(tp));
    EXPECT_EQ(sim.catalog().tape_health(tp), catalog::ReplicaHealth::kLost);
  }

  ASSERT_GT(stats.dr_jobs, 0u);
  sim.drain_repairs();
  ASSERT_EQ(sim.repair_backlog(), 0u);
  ASSERT_EQ(sim.repair_stats().jobs_abandoned, 0u)
      << "seed no longer lets DR finish against the surviving library";
  EXPECT_GT(stats.dr_bytes, 0u);
  EXPECT_EQ(stats.redundancy_recovery.count(), 1u);
  EXPECT_GT(stats.redundancy_recovery.mean(), 0.0);
  // DR copy traffic is a subset of all repair traffic.
  EXPECT_LE(stats.dr_bytes, sim.repair_stats().bytes_copied);
  auto& reg = tracer.registry();
  EXPECT_EQ(reg.counter("outage.dr_jobs").value(), stats.dr_jobs);
  EXPECT_EQ(reg.counter("outage.dr_bytes").value(), stats.dr_bytes);
  EXPECT_EQ(reg.counter("outage.disasters").value(), stats.disasters);
}

TEST(LibraryOutage, DisasterWithoutReplicasLosesResidentBytes) {
  // r = 1 and a destroyed library: requests touching its cartridges
  // complete as unavailable immediately — destroyed is not parked.
  TwoLibScenario s(/*replicated=*/false);
  SimulatorConfig config;
  config.faults.seed = 5;
  config.faults.outage.library_mtbf = Seconds{60000.0};
  config.faults.outage.disaster_fraction = 1.0;
  RetrievalSimulator sim(*s.plan, config);

  bool saw_unavailable = false;
  for (int round = 0; round < 24 && !saw_unavailable; ++round) {
    for (const std::uint32_t r : {2u, 5u, 1u, 0u, 3u, 4u}) {
      const auto o = sim.run_request(RequestId{r});
      if (o.status == RequestStatus::kUnavailable ||
          o.status == RequestStatus::kPartial) {
        EXPECT_GT(o.bytes_unavailable.count(), 0u);
        saw_unavailable = true;
      }
    }
  }
  ASSERT_GT(sim.outage_stats().disasters, 0u)
      << "seed no longer produces a disaster";
  EXPECT_TRUE(saw_unavailable) << "lost data was never requested";
  EXPECT_EQ(sim.outage_stats().extents_parked, 0u)
      << "destroyed-library demand must not park";
}

/// Serves `requests` popularity-sampled requests (request stream seed 1),
/// then drains the repair queue. After every request, bytes must be
/// conserved and every cartridge in a drive, failed drives included, must
/// be registered to that drive.
OutageStats run_replicated(const ReplicatedPaperScenario& s,
                           const SimulatorConfig& config,
                           std::uint32_t requests) {
  RetrievalSimulator sim(s.plan, config);
  const workload::RequestSampler sampler(s.experiment.workload());
  Rng rng{1};
  for (std::uint32_t i = 0; i < requests; ++i) {
    const auto o = sim.run_request(sampler.sample(rng));
    EXPECT_EQ(o.bytes_served().count() + o.bytes_unavailable.count() +
                  o.bytes_expired.count(),
              o.bytes.count());
    for (std::uint32_t d = 0; d < s.config.spec.total_drives(); ++d) {
      const TapeId held = sim.system().drive(DriveId{d}).mounted();
      if (!held.valid()) continue;
      const auto holder = sim.system().drive_holding(held);
      EXPECT_TRUE(holder.has_value() && holder->value() == d)
          << "drive " << d << " holds tape " << held.value()
          << " unregistered, after request " << i;
    }
  }
  sim.drain_repairs();
  return sim.outage_stats();
}

TEST(LibraryOutage, DriveFailingMidLoadKeepsItsCartridgeRegistered) {
  // Regression: a drive failing mid-load held a cartridge the tape system
  // still placed in its cell. With the tape's demand rerouted by the
  // outage nobody rescued it, and the drive's first unload after its
  // repair aborted on "tape was not mounted". Config: 10,000 objects,
  // 2-way, library_mtbf 27,000 s, library_mttr 1,080 s, repair off, fault
  // seed 1, 400 requests.
  const ReplicatedPaperScenario s(10'000);
  SimulatorConfig config;
  config.faults.seed = 1;
  config.faults.outage.library_mtbf = Seconds{27000.0};
  config.faults.outage.library_mttr = Seconds{1080.0};
  const OutageStats st = run_replicated(s, config, 400);
  EXPECT_GT(st.started, 0u);
  EXPECT_GT(st.failovers, 0u);
}

TEST(LibraryOutage, ExtentParkedBehindFailedHolderWaitsForRestore) {
  // Regression: parking an extent on a copy held by a failed drive of the
  // downed library armed no restore watch, so the event loop went idle
  // and the request aborted on "request finished with unserved objects".
  // Config: 2,000 objects, 2-way, repair on, library_mtbf 108,000 s,
  // library_mttr 5,400 s, media_error_per_gb 0.002, fault seed 3, 200
  // requests.
  const ReplicatedPaperScenario s(2'000);
  SimulatorConfig config;
  config.faults.seed = 3;
  config.faults.outage.library_mtbf = Seconds{108000.0};
  config.faults.outage.library_mttr = Seconds{5400.0};
  config.faults.media_error_per_gb = 0.002;
  config.repair.enabled = true;
  const OutageStats st = run_replicated(s, config, 200);
  EXPECT_GT(st.extents_parked, 0u);
}

}  // namespace
}  // namespace tapesim::sched
