// Chaos soak: randomized fault + scrub + evacuation + overload schedules
// across many seeds, asserting the invariants that must survive arbitrary
// interleavings of foreground serving, background verification passes,
// evacuation drains, deadline cancellations, and injected hardware faults:
//
//   * byte conservation — every requested byte is accounted served,
//     unavailable, or expired, and the total matches the workload's own
//     object sizes;
//   * no double-mounted cartridge — at every request boundary each tape
//     sits in at most one drive and the tape/drive maps agree;
//   * counter reconciliation — the obs registry's fault.*, scrub.*, and
//     evac.* counters match the injector's and the scheduler's own running
//     totals exactly at the end of the run;
//   * a monotone engine clock.
//
// The plan is built once (placement is deterministic and expensive); each
// seed gets its own simulator, fault mix, scrub/evacuation posture, storm
// arrival schedule, deadlines, and overload-pressure toggles.
//
// A second soak runs a 2-way replicated plan under random fail-slow
// episodes with the gray-failure detector, quarantine, and hedged reads
// live, and reconciles the failslow.* ledger exactly. A third runs the
// same replicated plan under library outages, site disasters, media
// errors and background repair, and reconciles the outage and repair
// ledgers.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/replication.hpp"
#include "exp/experiment.hpp"
#include "obs/tracer.hpp"
#include "sched/simulator.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"
#include "workload/storm.hpp"

namespace tapesim {
namespace {

using metrics::RequestStatus;

/// Every cartridge sits in at most one drive and the tape/drive maps
/// agree, failed drives included (checked at request boundaries by every
/// soak).
void check_mount_exclusivity(const sched::RetrievalSimulator& sim,
                             const tape::SystemSpec& spec) {
  const std::uint32_t drives = spec.total_drives();
  const std::uint32_t tapes = spec.total_tapes();
  std::vector<std::uint32_t> held(drives, 0);
  for (std::uint32_t t = 0; t < tapes; ++t) {
    if (const auto d = sim.system().drive_holding(TapeId{t})) {
      ASSERT_LT(d->value(), drives);
      ++held[d->value()];
      ASSERT_LE(held[d->value()], 1u) << "drive " << d->value()
                                      << " holds two cartridges";
    }
  }
  for (std::uint32_t d = 0; d < drives; ++d) {
    const auto& drive = sim.system().drive(DriveId{d});
    if (drive.mounted().valid()) {
      const auto holder = sim.system().drive_holding(drive.mounted());
      ASSERT_TRUE(holder.has_value()) << "drive " << d
                                      << " holds an unregistered cartridge";
      EXPECT_EQ(holder->value(), d) << "tape/drive maps disagree";
    }
  }
}

/// Shared scenario: a small two-library system and a parallel-batch plan.
struct Fixture {
  exp::ExperimentConfig config;
  exp::Experiment experiment;
  core::PlacementPlan plan;

  Fixture() : config(make_config()), experiment(config), plan(make_plan()) {}

  static exp::ExperimentConfig make_config() {
    exp::ExperimentConfig c;
    c.spec.num_libraries = 2;
    c.spec.library.drives_per_library = 3;
    c.spec.library.tapes_per_library = 10;
    c.spec.library.tape_capacity = 40_GB;
    c.workload.num_objects = 800;
    c.workload.num_requests = 60;
    c.workload.min_objects_per_request = 2;
    c.workload.max_objects_per_request = 8;
    c.workload.object_groups = 20;
    c.workload.min_object_size = Bytes{200ULL * 1000 * 1000};
    c.workload.max_object_size = Bytes{2000ULL * 1000 * 1000};
    c.seed = 7;
    return c;
  }

  core::PlacementPlan make_plan() const {
    const auto schemes = exp::make_standard_schemes(2);
    core::PlacementContext context{&experiment.workload(), &config.spec,
                                   &experiment.clusters()};
    return schemes.parallel_batch->place(context);
  }

  static const Fixture& instance() {
    static const Fixture fixture;
    return fixture;
  }
};

/// One randomized posture: every fault class live at a seed-dependent
/// rate, scrubbing and evacuation each enabled on most seeds.
sched::SimulatorConfig chaos_config(Rng& rng, obs::Tracer* tracer) {
  sched::SimulatorConfig cfg;
  cfg.tracer = tracer;
  cfg.faults.seed = rng();
  cfg.faults.latent_decay_mtbf = Seconds{rng.uniform(1500.0, 12000.0)};
  cfg.faults.mount_failure_prob = rng.uniform(0.0, 0.05);
  cfg.faults.media_error_per_gb = rng.uniform() < 0.5 ? 0.002 : 0.0;
  cfg.faults.robot_jam_prob = rng.uniform(0.0, 0.02);
  if (rng.uniform() < 0.5) {
    cfg.faults.drive_mtbf = Seconds{rng.uniform(5e4, 2e5)};
    cfg.faults.drive_mttr = Seconds{600.0};
    cfg.faults.permanent_fraction = 0.1;
  }
  if (rng.uniform() < 0.75) {
    cfg.scrub.enabled = true;
    cfg.scrub.interval = Seconds{rng.uniform(300.0, 3000.0)};
    cfg.scrub.bandwidth_fraction = rng.uniform(0.3, 1.0);
    cfg.scrub.max_concurrent = 1 + static_cast<std::uint32_t>(
                                       rng.uniform_below(3));
    cfg.scrub.segment = Bytes{(1 + rng.uniform_below(4)) << 30};
  }
  if (rng.uniform() < 0.4) {
    // Library-level fault domains: correlated outages, occasionally a
    // permanent site disaster (the plan is unreplicated, so disasters
    // surface as unavailable bytes rather than DR traffic).
    cfg.faults.outage.library_mtbf = Seconds{rng.uniform(4e4, 2e5)};
    cfg.faults.outage.library_mttr = Seconds{rng.uniform(1000.0, 8000.0)};
    cfg.faults.outage.disaster_fraction = rng.uniform() < 0.3 ? 0.15 : 0.0;
  }
  if (rng.uniform() < 0.5) {
    cfg.evacuation.enabled = true;
    cfg.evacuation.threshold = rng.uniform(0.3, 0.8);
    cfg.evacuation.latent_weight = 0.2;
    cfg.repair.bandwidth_fraction = 1.0;
    cfg.repair.max_concurrent = 2;
  }
  if (rng.uniform() < 0.7) {
    // Durable control plane: the catalog journal is live under a random
    // fsync policy and checkpoint cadence, and on most of those seeds the
    // metadata server crashes mid-run and recovers by snapshot + replay +
    // reconciliation at admission boundaries. The rest soak the journal's
    // passive (crash-free) mode, which must be invisible to the sim.
    cfg.journal.enabled = true;
    const double policy = rng.uniform();
    cfg.journal.fsync = policy < 0.34
                            ? catalog::FsyncPolicy::kSync
                            : policy < 0.67 ? catalog::FsyncPolicy::kGroupCommit
                                            : catalog::FsyncPolicy::kAsync;
    cfg.journal.group_window = Seconds{rng.uniform(0.02, 60.0)};
    cfg.journal.async_flush = Seconds{rng.uniform(5.0, 600.0)};
    cfg.journal.checkpoint_interval =
        rng.uniform() < 0.3 ? Seconds{0.0}  // never: replay from genesis
                            : Seconds{rng.uniform(2000.0, 40000.0)};
    if (rng.uniform() < 0.8) {
      cfg.faults.crash.metadata_mtbf = Seconds{rng.uniform(5e3, 6e4)};
      cfg.faults.crash.torn_tail = rng.uniform() < 0.7;
    }
  }
  EXPECT_TRUE(cfg.try_validate().ok());
  return cfg;
}

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, InvariantsSurviveRandomizedSchedules) {
  const std::uint64_t seed = GetParam();
  const Fixture& fx = Fixture::instance();
  Rng rng{seed * 0x9E3779B97F4A7C15ULL + 1};

  obs::Tracer tracer;
  const sched::SimulatorConfig cfg = chaos_config(rng, &tracer);
  sched::RetrievalSimulator sim(fx.plan, cfg);

  workload::StormConfig storm;
  storm.base_rate = 1.0 / 400.0;
  storm.burst_rate = 1.0 / 40.0;
  storm.mean_burst_duration = Seconds{1200.0};
  storm.mean_calm_duration = Seconds{4000.0};
  storm.batch_fraction = 0.4;
  const workload::RequestSampler sampler(fx.experiment.workload());
  const auto arrivals = workload::storm_arrivals(sampler, storm, 25, rng);

  Seconds prev_now{};
  std::uint64_t parked_extents_sum = 0;
  std::uint64_t parked_requests_sum = 0;
  for (const auto& arrival : arrivals) {
    if (sim.engine().now() < arrival.time) {
      sim.engine().schedule_at(arrival.time, [] {});
      sim.engine().run();
    }
    // Random overload-pressure toggles exercise the repair/scrub pause
    // paths mid-stream.
    sim.set_overload_pressure(rng.uniform() < 0.3);

    sched::RequestContext ctx;
    ctx.priority = arrival.priority;
    if (rng.uniform() < 0.5) {
      ctx.deadline = sim.engine().now() + Seconds{rng.uniform(1200.0, 9000.0)};
    }
    const auto o = sim.run_request(arrival.request, ctx);

    // Clock monotone across requests and background drains.
    EXPECT_GE(sim.engine().now().count(), prev_now.count());
    prev_now = sim.engine().now();

    // Byte conservation: the outcome's total matches the workload, and
    // every byte is served, unavailable, or expired — no leaks, no
    // double counting.
    Bytes expected{};
    for (const ObjectId obj :
         fx.experiment.workload().request(arrival.request).objects) {
      expected += fx.experiment.workload().object_size(obj);
    }
    ASSERT_EQ(o.bytes.count(), expected.count());
    ASSERT_LE(o.bytes_unavailable.count() + o.bytes_expired.count(),
              o.bytes.count());
    ASSERT_EQ(o.bytes_served().count() + o.bytes_unavailable.count() +
                  o.bytes_expired.count(),
              o.bytes.count());
    switch (o.status) {
      case RequestStatus::kServed:
        EXPECT_EQ(o.bytes_unavailable.count(), 0u);
        EXPECT_EQ(o.bytes_expired.count(), 0u);
        break;
      case RequestStatus::kPartial:
        EXPECT_GT(o.bytes_served().count(), 0u);
        EXPECT_GT(o.bytes_unavailable.count() + o.bytes_expired.count(), 0u);
        break;
      case RequestStatus::kUnavailable:
        EXPECT_EQ(o.bytes_served().count(), 0u);
        break;
      case RequestStatus::kDeadlineExpired:
        EXPECT_LT(o.bytes_served().count(), o.bytes.count());
        break;
      case RequestStatus::kShed:
        FAIL() << "the bare simulator never sheds";
    }

    parked_extents_sum += o.extents_parked;
    if (o.extents_parked > 0) ++parked_requests_sum;

    check_mount_exclusivity(sim, fx.config.spec);
  }

  // End-of-run reconciliation: the obs registry agrees exactly with the
  // scheduler's and the injector's own running totals.
  auto& reg = tracer.registry();
  EXPECT_EQ(reg.counter("sched.requests").value(), arrivals.size());

  const fault::FaultInjector* inj = sim.fault_injector();
  ASSERT_NE(inj, nullptr);
  const fault::FaultCounters& fc = inj->counters();
  EXPECT_EQ(reg.counter("fault.mount_failures").value(), fc.mount_failures);
  EXPECT_EQ(reg.counter("fault.media_errors").value(), fc.media_errors);
  EXPECT_EQ(reg.counter("fault.robot_jams").value(), fc.robot_jams);
  EXPECT_EQ(reg.counter("fault.drive_failures").value(), fc.drive_failures);
  EXPECT_EQ(reg.counter("fault.latent_events").value(), fc.latent_events);
  EXPECT_EQ(reg.counter("fault.latent_observed").value(), fc.latent_observed);

  const sched::ScrubStats& scrub = sim.scrub_stats();
  EXPECT_EQ(reg.counter("scrub.passes").value(), scrub.passes);
  EXPECT_EQ(reg.counter("scrub.verified_bytes").value(),
            scrub.bytes_verified);
  EXPECT_EQ(reg.counter("scrub.latent_found").value(), scrub.latent_found);

  const sched::EvacStats& evac = sim.evac_stats();
  EXPECT_EQ(reg.counter("evac.started").value(), evac.started);
  EXPECT_EQ(reg.counter("evac.objects_moved").value(), evac.objects_moved);
  EXPECT_EQ(reg.counter("evac.preempted_unavailables").value(),
            evac.preempted_unavailables);

  // Outage ledger: the registry, the scheduler's stats, and the
  // per-request outcomes all agree exactly — every parked extent was
  // reported to exactly one request, and the counters form a consistent
  // onset/close/disaster triangle.
  const sched::OutageStats& outage = sim.outage_stats();
  EXPECT_EQ(reg.counter("outage.started").value(), outage.started);
  EXPECT_EQ(reg.counter("outage.ended").value(), outage.ended);
  EXPECT_EQ(reg.counter("outage.disasters").value(), outage.disasters);
  EXPECT_EQ(reg.counter("outage.failovers").value(), outage.failovers);
  EXPECT_EQ(reg.counter("outage.requests_parked").value(),
            outage.requests_parked);
  EXPECT_EQ(fc.library_outages, outage.started);
  EXPECT_EQ(fc.library_disasters, outage.disasters);
  EXPECT_EQ(parked_extents_sum, outage.extents_parked);
  EXPECT_EQ(parked_requests_sum, outage.requests_parked);
  EXPECT_LE(outage.ended + outage.disasters, outage.started);
  if (cfg.faults.outage.enabled()) {
    EXPECT_GE(reg.gauge("outage.downtime_s").value(), 0.0);
  } else {
    EXPECT_EQ(outage.started, 0u);
    EXPECT_EQ(outage.extents_parked, 0u);
  }

  // Recovery ledger: the registry's recovery.* lane, the scheduler's
  // RecoveryStats, the journal's own ledger, and the injector's crash
  // counter all agree exactly; the journal conserves every append; and
  // replaying snapshot + surviving log reproduces the live catalog
  // field-for-field after reconciliation.
  const sched::RecoveryStats& rec = sim.recovery_stats();
  EXPECT_EQ(reg.counter("recovery.crashes").value(), rec.crashes);
  EXPECT_EQ(reg.counter("recovery.checkpoints").value(), rec.checkpoints);
  EXPECT_EQ(reg.counter("recovery.records_replayed").value(),
            rec.records_replayed);
  EXPECT_EQ(reg.counter("recovery.lost_mutations").value(),
            rec.lost_mutations);
  EXPECT_EQ(reg.counter("recovery.reconciled_mutations").value(),
            rec.reconciled_mutations);
  EXPECT_EQ(reg.counter("recovery.admissions_parked").value(),
            rec.admissions_parked);
  EXPECT_EQ(fc.metadata_crashes, rec.crashes);
  EXPECT_EQ(rec.rto.count(), rec.crashes);
  EXPECT_EQ(rec.snapshot_age.count(), rec.crashes);
  if (catalog::Journal* journal = sim.journal()) {
    const catalog::JournalStats& js = journal->stats();
    EXPECT_EQ(js.appends,
              js.records_truncated + js.records_lost + journal->live_records());
    EXPECT_EQ(js.records_lost, js.records_reconciled);
    EXPECT_EQ(js.records_lost, rec.lost_mutations);
    EXPECT_EQ(js.records_reconciled, rec.reconciled_mutations);
    EXPECT_EQ(js.checkpoints, rec.checkpoints);
    if (cfg.journal.fsync == catalog::FsyncPolicy::kSync) {
      EXPECT_EQ(js.records_lost, 0u) << "sync fsync must never lose records";
    }
    EXPECT_TRUE(journal->replay().equals(sim.catalog()))
        << "durable state diverged from the live catalog";
  } else {
    EXPECT_FALSE(cfg.journal.enabled);
    EXPECT_EQ(rec.crashes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Replicated scenario for the fail-slow soak: the same two-library
/// system with extra tapes and a 2-way replicated parallel-batch plan,
/// so every object keeps a cross-library copy for hedged reads to race.
struct ReplicatedFixture {
  exp::ExperimentConfig config;
  exp::Experiment experiment;
  core::PlacementPlan plan;

  ReplicatedFixture()
      : config(make_config()), experiment(config), plan(make_plan()) {}

  static exp::ExperimentConfig make_config() {
    exp::ExperimentConfig c;
    c.spec.num_libraries = 2;
    c.spec.library.drives_per_library = 3;
    // Replicas land on tapes the primary layout left empty, so the pool
    // is sized at several times the primary footprint.
    c.spec.library.tapes_per_library = 24;
    c.spec.library.tape_capacity = 40_GB;
    c.workload.num_objects = 800;
    c.workload.num_requests = 60;
    c.workload.min_objects_per_request = 2;
    c.workload.max_objects_per_request = 8;
    c.workload.object_groups = 20;
    c.workload.min_object_size = Bytes{100ULL * 1000 * 1000};
    c.workload.max_object_size = Bytes{1500ULL * 1000 * 1000};
    c.seed = 11;
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

  static const ReplicatedFixture& instance() {
    static const ReplicatedFixture fixture;
    return fixture;
  }
};

/// Replicated outage posture: transient library outages on every seed,
/// site disasters on about half of them, media errors and background
/// repair always live. Failovers, parked extents, repair copies and the
/// DR surge all interleave with deadline expiries.
sched::SimulatorConfig replicated_outage_config(Rng& rng,
                                                obs::Tracer* tracer) {
  sched::SimulatorConfig cfg;
  cfg.tracer = tracer;
  cfg.faults.seed = rng();
  cfg.faults.outage.library_mtbf = Seconds{rng.uniform(1500.0, 8000.0)};
  cfg.faults.outage.library_mttr = Seconds{rng.uniform(200.0, 2500.0)};
  cfg.faults.outage.disaster_fraction = rng.uniform() < 0.5 ? 0.25 : 0.0;
  cfg.faults.outage.dr_max_concurrent =
      1 + static_cast<std::uint32_t>(rng.uniform_below(4));
  cfg.faults.media_error_per_gb = rng.uniform(0.0005, 0.004);
  cfg.faults.mount_failure_prob = rng.uniform(0.0, 0.03);
  if (rng.uniform() < 0.5) {
    cfg.faults.drive_mtbf = Seconds{rng.uniform(3e4, 2e5)};
    cfg.faults.drive_mttr = Seconds{900.0};
    cfg.faults.permanent_fraction = 0.1;
  }
  cfg.repair.enabled = true;
  cfg.repair.max_concurrent =
      1 + static_cast<std::uint32_t>(rng.uniform_below(3));
  cfg.repair.bandwidth_fraction = rng.uniform(0.3, 1.0);
  EXPECT_TRUE(cfg.try_validate().ok());
  return cfg;
}

class ReplicatedOutageSoak : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ReplicatedOutageSoak, OutageAndRepairLedgersSurviveRandomSchedules) {
  const std::uint64_t seed = GetParam();
  const ReplicatedFixture& fx = ReplicatedFixture::instance();
  Rng rng{seed * 0x94D049BB133111EBULL + 1};

  obs::Tracer tracer;
  const sched::SimulatorConfig cfg = replicated_outage_config(rng, &tracer);
  sched::RetrievalSimulator sim(fx.plan, cfg);

  workload::StormConfig storm;
  storm.base_rate = 1.0 / 400.0;
  storm.burst_rate = 1.0 / 40.0;
  storm.mean_burst_duration = Seconds{1200.0};
  storm.mean_calm_duration = Seconds{4000.0};
  storm.batch_fraction = 0.4;
  const workload::RequestSampler sampler(fx.experiment.workload());
  const auto arrivals = workload::storm_arrivals(sampler, storm, 100, rng);

  Seconds prev_now{};
  std::uint64_t parked_extents_sum = 0;
  std::uint64_t parked_requests_sum = 0;
  for (const auto& arrival : arrivals) {
    if (sim.engine().now() < arrival.time) {
      sim.engine().schedule_at(arrival.time, [] {});
      sim.engine().run();
    }

    sched::RequestContext ctx;
    ctx.priority = arrival.priority;
    if (rng.uniform() < 0.5) {
      ctx.deadline = sim.engine().now() + Seconds{rng.uniform(1200.0, 9000.0)};
    }
    const auto o = sim.run_request(arrival.request, ctx);

    EXPECT_GE(sim.engine().now().count(), prev_now.count());
    prev_now = sim.engine().now();

    Bytes expected{};
    for (const ObjectId obj :
         fx.experiment.workload().request(arrival.request).objects) {
      expected += fx.experiment.workload().object_size(obj);
    }
    ASSERT_EQ(o.bytes.count(), expected.count());
    ASSERT_EQ(o.bytes_served().count() + o.bytes_unavailable.count() +
                  o.bytes_expired.count(),
              o.bytes.count());
    parked_extents_sum += o.extents_parked;
    if (o.extents_parked > 0) ++parked_requests_sum;

    check_mount_exclusivity(sim, fx.config.spec);
  }
  sim.drain_repairs();
  EXPECT_EQ(sim.repair_backlog(), 0u);

  auto& reg = tracer.registry();
  EXPECT_EQ(reg.counter("sched.requests").value(), arrivals.size());
  const fault::FaultCounters& fc = sim.fault_injector()->counters();
  const sched::OutageStats& outage = sim.outage_stats();
  EXPECT_GT(outage.started, 0u) << "the posture must exercise outages";
  EXPECT_EQ(reg.counter("outage.started").value(), outage.started);
  EXPECT_EQ(reg.counter("outage.ended").value(), outage.ended);
  EXPECT_EQ(reg.counter("outage.disasters").value(), outage.disasters);
  EXPECT_EQ(reg.counter("outage.failovers").value(), outage.failovers);
  EXPECT_EQ(reg.counter("outage.requests_parked").value(),
            outage.requests_parked);
  EXPECT_EQ(reg.counter("outage.dr_jobs").value(), outage.dr_jobs);
  EXPECT_EQ(reg.counter("outage.dr_bytes").value(), outage.dr_bytes);
  EXPECT_EQ(fc.library_outages, outage.started);
  EXPECT_EQ(fc.library_disasters, outage.disasters);
  EXPECT_EQ(parked_extents_sum, outage.extents_parked);
  EXPECT_EQ(parked_requests_sum, outage.requests_parked);
  EXPECT_LE(outage.ended + outage.disasters, outage.started);
  if (outage.disasters == 0) {
    EXPECT_EQ(outage.dr_jobs, 0u);
  }

  // Repair ledger: after the drain every scheduled copy job completed or
  // was abandoned, and the registry agrees with the scheduler's totals.
  const sched::RepairStats& repair = sim.repair_stats();
  EXPECT_EQ(repair.jobs_scheduled,
            repair.jobs_completed + repair.jobs_abandoned);
  EXPECT_EQ(reg.counter("repair.completed").value(), repair.jobs_completed);
  EXPECT_EQ(reg.counter("repair.copied_bytes").value(), repair.bytes_copied);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicatedOutageSoak,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Fail-slow posture: drive degraded-throughput episodes on every seed,
/// robot slowdowns on most, the gray-failure detector and hedged reads
/// always live, quarantine on most seeds — all interleaved with the
/// ordinary hardware-fault background.
sched::SimulatorConfig failslow_chaos_config(Rng& rng, obs::Tracer* tracer) {
  sched::SimulatorConfig cfg;
  cfg.tracer = tracer;
  cfg.faults.seed = rng();
  cfg.faults.mount_failure_prob = rng.uniform(0.0, 0.04);
  cfg.faults.media_error_per_gb = rng.uniform() < 0.4 ? 0.002 : 0.0;
  if (rng.uniform() < 0.4) {
    cfg.faults.drive_mtbf = Seconds{rng.uniform(8e4, 3e5)};
    cfg.faults.drive_mttr = Seconds{900.0};
    cfg.faults.permanent_fraction = 0.1;
  }
  cfg.faults.failslow.drive_slow_mtbf = Seconds{rng.uniform(5e3, 4e4)};
  cfg.faults.failslow.drive_slow_duration =
      Seconds{rng.uniform(2000.0, 10000.0)};
  cfg.faults.failslow.drive_severity_min = 0.02;
  cfg.faults.failslow.drive_severity_max = rng.uniform(0.1, 0.3);
  cfg.faults.failslow.progressive = rng.uniform() < 0.3;
  if (rng.uniform() < 0.6) {
    cfg.faults.failslow.robot_slow_mtbf = Seconds{rng.uniform(3e4, 1.5e5)};
    cfg.faults.failslow.robot_slow_duration =
        Seconds{rng.uniform(1000.0, 6000.0)};
  }
  cfg.detector.enabled = true;
  cfg.detector.quarantine = rng.uniform() < 0.8;
  cfg.detector.window = Seconds{rng.uniform(600.0, 1500.0)};
  cfg.detector.probation = Seconds{rng.uniform(900.0, 3600.0)};
  cfg.hedge.enabled = true;
  cfg.hedge.min_history = 8;
  cfg.hedge.budget_fraction = rng.uniform(0.1, 0.3);
  EXPECT_TRUE(cfg.try_validate().ok());
  return cfg;
}

class FailSlowChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailSlowChaosSoak, HedgeAndQuarantineLedgersSurviveRandomSchedules) {
  const std::uint64_t seed = GetParam();
  const ReplicatedFixture& fx = ReplicatedFixture::instance();
  Rng rng{seed * 0xD1B54A32D192ED03ULL + 1};

  obs::Tracer tracer;
  const sched::SimulatorConfig cfg = failslow_chaos_config(rng, &tracer);
  sched::RetrievalSimulator sim(fx.plan, cfg);

  workload::StormConfig storm;
  storm.base_rate = 1.0 / 400.0;
  storm.burst_rate = 1.0 / 40.0;
  storm.mean_burst_duration = Seconds{1200.0};
  storm.mean_calm_duration = Seconds{4000.0};
  storm.batch_fraction = 0.4;
  const workload::RequestSampler sampler(fx.experiment.workload());
  const auto arrivals = workload::storm_arrivals(sampler, storm, 25, rng);

  Seconds prev_now{};
  for (const auto& arrival : arrivals) {
    if (sim.engine().now() < arrival.time) {
      sim.engine().schedule_at(arrival.time, [] {});
      sim.engine().run();
    }

    sched::RequestContext ctx;
    ctx.priority = arrival.priority;
    if (rng.uniform() < 0.5) {
      ctx.deadline = sim.engine().now() + Seconds{rng.uniform(1200.0, 9000.0)};
    }
    const auto o = sim.run_request(arrival.request, ctx);

    EXPECT_GE(sim.engine().now().count(), prev_now.count());
    prev_now = sim.engine().now();

    // Byte conservation holds with hedges in flight: the speculative
    // chain and the primary share one accounting slot per object, so no
    // byte is served twice and no loser leaks into the outcome.
    Bytes expected{};
    for (const ObjectId obj :
         fx.experiment.workload().request(arrival.request).objects) {
      expected += fx.experiment.workload().object_size(obj);
    }
    ASSERT_EQ(o.bytes.count(), expected.count());
    ASSERT_EQ(o.bytes_served().count() + o.bytes_unavailable.count() +
                  o.bytes_expired.count(),
              o.bytes.count());
    EXPECT_EQ(o.extents_parked, 0u) << "no outages in this posture";

    check_mount_exclusivity(sim, fx.config.spec);
  }

  // End-of-run reconciliation: the failslow.* registry lane, the
  // scheduler's FailSlowStats, and the injector's episode counters agree
  // exactly, and the hedge ledger balances.
  auto& reg = tracer.registry();
  EXPECT_EQ(reg.counter("sched.requests").value(), arrivals.size());

  const fault::FaultInjector* inj = sim.fault_injector();
  ASSERT_NE(inj, nullptr);
  const fault::FaultCounters& fc = inj->counters();
  EXPECT_EQ(reg.counter("fault.mount_failures").value(), fc.mount_failures);
  EXPECT_EQ(reg.counter("fault.media_errors").value(), fc.media_errors);
  EXPECT_EQ(reg.counter("fault.drive_failures").value(), fc.drive_failures);

  const sched::FailSlowStats& fs = sim.failslow_stats();
  EXPECT_EQ(reg.counter("failslow.detected").value(), fs.detected);
  EXPECT_EQ(reg.counter("failslow.false_positives").value(),
            fs.false_positives);
  EXPECT_EQ(reg.counter("failslow.quarantines").value(), fs.quarantines);
  EXPECT_EQ(reg.counter("failslow.hedges_issued").value(), fs.hedges_issued);
  EXPECT_EQ(reg.counter("failslow.hedges_won").value(), fs.hedges_won);
  EXPECT_EQ(reg.counter("failslow.hedges_lost").value(), fs.hedges_lost);
  EXPECT_EQ(reg.counter("failslow.hedge_wasted_bytes").value(),
            fs.hedge_bytes_wasted);
  EXPECT_EQ(fs.hedges_issued, fs.hedges_won + fs.hedges_lost);
  if (cfg.detector.quarantine) {
    EXPECT_EQ(fs.quarantines, fs.detected + fs.false_positives);
  } else {
    EXPECT_EQ(fs.quarantines, 0u);
  }

  EXPECT_EQ(reg.counter("failslow.episodes").value(),
            fc.slow_episodes + fc.robot_slow_episodes);
  EXPECT_EQ(reg.gauge("failslow.drive_s").value(), fc.slow_drive_seconds);
  if (cfg.faults.failslow.robot_slow_mtbf.count() == 0.0) {
    EXPECT_EQ(fc.robot_slow_episodes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailSlowChaosSoak,
                         ::testing::Range<std::uint64_t>(1, 21));

/// Recovery-governor posture: a deterministic fault burst mid-stream (the
/// metastable trigger) under random retry-budget ratios, breaker
/// thresholds, and shed-ladder knobs. Some seeds run with the governor
/// configured but disabled — the passive path must hold the same
/// invariants (and an all-zero ledger).
sched::SimulatorConfig governor_chaos_config(Rng& rng, obs::Tracer* tracer) {
  sched::SimulatorConfig cfg;
  cfg.tracer = tracer;
  cfg.faults.seed = rng();
  cfg.faults.mount_failure_prob = rng.uniform(0.0, 0.05);
  cfg.faults.media_error_per_gb = rng.uniform(0.0, 0.01);
  cfg.faults.degraded_after = 2 + static_cast<std::uint32_t>(
                                      rng.uniform_below(8));
  cfg.faults.lost_after = cfg.faults.degraded_after +
                          8 + static_cast<std::uint32_t>(rng.uniform_below(40));
  cfg.faults.degraded_error_multiplier = rng.uniform(1.0, 200.0);
  cfg.faults.media_retry.max_retries =
      static_cast<std::uint32_t>(rng.uniform_below(5));
  cfg.faults.media_retry.initial_delay = Seconds{rng.uniform(1.0, 30.0)};
  cfg.faults.burst.at = Seconds{rng.uniform(500.0, 4000.0)};
  cfg.faults.burst.duration = Seconds{rng.uniform(500.0, 3000.0)};
  cfg.faults.burst.mount_failure_prob = rng.uniform(0.2, 0.8);
  cfg.faults.burst.media_error_per_gb = rng.uniform(0.3, 1.5);
  if (rng.uniform() < 0.4) {
    cfg.scrub.enabled = true;
    cfg.scrub.interval = Seconds{rng.uniform(500.0, 4000.0)};
  }
  if (rng.uniform() < 0.4) {
    cfg.evacuation.enabled = true;
    cfg.evacuation.threshold = rng.uniform(0.3, 0.7);
  }
  if (rng.uniform() < 0.4) {
    // Hedged reads feed the governor's kHedge admission class.
    cfg.detector.enabled = true;
    cfg.detector.quarantine = rng.uniform() < 0.5;
    cfg.hedge.enabled = true;
    cfg.hedge.min_history = 8;
    cfg.hedge.budget_fraction = rng.uniform(0.1, 0.3);
  }

  sched::GovernorConfig& gov = cfg.governor;
  gov.enabled = rng.uniform() < 0.85;
  gov.budgets.enabled = rng.uniform() < 0.8;
  gov.budgets.retry_ratio = rng.uniform(0.05, 1.0);
  gov.budgets.failover_ratio = rng.uniform(0.05, 1.0);
  gov.budgets.hedge_ratio = rng.uniform(0.05, 1.0);
  gov.budgets.burst = rng.uniform(1.0, 16.0);
  gov.breaker.enabled = rng.uniform() < 0.8;
  gov.breaker.failure_threshold = rng.uniform(0.3, 0.9);
  gov.breaker.min_samples = 2 + static_cast<std::uint32_t>(
                                    rng.uniform_below(8));
  gov.breaker.window = Seconds{rng.uniform(200.0, 1500.0)};
  gov.breaker.open_duration = Seconds{rng.uniform(60.0, 600.0)};
  gov.breaker.close_after = 1 + static_cast<std::uint32_t>(
                                    rng.uniform_below(3));
  gov.metastable.enabled = rng.uniform() < 0.8;
  gov.metastable.bin = Seconds{rng.uniform(60.0, 600.0)};
  gov.metastable.ewma_alpha = rng.uniform(0.05, 0.5);
  gov.metastable.collapse_fraction = rng.uniform(0.1, 0.5);
  gov.metastable.recover_fraction =
      gov.metastable.collapse_fraction + rng.uniform(0.1, 0.4);
  gov.metastable.min_queue_depth = 1 + static_cast<std::uint32_t>(
                                           rng.uniform_below(6));
  gov.metastable.trip_bins = 1 + static_cast<std::uint32_t>(
                                     rng.uniform_below(3));
  gov.metastable.release_bins = 1 + static_cast<std::uint32_t>(
                                        rng.uniform_below(3));
  gov.metastable.repair_clamp = rng.uniform(0.1, 1.0);
  gov.metastable.budget_clamp = rng.uniform(0.3, 1.0);
  EXPECT_TRUE(cfg.try_validate().ok());
  return cfg;
}

class GovernorChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GovernorChaosSoak, BudgetLedgersSurviveRandomizedSchedules) {
  const std::uint64_t seed = GetParam();
  const ReplicatedFixture& fx = ReplicatedFixture::instance();
  Rng rng{seed * 0xBF58476D1CE4E5B9ULL + 1};

  obs::Tracer tracer;
  const sched::SimulatorConfig cfg = governor_chaos_config(rng, &tracer);
  sched::RetrievalSimulator sim(fx.plan, cfg);

  workload::StormConfig storm;
  storm.base_rate = 1.0 / 400.0;
  storm.burst_rate = 1.0 / 40.0;
  storm.mean_burst_duration = Seconds{1200.0};
  storm.mean_calm_duration = Seconds{4000.0};
  storm.batch_fraction = 0.4;
  const workload::RequestSampler sampler(fx.experiment.workload());
  const auto arrivals = workload::storm_arrivals(sampler, storm, 25, rng);

  Seconds prev_now{};
  for (const auto& arrival : arrivals) {
    if (sim.engine().now() < arrival.time) {
      sim.engine().schedule_at(arrival.time, [] {});
      sim.engine().run();
    }

    sched::RequestContext ctx;
    ctx.priority = arrival.priority;
    if (rng.uniform() < 0.6) {
      ctx.deadline = sim.engine().now() + Seconds{rng.uniform(600.0, 6000.0)};
    }
    const auto o = sim.run_request(arrival.request, ctx);

    // Every run_request returns — a fast-failed retry or an open breaker
    // must never wedge a chain; the clock stays monotone throughout.
    EXPECT_GE(sim.engine().now().count(), prev_now.count());
    prev_now = sim.engine().now();

    // Byte conservation holds under denials: a fast-failed extent is
    // accounted unavailable (or expired), never dropped.
    Bytes expected{};
    for (const ObjectId obj :
         fx.experiment.workload().request(arrival.request).objects) {
      expected += fx.experiment.workload().object_size(obj);
    }
    ASSERT_EQ(o.bytes.count(), expected.count());
    ASSERT_EQ(o.bytes_served().count() + o.bytes_unavailable.count() +
                  o.bytes_expired.count(),
              o.bytes.count());

    check_mount_exclusivity(sim, fx.config.spec);
  }

  // End-of-run reconciliation: per-class budget ledgers balance exactly,
  // and every governor.* registry counter equals its GovernorStats field.
  sim.governor().finish(sim.engine().now());
  const sched::GovernorStats& st = sim.governor_stats();
  auto& reg = tracer.registry();
  static constexpr sched::GovernorClass kClasses[] = {
      sched::GovernorClass::kRetry, sched::GovernorClass::kFailover,
      sched::GovernorClass::kHedge};
  for (const sched::GovernorClass cls : kClasses) {
    const sched::BudgetLedger& led = st.ledger(cls);
    EXPECT_EQ(led.attempts, led.admitted + led.fast_failed);
    EXPECT_EQ(led.fast_failed, led.budget_denied + led.breaker_denied);
    const std::string name = sched::to_string(cls);
    EXPECT_EQ(reg.counter("governor." + name + "_attempts").value(),
              led.attempts);
    EXPECT_EQ(reg.counter("governor." + name + "_admitted").value(),
              led.admitted);
    EXPECT_EQ(reg.counter("governor." + name + "_fast_failed").value(),
              led.fast_failed);
    if (!cfg.governor.enabled) {
      EXPECT_EQ(led.attempts, 0u) << "disabled governor must not account";
      EXPECT_EQ(led.demand, 0u);
    }
  }
  EXPECT_EQ(reg.counter("governor.breaker_opened").value(), st.breaker_opened);
  EXPECT_EQ(reg.counter("governor.breaker_reopened").value(),
            st.breaker_reopened);
  EXPECT_EQ(reg.counter("governor.breaker_closed").value(), st.breaker_closed);
  EXPECT_EQ(reg.counter("governor.breaker_probes").value(),
            st.breaker_probes);
  EXPECT_EQ(reg.counter("governor.metastable_trips").value(),
            st.metastable_trips);
  EXPECT_EQ(reg.counter("governor.metastable_releases").value(),
            st.metastable_releases);
  EXPECT_EQ(reg.counter("governor.shed_escalations").value(),
            st.shed_escalations);
  EXPECT_LE(st.metastable_releases, st.metastable_trips);
  EXPECT_LE(st.metastable_trips, st.shed_escalations);
  if (!cfg.governor.enabled || !cfg.governor.breaker.enabled) {
    EXPECT_EQ(st.breaker_opened, 0u);
    EXPECT_EQ(sim.governor().breakers_open(), 0u);
  }
  if (!cfg.governor.enabled || !cfg.governor.metastable.enabled) {
    EXPECT_EQ(st.metastable_trips, 0u);
    EXPECT_EQ(sim.governor().shed_level(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GovernorChaosSoak,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace tapesim
