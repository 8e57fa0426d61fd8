// Durable control plane: catalog journal, metadata crashes, and recovery
// replay in the retrieval simulator.
//
// Pins the crash-recovery acceptance bar from several directions: (1) a
// config with every journal and crash knob armed *except* the master
// switches must not perturb a single event of a faulty run, clock
// included — and the journal alone (crashes off) is equally invisible,
// because it is a passive ledger; (2) under synchronous fsync a crashed
// metadata server replays to a catalog exactly equal to the never-crashed
// one, asserted field by field over every primary, replica, health state,
// and retirement bit; (3) group commit loses only the provably-unsynced
// log suffix, and reconciliation against tape reality re-derives exactly
// those records (ledger conservation); (4) recovery windows park
// admissions and the kRecovery lane, recovery.* registry instruments, and
// RecoveryStats reconcile exactly; (5) checkpoint cadence bounds snapshot
// age and therefore replay length; (6) a 60 s group-commit window on a
// paper-scale replicated set recovers on every fault seed 1-30.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "catalog/journal.hpp"
#include "core/plan.hpp"
#include "metrics/request_metrics.hpp"
#include "obs/tracer.hpp"
#include "sched/simulator.hpp"
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

/// One library, two drives, four 10 GB tapes, five objects, optional
/// second copies — the replication-failover layout. Media errors degrade
/// cartridges (health mutations); with repair enabled the re-replication
/// jobs add replica-insert mutations, so a run exercises most of the
/// journal's mutation vocabulary.
struct Scenario {
  tape::SystemSpec spec;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<PlacementPlan> plan;

  explicit Scenario(bool replicated) {
    spec.num_libraries = 1;
    spec.library.drives_per_library = 2;
    spec.library.tapes_per_library = 4;
    spec.library.tape_capacity = 10_GB;

    std::vector<ObjectInfo> objects{{ObjectId{0}, 2_GB},
                                    {ObjectId{1}, 3_GB},
                                    {ObjectId{2}, 4_GB},
                                    {ObjectId{3}, 1_GB},
                                    {ObjectId{4}, 2_GB}};
    std::vector<Request> requests;
    const double p = 1.0 / 6.0;
    requests.push_back(Request{RequestId{0}, p, {ObjectId{0}}});
    requests.push_back(Request{RequestId{1}, p, {ObjectId{0}, ObjectId{1}}});
    requests.push_back(Request{RequestId{2}, p, {ObjectId{2}}});
    requests.push_back(Request{RequestId{3}, p, {ObjectId{3}}});
    requests.push_back(Request{RequestId{4}, p, {ObjectId{4}}});
    requests.push_back(Request{RequestId{5}, p, {ObjectId{3}, ObjectId{4}}});
    workload = std::make_unique<Workload>(std::move(objects),
                                          std::move(requests));

    plan = std::make_unique<PlacementPlan>(spec, *workload);
    plan->assign(ObjectId{0}, TapeId{0});
    plan->assign(ObjectId{1}, TapeId{0});
    plan->assign(ObjectId{2}, TapeId{1});
    plan->assign(ObjectId{3}, TapeId{2});
    plan->assign(ObjectId{4}, TapeId{3});
    plan->align_all(Alignment::kGivenOrder);
    if (replicated) {
      plan->freeze_layout();
      plan->assign_replica(ObjectId{0}, TapeId{1});
      plan->assign_replica(ObjectId{1}, TapeId{2});
      plan->assign_replica(ObjectId{2}, TapeId{3});
      plan->assign_replica(ObjectId{3}, TapeId{0});
      plan->assign_replica(ObjectId{4}, TapeId{2});
      plan->align_all(Alignment::kGivenOrder);
    }
    plan->compute_tape_popularity();
  }
};

/// Field-by-field equality: every primary record, every replica record,
/// every tape's health and retirement bit. Far noisier than
/// ObjectCatalog::equals on failure — each diverging field names itself.
void expect_catalogs_equal_field_by_field(const catalog::ObjectCatalog& a,
                                          const catalog::ObjectCatalog& b) {
  ASSERT_EQ(a.object_count(), b.object_count());
  ASSERT_EQ(a.replica_count(), b.replica_count());
  ASSERT_EQ(a.tape_count(), b.tape_count());
  a.for_each_primary([&](const catalog::ObjectRecord& rec) {
    const catalog::ObjectRecord* other = b.lookup(rec.object);
    ASSERT_NE(other, nullptr) << "object " << rec.object.value();
    EXPECT_EQ(rec.object, other->object);
    EXPECT_EQ(rec.size, other->size) << "object " << rec.object.value();
    EXPECT_EQ(rec.library, other->library) << "object " << rec.object.value();
    EXPECT_EQ(rec.tape, other->tape) << "object " << rec.object.value();
    EXPECT_EQ(rec.offset, other->offset) << "object " << rec.object.value();
    const auto ra = a.replicas(rec.object);
    const auto rb = b.replicas(rec.object);
    ASSERT_EQ(ra.size(), rb.size()) << "object " << rec.object.value();
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].tape, rb[i].tape) << "object " << rec.object.value()
                                        << " replica " << i;
      EXPECT_EQ(ra[i].library, rb[i].library);
      EXPECT_EQ(ra[i].offset, rb[i].offset);
      EXPECT_EQ(ra[i].size, rb[i].size);
    }
  });
  for (std::uint32_t t = 0; t < a.tape_count(); ++t) {
    EXPECT_EQ(a.tape_health(TapeId{t}), b.tape_health(TapeId{t}))
        << "tape " << t;
    EXPECT_EQ(a.tape_retired(TapeId{t}), b.tape_retired(TapeId{t}))
        << "tape " << t;
  }
  EXPECT_TRUE(a.equals(b));
}

SimulatorConfig crashy_config(catalog::FsyncPolicy fsync, double mtbf) {
  SimulatorConfig config;
  config.faults.seed = 11;
  config.faults.media_error_per_gb = 0.05;
  config.faults.crash.metadata_mtbf = Seconds{mtbf};
  config.journal.enabled = true;
  config.journal.fsync = fsync;
  config.repair.enabled = true;
  return config;
}

TEST(CrashRecovery, CrashesRequireTheJournal) {
  SimulatorConfig config;
  config.faults.crash.metadata_mtbf = Seconds{1000.0};
  const Status s = config.try_validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("journal"), std::string::npos);
  config.journal.enabled = true;
  EXPECT_TRUE(config.try_validate().ok());
}

TEST(CrashRecovery, JournalOffBitIdenticalRequestsAndClock) {
  // Armed journal knobs with the master switch off (and crashes off, as
  // validation demands) must not perturb a single event.
  Scenario base(/*replicated=*/true);
  Scenario other(/*replicated=*/true);
  SimulatorConfig plain;
  plain.faults.seed = 11;
  plain.faults.media_error_per_gb = 0.05;
  plain.repair.enabled = true;

  SimulatorConfig armed = plain;
  armed.journal.fsync = catalog::FsyncPolicy::kGroupCommit;
  armed.journal.group_window = Seconds{0.01};
  armed.journal.checkpoint_interval = Seconds{60.0};
  armed.journal.recovery_base = Seconds{500.0};
  ASSERT_FALSE(armed.journal.enabled);
  ASSERT_TRUE(armed.try_validate().ok());

  RetrievalSimulator a(*base.plan, plain);
  RetrievalSimulator b(*other.plan, armed);
  for (int round = 0; round < 4; ++round) {
    for (const std::uint32_t r : {2u, 1u, 5u, 0u, 3u, 4u}) {
      const auto oa = a.run_request(RequestId{r});
      const auto ob = b.run_request(RequestId{r});
      EXPECT_EQ(oa.response.count(), ob.response.count());
      EXPECT_EQ(oa.seek.count(), ob.seek.count());
      EXPECT_EQ(oa.transfer.count(), ob.transfer.count());
      EXPECT_EQ(oa.status, ob.status);
      EXPECT_EQ(a.engine().now().count(), b.engine().now().count());
    }
  }
  EXPECT_EQ(b.journal(), nullptr);
  EXPECT_EQ(b.recovery_stats().crashes, 0u);
}

TEST(CrashRecovery, PassiveJournalIsInvisibleToTheSimulation) {
  // Journal *on*, crashes off: the ledger records every mutation but the
  // event sequence and clock are still bit-identical to journal-off.
  Scenario base(/*replicated=*/true);
  Scenario other(/*replicated=*/true);
  SimulatorConfig plain;
  plain.faults.seed = 11;
  plain.faults.media_error_per_gb = 0.05;
  plain.repair.enabled = true;
  SimulatorConfig journaled = plain;
  journaled.journal.enabled = true;
  journaled.journal.fsync = catalog::FsyncPolicy::kGroupCommit;
  journaled.journal.checkpoint_interval = Seconds{30000.0};

  RetrievalSimulator a(*base.plan, plain);
  RetrievalSimulator b(*other.plan, journaled);
  for (int round = 0; round < 4; ++round) {
    for (const std::uint32_t r : {2u, 1u, 5u, 0u, 3u, 4u}) {
      const auto oa = a.run_request(RequestId{r});
      const auto ob = b.run_request(RequestId{r});
      EXPECT_EQ(oa.response.count(), ob.response.count());
      EXPECT_EQ(oa.status, ob.status);
      EXPECT_EQ(a.engine().now().count(), b.engine().now().count());
    }
  }
  a.drain_repairs();
  b.drain_repairs();
  EXPECT_EQ(a.engine().now().count(), b.engine().now().count());
  ASSERT_NE(b.journal(), nullptr);
  EXPECT_GT(b.journal()->stats().appends, 0u)
      << "seed no longer produces catalog mutations";
  // And the passive ledger still replays to the exact live state.
  expect_catalogs_equal_field_by_field(b.journal()->replay(), b.catalog());
}

TEST(CrashRecovery, SyncFsyncReplayEqualsNeverCrashedCatalogFieldByField) {
  // The acceptance criterion: under synchronous fsync the post-recovery
  // catalog is exactly equal to the never-crashed catalog. Two angles:
  // (a) cross-simulator — the same scenario with crashes off must end in
  // the same catalog; (b) in-simulator — the durable state replays to the
  // live catalog field by field after the run.
  Scenario crashed_s(/*replicated=*/true);
  Scenario plain_s(/*replicated=*/true);
  SimulatorConfig crashed_cfg =
      crashy_config(catalog::FsyncPolicy::kSync, 20000.0);
  SimulatorConfig plain_cfg = crashed_cfg;
  plain_cfg.faults.crash = fault::CrashConfig{};

  RetrievalSimulator crashed(*crashed_s.plan, crashed_cfg);
  RetrievalSimulator plain(*plain_s.plan, plain_cfg);
  for (int round = 0; round < 12; ++round) {
    for (const std::uint32_t r : {2u, 1u, 5u, 0u, 3u, 4u}) {
      crashed.run_request(RequestId{r});
      plain.run_request(RequestId{r});
    }
  }
  crashed.drain_repairs();
  plain.drain_repairs();
  ASSERT_GT(crashed.recovery_stats().crashes, 0u)
      << "seed no longer produces a metadata crash";
  ASSERT_GT(crashed.journal()->stats().appends, 0u)
      << "seed no longer produces catalog mutations";
  // Sync fsync: no mutation may be lost, ever.
  EXPECT_EQ(crashed.recovery_stats().lost_mutations, 0u);
  EXPECT_EQ(crashed.recovery_stats().reconciled_mutations, 0u);
  expect_catalogs_equal_field_by_field(crashed.catalog(), plain.catalog());
  expect_catalogs_equal_field_by_field(crashed.journal()->replay(),
                                       crashed.catalog());
}

TEST(CrashRecovery, GroupCommitLosesOnlyTheUnsyncedSuffix) {
  // A never-closing group window makes every record since the last
  // checkpoint unsynced: crashes produce torn tails, reconciliation
  // re-derives exactly the lost records, and the final catalog still
  // converges on the never-crashed truth (lost mutations are *metadata*
  // losses; the physical world they describe survives the crash).
  Scenario s(/*replicated=*/true);
  obs::Tracer tracer;
  SimulatorConfig config =
      crashy_config(catalog::FsyncPolicy::kGroupCommit, 20000.0);
  config.tracer = &tracer;
  config.journal.group_window = Seconds{100000.0};
  config.journal.group_max_records = 1000000;
  config.journal.checkpoint_interval = Seconds{0.0};  // only at recovery
  RetrievalSimulator sim(*s.plan, config);
  for (int round = 0; round < 12; ++round) {
    for (const std::uint32_t r : {2u, 1u, 5u, 0u, 3u, 4u}) {
      sim.run_request(RequestId{r});
    }
  }
  sim.drain_repairs();
  const RecoveryStats& rs = sim.recovery_stats();
  const catalog::JournalStats& js = sim.journal()->stats();
  ASSERT_GT(rs.crashes, 0u) << "seed no longer produces a metadata crash";
  ASSERT_GT(rs.lost_mutations, 0u)
      << "seed no longer tears an unsynced tail";
  // Scheduler-side and journal-side ledgers agree exactly.
  EXPECT_EQ(rs.lost_mutations, js.records_lost);
  EXPECT_EQ(rs.reconciled_mutations, js.records_reconciled);
  EXPECT_EQ(rs.lost_mutations, rs.reconciled_mutations);
  EXPECT_EQ(rs.records_replayed, js.records_replayed);
  // Conservation: every append is truncated, lost, or still live.
  EXPECT_EQ(js.appends,
            js.records_truncated + js.records_lost +
                sim.journal()->live_records());
  // Reconciliation converged: durable state + nothing pending == live.
  expect_catalogs_equal_field_by_field(sim.journal()->replay(),
                                       sim.catalog());

  // Registry mirror: every recovery.* instrument matches RecoveryStats.
  auto& reg = tracer.registry();
  EXPECT_EQ(reg.counter("recovery.crashes").value(), rs.crashes);
  EXPECT_EQ(reg.counter("recovery.records_replayed").value(),
            rs.records_replayed);
  EXPECT_EQ(reg.counter("recovery.lost_mutations").value(),
            rs.lost_mutations);
  EXPECT_EQ(reg.counter("recovery.reconciled_mutations").value(),
            rs.reconciled_mutations);
  EXPECT_EQ(reg.counter("recovery.admissions_parked").value(),
            rs.admissions_parked);
  EXPECT_EQ(reg.gauge("recovery.downtime_s").value(), rs.downtime.count());

  // One kRecovery span per crash; their widths sum to the downtime.
  double span_downtime = 0.0;
  std::uint64_t recovery_spans = 0;
  for (const obs::Span& span : tracer.spans()) {
    if (span.track != obs::Track::kRecovery) continue;
    EXPECT_EQ(span.phase, obs::Phase::kRecovery);
    ++recovery_spans;
    EXPECT_GE(span.end.count(), span.start.count());
    span_downtime += span.duration().count();
  }
  EXPECT_EQ(recovery_spans, rs.crashes);
  EXPECT_NEAR(span_downtime, rs.downtime.count(), 1e-9);

  // The injector and the scheduler agree on how many crashes happened.
  ASSERT_NE(sim.fault_injector(), nullptr);
  EXPECT_EQ(sim.fault_injector()->counters().metadata_crashes, rs.crashes);
}

TEST(CrashRecovery, RecoveryWindowsParkAdmissionsIntoResponseTime) {
  // A huge recovery base cost makes every crash open a long
  // metadata-unavailable window; the admission that observes it waits the
  // window out, and that wait lands in its measured response.
  Scenario s(/*replicated=*/false);
  SimulatorConfig config = crashy_config(catalog::FsyncPolicy::kSync, 20000.0);
  config.faults.media_error_per_gb = 0.0;  // healthy media: every byte serves
  config.repair.enabled = false;
  config.journal.recovery_base = Seconds{5000.0};
  RetrievalSimulator sim(*s.plan, config);
  double max_response = 0.0;
  for (int round = 0; round < 12; ++round) {
    for (const std::uint32_t r : {2u, 1u, 5u, 0u, 3u, 4u}) {
      const auto o = sim.run_request(RequestId{r});
      EXPECT_EQ(o.status, RequestStatus::kServed);
      max_response = std::max(max_response, o.response.count());
    }
  }
  const RecoveryStats& rs = sim.recovery_stats();
  ASSERT_GT(rs.crashes, 0u) << "seed no longer produces a metadata crash";
  ASSERT_GT(rs.admissions_parked, 0u)
      << "no admission ever landed inside a recovery window";
  EXPECT_GT(rs.parked.count(), 0.0);
  EXPECT_GE(max_response, 5000.0)
      << "parked admission delay never surfaced in a response";
  EXPECT_GE(rs.downtime.count(),
            5000.0 * static_cast<double>(rs.crashes));
  EXPECT_EQ(rs.rto.count(), rs.crashes);
  EXPECT_EQ(rs.snapshot_age.count(), rs.crashes);
}

TEST(CrashRecovery, CheckpointCadenceBoundsSnapshotAge) {
  // Same crash timeline, two checkpoint cadences: the tighter cadence
  // takes more checkpoints and holds every snapshot-age sample under its
  // interval (plus zero slack — age is measured at the crash instant).
  Scenario tight_s(/*replicated=*/true);
  Scenario loose_s(/*replicated=*/true);
  SimulatorConfig tight_cfg =
      crashy_config(catalog::FsyncPolicy::kSync, 20000.0);
  tight_cfg.journal.checkpoint_interval = Seconds{2000.0};
  SimulatorConfig loose_cfg = tight_cfg;
  loose_cfg.journal.checkpoint_interval = Seconds{1e9};

  RetrievalSimulator tight(*tight_s.plan, tight_cfg);
  RetrievalSimulator loose(*loose_s.plan, loose_cfg);
  for (int round = 0; round < 12; ++round) {
    for (const std::uint32_t r : {2u, 1u, 5u, 0u, 3u, 4u}) {
      tight.run_request(RequestId{r});
      loose.run_request(RequestId{r});
    }
  }
  const RecoveryStats& rt = tight.recovery_stats();
  const RecoveryStats& rl = loose.recovery_stats();
  ASSERT_GT(rt.crashes, 0u) << "seed no longer produces a metadata crash";
  ASSERT_EQ(rt.crashes, rl.crashes)
      << "checkpoint cadence perturbed the crash timeline";
  EXPECT_GT(rt.checkpoints, rl.checkpoints);
  // Periodic checkpoints are observed at admission boundaries, so a
  // snapshot can age one admission gap past the interval; the bound here
  // is generous but still far below the loose cadence's ages.
  EXPECT_LT(rt.snapshot_age.max(), 20000.0);
  EXPECT_GE(rl.snapshot_age.max(), rt.snapshot_age.max());
}

/// A 60 s group-commit window on a paper-scale replicated set: media errors
/// and repair feed replica inserts, and metadata crashes tear the unsynced
/// tail. A lost replica insert of an object and a later, surviving insert
/// of the same object then straddle the crash instant; reconciliation must
/// put the lost one back at its LSN place or the recovered replica order
/// differs from the live one. The simulator asserts convergence on every
/// crash. Before reconciliation merged by LSN, fault seeds 3, 10, 11 and
/// 18 aborted there.
class GroupCommitWindowCrash : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(GroupCommitWindowCrash, RecoveryConvergesOnTheLiveCatalog) {
  const ReplicatedPaperScenario s(2'000);
  SimulatorConfig config;
  config.faults.seed = GetParam();
  config.faults.media_error_per_gb = 0.002;
  config.faults.crash.metadata_mtbf = Seconds{27000.0};
  config.repair.enabled = true;
  config.journal.enabled = true;
  config.journal.fsync = catalog::FsyncPolicy::kGroupCommit;
  config.journal.group_window = Seconds{60.0};
  RetrievalSimulator sim(s.plan, config);
  const workload::RequestSampler sampler(s.experiment.workload());
  Rng rng{1};
  for (std::uint32_t i = 0; i < 200; ++i) {
    (void)sim.run_request(sampler.sample(rng));
  }
  sim.drain_repairs();
  const RecoveryStats& rs = sim.recovery_stats();
  const catalog::JournalStats& js = sim.journal()->stats();
  ASSERT_GT(rs.crashes, 0u) << "seed no longer produces a metadata crash";
  EXPECT_EQ(js.appends, js.records_truncated + js.records_lost +
                            sim.journal()->live_records());
  EXPECT_EQ(js.records_lost, js.records_reconciled);
  EXPECT_TRUE(sim.journal()->replay().equals(sim.catalog()));
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds1To30, GroupCommitWindowCrash,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace tapesim::sched
