#include "catalog/journal.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace tapesim::catalog {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

ObjectRecord record(std::uint32_t obj, std::uint32_t tape, Bytes offset,
                    Bytes size = 1_GB) {
  return ObjectRecord{ObjectId{obj}, size, LibraryId{tape / 80}, TapeId{tape},
                      offset};
}

JournalConfig enabled_config(FsyncPolicy policy = FsyncPolicy::kSync) {
  JournalConfig c;
  c.enabled = true;
  c.fsync = policy;
  return c;
}

// ---------------------------------------------------------------------------
// Config validation: every rejection rule, one knob at a time.

TEST(JournalConfig, DefaultIsValidAndDisabled) {
  const JournalConfig c;
  EXPECT_FALSE(c.enabled);
  EXPECT_TRUE(c.try_validate().ok());
}

TEST(JournalConfig, ErrorNamesTheStruct) {
  JournalConfig c;
  c.group_window = Seconds{0.0};
  const Status s = c.try_validate();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("JournalConfig"), std::string::npos);
}

TEST(JournalConfig, RejectsNonPositiveGroupWindow) {
  JournalConfig c;
  c.group_window = Seconds{0.0};
  EXPECT_FALSE(c.try_validate().ok());
  c.group_window = Seconds{-1.0};
  EXPECT_FALSE(c.try_validate().ok());
}

TEST(JournalConfig, RejectsZeroGroupSizeCap) {
  JournalConfig c;
  c.group_max_records = 0;
  EXPECT_FALSE(c.try_validate().ok());
}

TEST(JournalConfig, RejectsNonPositiveAsyncFlush) {
  JournalConfig c;
  c.async_flush = Seconds{0.0};
  EXPECT_FALSE(c.try_validate().ok());
}

TEST(JournalConfig, RejectsNegativeCheckpointInterval) {
  JournalConfig c;
  c.checkpoint_interval = Seconds{-1.0};
  EXPECT_FALSE(c.try_validate().ok());
  c.checkpoint_interval = Seconds{0.0};  // 0 = checkpoint only at recovery
  EXPECT_TRUE(c.try_validate().ok());
}

TEST(JournalConfig, RejectsNegativeRecoveryCosts) {
  JournalConfig c;
  c.recovery_base = Seconds{-1.0};
  EXPECT_FALSE(c.try_validate().ok());
  c = JournalConfig{};
  c.replay_per_record = Seconds{-0.001};
  EXPECT_FALSE(c.try_validate().ok());
  c = JournalConfig{};
  c.reconcile_per_record = Seconds{-1.0};
  EXPECT_FALSE(c.try_validate().ok());
  // Zero costs are legal: instant recovery is a valid model point.
  c = JournalConfig{};
  c.recovery_base = Seconds{0.0};
  c.replay_per_record = Seconds{0.0};
  c.reconcile_per_record = Seconds{0.0};
  EXPECT_TRUE(c.try_validate().ok());
}

TEST(JournalDeath, RefusesDisabledOrInvalidConfig) {
  EXPECT_DEATH(Journal(JournalConfig{}, 240), "disabled");
  JournalConfig bad = enabled_config();
  bad.group_window = Seconds{0.0};
  EXPECT_DEATH(Journal(bad, 240), "validate");
}

// ---------------------------------------------------------------------------
// Fsync policies: when records reach stable storage.

TEST(Journal, SyncPolicyIsDurableAtAppend) {
  Journal j(enabled_config(FsyncPolicy::kSync), 240);
  j.log_insert(record(1, 0, Bytes{0}), Seconds{10.0});
  j.log_insert(record(2, 1, Bytes{0}), Seconds{20.0});
  ASSERT_EQ(j.live_records(), 2u);
  EXPECT_EQ(j.records()[0].durable_at.count(), 10.0);
  EXPECT_EQ(j.records()[1].durable_at.count(), 20.0);
  EXPECT_EQ(j.stats().appends, 2u);
  EXPECT_EQ(j.stats().fsyncs, 2u);  // one fsync per record
}

TEST(Journal, LsnsAreAssignedInAppendOrder) {
  Journal j(enabled_config(), 240);
  j.log_insert(record(1, 0, Bytes{0}), Seconds{1.0});
  j.log_set_tape_health(TapeId{5}, ReplicaHealth::kDegraded, Seconds{2.0});
  j.log_retire_tape(TapeId{5}, Seconds{3.0});
  ASSERT_EQ(j.live_records(), 3u);
  EXPECT_EQ(j.records()[0].lsn, 1u);
  EXPECT_EQ(j.records()[1].lsn, 2u);
  EXPECT_EQ(j.records()[2].lsn, 3u);
  EXPECT_EQ(j.records()[1].kind, MutationKind::kSetTapeHealth);
  EXPECT_EQ(j.records()[2].kind, MutationKind::kRetireTape);
}

TEST(Journal, GroupCommitBatchSyncsWhenWindowCloses) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kGroupCommit);
  cfg.group_window = Seconds{1.0};
  Journal j(cfg, 240);
  j.log_insert(record(1, 0, Bytes{0}), Seconds{10.0});
  j.log_insert(record(2, 1, Bytes{0}), Seconds{10.5});
  // Batch still open: neither record is on stable storage yet.
  EXPECT_EQ(j.records()[0].durable_at.count(), kInf);
  EXPECT_EQ(j.records()[1].durable_at.count(), kInf);
  EXPECT_EQ(j.stats().fsyncs, 0u);
  // The next append past the window retroactively resolves the batch at
  // its due time (open + window), then opens a new batch.
  j.log_insert(record(3, 2, Bytes{0}), Seconds{12.0});
  EXPECT_EQ(j.records()[0].durable_at.count(), 11.0);
  EXPECT_EQ(j.records()[1].durable_at.count(), 11.0);
  EXPECT_EQ(j.records()[2].durable_at.count(), kInf);
  EXPECT_EQ(j.stats().fsyncs, 1u);  // one fsync for the whole batch
}

TEST(Journal, GroupCommitBatchSyncsAtSizeCap) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kGroupCommit);
  cfg.group_window = Seconds{100.0};  // window never closes in this test
  cfg.group_max_records = 3;
  Journal j(cfg, 240);
  j.log_insert(record(1, 0, Bytes{0}), Seconds{1.0});
  j.log_insert(record(2, 1, Bytes{0}), Seconds{2.0});
  EXPECT_EQ(j.stats().fsyncs, 0u);
  j.log_insert(record(3, 2, Bytes{0}), Seconds{3.0});  // cap reached
  EXPECT_EQ(j.records()[0].durable_at.count(), 3.0);
  EXPECT_EQ(j.records()[1].durable_at.count(), 3.0);
  EXPECT_EQ(j.records()[2].durable_at.count(), 3.0);
  EXPECT_EQ(j.stats().fsyncs, 1u);
}

TEST(Journal, AsyncPolicyWritesBackAfterFixedDelay) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kAsync);
  cfg.async_flush = Seconds{30.0};
  Journal j(cfg, 240);
  j.log_insert(record(1, 0, Bytes{0}), Seconds{100.0});
  EXPECT_EQ(j.records()[0].durable_at.count(), 130.0);
}

// ---------------------------------------------------------------------------
// Checkpoints: snapshot + truncation bound replay length.

TEST(Journal, CheckpointTruncatesTheLog) {
  Journal j(enabled_config(), 240);
  ObjectCatalog cat(240);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const ObjectRecord r = record(i, i, Bytes{0});
    ASSERT_TRUE(cat.insert(r));
    j.log_insert(r, Seconds{static_cast<double>(i)});
  }
  EXPECT_EQ(j.live_records(), 5u);
  j.checkpoint(cat, Seconds{10.0});
  EXPECT_EQ(j.live_records(), 0u);
  EXPECT_EQ(j.stats().records_truncated, 5u);
  EXPECT_EQ(j.stats().checkpoints, 1u);
  EXPECT_EQ(j.snapshot_at().count(), 10.0);
  EXPECT_EQ(j.snapshot_lsn(), 5u);
  // Replay from the snapshot alone reproduces the catalog.
  ObjectCatalog rebuilt = j.replay();
  EXPECT_TRUE(rebuilt.equals(cat));
  EXPECT_EQ(j.stats().records_replayed, 0u);  // nothing left to replay
}

TEST(Journal, CheckpointDueFollowsTheInterval) {
  JournalConfig cfg = enabled_config();
  cfg.checkpoint_interval = Seconds{100.0};
  Journal j(cfg, 240);
  EXPECT_FALSE(j.checkpoint_due(Seconds{99.0}));
  EXPECT_TRUE(j.checkpoint_due(Seconds{100.0}));
  ObjectCatalog cat(240);
  j.checkpoint(cat, Seconds{150.0});
  EXPECT_FALSE(j.checkpoint_due(Seconds{249.0}));
  EXPECT_TRUE(j.checkpoint_due(Seconds{250.0}));
}

TEST(Journal, ZeroIntervalNeverComesDue) {
  JournalConfig cfg = enabled_config();
  cfg.checkpoint_interval = Seconds{0.0};
  const Journal j(cfg, 240);
  EXPECT_FALSE(j.checkpoint_due(Seconds{1e12}));
}

TEST(Journal, CheckpointBarrierSyncsPendingRecords) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kAsync);
  cfg.async_flush = Seconds{1000.0};
  Journal j(cfg, 240);
  ObjectCatalog cat(240);
  const ObjectRecord r = record(1, 0, Bytes{0});
  ASSERT_TRUE(cat.insert(r));
  j.log_insert(r, Seconds{5.0});
  j.checkpoint(cat, Seconds{6.0});  // long before the 1000 s writeback
  // A crash immediately after a checkpoint loses nothing: the barrier
  // forced the pending record down before truncating it.
  const auto cut = j.crash_cut(Seconds{6.0}, /*torn_draw=*/0.0);
  EXPECT_EQ(cut.lost, 0u);
}

// ---------------------------------------------------------------------------
// Crash cuts: the torn tail is exactly the unsynced suffix.

TEST(Journal, SyncPolicyNeverLosesRecords) {
  Journal j(enabled_config(FsyncPolicy::kSync), 240);
  for (std::uint32_t i = 0; i < 10; ++i) {
    j.log_insert(record(i, i, Bytes{0}), Seconds{static_cast<double>(i)});
  }
  const auto cut = j.crash_cut(Seconds{9.0}, /*torn_draw=*/0.0);
  EXPECT_EQ(cut.lost, 0u);
  EXPECT_EQ(cut.survivors, 10u);
  EXPECT_TRUE(j.take_lost().empty());
}

TEST(Journal, CrashCutDropsTheUnsyncedSuffix) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kGroupCommit);
  cfg.group_window = Seconds{1.0};
  Journal j(cfg, 240);
  j.log_insert(record(1, 0, Bytes{0}), Seconds{10.0});   // batch 1
  j.log_insert(record(2, 1, Bytes{0}), Seconds{20.0});   // batch 2, open
  j.log_insert(record(3, 2, Bytes{0}), Seconds{20.5});   // batch 2, open
  // Crash at 20.6: batch 1 closed at 11.0 and survives; batch 2's window
  // (due 21.0) never closed. Draw 0 → zero survivors from the tail.
  const auto cut = j.crash_cut(Seconds{20.6}, /*torn_draw=*/0.0);
  EXPECT_EQ(cut.survivors, 1u);
  EXPECT_EQ(cut.lost, 2u);
  const auto lost = j.take_lost();
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0].object.object, ObjectId{2});
  EXPECT_EQ(lost[1].object.object, ObjectId{3});
  EXPECT_EQ(j.stats().records_lost, 2u);
  EXPECT_EQ(j.stats().records_reconciled, 2u);
}

TEST(Journal, TornDrawPicksTheSurvivingPrefix) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kGroupCommit);
  cfg.group_window = Seconds{100.0};
  Journal j(cfg, 240);
  for (std::uint32_t i = 0; i < 4; ++i) {
    j.log_insert(record(i, i, Bytes{0}), Seconds{1.0 + i * 0.01});
  }
  // 4 unsynced records; draw 0.5 → floor(0.5 * 5) = 2 survive.
  const auto cut = j.crash_cut(Seconds{2.0}, /*torn_draw=*/0.5);
  EXPECT_EQ(cut.survivors, 2u);
  EXPECT_EQ(cut.lost, 2u);
  // Survivors are the *prefix* (the log is written in order) and are now
  // durable as of the crash.
  EXPECT_EQ(j.records()[0].object.object, ObjectId{0});
  EXPECT_EQ(j.records()[1].object.object, ObjectId{1});
  EXPECT_EQ(j.records()[1].durable_at.count(), 2.0);
  (void)j.take_lost();
}

TEST(Journal, TornDrawNearOneKeepsTheWholeTail) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kGroupCommit);
  cfg.group_window = Seconds{100.0};
  Journal j(cfg, 240);
  j.log_insert(record(1, 0, Bytes{0}), Seconds{1.0});
  j.log_insert(record(2, 1, Bytes{0}), Seconds{1.5});
  // floor(0.99 * 3) = 2: both unsynced records landed before the crash.
  const auto cut = j.crash_cut(Seconds{2.0}, /*torn_draw=*/0.99);
  EXPECT_EQ(cut.survivors, 2u);
  EXPECT_EQ(cut.lost, 0u);
}

TEST(Journal, CrashLeavesAsyncSyncedPrefixAlone) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kAsync);
  cfg.async_flush = Seconds{10.0};
  Journal j(cfg, 240);
  j.log_insert(record(1, 0, Bytes{0}), Seconds{0.0});   // durable at 10
  j.log_insert(record(2, 1, Bytes{0}), Seconds{50.0});  // durable at 60
  const auto cut = j.crash_cut(Seconds{55.0}, /*torn_draw=*/0.0);
  EXPECT_EQ(cut.survivors, 1u);  // record 1 wrote back at 10 < 55
  EXPECT_EQ(cut.lost, 1u);
  (void)j.take_lost();
}

TEST(JournalDeath, SecondCrashBeforeReconciliationIsABug) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kGroupCommit);
  cfg.group_window = Seconds{100.0};
  Journal j(cfg, 240);
  j.log_insert(record(1, 0, Bytes{0}), Seconds{1.0});
  (void)j.crash_cut(Seconds{2.0}, 0.0);
  EXPECT_DEATH((void)j.crash_cut(Seconds{3.0}, 0.0), "reconciled");
}

// ---------------------------------------------------------------------------
// Replay: snapshot + surviving log rebuilds the exact catalog.

TEST(Journal, ReplayReproducesTheCatalogExactly) {
  Journal j(enabled_config(), 240);
  ObjectCatalog cat(240);
  // A mixed mutation history: placements, replicas, health, retirement.
  Bytes offset{0};
  for (std::uint32_t i = 0; i < 20; ++i) {
    const ObjectRecord r = record(i, i % 8, offset);
    ASSERT_TRUE(cat.insert(r));
    j.log_insert(r, Seconds{static_cast<double>(i)});
    if (i % 8 == 7) offset += 1_GB;
  }
  j.checkpoint(cat, Seconds{25.0});  // snapshot mid-history
  for (std::uint32_t i = 0; i < 10; ++i) {
    const ObjectRecord copy = record(i, 100 + i, Bytes{0});
    ASSERT_TRUE(cat.insert_replica(copy));
    j.log_insert_replica(copy, Seconds{30.0 + i});
  }
  cat.set_tape_health(TapeId{3}, ReplicaHealth::kDegraded);
  j.log_set_tape_health(TapeId{3}, ReplicaHealth::kDegraded, Seconds{41.0});
  cat.set_tape_health(TapeId{4}, ReplicaHealth::kLost);
  j.log_set_tape_health(TapeId{4}, ReplicaHealth::kLost, Seconds{42.0});
  cat.retire_tape(TapeId{4});
  j.log_retire_tape(TapeId{4}, Seconds{43.0});

  ObjectCatalog rebuilt = j.replay();
  EXPECT_TRUE(rebuilt.equals(cat));
  EXPECT_EQ(j.stats().records_replayed, 13u);  // 10 replicas + 3 tape ops
  // A second replay is idempotent — same result, same source log.
  ObjectCatalog again = j.replay();
  EXPECT_TRUE(again.equals(cat));
}

TEST(Journal, ApplyIsIdempotent) {
  ObjectCatalog cat(240);
  JournalRecord rec;
  rec.kind = MutationKind::kInsert;
  rec.object = record(1, 0, Bytes{0});
  Journal::apply(cat, rec);
  Journal::apply(cat, rec);  // duplicate insert is a no-op
  EXPECT_EQ(cat.object_count(), 1u);
  rec.kind = MutationKind::kInsertReplica;
  rec.object = record(1, 5, Bytes{0});
  Journal::apply(cat, rec);
  Journal::apply(cat, rec);
  EXPECT_EQ(cat.copy_count(ObjectId{1}), 2u);
  rec.kind = MutationKind::kRetireTape;
  rec.tape = TapeId{5};
  Journal::apply(cat, rec);
  Journal::apply(cat, rec);
  EXPECT_TRUE(cat.tape_retired(TapeId{5}));
}

TEST(Journal, ReplayAfterCrashCutSkipsTheLostTail) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kGroupCommit);
  cfg.group_window = Seconds{100.0};
  Journal j(cfg, 240);
  ObjectCatalog cat(240);
  ObjectCatalog durable_only(240);
  for (std::uint32_t i = 0; i < 6; ++i) {
    const ObjectRecord r = record(i, i, Bytes{0});
    ASSERT_TRUE(cat.insert(r));
    j.log_insert(r, Seconds{1.0 + i * 0.01});
  }
  // floor(0.4 * 7) = 2 survive, 4 lost.
  const auto cut = j.crash_cut(Seconds{2.0}, /*torn_draw=*/0.4);
  ASSERT_EQ(cut.survivors, 2u);
  for (std::uint32_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(durable_only.insert(record(i, i, Bytes{0})));
  }
  ObjectCatalog rebuilt = j.replay();
  EXPECT_TRUE(rebuilt.equals(durable_only));
  EXPECT_FALSE(rebuilt.equals(cat));
  // Reconciliation re-derives the lost mutations; the catalogs converge.
  for (const JournalRecord& lost : j.take_lost()) {
    Journal::apply(rebuilt, lost);
  }
  EXPECT_TRUE(rebuilt.equals(cat));
}

TEST(Journal, ReconciledRecordsReplayAtTheirLsnPlace) {
  // A lost replica insert (before the crash instant) and a surviving
  // replica insert of the same object (logged after the crash instant, by
  // the recovered server) straddle the cut. Re-applying the lost record
  // after the surviving log would reverse the object's replica order.
  JournalConfig cfg = enabled_config(FsyncPolicy::kGroupCommit);
  cfg.group_window = Seconds{100.0};
  Journal j(cfg, 240);
  ObjectCatalog cat(240);
  ASSERT_TRUE(cat.insert(record(1, 0, Bytes{0})));
  j.checkpoint(cat, Seconds{0.5});
  const ObjectRecord before = record(1, 170, Bytes{0});
  const ObjectRecord after = record(1, 173, Bytes{0});
  ASSERT_TRUE(cat.insert_replica(before));
  j.log_insert_replica(before, Seconds{1.0});
  ASSERT_TRUE(cat.insert_replica(after));
  j.log_insert_replica(after, Seconds{3.0});
  const auto cut = j.crash_cut(Seconds{2.0}, /*torn_draw=*/0.0);
  ASSERT_EQ(cut.lost, 1u);
  ASSERT_EQ(cut.survivors, 1u);
  const std::vector<JournalRecord> lost = j.take_lost();
  ASSERT_EQ(lost.size(), 1u);
  ASSERT_LT(lost[0].lsn, j.records()[0].lsn);

  ObjectCatalog appended = j.replay();
  Journal::apply(appended, lost[0]);
  EXPECT_EQ(appended.replicas(ObjectId{1})[0], after);
  EXPECT_FALSE(appended.equals(cat));

  const ObjectCatalog merged = j.replay(lost);
  ASSERT_EQ(merged.replicas(ObjectId{1}).size(), 2u);
  EXPECT_EQ(merged.replicas(ObjectId{1})[0], before);
  EXPECT_EQ(merged.replicas(ObjectId{1})[1], after);
  EXPECT_TRUE(merged.equals(cat));
}

TEST(Journal, SnapshotIsACopyNotAnAlias) {
  Journal j(enabled_config(), 240);
  ObjectCatalog cat(240);
  ASSERT_TRUE(cat.insert(record(1, 0, Bytes{0})));
  j.checkpoint(cat, Seconds{1.0});
  // Mutations the journal never saw stay out of the snapshot.
  ASSERT_TRUE(cat.insert(record(2, 1, Bytes{0})));
  ASSERT_TRUE(cat.insert_replica(record(1, 5, Bytes{0})));
  cat.retire_tape(TapeId{5});
  const ObjectCatalog rebuilt = j.replay();
  EXPECT_EQ(rebuilt.object_count(), 1u);
  EXPECT_EQ(rebuilt.copy_count(ObjectId{1}), 1u);
  EXPECT_FALSE(rebuilt.tape_retired(TapeId{5}));
  // And a replayed catalog is its own value: mutating it leaves the next
  // replay unchanged.
  ObjectCatalog scratch = j.replay();
  ASSERT_TRUE(scratch.insert(record(3, 2, Bytes{0})));
  EXPECT_TRUE(j.replay().equals(rebuilt));
}

// ---------------------------------------------------------------------------
// Ledger conservation: every append is truncated, lost, or live.

TEST(Journal, LedgerConservesAppends) {
  JournalConfig cfg = enabled_config(FsyncPolicy::kGroupCommit);
  cfg.group_window = Seconds{0.5};
  cfg.group_max_records = 4;
  Journal j(cfg, 240);
  ObjectCatalog cat(240);
  std::uint32_t next_obj = 0;
  const auto add = [&](Seconds at) {
    const ObjectRecord r = record(next_obj, next_obj % 240, Bytes{0});
    ++next_obj;
    ASSERT_TRUE(cat.insert(r));
    j.log_insert(r, at);
  };
  for (std::uint32_t i = 0; i < 7; ++i) add(Seconds{i * 0.1});
  j.checkpoint(cat, Seconds{1.0});
  for (std::uint32_t i = 0; i < 5; ++i) add(Seconds{2.0 + i * 0.01});
  (void)j.crash_cut(Seconds{2.1}, /*torn_draw=*/0.3);
  (void)j.take_lost();
  for (std::uint32_t i = 0; i < 3; ++i) add(Seconds{3.0 + i * 0.01});
  const JournalStats& s = j.stats();
  EXPECT_EQ(s.appends, 15u);
  EXPECT_EQ(s.appends,
            s.records_truncated + s.records_lost + j.live_records());
  EXPECT_EQ(s.records_lost, s.records_reconciled);
}

// ---------------------------------------------------------------------------
// Enum labels (trace/table rendering).

TEST(Journal, EnumLabels) {
  EXPECT_STREQ(to_string(FsyncPolicy::kSync), "sync");
  EXPECT_STREQ(to_string(FsyncPolicy::kGroupCommit), "group");
  EXPECT_STREQ(to_string(FsyncPolicy::kAsync), "async");
  EXPECT_STREQ(to_string(MutationKind::kInsert), "insert");
  EXPECT_STREQ(to_string(MutationKind::kInsertReplica), "insert_replica");
  EXPECT_STREQ(to_string(MutationKind::kSetTapeHealth), "set_tape_health");
  EXPECT_STREQ(to_string(MutationKind::kRetireTape), "retire_tape");
}

}  // namespace
}  // namespace tapesim::catalog
