#include "catalog/journal.hpp"

#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace tapesim::catalog {

namespace {
constexpr Seconds kNever{std::numeric_limits<double>::infinity()};
}  // namespace

// Idempotent apply: inserts already present (covered by the snapshot, or
// re-derived by reconciliation) return false and are skipped; health and
// retirement are monotone by construction.
void Journal::apply(ObjectCatalog& c, const JournalRecord& rec) {
  switch (rec.kind) {
    case MutationKind::kInsert:
      (void)c.insert(rec.object);
      break;
    case MutationKind::kInsertReplica:
      (void)c.insert_replica(rec.object);
      break;
    case MutationKind::kSetTapeHealth:
      c.set_tape_health(rec.tape, rec.health);
      break;
    case MutationKind::kRetireTape:
      c.retire_tape(rec.tape);
      break;
  }
}

const char* to_string(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kSync: return "sync";
    case FsyncPolicy::kGroupCommit: return "group";
    case FsyncPolicy::kAsync: return "async";
  }
  return "?";
}

const char* to_string(MutationKind k) {
  switch (k) {
    case MutationKind::kInsert: return "insert";
    case MutationKind::kInsertReplica: return "insert_replica";
    case MutationKind::kSetTapeHealth: return "set_tape_health";
    case MutationKind::kRetireTape: return "retire_tape";
  }
  return "?";
}

Status JournalConfig::try_validate() const {
  StatusBuilder check("JournalConfig");
  check.require(group_window.count() > 0.0,
                "group-commit window must be positive");
  check.require(group_max_records > 0,
                "group-commit size cap must allow at least one record");
  check.require(async_flush.count() > 0.0,
                "async writeback delay must be positive");
  check.require(checkpoint_interval.count() >= 0.0,
                "checkpoint interval must be >= 0");
  check.require(recovery_base.count() >= 0.0,
                "recovery base cost must be >= 0");
  check.require(replay_per_record.count() >= 0.0,
                "per-record replay cost must be >= 0");
  check.require(reconcile_per_record.count() >= 0.0,
                "per-record reconcile cost must be >= 0");
  return check.take();
}

Journal::Journal(const JournalConfig& config, std::uint32_t total_tapes)
    : config_(config), snapshot_(total_tapes) {
  TAPESIM_ASSERT_MSG(config_.enabled, "journal built while disabled");
  TAPESIM_ASSERT_MSG(config_.try_validate().ok(),
                     "journal config must validate");
}

void Journal::log_insert(const ObjectRecord& rec, Seconds now) {
  JournalRecord r;
  r.kind = MutationKind::kInsert;
  r.object = rec;
  append(r, now);
}

void Journal::log_insert_replica(const ObjectRecord& rec, Seconds now) {
  JournalRecord r;
  r.kind = MutationKind::kInsertReplica;
  r.object = rec;
  append(r, now);
}

void Journal::log_set_tape_health(TapeId tape, ReplicaHealth health,
                                  Seconds now) {
  JournalRecord r;
  r.kind = MutationKind::kSetTapeHealth;
  r.tape = tape;
  r.health = health;
  append(r, now);
}

void Journal::log_retire_tape(TapeId tape, Seconds now) {
  JournalRecord r;
  r.kind = MutationKind::kRetireTape;
  r.tape = tape;
  append(r, now);
}

void Journal::append(JournalRecord rec, Seconds now) {
  rec.lsn = next_lsn_++;
  rec.at = now;
  switch (config_.fsync) {
    case FsyncPolicy::kSync:
      rec.durable_at = now;
      ++stats_.fsyncs;
      log_.push_back(rec);
      break;
    case FsyncPolicy::kGroupCommit: {
      flush_group_window(now);
      rec.durable_at = kNever;
      log_.push_back(rec);
      if (batch_count_ == 0) batch_open_at_ = now;
      ++batch_count_;
      if (batch_count_ >= config_.group_max_records) {
        for (std::uint32_t i = 0; i < batch_count_; ++i) {
          log_[log_.size() - 1 - i].durable_at = now;
        }
        ++stats_.fsyncs;
        batch_count_ = 0;
      }
      break;
    }
    case FsyncPolicy::kAsync:
      rec.durable_at = now + config_.async_flush;
      ++stats_.fsyncs;
      log_.push_back(rec);
      break;
  }
  ++stats_.appends;
}

void Journal::flush_group_window(Seconds now) {
  if (batch_count_ == 0) return;
  const Seconds due = batch_open_at_ + config_.group_window;
  if (due > now) return;
  for (std::uint32_t i = 0; i < batch_count_; ++i) {
    log_[log_.size() - 1 - i].durable_at = due;
  }
  ++stats_.fsyncs;
  batch_count_ = 0;
}

void Journal::sync_barrier(Seconds now) {
  flush_group_window(now);
  if (batch_count_ > 0) {
    for (std::uint32_t i = 0; i < batch_count_; ++i) {
      log_[log_.size() - 1 - i].durable_at = now;
    }
    ++stats_.fsyncs;
    batch_count_ = 0;
  }
  // Async records still awaiting writeback land now (their fsync was
  // already counted at append).
  for (auto it = log_.rbegin(); it != log_.rend() && it->durable_at > now;
       ++it) {
    it->durable_at = now;
  }
}

void Journal::rebuild_group_state() {
  if (config_.fsync != FsyncPolicy::kGroupCommit) return;
  batch_count_ = 0;
  for (auto it = log_.rbegin(); it != log_.rend() && it->durable_at == kNever;
       ++it) {
    ++batch_count_;
    batch_open_at_ = it->at;
  }
}

bool Journal::checkpoint_due(Seconds now) const {
  if (config_.checkpoint_interval.count() <= 0.0) return false;
  return now >= snapshot_at_ + config_.checkpoint_interval;
}

void Journal::checkpoint(const ObjectCatalog& catalog, Seconds now) {
  sync_barrier(now);
  snapshot_ = catalog;
  snapshot_lsn_ = next_lsn_ - 1;
  snapshot_at_ = now;
  stats_.records_truncated += log_.size();
  log_.clear();
  batch_count_ = 0;
  ++stats_.checkpoints;
}

Journal::CrashCut Journal::crash_cut(Seconds at, double torn_draw) {
  TAPESIM_ASSERT_MSG(lost_.empty(),
                     "previous crash's lost records were never reconciled");
  flush_group_window(at);
  // [s, e): records appended by `at` but not yet on stable storage — the
  // only region a crash can touch. Durability is sequential, so the
  // unsynced set is contiguous.
  std::size_t e = log_.size();
  while (e > 0 && log_[e - 1].at > at) --e;
  std::size_t s = e;
  while (s > 0 && log_[s - 1].durable_at > at) --s;
  for (std::size_t i = 0; i < s; ++i) {
    TAPESIM_ASSERT_MSG(log_[i].durable_at <= at,
                       "unsynced log region must be contiguous");
  }
  const std::size_t n = e - s;
  auto survivors =
      static_cast<std::size_t>(torn_draw * static_cast<double>(n + 1));
  if (survivors > n) survivors = n;
  // The surviving prefix physically landed before the power went; it
  // replays like any synced record.
  for (std::size_t i = s; i < s + survivors; ++i) log_[i].durable_at = at;
  lost_.assign(log_.begin() + static_cast<std::ptrdiff_t>(s + survivors),
               log_.begin() + static_cast<std::ptrdiff_t>(e));
  log_.erase(log_.begin() + static_cast<std::ptrdiff_t>(s + survivors),
             log_.begin() + static_cast<std::ptrdiff_t>(e));
  stats_.records_lost += lost_.size();
  rebuild_group_state();
  return CrashCut{log_.size(), lost_.size()};
}

ObjectCatalog Journal::replay(std::span<const JournalRecord> reconciled) {
  ObjectCatalog c = snapshot_;
  std::uint64_t last_lsn = snapshot_lsn_;
  auto apply_next = [&](const JournalRecord& rec) {
    TAPESIM_ASSERT_MSG(rec.lsn > last_lsn, "replay saw a non-monotone LSN");
    last_lsn = rec.lsn;
    apply(c, rec);
  };
  std::size_t r = 0;
  for (const JournalRecord& rec : log_) {
    while (r < reconciled.size() && reconciled[r].lsn < rec.lsn) {
      apply_next(reconciled[r++]);
    }
    apply_next(rec);
  }
  while (r < reconciled.size()) apply_next(reconciled[r++]);
  stats_.records_replayed += log_.size();
  return c;
}

std::vector<JournalRecord> Journal::take_lost() {
  stats_.records_reconciled += lost_.size();
  return std::exchange(lost_, {});
}

}  // namespace tapesim::catalog
