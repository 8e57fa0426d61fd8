// Durable control plane: a write-ahead log for the object catalog.
//
// The catalog's in-memory state (placements, replicas, health, retirements)
// is assumed instantly durable by PRs 1-8; this header drops that
// assumption. Every catalog mutation is appended to a simulated log device
// as a typed record, made durable per a configurable fsync policy:
//
//   * kSync: every append hits stable storage before it returns.
//   * kGroupCommit: appends batch; the batch syncs when its time window
//     closes or it reaches a size cap, whichever comes first.
//   * kAsync: appends are acknowledged immediately and written back a
//     fixed delay later.
//
// Periodic checkpoints copy the full catalog into a snapshot (a value,
// never an alias of the live catalog) and truncate the log prefix the
// snapshot covers, bounding replay length.
//
// The journal is a *passive* ledger: it never touches the engine, never
// blocks the mutation it records, and consumes no RNG draws — durability
// times are modeled retroactively, so a simulator with the journal enabled
// schedules exactly the same events as one without (the crash-off
// bit-identity requirement). On a simulated metadata-server crash the
// owner calls crash_cut(): records unsynced at the crash instant form the
// torn tail — a uniform draw (supplied by the fault injector's crash
// substream) picks how many of them physically landed before the power
// went; the rest are lost and surface through take_lost() for
// reconciliation against tape reality. replay() then copies the snapshot
// and applies the surviving log (merged by LSN with any reconciled lost
// records) idempotently.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "catalog/catalog.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace tapesim::catalog {

/// When an appended record reaches stable storage.
enum class FsyncPolicy : std::uint8_t {
  kSync,         ///< Durable at append time (fsync per record).
  kGroupCommit,  ///< Durable when the open batch's window/size cap closes.
  kAsync,        ///< Durable a fixed writeback delay after append.
};

[[nodiscard]] const char* to_string(FsyncPolicy p);

/// Journal + checkpoint + recovery-cost knobs. Defaults disable the
/// subsystem entirely: a default-constructed JournalConfig builds no
/// journal and the simulator is bit-identical to a build without one.
struct JournalConfig {
  bool enabled = false;
  FsyncPolicy fsync = FsyncPolicy::kSync;
  /// Group commit: a batch syncs this long after its first record.
  Seconds group_window{0.05};
  /// Group commit: a batch syncs immediately at this size.
  std::uint32_t group_max_records = 64;
  /// Async: acknowledged records hit stable storage this long later.
  Seconds async_flush{30.0};
  /// Snapshot + truncate cadence (observed lazily at admission
  /// boundaries); 0 checkpoints only at recovery.
  Seconds checkpoint_interval{4.0 * 3600.0};
  /// Recovery cost model: fixed restart cost, per-record replay cost, and
  /// per-record cost of reconciling a lost mutation against tape reality
  /// (a scrub-style rediscovery is far slower than a log replay).
  Seconds recovery_base{30.0};
  Seconds replay_per_record{0.002};
  Seconds reconcile_per_record{5.0};

  [[nodiscard]] Status try_validate() const;
};

/// The catalog mutation vocabulary, one tag per public mutator.
enum class MutationKind : std::uint8_t {
  kInsert,         ///< Primary placement (ObjectRecord payload).
  kInsertReplica,  ///< Additional copy (ObjectRecord payload).
  kSetTapeHealth,  ///< Escalate-only health transition (tape + health).
  kRetireTape,     ///< One-way retirement (tape).
};

[[nodiscard]] const char* to_string(MutationKind k);

/// One logged mutation. `durable_at` is +infinity while the record sits in
/// an unsynced batch; crash_cut() and the group/async writeback model
/// resolve it retroactively.
struct JournalRecord {
  std::uint64_t lsn = 0;
  MutationKind kind = MutationKind::kInsert;
  Seconds at{};
  Seconds durable_at{};
  ObjectRecord object{};  ///< Payload for kInsert / kInsertReplica.
  TapeId tape{};          ///< Payload for kSetTapeHealth / kRetireTape.
  ReplicaHealth health = ReplicaHealth::kGood;
};

/// Running totals of the journal ledger. Conservation invariant, checked
/// by the chaos soak and the crash bench: appends == records_truncated +
/// records_lost + live_records() at every quiescent point, and
/// records_lost == records_reconciled once every crash has been recovered.
struct JournalStats {
  std::uint64_t appends = 0;
  std::uint64_t fsyncs = 0;  ///< Stable-storage write operations modeled.
  std::uint64_t checkpoints = 0;
  std::uint64_t records_truncated = 0;  ///< Dropped by checkpoint truncation.
  std::uint64_t records_replayed = 0;   ///< Applied by replay() calls.
  std::uint64_t records_lost = 0;       ///< Torn-tail casualties.
  std::uint64_t records_reconciled = 0; ///< Lost records re-derived.
};

class Journal {
 public:
  /// `config` must validate and be enabled; `total_tapes` sizes the empty
  /// initial snapshot (global tape id space).
  Journal(const JournalConfig& config, std::uint32_t total_tapes);

  [[nodiscard]] const JournalConfig& config() const { return config_; }
  [[nodiscard]] const JournalStats& stats() const { return stats_; }

  // --- mutation logging (call after the catalog mutation succeeded) ---
  void log_insert(const ObjectRecord& rec, Seconds now);
  void log_insert_replica(const ObjectRecord& rec, Seconds now);
  void log_set_tape_health(TapeId tape, ReplicaHealth health, Seconds now);
  void log_retire_tape(TapeId tape, Seconds now);

  // --- checkpoints ---
  /// True when `now` is at least one checkpoint interval past the last
  /// snapshot (never true with a zero interval).
  [[nodiscard]] bool checkpoint_due(Seconds now) const;
  /// Syncs every pending record, copies `catalog` into the snapshot, and
  /// truncates the log the snapshot covers.
  void checkpoint(const ObjectCatalog& catalog, Seconds now);
  [[nodiscard]] Seconds snapshot_at() const { return snapshot_at_; }
  [[nodiscard]] std::uint64_t snapshot_lsn() const { return snapshot_lsn_; }

  // --- crash + recovery ---
  struct CrashCut {
    std::uint64_t survivors = 0;  ///< Live log records after the cut.
    std::uint64_t lost = 0;       ///< Torn-tail records dropped.
  };
  /// Applies a metadata-server crash at `at`: records unsynced at the
  /// crash instant form the torn tail; `torn_draw` (uniform in [0, 1))
  /// picks how many of them physically landed before the crash. The rest
  /// move to the lost ledger. Records appended after `at` (mutations the
  /// recovered server performed) are untouched.
  CrashCut crash_cut(Seconds at, double torn_draw);
  /// Copies the snapshot and applies every surviving log record, merged
  /// in LSN order with `reconciled` (lost records re-derived from tape
  /// reality, ascending LSN), idempotently. The merge matters: a lost
  /// replica insert re-applied after a later surviving insert of the same
  /// object would reverse its replica order.
  [[nodiscard]] ObjectCatalog replay(
      std::span<const JournalRecord> reconciled = {});
  /// The lost mutations of the latest cut, for reconciliation against
  /// tape reality; counts them reconciled and clears the ledger.
  [[nodiscard]] std::vector<JournalRecord> take_lost();
  /// Applies one record to `c` idempotently.
  static void apply(ObjectCatalog& c, const JournalRecord& rec);

  /// Records currently in the live log (appended, not truncated or lost).
  [[nodiscard]] std::uint64_t live_records() const { return log_.size(); }
  [[nodiscard]] std::span<const JournalRecord> records() const {
    return log_;
  }

 private:
  void append(JournalRecord rec, Seconds now);
  /// Group commit: resolves the open batch if its window closed by `now`.
  void flush_group_window(Seconds now);
  /// Makes every pending record durable no later than `now` (checkpoint
  /// barrier).
  void sync_barrier(Seconds now);
  /// Re-derives the open-batch bookkeeping from the log tail (after a
  /// crash cut removed batch members).
  void rebuild_group_state();

  JournalConfig config_;
  JournalStats stats_;
  std::uint64_t next_lsn_ = 1;
  std::vector<JournalRecord> log_;  ///< Records after the last checkpoint.
  std::vector<JournalRecord> lost_;
  ObjectCatalog snapshot_;  ///< The catalog as of snapshot_lsn_.
  std::uint64_t snapshot_lsn_ = 0;
  Seconds snapshot_at_{};
  // Group-commit open batch: the last `batch_count_` log records, pending
  // since `batch_open_at_`.
  std::uint32_t batch_count_ = 0;
  Seconds batch_open_at_{};
};

}  // namespace tapesim::catalog
