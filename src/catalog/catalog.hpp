// The object indexing database.
//
// Maps every object to its physical location (library, tape, byte offset)
// and size. The retrieval scheduler resolves each incoming request through
// this catalog, exactly as the paper's simulator does ("given a request,
// the corresponding tapes are identified based on the object indexing
// database"). Primary index: B+-tree on object id. Secondary index: per-
// tape extent lists, kept sorted by offset for seek-order optimization.
//
// Redundancy: an object may carry additional replica records (each on a
// distinct tape). The catalog also tracks per-tape media health, synced
// from the fault model's cartridge escalations, so the scheduler and the
// background repair process can ask for the best surviving copy.
//
// The catalog is a value: copying it clones the tree node by node and the
// flat vectors wholesale, with no per-object allocation, so the metadata
// journal can checkpoint and restore it by plain assignment.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "catalog/btree.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

namespace tapesim::catalog {

/// Media condition of one tape as the catalog tracks it (mirrors
/// tape::CartridgeHealth without depending on the tape module): every copy
/// on the tape shares this health.
enum class ReplicaHealth : std::uint8_t {
  kGood,
  kDegraded,  ///< Elevated error rate; copy at risk but readable.
  kLost,      ///< Data unrecoverable; copies on this tape do not count.
};

[[nodiscard]] const char* to_string(ReplicaHealth h);

/// Full location record for one object.
struct ObjectRecord {
  ObjectId object;
  Bytes size;
  LibraryId library;
  TapeId tape;
  Bytes offset;  ///< Distance of the object's first byte from BOT.

  [[nodiscard]] Bytes end_offset() const { return offset + size; }

  friend bool operator==(const ObjectRecord&, const ObjectRecord&) = default;
};

/// One object's extent on a tape, as stored in the secondary index.
struct TapeExtent {
  ObjectId object;
  Bytes offset;
  Bytes size;

  friend bool operator==(const TapeExtent&, const TapeExtent&) = default;
};

class ObjectCatalog {
 public:
  /// `total_tapes` sizes the secondary index (global tape id space).
  explicit ObjectCatalog(std::uint32_t total_tapes);

  /// Registers an object's location. Returns false if the object id is
  /// already present (each object is placed exactly once — no striping).
  bool insert(const ObjectRecord& record);

  /// Registers an additional copy of an already-inserted object. The
  /// primary record must exist, the sizes must agree, and the copy must
  /// live on a tape distinct from every existing copy. Returns false when
  /// any precondition fails (nothing is modified).
  bool insert_replica(const ObjectRecord& record);

  /// Primary lookup; nullptr when absent.
  [[nodiscard]] const ObjectRecord* lookup(ObjectId id) const;
  [[nodiscard]] bool contains(ObjectId id) const {
    return lookup(id) != nullptr;
  }

  /// Extra copies of `id` in insertion order (primary excluded); empty when
  /// the object has none. Invalidated by any insert_replica().
  [[nodiscard]] std::span<const ObjectRecord> replicas(ObjectId id) const;
  /// Total copies of `id` (primary + replicas); 0 when absent.
  [[nodiscard]] std::size_t copy_count(ObjectId id) const;
  [[nodiscard]] bool has_replicas() const { return replica_total_ > 0; }
  [[nodiscard]] std::size_t replica_count() const { return replica_total_; }

  /// Per-tape media health, synced from fault escalations. Health only
  /// escalates (Good -> Degraded -> Lost); attempts to improve are ignored.
  void set_tape_health(TapeId tape, ReplicaHealth health);
  [[nodiscard]] ReplicaHealth tape_health(TapeId tape) const;

  /// Marks `tape` retired: its objects were evacuated elsewhere, so its
  /// copies no longer count as live and best_replica skips them. One-way,
  /// like health escalation. The extent records stay (the physical bytes
  /// are still on the cartridge); the scheduler just never routes to them.
  void retire_tape(TapeId tape);
  [[nodiscard]] bool tape_retired(TapeId tape) const;

  /// The best surviving copy of `id`: copies on Lost or retired tapes, on
  /// tapes in `exclude`, and in libraries in `exclude_libraries` (downed
  /// fault domains) are skipped; Good health beats Degraded, and the
  /// primary wins ties (then replica insertion order). nullptr when no copy
  /// survives. The pointer is invalidated by the next insert.
  [[nodiscard]] const ObjectRecord* best_replica(
      ObjectId id, std::span<const TapeId> exclude = {},
      std::span<const LibraryId> exclude_libraries = {}) const;

  /// All extents on `tape`, sorted by offset. Invalidated by insert().
  [[nodiscard]] std::span<const TapeExtent> extents_on(TapeId tape) const;

  /// Bytes occupied on `tape`.
  [[nodiscard]] Bytes used_on(TapeId tape) const;

  [[nodiscard]] std::size_t object_count() const { return primary_.size(); }
  [[nodiscard]] std::uint32_t tape_count() const {
    return static_cast<std::uint32_t>(by_tape_.size());
  }

  /// Visits every primary record in ascending object-id order (B+-tree
  /// iteration).
  template <typename Visitor>
  void for_each_primary(Visitor&& visit) const {
    for (const auto& [key, rec] : primary_) visit(rec);
  }

  /// Field-by-field state equality: primaries, per-object replica lists
  /// (insertion order included — best_replica tie-breaks on it), per-tape
  /// extents and usage, health, and retirements. The crash-recovery
  /// invariant ("replayed catalog exactly equals the never-crashed
  /// catalog") is asserted through this. Walks both primary trees in
  /// lockstep: O(n), no per-record lookup.
  [[nodiscard]] bool equals(const ObjectCatalog& other) const;

  /// Verifies global consistency: extents sorted, non-overlapping, within
  /// `tape_capacity`; primary and secondary agree; every replica run lies
  /// inside the pool and belongs to a placed object. Aborts on violation.
  void validate(Bytes tape_capacity) const;

 private:
  /// One object's extra copies: `count` records of `replica_pool_` from
  /// `begin`, in insertion order, with room for `capacity`.
  struct ReplicaRun {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
    std::uint32_t capacity = 0;
  };

  /// Keeps a tape's extent list sorted after an insertion at the back.
  void restore_order(TapeId tape);

  BPlusTree<std::uint32_t, ObjectRecord, 64> primary_;
  std::vector<std::vector<TapeExtent>> by_tape_;
  std::vector<Bytes> used_;
  /// Extra copies of every object, one run per object. A full run moves to
  /// the end with doubled capacity; its old slots stay behind unused.
  std::vector<ObjectRecord> replica_pool_;
  /// Indexed by object index (object ids are dense, as the workload and the
  /// placement plan number them); sized to the highest replicated object.
  std::vector<ReplicaRun> replica_runs_;
  std::size_t replica_total_ = 0;
  std::vector<ReplicaHealth> health_;  ///< by tape index
  std::vector<bool> retired_;          ///< by tape index
};

}  // namespace tapesim::catalog
