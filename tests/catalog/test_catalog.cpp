#include "catalog/catalog.hpp"

#include <gtest/gtest.h>

namespace tapesim::catalog {
namespace {

ObjectRecord record(std::uint32_t obj, Bytes size, std::uint32_t tape,
                    Bytes offset) {
  return ObjectRecord{ObjectId{obj}, size, LibraryId{tape / 80},
                      TapeId{tape}, offset};
}

TEST(Catalog, InsertAndLookup) {
  ObjectCatalog cat(240);
  EXPECT_TRUE(cat.insert(record(1, 10_GB, 3, Bytes{0})));
  const ObjectRecord* rec = cat.lookup(ObjectId{1});
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->size, 10_GB);
  EXPECT_EQ(rec->tape, TapeId{3});
  EXPECT_EQ(rec->offset, Bytes{0});
  EXPECT_EQ(rec->end_offset(), 10_GB);
  EXPECT_EQ(cat.lookup(ObjectId{2}), nullptr);
  EXPECT_EQ(cat.object_count(), 1u);
}

TEST(Catalog, RejectsDuplicateObject) {
  ObjectCatalog cat(240);
  EXPECT_TRUE(cat.insert(record(1, 1_GB, 0, Bytes{0})));
  EXPECT_FALSE(cat.insert(record(1, 2_GB, 1, Bytes{0})));
  EXPECT_EQ(cat.object_count(), 1u);
  EXPECT_EQ(cat.lookup(ObjectId{1})->tape, TapeId{0});
}

TEST(Catalog, ExtentsAreSortedByOffset) {
  ObjectCatalog cat(240);
  // Insert out of offset order.
  cat.insert(record(1, 1_GB, 5, 10_GB));
  cat.insert(record(2, 1_GB, 5, Bytes{0}));
  cat.insert(record(3, 1_GB, 5, 5_GB));
  const auto extents = cat.extents_on(TapeId{5});
  ASSERT_EQ(extents.size(), 3u);
  EXPECT_EQ(extents[0].object, ObjectId{2});
  EXPECT_EQ(extents[1].object, ObjectId{3});
  EXPECT_EQ(extents[2].object, ObjectId{1});
}

TEST(Catalog, UsedBytesPerTape) {
  ObjectCatalog cat(240);
  cat.insert(record(1, 3_GB, 7, Bytes{0}));
  cat.insert(record(2, 4_GB, 7, 3_GB));
  cat.insert(record(3, 5_GB, 8, Bytes{0}));
  EXPECT_EQ(cat.used_on(TapeId{7}), 7_GB);
  EXPECT_EQ(cat.used_on(TapeId{8}), 5_GB);
  EXPECT_EQ(cat.used_on(TapeId{9}), 0_B);
}

TEST(Catalog, EmptyTapeHasNoExtents) {
  ObjectCatalog cat(240);
  EXPECT_TRUE(cat.extents_on(TapeId{0}).empty());
}

TEST(Catalog, ValidatePassesOnConsistentData) {
  ObjectCatalog cat(240);
  Bytes offset{0};
  for (std::uint32_t i = 0; i < 100; ++i) {
    cat.insert(record(i, 1_GB, i % 10, offset));
    if (i % 10 == 9) offset += 1_GB;
  }
  cat.validate(400_GB);
}

TEST(CatalogDeath, ValidateCatchesOverlap) {
  ObjectCatalog cat(240);
  cat.insert(record(1, 10_GB, 0, Bytes{0}));
  cat.insert(record(2, 10_GB, 0, 5_GB));  // overlaps object 1
  EXPECT_DEATH(cat.validate(400_GB), "overlap");
}

TEST(CatalogDeath, ValidateCatchesCapacityOverflow) {
  ObjectCatalog cat(240);
  cat.insert(record(1, 399_GB, 0, Bytes{0}));
  cat.insert(record(2, 2_GB, 0, 399_GB));
  EXPECT_DEATH(cat.validate(400_GB), "capacity");
}

TEST(CatalogDeath, InvalidIdsAbort) {
  ObjectCatalog cat(240);
  EXPECT_DEATH(cat.insert(ObjectRecord{ObjectId{}, 1_GB, LibraryId{0},
                                       TapeId{0}, Bytes{0}}),
               "valid");
  EXPECT_DEATH(cat.insert(record(1, 1_GB, 999, Bytes{0})), "range");
}

TEST(Catalog, EqualsComparesFullState) {
  ObjectCatalog a(240);
  ObjectCatalog b(240);
  EXPECT_TRUE(a.equals(b));
  a.insert(record(1, 1_GB, 0, Bytes{0}));
  EXPECT_FALSE(a.equals(b));
  b.insert(record(1, 1_GB, 0, Bytes{0}));
  EXPECT_TRUE(a.equals(b));
  // Replica sets, health, and retirement all participate.
  a.insert_replica(record(1, 1_GB, 5, Bytes{0}));
  EXPECT_FALSE(a.equals(b));
  b.insert_replica(record(1, 1_GB, 5, Bytes{0}));
  EXPECT_TRUE(a.equals(b));
  a.set_tape_health(TapeId{5}, ReplicaHealth::kDegraded);
  EXPECT_FALSE(a.equals(b));
  b.set_tape_health(TapeId{5}, ReplicaHealth::kDegraded);
  EXPECT_TRUE(a.equals(b));
  a.retire_tape(TapeId{5});
  EXPECT_FALSE(a.equals(b));
  b.retire_tape(TapeId{5});
  EXPECT_TRUE(a.equals(b));
}

TEST(Catalog, EqualsSeesFieldLevelDivergence) {
  ObjectCatalog a(240);
  ObjectCatalog b(240);
  a.insert(record(1, 2_GB, 3, Bytes{0}));
  b.insert(record(1, 2_GB, 3, 1_GB));  // same object, different offset
  EXPECT_FALSE(a.equals(b));
}

TEST(Catalog, EqualsRejectsSameSizeWithDifferentObjectIds) {
  // Equal counts, tapes, offsets and usage; only the object ids differ, so
  // the per-tape extent lists differ too (and so would a lockstep walk).
  ObjectCatalog a(240);
  ObjectCatalog b(240);
  a.insert(record(1, 1_GB, 0, Bytes{0}));
  a.insert(record(2, 1_GB, 1, Bytes{0}));
  b.insert(record(1, 1_GB, 0, Bytes{0}));
  b.insert(record(3, 1_GB, 1, Bytes{0}));
  EXPECT_FALSE(a.equals(b));
  EXPECT_FALSE(b.equals(a));
}

TEST(Catalog, EqualsRejectsTheSameReplicasInADifferentOrder) {
  // best_replica tie-breaks on replica insertion order, so two catalogs
  // holding the same copies in a different order are different states.
  ObjectCatalog a(240);
  ObjectCatalog b(240);
  a.insert(record(1, 1_GB, 0, Bytes{0}));
  b.insert(record(1, 1_GB, 0, Bytes{0}));
  a.insert_replica(record(1, 1_GB, 5, Bytes{0}));
  a.insert_replica(record(1, 1_GB, 9, Bytes{0}));
  b.insert_replica(record(1, 1_GB, 9, Bytes{0}));
  b.insert_replica(record(1, 1_GB, 5, Bytes{0}));
  EXPECT_FALSE(a.equals(b));
  EXPECT_FALSE(b.equals(a));
}

TEST(Catalog, CopyIsAnIndependentValue) {
  ObjectCatalog a(240);
  // Five 1 GB objects per tape, back to back.
  const auto offset = [](std::uint32_t i) {
    return Bytes{(i / 40) * (1_GB).count()};
  };
  for (std::uint32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(a.insert(record(i, 1_GB, i % 40, offset(i))));
  }
  for (std::uint32_t i = 0; i < 200; i += 2) {
    ASSERT_TRUE(a.insert_replica(record(i, 1_GB, 100 + i % 40, offset(i))));
  }
  a.set_tape_health(TapeId{3}, ReplicaHealth::kDegraded);
  ObjectCatalog b = a;
  EXPECT_TRUE(b.equals(a));
  b.validate(400_GB);
  // Mutating the copy (primaries, replica runs, health, retirement) leaves
  // the original as it was...
  const ObjectCatalog before = a;
  ASSERT_TRUE(b.insert(record(500, 1_GB, 200, Bytes{0})));
  ASSERT_TRUE(b.insert_replica(record(0, 1_GB, 201, Bytes{0})));
  ASSERT_TRUE(b.insert_replica(record(1, 1_GB, 202, Bytes{0})));
  b.set_tape_health(TapeId{4}, ReplicaHealth::kLost);
  b.retire_tape(TapeId{5});
  EXPECT_FALSE(b.equals(a));
  EXPECT_TRUE(a.equals(before));
  EXPECT_EQ(a.copy_count(ObjectId{0}), 2u);
  EXPECT_FALSE(a.contains(ObjectId{500}));
  a.validate(400_GB);
  // ...and mutating the original leaves the copy as it was.
  const ObjectCatalog b_before = b;
  ASSERT_TRUE(a.insert_replica(record(3, 1_GB, 203, Bytes{0})));
  a.retire_tape(TapeId{6});
  EXPECT_TRUE(b.equals(b_before));
  EXPECT_EQ(b.copy_count(ObjectId{3}), 1u);
  EXPECT_EQ(b.copy_count(ObjectId{0}), 3u);
  b.validate(400_GB);
  // Copy-assignment over a populated catalog replaces its whole state.
  ObjectCatalog c(240);
  ASSERT_TRUE(c.insert(record(7777, 1_GB, 9, Bytes{0})));
  c = b;
  EXPECT_TRUE(c.equals(b));
  EXPECT_FALSE(c.contains(ObjectId{7777}));
}

TEST(Catalog, ForEachPrimaryVisitsInAscendingIdOrder) {
  ObjectCatalog cat(240);
  cat.insert(record(30, 1_GB, 0, Bytes{0}));
  cat.insert(record(10, 1_GB, 1, Bytes{0}));
  cat.insert(record(20, 1_GB, 2, Bytes{0}));
  std::vector<std::uint32_t> seen;
  cat.for_each_primary(
      [&](const ObjectRecord& rec) { seen.push_back(rec.object.value()); });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{10, 20, 30}));
}

TEST(Catalog, ManyTapesScale) {
  ObjectCatalog cat(1000);
  for (std::uint32_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(cat.insert(ObjectRecord{
        ObjectId{i}, Bytes{1000}, LibraryId{0}, TapeId{i % 1000},
        Bytes{(i / 1000) * 1000}}));
  }
  EXPECT_EQ(cat.object_count(), 5000u);
  cat.validate(Bytes{100000});
  EXPECT_EQ(cat.extents_on(TapeId{0}).size(), 5u);
}

}  // namespace
}  // namespace tapesim::catalog
