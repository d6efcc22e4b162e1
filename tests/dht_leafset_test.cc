#include <gtest/gtest.h>

#include "dht/leafset.h"

namespace p2p::dht {
namespace {

TEST(Leafset, InsertKeepsRClosestPerSide) {
  Leafset ls(/*owner=*/100, /*r=*/2);
  ls.Insert(110, 1);
  ls.Insert(120, 2);
  ls.Insert(105, 3);  // closer successor than 120
  ASSERT_EQ(ls.successors().size(), 2u);
  EXPECT_EQ(ls.successors()[0].id, 105u);
  EXPECT_EQ(ls.successors()[1].id, 110u);
}

TEST(Leafset, OwnerIsNeverInserted) {
  Leafset ls(100, 2);
  EXPECT_FALSE(ls.Insert(100, 0));
  EXPECT_EQ(ls.size(), 0u);
}

TEST(Leafset, SameNodeAppearsOnBothSidesInTinyRings) {
  // With two nodes, each is the other's successor AND predecessor.
  Leafset ls(100, 2);
  ls.Insert(200, 1);
  EXPECT_EQ(ls.successor(), 1u);
  EXPECT_EQ(ls.predecessor(), 1u);
  EXPECT_EQ(ls.Members().size(), 1u);  // deduplicated view
}

TEST(Leafset, RemoveDropsBothSides) {
  Leafset ls(100, 2);
  ls.Insert(200, 1);
  EXPECT_TRUE(ls.Remove(200));
  EXPECT_EQ(ls.size(), 0u);
  EXPECT_FALSE(ls.Remove(200));
}

TEST(Leafset, PredecessorOrderingIsCounterClockwise) {
  Leafset ls(100, 3);
  ls.Insert(90, 1);
  ls.Insert(80, 2);
  ls.Insert(95, 3);
  ASSERT_EQ(ls.predecessors().size(), 3u);
  EXPECT_EQ(ls.predecessors()[0].id, 95u);  // nearest first
  EXPECT_EQ(ls.predecessors()[1].id, 90u);
  EXPECT_EQ(ls.predecessors()[2].id, 80u);
}

TEST(Leafset, ContainsAndRefresh) {
  Leafset ls(0, 2);
  ls.Insert(10, 1);
  EXPECT_TRUE(ls.Contains(10));
  ls.Insert(10, 99);  // refresh node index
  EXPECT_EQ(ls.successors()[0].node, 99u);
}

TEST(Leafset, ClosestToPicksBestProgress) {
  Leafset ls(0, 3);
  ls.Insert(10, 1);
  ls.Insert(20, 2);
  ls.Insert(30, 3);
  EXPECT_EQ(ls.ClosestTo(25), 2u);   // 20 is closest without overshoot
  EXPECT_EQ(ls.ClosestTo(30), 3u);   // exact member
  EXPECT_EQ(ls.ClosestTo(5), kNoNode);  // no member in (0, 5]
}

TEST(Leafset, CoversArcBetweenFarthestMembers) {
  Leafset ls(100, 2);
  ls.Insert(110, 1);
  ls.Insert(120, 2);
  ls.Insert(90, 3);
  ls.Insert(80, 4);
  EXPECT_TRUE(ls.Covers(115));
  EXPECT_TRUE(ls.Covers(85));
  EXPECT_TRUE(ls.Covers(100));
  EXPECT_FALSE(ls.Covers(500));
}

TEST(Leafset, WrapAroundZeroInsertsCorrectSides) {
  const NodeId owner = 5;
  Leafset ls(owner, 2);
  ls.Insert(~0ull - 3, 1);  // just behind 0 → close predecessor
  ls.Insert(10, 2);
  EXPECT_EQ(ls.predecessor(), 1u);
  EXPECT_EQ(ls.successor(), 2u);
}

TEST(Leafset, ClearEmptiesBothSides) {
  Leafset ls(0, 2);
  ls.Insert(1, 1);
  ls.Insert(2, 2);
  ls.Clear();
  EXPECT_EQ(ls.size(), 0u);
  EXPECT_EQ(ls.successor(), kNoNode);
}

TEST(Leafset, SidesKeepRNearestInAnyInsertOrderWithExactStorage) {
  // Candidates 1000 + 7k (node k) and 1000 - 7k (node 100 + k), k = 1..40,
  // offered in a scrambled order: each side must end as its r nearest,
  // nearest first, and never hold more than r entries of storage.
  Leafset ls(1000, 3);
  for (NodeIndex i = 0; i < 80; ++i) {
    const NodeIndex c = (i * 37) % 80;  // 37 is coprime to 80
    const NodeIndex k = c / 2 + 1;
    if (c % 2 == 0) {
      ls.Insert(1000 + 7 * k, k);
    } else {
      ls.Insert(1000 - 7 * k, 100 + k);
    }
  }
  ASSERT_EQ(ls.successors().size(), 3u);
  ASSERT_EQ(ls.predecessors().size(), 3u);
  for (NodeIndex k = 1; k <= 3; ++k) {
    EXPECT_EQ(ls.successors()[k - 1].node, k);
    EXPECT_EQ(ls.predecessors()[k - 1].node, 100 + k);
  }
  EXPECT_EQ(ls.HeapBytes(), 2 * 3 * sizeof(LeafsetEntry));
}

}  // namespace
}  // namespace p2p::dht
