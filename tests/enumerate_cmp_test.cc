#include "enumerate/cmp.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/brute_force.h"
#include "analytics/counts.h"
#include "graph/bfs_numbering.h"
#include "graph/connectivity.h"
#include "graph/generators.h"

namespace joinopt {
namespace {

/// Normalizes a pair so the component with the smaller minimum comes
/// first (the convention of the brute-force oracle).
std::pair<NodeSet, NodeSet> Normalize(NodeSet a, NodeSet b) {
  return a.Min() < b.Min() ? std::make_pair(a, b) : std::make_pair(b, a);
}

/// Asserts Theorem 2 on `graph` (must be BFS-numbered): the pair
/// enumeration yields exactly the csg-cmp-pairs, each once, in an order
/// where both components' plans are already derivable.
void ExpectCorrectPairEnumeration(const QueryGraph& graph) {
  const std::vector<std::pair<NodeSet, NodeSet>> emitted =
      CollectCsgCmpPairs(graph);

  // Each emitted pair satisfies the csg-cmp-pair definition.
  for (const auto& [s1, s2] : emitted) {
    EXPECT_TRUE(IsConnectedSet(graph, s1)) << s1.ToString();
    EXPECT_TRUE(IsConnectedSet(graph, s2)) << s2.ToString();
    EXPECT_FALSE(s1.Intersects(s2));
    EXPECT_TRUE(graph.AreConnected(s1, s2));
  }

  // Exactly the brute-force pairs (completeness + uniqueness, including
  // commutative-duplicate suppression).
  std::vector<std::pair<uint64_t, uint64_t>> emitted_norm;
  for (const auto& [s1, s2] : emitted) {
    const auto [a, b] = Normalize(s1, s2);
    emitted_norm.emplace_back(a.mask(), b.mask());
  }
  std::sort(emitted_norm.begin(), emitted_norm.end());
  EXPECT_TRUE(std::adjacent_find(emitted_norm.begin(), emitted_norm.end()) ==
              emitted_norm.end())
      << "a pair (or its commuted twin) was emitted twice";

  std::vector<std::pair<uint64_t, uint64_t>> expected_norm;
  for (const auto& [s1, s2] : BruteForceCsgCmpPairs(graph)) {
    expected_norm.emplace_back(s1.mask(), s2.mask());
  }
  std::sort(expected_norm.begin(), expected_norm.end());
  EXPECT_EQ(emitted_norm, expected_norm);

  // DP-validity: when (s1, s2) is emitted, every connected proper subset
  // split of s1 and of s2 must already have been emitted, i.e. the union
  // sets "completed" so far suffice to have built plans. We check the
  // operational form: maintain the set of relation-sets with known plans
  // (singletons seeded) and require s1 and s2 to be known, then mark
  // s1 ∪ s2 known.
  std::set<uint64_t> known;
  for (int i = 0; i < graph.relation_count(); ++i) {
    known.insert(NodeSet::Singleton(i).mask());
  }
  for (const auto& [s1, s2] : emitted) {
    EXPECT_TRUE(known.contains(s1.mask()))
        << "no plan yet for s1 = " << s1.ToString();
    EXPECT_TRUE(known.contains(s2.mask()))
        << "no plan yet for s2 = " << s2.ToString();
    known.insert((s1 | s2).mask());
  }
}

TEST(EnumerateCmpTest, TriangleComplementOfZeroIncludesBothLeaves) {
  // Regression for the paper's X ∪ N over-pruning (see cmp.h): on the
  // triangle, S1 = {0} must yield S2 ∈ {{1}, {2}, {1, 2}}.
  Result<QueryGraph> graph = MakeCliqueQuery(3);
  ASSERT_TRUE(graph.ok());
  std::vector<NodeSet> complements;
  EnumerateCmp(*graph, NodeSet::Of({0}),
               [&complements](NodeSet s) { complements.push_back(s); });
  std::sort(complements.begin(), complements.end(),
            [](NodeSet a, NodeSet b) { return a.mask() < b.mask(); });
  EXPECT_EQ(complements,
            (std::vector<NodeSet>{NodeSet::Of({1}), NodeSet::Of({2}),
                                  NodeSet::Of({1, 2})}));
}

TEST(EnumerateCmpTest, PaperWorkedExample) {
  // Section 3.3's example on the Figure 6 graph: S1 = {1} yields {4},
  // then {2,4}, {3,4}, {2,3,4}.
  Result<QueryGraph> graph = QueryGraph::WithRelations(5);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->AddEdge(0, 1).ok());
  ASSERT_TRUE(graph->AddEdge(0, 2).ok());
  ASSERT_TRUE(graph->AddEdge(0, 3).ok());
  ASSERT_TRUE(graph->AddEdge(1, 4).ok());
  ASSERT_TRUE(graph->AddEdge(2, 3).ok());
  ASSERT_TRUE(graph->AddEdge(2, 4).ok());
  ASSERT_TRUE(graph->AddEdge(3, 4).ok());

  std::vector<NodeSet> complements;
  EnumerateCmp(*graph, NodeSet::Of({1}),
               [&complements](NodeSet s) { complements.push_back(s); });
  ASSERT_EQ(complements.size(), 4u);
  EXPECT_EQ(complements[0], NodeSet::Of({4}));
  // The remaining three (in EnumerateCsgRec order).
  const std::set<uint64_t> rest = {complements[1].mask(), complements[2].mask(),
                                   complements[3].mask()};
  EXPECT_TRUE(rest.contains(NodeSet::Of({2, 4}).mask()));
  EXPECT_TRUE(rest.contains(NodeSet::Of({3, 4}).mask()));
  EXPECT_TRUE(rest.contains(NodeSet::Of({2, 3, 4}).mask()));
}

TEST(EnumerateCmpTest, ComplementsRespectTheOrdering) {
  // For any S1, every emitted S2 has min(S2) > min(S1).
  Result<QueryGraph> graph = MakeCycleQuery(6);
  ASSERT_TRUE(graph.ok());
  EnumerateCsgCmpPairs(*graph, [](NodeSet s1, NodeSet s2) {
    EXPECT_GT(s2.Min(), s1.Min())
        << s1.ToString() << " vs " << s2.ToString();
  });
}

struct ShapeCase {
  QueryShape shape;
  int n;
};

class EnumerateCmpShapeTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(EnumerateCmpShapeTest, MatchesOracleAndClosedForm) {
  const ShapeCase param = GetParam();
  Result<QueryGraph> graph = MakeShapeQuery(param.shape, param.n);
  ASSERT_TRUE(graph.ok());
  ExpectCorrectPairEnumeration(*graph);
  EXPECT_EQ(CollectCsgCmpPairs(*graph).size(),
            CcpCountUnordered(param.shape, param.n));
}

TEST_P(EnumerateCmpShapeTest, BoolCallbackStopsAfterKEmissions) {
  const ShapeCase param = GetParam();
  Result<QueryGraph> graph = MakeShapeQuery(param.shape, param.n);
  ASSERT_TRUE(graph.ok());
  using Pair = std::pair<NodeSet, NodeSet>;
  const std::vector<Pair> full = CollectCsgCmpPairs(*graph);
  ASSERT_FALSE(full.empty());
  // Stopping on the first, a middle and the last pair: the callback sees
  // exactly the first k pairs of the full order, and the enumerator
  // reports that it was stopped.
  for (const size_t k : {size_t{1}, full.size() / 2 + 1, full.size()}) {
    std::vector<Pair> seen;
    EXPECT_FALSE(EnumerateCsgCmpPairs(*graph, [&seen, k](NodeSet s1, NodeSet s2) {
      seen.emplace_back(s1, s2);
      return seen.size() < k;
    })) << "k = " << k;
    EXPECT_EQ(seen, std::vector<Pair>(full.begin(), full.begin() + k))
        << "k = " << k;
  }
  std::vector<Pair> seen;
  EXPECT_TRUE(EnumerateCsgCmpPairs(*graph, [&seen](NodeSet s1, NodeSet s2) {
    seen.emplace_back(s1, s2);
    return true;
  }));
  EXPECT_EQ(seen, full);

  // The same contract for EnumerateCmp alone, on the complements of the
  // lowest-numbered relation.
  const NodeSet s1 = NodeSet::Singleton(0);
  std::vector<NodeSet> complements;
  EXPECT_TRUE(EnumerateCmp(*graph, s1, [&complements](NodeSet s2) {
    complements.push_back(s2);
    return true;
  }));
  ASSERT_FALSE(complements.empty());
  for (const size_t k : {size_t{1}, complements.size()}) {
    std::vector<NodeSet> stopped;
    EXPECT_FALSE(EnumerateCmp(*graph, s1, [&stopped, k](NodeSet s2) {
      stopped.push_back(s2);
      return stopped.size() < k;
    })) << "k = " << k;
    EXPECT_EQ(stopped, std::vector<NodeSet>(complements.begin(),
                                            complements.begin() + k))
        << "k = " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EnumerateCmpShapeTest,
    ::testing::Values(ShapeCase{QueryShape::kChain, 2},
                      ShapeCase{QueryShape::kChain, 6},
                      ShapeCase{QueryShape::kChain, 11},
                      ShapeCase{QueryShape::kCycle, 3},
                      ShapeCase{QueryShape::kCycle, 7},
                      ShapeCase{QueryShape::kCycle, 11},
                      ShapeCase{QueryShape::kStar, 2},
                      ShapeCase{QueryShape::kStar, 6},
                      ShapeCase{QueryShape::kStar, 11},
                      ShapeCase{QueryShape::kClique, 3},
                      ShapeCase{QueryShape::kClique, 6},
                      ShapeCase{QueryShape::kClique, 9}),
    [](const ::testing::TestParamInfo<ShapeCase>& info) {
      return std::string(QueryShapeName(info.param.shape)) +
             std::to_string(info.param.n);
    });

TEST(EnumerateCmpTest, RandomGraphsAfterBfsRelabeling) {
  for (const uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    WorkloadConfig config;
    config.seed = seed;
    Result<QueryGraph> graph = MakeRandomConnectedQuery(8, 5, config);
    ASSERT_TRUE(graph.ok());
    Result<BfsNumbering> numbering = ComputeBfsNumbering(*graph, 0);
    ASSERT_TRUE(numbering.ok());
    const QueryGraph relabeled = RelabelGraph(*graph, *numbering);
    ExpectCorrectPairEnumeration(relabeled);
  }
}

TEST(EnumerateCmpTest, GridGraph) {
  Result<QueryGraph> graph = MakeGridQuery(2, 4);
  ASSERT_TRUE(graph.ok());
  Result<BfsNumbering> numbering = ComputeBfsNumbering(*graph, 0);
  ASSERT_TRUE(numbering.ok());
  const QueryGraph relabeled = RelabelGraph(*graph, *numbering);
  ExpectCorrectPairEnumeration(relabeled);
}

}  // namespace
}  // namespace joinopt
