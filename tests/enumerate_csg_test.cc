#include "enumerate/csg.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/brute_force.h"
#include "analytics/counts.h"
#include "graph/bfs_numbering.h"
#include "graph/generators.h"

namespace joinopt {
namespace {

/// Asserts the three EnumerateCsg guarantees (Theorem 1) on `graph`, which
/// must satisfy the BFS-numbering precondition: completeness, uniqueness,
/// and subset-before-superset order.
void ExpectCorrectEnumeration(const QueryGraph& graph) {
  const std::vector<NodeSet> emitted = CollectConnectedSubsets(graph);

  // Uniqueness (Lemma 10).
  std::set<uint64_t> seen;
  for (const NodeSet s : emitted) {
    EXPECT_TRUE(seen.insert(s.mask()).second) << "duplicate " << s.ToString();
  }

  // Completeness + soundness (Lemmas 2, 8): exactly the brute-force set.
  const std::vector<NodeSet> expected = BruteForceConnectedSubsets(graph);
  std::vector<uint64_t> emitted_masks;
  std::vector<uint64_t> expected_masks;
  for (const NodeSet s : emitted) emitted_masks.push_back(s.mask());
  for (const NodeSet s : expected) expected_masks.push_back(s.mask());
  std::sort(emitted_masks.begin(), emitted_masks.end());
  std::sort(expected_masks.begin(), expected_masks.end());
  EXPECT_EQ(emitted_masks, expected_masks);

  // Order validity (Lemma 12): every emitted set's connected proper
  // subsets appear before it.
  std::map<uint64_t, size_t> position;
  for (size_t i = 0; i < emitted.size(); ++i) {
    position[emitted[i].mask()] = i;
  }
  for (size_t i = 0; i < emitted.size(); ++i) {
    for (const NodeSet other : expected) {
      if (other != emitted[i] && other.IsSubsetOf(emitted[i])) {
        ASSERT_TRUE(position.contains(other.mask()));
        EXPECT_LT(position[other.mask()], i)
            << other.ToString() << " should precede " << emitted[i].ToString();
      }
    }
  }
}

TEST(EnumerateCsgTest, SingleNode) {
  Result<QueryGraph> graph = MakeChainQuery(1);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(CollectConnectedSubsets(*graph),
            std::vector<NodeSet>{NodeSet::Of({0})});
}

TEST(EnumerateCsgTest, PaperExampleGraph) {
  // The 5-node graph of Figure 6: 0-1, 0-2, 0-3, 1-4, 2-3, 2-4, 3-4.
  Result<QueryGraph> graph = QueryGraph::WithRelations(5);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->AddEdge(0, 1).ok());
  ASSERT_TRUE(graph->AddEdge(0, 2).ok());
  ASSERT_TRUE(graph->AddEdge(0, 3).ok());
  ASSERT_TRUE(graph->AddEdge(1, 4).ok());
  ASSERT_TRUE(graph->AddEdge(2, 3).ok());
  ASSERT_TRUE(graph->AddEdge(2, 4).ok());
  ASSERT_TRUE(graph->AddEdge(3, 4).ok());

  const std::vector<NodeSet> emitted = CollectConnectedSubsets(*graph);
  // The first emissions follow Figure 7: {4}, {3}, {3,4}, {2}, {2,3},
  // {2,4}, {2,3,4}, {1}, {1,4}, ...
  ASSERT_GE(emitted.size(), 9u);
  EXPECT_EQ(emitted[0], NodeSet::Of({4}));
  EXPECT_EQ(emitted[1], NodeSet::Of({3}));
  EXPECT_EQ(emitted[2], NodeSet::Of({3, 4}));
  EXPECT_EQ(emitted[3], NodeSet::Of({2}));
  EXPECT_EQ(emitted[4], NodeSet::Of({2, 3}));
  EXPECT_EQ(emitted[5], NodeSet::Of({2, 4}));
  EXPECT_EQ(emitted[6], NodeSet::Of({2, 3, 4}));
  EXPECT_EQ(emitted[7], NodeSet::Of({1}));
  EXPECT_EQ(emitted[8], NodeSet::Of({1, 4}));
  ExpectCorrectEnumeration(*graph);
}

struct ShapeCase {
  QueryShape shape;
  int n;
};

class EnumerateCsgShapeTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(EnumerateCsgShapeTest, MatchesOracleAndClosedForm) {
  const ShapeCase param = GetParam();
  Result<QueryGraph> graph = MakeShapeQuery(param.shape, param.n);
  ASSERT_TRUE(graph.ok());
  ExpectCorrectEnumeration(*graph);
  EXPECT_EQ(CollectConnectedSubsets(*graph).size(),
            CsgCount(param.shape, param.n));
}

TEST_P(EnumerateCsgShapeTest, BoolCallbackStopsAfterKEmissions) {
  const ShapeCase param = GetParam();
  Result<QueryGraph> graph = MakeShapeQuery(param.shape, param.n);
  ASSERT_TRUE(graph.ok());
  const std::vector<NodeSet> full = CollectConnectedSubsets(*graph);
  // Stopping on the first, a middle (inside the recursion) and the last
  // emission: the callback sees exactly the first k sets of the full
  // order, and the enumerator reports that it was stopped.
  for (const size_t k : {size_t{1}, full.size() / 2 + 1, full.size()}) {
    std::vector<NodeSet> seen;
    EXPECT_FALSE(EnumerateCsg(*graph, [&seen, k](NodeSet s) {
      seen.push_back(s);
      return seen.size() < k;
    })) << "k = " << k;
    EXPECT_EQ(seen, std::vector<NodeSet>(full.begin(), full.begin() + k))
        << "k = " << k;
  }
  std::vector<NodeSet> seen;
  EXPECT_TRUE(EnumerateCsg(*graph, [&seen](NodeSet s) {
    seen.push_back(s);
    return true;
  }));
  EXPECT_EQ(seen, full);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EnumerateCsgShapeTest,
    ::testing::Values(ShapeCase{QueryShape::kChain, 2},
                      ShapeCase{QueryShape::kChain, 7},
                      ShapeCase{QueryShape::kChain, 12},
                      ShapeCase{QueryShape::kCycle, 3},
                      ShapeCase{QueryShape::kCycle, 8},
                      ShapeCase{QueryShape::kCycle, 12},
                      ShapeCase{QueryShape::kStar, 2},
                      ShapeCase{QueryShape::kStar, 7},
                      ShapeCase{QueryShape::kStar, 12},
                      ShapeCase{QueryShape::kClique, 2},
                      ShapeCase{QueryShape::kClique, 7},
                      ShapeCase{QueryShape::kClique, 10}),
    [](const ::testing::TestParamInfo<ShapeCase>& info) {
      return std::string(QueryShapeName(info.param.shape)) +
             std::to_string(info.param.n);
    });

TEST(EnumerateCsgTest, GridGraph) {
  Result<QueryGraph> graph = MakeGridQuery(3, 3);
  ASSERT_TRUE(graph.ok());
  // Grid numbering from MakeGridQuery is row-major which is a valid BFS
  // numbering from node 0? It is not in general — so relabel first.
  Result<BfsNumbering> numbering = ComputeBfsNumbering(*graph, 0);
  ASSERT_TRUE(numbering.ok());
  const QueryGraph relabeled = RelabelGraph(*graph, *numbering);
  ExpectCorrectEnumeration(relabeled);
}

TEST(EnumerateCsgTest, RandomGraphsAfterBfsRelabeling) {
  for (const uint64_t seed : {11u, 12u, 13u, 14u}) {
    WorkloadConfig config;
    config.seed = seed;
    Result<QueryGraph> graph = MakeRandomConnectedQuery(9, 4, config);
    ASSERT_TRUE(graph.ok());
    Result<BfsNumbering> numbering = ComputeBfsNumbering(*graph, 0);
    ASSERT_TRUE(numbering.ok());
    const QueryGraph relabeled = RelabelGraph(*graph, *numbering);
    ExpectCorrectEnumeration(relabeled);
  }
}

TEST(CountConnectedSubsetsTest, UncappedCountMatchesClosedForms) {
  for (const QueryShape shape :
       {QueryShape::kChain, QueryShape::kCycle, QueryShape::kStar,
        QueryShape::kClique}) {
    for (const int n : {2, 5, 9, 13}) {
      Result<QueryGraph> graph = MakeShapeQuery(shape, n);
      ASSERT_TRUE(graph.ok());
      EXPECT_EQ(CountConnectedSubsetsUpTo(*graph, ~uint64_t{0}),
                CsgCount(shape, n))
          << QueryShapeName(shape) << n;
    }
  }
}

TEST(CountConnectedSubsetsTest, CapStopsEarly) {
  Result<QueryGraph> graph = MakeCliqueQuery(12);  // #csg = 4095.
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(CountConnectedSubsetsUpTo(*graph, 100), 100u);
  EXPECT_EQ(CountConnectedSubsetsUpTo(*graph, 1), 1u);
  EXPECT_EQ(CountConnectedSubsetsUpTo(*graph, 0), 0u);
  EXPECT_EQ(CountConnectedSubsetsUpTo(*graph, 1u << 20), 4095u);
}

TEST(EnumerateCsgTest, EnumerateCsgRecRespectsExclusion) {
  // On chain 0-1-2-3, growing from {1} with X = {0, 1} must never emit a
  // set containing 0.
  Result<QueryGraph> graph = MakeChainQuery(4);
  ASSERT_TRUE(graph.ok());
  std::vector<NodeSet> emitted;
  EnumerateCsgRec(*graph, NodeSet::Of({1}), NodeSet::Of({0, 1}),
                  [&emitted](NodeSet s) { emitted.push_back(s); });
  EXPECT_EQ(emitted, (std::vector<NodeSet>{NodeSet::Of({1, 2}),
                                           NodeSet::Of({1, 2, 3})}));
}

}  // namespace
}  // namespace joinopt
