#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/brute_force.h"
#include "core/dpccp.h"
#include "core/dpsize.h"
#include "core/dpsub.h"
#include "cost/cost_model.h"
#include "graph/connectivity.h"
#include "graph/query_graph.h"
#include "plan/plan_validator.h"

namespace joinopt {
namespace {

/// EXHAUSTIVE sweep: every connected labeled graph on n nodes (every
/// subset of the C(n,2) possible edges whose graph is connected) is a
/// query graph; on each one, all three algorithms must agree with each
/// other and with the brute-force oracles. For n = 4 that is 38 graphs,
/// for n = 5 it is 728 — complete coverage of every topology class the
/// paper's four families sample from.

/// Builds the graph for an edge-subset bitmask over the C(n,2) edge
/// slots, with deterministic but varied statistics.
QueryGraph GraphFromEdgeMask(int n, uint32_t edge_mask) {
  QueryGraph graph;
  for (int i = 0; i < n; ++i) {
    JOINOPT_CHECK(graph.AddRelation(100.0 * (i + 1) + 7.0).ok());
  }
  int slot = 0;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if ((edge_mask >> slot) & 1u) {
        // Vary selectivity by slot so different plans genuinely differ.
        const double selectivity = 0.01 + 0.03 * (slot % 7);
        JOINOPT_CHECK(graph.AddEdge(u, v, selectivity).ok());
      }
      ++slot;
    }
  }
  return graph;
}

class ExhaustiveSmallGraphTest : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustiveSmallGraphTest, AllConnectedGraphsAgree) {
  const int n = GetParam();
  const int slots = n * (n - 1) / 2;
  const CoutCostModel cout_model;
  const HashJoinCostModel hash_model(3.0, 1.0);
  const DPsize dpsize;
  const DPsub dpsub;
  const DPccp dpccp;

  int connected_graphs = 0;
  for (uint32_t edge_mask = 0; edge_mask < (1u << slots); ++edge_mask) {
    const QueryGraph graph = GraphFromEdgeMask(n, edge_mask);
    if (!IsConnectedGraph(graph)) {
      // The algorithms must consistently refuse it.
      EXPECT_FALSE(dpccp.Optimize(graph, cout_model).ok());
      continue;
    }
    ++connected_graphs;
    const std::string context = "edge_mask=" + std::to_string(edge_mask);

    const uint64_t expected_pairs = BruteForceCcpCountUnordered(graph);
    const uint64_t expected_csg = BruteForceCsgCount(graph);

    for (const CostModel* model :
         {static_cast<const CostModel*>(&cout_model),
          static_cast<const CostModel*>(&hash_model)}) {
      Result<OptimizationResult> size_result = dpsize.Optimize(graph, *model);
      Result<OptimizationResult> sub_result = dpsub.Optimize(graph, *model);
      Result<OptimizationResult> ccp_result = dpccp.Optimize(graph, *model);
      ASSERT_TRUE(size_result.ok()) << context;
      ASSERT_TRUE(sub_result.ok()) << context;
      ASSERT_TRUE(ccp_result.ok()) << context;

      EXPECT_NEAR(size_result->cost / ccp_result->cost, 1.0, 1e-9) << context;
      EXPECT_NEAR(sub_result->cost / ccp_result->cost, 1.0, 1e-9) << context;

      EXPECT_EQ(ccp_result->stats.inner_counter, expected_pairs) << context;
      EXPECT_EQ(size_result->stats.ono_lohman_counter, expected_pairs)
          << context;
      EXPECT_EQ(sub_result->stats.ono_lohman_counter, expected_pairs)
          << context;
      EXPECT_EQ(ccp_result->stats.plans_stored, expected_csg) << context;

      EXPECT_TRUE(ValidatePlan(ccp_result->plan, graph, *model).ok())
          << context;
    }
  }
  // 38 connected labeled graphs on 4 nodes, 728 on 5 (OEIS A001187).
  EXPECT_EQ(connected_graphs, n == 4 ? 38 : 728);
}

INSTANTIATE_TEST_SUITE_P(N4andN5, ExhaustiveSmallGraphTest,
                         ::testing::Values(4, 5),
                         [](const ::testing::TestParamInfo<int>& info) {
                           // A char, not "n": GCC 12 -O3 reports a false
                           // -Wrestrict on const char* + std::string&&.
                           return 'n' + std::to_string(info.param);
                         });

TEST(ExhaustiveSmallGraphTest, AllSixNodeGraphsLighterChecks) {
  // All 26704 connected labeled graphs on 6 nodes, with the cheaper
  // subset of the checks (Cout only; counter cross-checks against the
  // brute-force pair count).
  const int n = 6;
  const int slots = n * (n - 1) / 2;
  const CoutCostModel model;
  const DPsize dpsize;
  const DPsub dpsub;
  const DPccp dpccp;

  int connected_graphs = 0;
  for (uint32_t edge_mask = 0; edge_mask < (1u << slots); ++edge_mask) {
    const QueryGraph graph = GraphFromEdgeMask(n, edge_mask);
    if (!IsConnectedGraph(graph)) {
      continue;
    }
    ++connected_graphs;
    Result<OptimizationResult> size_result = dpsize.Optimize(graph, model);
    Result<OptimizationResult> sub_result = dpsub.Optimize(graph, model);
    Result<OptimizationResult> ccp_result = dpccp.Optimize(graph, model);
    ASSERT_TRUE(size_result.ok() && sub_result.ok() && ccp_result.ok())
        << edge_mask;
    ASSERT_NEAR(size_result->cost / ccp_result->cost, 1.0, 1e-9) << edge_mask;
    ASSERT_NEAR(sub_result->cost / ccp_result->cost, 1.0, 1e-9) << edge_mask;
    ASSERT_EQ(ccp_result->stats.inner_counter,
              BruteForceCcpCountUnordered(graph))
        << edge_mask;
    ASSERT_EQ(size_result->stats.ono_lohman_counter,
              ccp_result->stats.ono_lohman_counter)
        << edge_mask;
    ASSERT_EQ(sub_result->stats.ono_lohman_counter,
              ccp_result->stats.ono_lohman_counter)
        << edge_mask;
  }
  EXPECT_EQ(connected_graphs, 26704);  // OEIS A001187(6).
}

}  // namespace
}  // namespace joinopt
