/// DPconv differential suite: the subset-convolution orderer against
/// DPccp, the paper's reference enumeration, across all seven workload
/// families.
///
/// The contract under test is stronger than "same optimum up to
/// tolerance": because both orderers price partitions through the shared
/// CreateJoinTree arithmetic over canonical (numbering-invariant)
/// per-set estimates, their optimal COST must be the same double, bit
/// for bit. On unique-cost instances the optimal plan is unique too, so
/// the result-shaped OutcomeSignature fields (status, cost, cardinality,
/// degradation) and the plan expression must coincide — only the
/// enumeration counters may differ, since the two algorithms visit the
/// search space in different orders.

#include "core/dpconv.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/outcome.h"
#include "joinopt.h"
#include "plan/plan_printer.h"

namespace joinopt {
namespace {

struct Family {
  std::string name;
  QueryGraph graph;
};

std::vector<Family> AllFamilies() {
  WorkloadConfig config;
  config.seed = 20060912;
  std::vector<Family> families;
  auto add = [&families](const char* name, Result<QueryGraph> graph) {
    EXPECT_TRUE(graph.ok()) << name << ": " << graph.status().ToString();
    if (graph.ok()) {
      families.push_back({name, *std::move(graph)});
    }
  };
  add("chain-10", MakeChainQuery(10, config));
  add("cycle-9", MakeCycleQuery(9, config));
  add("star-9", MakeStarQuery(9, config));
  add("clique-8", MakeCliqueQuery(8, config));
  add("snowflake-3x2", MakeSnowflakeQuery(3, 2, config));
  add("grid-3x3", MakeGridQuery(3, 3, config));
  add("random-10", MakeRandomConnectedQuery(10, 6, config));
  return families;
}

TEST(DPconvTest, CostBitIdenticalToDPccpAcrossAllFamilies) {
  const CoutCostModel cost_model;
  for (const Family& family : AllFamilies()) {
    SCOPED_TRACE(family.name);
    Result<OptimizationResult> conv =
        OptimizerRegistry::Get("DPconv")->Optimize(family.graph, cost_model);
    Result<OptimizationResult> ccp =
        OptimizerRegistry::Get("DPccp")->Optimize(family.graph, cost_model);
    ASSERT_TRUE(conv.ok()) << conv.status().ToString();
    ASSERT_TRUE(ccp.ok()) << ccp.status().ToString();
    // Bit-for-bit, not EXPECT_NEAR: both price the same partition space
    // through the same saturated arithmetic over canonical estimates.
    EXPECT_EQ(conv->cost, ccp->cost);
    EXPECT_EQ(conv->cardinality, ccp->cardinality);
    EXPECT_TRUE(ValidatePlan(conv->plan, family.graph, cost_model).ok());
  }
}

/// The generated families draw distinct random statistics, so join costs
/// are generically untied and the optimum is a UNIQUE plan: everything
/// about the result except the enumeration counters must coincide with
/// DPccp's — including the plan's shape.
TEST(DPconvTest, SignatureMatchesDPccpOnUniqueCostInstances) {
  const CoutCostModel cost_model;
  for (const Family& family : AllFamilies()) {
    SCOPED_TRACE(family.name);
    OptimizerContext conv_ctx(family.graph, cost_model);
    OptimizerContext ccp_ctx(family.graph, cost_model);
    Result<OptimizationResult> conv =
        OptimizerRegistry::Get("DPconv")->Optimize(conv_ctx);
    Result<OptimizationResult> ccp =
        OptimizerRegistry::Get("DPccp")->Optimize(ccp_ctx);
    ASSERT_TRUE(conv.ok() && ccp.ok());
    const OutcomeSignature conv_sig =
        ExtractOutcomeSignature(conv, conv_ctx.stats());
    const OutcomeSignature ccp_sig =
        ExtractOutcomeSignature(ccp, ccp_ctx.stats());
    EXPECT_EQ(conv_sig.status, ccp_sig.status);
    EXPECT_EQ(conv_sig.cost, ccp_sig.cost);
    EXPECT_EQ(conv_sig.cardinality, ccp_sig.cardinality);
    EXPECT_EQ(conv_sig.best_effort, ccp_sig.best_effort);
    EXPECT_EQ(conv_sig.trigger, ccp_sig.trigger);
    EXPECT_EQ(PlanToExpression(conv->plan, family.graph),
              PlanToExpression(ccp->plan, family.graph));
  }
}

/// The zeta-transform lower-bound pruning must be invisible in results:
/// strict-< updates make the running best the first achiever of the
/// final minimum, so the pruned sweep selects the same winning split as
/// the exhaustive one — fewer probes, identical memo. Cliques 15 and 16
/// sit inside the pruning gate (n in [15, 17], density >= 1/2).
TEST(DPconvTest, ZetaPruningIsResultInvariant) {
  const CoutCostModel cost_model;
  const DPconv pruned(/*use_zeta_pruning=*/true);
  const DPconv exhaustive(/*use_zeta_pruning=*/false);
  for (const int n : {15, 16}) {
    Result<QueryGraph> graph = MakeCliqueQuery(n);
    ASSERT_TRUE(graph.ok());
    SCOPED_TRACE("clique-" + std::to_string(n));
    Result<OptimizationResult> fast = pruned.Optimize(*graph, cost_model);
    Result<OptimizationResult> full = exhaustive.Optimize(*graph, cost_model);
    ASSERT_TRUE(fast.ok() && full.ok());
    EXPECT_EQ(fast->cost, full->cost);
    EXPECT_EQ(PlanToExpression(fast->plan, *graph),
              PlanToExpression(full->plan, *graph));
    // Pruning must shorten the sweep (so it really fired), and the
    // per-set winners — and therefore everything materialized into the
    // memo — must not move.
    EXPECT_LT(fast->stats.inner_counter, full->stats.inner_counter);
    EXPECT_EQ(fast->stats.csg_cmp_pair_counter,
              full->stats.csg_cmp_pair_counter);
    EXPECT_EQ(fast->stats.plans_stored, full->stats.plans_stored);
  }
}

/// Below 15 relations the ranked transforms cost as much time as they
/// save, so the gate keeps them off: the default-constructed orderer
/// sweeps exactly as many splits as the exhaustive one.
TEST(DPconvTest, ZetaPruningIsOffBelowFifteenRelations) {
  const CoutCostModel cost_model;
  const DPconv pruned(/*use_zeta_pruning=*/true);
  const DPconv exhaustive(/*use_zeta_pruning=*/false);
  for (const int n : {10, 14}) {
    Result<QueryGraph> graph = MakeCliqueQuery(n);
    ASSERT_TRUE(graph.ok());
    SCOPED_TRACE("clique-" + std::to_string(n));
    Result<OptimizationResult> gated = pruned.Optimize(*graph, cost_model);
    Result<OptimizationResult> full = exhaustive.Optimize(*graph, cost_model);
    ASSERT_TRUE(gated.ok() && full.ok());
    EXPECT_EQ(gated->stats.inner_counter, full->stats.inner_counter);
  }
}

TEST(DPconvTest, RejectsNonCoutCostModelsTyped) {
  Result<QueryGraph> graph = MakeChainQuery(5);
  ASSERT_TRUE(graph.ok());
  const BestOfCostModel bestof = BestOfCostModel::Standard();
  const NestedLoopCostModel nlj;
  for (const CostModel* model :
       std::vector<const CostModel*>{&bestof, &nlj}) {
    Result<OptimizationResult> result =
        OptimizerRegistry::Get("DPconv")->Optimize(*graph, *model);
    ASSERT_FALSE(result.ok()) << model->name();
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << model->name();
    EXPECT_NE(result.status().message().find("Cout"), std::string::npos)
        << result.status().message();
  }
}

}  // namespace
}  // namespace joinopt
