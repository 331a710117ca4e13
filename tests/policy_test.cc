/// Tests for the declarative degradation-policy engine (core/policy):
/// the grammar (Parse/ToString round trips, typed rejection of bad
/// input), the documented default ladder and its `when=dense` routing,
/// and the executor semantics — step fall-through on resource trips,
/// per-step retries with doubled limits, salvage arming, silently skipped
/// gated steps, and the limits-stripped final step.

#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "core/policy.h"
#include "joinopt.h"
#include "testing/fault_injection.h"

namespace joinopt {
namespace {

using testing::FaultConfig;
using testing::FaultPoint;
using testing::ScopedFaultInjection;

TEST(PolicyGrammarTest, DefaultIsTheDocumentedLadder) {
  const DegradationPolicy policy = DegradationPolicy::Default();
  ASSERT_EQ(policy.steps().size(), 4u);
  EXPECT_EQ(policy.steps()[0].algorithm, "DPconv");
  EXPECT_EQ(policy.steps()[0].when, StepGate::kDense);
  EXPECT_TRUE(policy.steps()[0].salvage);
  EXPECT_EQ(policy.steps()[1].algorithm, "DPccp");
  EXPECT_EQ(policy.steps()[1].when, StepGate::kAlways);
  EXPECT_TRUE(policy.steps()[1].salvage);
  EXPECT_EQ(policy.steps()[2].algorithm, "IDP1");
  EXPECT_EQ(policy.steps()[2].k, 5);
  EXPECT_EQ(policy.steps()[3].algorithm, "GOO");
  EXPECT_EQ(policy.ToString(),
            "DPconv[when=dense] -> salvage -> DPccp -> salvage -> IDP1[k=5] "
            "-> GOO");
}

TEST(PolicyGrammarTest, ParseReadsStepsAttributesAndSalvage) {
  Result<DegradationPolicy> policy = DegradationPolicy::Parse(
      "DPsub[budget=0.5,deadline=0.25,retries=2] -> salvage -> GOO");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  ASSERT_EQ(policy->steps().size(), 2u);
  const PolicyStep& first = policy->steps()[0];
  EXPECT_EQ(first.algorithm, "DPsub");
  EXPECT_DOUBLE_EQ(first.budget_scale, 0.5);
  EXPECT_DOUBLE_EQ(first.deadline_slice, 0.25);
  EXPECT_EQ(first.retries, 2);
  EXPECT_TRUE(first.salvage);
  EXPECT_FALSE(policy->steps()[1].salvage);
}

TEST(PolicyGrammarTest, ToStringRoundTripsThroughParse) {
  const char* const texts[] = {
      "DPccp -> salvage -> IDP1[k=5] -> GOO",
      "DPconv[when=dense] -> salvage -> DPccp -> salvage -> IDP1[k=5] -> GOO",
      "DPconv[when=dense,budget=0.5,retries=1] -> DPccp",
      "DPsize[budget=0.5] -> GOO",
      "DPhyp[retries=3] -> salvage",
      "Adaptive",
  };
  for (const char* text : texts) {
    Result<DegradationPolicy> parsed = DegradationPolicy::Parse(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->ToString(), text);
    Result<DegradationPolicy> reparsed =
        DegradationPolicy::Parse(parsed->ToString());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed->ToString(), parsed->ToString());
  }
}

TEST(PolicyGrammarTest, RejectsMalformedPolicies) {
  const char* const bad[] = {
      "",                          // no steps
      "salvage",                   // salvage with no step before it
      "salvage -> DPccp",          // ditto
      "NoSuchAlgorithm",           // not in the registry
      "DPccp[budget=0]",           // fraction must be in (0, 1]
      "DPccp[budget=1.5]",         // ditto
      "DPccp[deadline=-1]",        // ditto
      "DPccp[retries=9]",          // beyond the retry cap
      "DPccp[retries=-1]",         // negative
      "IDP1[k=1]",                 // block size below 2
      "DPccp[frobs=3]",            // unknown attribute
      "DPccp[budget]",             // attribute without value
      "DPccp[budget=0.5",          // unclosed bracket
      "DPccp ->",                  // trailing arrow
      "DPconv[when=sparse] -> GOO", // unknown gate
      "DPconv[when=] -> GOO",      // gate without value
      "DPccp -> DPconv[when=dense]",  // a gated final step may never run
  };
  for (const char* text : bad) {
    Result<DegradationPolicy> parsed = DegradationPolicy::Parse(text);
    EXPECT_FALSE(parsed.ok()) << "accepted: '" << text << "'";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << text;
    }
  }
}

TEST(PolicyGrammarTest, UnknownGateIsTypedInvalidArgument) {
  Result<DegradationPolicy> parsed =
      DegradationPolicy::Parse("DPconv[when=often] -> DPccp");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("when=often"), std::string::npos)
      << parsed.status().ToString();
}

TEST(PolicyGrammarTest, UnknownAlgorithmErrorListsTheRegistry) {
  Result<DegradationPolicy> parsed = DegradationPolicy::Parse("NopeDP");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("DPccp"), std::string::npos)
      << parsed.status().ToString();
}

TEST(PolicyExecutorTest, FirstStepSucceedingIsReturnedVerbatim) {
  Result<QueryGraph> graph = MakeChainQuery(6);
  ASSERT_TRUE(graph.ok());
  const CoutCostModel cost_model;
  Result<DegradationPolicy> policy = DegradationPolicy::Parse("DPccp -> GOO");
  ASSERT_TRUE(policy.ok());
  OptimizerContext ctx(*graph, cost_model);
  Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.algorithm, "DPccp");
  EXPECT_TRUE(result->stats.fallback_from.empty());
  EXPECT_FALSE(result->stats.best_effort);
  Result<OptimizationResult> exact =
      OptimizerRegistry::Get("DPccp")->Optimize(*graph, cost_model);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(result->cost, exact->cost);
}

TEST(PolicyExecutorTest, ResourceTripFallsThroughAndRecordsTheTrail) {
  Result<QueryGraph> graph = MakeCliqueQuery(8);
  ASSERT_TRUE(graph.ok());
  const CoutCostModel cost_model;
  // Budget 0.001 of 4000 entries = 4: enough for the leaves only, so the
  // exact steps trip and the ladder bottoms out in GOO.
  Result<DegradationPolicy> policy = DegradationPolicy::Parse(
      "DPccp[budget=0.001] -> DPsub[budget=0.001] -> GOO");
  ASSERT_TRUE(policy.ok());
  OptimizeOptions options;
  options.memo_entry_budget = 4000;
  OptimizerContext ctx(*graph, cost_model, options);
  Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.algorithm, "GOO");
  EXPECT_EQ(result->stats.fallback_from, "DPccp,DPsub");
  EXPECT_TRUE(ValidatePlan(result->plan, *graph, cost_model).ok());
  // The context mirrors the returned stats (the Adaptive contract).
  EXPECT_EQ(ctx.stats().algorithm, "GOO");
}

TEST(PolicyExecutorTest, SalvageStepReturnsBestEffortInsteadOfFalling) {
  Result<QueryGraph> graph = MakeCliqueQuery(8);
  ASSERT_TRUE(graph.ok());
  const CoutCostModel cost_model;
  Result<DegradationPolicy> policy = DegradationPolicy::Parse(
      "DPccp[budget=0.01] -> salvage -> GOO");
  ASSERT_TRUE(policy.ok());
  OptimizeOptions options;
  options.memo_entry_budget = 2000;  // 1% = 20 entries: trips mid-run.
  OptimizerContext ctx(*graph, cost_model, options);
  Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // The salvage arm keeps DPccp's partial work: no fall-through to GOO.
  EXPECT_EQ(result->stats.algorithm, "DPccp");
  EXPECT_TRUE(result->stats.best_effort);
  EXPECT_TRUE(result->stats.fallback_from.empty());
  EXPECT_TRUE(result->degradation.best_effort);
  EXPECT_EQ(result->degradation.policy, policy->ToString());
  EXPECT_TRUE(ValidatePlan(result->plan, *graph, cost_model).ok());
}

TEST(PolicyExecutorTest, RetriesDoubleTheBudgetUntilTheRunFits) {
  Result<QueryGraph> graph = MakeChainQuery(10);
  ASSERT_TRUE(graph.ok());
  const CoutCostModel cost_model;
  // Chain-10 needs 54 entries; 0.1 x 160 = 16 fails, one retry doubles
  // it to 32 (fails), a second to 64 (fits). GOO backstops a regression.
  Result<DegradationPolicy> policy =
      DegradationPolicy::Parse("DPccp[budget=0.1,retries=2] -> GOO");
  ASSERT_TRUE(policy.ok());
  OptimizeOptions options;
  options.memo_entry_budget = 160;
  OptimizerContext ctx(*graph, cost_model, options);
  Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.algorithm, "DPccp");
  EXPECT_TRUE(result->stats.fallback_from.empty());
  Result<OptimizationResult> exact =
      OptimizerRegistry::Get("DPccp")->Optimize(*graph, cost_model);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(result->cost, exact->cost);
}

TEST(PolicyExecutorTest, FinalStepRunsLimitsStrippedAfterFailures) {
  Result<QueryGraph> graph = MakeCliqueQuery(8);
  ASSERT_TRUE(graph.ok());
  const CoutCostModel cost_model;
  // Both steps get a 4-entry budget; the final DPccp would trip it too,
  // but the executor strips limits from a final step reached by falling,
  // so the result is the exact optimum.
  Result<DegradationPolicy> policy = DegradationPolicy::Parse(
      "DPsub[budget=0.002] -> DPccp[budget=0.002]");
  ASSERT_TRUE(policy.ok());
  OptimizeOptions options;
  options.memo_entry_budget = 2000;
  OptimizerContext ctx(*graph, cost_model, options);
  Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.algorithm, "DPccp");
  EXPECT_EQ(result->stats.fallback_from, "DPsub");
  Result<OptimizationResult> exact =
      OptimizerRegistry::Get("DPccp")->Optimize(*graph, cost_model);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(result->cost, exact->cost);
}

TEST(PolicyExecutorTest, NestedLadderFallbacksSurviveTheOuterPolicy) {
  Result<QueryGraph> graph = MakeChainQuery(10);
  ASSERT_TRUE(graph.ok());
  const CoutCostModel cost_model;
  // A single-step policy whose one step is itself a ladder: Adaptive's
  // gate picks DPccp on a chain, the 16-entry budget trips it (chain-10
  // needs 54), and the internal ladder degrades. The outer executor must
  // not clobber the nested fallback trail — the serving layer's
  // cacheability check reads fallback_from to keep plans shaped by this
  // request's budget out of the exact-plan cache.
  Result<DegradationPolicy> policy = DegradationPolicy::Parse("Adaptive");
  ASSERT_TRUE(policy.ok());
  OptimizeOptions options;
  options.memo_entry_budget = 16;
  OptimizerContext ctx(*graph, cost_model, options);
  Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NE(result->stats.fallback_from.find("DPccp"), std::string::npos)
      << "nested fallback trail lost; fallback_from: '"
      << result->stats.fallback_from << "'";
}

TEST(PolicyExecutorTest, InternalFaultDoesNotFallThroughSteps) {
  Result<QueryGraph> graph = MakeChainQuery(6);
  ASSERT_TRUE(graph.ok());
  const CoutCostModel cost_model;
  Result<DegradationPolicy> policy = DegradationPolicy::Parse("DPccp -> GOO");
  ASSERT_TRUE(policy.ok());
  FaultConfig config;
  config.at(FaultPoint::kArenaAlloc) = 3;
  ScopedFaultInjection scoped(config);
  // Construct inside the scope: the governor caches the injector's armed
  // state at construction.
  OptimizerContext ctx(*graph, cost_model);
  Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
  // kInternal is a real failure, not a resource trip: the ladder aborts
  // instead of papering over it with GOO (the historical contract).
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(PolicyExecutorTest, InternalFaultIsRetriedWithinTheStep) {
  Result<QueryGraph> graph = MakeChainQuery(6);
  ASSERT_TRUE(graph.ok());
  const CoutCostModel cost_model;
  Result<DegradationPolicy> policy =
      DegradationPolicy::Parse("DPccp[retries=1] -> GOO");
  ASSERT_TRUE(policy.ok());
  FaultConfig config;
  config.at(FaultPoint::kArenaAlloc) = 3;  // Fires once, then never again.
  ScopedFaultInjection scoped(config);
  OptimizerContext ctx(*graph, cost_model);
  Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.algorithm, "DPccp");
  Result<OptimizationResult> exact =
      OptimizerRegistry::Get("DPccp")->Optimize(*graph, cost_model);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(result->cost, exact->cost);
}

/// Runs the default policy on `graph` under `cost_model` and returns the
/// algorithm that produced the plan, after checking the plan is exact:
/// its cost must be DPccp's, bit for bit, with no fallback recorded.
std::string DefaultRoute(const QueryGraph& graph,
                         const CostModel& cost_model) {
  OptimizerContext ctx(graph, cost_model);
  Result<OptimizationResult> result =
      RunDegradationPolicy(DegradationPolicy::Default(), ctx);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) {
    return "";
  }
  EXPECT_TRUE(result->stats.fallback_from.empty());
  EXPECT_FALSE(result->stats.best_effort);
  Result<OptimizationResult> exact =
      OptimizerRegistry::Get("DPccp")->Optimize(graph, cost_model);
  EXPECT_TRUE(exact.ok());
  if (exact.ok()) {
    EXPECT_EQ(result->cost, exact->cost);
  }
  return result->stats.algorithm;
}

TEST(PolicyGateTest, DenseGateBoundaries) {
  const CoutCostModel cout;
  const BestOfCostModel bestof = BestOfCostModel::Standard();
  // n = 10 at exactly density 1/4: 8 * 12 = 96 >= 90 holds, 11 edges not.
  Result<QueryGraph> at_quarter = MakeRandomConnectedQuery(10, 12 - 9);
  Result<QueryGraph> below_quarter = MakeRandomConnectedQuery(10, 11 - 9);
  Result<QueryGraph> clique9 = MakeCliqueQuery(9);
  Result<QueryGraph> clique16 = MakeCliqueQuery(16);
  Result<QueryGraph> clique17 = MakeCliqueQuery(17);
  ASSERT_TRUE(at_quarter.ok() && below_quarter.ok() && clique9.ok() &&
              clique16.ok() && clique17.ok());
  ASSERT_EQ(at_quarter->edge_count(), 12);
  ASSERT_EQ(below_quarter->edge_count(), 11);
  EXPECT_TRUE(StepGateHolds(StepGate::kDense, *at_quarter, cout));
  EXPECT_FALSE(StepGateHolds(StepGate::kDense, *below_quarter, cout));
  EXPECT_FALSE(StepGateHolds(StepGate::kDense, *clique9, cout));
  EXPECT_TRUE(StepGateHolds(StepGate::kDense, *clique16, cout));
  EXPECT_FALSE(StepGateHolds(StepGate::kDense, *clique17, cout));
  EXPECT_FALSE(StepGateHolds(StepGate::kDense, *clique16, bestof));
  EXPECT_TRUE(StepGateHolds(StepGate::kAlways, *clique9, bestof));
}

TEST(PolicyGateTest, DefaultRoutesDenseCoutQueriesToDPconv) {
  const CoutCostModel cout;
  WorkloadConfig config;
  config.seed = 20060912;
  Result<QueryGraph> clique14 = MakeCliqueQuery(14, config);
  // dense_cold's random shape: a random tree plus n extra edges, density
  // 29/105 at n = 15.
  Result<QueryGraph> random15 = MakeRandomConnectedQuery(15, 15, config);
  ASSERT_TRUE(clique14.ok() && random15.ok());
  EXPECT_EQ(DefaultRoute(*clique14, cout), "DPconv");
  EXPECT_EQ(DefaultRoute(*random15, cout), "DPconv");
}

TEST(PolicyGateTest, DefaultKeepsEverythingElseOnDPccp) {
  const CoutCostModel cout;
  const BestOfCostModel bestof = BestOfCostModel::Standard();
  WorkloadConfig config;
  config.seed = 20060912;
  Result<QueryGraph> star16 = MakeStarQuery(16, config);
  Result<QueryGraph> chain40 = MakeChainQuery(40, config);
  Result<QueryGraph> clique9 = MakeCliqueQuery(9, config);
  Result<QueryGraph> clique12 = MakeCliqueQuery(12, config);
  ASSERT_TRUE(star16.ok() && chain40.ok() && clique9.ok() && clique12.ok());
  EXPECT_EQ(DefaultRoute(*star16, cout), "DPccp");    // sparse
  EXPECT_EQ(DefaultRoute(*chain40, cout), "DPccp");   // sparse and large
  EXPECT_EQ(DefaultRoute(*clique9, cout), "DPccp");   // n < 10
  EXPECT_EQ(DefaultRoute(*clique12, bestof), "DPccp");  // not Cout
}

/// A skipped step is not a fallback: no fallback_from entry and no
/// OnFallback, while a real fall-through still names the next step that
/// actually runs.
TEST(PolicyGateTest, SkippedStepIsNotAFallback) {
  struct FallbackRecorder : TraceSink {
    std::vector<std::string> fallbacks;
    void OnFallback(std::string_view from, std::string_view to,
                    const Status& /*why*/) override {
      fallbacks.push_back(std::string(from) + ">" + std::string(to));
    }
  };
  const CoutCostModel cost_model;
  Result<QueryGraph> chain = MakeChainQuery(10);
  ASSERT_TRUE(chain.ok());
  {
    FallbackRecorder sink;
    OptimizeOptions options;
    options.trace = &sink;
    OptimizerContext ctx(*chain, cost_model, options);
    Result<OptimizationResult> result =
        RunDegradationPolicy(DegradationPolicy::Default(), ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.algorithm, "DPccp");
    EXPECT_TRUE(result->stats.fallback_from.empty());
    EXPECT_TRUE(sink.fallbacks.empty());
  }
  {
    // DPccp trips its 4-entry budget; the gated DPconv step between it
    // and GOO does not apply to a chain, so the trail skips it.
    Result<DegradationPolicy> policy = DegradationPolicy::Parse(
        "DPccp[budget=0.002] -> DPconv[when=dense] -> GOO");
    ASSERT_TRUE(policy.ok()) << policy.status().ToString();
    FallbackRecorder sink;
    OptimizeOptions options;
    options.trace = &sink;
    options.memo_entry_budget = 2000;
    OptimizerContext ctx(*chain, cost_model, options);
    Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.algorithm, "GOO");
    EXPECT_EQ(result->stats.fallback_from, "DPccp");
    EXPECT_EQ(sink.fallbacks, std::vector<std::string>{"DPccp>GOO"});
  }
}

/// Skipping the gated first step is not a failure, so the final step
/// keeps the caller's limits: they are stripped only after a fall-through.
TEST(PolicyGateTest, FinalStepKeepsItsLimitsWhenOnlyGatesSkipped) {
  const CoutCostModel cost_model;
  Result<QueryGraph> chain = MakeChainQuery(10);
  ASSERT_TRUE(chain.ok());
  Result<DegradationPolicy> policy =
      DegradationPolicy::Parse("DPconv[when=dense] -> DPccp");
  ASSERT_TRUE(policy.ok());
  OptimizeOptions options;
  options.memo_entry_budget = 16;  // Chain-10 needs 54 entries.
  OptimizerContext ctx(*chain, cost_model, options);
  Result<OptimizationResult> result = RunDegradationPolicy(*policy, ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kBudgetExceeded);
}

/// JOINOPT_POLICY drives AdaptiveOptimizer end to end; a malformed value
/// is a hard InvalidArgument, not a silent fallback to the default.
TEST(PolicyEnvTest, AdaptiveHonorsJoinoptPolicy) {
  Result<QueryGraph> graph = MakeChainQuery(6);
  ASSERT_TRUE(graph.ok());
  const CoutCostModel cost_model;
  const JoinOrderer* adaptive = OptimizerRegistry::Get("Adaptive");

  ASSERT_EQ(setenv("JOINOPT_POLICY", "GOO", /*overwrite=*/1), 0);
  Result<OptimizationResult> greedy = adaptive->Optimize(*graph, cost_model);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  EXPECT_EQ(greedy->stats.algorithm, "GOO");

  ASSERT_EQ(setenv("JOINOPT_POLICY", "not a policy", 1), 0);
  Result<OptimizationResult> broken = adaptive->Optimize(*graph, cost_model);
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kInvalidArgument);

  ASSERT_EQ(unsetenv("JOINOPT_POLICY"), 0);
  Result<OptimizationResult> normal = adaptive->Optimize(*graph, cost_model);
  ASSERT_TRUE(normal.ok()) << normal.status().ToString();
  EXPECT_EQ(normal->stats.algorithm, "DPccp");
}

TEST(PolicyEnvTest, FromEnvFallsBackToDefaultWhenUnset) {
  ASSERT_EQ(unsetenv("JOINOPT_POLICY"), 0);
  Result<DegradationPolicy> policy = DegradationPolicy::FromEnv();
  ASSERT_TRUE(policy.ok());
  EXPECT_EQ(policy->ToString(), DegradationPolicy::Default().ToString());
}

}  // namespace
}  // namespace joinopt
