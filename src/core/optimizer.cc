#include "core/optimizer.h"

#include <string>
#include <utility>

#include "cost/saturation.h"
#include "enumerate/csg.h"
#include "graph/connectivity.h"

namespace joinopt {

Result<OptimizationResult> JoinOrderer::Optimize(
    const QueryGraph& graph, const CostModel& cost_model,
    const OptimizeOptions& options) const {
  OptimizerContext ctx(graph, cost_model, options);
  return Optimize(ctx);
}

namespace internal {

PlanTable MakeAdaptivePlanTable(const QueryGraph& graph,
                                uint64_t memo_entry_budget) {
  const int n = graph.relation_count();
  constexpr int kDenseLimit = 20;
  if (n > kDenseLimit) {
    // Forced sparse.
    return PlanTable(n, kDenseLimit, memo_entry_budget);
  }
  if (n <= 14) {
    // Dense is always cheap here (budget permitting).
    return PlanTable(n, kDenseLimit, memo_entry_budget);
  }
  // Dense pays off above ~1/16 fill; the counting pre-pass costs
  // O(min(#csg, cap)), a fraction of the enumeration that follows.
  const uint64_t cap = (uint64_t{1} << n) / 16;
  const uint64_t csg_count = CountConnectedSubsetsUpTo(graph, cap);
  return PlanTable(n, csg_count >= cap ? kDenseLimit : 0, memo_entry_budget);
}

Status ValidateOptimizerInput(const QueryGraph& graph,
                              bool require_connected) {
  if (graph.relation_count() == 0) {
    return Status::InvalidArgument("query graph has no relations");
  }
  JOINOPT_RETURN_IF_ERROR(ValidateGraphStatistics(graph));
  if (require_connected && !IsConnectedGraph(graph)) {
    return Status::FailedPrecondition(
        "query graph is disconnected; cross-product-free join trees do not "
        "exist (use a cross-product-enabled variant)");
  }
  return Status::OK();
}

Status BeginOptimize(OptimizerContext& ctx, std::string_view algorithm,
                     bool require_connected) {
  JOINOPT_RETURN_IF_ERROR(
      ValidateOptimizerInput(ctx.graph(), require_connected));
  ctx.stats().algorithm = std::string(algorithm);
  if (JOINOPT_UNLIKELY(ctx.has_trace())) {
    ctx.governor().GuardedTrace(
        [&] { ctx.options().trace->OnAlgorithmStart(algorithm, ctx.graph()); });
    if (JOINOPT_UNLIKELY(ctx.exhausted())) {
      return ctx.limit_status();
    }
  }
  return Status::OK();
}

bool SeedLeafPlans(OptimizerContext& ctx) {
  const QueryGraph& graph = ctx.work_graph();
  PlanTable& table = ctx.table();
  for (int i = 0; i < graph.relation_count(); ++i) {
    const NodeSet leaf = NodeSet::Singleton(i);
    table.RegisterLeaf(leaf, graph.cardinality(i));
    ctx.TracePlanInserted(leaf, 0.0, graph.cardinality(i));
  }
  ctx.stats().plans_stored = table.populated_count();
  return ctx.WithinMemoBudget(table.populated_count());
}

namespace {

/// Interns the combined set, computing its canonical cardinality on the
/// first reach and running the memo-budget check for the fresh entry.
/// Under the independence model |⋈ S| is plan-independent, so the
/// selectivity scan runs only the FIRST time a set is reached; later
/// combinations reuse the stored estimate. On dense graphs (clique-20:
/// 1.7e9 pairs, 1e6 sets) this is the difference between minutes and
/// seconds. The estimate is the CANONICAL per-set product (EstimateSet,
/// fixed evaluation order) rather than the incremental
/// card(s1)·card(s2)·sel(s1,s2): algebraically identical, but under
/// ceiling-clamped saturation the incremental form depends on which
/// split reached the set first, which would let different enumeration
/// orders — and the plan validator — disagree on the same set.
PlanRef InternCombined(OptimizerContext& ctx, NodeSet combined,
                       bool& keep_going) {
  PlanTable& table = ctx.table();
  bool created = false;
  const PlanRef ref = table.Intern(combined, created, [&ctx, combined] {
    return ctx.estimator().EstimateSet(combined);
  });
  if (JOINOPT_UNLIKELY(ref == kInvalidPlanRef)) {
    // The size layer overflowed the 26-bit PlanRef offset space — a
    // memo-capacity exhaustion, reported through the same sticky typed
    // channel as the configured budget so salvage/policies handle both
    // identically.
    ctx.governor().InjectFailure(Status::BudgetExceeded(
        "plan table layer for " + std::to_string(combined.count()) +
        "-relation sets overflowed the 26-bit PlanRef offset space"));
    keep_going = false;
    return kInvalidPlanRef;
  }
  if (created) {
    ctx.stats().plans_stored = table.populated_count();
    keep_going = ctx.WithinMemoBudget(table.populated_count());
  }
  return ref;
}

/// Prices one operand order against the entry at `ref` and relaxes it.
/// Saturated: with ceiling-clamped costs `cost < table.cost(ref)` stays
/// a meaningful comparison even when adversarial statistics overflow —
/// inf would freeze entries at "unimprovable" and NaN would corrupt the
/// min (see cost/saturation.h). The relax stays a strict cost-only
/// compare on purpose: the serial DPs' first-minimal tie-break is part
/// of the pinned plan-shape contract (see the representation
/// equivalence suite); the (cost, left, right) tie-break exists only
/// where determinism across work partitionings requires it (MergeLayer
/// and the parallel workers' reductions).
void RelaxOneOrder(OptimizerContext& ctx, PlanRef ref, NodeSet combined,
                   double build_cost, double build_card, double probe_cost,
                   double probe_card, double out_card, PlanRef build_ref,
                   PlanRef probe_ref) {
  PlanTable& table = ctx.table();
  const double cost = SaturateCost(
      build_cost + probe_cost +
      ctx.cost_model().JoinCost(build_card, probe_card, out_card));
  if (cost < table.cost(ref)) {
    table.SetPlan(ref, cost, build_ref, probe_ref,
                  ctx.cost_model().OperatorFor(build_card, probe_card,
                                               out_card));
    ctx.TracePlanInserted(combined, cost, out_card);
  } else {
    ctx.TracePruned(combined, cost, table.cost(ref));
  }
}

/// The pricing body behind every CreateJoinTree entry point: loads both
/// operands, interns `combined` (= set(left) ∪ set(right)), and relaxes
/// the (left, right) order, then the (right, left) order when
/// `both_orders`. Fusing the orders runs the operand loads, the intern
/// and the budget check once instead of once per order.
bool PriceJoin(OptimizerContext& ctx, NodeSet combined, PlanRef left,
               PlanRef right, bool both_orders) {
  PlanTable& table = ctx.table();
  ctx.stats().create_join_tree_calls += both_orders ? 2 : 1;
  const double left_cost = table.cost(left);
  const double left_card = table.cardinality(left);
  const double right_cost = table.cost(right);
  const double right_card = table.cardinality(right);

  bool keep_going = true;
  const PlanRef ref = InternCombined(ctx, combined, keep_going);
  if (JOINOPT_UNLIKELY(ref == kInvalidPlanRef)) {
    return false;
  }
  const double out_card = table.cardinality(ref);
  RelaxOneOrder(ctx, ref, combined, left_cost, left_card, right_cost,
                right_card, out_card, left, right);
  if (both_orders) {
    RelaxOneOrder(ctx, ref, combined, right_cost, right_card, left_cost,
                  left_card, out_card, right, left);
  }
  return keep_going;
}

/// Looks up both operand entries (which must exist) and prices the join.
bool PriceJoinOfSets(OptimizerContext& ctx, NodeSet s1, NodeSet s2,
                     bool both_orders) {
  const PlanTable& table = ctx.table();
  const PlanRef left = table.Find(s1);
  const PlanRef right = table.Find(s2);
  JOINOPT_DCHECK(left != kInvalidPlanRef && right != kInvalidPlanRef);
  return PriceJoin(ctx, s1 | s2, left, right, both_orders);
}

/// Packages a finished run's plan: stamps the elapsed time, applies the
/// collect_counters reporting toggle, and copies the plan's cost and
/// cardinality to the top level.
OptimizationResult PackageResult(const OptimizerContext& ctx, JoinTree plan,
                                 OptimizerStats stats,
                                 DegradationReport report) {
  stats.elapsed_seconds = ctx.ElapsedSeconds();
  if (JOINOPT_UNLIKELY(!ctx.options().collect_counters)) {
    stats.inner_counter = 0;
    stats.csg_cmp_pair_counter = 0;
    stats.ono_lohman_counter = 0;
    stats.create_join_tree_calls = 0;
  }
  OptimizationResult result{std::move(plan), 0.0, 0.0, std::move(stats),
                            std::move(report)};
  result.cost = result.plan.cost();
  result.cardinality = result.plan.cardinality();
  return result;
}

}  // namespace

bool CreateJoinTree(OptimizerContext& ctx, NodeSet s1, NodeSet s2) {
  return PriceJoinOfSets(ctx, s1, s2, /*both_orders=*/false);
}

bool CreateJoinTreeBothOrders(OptimizerContext& ctx, NodeSet s1, NodeSet s2) {
  return PriceJoinOfSets(ctx, s1, s2, /*both_orders=*/true);
}

bool CreateJoinTreeBothOrders(OptimizerContext& ctx, PlanRef left_ref,
                              PlanRef right_ref) {
  const PlanTable& table = ctx.table();
  return PriceJoin(ctx, table.set(left_ref) | table.set(right_ref), left_ref,
                   right_ref, /*both_orders=*/true);
}

Result<OptimizationResult> ExtractResult(OptimizerContext& ctx) {
  Result<JoinTree> tree =
      JoinTree::FromPlanTable(ctx.table(), ctx.work_graph().AllRelations());
  JOINOPT_RETURN_IF_ERROR(tree.status());
  return PackageResult(ctx, std::move(*tree), ctx.stats(),
                       DegradationReport());
}

Result<OptimizationResult> FinishOptimize(OptimizerContext& ctx,
                                          bool allow_cross_products) {
  if (JOINOPT_LIKELY(!ctx.exhausted())) {
    return ExtractResult(ctx);
  }
  if (!ctx.options().salvage_on_interrupt) {
    return ctx.limit_status();
  }
  const QueryGraph& graph = ctx.work_graph();
  Result<MemoSalvage::Outcome> salvaged = MemoSalvage::Run(
      ctx.table(), graph.AllRelations(), ctx.cost_model(),
      [&graph](NodeSet s1, NodeSet s2) { return graph.AreConnected(s1, s2); },
      [&ctx](NodeSet s) { return ctx.estimator().EstimateSet(s); },
      allow_cross_products, ctx.limit_status());
  if (!salvaged.ok()) {
    return ctx.limit_status();
  }
  OptimizerStats stats = ctx.stats();
  stats.plans_stored = ctx.table().populated_count();
  stats.best_effort = true;
  stats.memo_coverage = salvaged->report.memo_coverage;
  return PackageResult(ctx, std::move(salvaged->plan), std::move(stats),
                       std::move(salvaged->report));
}

}  // namespace internal
}  // namespace joinopt
