#include "core/kbest.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "cost/cardinality.h"
#include "cost/saturation.h"
#include "enumerate/cmp.h"
#include "graph/bfs_numbering.h"
#include "graph/connectivity.h"

namespace joinopt {

namespace {

/// One ranked alternative for a set: its cost and its decomposition,
/// with child ranks selecting entries in the operand sets' lists.
struct RankedEntry {
  double cost = 0.0;
  NodeSet left;
  NodeSet right;
  int left_rank = -1;  // -1 marks a leaf entry.
  int right_rank = -1;
  JoinOperator op = JoinOperator::kUnspecified;
};

struct SetPlans {
  double cardinality = 0.0;
  std::vector<RankedEntry> ranked;  // Ascending cost, size <= k.
};

using Memo = std::unordered_map<NodeSet, SetPlans, NodeSetHash>;

/// Inserts a candidate into the top-k list (ascending by cost).
void Offer(SetPlans* plans, const RankedEntry& candidate, int k) {
  auto& list = plans->ranked;
  if (static_cast<int>(list.size()) == k &&
      candidate.cost >= list.back().cost) {
    return;
  }
  const auto position =
      std::upper_bound(list.begin(), list.end(), candidate,
                       [](const RankedEntry& a, const RankedEntry& b) {
                         return a.cost < b.cost;
                       });
  list.insert(position, candidate);
  if (static_cast<int>(list.size()) > k) {
    list.pop_back();
  }
}

/// Materializes the tree for (set, rank) from the memo.
int BuildTree(const Memo& memo, NodeSet set, int rank,
              std::vector<JoinTreeNode>* nodes) {
  const SetPlans& plans = memo.at(set);
  const RankedEntry& entry = plans.ranked[static_cast<size_t>(rank)];
  JoinTreeNode node;
  node.relations = set;
  node.cardinality = plans.cardinality;
  node.cost = entry.cost;
  node.op = entry.op;
  if (entry.left_rank < 0) {
    node.relation = set.Min();
  } else {
    node.left = BuildTree(memo, entry.left, entry.left_rank, nodes);
    node.right = BuildTree(memo, entry.right, entry.right_rank, nodes);
  }
  nodes->push_back(node);
  return static_cast<int>(nodes->size()) - 1;
}

}  // namespace

Result<std::vector<RankedPlan>> KBestJoinOrderer::Optimize(
    const QueryGraph& graph, const CostModel& cost_model,
    const OptimizeOptions& options) const {
  OptimizerContext ctx(graph, cost_model, options);
  return Optimize(ctx);
}

Result<std::vector<RankedPlan>> KBestJoinOrderer::Optimize(
    OptimizerContext& ctx) const {
  if (k_ < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  JOINOPT_RETURN_IF_ERROR(
      internal::BeginOptimize(ctx, name(), /*require_connected=*/true));
  const QueryGraph& graph = ctx.graph();
  const CostModel& cost_model = ctx.cost_model();

  // BFS-renumber like DPccp (the enumeration precondition).
  Result<BfsNumbering> numbering = ComputeBfsNumbering(graph, /*start=*/0);
  JOINOPT_RETURN_IF_ERROR(numbering.status());
  const bool identity = numbering->IsIdentity();
  const QueryGraph relabeled_storage =
      identity ? QueryGraph() : RelabelGraph(graph, *numbering);
  // Numbering-invariant estimates, exactly as in DPccp (see there).
  const WorkGraphScope scope(ctx, identity ? graph : relabeled_storage,
                             identity ? nullptr : &numbering->new_to_old);
  const QueryGraph& work_graph = ctx.work_graph();
  OptimizerStats& stats = ctx.stats();

  Memo memo;
  memo.reserve(256);
  for (int i = 0; i < work_graph.relation_count(); ++i) {
    SetPlans& plans = memo[NodeSet::Singleton(i)];
    plans.cardinality = work_graph.cardinality(i);
    plans.ranked.push_back(RankedEntry{0.0, NodeSet(), NodeSet(), -1, -1,
                                       JoinOperator::kUnspecified});
  }

  const CardinalityEstimator& estimator = ctx.estimator();
  EnumerateCsgCmpPairs(work_graph, [&](NodeSet s1, NodeSet s2) {
    ++stats.inner_counter;
    ++stats.ono_lohman_counter;
    ctx.TraceCsgCmpPair(s1, s2);
    const SetPlans& left = memo.at(s1);
    const SetPlans& right = memo.at(s2);
    SetPlans& combined = memo[s1 | s2];
    if (combined.cardinality == 0.0) {
      // Canonical per-set estimate, matching CreateJoinTree (the
      // incremental join formula is split-dependent under saturation).
      combined.cardinality = estimator.EstimateSet(s1 | s2);
      // The memo plays the plan table's role here, so the memo budget
      // counts its entries.
      if (!ctx.WithinMemoBudget(memo.size())) {
        return false;
      }
    }
    for (int li = 0; li < static_cast<int>(left.ranked.size()); ++li) {
      for (int ri = 0; ri < static_cast<int>(right.ranked.size()); ++ri) {
        const double subtree_cost =
            left.ranked[li].cost + right.ranked[ri].cost;
        // Both operand orders.
        Offer(&combined,
              RankedEntry{
                  SaturateCost(subtree_cost +
                               cost_model.JoinCost(left.cardinality,
                                                   right.cardinality,
                                                   combined.cardinality)),
                  s1, s2, li, ri,
                  cost_model.OperatorFor(left.cardinality, right.cardinality,
                                         combined.cardinality)},
              k_);
        Offer(&combined,
              RankedEntry{
                  SaturateCost(subtree_cost +
                               cost_model.JoinCost(right.cardinality,
                                                   left.cardinality,
                                                   combined.cardinality)),
                  s2, s1, ri, li,
                  cost_model.OperatorFor(right.cardinality, left.cardinality,
                                         combined.cardinality)},
              k_);
      }
    }
    return !ctx.Tick();
  });
  stats.csg_cmp_pair_counter = 2 * stats.ono_lohman_counter;
  stats.plans_stored = memo.size();
  if (ctx.exhausted()) {
    return ctx.limit_status();
  }

  const auto root = memo.find(work_graph.AllRelations());
  if (root == memo.end() || root->second.ranked.empty()) {
    return Status::Internal("k-best DP produced no full plan");
  }
  std::vector<RankedPlan> results;
  results.reserve(root->second.ranked.size());
  for (int rank = 0; rank < static_cast<int>(root->second.ranked.size());
       ++rank) {
    std::vector<JoinTreeNode> nodes;
    BuildTree(memo, work_graph.AllRelations(), rank, &nodes);
    Result<JoinTree> tree = JoinTree::FromNodes(std::move(nodes));
    JOINOPT_RETURN_IF_ERROR(tree.status());
    if (!identity) {
      tree->RelabelLeaves(numbering->new_to_old);
    }
    const double cost = tree->cost();
    results.push_back(RankedPlan{std::move(*tree), cost});
  }
  return results;
}

}  // namespace joinopt
