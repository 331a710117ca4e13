#include "core/dpccp.h"

#include <utility>

#include "enumerate/cmp.h"
#include "graph/bfs_numbering.h"

namespace joinopt {

Result<OptimizationResult> DPccp::Optimize(OptimizerContext& ctx) const {
  JOINOPT_RETURN_IF_ERROR(
      internal::BeginOptimize(ctx, name(), /*require_connected=*/true));
  const QueryGraph& graph = ctx.graph();

  // Establish the BFS-numbering precondition of EnumerateCsg/EnumerateCmp.
  Result<BfsNumbering> numbering = ComputeBfsNumbering(graph, /*start=*/0);
  JOINOPT_RETURN_IF_ERROR(numbering.status());
  const bool identity = numbering->IsIdentity();
  const QueryGraph relabeled_storage =
      identity ? QueryGraph() : RelabelGraph(graph, *numbering);
  // The numbering rides along so per-set estimates are computed in the
  // ORIGINAL label order — bit-identical to the non-relabeling DPs.
  const WorkGraphScope scope(ctx, identity ? graph : relabeled_storage,
                             identity ? nullptr : &numbering->new_to_old);
  const QueryGraph& work_graph = ctx.work_graph();

  ctx.InstallTable(internal::MakeAdaptivePlanTable(
      work_graph, ctx.options().memo_entry_budget));
  OptimizerStats& stats = ctx.stats();
  if (internal::SeedLeafPlans(ctx)) {
    EnumerateCsgCmpPairs(work_graph, [&](NodeSet s1, NodeSet s2) {
      ++stats.inner_counter;
      ++stats.ono_lohman_counter;
      ctx.TraceCsgCmpPair(s1, s2);
      if (!internal::CreateJoinTreeBothOrders(ctx, s1, s2)) {
        return false;  // Memo budget tripped: unwind the enumeration.
      }
      return !ctx.Tick();
    });
  }
  stats.csg_cmp_pair_counter = 2 * stats.ono_lohman_counter;

  // FinishOptimize runs inside the WorkGraphScope: the memo (and any
  // salvaged completion of it) speaks the BFS numbering, and the relabel
  // below applies to best-effort plans exactly like exact ones.
  Result<OptimizationResult> result = internal::FinishOptimize(ctx);
  JOINOPT_RETURN_IF_ERROR(result.status());
  if (!identity) {
    result->plan.RelabelLeaves(numbering->new_to_old);
  }
  return result;
}

}  // namespace joinopt
