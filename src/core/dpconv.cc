#include "core/dpconv.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "bitset/subset_iterator.h"
#include "graph/connectivity.h"

namespace joinopt {

namespace {

constexpr double kUnreached = std::numeric_limits<double>::infinity();

}  // namespace

Result<OptimizationResult> DPconv::Optimize(OptimizerContext& ctx) const {
  JOINOPT_RETURN_IF_ERROR(
      internal::BeginOptimize(ctx, name(), /*require_connected=*/true));
  // Cout only: the subset-convolution identity prices a partition as
  // C(T) + C(S∖T) + |⋈ S|, which is exactly Cout's recurrence. For any
  // other model (asymmetric build/probe terms, operator-dependent costs)
  // the winning split of the sum is NOT the winning plan, and silently
  // returning a suboptimal tree is worse than refusing.
  if (ctx.cost_model().name() != "Cout") {
    return Status::InvalidArgument(
        "DPconv requires the Cout cost model (subset convolution prices "
        "partitions, not operator orders); got \"" +
        std::string(ctx.cost_model().name()) + "\"");
  }
  const QueryGraph& graph = ctx.graph();
  const int n = graph.relation_count();
  if (n > 24) {
    // The workspace materializes all 2^n masks (vs. DPsub's 2^n loop
    // without the array): 128 MiB of doubles at n = 24 is the ceiling.
    return Status::InvalidArgument(
        "DPconv materializes a dense 2^n cost workspace; refusing n > 24");
  }

  ctx.InstallTable(
      PlanTable(n, /*dense_limit=*/20, ctx.options().memo_entry_budget));
  OptimizerStats& stats = ctx.stats();
  PlanTable& table = ctx.table();
  bool live = internal::SeedLeafPlans(ctx);

  const uint64_t size = uint64_t{1} << n;
  // cost[mask] mirrors the memo's final cost column: 0 for singletons,
  // the winning saturated Cout for every materialized connected set, and
  // +inf everywhere else. All real costs saturate at 1e300 < inf, so
  // disconnected halves poison their candidate sums and can never win
  // the min — the branch-free connectivity masking of the sweep.
  std::vector<double> cost(size, kUnreached);
  for (int i = 0; i < n; ++i) {
    cost[uint64_t{1} << i] = 0.0;
  }

  // Ranked min-plus zeta transforms, rank-major: zeta[(j-2)*size + mask]
  // holds ζ_j(mask) for j in [2, n-1]. ζ_1 ≡ 0 (every singleton costs
  // 0), so it is never stored. Gated to dense graphs where the 3^n
  // sweep dominates the n²·2^n transform cost; the gate is a pure
  // function of the graph, so counters stay deterministic per input.
  // Below 15 relations the transforms cost more than the probes they
  // save (min of 7 on a 4-vCPU x86-64 host, pruning on vs off: clique-11
  // 0.70 vs 0.59 ms, clique-14 10.4 vs 9.1 ms) and allocate (n-2)·2^n
  // doubles besides.
  const bool zeta_enabled = use_zeta_pruning_ && n >= 15 && n <= 17 &&
                            4 * graph.edge_count() >= n * (n - 1);
  std::vector<double> zeta;
  if (zeta_enabled) {
    zeta.assign(static_cast<size_t>(n - 2) * size, kUnreached);
  }

  // Strided deadline ticks inside the sweeps (DPsub's cadence: the
  // governor's own 8k countdown composes on top), plus one unconditional
  // tick per layer boundary — the coherent-memo arrival the anytime
  // suite pins. Each materialized set holds its FINAL plan the moment it
  // is registered, so even a mid-layer stop leaves a salvageable memo.
  constexpr uint64_t kTickStride = 256;
  uint64_t since_tick = 0;

  for (int k = 2; live && k <= n; ++k) {
    table.FreezeLayer(k - 1);
    for (uint64_t mask = (uint64_t{1} << k) - 1; live && mask < size;
         mask = NextSameCount(mask)) {
      if ((++since_tick & (kTickStride - 1)) == 0 && ctx.Tick()) {
        live = false;
        break;
      }
      const NodeSet s = NodeSet::FromMask(mask);
      if (!IsConnectedSet(graph, s)) {
        continue;  // The masking of the convolution to connected sets.
      }

      // Exact lower bound on every split's sum via the relaxed (non-
      // disjoint) convolution of the ranked transforms. -inf when the
      // machinery is off: the early exit then never fires.
      double lower_bound = -kUnreached;
      if (zeta_enabled) {
        lower_bound = k == 2 ? 0.0 : zeta[(k - 3) * size + mask];  // j = 1
        for (int j = 2; 2 * j <= k; ++j) {
          lower_bound = std::min(lower_bound, zeta[(j - 2) * size + mask] +
                                                  zeta[(k - j - 2) * size +
                                                       mask]);
        }
      }

      // Lowbit-anchored Vance–Maier sweep: T always contains lowbit(S),
      // so each unordered partition arises exactly once. U = rest is
      // included on purpose — it pairs S with the empty set, whose +inf
      // workspace slot keeps the loop branch-free.
      const uint64_t low = mask & (~mask + 1);
      const uint64_t rest = mask ^ low;
      double best_sum = kUnreached;
      uint64_t best_left = 0;
      for (uint64_t u = 0;;) {
        ++stats.inner_counter;
        const uint64_t left = low | u;
        const double sum = cost[left] + cost[mask ^ left];
        if (sum < best_sum) {
          best_sum = sum;
          best_left = left;
          if (sum <= lower_bound) {
            break;  // No split can beat the bound; first-minimal found.
          }
        }
        u = (u - rest) & rest;
        if (u == 0) {
          break;
        }
        if ((++since_tick & (kTickStride - 1)) == 0 && ctx.Tick()) {
          live = false;
          break;
        }
      }
      if (!live) {
        break;
      }
      // A connected S always has a partition into two connected halves
      // (drop a spanning-tree leaf), so best_sum is finite here.
      const NodeSet s1 = NodeSet::FromMask(best_left);
      const NodeSet s2 = NodeSet::FromMask(mask ^ best_left);
      ++stats.csg_cmp_pair_counter;
      ctx.TraceCsgCmpPair(s1, s2);
      if (!internal::CreateJoinTree(ctx, s1, s2)) {
        live = false;
        break;
      }
      // Mirror the memo's saturated cost (sum + |⋈ S| through the shared
      // CreateJoinTree arithmetic) so higher layers convolve the exact
      // doubles the other DPs store.
      cost[mask] = table.cost(table.Find(s));
    }
    if (live && ctx.Tick()) {
      live = false;  // Layer-boundary tick (coherent-memo arrival).
    }

    // Fold the completed layer into its ranked transform: ζ_k(S) =
    // min{cost[T] : T ⊆ S, |T| = k} via the standard subset-sum DP.
    // Layer n has no consumers (and rank n-1 feeds only layer n's j = 1
    // term), so ranks stop at n-1.
    if (zeta_enabled && live && k < n) {
      double* z = zeta.data() + (k - 2) * size;
      for (uint64_t mask = (uint64_t{1} << k) - 1; mask < size;
           mask = NextSameCount(mask)) {
        z[mask] = cost[mask];
      }
      for (int b = 0; live && b < n; ++b) {
        const uint64_t bit = uint64_t{1} << b;
        for (uint64_t m = bit; m < size; ++m) {
          m |= bit;  // Skip straight to the next mask containing b.
          z[m] = std::min(z[m], z[m ^ bit]);
        }
        if (ctx.Tick()) {
          live = false;  // The transform is deadline-relevant work too.
        }
      }
    }
  }

  stats.ono_lohman_counter = stats.csg_cmp_pair_counter;
  return internal::FinishOptimize(ctx);
}

}  // namespace joinopt
