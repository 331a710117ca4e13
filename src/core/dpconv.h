#ifndef JOINOPT_CORE_DPCONV_H_
#define JOINOPT_CORE_DPCONV_H_

#include "core/optimizer.h"

namespace joinopt {

/// DPconv ("DPconv: Super-Polynomially Faster Join Ordering",
/// arXiv 2409.08013): the layered DP reformulated as min-plus subset
/// convolution over a dense per-mask cost workspace.
///
/// For Cout the cost of the best plan for a connected set S is
///
///     C(S) = |⋈ S| + min over partitions S = T ⊎ (S∖T)
///                    of C(T) + C(S∖T)
///
/// i.e. layer k of the DP is the min-plus subset convolution of the
/// lower layers with itself, shifted by the set's own cardinality. The
/// inner minimization runs over a dense `cost[mask]` array instead of
/// the memo: one lowbit-anchored Vance–Maier subset sweep per connected
/// set (each unordered partition exactly once, ~3^n/2 array probes
/// total) with no hashing, no interning, and no per-candidate trace
/// dispatch — only each set's WINNING split is materialized into the
/// slab `PlanTable` via the shared CreateJoinTree arithmetic, so the
/// stored costs are bit-identical to DPccp/DPsub/DPsize on every input.
///
/// Zeta-transform pruning: after layer j completes, its costs are folded
/// into a rank-j min-plus zeta transform ζ_j(S) = min{C(T) : T ⊆ S,
/// |T| = j}. At layer k the relaxed convolution lb(S) = min_j ζ_j(S) +
/// ζ_{k−j}(S) is an exact lower bound on every split of S (it drops the
/// disjointness constraint), so the sweep stops as soon as its running
/// best reaches lb. Stopping cannot change the winner: updates are
/// strict, so the running best is the FIRST split attaining the final
/// minimum — the same split the unpruned sweep selects. Full fast subset
/// convolution à la Björklund is intentionally NOT used: Möbius
/// inversion needs additive inverses, which (min,+) lacks, and the
/// quantized O(2^n·M) workaround would break the bit-identical-cost
/// contract (see DESIGN.md §12). The ranked transforms cost O(n²·2^n)
/// and are gated to dense graphs (n in [15, 17], edge density ≥ 1/2)
/// where the 3^n sweep actually dominates; below 15 relations they cost
/// as much time as they save.
///
/// Cross products never arise: the sweep skips disconnected S (DPsub's
/// bitset-BFS connectivity test), and for connected S any partition into
/// two connected halves is automatically joined by an edge (a spanning
/// path of S crosses every cut), so +inf-poisoned workspace entries are
/// the only masking the inner loop needs — disconnected halves carry
/// C = +inf and can never win the min.
///
/// Contract: Cout only — any other cost model is rejected with a typed
/// kInvalidArgument at Optimize entry (for asymmetric models the
/// convolution identity does not hold and a silently suboptimal plan is
/// not an acceptable failure mode). n > 24 is refused the same way (the
/// dense workspace materializes all 2^n masks). Deadline ticks run at
/// convolution-layer boundaries (the coherent-memo arrivals the anytime
/// suite pins) plus strided inside the sweeps; memo budget and layer
/// overflow surface through the shared CreateJoinTree path, and an
/// interrupted run salvages through internal::FinishOptimize like every
/// other memo-based orderer.
///
/// Counter semantics: inner_counter counts subset-sweep probes (pruning
/// shortens it deterministically); csg_cmp_pair_counter counts PRICED
/// pairs — exactly one winning split per connected set — and
/// ono_lohman_counter equals it (each unordered pair is priced once).
class DPconv final : public JoinOrderer {
 public:
  /// `use_zeta_pruning` keeps the ranked zeta transforms and the
  /// lower-bound early exit (default). The ablation variant sweeps every
  /// split; plans and costs are identical either way (only
  /// inner_counter and wall-clock differ), which the unit suite pins.
  explicit DPconv(bool use_zeta_pruning = true)
      : use_zeta_pruning_(use_zeta_pruning) {}

  std::string_view name() const override { return "DPconv"; }

  using JoinOrderer::Optimize;
  Result<OptimizationResult> Optimize(OptimizerContext& ctx) const override;

 private:
  bool use_zeta_pruning_;
};

}  // namespace joinopt

#endif  // JOINOPT_CORE_DPCONV_H_
