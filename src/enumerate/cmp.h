#ifndef JOINOPT_ENUMERATE_CMP_H_
#define JOINOPT_ENUMERATE_CMP_H_

#include <utility>
#include <vector>

#include "bitset/node_set.h"
#include "enumerate/csg.h"
#include "graph/query_graph.h"

namespace joinopt {

/// EnumerateCmp (Moerkotte & Neumann, Section 3.3): given a connected set
/// `s1`, emits every `s2` such that (s1, s2) is a csg-cmp-pair and
/// min(s2) > min(s1) — i.e. each unordered pair is produced for exactly
/// one of its two components.
///
/// Precondition: BFS numbering (as for EnumerateCsg); `s1` non-empty and
/// connected.
///
/// Implementation note: the VLDB'06 pseudocode passes `X ∪ N` to the
/// recursive call, which over-prunes — on a triangle with s1 = {0} it
/// never produces s2 = {1, 2}, because each neighbor's recursion excludes
/// the other neighbor. The corrected exclusion set (used in Moerkotte's
/// later expositions of the same algorithm) is `X ∪ B_i(N)`: only the
/// neighbors with label <= the current start label are excluded, which is
/// exactly what duplicate suppression needs. We implement the corrected
/// version; the test suite verifies the enumeration against a brute-force
/// oracle on many graphs.
template <typename Emit>
bool EnumerateCmp(const QueryGraph& graph, NodeSet s1, Emit&& emit) {
  JOINOPT_DCHECK(!s1.empty());
  const NodeSet x = NodeSet::Prefix(s1.Min() + 1) | s1;
  const NodeSet neighborhood = graph.Neighborhood(s1) - x;
  // Visit neighbors by descending index; each start node may grow through
  // neighbors of s1 with a LARGER index (they are not in B_i(N)), but not
  // through ones already used as start nodes.
  for (NodeSet remaining = neighborhood; !remaining.empty();) {
    const int i = remaining.Max();
    const NodeSet start = NodeSet::Singleton(i);
    if (!internal::Continue(emit, start)) {
      return false;
    }
    const NodeSet b_i_of_n = neighborhood & NodeSet::Prefix(i + 1);
    if (internal::Stopped<Emit, NodeSet>(
            EnumerateCsgRec(graph, start, x | b_i_of_n, emit))) {
      return false;
    }
    remaining.Remove(i);
  }
  return true;
}

/// Enumerates all csg-cmp-pairs of the graph, invoking
/// emit(s1, s2) once per unordered pair, in an order valid for dynamic
/// programming (all sub-pairs of s1 and s2 emitted earlier). This is the
/// driving loop of DPccp. A bool `emit` that returns false unwinds the
/// whole enumeration immediately: this is what lets a resource budget
/// abort DPccp on a hostile clique without walking the remaining ~2^n
/// pairs.
///
/// Precondition: BFS numbering.
template <typename EmitPair>
bool EnumerateCsgCmpPairs(const QueryGraph& graph, EmitPair&& emit) {
  return EnumerateCsg(graph, [&graph, &emit](NodeSet s1) {
    const auto emit_s2 = [&emit, s1](NodeSet s2) { return emit(s1, s2); };
    if constexpr (internal::kCanStop<EmitPair, NodeSet, NodeSet>) {
      return EnumerateCmp(graph, s1, emit_s2);
    } else {
      EnumerateCmp(graph, s1, emit_s2);
    }
  });
}

/// Materializing convenience wrapper for tests/tools.
std::vector<std::pair<NodeSet, NodeSet>> CollectCsgCmpPairs(
    const QueryGraph& graph);

/// Counts csg-cmp-pairs (unordered), stopping early once `cap` is
/// reached. O(min(#ccp, cap)): the AdaptiveOptimizer's gate for "is
/// exact DP affordable here" costs at most the budget itself.
uint64_t CountCsgCmpPairsUpTo(const QueryGraph& graph, uint64_t cap);

}  // namespace joinopt

#endif  // JOINOPT_ENUMERATE_CMP_H_
