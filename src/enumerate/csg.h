#ifndef JOINOPT_ENUMERATE_CSG_H_
#define JOINOPT_ENUMERATE_CSG_H_

#include <type_traits>
#include <vector>

#include "bitset/node_set.h"
#include "bitset/subset_iterator.h"
#include "graph/query_graph.h"

namespace joinopt {

namespace internal {

/// True when a callback invoked with `Args` returns a value, i.e. it can
/// stop the enumeration; a void callback always continues.
template <typename Emit, typename... Args>
inline constexpr bool kCanStop =
    !std::is_void_v<std::invoke_result_t<Emit&, Args...>>;

/// Invokes emit(args...) and reports whether the enumeration continues.
template <typename Emit, typename... Args>
bool Continue(Emit& emit, Args... args) {
  if constexpr (kCanStop<Emit, Args...>) {
    return static_cast<bool>(emit(args...));
  } else {
    emit(args...);
    return true;
  }
}

/// Whether a nested enumerator's result `go_on` means the callback stopped
/// the enumeration. Constant false for a void callback, so its check folds
/// away.
template <typename Emit, typename... Args>
bool Stopped(bool go_on) {
  if constexpr (kCanStop<Emit, Args...>) {
    return !go_on;
  } else {
    return false;
  }
}

}  // namespace internal

/// The enumerators below share one early-exit contract. `emit` may return
/// void (the enumeration always runs to the end) or bool (returning false
/// stops the whole enumeration at once: resource budgets, capped counts).
/// Each enumerator returns false exactly when `emit` stopped it. Under a
/// void callback the continuation checks are compiled out, so the hot
/// loop carries none.

/// EnumerateCsgRec (Moerkotte & Neumann, Section 3.2): grows the connected
/// set `s` by every non-empty subset of its neighborhood outside the
/// exclusion set `x`, emitting each enlarged set and recursing.
///
/// `emit` is invoked as emit(NodeSet) once per enumerated connected set,
/// in an order where every connected subset of an emitted set that will be
/// emitted at all has been emitted before it (the DP-validity property,
/// Lemma 12). Templated on the callback so the hot loop inlines.
///
/// Precondition: `s` is non-empty and induces a connected subgraph;
/// `x` contains `s`.
template <typename Emit>
bool EnumerateCsgRec(const QueryGraph& graph, NodeSet s, NodeSet x,
                     Emit&& emit) {
  const NodeSet neighborhood = graph.Neighborhood(s) - x;
  if (neighborhood.empty()) {
    return true;
  }
  // First pass: emit all enlargements (subsets before supersets, which the
  // ascending-mask order of SubsetIterator guarantees).
  for (SubsetIterator it(neighborhood); !it.Done(); it.Next()) {
    if (!internal::Continue(emit, s | it.Current())) {
      return false;
    }
  }
  // Second pass: recurse, excluding the whole neighborhood so deeper
  // recursion levels cannot regenerate these sets.
  for (SubsetIterator it(neighborhood); !it.Done(); it.Next()) {
    if (internal::Stopped<Emit, NodeSet>(EnumerateCsgRec(
            graph, s | it.Current(), x | neighborhood, emit))) {
      return false;
    }
  }
  return true;
}

/// EnumerateCsg (Moerkotte & Neumann, Section 3.2): emits every non-empty
/// set of nodes that induces a connected subgraph of `graph`, exactly
/// once, in an order valid for dynamic programming.
///
/// Precondition: the nodes of `graph` are numbered breadth-first (see
/// ComputeBfsNumbering); DPccp's correctness proofs assume it. The
/// enumeration itself visits start nodes in descending index order and
/// forbids each start node's connected sets from containing smaller
/// indices (the B_i trick that suppresses duplicates).
template <typename Emit>
bool EnumerateCsg(const QueryGraph& graph, Emit&& emit) {
  for (int i = graph.relation_count() - 1; i >= 0; --i) {
    const NodeSet start = NodeSet::Singleton(i);
    if (!internal::Continue(emit, start)) {
      return false;
    }
    if (internal::Stopped<Emit, NodeSet>(
            EnumerateCsgRec(graph, start, NodeSet::Prefix(i + 1), emit))) {
      return false;
    }
  }
  return true;
}

/// Materializing convenience wrapper: all connected subsets, in emission
/// order. Intended for tests and tools, not hot paths.
std::vector<NodeSet> CollectConnectedSubsets(const QueryGraph& graph);

/// Counts connected subsets, stopping early once `cap` is reached (the
/// result is then exactly `cap`). An O(min(#csg, cap)) pre-pass the DP
/// optimizers use to size their plan table: a near-full table (stars,
/// cliques) wants the dense array backend, a sparse one (chains, cycles)
/// wants the hash map — zero-filling 2^n dense entries would otherwise
/// dominate sub-millisecond optimizations.
uint64_t CountConnectedSubsetsUpTo(const QueryGraph& graph, uint64_t cap);

}  // namespace joinopt

#endif  // JOINOPT_ENUMERATE_CSG_H_
