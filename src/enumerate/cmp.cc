#include "enumerate/cmp.h"

namespace joinopt {

std::vector<std::pair<NodeSet, NodeSet>> CollectCsgCmpPairs(
    const QueryGraph& graph) {
  std::vector<std::pair<NodeSet, NodeSet>> result;
  EnumerateCsgCmpPairs(
      graph, [&result](NodeSet s1, NodeSet s2) { result.emplace_back(s1, s2); });
  return result;
}

uint64_t CountCsgCmpPairsUpTo(const QueryGraph& graph, uint64_t cap) {
  if (cap == 0) {
    return 0;
  }
  uint64_t count = 0;
  EnumerateCsgCmpPairs(graph,
                       [&count, cap](NodeSet, NodeSet) { return ++count < cap; });
  return count;
}

}  // namespace joinopt
