#include "enumerate/csg.h"

namespace joinopt {

std::vector<NodeSet> CollectConnectedSubsets(const QueryGraph& graph) {
  std::vector<NodeSet> result;
  EnumerateCsg(graph, [&result](NodeSet s) { result.push_back(s); });
  return result;
}

uint64_t CountConnectedSubsetsUpTo(const QueryGraph& graph, uint64_t cap) {
  if (cap == 0) {
    return 0;
  }
  uint64_t count = 0;
  EnumerateCsg(graph, [&count, cap](NodeSet) { return ++count < cap; });
  return count;
}

}  // namespace joinopt
