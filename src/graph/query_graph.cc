#include "graph/query_graph.h"

#include <cmath>
#include <string>
#include <utility>

namespace joinopt {

Result<QueryGraph> QueryGraph::WithRelations(int n, double cardinality) {
  if (n < 0 || n > kMaxRelations) {
    return Status::InvalidArgument("relation count must be in [0, 64], got " +
                                   std::to_string(n));
  }
  QueryGraph graph;
  for (int i = 0; i < n; ++i) {
    Result<int> added = graph.AddRelation(cardinality);
    JOINOPT_RETURN_IF_ERROR(added.status());
  }
  return graph;
}

Result<int> QueryGraph::AddRelation(double cardinality, std::string name) {
  if (relation_count() >= kMaxRelations) {
    return Status::OutOfRange("graph already holds 64 relations");
  }
  if (!(cardinality > 0.0) || !std::isfinite(cardinality)) {
    return Status::InvalidArgument("cardinality must be finite and positive");
  }
  const int index = relation_count();
  cardinalities_.push_back(cardinality);
  if (name.empty()) {
    // Built in place: GCC 12 at -O3 reports a false -Wrestrict overlap
    // for `"R" + std::to_string(index)`.
    name = std::to_string(index);
    name.insert(name.begin(), 'R');
  }
  names_.push_back(std::move(name));
  neighbor_masks_.push_back(NodeSet());
  edge_ids_.emplace_back();
  return index;
}

Status QueryGraph::AddEdge(int u, int v, double selectivity) {
  if (u < 0 || u >= relation_count() || v < 0 || v >= relation_count()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (u == v) {
    return Status::InvalidArgument("self-loops are not meaningful join edges");
  }
  if (!(selectivity > 0.0) || selectivity > 1.0) {
    return Status::InvalidArgument("selectivity must be in (0, 1]");
  }
  if (HasEdge(u, v)) {
    return Status::InvalidArgument("duplicate edge " + std::to_string(u) +
                                   "-" + std::to_string(v) +
                                   "; fold conjunctive predicates into one "
                                   "selectivity");
  }
  const int edge_id = edge_count();
  edges_.push_back(JoinEdge{u, v, selectivity});
  neighbor_masks_[u].Add(v);
  neighbor_masks_[v].Add(u);
  edge_ids_[u].push_back(edge_id);
  edge_ids_[v].push_back(edge_id);
  return Status::OK();
}

NodeSet QueryGraph::Neighborhood(NodeSet s) const {
  NodeSet result;
  for (int v : s) {
    result |= neighbor_masks_[v];
  }
  return result - s;
}

double QueryGraph::SelectivityBetween(NodeSet s1, NodeSet s2) const {
  JOINOPT_DCHECK(!s1.Intersects(s2));
  // Iterate the smaller side's incident edges.
  const NodeSet small = s1.count() <= s2.count() ? s1 : s2;
  const NodeSet other = s1.count() <= s2.count() ? s2 : s1;
  double product = 1.0;
  for (int v : small) {
    for (int edge_id : edge_ids_[v]) {
      const JoinEdge& edge = edges_[edge_id];
      const int peer = edge.left == v ? edge.right : edge.left;
      if (other.Contains(peer)) {
        product *= edge.selectivity;
      }
    }
  }
  return product;
}

double QueryGraph::SelectivityWithin(NodeSet s) const {
  double product = 1.0;
  for (const JoinEdge& edge : edges_) {
    if (s.Contains(edge.left) && s.Contains(edge.right)) {
      product *= edge.selectivity;
    }
  }
  return product;
}

Status ValidateGraphStatistics(const QueryGraph& graph) {
  for (int i = 0; i < graph.relation_count(); ++i) {
    const double card = graph.cardinality(i);
    if (!(card > 0.0) || !std::isfinite(card)) {
      return Status::DegenerateStatistics(
          "relation '" + graph.name(i) + "' has cardinality " +
          std::to_string(card) + "; must be finite and positive");
    }
  }
  for (const JoinEdge& edge : graph.edges()) {
    // !(s > 0) also catches NaN; s > 1 catches +inf.
    if (!(edge.selectivity > 0.0) || edge.selectivity > 1.0) {
      return Status::DegenerateStatistics(
          "edge " + graph.name(edge.left) + "-" + graph.name(edge.right) +
          " has selectivity " + std::to_string(edge.selectivity) +
          "; must be in (0, 1]");
    }
  }
  return Status::OK();
}

}  // namespace joinopt
