#include "hyper/hypergraph.h"

#include <utility>

namespace joinopt {

Hypergraph Hypergraph::FromQueryGraph(const QueryGraph& graph) {
  Hypergraph hyper;
  for (int i = 0; i < graph.relation_count(); ++i) {
    Result<int> added = hyper.AddRelation(graph.cardinality(i), graph.name(i));
    JOINOPT_CHECK(added.ok());
  }
  for (const JoinEdge& edge : graph.edges()) {
    const Status status =
        hyper.AddSimpleEdge(edge.left, edge.right, edge.selectivity);
    JOINOPT_CHECK(status.ok());
  }
  return hyper;
}

Result<int> Hypergraph::AddRelation(double cardinality, std::string name) {
  if (relation_count() >= kMaxRelations) {
    return Status::OutOfRange("hypergraph already holds 64 relations");
  }
  if (!(cardinality > 0.0)) {
    return Status::InvalidArgument("cardinality must be positive");
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
  simple_neighbors_.push_back(NodeSet());
  return index;
}

Status Hypergraph::AddEdge(NodeSet u, NodeSet w, double selectivity) {
  if (u.empty() || w.empty()) {
    return Status::InvalidArgument("hyperedge endpoints must be non-empty");
  }
  if (u.Intersects(w)) {
    return Status::InvalidArgument("hyperedge endpoints must be disjoint");
  }
  if (!(u | w).IsSubsetOf(AllRelations())) {
    return Status::InvalidArgument("hyperedge endpoint out of range");
  }
  if (!(selectivity > 0.0) || selectivity > 1.0) {
    return Status::InvalidArgument("selectivity must be in (0, 1]");
  }
  const HyperEdge edge{u, w, selectivity};
  const int edge_id = edge_count();
  edges_.push_back(edge);
  if (edge.IsSimple()) {
    simple_neighbors_[u.Min()].Add(w.Min());
    simple_neighbors_[w.Min()].Add(u.Min());
  } else {
    complex_edges_.push_back(edge_id);
  }
  return Status::OK();
}

NodeSet Hypergraph::Neighborhood(NodeSet s, NodeSet x) const {
  NodeSet forbidden = s | x;
  NodeSet result;
  for (int v : s) {
    result |= simple_neighbors_[v];
  }
  result -= forbidden;
  for (const int edge_id : complex_edges_) {
    const HyperEdge& edge = edges_[edge_id];
    if (edge.left.IsSubsetOf(s) && !edge.right.Intersects(forbidden)) {
      result.Add(edge.right.Min());
    }
    if (edge.right.IsSubsetOf(s) && !edge.left.Intersects(forbidden)) {
      result.Add(edge.left.Min());
    }
  }
  return result;
}

bool Hypergraph::AreConnected(NodeSet s1, NodeSet s2) const {
  for (const HyperEdge& edge : edges_) {
    if ((edge.left.IsSubsetOf(s1) && edge.right.IsSubsetOf(s2)) ||
        (edge.left.IsSubsetOf(s2) && edge.right.IsSubsetOf(s1))) {
      return true;
    }
  }
  return false;
}

bool Hypergraph::IsConnectedSet(NodeSet s) const {
  if (s.empty()) {
    return false;
  }
  NodeSet reached = s.LowestBit();
  for (;;) {
    NodeSet expansion;
    for (const HyperEdge& edge : edges_) {
      if (!(edge.left | edge.right).IsSubsetOf(s)) {
        continue;  // Edge not induced by s.
      }
      if (edge.left.IsSubsetOf(reached) && !edge.right.IsSubsetOf(reached)) {
        expansion |= edge.right;
      }
      if (edge.right.IsSubsetOf(reached) && !edge.left.IsSubsetOf(reached)) {
        expansion |= edge.left;
      }
    }
    if (expansion.empty()) {
      return reached == s;
    }
    reached |= expansion;
  }
}

bool Hypergraph::IsConnected() const {
  return relation_count() > 0 && IsConnectedSet(AllRelations());
}

double Hypergraph::SelectivityBetween(NodeSet s1, NodeSet s2) const {
  JOINOPT_DCHECK(!s1.Intersects(s2));
  const NodeSet combined = s1 | s2;
  double product = 1.0;
  for (const HyperEdge& edge : edges_) {
    const NodeSet span = edge.left | edge.right;
    if (span.IsSubsetOf(combined) && !span.IsSubsetOf(s1) &&
        !span.IsSubsetOf(s2)) {
      product *= edge.selectivity;
    }
  }
  return product;
}

double Hypergraph::SelectivityWithin(NodeSet s) const {
  double product = 1.0;
  for (const HyperEdge& edge : edges_) {
    if ((edge.left | edge.right).IsSubsetOf(s)) {
      product *= edge.selectivity;
    }
  }
  return product;
}

}  // namespace joinopt
