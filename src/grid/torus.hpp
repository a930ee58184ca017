#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "util/rng.hpp"

namespace lcl {

/// An oriented d-dimensional toroidal grid (Section 5): nodes are the
/// points of `Z_{e_0} x .. x Z_{e_{d-1}}`; each node has one forward and
/// one backward edge per dimension, and every half-edge carries an input
/// label identifying its dimension and direction (`0+`, `0-`, `1+`, ...).
/// This is exactly the "edges labeled with [d], consistently oriented"
/// structure of Definition 5.2's model; the torus wraps around (the paper's
/// toroidal assumption).
///
/// Ports carry no fixed meaning; algorithms locate their dimension-k
/// forward/backward ports through the orientation input labels, exactly as
/// the paper's model conveys the orientation. Every extent must be >= 3
/// (smaller extents create parallel edges or self-loops, which simple
/// graphs exclude).
class OrientedTorus {
 public:
  explicit OrientedTorus(std::vector<std::size_t> extents);

  const Graph& graph() const noexcept { return graph_; }
  int dimensions() const noexcept { return static_cast<int>(extents_.size()); }
  std::size_t extent(int dim) const;
  std::size_t node_count() const noexcept { return graph_.node_count(); }

  NodeId node_at(const std::vector<std::size_t>& coords) const;
  std::vector<std::size_t> coords_of(NodeId v) const;

  /// Input labeling with the orientation labels: half-edge (v, port 2k)
  /// gets `forward_label(k)`, (v, port 2k+1) gets `backward_label(k)`.
  HalfEdgeLabeling orientation_input() const;

  /// Input label marking the tail side of a dimension-k edge.
  static Label forward_label(int dim) { return static_cast<Label>(2 * dim); }
  /// Input label marking the head side of a dimension-k edge.
  static Label backward_label(int dim) {
    return static_cast<Label>(2 * dim + 1);
  }

 private:
  std::vector<std::size_t> extents_;
  std::vector<std::size_t> strides_;
  Graph graph_;
};

/// The PROD-LOCAL identifier assignment (Definition 5.2): node u receives d
/// identifiers, one per dimension, such that two nodes share their k-th
/// identifier iff they share their k-th coordinate.
struct ProdLocalIds {
  /// per_coordinate[k][c] = the k-th identifier of every node whose k-th
  /// coordinate is c.
  std::vector<std::vector<std::uint64_t>> per_coordinate;

  /// The d-tuple for one node, in the `NodeContext::aux` format.
  std::vector<std::uint64_t> tuple_for(const OrientedTorus& torus,
                                       NodeId v) const;
  /// Tuples for all nodes (indexable by NodeId).
  std::vector<std::vector<std::uint64_t>> all_tuples(
      const OrientedTorus& torus) const;
};

/// Random distinct per-dimension identifiers from a polynomial range.
ProdLocalIds random_prod_ids(const OrientedTorus& torus, SplitRng& rng);

/// Proposition 5.3's packing: globally unique identifiers
/// `I = sum_k id_k * range^k` derived from PROD-LOCAL identifiers, letting
/// ordinary LOCAL algorithms run in the PROD-LOCAL model.
IdAssignment combined_ids(const OrientedTorus& torus,
                          const ProdLocalIds& prod);

/// The smallest power of two strictly above every per-dimension identifier
/// (the per-dimension id range used by grid Cole-Vishkin).
std::uint64_t prod_id_range(const ProdLocalIds& prod);

}  // namespace lcl
