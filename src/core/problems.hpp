#pragma once

#include "core/lcl.hpp"

namespace lcl {
namespace problems {

/// Canonical LCL problems in node-edge-checkable form (Definition 2.3).
/// These are the witnesses the paper's Figure 1 landscape refers to:
///
///  - class O(1):              `trivial`, `any_orientation`
///  - class Theta(log* n):     `coloring(Delta+1)`, `mis`,
///                             `maximal_matching`, `forbidden_color`
///  - class Theta(log n) det / Theta(log log n) rand:
///                             `sinkless_orientation`
///  - class Theta(n) on paths: `two_coloring`
///
/// All constructors validate their arguments and throw
/// `std::invalid_argument` on nonsense (e.g. 0 colors).

/// Single output label, every configuration allowed. Solvable in 0 rounds.
NodeEdgeCheckableLcl trivial(int max_degree);

/// Proper node coloring with `colors` colors: a node writes its color on all
/// incident half-edges (node configurations are constant multisets), and the
/// two sides of an edge must differ.
NodeEdgeCheckableLcl coloring(int colors, int max_degree);

/// Proper 2-coloring (global, Theta(n), on paths/cycles; unsolvable on odd
/// cycles). Shorthand for `coloring(2, max_degree)`.
NodeEdgeCheckableLcl two_coloring(int max_degree);

/// Maximal independent set. Output labels: `I` (in the set, written on all
/// half-edges), `P` (pointer: "this neighbor is my dominating MIS node"),
/// `O` (other). Node configurations: all-`I`, or exactly one `P` and the
/// rest `O`. Edge configurations: `{I,I}` forbidden; `P` pairs only with
/// `I`; `{O,O}`, `{O,I}` allowed.
NodeEdgeCheckableLcl mis(int max_degree);

/// Maximal matching. Output labels: `M` (this edge is my matching edge),
/// `Y` ("I am matched, but not on this edge"), `U` ("I am unmatched").
/// Node configurations: `{M, Y^(d-1)}` or `{U^d}`. Edge configurations:
/// `{M,M}`, `{Y,Y}`, `{Y,U}` (maximality: `{U,U}` forbidden).
NodeEdgeCheckableLcl maximal_matching(int max_degree);

/// Sinkless orientation on trees: orient every edge (half-edge labels `O`
/// out / `I` in, edge configuration `{O,I}` only); every node of degree
/// exactly `max_degree` must have at least one outgoing half-edge (nodes of
/// smaller degree are unconstrained). Theta(log n) deterministic,
/// Theta(log log n) randomized on trees.
NodeEdgeCheckableLcl sinkless_orientation(int max_degree);

/// Any consistent orientation of the edges - no node constraint at all.
/// Solvable in 0 rounds given ports/IDs... but note this requires the two
/// endpoints to agree; with IDs it is 1-round solvable (orient toward the
/// larger ID). A "just above trivial" O(1) witness.
NodeEdgeCheckableLcl any_orientation(int max_degree);

/// Proper `colors`-edge-coloring: both half-edges of an edge carry the same
/// color (the edge's color); colors around a node are pairwise distinct.
/// For colors >= 2*max_degree - 1 this is Theta(log* n).
NodeEdgeCheckableLcl edge_coloring(int colors, int max_degree);

/// An LCL *with inputs* (exercising `g_Pi`): proper node coloring with
/// `colors` colors where each half-edge carries an input label in
/// `{forbid_0, .., forbid_(colors-1), free}`; output color `c` is not
/// permitted on a half-edge with input `forbid_c`. With `colors >=
/// max_degree + 2`, greedy arguments still apply and the complexity stays
/// Theta(log* n).
NodeEdgeCheckableLcl forbidden_color(int colors, int max_degree);

/// Perfect matching: like `maximal_matching`, but every node must be
/// matched (labels `M` / `Y` only). On paths and cycles this is solvable
/// exactly for even lengths and is a global (Theta(n)) problem - a clean
/// witness that solvable-length structure and complexity are decided
/// together by the classifiers.
NodeEdgeCheckableLcl perfect_matching(int max_degree);

/// Weak c-coloring: every non-isolated node must have at least one neighbor
/// with a different color (node writes its color on all half-edges; an edge
/// may be monochromatic, but the node constraint... cannot see neighbors).
/// Encoded via half-edge labels (color, flag) where the flag marks one
/// incident edge as the "witness" edge which must be bichromatic.
NodeEdgeCheckableLcl weak_coloring(int colors, int max_degree);

/// Synthetic wide-alphabet stress family (not from the paper): `labels`
/// output labels `t0..t(n-1)` at max degree 2, with
///   - node configurations: every single `{a}`, and every pair `{a, b}`
///     with `|a - b| <= window`;
///   - edge configurations: `{a, b}` allowed iff `a + b >= labels - 1`;
///   - unrestricted inputs.
/// The threshold edge constraint makes the partner sets a strict chain
/// (partners(a) subset partners(b) for a < b) while the banded node
/// constraint limits which replacements stay legal, so `reduce()`'s
/// dominate pass has dominations to find across the whole alphabet (each
/// pass drops every dominated label at once). Sized at 63..129+ labels this
/// is the workload that takes the domination relation's holder masks past
/// one 64-bit word (the parity battery) and drives the wide kernel-slice
/// benchmarks; nothing else in the canonical battery has alphabets past 64
/// labels before an operator is applied.
NodeEdgeCheckableLcl threshold_band(int labels, int window);

}  // namespace problems
}  // namespace lcl
