#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace lcl {

/// Graph family generators used throughout the experiments. All generators
/// are deterministic given their arguments (and RNG seed where applicable).

/// The path `0 - 1 - ... - n-1`. Requires n >= 1.
Graph make_path(std::size_t n);

/// The cycle on n nodes. Requires n >= 3.
Graph make_cycle(std::size_t n);

/// A star: center 0 with `leaves` leaves. Max degree = leaves.
Graph make_star(std::size_t leaves);

/// Complete rooted tree in which the root has `max_degree` children and
/// every other internal node has `max_degree - 1` children (so every
/// internal node has degree exactly `max_degree`), with `depth` levels below
/// the root. `depth == 0` yields a single node.
Graph make_regular_tree(int max_degree, int depth);

/// A uniformly random tree with maximum degree `max_degree`: nodes arrive
/// one by one and attach to a uniformly random earlier node that still has
/// residual degree. Requires max_degree >= 2.
Graph make_random_tree(std::size_t n, int max_degree, SplitRng& rng);

/// A random forest: `n` nodes split into `components` trees, each generated
/// as in `make_random_tree`.
Graph make_random_forest(std::size_t n, std::size_t components,
                         int max_degree, SplitRng& rng);

/// A caterpillar: a spine path of `spine` nodes, each carrying `legs` leaf
/// children. Max degree = legs + 2.
Graph make_caterpillar(std::size_t spine, int legs);

/// The [BHKLOS18]-style shortcut graph used for Figure 1 (bottom-left):
/// a spine path `0 .. n-1` plus a balanced binary tree whose leaves are the
/// spine nodes (internal tree nodes are extra nodes). The t-hop ball of a
/// spine node in the full graph contains the Theta(2^t)-hop ball of that
/// node *in the spine*, so problems on the spine that need to see k spine
/// nodes need only radius O(log k) here - but still volume Theta(k).
/// Max degree 3 (spine nodes: 2 spine edges + at most 1 tree parent;
/// internal tree nodes: at most 1 parent + 2 children). Spine nodes are ids
/// `0 .. n-1`.
Graph make_shortcut_path(std::size_t n);

}  // namespace lcl
