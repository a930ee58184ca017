#include "graph/generators.hpp"

#include <stdexcept>
#include <vector>

namespace lcl {

Graph make_path(std::size_t n) {
  if (n < 1) throw std::invalid_argument("make_path: n must be >= 1");
  Graph::Builder b(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  return b.build();
}

Graph make_cycle(std::size_t n) {
  if (n < 3) throw std::invalid_argument("make_cycle: n must be >= 3");
  Graph::Builder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n));
  }
  return b.build();
}

Graph make_star(std::size_t leaves) {
  if (leaves < 1) throw std::invalid_argument("make_star: need >= 1 leaf");
  Graph::Builder b(leaves + 1);
  for (std::size_t i = 1; i <= leaves; ++i) {
    b.add_edge(0, static_cast<NodeId>(i));
  }
  return b.build();
}

Graph make_regular_tree(int max_degree, int depth) {
  if (max_degree < 2) {
    throw std::invalid_argument("make_regular_tree: max_degree must be >= 2");
  }
  if (depth < 0) {
    throw std::invalid_argument("make_regular_tree: depth must be >= 0");
  }
  Graph::Builder b;
  b.ensure_node(0);
  NodeId next = 1;
  std::vector<NodeId> frontier{0};
  for (int level = 0; level < depth; ++level) {
    std::vector<NodeId> next_frontier;
    for (NodeId parent : frontier) {
      const int children = (parent == 0) ? max_degree : max_degree - 1;
      for (int c = 0; c < children; ++c) {
        b.add_edge(parent, next);
        next_frontier.push_back(next);
        ++next;
      }
    }
    frontier = std::move(next_frontier);
  }
  return b.build();
}

Graph make_random_tree(std::size_t n, int max_degree, SplitRng& rng) {
  if (n < 1) throw std::invalid_argument("make_random_tree: n must be >= 1");
  if (max_degree < 2) {
    throw std::invalid_argument("make_random_tree: max_degree must be >= 2");
  }
  Graph::Builder b(n);
  std::vector<int> residual(n, 0);
  // Nodes that can still accept a child.
  std::vector<NodeId> open;
  residual[0] = max_degree;
  open.push_back(0);
  for (NodeId v = 1; v < n; ++v) {
    const std::size_t pick = rng.next_below(open.size());
    const NodeId parent = open[pick];
    b.add_edge(parent, v);
    if (--residual[parent] == 0) {
      open[pick] = open.back();
      open.pop_back();
    }
    residual[v] = max_degree - 1;
    if (residual[v] > 0) open.push_back(v);
  }
  return b.build();
}

Graph make_random_forest(std::size_t n, std::size_t components,
                         int max_degree, SplitRng& rng) {
  if (components < 1 || components > n) {
    throw std::invalid_argument(
        "make_random_forest: need 1 <= components <= n");
  }
  Graph::Builder b(n);
  // Split n into `components` parts as evenly as possible, then grow each
  // part as a random tree over its contiguous id range.
  const std::size_t base = n / components;
  const std::size_t extra = n % components;
  NodeId start = 0;
  for (std::size_t c = 0; c < components; ++c) {
    const std::size_t size = base + (c < extra ? 1 : 0);
    std::vector<int> residual(size, 0);
    std::vector<NodeId> open;
    residual[0] = max_degree;
    open.push_back(start);
    for (std::size_t i = 1; i < size; ++i) {
      const NodeId v = start + static_cast<NodeId>(i);
      const std::size_t pick = rng.next_below(open.size());
      const NodeId parent = open[pick];
      b.add_edge(parent, v);
      if (--residual[parent - start] == 0) {
        open[pick] = open.back();
        open.pop_back();
      }
      residual[i] = max_degree - 1;
      if (residual[i] > 0) open.push_back(v);
    }
    start += static_cast<NodeId>(size);
  }
  return b.build();
}

Graph make_caterpillar(std::size_t spine, int legs) {
  if (spine < 1) {
    throw std::invalid_argument("make_caterpillar: spine must be >= 1");
  }
  if (legs < 0) {
    throw std::invalid_argument("make_caterpillar: legs must be >= 0");
  }
  Graph::Builder b(spine);
  for (std::size_t i = 0; i + 1 < spine; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  NodeId next = static_cast<NodeId>(spine);
  for (std::size_t i = 0; i < spine; ++i) {
    for (int l = 0; l < legs; ++l) {
      b.add_edge(static_cast<NodeId>(i), next++);
    }
  }
  return b.build();
}

Graph make_shortcut_path(std::size_t n) {
  if (n < 2) {
    throw std::invalid_argument("make_shortcut_path: n must be >= 2");
  }
  Graph::Builder b(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    b.add_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
  }
  // Build a balanced binary tree bottom-up: level 0 = spine nodes; each
  // higher level pairs up the nodes of the level below under fresh parents.
  std::vector<NodeId> level(n);
  for (std::size_t i = 0; i < n; ++i) level[i] = static_cast<NodeId>(i);
  NodeId next = static_cast<NodeId>(n);
  while (level.size() > 1) {
    std::vector<NodeId> parents;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      if (i + 1 < level.size()) {
        const NodeId parent = next++;
        b.add_edge(parent, level[i]);
        b.add_edge(parent, level[i + 1]);
        parents.push_back(parent);
      } else {
        // Odd node out: promote it unchanged.
        parents.push_back(level[i]);
      }
    }
    level = std::move(parents);
  }
  return b.build();
}

}  // namespace lcl
