#pragma once

#include <cstddef>
#include <string>

#include "core/lcl.hpp"
#include "fuzz/case.hpp"
#include "graph/graph.hpp"
#include "graph/labeling.hpp"
#include "util/rng.hpp"

namespace lcl::fuzz {

/// What the generator does with degenerate draws - problems the
/// `lclscape::lint` analyzer flags at warning severity or above (dead
/// labels, vacuous configurations, trivial unsolvability):
///  - kOff:      emit them untouched (historical behavior);
///  - kAnnotate: emit them, but record the diagnostic codes in
///               `FuzzCase::note` so a failing seed is self-describing;
///  - kReject:   redraw (bounded by `lint_reject_attempts`), biasing the
///               stream toward problems whose constraint sets all matter.
/// Degenerate problems remain *valid* inputs - oracles must handle them -
/// so kAnnotate is the default: coverage with provenance.
enum class LintPolicy { kOff, kAnnotate, kReject };

/// Knobs of the random problem/instance generator. The defaults keep every
/// generated problem small enough that a brute-force reference and two
/// round-elimination steps stay affordable per seed.
struct GeneratorOptions {
  /// Range for the problem's max degree `Delta`.
  int min_degree = 2;
  int max_degree = 3;
  /// Range for the output alphabet size.
  std::size_t min_labels = 2;
  std::size_t max_labels = 3;
  /// Maximum input alphabet size; 1 generates problems "without inputs"
  /// (the classifier oracles only apply to those).
  std::size_t max_input_labels = 2;
  /// Probability that a candidate node / edge configuration is allowed.
  double node_density = 0.6;
  double edge_density = 0.6;
  /// Probability that `g` permits a given (input, output) pair (each input
  /// is always granted at least one output, so generated problems build).
  double g_density = 0.8;
  /// Node count range for generated instances.
  std::size_t min_instance_nodes = 3;
  std::size_t max_instance_nodes = 12;
  /// Lint treatment of degenerate draws (see `LintPolicy`).
  LintPolicy lint_policy = LintPolicy::kAnnotate;
  /// Redraw budget under `kReject`; after this many degenerate draws in a
  /// row the last one is emitted anyway (the stream must stay total).
  int lint_reject_attempts = 32;

  /// Wide-alphabet mode (`--wide-alphabets`): instead of the small dense
  /// problems above, draw output alphabets of `wide_min_labels ..
  /// wide_max_labels` labels (straddling the 64-label word seam) whose
  /// *live core* - the only labels appearing in the node and edge
  /// constraints - is a small scattered subset, always including a label at
  /// or past index 64 when the alphabet allows. `g` grants mostly live
  /// labels plus the occasional dead one. The point is the pipeline's
  /// wide-alphabet plumbing: the engine's pre-flight must prune the dead
  /// bulk, operators see the live core, and the derived iterates (up to
  /// `2^live - 1` labels) walk `reduce()`'s dominated pass across the
  /// 64- and 128-label word seams. Degree is pinned to 2 so enumeration
  /// over a 130-label alphabet stays affordable per seed.
  bool wide_alphabets = false;
  std::size_t wide_min_labels = 64;
  std::size_t wide_max_labels = 130;
  /// Live-core size range (kept <= 8 so a derived alphabet has at most
  /// 255 labels - past the one-word seam, cheap to enumerate).
  std::size_t wide_min_live = 4;
  std::size_t wide_max_live = 8;
  /// Probability that `g` grants a *dead* (non-core) label - rare, so the
  /// trim pass has something to do without drowning the live structure.
  double wide_dead_g_density = 0.03;
};

/// Draws a random node-edge-checkable LCL. Deterministic in (options, rng
/// state). The problem always builds: at least one node configuration, at
/// least one edge configuration, and a non-empty `g` row per input label.
NodeEdgeCheckableLcl random_problem(const GeneratorOptions& options,
                                    SplitRng& rng);

/// Draws a random instance whose max degree fits `problem`: a path, cycle,
/// star, caterpillar, random tree, random forest or (for Delta >= 4) a 2-d
/// toroidal grid, plus a uniform random input labeling over the problem's
/// input alphabet. `family` records which generator was used.
struct Instance {
  std::string family;
  Graph graph;
  HalfEdgeLabeling input;
};

Instance random_instance(const NodeEdgeCheckableLcl& problem,
                         const GeneratorOptions& options, SplitRng& rng);

/// Convenience: problem + instance + metadata assembled into a `FuzzCase`
/// (with `oracle` left empty; the fuzz loop fills it per bank entry).
FuzzCase random_case(const GeneratorOptions& options, std::uint64_t seed);

}  // namespace lcl::fuzz
