#include "lint/analyzer.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "lint/canonical.hpp"
#include "lint/spec_io.hpp"
#include "obs/obs.hpp"

namespace lcl::lint {

namespace {

/// Renders one raw configuration with label names where the index is valid
/// and `#<raw>` where it is not (undeclared labels must still print).
std::string render_config(const std::vector<std::int64_t>& config,
                          const std::vector<std::string>& outputs) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < config.size(); ++i) {
    if (i > 0) os << ", ";
    const auto raw = config[i];
    if (raw >= 0 && static_cast<std::size_t>(raw) < outputs.size()) {
      os << outputs[static_cast<std::size_t>(raw)];
    } else {
      os << '#' << raw;
    }
  }
  os << '}';
  return os.str();
}

void add(std::vector<Diagnostic>& diags, const char* code, Severity severity,
         std::string message, std::string object = {}, int index = -1) {
  Diagnostic d;
  d.code = code;
  d.severity = severity;
  d.message = std::move(message);
  d.object = std::move(object);
  d.index = index;
  diags.push_back(std::move(d));
}

void check_alphabet(const std::vector<std::string>& names, const char* which,
                    std::vector<Diagnostic>& diags, bool& valid) {
  if (names.empty()) {
    add(diags, Code::kAlphabetArity, Severity::kError,
        std::string(which) + " alphabet is empty", "problem");
    valid = false;
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (names[i] == names[j]) {
        add(diags, Code::kAlphabetArity, Severity::kError,
            std::string("duplicate ") + which + " label name '" + names[i] +
                "' (indices " + std::to_string(j) + " and " +
                std::to_string(i) + ")",
            std::string(which) + "_label", static_cast<int>(i));
        valid = false;
      }
    }
  }
}

/// L001: structural consistency of alphabets, arities, and label indices.
/// Returns false when any error makes the semantic passes meaningless.
bool structural_pass(const ProblemSpec& spec,
                     std::vector<Diagnostic>& diags) {
  bool valid = true;
  if (spec.max_degree < 1) {
    add(diags, Code::kAlphabetArity, Severity::kError,
        "max_degree must be >= 1, got " + std::to_string(spec.max_degree),
        "problem");
    valid = false;
  }
  check_alphabet(spec.outputs, "output", diags, valid);
  check_alphabet(spec.inputs, "input", diags, valid);

  const auto check_entries = [&](const std::vector<std::int64_t>& config,
                                 const char* object, int index) {
    for (const auto raw : config) {
      if (raw < 0 || static_cast<std::size_t>(raw) >= spec.outputs.size()) {
        add(diags, Code::kAlphabetArity, Severity::kError,
            std::string("undeclared output label #") + std::to_string(raw) +
                " in " + object + " " + render_config(config, spec.outputs),
            object, index);
        valid = false;
      }
    }
  };
  for (std::size_t i = 0; i < spec.node_configs.size(); ++i) {
    const auto& config = spec.node_configs[i];
    if (config.empty() ||
        (spec.max_degree >= 1 &&
         config.size() > static_cast<std::size_t>(spec.max_degree))) {
      add(diags, Code::kAlphabetArity, Severity::kError,
          "node configuration " + render_config(config, spec.outputs) +
              " has arity " + std::to_string(config.size()) +
              ", outside [1, max_degree = " +
              std::to_string(spec.max_degree) + "]",
          "node_config", static_cast<int>(i));
      valid = false;
    }
    check_entries(config, "node_config", static_cast<int>(i));
  }
  for (std::size_t i = 0; i < spec.edge_configs.size(); ++i) {
    const auto& config = spec.edge_configs[i];
    if (config.size() != 2) {
      add(diags, Code::kAlphabetArity, Severity::kError,
          "edge configuration " + render_config(config, spec.outputs) +
              " has arity " + std::to_string(config.size()) +
              "; edges have exactly 2 half-edges",
          "edge_config", static_cast<int>(i));
      valid = false;
    }
    check_entries(config, "edge_config", static_cast<int>(i));
  }
  if (spec.g.size() != spec.inputs.size()) {
    add(diags, Code::kAlphabetArity, Severity::kError,
        "g has " + std::to_string(spec.g.size()) +
            " rows but there are " + std::to_string(spec.inputs.size()) +
            " input labels",
        "g");
    valid = false;
  } else {
    for (std::size_t i = 0; i < spec.g.size(); ++i) {
      check_entries(spec.g[i], "g", static_cast<int>(i));
    }
  }
  return valid;
}

/// L040/L041: duplicate and non-canonical (unsorted) entries. Purely
/// syntactic, so it runs even on structurally invalid specs.
void canonicalization_pass(const ProblemSpec& spec,
                           std::vector<Diagnostic>& diags) {
  const auto check_list = [&](const std::vector<std::vector<std::int64_t>>&
                                  list,
                              const char* object, const char* what) {
    std::vector<std::vector<std::int64_t>> seen;
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (!std::is_sorted(list[i].begin(), list[i].end())) {
        add(diags, Code::kNonCanonicalConfig, Severity::kInfo,
            std::string(what) + " " + render_config(list[i], spec.outputs) +
                " is not in canonical (sorted) order",
            object, static_cast<int>(i));
      }
      auto sorted = list[i];
      std::sort(sorted.begin(), sorted.end());
      if (std::find(seen.begin(), seen.end(), sorted) != seen.end()) {
        add(diags, Code::kDuplicateConfig, Severity::kWarning,
            std::string("duplicate ") + what + " " +
                render_config(sorted, spec.outputs),
            object, static_cast<int>(i));
      }
      seen.push_back(std::move(sorted));
    }
  };
  check_list(spec.node_configs, "node_config", "node configuration");
  check_list(spec.edge_configs, "edge_config", "edge configuration");
  for (std::size_t i = 0; i < spec.g.size(); ++i) {
    auto sorted = spec.g[i];
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      add(diags, Code::kDuplicateConfig, Severity::kWarning,
          "duplicate entries in the g row of input label '" +
              (i < spec.inputs.size() ? spec.inputs[i]
                                      : "#" + std::to_string(i)) +
              "'",
          "g", static_cast<int>(i));
    }
  }
}

/// L010-L013, L020, L030 over the canonical spec; fills the pruned spec and
/// the label mappings in `report`.
void semantic_passes(const ProblemSpec& canonical, const LintOptions& options,
                     LintReport& report) {
  const std::size_t k = canonical.outputs.size();
  const auto& name_of = [&canonical](std::size_t l) {
    return canonical.outputs[l];
  };

  std::vector<char> live(k, 1);
  std::vector<char> node_alive(canonical.node_configs.size(), 1);
  std::vector<char> edge_alive(canonical.edge_configs.size(), 1);
  auto g_rows = canonical.g;

  // The support fixpoint (the automata-theoretic-lens pruning): a label
  // needs a surviving node configuration, a surviving edge partner, and an
  // input permitting it; configurations need all their labels alive.
  // Each sweep computes supports in parallel, then deletes, so a cascade
  // (killing a configuration starves another label) takes extra sweeps.
  while (true) {
    std::vector<char> in_node(k, 0);
    std::vector<char> in_edge(k, 0);
    std::vector<char> in_g(k, 0);
    for (std::size_t i = 0; i < canonical.node_configs.size(); ++i) {
      if (!node_alive[i]) continue;
      for (const auto raw : canonical.node_configs[i]) {
        in_node[static_cast<std::size_t>(raw)] = 1;
      }
    }
    for (std::size_t i = 0; i < canonical.edge_configs.size(); ++i) {
      if (!edge_alive[i]) continue;
      for (const auto raw : canonical.edge_configs[i]) {
        in_edge[static_cast<std::size_t>(raw)] = 1;
      }
    }
    for (const auto& row : g_rows) {
      for (const auto raw : row) in_g[static_cast<std::size_t>(raw)] = 1;
    }

    std::vector<char> died(k, 0);
    bool any_death = false;
    for (std::size_t l = 0; l < k; ++l) {
      if (!live[l] || (in_node[l] && in_edge[l] && in_g[l])) continue;
      std::vector<const char*> reasons;
      if (!in_node[l]) reasons.push_back("no node configuration uses it");
      if (!in_edge[l]) reasons.push_back("no edge configuration uses it");
      if (!in_g[l]) reasons.push_back("no input label permits it");
      std::string message = "dead output label '" + name_of(l) + "': ";
      for (std::size_t r = 0; r < reasons.size(); ++r) {
        if (r > 0) message += "; ";
        message += reasons[r];
      }
      message += " - it cannot occur in any correct solution";
      add(report.diagnostics, Code::kDeadLabel, Severity::kWarning,
          std::move(message), "output_label", static_cast<int>(l));
      live[l] = 0;
      died[l] = 1;
      any_death = true;
      ++report.dead_labels;
    }
    if (!any_death) break;
    ++report.fixpoint_iterations;

    const auto kill_configs = [&](const std::vector<std::vector<
                                      std::int64_t>>& list,
                                  std::vector<char>& alive,
                                  const char* object, const char* what) {
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (!alive[i]) continue;
        const bool vacuous = std::any_of(
            list[i].begin(), list[i].end(), [&died](std::int64_t raw) {
              return died[static_cast<std::size_t>(raw)] != 0;
            });
        if (!vacuous) continue;
        alive[i] = 0;
        add(report.diagnostics, Code::kVacuousConfig, Severity::kWarning,
            std::string("vacuous ") + what + " " +
                render_config(list[i], canonical.outputs) +
                ": mentions a dead label",
            object, static_cast<int>(i));
      }
    };
    kill_configs(canonical.node_configs, node_alive, "node_config",
                 "node configuration");
    kill_configs(canonical.edge_configs, edge_alive, "edge_config",
                 "edge configuration");
    for (auto& row : g_rows) {
      row.erase(std::remove_if(row.begin(), row.end(),
                               [&died](std::int64_t raw) {
                                 return died[static_cast<std::size_t>(
                                            raw)] != 0;
                               }),
                row.end());
    }
  }

  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    if (!g_rows[i].empty()) continue;
    const bool starved = !canonical.g[i].empty();
    add(report.diagnostics, Code::kStarvedInput, Severity::kWarning,
        "input label '" + canonical.inputs[i] +
            (starved ? "' permits only dead output labels"
                     : "' permits no output label") +
            " - any instance carrying it is unsolvable",
        "input_label", static_cast<int>(i));
  }
  for (int d = 1; d <= canonical.max_degree; ++d) {
    bool populated = false;
    for (std::size_t i = 0; i < canonical.node_configs.size(); ++i) {
      if (node_alive[i] &&
          canonical.node_configs[i].size() ==
              static_cast<std::size_t>(d)) {
        populated = true;
        break;
      }
    }
    if (!populated) {
      add(report.diagnostics, Code::kUnpopulatedDegree, Severity::kInfo,
          "no node configuration of degree " + std::to_string(d) +
              " survives - instances containing a degree-" +
              std::to_string(d) + " node are unsolvable",
          "problem", d);
    }
  }

  // Assemble the pruned, canonical spec and the label mappings.
  report.old_to_new.assign(k, LintReport::kDropped);
  for (std::size_t l = 0; l < k; ++l) {
    if (!live[l]) continue;
    report.old_to_new[l] = static_cast<Label>(report.new_to_old.size());
    report.new_to_old.push_back(static_cast<Label>(l));
  }
  ProblemSpec pruned;
  pruned.name = canonical.name;
  pruned.max_degree = canonical.max_degree;
  pruned.inputs = canonical.inputs;
  for (const auto l : report.new_to_old) pruned.outputs.push_back(name_of(l));
  const auto remap = [&report](const std::vector<std::int64_t>& config) {
    std::vector<std::int64_t> mapped;
    mapped.reserve(config.size());
    for (const auto raw : config) {
      mapped.push_back(static_cast<std::int64_t>(
          report.old_to_new[static_cast<std::size_t>(raw)]));
    }
    return mapped;
  };
  for (std::size_t i = 0; i < canonical.node_configs.size(); ++i) {
    if (node_alive[i]) {
      pruned.node_configs.push_back(remap(canonical.node_configs[i]));
    }
  }
  for (std::size_t i = 0; i < canonical.edge_configs.size(); ++i) {
    if (edge_alive[i]) {
      pruned.edge_configs.push_back(remap(canonical.edge_configs[i]));
    }
  }
  for (const auto& row : g_rows) pruned.g.push_back(remap(row));
  report.canonical = std::move(pruned);

  // L020: nothing survives => no correct solution on any graph with an
  // edge (every half-edge needs a label with full support).
  if (report.new_to_old.empty() || report.canonical.node_configs.empty() ||
      report.canonical.edge_configs.empty()) {
    std::string what =
        report.new_to_old.empty()        ? "no output label"
        : report.canonical.node_configs.empty() ? "no node configuration"
                                          : "no edge configuration";
    add(report.diagnostics, Code::kUnsolvable, Severity::kError,
        "trivially unsolvable: " + what +
            " survives pruning; no graph with at least one edge admits a "
            "correct solution",
        "problem");
    report.trivially_unsolvable = true;
    return;
  }

  // L030: a single label solving everything uniformly. Sufficient (never
  // necessary) for 0-round solvability: the constant map satisfies the
  // Theorem 3.10 `A_det` conditions outright.
  if (!options.zero_round) return;
  for (const auto l : report.new_to_old) {
    const auto raw = static_cast<std::int64_t>(l);
    bool edge_ok = false;
    for (std::size_t i = 0; i < canonical.edge_configs.size(); ++i) {
      if (edge_alive[i] &&
          canonical.edge_configs[i] ==
              std::vector<std::int64_t>{raw, raw}) {
        edge_ok = true;
        break;
      }
    }
    if (!edge_ok) continue;
    bool node_ok = true;
    for (int d = 1; d <= canonical.max_degree && node_ok; ++d) {
      const std::vector<std::int64_t> uniform(static_cast<std::size_t>(d),
                                              raw);
      bool found = false;
      for (std::size_t i = 0; i < canonical.node_configs.size(); ++i) {
        if (node_alive[i] && canonical.node_configs[i] == uniform) {
          found = true;
          break;
        }
      }
      node_ok = found;
    }
    if (!node_ok) continue;
    bool g_ok = true;
    for (const auto& row : g_rows) {
      g_ok = g_ok && std::find(row.begin(), row.end(), raw) != row.end();
    }
    if (!g_ok) continue;
    add(report.diagnostics, Code::kZeroRoundTrivial, Severity::kInfo,
        "0-round trivial: assigning '" + name_of(l) +
            "' on every half-edge satisfies all constraints",
        "output_label", static_cast<int>(l));
    report.zero_round_label = raw;
    break;
  }
}

/// L050/L052 over the pruned spec: compute the canonical label order, fold
/// the permutation into `report.canonical` and the evidence maps, and
/// report non-canonical order (L050) and nontrivial automorphisms (L052).
void canonical_pass(LintReport& report) {
  const CanonicalForm form = canonical_form(report.canonical);
  report.automorphism_order = form.automorphism_order;
  report.automorphism_order_saturated = form.automorphism_order_saturated;
  report.canonical_complete = form.complete;

  bool identity = true;
  for (std::size_t l = 0; l < form.old_to_new.size(); ++l) {
    identity = identity && form.old_to_new[l] == static_cast<Label>(l);
  }
  if (!identity) {
    std::string order;
    for (const auto& name : form.spec.outputs) {
      if (!order.empty()) order += ", ";
      order += name;
    }
    add(report.diagnostics, Code::kNonCanonicalLabels, Severity::kInfo,
        "labels are not in canonical order; the canonical order is [" +
            order + "] (--fix applies the permutation)",
        "problem");
  }
  if (form.complete && form.automorphism_order > 1 &&
      !form.automorphism_generator.empty()) {
    // Render the generator as the name mapping of its non-fixed points
    // (names are attached to the *pruned* spec's labels).
    std::string generator;
    for (std::size_t l = 0; l < form.automorphism_generator.size(); ++l) {
      const auto image = static_cast<std::size_t>(
          form.automorphism_generator[l]);
      if (image == l) continue;
      if (!generator.empty()) generator += ", ";
      generator += report.canonical.outputs[l] + "->" +
                   report.canonical.outputs[image];
    }
    add(report.diagnostics, Code::kLabelSymmetry, Severity::kInfo,
        "constraint system is closed under the nontrivial label "
        "automorphism {" +
            generator + "}; automorphism group order " +
            (form.automorphism_order_saturated
                 ? ">= " + std::to_string(form.automorphism_order)
                 : std::to_string(form.automorphism_order)),
        "problem");
  }

  // Compose the permutation into the analyzer's evidence discipline:
  // original -> pruned -> canonical.
  for (auto& mapped : report.old_to_new) {
    if (mapped != LintReport::kDropped) mapped = form.old_to_new[mapped];
  }
  std::vector<Label> new_to_old(report.new_to_old.size());
  for (std::size_t n = 0; n < new_to_old.size(); ++n) {
    new_to_old[n] = report.new_to_old[form.new_to_old[n]];
  }
  report.new_to_old = std::move(new_to_old);
  report.canonical = form.spec;
}

}  // namespace

std::string LintReport::to_text() const {
  std::ostringstream os;
  for (const auto& d : diagnostics) os << d.to_string() << '\n';
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t infos = 0;
  for (const auto& d : diagnostics) {
    switch (d.severity) {
      case Severity::kError:
        ++errors;
        break;
      case Severity::kWarning:
        ++warnings;
        break;
      case Severity::kInfo:
        ++infos;
        break;
    }
  }
  if (diagnostics.empty()) {
    os << "clean\n";
  } else {
    os << errors << " error(s), " << warnings << " warning(s), " << infos
       << " info(s)\n";
  }
  return os.str();
}

obs::json::Value LintReport::to_json_value() const {
  namespace json = obs::json;
  json::Value root = json::Value::make_object();
  root.object()["tool"] = json::Value(std::string("lcl_lint"));
  root.object()["version"] = json::Value(std::int64_t{1});

  json::Value diags = json::Value::make_array();
  std::int64_t errors = 0;
  std::int64_t warnings = 0;
  std::int64_t infos = 0;
  for (const auto& d : diagnostics) {
    json::Value obj = json::Value::make_object();
    obj.object()["code"] = json::Value(d.code);
    obj.object()["severity"] = json::Value(std::string(to_string(d.severity)));
    obj.object()["message"] = json::Value(d.message);
    if (!d.object.empty()) obj.object()["object"] = json::Value(d.object);
    if (d.index >= 0) {
      obj.object()["index"] = json::Value(static_cast<std::int64_t>(d.index));
    }
    diags.array().push_back(std::move(obj));
    switch (d.severity) {
      case Severity::kError:
        ++errors;
        break;
      case Severity::kWarning:
        ++warnings;
        break;
      case Severity::kInfo:
        ++infos;
        break;
    }
  }
  root.object()["diagnostics"] = std::move(diags);

  json::Value summary = json::Value::make_object();
  summary.object()["errors"] = json::Value(errors);
  summary.object()["warnings"] = json::Value(warnings);
  summary.object()["infos"] = json::Value(infos);
  summary.object()["exit_code"] =
      json::Value(static_cast<std::int64_t>(status()));
  root.object()["summary"] = std::move(summary);

  root.object()["structurally_valid"] = json::Value(structurally_valid);
  root.object()["trivially_unsolvable"] = json::Value(trivially_unsolvable);
  root.object()["zero_round_trivial"] = json::Value(zero_round_label >= 0);
  root.object()["dead_labels"] =
      json::Value(static_cast<std::int64_t>(dead_labels));
  root.object()["fixpoint_iterations"] =
      json::Value(static_cast<std::int64_t>(fixpoint_iterations));
  if (automorphism_order > 0) {
    // Rendered as a string: the order saturates at UINT64_MAX, past the
    // JSON dialect's signed-integer range.
    root.object()["automorphism_order"] =
        json::Value((automorphism_order_saturated ? ">=" : "") +
                    std::to_string(automorphism_order));
  }
  if (structurally_valid) {
    root.object()["canonical"] = spec_to_json_value(canonical);
  }
  return root;
}

std::string LintReport::to_json() const {
  return obs::json::dump(to_json_value());
}

LintReport lint_spec(const ProblemSpec& spec, const LintOptions& options) {
  LCL_OBS_SPAN(span, "lint/run", "lint");
  LCL_OBS_COUNTER_ADD("lint.runs", 1);
  LintReport report;
  report.structurally_valid = structural_pass(spec, report.diagnostics);
  canonicalization_pass(spec, report.diagnostics);
  if (report.structurally_valid) {
    semantic_passes(canonicalize(spec), options, report);
    if (options.canonical_labels && !report.trivially_unsolvable) {
      canonical_pass(report);
    }
  } else {
    report.canonical = canonicalize(spec);
  }
  LCL_OBS_COUNTER_ADD("lint.diagnostics", report.diagnostics.size());
  LCL_OBS_COUNTER_ADD("lint.dead_labels", report.dead_labels);
  LCL_OBS_SPAN_ARG(span, "diagnostics", report.diagnostics.size());
  return report;
}

LintReport lint_problem(const NodeEdgeCheckableLcl& problem,
                        const LintOptions& options) {
  return lint_spec(spec_from_problem(problem), options);
}

PrunedProblem prune_problem(const NodeEdgeCheckableLcl& problem,
                            const LintOptions& options) {
  PrunedProblem out;
  out.report = lint_problem(problem, options);
  if (out.report.structurally_valid && !out.report.trivially_unsolvable) {
    out.changed = out.report.dead_labels > 0;
    // With no dead label and no canonical relabeling, the canonical spec of
    // a built problem has exactly its constraints, names and order: keep
    // the problem itself, which shares its tables, instead of rebuilding it.
    const bool as_given = !out.changed && !options.canonical_labels;
    out.problem = as_given ? problem : build_spec(out.report.canonical);
  }
  return out;
}

}  // namespace lcl::lint
