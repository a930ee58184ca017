#include "fuzz/case_io.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "lint/spec.hpp"
#include "lint/spec_io.hpp"
#include "obs/json.hpp"

namespace lcl::fuzz {

namespace json = lcl::obs::json;

namespace {

[[noreturn]] void malformed(const std::string& what) {
  throw std::runtime_error("fuzz case: malformed JSON: " + what);
}

const json::Value& require(const json::Value& obj, const char* key) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) malformed(std::string("missing field '") + key + "'");
  return *v;
}

std::vector<Label> parse_labels(const json::Value& arr, std::size_t bound,
                                const char* context) {
  if (!arr.is_array()) malformed(std::string(context) + ": expected array");
  std::vector<Label> labels;
  labels.reserve(arr.as_array().size());
  for (const auto& v : arr.as_array()) {
    if (!v.is_number()) malformed(std::string(context) + ": expected number");
    const auto raw = v.as_int();
    if (raw < 0 || static_cast<std::size_t>(raw) >= bound) {
      malformed(std::string(context) + ": label " + std::to_string(raw) +
                " out of range [0, " + std::to_string(bound) + ")");
    }
    labels.push_back(static_cast<Label>(raw));
  }
  return labels;
}

Graph graph_from_value(const json::Value& obj) {
  if (!obj.is_object()) malformed("'graph' must be an object");
  const auto& nodes = require(obj, "nodes");
  const auto& edges = require(obj, "edges");
  if (!nodes.is_number() || nodes.as_int() < 0) malformed("'graph.nodes'");
  if (!edges.is_array()) malformed("'graph.edges': expected array");
  Graph::Builder builder(static_cast<std::size_t>(nodes.as_int()));
  for (const auto& e : edges.as_array()) {
    if (!e.is_array() || e.as_array().size() != 2 ||
        !e.as_array()[0].is_number() || !e.as_array()[1].is_number()) {
      malformed("graph edge must be [u, v]");
    }
    const auto u = e.as_array()[0].as_int();
    const auto v = e.as_array()[1].as_int();
    if (u < 0 || v < 0 || u >= nodes.as_int() || v >= nodes.as_int()) {
      malformed("graph edge endpoint out of range");
    }
    builder.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  return builder.build();
}

}  // namespace

std::string to_json(const FuzzCase& fuzz_case) {
  json::Value root = json::Value::make_object();
  root.object()["version"] = json::Value(std::int64_t{1});
  root.object()["oracle"] = json::Value(fuzz_case.oracle);
  root.object()["seed"] =
      json::Value(static_cast<std::int64_t>(fuzz_case.seed));
  root.object()["note"] = json::Value(fuzz_case.note);
  root.object()["family"] = json::Value(fuzz_case.family);
  root.object()["problem"] =
      lint::spec_to_json_value(lint::spec_from_problem(fuzz_case.problem));

  json::Value graph = json::Value::make_object();
  graph.object()["nodes"] =
      json::Value(static_cast<std::int64_t>(fuzz_case.graph.node_count()));
  json::Value edges = json::Value::make_array();
  for (EdgeId e = 0; e < fuzz_case.graph.edge_count(); ++e) {
    const auto [u, v] = fuzz_case.graph.endpoints(e);
    json::Value pair = json::Value::make_array();
    pair.array().push_back(json::Value(static_cast<std::int64_t>(u)));
    pair.array().push_back(json::Value(static_cast<std::int64_t>(v)));
    edges.array().push_back(std::move(pair));
  }
  graph.object()["edges"] = std::move(edges);
  root.object()["graph"] = std::move(graph);

  json::Value input = json::Value::make_array();
  for (const auto l : fuzz_case.input) {
    input.array().push_back(json::Value(static_cast<std::int64_t>(l)));
  }
  root.object()["input"] = std::move(input);
  return json::dump(root);
}

FuzzCase from_json(std::string_view text) {
  std::string error;
  const auto root = json::parse(text, &error);
  if (root == nullptr) malformed(error);
  if (!root->is_object()) malformed("top level must be an object");
  const auto& version = require(*root, "version");
  if (!version.is_number() || version.as_int() != 1) {
    malformed("unsupported version");
  }

  FuzzCase out;
  const auto& oracle = require(*root, "oracle");
  if (!oracle.is_string()) malformed("'oracle' must be a string");
  out.oracle = oracle.as_string();
  if (const auto* seed = root->find("seed"); seed && seed->is_number()) {
    out.seed = static_cast<std::uint64_t>(seed->as_int());
  }
  if (const auto* note = root->find("note"); note && note->is_string()) {
    out.note = note->as_string();
  }
  if (const auto* family = root->find("family");
      family && family->is_string()) {
    out.family = family->as_string();
  }
  // The problem object is the spec dialect of lint/spec_io.hpp; what
  // `build_spec` refuses (the L001 rules) is a malformed case.
  const auto spec = lint::spec_from_json_value(require(*root, "problem"));
  try {
    out.problem = lint::build_spec(spec);
  } catch (const std::logic_error& e) {
    malformed(std::string("'problem': ") + e.what());
  }
  out.graph = graph_from_value(require(*root, "graph"));
  out.input = parse_labels(require(*root, "input"),
                           out.problem.input_alphabet().size(), "input");
  if (out.input.size() != out.graph.half_edge_count()) {
    malformed("input labeling length != half-edge count");
  }
  if (out.graph.max_degree() > out.problem.max_degree()) {
    malformed("graph max degree exceeds problem max degree");
  }
  return out;
}

void save_case(const std::string& path, const FuzzCase& fuzz_case) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream file(p);
  if (!file) {
    throw std::runtime_error("fuzz case: cannot open '" + path +
                             "' for writing");
  }
  file << to_json(fuzz_case) << '\n';
  if (!file.good()) {
    throw std::runtime_error("fuzz case: write to '" + path + "' failed");
  }
}

FuzzCase load_case(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::runtime_error("fuzz case: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  try {
    return from_json(buffer.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " (file: " + path + ")");
  }
}

}  // namespace lcl::fuzz
