#include "reference.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace lclbench {

namespace json = lcl::obs::json;

namespace {

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return fields;
    start = tab + 1;
  }
}

int to_int(const std::string& text, const std::string& where) {
  int value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    throw std::runtime_error("reference: bad integer '" + text + "' in " +
                             where);
  }
  return value;
}

bool to_flag(const std::string& text, const std::string& where) {
  if (text == "0") return false;
  if (text == "1") return true;
  throw std::runtime_error("reference: bad flag '" + text + "' in " + where);
}

/// The raw token after `"key":` up to the next ',' or '}'.
std::optional<std::string_view> token_after(std::string_view body,
                                            std::string_view key) {
  std::string pattern;
  pattern.reserve(key.size() + 3);
  pattern += '"';
  pattern += key;
  pattern += "\":";
  const std::size_t at = body.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t start = at + pattern.size();
  const std::size_t end = body.find_first_of(",}", start);
  if (end == std::string_view::npos) return std::nullopt;
  return body.substr(start, end - start);
}

}  // namespace

void CheckResult::fail(std::string what) {
  ++failed;
  if (failures.size() < 5) failures.push_back(std::move(what));
}

CheckResult& CheckResult::operator+=(const CheckResult& other) {
  checked += other.checked;
  failed += other.failed;
  note_drift += other.note_drift;
  for (const auto& what : other.failures) {
    if (failures.size() < 5) failures.push_back(what);
  }
  return *this;
}

Reference load_reference_tsv(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw std::runtime_error("reference: cannot read '" + path + "'");
  }
  Reference reference;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const std::string where = path + ":" + std::to_string(line_no);
    const auto f = split_tabs(line);
    if (f.size() != 8) {
      throw std::runtime_error("reference: expected 8 columns in " + where);
    }
    Verdict v;
    v.landscape_class = f[1];
    v.zero_round_step = to_int(f[2], where);
    v.steps_applied = to_int(f[3], where);
    v.fixed_point = to_flag(f[4], where);
    v.budget_exhausted = to_flag(f[5], where);
    v.detected_unsolvable = to_flag(f[6], where);
    v.note = f[7];
    if (!reference.emplace(f[0], std::move(v)).second) {
      throw std::runtime_error("reference: duplicate member in " + where);
    }
  }
  if (reference.empty()) {
    throw std::runtime_error("reference: no rows in '" + path + "'");
  }
  return reference;
}

Reference load_survey_report(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    throw std::runtime_error("reference: cannot read '" + path + "'");
  }
  std::stringstream text;
  text << in.rdbuf();
  std::string error;
  const auto doc = json::parse(text.str(), &error);
  const json::Value* rows = doc == nullptr ? nullptr : doc->find("problems");
  if (rows == nullptr || !rows->is_array()) {
    throw std::runtime_error("reference: '" + path +
                             "' is not a survey report " + error);
  }
  Reference reference;
  for (const auto& row : rows->as_array()) {
    const auto outcome = lcl::batch::outcome_from_json_value(row);
    reference.emplace(outcome.name, verdict_of(outcome));
  }
  return reference;
}

Verdict verdict_of(const lcl::batch::ProblemOutcome& o) {
  Verdict v;
  v.landscape_class = o.landscape_class;
  v.zero_round_step = o.zero_round_step;
  v.steps_applied = o.steps_applied;
  v.fixed_point = o.fixed_point;
  v.budget_exhausted = o.budget_exhausted;
  v.detected_unsolvable = o.detected_unsolvable;
  v.note = o.note;
  return v;
}

bool same_engine_fields(const Verdict& a, const Verdict& b) {
  return a.zero_round_step == b.zero_round_step &&
         a.steps_applied == b.steps_applied &&
         a.fixed_point == b.fixed_point &&
         a.budget_exhausted == b.budget_exhausted &&
         a.detected_unsolvable == b.detected_unsolvable;
}

bool same_verdict(const Verdict& a, const Verdict& b) {
  return a.landscape_class == b.landscape_class && same_engine_fields(a, b);
}

CheckResult check_survey(const std::vector<lcl::batch::ProblemOutcome>& rows,
                         const Reference& reference) {
  CheckResult result;
  for (const auto& row : rows) {
    ++result.checked;
    if (!row.error.empty()) {
      result.fail(row.name + ": error row: " + row.error);
      continue;
    }
    const auto expected = reference.find(row.name);
    if (expected == reference.end()) {
      result.fail(row.name + ": not in the reference");
      continue;
    }
    const Verdict got = verdict_of(row);
    if (!same_verdict(got, expected->second)) {
      result.fail(row.name + ": class " + got.landscape_class +
                  " zero_round_step " + std::to_string(got.zero_round_step) +
                  ", expected class " + expected->second.landscape_class +
                  " zero_round_step " +
                  std::to_string(expected->second.zero_round_step));
    } else if (got.note != expected->second.note) {
      ++result.note_drift;
    }
  }
  if (rows.size() != reference.size()) {
    result.fail("report has " + std::to_string(rows.size()) +
                " rows, reference " + std::to_string(reference.size()));
  }
  return result;
}

std::optional<Verdict> verdict_from_response(std::string_view body) {
  Verdict v;
  const auto read_int = [body](std::string_view key, int& out) {
    const auto token = token_after(body, key);
    if (!token.has_value()) return false;
    const auto [end, ec] =
        std::from_chars(token->data(), token->data() + token->size(), out);
    return ec == std::errc() && end == token->data() + token->size();
  };
  const auto read_bool = [body](std::string_view key, bool& out) {
    const auto token = token_after(body, key);
    if (!token.has_value() || (*token != "true" && *token != "false")) {
      return false;
    }
    out = *token == "true";
    return true;
  };
  if (read_int("zero_round_step", v.zero_round_step) &&
      read_int("steps_applied", v.steps_applied) &&
      read_bool("fixed_point", v.fixed_point) &&
      read_bool("budget_exhausted", v.budget_exhausted) &&
      read_bool("detected_unsolvable", v.detected_unsolvable)) {
    return v;
  }
  return std::nullopt;
}

}  // namespace lclbench
