#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "batch/survey.hpp"

// Committed reference verdicts and the checks every workload runs against
// them. A failure is an error row, a missing row, or a verdict field that
// differs; a differing `note` is a message, not a verdict, so it is only
// counted as drift.
namespace lclbench {

struct Verdict {
  std::string landscape_class;
  int zero_round_step = -1;
  int steps_applied = 0;
  bool fixed_point = false;
  bool budget_exhausted = false;
  bool detected_unsolvable = false;
  std::string note;
};

/// Expected verdicts by member name.
using Reference = std::map<std::string, Verdict>;

/// Reads a reference TSV written by `tools/make_ref.py`. Throws
/// `std::runtime_error` on I/O or format errors.
Reference load_reference_tsv(const std::string& path);
/// Reads the rows of an `lclscape.survey.v3` report (e.g. a golden).
Reference load_survey_report(const std::string& path);

Verdict verdict_of(const lcl::batch::ProblemOutcome& outcome);

/// The engine fields: zero_round_step, steps_applied, fixed_point,
/// budget_exhausted and detected_unsolvable.
bool same_engine_fields(const Verdict& a, const Verdict& b);
/// `class` plus the engine fields.
bool same_verdict(const Verdict& a, const Verdict& b);

struct CheckResult {
  std::uint64_t checked = 0;
  std::uint64_t failed = 0;
  std::uint64_t note_drift = 0;
  std::vector<std::string> failures;  // the first few, for the log

  void fail(std::string what);
  CheckResult& operator+=(const CheckResult& other);
};

/// Checks every survey row against the reference (class and engine fields).
CheckResult check_survey(const std::vector<lcl::batch::ProblemOutcome>& rows,
                         const Reference& reference);

/// The engine fields of a `/v1/classify` response body, read by a key scan
/// (cheap enough to run inside the request loop). `std::nullopt` when a
/// field is missing or malformed.
std::optional<Verdict> verdict_from_response(std::string_view body);

}  // namespace lclbench
