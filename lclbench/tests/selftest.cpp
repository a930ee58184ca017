// Self-test of the benchmark's reference checks: a real survey checked
// against the untouched reference gives zero failed operations, and against
// a reference with one flipped verdict exactly one. The same holds for the
// lcld response check against the Delta=3 l=2 golden.
//
//   lclbench_selftest <ref-dir> <tests/golden/survey-d3-l2.json>

#include <iostream>
#include <string>

#include "batch/cache.hpp"
#include "batch/survey.hpp"
#include "reference.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

lcl::batch::SurveyReport survey(int max_degree, std::size_t labels) {
  lcl::batch::ExhaustiveFamilyOptions family;
  family.max_degree = max_degree;
  family.labels = labels;
  lcl::batch::Cache::Options cache_options;
  cache_options.canonical_tier = true;
  lcl::batch::Cache cache(cache_options);
  lcl::batch::SurveyOptions options;
  options.engine.max_steps = 3;
  options.cache = &cache;
  return lcl::batch::run_survey(lcl::batch::exhaustive_family(family),
                                options);
}

/// One response body in the shape `/v1/classify` renders, built from a row.
std::string response_body(const lcl::batch::ProblemOutcome& outcome) {
  namespace json = lcl::obs::json;
  json::Value root = json::Value::make_object();
  root.object()["outcome"] = lcl::batch::outcome_to_json_value(outcome);
  return json::dump(root);
}

/// A real survey against its untouched reference, then against one flipped
/// engine field of `flip` and one flipped class of `flip_class`.
void check_survey_reference(const std::string& ref_dir, int max_degree,
                            std::size_t labels, const std::string& flip,
                            const std::string& flip_class) {
  const std::string name =
      "survey-d" + std::to_string(max_degree) + "l" + std::to_string(labels);
  const lcl::batch::SurveyReport report = survey(max_degree, labels);
  lclbench::Reference reference =
      lclbench::load_reference_tsv(ref_dir + "/" + name + ".tsv");
  const auto clean = lclbench::check_survey(report.outcomes, reference);
  expect(clean.checked == report.outcomes.size() && clean.failed == 0,
         name + " against its reference: 0 failed of " +
             std::to_string(clean.checked));

  reference.at(flip).zero_round_step += 1;
  const auto flipped = lclbench::check_survey(report.outcomes, reference);
  expect(flipped.failed == 1, name + ", one flipped engine field: " +
                                  std::to_string(flipped.failed) + " failed");

  reference.at(flip).zero_round_step -= 1;
  reference.at(flip_class).landscape_class = "Theta(n)";
  const auto flipped_class = lclbench::check_survey(report.outcomes, reference);
  expect(flipped_class.failed == 1,
         name + ", one flipped class: " +
             std::to_string(flipped_class.failed) + " failed");
}

void check_lcld_reference(const std::string& golden_path) {
  const lcl::batch::SurveyReport report = survey(3, 2);
  lclbench::Reference golden = lclbench::load_survey_report(golden_path);
  const auto count_failed = [&]() {
    int failed = 0;
    for (const auto& outcome : report.outcomes) {
      const auto got =
          lclbench::verdict_from_response(response_body(outcome));
      if (!got.has_value() ||
          !lclbench::same_engine_fields(*got, golden.at(outcome.name))) {
        ++failed;
      }
    }
    return failed;
  };
  expect(count_failed() == 0, "Delta=3 l=2 responses against the golden");
  golden.at(report.outcomes.front().name).fixed_point ^= true;
  const int failed = count_failed();
  expect(failed == 1, "one flipped golden verdict: " + std::to_string(failed) +
                          " failed");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: lclbench_selftest <ref-dir> <golden.json>\n";
    return 2;
  }
  try {
    check_survey_reference(argv[1], 2, 2, "d2l2-n2-e2", "d2l2-n1-e1");
    check_survey_reference(argv[1], 2, 3, "d2l3-n19-e12", "d2l3-n1-e1");
    check_lcld_reference(argv[2]);
  } catch (const std::exception& e) {
    std::cerr << "lclbench_selftest: " << e.what() << "\n";
    return 1;
  }
  return g_failures == 0 ? 0 : 1;
}
