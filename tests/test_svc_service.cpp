// The lcld application layer: routing, spec validation, verdict parity
// with SpeedupEngine::run, notes that name the requesting problem,
// per-request metrics and trace span, the
// canonical cache tier across permuted re-requests, per-request budget
// isolation, admission control, async surveys, and the spawned-daemon
// end-to-end contract (ephemeral port, the full API over real HTTP,
// SIGTERM drain exiting 0).

#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch/survey.hpp"
#include "gtest/gtest.h"
#include "lint/analyzer.hpp"
#include "lint/spec.hpp"
#include "lint/spec_io.hpp"
#include "obs/exporter.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "re/engine.hpp"
#include "svc/http.hpp"
#include "svc/service.hpp"

namespace lcl::svc {
namespace {

namespace json = lcl::obs::json;

// A problem whose constraint system is NOT invariant under the a<->b label
// swap, so the permuted copy below exercises the canonical tier (equal
// canonical signature, different raw signature).
constexpr const char* kAsymSpec = R"({
  "name": "asym", "max_degree": 2,
  "inputs": ["-"], "outputs": ["a", "b"],
  "node_configs": [[0], [0, 0], [0, 1]],
  "edge_configs": [[0, 0], [0, 1]],
  "g": [[0, 1]]
})";

// kAsymSpec with output labels 0<->1 swapped everywhere.
constexpr const char* kAsymPermutedSpec = R"({
  "name": "asym-permuted", "max_degree": 2,
  "inputs": ["-"], "outputs": ["a", "b"],
  "node_configs": [[1], [1, 1], [0, 1]],
  "edge_configs": [[1, 1], [0, 1]],
  "g": [[0, 1]]
})";

// Perfect matching on degree-2 nodes: solvable, nontrivial, cheap.
constexpr const char* kMatchingSpec = R"({
  "name": "mm", "max_degree": 2,
  "inputs": ["-"], "outputs": ["m", "u"],
  "node_configs": [[0], [1], [0, 1], [1, 1]],
  "edge_configs": [[0, 0], [0, 1], [1, 1]],
  "g": [[0, 1]]
})";

HttpRequest make_request(const std::string& method, const std::string& path,
                         const std::string& body = std::string()) {
  HttpRequest request;
  request.method = method;
  request.target = path;
  request.path = path;
  request.version = "HTTP/1.1";
  request.body = body;
  return request;
}

std::unique_ptr<json::Value> parse_json(const std::string& text) {
  std::string error;
  auto value = json::parse(text, &error);
  EXPECT_NE(value, nullptr) << error << " in: " << text;
  return value;
}

std::int64_t int_at(const json::Value& value, const char* key) {
  const json::Value* field = value.find(key);
  EXPECT_NE(field, nullptr) << "missing " << key;
  return field == nullptr ? -999 : field->as_int();
}

std::string string_at(const json::Value& value, const char* key) {
  const json::Value* field = value.find(key);
  EXPECT_NE(field, nullptr) << "missing " << key;
  return field == nullptr ? "" : field->as_string();
}

/// Turns runtime metrics on for one test and restores the previous state.
class MetricsOn {
 public:
  MetricsOn() : previous_(obs::metrics_enabled()) {
    obs::set_metrics_enabled(true);
  }
  ~MetricsOn() { obs::set_metrics_enabled(previous_); }

 private:
  bool previous_;
};

Service::Options small_options() {
  Service::Options options;
  options.jobs = 2;
  options.engine.max_steps = 4;
  return options;
}

TEST(SvcService, RoutesHealthzVersionAndUnknown) {
  Service service(small_options());
  EXPECT_EQ(service.handle(make_request("GET", "/healthz")).body, "ok\n");
  EXPECT_EQ(service.handle(make_request("POST", "/healthz")).status, 405);

  const HttpResponse version = service.handle(make_request("GET", "/version"));
  EXPECT_EQ(version.status, 200);
  const auto body = parse_json(version.body);
  EXPECT_EQ(string_at(*body, "tool"), "lcld");
  EXPECT_FALSE(string_at(*body, "git_sha").empty());
  EXPECT_FALSE(string_at(*body, "version").empty());

  const HttpResponse missing = service.handle(make_request("GET", "/v2/x"));
  EXPECT_EQ(missing.status, 404);
  const auto error = parse_json(missing.body);
  EXPECT_EQ(string_at(*error->find("error"), "code"), "not_found");
}

TEST(SvcService, ClassifyMatchesSpeedupEngineRun) {
  const MetricsOn metrics_on;
  Service service(small_options());
  // The service registers its request instruments when it is built.
  const obs::Histogram* classify_us =
      obs::registry().find_histogram("svc.request_us.classify");
  const obs::Counter* ok_responses =
      obs::registry().find_counter("svc.responses.200");
  ASSERT_NE(classify_us, nullptr);
  ASSERT_NE(ok_responses, nullptr);
  const std::uint64_t classifies_before = classify_us->count();
  const std::uint64_t oks_before = ok_responses->value();

  const std::string trace_path = testing::TempDir() + "lcl_svc_request.jsonl";
  HttpResponse response;
  {
    obs::TraceSession session(trace_path, obs::TraceFormat::kJsonl);
    obs::TraceSession* previous = obs::TraceSession::set_current(&session);
    response =
        service.handle(make_request("POST", "/v1/classify", kMatchingSpec));
    // The pool worker closes its batch/task span after the response is
    // ready; the session must outlive it.
    service.drain();
    obs::TraceSession::set_current(previous);
  }
  ASSERT_EQ(response.status, 200) << response.body;
  const auto body = parse_json(response.body);
  const json::Value* outcome = body->find("outcome");
  ASSERT_NE(outcome, nullptr);

  // The reference verdict, computed directly with the engine the service
  // rides on (same step budget, forest degrees).
  SpeedupEngine engine(lint::build_spec(lint::spec_from_json(kMatchingSpec)));
  SpeedupEngine::Options options;
  options.max_steps = 4;
  const SpeedupEngine::Outcome reference = engine.run(options);

  EXPECT_EQ(int_at(*outcome, "zero_round_step"), reference.zero_round_step);
  EXPECT_EQ(outcome->find("fixed_point")->as_bool(), reference.fixed_point);
  EXPECT_EQ(outcome->find("detected_unsolvable")->as_bool(),
            reference.detected_unsolvable);
  EXPECT_EQ(string_at(*body, "schema"), "lclscape.svc.v1");
  EXPECT_FALSE(string_at(*body, "run_id").empty());

  // The series are registered either way; they count, and the span is
  // written, only when telemetry is compiled in.
  const HttpResponse metrics = service.handle(make_request("GET", "/metrics"));
  EXPECT_NE(metrics.body.find("svc_request_us_classify_count"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("svc_responses_200_total"), std::string::npos);
  if (!obs::telemetry_compiled_in()) return;

  // The request ran under one svc/request span: route 0 is classify.
  std::ifstream trace_file(trace_path);
  const std::string trace_text((std::istreambuf_iterator<char>(trace_file)),
                               std::istreambuf_iterator<char>());
  obs::ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(obs::parse_trace(trace_text, &trace, &error)) << error;
  int request_spans = 0;
  for (const auto& record : trace.records) {
    if (record.kind != obs::TraceRecord::Kind::kSpan ||
        record.name != "svc/request") {
      continue;
    }
    ++request_spans;
    EXPECT_EQ(record.args.at("route"), 0);
    EXPECT_EQ(record.args.at("status"), 200);
  }
  EXPECT_EQ(request_spans, 1);

  // Its latency and status were recorded (the /metrics request above
  // counts as a second 200), and /metrics shows the sample.
  EXPECT_EQ(classify_us->count(), classifies_before + 1);
  EXPECT_EQ(ok_responses->value(), oks_before + 2);
  EXPECT_NE(service.handle(make_request("GET", "/metrics"))
                .body.find("svc_request_us_classify_count " +
                           std::to_string(classify_us->count())),
            std::string::npos);
}

TEST(SvcService, PermutedReRequestServedFromCanonicalTier) {
  Service service(small_options());
  const HttpResponse first =
      service.handle(make_request("POST", "/v1/classify", kAsymSpec));
  ASSERT_EQ(first.status, 200) << first.body;
  const auto first_body = parse_json(first.body);
  EXPECT_EQ(int_at(*first_body->find("cache"), "canonical_hits"), 0);

  const HttpResponse second =
      service.handle(make_request("POST", "/v1/classify", kAsymPermutedSpec));
  ASSERT_EQ(second.status, 200) << second.body;
  const auto second_body = parse_json(second.body);

  // Same label-permutation class: identical verdict, served through the
  // canonical tier instead of recomputed.
  EXPECT_EQ(string_at(*first_body->find("outcome"), "class"),
            string_at(*second_body->find("outcome"), "class"));
  EXPECT_EQ(string_at(*first_body->find("outcome"), "canonical_key"),
            string_at(*second_body->find("outcome"), "canonical_key"));
  EXPECT_GT(int_at(*second_body->find("cache"), "canonical_hits"), 0);

  // /metrics carries the same counter for scrapers.
  const HttpResponse metrics = service.handle(make_request("GET", "/metrics"));
  EXPECT_NE(metrics.body.find("svc_cache_canonical_hits"), std::string::npos);
}

TEST(SvcService, ClassifyNoteNamesTheRequester) {
  // Two members of one canonical class whose engine notes name an iterate
  // of the problem. The second request replays the first one's engine
  // verdict, and its note must name the second problem, not the first.
  batch::ExhaustiveFamilyOptions d2l3;
  d2l3.labels = 3;
  const auto family = batch::exhaustive_family(d2l3);
  const auto spec_named = [&family](const std::string& member,
                                    const std::string& name) {
    for (const auto& m : family.members) {
      if (m.name != member) continue;
      auto spec = lint::spec_from_problem(m.problem);
      spec.name = name;
      return lint::spec_to_json(spec);
    }
    ADD_FAILURE() << "no member " << member;
    return std::string();
  };

  Service service(small_options());
  const HttpResponse first = service.handle(make_request(
      "POST", "/v1/classify", spec_named("d2l3-n14-e17", "first")));
  ASSERT_EQ(first.status, 200) << first.body;
  const HttpResponse second = service.handle(make_request(
      "POST", "/v1/classify", spec_named("d2l3-n19-e12", "second")));
  ASSERT_EQ(second.status, 200) << second.body;

  const auto first_body = parse_json(first.body);
  const auto second_body = parse_json(second.body);
  const std::string first_note =
      string_at(*first_body->find("outcome"), "note");
  const std::string second_note =
      string_at(*second_body->find("outcome"), "note");
  EXPECT_EQ(string_at(*first_body->find("outcome"), "canonical_key"),
            string_at(*second_body->find("outcome"), "canonical_key"));
  EXPECT_GT(int_at(*second_body->find("cache"), "canonical_hits"), 0);
  EXPECT_NE(first_note.find("(first)"), std::string::npos) << first_note;
  EXPECT_NE(second_note.find("(second)"), std::string::npos) << second_note;
  EXPECT_EQ(second_note.find("first"), std::string::npos) << second_note;
}

TEST(SvcService, BudgetExceededFailsOnlyThatRequest) {
  Service service(small_options());
  // A cross-check on a 10-node path with a 1-step budget cannot finish:
  // the row records StepBudgetExceeded, the response maps it to 422.
  const std::string body = std::string(R"({"problem": )") + kMatchingSpec +
                           R"(, "options": {"check_nodes": 10,
                              "check_budget": 1}})";
  const HttpResponse blown =
      service.handle(make_request("POST", "/v1/classify", body));
  EXPECT_EQ(blown.status, 422) << blown.body;
  const auto blown_body = parse_json(blown.body);
  const json::Value* error = blown_body->find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(string_at(*error, "code"), "step_budget_exceeded");
  EXPECT_EQ(int_at(*error->find("detail"), "budget"), 1);

  // The daemon is unharmed: the same problem under the default budget
  // resolves cleanly right after.
  const HttpResponse clean =
      service.handle(make_request("POST", "/v1/classify", kMatchingSpec));
  EXPECT_EQ(clean.status, 200) << clean.body;
}

TEST(SvcService, InvalidSpecAndBadJsonAreStructuredErrors) {
  Service service(small_options());

  const HttpResponse bad_json =
      service.handle(make_request("POST", "/v1/classify", "{nope"));
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_EQ(string_at(*parse_json(bad_json.body)->find("error"), "code"),
            "bad_request");

  // Structurally broken: a node configuration referencing output label 9.
  const HttpResponse invalid = service.handle(make_request(
      "POST", "/v1/classify",
      R"({"name":"bad","max_degree":2,"inputs":["-"],"outputs":["a"],
          "node_configs":[[9]],"edge_configs":[[0,0]],"g":[[0]]})"));
  EXPECT_EQ(invalid.status, 422);
  const auto invalid_body = parse_json(invalid.body);
  EXPECT_EQ(string_at(*invalid_body->find("error"), "code"), "invalid_spec");
  // The lint report rides along as the error detail.
  EXPECT_NE(invalid_body->find("error")->find("lint"), nullptr);
}

TEST(SvcService, EveryL001ClassAnswers422AndOtherBuildErrors400) {
  Service service(small_options());
  // One spec per class of structural (L001) error, each a variant of a
  // one-label degree-2 problem.
  const auto spec = [](const std::string& max_degree,
                       const std::string& outputs, const std::string& nodes,
                       const std::string& edges, const std::string& g) {
    return R"({"name":"bad","max_degree":)" + max_degree +
           R"(,"inputs":["-"],"outputs":)" + outputs +
           R"(,"node_configs":)" + nodes + R"(,"edge_configs":)" + edges +
           R"(,"g":)" + g + "}";
  };
  const std::vector<std::pair<const char*, std::string>> structural = {
      {"output label 9 of 1",
       spec("2", R"(["a"])", "[[9]]", "[[0,0]]", "[[0]]")},
      {"label 2^32",
       spec("2", R"(["a"])", "[[4294967296]]", "[[0,0]]", "[[0]]")},
      {"duplicate output name",
       spec("2", R"(["a","a"])", "[[0]]", "[[0,0]]", "[[0]]")},
      {"node arity 3 at degree 2",
       spec("2", R"(["a"])", "[[0,0,0]]", "[[0,0]]", "[[0]]")},
      {"edge arity 1", spec("2", R"(["a"])", "[[0]]", "[[0]]", "[[0]]")},
      {"missing g row", spec("2", R"(["a"])", "[[0]]", "[[0,0]]", "[]")},
      {"max_degree 0", spec("0", R"(["a"])", "[[0]]", "[[0,0]]", "[[0]]")},
  };
  // The same spec under every route that builds one; the survey takes it
  // as a one-spec family.
  const auto post_everywhere = [&service](const std::string& body) {
    return std::vector<HttpResponse>{
        service.handle(make_request("POST", "/v1/classify", body)),
        service.handle(make_request("POST", "/v1/synthesize", body)),
        service.handle(make_request("POST", "/v1/survey",
                                    R"({"problems":[)" + body + "]}"))};
  };
  for (const auto& [what, text] : structural) {
    SCOPED_TRACE(what);
    // The body carries lint's whole report, as `error.lint`.
    json::Value lint_report =
        lint::lint_spec(lint::spec_from_json(text)).to_json_value();
    ASSERT_FALSE(lint_report.find("structurally_valid")->as_bool());
    for (const HttpResponse& response : post_everywhere(text)) {
      EXPECT_EQ(response.status, 422) << response.body;
      const auto body = parse_json(response.body);
      ASSERT_NE(body->find("run_id"), nullptr) << response.body;
      json::Value error = json::Value::make_object();
      error.object()["code"] = json::Value(std::string("invalid_spec"));
      error.object()["message"] =
          json::Value(std::string("spec has structural lint errors"));
      error.object()["lint"] = lint_report;
      json::Value expected = json::Value::make_object();
      expected.object()["error"] = std::move(error);
      expected.object()["run_id"] = *body->find("run_id");
      EXPECT_EQ(response.body, json::dump(expected));
    }
  }

  // Structurally valid, but the builder refuses it: the build error is a
  // plain 400.
  const std::string edgeless = spec("2", R"(["a"])", "[[0]]", "[]", "[[0]]");
  for (const HttpResponse& response : post_everywhere(edgeless)) {
    EXPECT_EQ(response.status, 400) << response.body;
    EXPECT_EQ(response.body,
              R"({"error":{"code":"bad_request","message":)"
              R"("Builder::build: no edge configuration added"}})");
  }
}

TEST(SvcService, LintEndpointReturnsFullReport) {
  Service service(small_options());
  const HttpResponse response =
      service.handle(make_request("POST", "/v1/lint", kAsymSpec));
  ASSERT_EQ(response.status, 200) << response.body;
  const auto body = parse_json(response.body);
  const json::Value* lint = body->find("lint");
  ASSERT_NE(lint, nullptr);
  EXPECT_NE(lint->find("diagnostics"), nullptr);
}

TEST(SvcService, SynthesizeReportsRadiusForSolvableProblem) {
  Service service(small_options());
  const HttpResponse response =
      service.handle(make_request("POST", "/v1/synthesize", kMatchingSpec));
  ASSERT_EQ(response.status, 200) << response.body;
  const auto body = parse_json(response.body);
  ASSERT_TRUE(body->find("found")->as_bool()) << response.body;
  // The synthesized algorithm's radius is the 0-round step index
  // (Theorem 3.10's k).
  EXPECT_EQ(int_at(*body, "radius"), int_at(*body, "zero_round_step"));
}

TEST(SvcService, SurveyRunsAsyncAndAdmissionControlRejectsBeyondCap) {
  Service::Options options = small_options();
  options.max_inflight = 1;
  Service service(options);

  // 300 members: long enough that the slot is still held right after the
  // 202 comes back, even on a loaded machine, short enough for a test.
  const HttpResponse accepted = service.handle(make_request(
      "POST", "/v1/survey",
      R"({"family":{"kind":"exhaustive","max_degree":2,"labels":3,
                    "max_problems":300},
          "options":{"max_steps":2}})"));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const std::string id = string_at(*parse_json(accepted.body), "survey_id");
  ASSERT_FALSE(id.empty());

  // The survey holds the only admission slot; a compute request bounces.
  const HttpResponse rejected =
      service.handle(make_request("POST", "/v1/classify", kMatchingSpec));
  EXPECT_EQ(rejected.status, 429) << rejected.body;
  EXPECT_EQ(string_at(*parse_json(rejected.body)->find("error"), "code"),
            "overloaded");

  // Poll until done; the report is the standard survey schema.
  for (int i = 0; i < 600; ++i) {
    const HttpResponse status =
        service.handle(make_request("GET", "/v1/survey/" + id));
    ASSERT_EQ(status.status, 200) << status.body;
    const auto body = parse_json(status.body);
    if (string_at(*body, "status") == "done") {
      const json::Value* report = body->find("report");
      ASSERT_NE(report, nullptr);
      EXPECT_EQ(string_at(*report, "schema"), "lclscape.survey.v3");
      EXPECT_EQ(int_at(*report->find("survey"), "problems"), 300);

      // Slot released: compute requests are admitted again.
      const HttpResponse after =
          service.handle(make_request("POST", "/v1/classify", kMatchingSpec));
      EXPECT_EQ(after.status, 200) << after.body;
      return;
    }
    EXPECT_EQ(string_at(*body, "status"), "running");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  FAIL() << "survey did not finish";
}

TEST(SvcService, ShardedSurveyEchoesItsManifest) {
  Service service(small_options());
  const HttpResponse accepted = service.handle(make_request(
      "POST", "/v1/survey",
      R"({"family":{"kind":"exhaustive","max_degree":2,"labels":2},
          "shard":{"index":1,"count":4},
          "options":{"max_steps":2}})"));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const auto posted = parse_json(accepted.body);
  const std::string id = string_at(*posted, "survey_id");

  // The 202 and every GET carry the lclscape.shards.v1 manifest: this
  // shard's slice of the 49-member family, identified by index/count.
  const json::Value* manifest = posted->find("shard");
  ASSERT_NE(manifest, nullptr) << accepted.body;
  EXPECT_EQ(string_at(*manifest, "schema"), "lclscape.shards.v1");
  EXPECT_EQ(int_at(*manifest->find("shard"), "index"), 1);
  EXPECT_EQ(int_at(*manifest->find("shard"), "count"), 4);
  EXPECT_EQ(int_at(*manifest, "members_total"), 49);
  const std::size_t shard_members =
      manifest->find("members")->as_array().size();
  EXPECT_GT(shard_members, 0u);
  EXPECT_LT(shard_members, 49u);
  EXPECT_EQ(int_at(*posted, "problems"),
            static_cast<std::int64_t>(shard_members));

  for (int i = 0; i < 600; ++i) {
    const HttpResponse status =
        service.handle(make_request("GET", "/v1/survey/" + id));
    ASSERT_EQ(status.status, 200) << status.body;
    const auto body = parse_json(status.body);
    const json::Value* echoed = body->find("shard");
    ASSERT_NE(echoed, nullptr) << status.body;
    EXPECT_EQ(int_at(*echoed->find("shard"), "index"), 1);
    if (string_at(*body, "status") == "done") {
      const json::Value* report = body->find("report");
      ASSERT_NE(report, nullptr);
      EXPECT_EQ(int_at(*report->find("survey"), "problems"),
                static_cast<std::int64_t>(shard_members));
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  FAIL() << "sharded survey did not finish";
}

TEST(SvcService, SurveyRejectsMalformedShardBlocks) {
  Service service(small_options());
  for (const char* body :
       {R"({"family":{"kind":"exhaustive"},"shard":42})",
        R"({"family":{"kind":"exhaustive"},"shard":{"index":4,"count":4}})",
        R"({"family":{"kind":"exhaustive"},"shard":{"index":0,"count":0}})",
        R"({"family":{"kind":"exhaustive"},"shard":{"count":2}})"}) {
    const HttpResponse response =
        service.handle(make_request("POST", "/v1/survey", body));
    EXPECT_EQ(response.status, 400) << body << " -> " << response.body;
  }
}

TEST(SvcService, UnknownSurveyIdIs404) {
  Service service(small_options());
  EXPECT_EQ(service.handle(make_request("GET", "/v1/survey/nope")).status,
            404);
}

TEST(SvcService, ConcurrentClassifiesWithMetricsScrapesDoNotStall) {
  Service::Options options = small_options();
  options.jobs = 4;
  options.max_inflight = 16;
  Service service(options);

  std::atomic<bool> stop{false};
  std::atomic<bool> scraping{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&service, &stop, &scraping, &scrapes]() {
    while (!stop.load()) {
      scraping.store(true);
      const HttpResponse metrics =
          service.handle(make_request("GET", "/metrics"));
      if (metrics.status == 200) scrapes.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // The classifies start once the first scrape has, so the two overlap
  // however late the scheduler runs the scraper.
  while (!scraping.load()) std::this_thread::yield();

  constexpr int kThreads = 4;
  constexpr int kRequests = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&service, &ok]() {
      for (int i = 0; i < kRequests; ++i) {
        const HttpResponse response = service.handle(
            make_request("POST", "/v1/classify", kMatchingSpec));
        // Warm-cache classifies may still bounce off max_inflight under
        // load; both outcomes are healthy, a stall is not.
        if (response.status == 200 || response.status == 429) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  stop.store(true);
  scraper.join();
  EXPECT_EQ(ok.load(), kThreads * kRequests);
  EXPECT_GT(scrapes.load(), 0);
}

#ifdef LCL_LCLD_PATH

/// Spawns the real daemon on an ephemeral port, talks to it over real
/// HTTP, and SIGTERMs it: the full deployment contract in one test.
TEST(SvcDaemonE2E, ClassifyTwiceCanonicalHitThenGracefulDrain) {
  const std::string dir = testing::TempDir() + "lcld_e2e";
  const std::string port_file = dir + "/port.txt";
  std::filesystem::create_directories(dir);
  std::filesystem::remove(port_file);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const std::string port_arg = "--port-file=" + port_file;
    const std::string cache_arg = "--cache-dir=" + dir;
    execl(LCL_LCLD_PATH, "lcld", "--port=0", port_arg.c_str(),
          cache_arg.c_str(), "--jobs=2", static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  // Wait for the daemon to publish its bound port.
  std::uint16_t port = 0;
  for (int i = 0; i < 200 && port == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    std::ifstream in(port_file);
    unsigned value = 0;
    if (in >> value && value != 0) port = static_cast<std::uint16_t>(value);
  }
  ASSERT_NE(port, 0) << "daemon never wrote " << port_file;

  const auto health = http_request("127.0.0.1", port, "GET", "/healthz");
  EXPECT_EQ(health.status, 200);

  const auto first =
      http_request("127.0.0.1", port, "POST", "/v1/classify", kAsymSpec);
  ASSERT_EQ(first.status, 200) << first.body;
  const auto second = http_request("127.0.0.1", port, "POST", "/v1/classify",
                                   kAsymPermutedSpec);
  ASSERT_EQ(second.status, 200) << second.body;

  const auto first_body = parse_json(first.body);
  const auto second_body = parse_json(second.body);
  EXPECT_EQ(string_at(*first_body->find("outcome"), "class"),
            string_at(*second_body->find("outcome"), "class"));
  EXPECT_GT(int_at(*second_body->find("cache"), "canonical_hits"), 0);

  // Graceful drain: SIGTERM, exit code 0.
  ASSERT_EQ(kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

#endif  // LCL_LCLD_PATH

}  // namespace
}  // namespace lcl::svc
