#include "svc/service.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "batch/shard.hpp"
#include "batch/survey.hpp"
#include "core/brute_force.hpp"
#include "lint/analyzer.hpp"
#include "lint/spec_io.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/prom.hpp"
#include "obs/run_context.hpp"
#include "util/version.hpp"

namespace lcl::svc {

namespace json = lcl::obs::json;

namespace {

constexpr const char* kSchema = "lclscape.svc.v1";

json::Value int_value(std::uint64_t v) {
  return json::Value(static_cast<std::int64_t>(v));
}

/// The structured error body every non-2xx /v1 response carries:
/// {"error":{"code":..,"message":..[,"budget":N][,"lint":<report>]},
///  "run_id":..}. `code` is the machine-stable field; `message` is for
/// humans.
HttpResponse error_response(int status, const std::string& code,
                            const std::string& message,
                            const std::string& run_id = std::string(),
                            json::Value* detail = nullptr,
                            const char* detail_key = "detail") {
  json::Value root = json::Value::make_object();
  json::Value error = json::Value::make_object();
  error.object()["code"] = json::Value(code);
  error.object()["message"] = json::Value(message);
  if (detail != nullptr) error.object()[detail_key] = std::move(*detail);
  root.object()["error"] = std::move(error);
  if (!run_id.empty()) root.object()["run_id"] = json::Value(run_id);
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = json::dump(root);
  return response;
}

HttpResponse json_response(json::Value value, int status = 200) {
  HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = json::dump(value);
  return response;
}

/// Counts admitted compute requests; construction fails (ok() == false)
/// beyond the cap, releasing nothing. The slot is held until destruction -
/// for async surveys the slot is moved into the job and released when the
/// pool task finishes.
class AdmissionSlot {
 public:
  AdmissionSlot(std::atomic<std::size_t>& inflight, std::size_t cap)
      : inflight_(&inflight) {
    std::size_t current = inflight.load(std::memory_order_relaxed);
    while (current < cap) {
      if (inflight.compare_exchange_weak(current, current + 1,
                                         std::memory_order_acq_rel)) {
        ok_ = true;
        return;
      }
    }
  }
  ~AdmissionSlot() { release(); }

  AdmissionSlot(AdmissionSlot&& other) noexcept
      : inflight_(other.inflight_), ok_(other.ok_) {
    other.ok_ = false;
  }
  AdmissionSlot(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(const AdmissionSlot&) = delete;
  AdmissionSlot& operator=(AdmissionSlot&&) = delete;

  bool ok() const noexcept { return ok_; }
  void release() noexcept {
    if (ok_) {
      inflight_->fetch_sub(1, std::memory_order_acq_rel);
      ok_ = false;
    }
  }

 private:
  std::atomic<std::size_t>* inflight_;
  bool ok_ = false;
};

/// What a compute request may tune, parsed from the body's "options"
/// member and clamped to the service ceilings (a request can tighten a
/// budget, never widen it past the daemon's configuration).
struct RequestOptions {
  SpeedupEngine::Options engine;
  std::size_t check_nodes = 0;
  std::uint64_t check_budget = 0;
  bool classify_cycles = true;
  bool classify_paths = true;
};

RequestOptions parse_request_options(const json::Value* options_json,
                                     const Service::Options& service) {
  RequestOptions out;
  out.engine = service.engine;
  out.check_budget = service.check_budget_ceiling;
  if (options_json == nullptr) return out;
  if (!options_json->is_object()) {
    throw std::runtime_error("\"options\" must be an object");
  }
  const auto clamp_u64 = [options_json](const char* key, std::uint64_t ceiling,
                                        std::uint64_t fallback) {
    const json::Value* v = options_json->find(key);
    if (v == nullptr) return fallback;
    if (!v->is_number() || v->as_int() < 0) {
      throw std::runtime_error(std::string("\"options.") + key +
                               "\" must be a non-negative number");
    }
    return std::min<std::uint64_t>(static_cast<std::uint64_t>(v->as_int()),
                                   ceiling);
  };
  out.engine.max_steps = static_cast<int>(
      clamp_u64("max_steps", static_cast<std::uint64_t>(service.engine.max_steps),
                static_cast<std::uint64_t>(service.engine.max_steps)));
  out.engine.limits.max_labels = static_cast<std::size_t>(
      clamp_u64("max_labels", service.engine.limits.max_labels,
                service.engine.limits.max_labels));
  out.engine.limits.max_configs =
      clamp_u64("max_configs", service.engine.limits.max_configs,
                service.engine.limits.max_configs);
  out.check_nodes = static_cast<std::size_t>(
      clamp_u64("check_nodes", service.check_nodes_ceiling, 0));
  out.check_budget = clamp_u64("check_budget", service.check_budget_ceiling,
                               service.check_budget_ceiling);
  if (const json::Value* degrees = options_json->find("degrees");
      degrees != nullptr) {
    if (!degrees->is_array()) {
      throw std::runtime_error("\"options.degrees\" must be an array");
    }
    out.engine.degrees.clear();
    for (const auto& d : degrees->as_array()) {
      if (!d.is_number() || d.as_int() < 1 || d.as_int() > 16) {
        throw std::runtime_error(
            "\"options.degrees\" entries must be integers in 1..16");
      }
      out.engine.degrees.push_back(static_cast<int>(d.as_int()));
    }
  }
  const auto read_bool = [options_json](const char* key, bool fallback) {
    const json::Value* v = options_json->find(key);
    if (v == nullptr) return fallback;
    if (!v->is_bool()) {
      throw std::runtime_error(std::string("\"options.") + key +
                               "\" must be a boolean");
    }
    return v->as_bool();
  };
  out.classify_cycles = read_bool("classify_cycles", true);
  out.classify_paths = read_bool("classify_paths", true);
  return out;
}

/// Parses the request body: JSON document with the spec either bare or
/// under "problem" (the dialect `spec_from_json` accepts), plus the
/// optional "options" sibling. Throws std::runtime_error with a
/// user-facing message on any shape problem.
struct ParsedBody {
  lint::ProblemSpec spec;
  RequestOptions options;
  std::string name;  // spec name or "problem"
};

ParsedBody parse_body(const std::string& body,
                      const Service::Options& service) {
  std::string error;
  const auto doc = json::parse(body, &error);
  if (doc == nullptr) {
    throw std::runtime_error("request body is not JSON: " + error);
  }
  ParsedBody out;
  out.spec = lint::spec_from_json_value(
      doc->is_object() && doc->find("problem") != nullptr ? *doc->find("problem")
                                                          : *doc);
  out.options = parse_request_options(doc->find("options"), service);
  out.name = out.spec.name.empty() ? "problem" : out.spec.name;
  return out;
}

/// Builds the spec. When `build_spec` refuses it, throws a pre-rendered
/// 422 HttpResponse (as a simple control-flow carrier inside this TU) if
/// lint finds structural errors, and rethrows the build error otherwise.
struct SpecRejected {
  HttpResponse response;
};

NodeEdgeCheckableLcl build_checked(const lint::ProblemSpec& spec,
                                   const std::string& run_id) {
  try {
    return lint::build_spec(spec);
  } catch (const std::exception&) {
    // `build_spec` refuses every spec lint's L001 refuses, so only a
    // refused spec needs the lint report for its 422 body.
    const lint::LintReport report = lint::lint_spec(spec);
    if (report.structurally_valid) throw;
    json::Value detail = report.to_json_value();
    throw SpecRejected{error_response(422, "invalid_spec",
                                      "spec has structural lint errors",
                                      run_id, &detail, "lint")};
  }
}

/// Route names (the `svc.request_us.<route>` suffix) and the method each
/// route accepts, in `Service::Route` order.
struct RouteInfo {
  const char* name;
  const char* method;
};
constexpr RouteInfo kRoutes[] = {
    {"classify", "POST"}, {"lint", "POST"},       {"synthesize", "POST"},
    {"survey", "POST"},   {"survey_get", "GET"},  {"healthz", "GET"},
    {"metrics", "GET"},   {"version", "GET"},     {"other", nullptr},
};

/// The statuses `Service::handle` answers with; each has its own
/// `svc.responses.<status>` counter, anything else counts as `other`.
constexpr int kStatuses[] = {200, 202, 400, 404, 405, 422, 429, 500};

constexpr std::string_view kSurveyPrefix = "/v1/survey/";

json::Value cache_stats_json(const batch::Cache& cache) {
  const batch::CacheStats stats = cache.stats();
  json::Value value = json::Value::make_object();
  auto& object = value.object();
  object["hits"] = int_value(stats.hits);
  object["misses"] = int_value(stats.misses);
  object["insertions"] = int_value(stats.insertions);
  object["canonical_hits"] = int_value(stats.canonical_hits);
  object["disk_loaded"] = int_value(stats.disk_loaded);
  return value;
}

}  // namespace

enum class Service::Route : std::uint8_t {
  kClassify,
  kLint,
  kSynthesize,
  kSurvey,
  kSurveyGet,
  kHealthz,
  kMetrics,
  kVersion,
  kOther,
};

/// One async /v1/survey job. The RunContext outlives the pool task (the
/// job is shared_ptr-held by the map and the task), so GET can render
/// progress while the survey runs.
struct Service::SurveyJob {
  explicit SurveyJob(std::string run_id)
      : run(std::move(run_id), "svc") {}

  obs::RunContext run;
  std::mutex mutex;
  bool done = false;
  std::string error;       // task-level failure (empty = clean)
  std::string report_json;  // the survey report, serialized once
  /// Set when the request carried a "shard" block: the job's
  /// `lclscape.shards.v1` manifest, echoed by every GET (a client driving
  /// N sharded survey jobs merges their reports with the same manifests
  /// the CLI path uses).
  bool sharded = false;
  obs::json::Value shard_manifest;
};

Service::Service(Options options)
    : options_(std::move(options)),
      cache_([this]() {
        batch::Cache::Options cache_options;
        cache_options.capacity = options_.cache_capacity;
        cache_options.disk_path = options_.cache_path;
        cache_options.load_existing = options_.cache_resume;
        // The canonical tier is the service's warm path: a re-request under
        // any output-label permutation resolves as a confirmed canonical
        // hit instead of a recompute.
        cache_options.canonical_tier = true;
        return cache_options;
      }()),
      pool_(batch::Pool::Options{options_.jobs}) {
  auto& registry = obs::registry();
  for (const RouteInfo& route : kRoutes) {
    request_us_.push_back(
        &registry.histogram(std::string("svc.request_us.") + route.name));
  }
  for (const int status : kStatuses) {
    responses_.push_back(
        &registry.counter("svc.responses." + std::to_string(status)));
  }
  responses_.push_back(&registry.counter("svc.responses.other"));
}

Service::~Service() { drain(); }

void Service::drain() { pool_.wait_idle(); }

std::string Service::next_run_id() {
  return options_.tool + "-" +
         std::to_string(run_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
}

HttpResponse Service::handle(const HttpRequest& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  LCL_OBS_SPAN(span, "svc/request", "svc");
  const bool timed = LCL_OBS_ENABLED();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point();

  Route route = Route::kOther;
  const std::string& path = request.path;
  if (path == "/v1/classify") {
    route = Route::kClassify;
  } else if (path == "/v1/lint") {
    route = Route::kLint;
  } else if (path == "/v1/synthesize") {
    route = Route::kSynthesize;
  } else if (path == "/v1/survey") {
    route = Route::kSurvey;
  } else if (path.rfind(kSurveyPrefix, 0) == 0) {
    route = Route::kSurveyGet;
  } else if (path == "/healthz") {
    route = Route::kHealthz;
  } else if (path == "/metrics") {
    route = Route::kMetrics;
  } else if (path == "/version") {
    route = Route::kVersion;
  }
  HttpResponse response = dispatch(route, request);

  if (timed) {
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    request_us_[static_cast<std::size_t>(route)]->record(
        static_cast<std::uint64_t>(us));
    const auto* known = std::find(std::begin(kStatuses), std::end(kStatuses),
                                  response.status);
    responses_[static_cast<std::size_t>(known - std::begin(kStatuses))]
        ->add(1);
  }
  LCL_OBS_SPAN_ARG(span, "route", route);
  LCL_OBS_SPAN_ARG(span, "status", response.status);
  return response;
}

HttpResponse Service::dispatch(Route route, const HttpRequest& request) {
  try {
    const char* method = kRoutes[static_cast<std::size_t>(route)].method;
    if (method != nullptr && request.method != method) {
      return error_response(405, "method_not_allowed",
                            std::string("use ") + method);
    }
    switch (route) {
      case Route::kClassify:
        return classify(request);
      case Route::kLint:
        return lint(request);
      case Route::kSynthesize:
        return synthesize(request);
      case Route::kSurvey:
        return survey_post(request);
      case Route::kSurveyGet:
        return survey_get(request.path.substr(kSurveyPrefix.size()));
      case Route::kHealthz: {
        HttpResponse response;
        response.body = "ok\n";
        return response;
      }
      case Route::kMetrics:
        return metrics();
      case Route::kVersion:
        return version();
      case Route::kOther:
        break;
    }
    return error_response(
        404, "not_found",
        "routes: /healthz /metrics /version /v1/classify /v1/lint "
        "/v1/synthesize /v1/survey /v1/survey/<id>");
  } catch (const SpecRejected& rejected) {
    return rejected.response;
  } catch (const std::exception& e) {
    // Parse/shape errors from the request body; anything deeper was
    // already mapped by the route handlers.
    return error_response(400, "bad_request", e.what());
  }
}

HttpResponse Service::classify(const HttpRequest& request) {
  const std::string run_id = next_run_id();
  const ParsedBody body = parse_body(request.body, options_);

  AdmissionSlot slot(inflight_, options_.max_inflight);
  if (!slot.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return error_response(429, "overloaded",
                          "max_inflight compute requests already admitted",
                          run_id);
  }

  const batch::FamilyMember member{body.name,
                                   build_checked(body.spec, run_id)};
  batch::SurveyOptions survey;
  survey.engine = body.options.engine;
  survey.classify_cycles = body.options.classify_cycles;
  survey.classify_paths = body.options.classify_paths;
  survey.check_nodes = body.options.check_nodes;
  survey.check_budget = body.options.check_budget;
  survey.cache = &cache_;

  // The survey's member path is the single source of verdicts (pinned to
  // SpeedupEngine::run parity by the batch tests); the service never
  // grows a second classify path that could drift.
  const batch::ProblemOutcome outcome =
      pool_.submit([&member, &survey]() {
             return batch::survey_member(member, survey);
           })
          .get();
  slot.release();

  if (!outcome.error.empty()) {
    // Per-request failure isolation: the row carries the task's exception
    // (StepBudgetExceeded rows additionally carry the exhausted budget);
    // the daemon, pool, and every concurrent request are unaffected.
    json::Value detail = json::Value::make_object();
    if (outcome.error_budget != 0) {
      detail.object()["budget"] = int_value(outcome.error_budget);
      return error_response(422, "step_budget_exceeded", outcome.error,
                            run_id, &detail, "detail");
    }
    return error_response(422, "task_failed", outcome.error, run_id);
  }

  json::Value root = json::Value::make_object();
  root.object()["schema"] = json::Value(std::string(kSchema));
  root.object()["run_id"] = json::Value(run_id);
  root.object()["outcome"] = batch::outcome_to_json_value(outcome);
  root.object()["cache"] = cache_stats_json(cache_);
  return json_response(std::move(root));
}

HttpResponse Service::lint(const HttpRequest& request) {
  const std::string run_id = next_run_id();
  const ParsedBody body = parse_body(request.body, options_);

  lint::LintOptions lint_options;
  lint_options.canonical_labels = true;  // the full lcl_lint pass set
  const lint::LintReport report = lint::lint_spec(body.spec, lint_options);

  json::Value root = json::Value::make_object();
  root.object()["schema"] = json::Value(std::string(kSchema));
  root.object()["run_id"] = json::Value(run_id);
  root.object()["lint"] = report.to_json_value();
  return json_response(std::move(root));
}

HttpResponse Service::synthesize(const HttpRequest& request) {
  const std::string run_id = next_run_id();
  const ParsedBody body = parse_body(request.body, options_);

  AdmissionSlot slot(inflight_, options_.max_inflight);
  if (!slot.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return error_response(429, "overloaded",
                          "max_inflight compute requests already admitted",
                          run_id);
  }

  const NodeEdgeCheckableLcl problem = build_checked(body.spec, run_id);

  try {
    const SpeedupEngine::Options engine_options = body.options.engine;
    auto result =
        pool_.submit([&problem, &engine_options]() {
               SpeedupEngine engine(problem);
               const SpeedupEngine::Outcome outcome = engine.run(engine_options);
               int radius = -1;
               if (outcome.zero_round_step >= 0) {
                 // Materialize the algorithm: synthesize() validates the
                 // whole lift chain, so "radius" is a real certificate,
                 // not just the step index echoed back.
                 radius = engine.synthesize()->radius(0);
               }
               return std::make_pair(outcome, radius);
             })
            .get();
    slot.release();

    const SpeedupEngine::Outcome& outcome = result.first;
    json::Value root = json::Value::make_object();
    auto& top = root.object();
    top["schema"] = json::Value(std::string(kSchema));
    top["run_id"] = json::Value(run_id);
    top["found"] = json::Value(outcome.zero_round_step >= 0);
    top["zero_round_step"] =
        json::Value(static_cast<std::int64_t>(outcome.zero_round_step));
    if (result.second >= 0) {
      top["radius"] = json::Value(static_cast<std::int64_t>(result.second));
    }
    top["fixed_point"] = json::Value(outcome.fixed_point);
    top["budget_exhausted"] = json::Value(outcome.budget_exhausted);
    top["detected_unsolvable"] = json::Value(outcome.detected_unsolvable);
    top["preflight_dead_labels"] = int_value(outcome.preflight_dead_labels);
    if (!outcome.blowup_message.empty()) {
      top["note"] = json::Value(outcome.blowup_message);
    }
    json::Value steps = json::Value::make_array();
    for (const auto& step : outcome.steps) {
      json::Value s = json::Value::make_object();
      s.object()["index"] = json::Value(static_cast<std::int64_t>(step.index));
      s.object()["labels"] = int_value(step.labels_next);
      s.object()["node_configs"] = int_value(step.node_configs);
      s.object()["edge_configs"] = int_value(step.edge_configs);
      s.object()["zero_round_solvable"] =
          json::Value(step.zero_round_solvable);
      steps.array().push_back(std::move(s));
    }
    top["steps"] = std::move(steps);
    return json_response(std::move(root));
  } catch (const StepBudgetExceeded& e) {
    json::Value detail = json::Value::make_object();
    detail.object()["budget"] = int_value(e.budget());
    return error_response(422, "step_budget_exceeded", e.what(), run_id,
                          &detail, "detail");
  } catch (const std::exception& e) {
    return error_response(422, "task_failed", e.what(), run_id);
  }
}

HttpResponse Service::survey_post(const HttpRequest& request) {
  const std::string run_id = next_run_id();

  std::string parse_error;
  const auto doc = json::parse(request.body, &parse_error);
  if (doc == nullptr || !doc->is_object()) {
    return error_response(400, "bad_request",
                          "request body is not a JSON object: " + parse_error,
                          run_id);
  }

  batch::Family family;
  if (const json::Value* fam = doc->find("family"); fam != nullptr) {
    if (!fam->is_object()) {
      return error_response(400, "bad_request", "\"family\" must be an object",
                            run_id);
    }
    const json::Value* kind = fam->find("kind");
    if (kind == nullptr || !kind->is_string() ||
        kind->as_string() != "exhaustive") {
      return error_response(400, "bad_request",
                            "\"family.kind\" must be \"exhaustive\"", run_id);
    }
    batch::ExhaustiveFamilyOptions exhaustive;
    if (const json::Value* d = fam->find("max_degree");
        d != nullptr && d->is_number()) {
      exhaustive.max_degree = static_cast<int>(d->as_int());
    }
    if (const json::Value* l = fam->find("labels");
        l != nullptr && l->is_number()) {
      exhaustive.labels = static_cast<std::size_t>(l->as_int());
    }
    exhaustive.max_problems = options_.max_family;
    if (const json::Value* m = fam->find("max_problems");
        m != nullptr && m->is_number() && m->as_int() > 0) {
      exhaustive.max_problems = std::min<std::size_t>(
          static_cast<std::size_t>(m->as_int()), options_.max_family);
    }
    try {
      family = batch::exhaustive_family(exhaustive);
    } catch (const std::invalid_argument& e) {
      return error_response(422, "invalid_family", e.what(), run_id);
    }
  } else if (const json::Value* problems = doc->find("problems");
             problems != nullptr && problems->is_array()) {
    family.description = "svc:specs";
    std::size_t index = 0;
    for (const auto& entry : problems->as_array()) {
      if (family.members.size() >= options_.max_family) {
        return error_response(
            422, "invalid_family",
            "family exceeds max_family = " +
                std::to_string(options_.max_family),
            run_id);
      }
      lint::ProblemSpec spec;
      try {
        spec = lint::spec_from_json_value(
            entry.is_object() && entry.find("problem") != nullptr
                ? *entry.find("problem")
                : entry);
      } catch (const std::exception& e) {
        return error_response(400, "bad_request",
                              "problems[" + std::to_string(index) +
                                  "]: " + e.what(),
                              run_id);
      }
      const NodeEdgeCheckableLcl problem = build_checked(spec, run_id);
      family.members.push_back(batch::FamilyMember{
          spec.name.empty() ? "p" + std::to_string(index) : spec.name,
          problem});
      ++index;
    }
  } else {
    return error_response(
        400, "bad_request",
        "body must carry \"family\" (exhaustive) or \"problems\" (spec list)",
        run_id);
  }

  // Optional sharding: restrict the job to one deterministic shard of the
  // family and remember its manifest for the status echoes.
  bool sharded = false;
  batch::ShardManifest manifest;
  if (const json::Value* sh = doc->find("shard"); sh != nullptr) {
    if (!sh->is_object()) {
      return error_response(400, "bad_request", "\"shard\" must be an object",
                            run_id);
    }
    const json::Value* index = sh->find("index");
    const json::Value* count = sh->find("count");
    if (index == nullptr || !index->is_number() || count == nullptr ||
        !count->is_number() || count->as_int() < 1 || index->as_int() < 0 ||
        index->as_int() >= count->as_int()) {
      return error_response(400, "bad_request",
                            "\"shard\" wants index/count with 0 <= index < "
                            "count",
                            run_id);
    }
    batch::ShardRef shard;
    shard.index = static_cast<std::size_t>(index->as_int());
    shard.count = static_cast<std::size_t>(count->as_int());
    batch::ShardPlan plan = batch::plan_shard(
        family, shard, options_.cache_path, git_sha());
    family = std::move(plan.members);
    manifest = std::move(plan.manifest);
    sharded = true;
  }

  RequestOptions request_options;
  try {
    request_options = parse_request_options(doc->find("options"), options_);
  } catch (const std::exception& e) {
    return error_response(400, "bad_request", e.what(), run_id);
  }

  AdmissionSlot slot(inflight_, options_.max_inflight);
  if (!slot.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return error_response(429, "overloaded",
                          "max_inflight compute requests already admitted",
                          run_id);
  }

  auto job = std::make_shared<SurveyJob>(run_id);
  if (sharded) {
    job->sharded = true;
    job->shard_manifest = manifest.to_json_value();
  }
  {
    std::lock_guard<std::mutex> lock(surveys_mutex_);
    surveys_.emplace(run_id, job);
  }

  batch::SurveyOptions survey;
  survey.jobs = 1;  // runs as one pool task; the pool is the fan-out
  survey.engine = request_options.engine;
  survey.classify_cycles = request_options.classify_cycles;
  survey.classify_paths = request_options.classify_paths;
  survey.check_nodes = request_options.check_nodes;
  survey.check_budget = request_options.check_budget;
  survey.cache = &cache_;

  // The task owns the family, the options, the admission slot, and a
  // reference on the job; the HTTP response returns immediately. (The
  // member count is read before the move empties `family`.) The returned
  // future is deliberately discarded: completion is signalled via
  // `job->done`, and a stored future would keep the packaged task's shared
  // state - and with it the lambda's reference on `job` - alive forever
  // (future -> shared state -> callable -> job -> future cycle).
  const std::size_t member_count = family.members.size();
  pool_.submit(
      [job, family = std::move(family), survey,
       slot = std::move(slot)]() mutable {
        batch::SurveyOptions options = survey;
        options.run = &job->run;
        std::string report_json;
        std::string error;
        try {
          report_json = batch::run_survey(family, options).to_json();
        } catch (const std::exception& e) {
          error = e.what();
        }
        // Released before the job reads as done, so a client that saw
        // "done" is admitted again.
        slot.release();
        std::lock_guard<std::mutex> lock(job->mutex);
        job->report_json = std::move(report_json);
        job->error = std::move(error);
        job->done = true;
      });

  json::Value root = json::Value::make_object();
  root.object()["schema"] = json::Value(std::string(kSchema));
  root.object()["survey_id"] = json::Value(run_id);
  root.object()["run_id"] = json::Value(run_id);
  root.object()["status"] = json::Value(std::string("running"));
  root.object()["problems"] = int_value(member_count);
  if (sharded) root.object()["shard"] = manifest.to_json_value();
  HttpResponse response = json_response(std::move(root), 202);
  return response;
}

HttpResponse Service::survey_get(const std::string& id) {
  std::shared_ptr<SurveyJob> job;
  {
    std::lock_guard<std::mutex> lock(surveys_mutex_);
    const auto it = surveys_.find(id);
    if (it != surveys_.end()) job = it->second;
  }
  if (job == nullptr) {
    return error_response(404, "not_found", "no survey with id " + id);
  }

  json::Value root = json::Value::make_object();
  root.object()["schema"] = json::Value(std::string(kSchema));
  root.object()["survey_id"] = json::Value(id);
  if (job->sharded) root.object()["shard"] = job->shard_manifest;

  std::lock_guard<std::mutex> lock(job->mutex);
  if (!job->done) {
    root.object()["status"] = json::Value(std::string("running"));
    root.object()["progress"] = job->run.progress_value();
    return json_response(std::move(root));
  }
  if (!job->error.empty()) {
    root.object()["status"] = json::Value(std::string("error"));
    json::Value error = json::Value::make_object();
    error.object()["code"] = json::Value(std::string("survey_failed"));
    error.object()["message"] = json::Value(job->error);
    root.object()["error"] = std::move(error);
    return json_response(std::move(root), 500);
  }
  root.object()["status"] = json::Value(std::string("done"));
  std::string parse_error;
  if (auto report = json::parse(job->report_json, &parse_error)) {
    root.object()["report"] = std::move(*report);
  }
  return json_response(std::move(root));
}

HttpResponse Service::metrics() {
  // Service-level state is published as gauges right before rendering, so
  // a scrape always sees the current admission/cache picture without a
  // sampler thread.
  auto& registry = obs::registry();
  registry.gauge("svc.inflight")
      .set(static_cast<std::int64_t>(inflight_.load(std::memory_order_relaxed)));
  registry.gauge("svc.requests")
      .set(static_cast<std::int64_t>(requests_.load(std::memory_order_relaxed)));
  registry.gauge("svc.rejected")
      .set(static_cast<std::int64_t>(rejected_.load(std::memory_order_relaxed)));
  const batch::CacheStats stats = cache_.stats();
  registry.gauge("svc.cache.hits")
      .set(static_cast<std::int64_t>(stats.hits));
  registry.gauge("svc.cache.misses")
      .set(static_cast<std::int64_t>(stats.misses));
  registry.gauge("svc.cache.canonical_hits")
      .set(static_cast<std::int64_t>(stats.canonical_hits));
  registry.gauge("svc.cache.insertions")
      .set(static_cast<std::int64_t>(stats.insertions));

  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = obs::prom::render(registry.snapshot(), options_.const_labels);
  return response;
}

HttpResponse Service::version() const {
  json::Value root = json::Value::make_object();
  root.object()["tool"] = json::Value(options_.tool);
  root.object()["version"] = json::Value(std::string(project_version()));
  root.object()["git_sha"] = json::Value(std::string(git_sha()));
  root.object()["build_type"] = json::Value(std::string(build_type()));
  return json_response(std::move(root));
}

}  // namespace lcl::svc
