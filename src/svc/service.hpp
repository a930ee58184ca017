#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "batch/cache.hpp"
#include "batch/pool.hpp"
#include "obs/prom.hpp"
#include "re/engine.hpp"
#include "svc/http.hpp"

namespace lcl::obs {
class Counter;
class Histogram;
}  // namespace lcl::obs

namespace lcl::svc {

/// The lcld application layer: routes the versioned HTTP+JSON API onto the
/// batch runtime. One `Service` owns the shared worker pool and result
/// cache; an `HttpServer` (or a test) feeds it parsed requests via
/// `handle()`.
///
/// Routes (bodies are the lint/fuzz spec-JSON dialect):
///
///   POST /v1/classify    one problem -> the survey outcome row of
///                        `batch::survey_member` (the function every
///                        `lcl_batch` row comes from, so verdicts match
///                        `SpeedupEngine::run` exactly);
///   POST /v1/lint        one spec -> the full lint report (canonical
///                        labels pass included);
///   POST /v1/synthesize  one problem -> the speedup certificate and, when
///                        a 0-round witness exists, the synthesized
///                        algorithm's radius;
///   POST /v1/survey      a family -> 202 + survey id (async; resumable
///                        across daemon restarts via the cache's JSONL
///                        tier). An optional "shard":{"index","count"}
///                        block restricts the job to one deterministic
///                        shard of the family (same partition as
///                        `lcl_batch --shard=i/N`);
///   GET  /v1/survey/<id> running -> progress JSON; done -> the
///                        `lclscape.survey.v3` report; sharded jobs echo
///                        their `lclscape.shards.v1` manifest either way;
///   GET  /healthz        liveness; GET /metrics  Prometheus exposition;
///   GET  /version        build provenance (also `lcld --version`).
///
/// Admission control: at most `Options::max_inflight` compute requests
/// (classify/synthesize/survey) are queued-or-running at once; beyond that
/// a request is answered `429 {"error":{"code":"overloaded"}}` without
/// touching the pool. Per-request engine budgets are accepted from the
/// request body and clamped to the service ceilings; a request that blows
/// its step budget gets `422 {"error":{"code":"step_budget_exceeded",...}}`
/// while concurrent requests are unaffected (task isolation is the pool's
/// contract). Every request gets its own run id, echoed in the response
/// body; an async survey also tracks its progress in an `obs::RunContext`
/// under that id.
///
/// Spec errors: a spec `lint::build_spec` refuses is answered
/// `422 {"error":{"code":"invalid_spec","lint":<report>}}` when lint's
/// structural check (L001) fails, and `400 bad_request` with the build
/// error otherwise. Only refused specs are linted.
///
/// Request metrics (recorded while `obs::metrics_enabled()`, so on in
/// `lcld`): the log2 histogram `svc.request_us.<route>` of handling time in
/// microseconds, route one of classify, lint, synthesize, survey,
/// survey_get, healthz, metrics, version, other; and the counter
/// `svc.responses.<status>` (`other` for statuses outside the service's
/// own set). Each request also runs under an `svc/request` trace span with
/// `route` (the index in that list) and `status` args.
class Service {
 public:
  struct Options {
    /// Worker threads of the shared pool; 0 = hardware concurrency.
    std::size_t jobs = 0;
    /// Compute requests queued-or-running before 429. Also the bound on
    /// how much work a drain has to wait out.
    std::size_t max_inflight = 8;

    /// Default engine settings for requests that send no "options"; the
    /// budget fields double as *ceilings* for per-request overrides.
    SpeedupEngine::Options engine;
    /// Ceilings for the brute-force cross-check a request may ask for
    /// (check_nodes = 0 means the check is off by default).
    std::size_t check_nodes_ceiling = 10;
    std::uint64_t check_budget_ceiling = 1'000'000;
    /// Cap on `/v1/survey` family size (exhaustive enumerations are
    /// generated server-side; this bounds a hostile request).
    std::size_t max_family = 4096;

    /// Shared result cache: JSONL disk tier path ("" = in-memory only).
    /// `cache_resume` replays an existing file (warm restart).
    std::string cache_path;
    bool cache_resume = true;
    std::size_t cache_capacity = 1 << 16;

    /// Labels stamped on every /metrics series (e.g. {"service","lcld"}).
    std::vector<obs::prom::Label> const_labels;
    /// Tool name reported by /version.
    std::string tool = "lcld";
  };

  explicit Service(Options options);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Routes one parsed request. Never throws: handler-level failures map
  /// to structured JSON error bodies (400/404/405/409/422/429), and the
  /// transport turns anything escaping into a 500.
  HttpResponse handle(const HttpRequest& request);

  /// Waits until every admitted compute request (including async surveys)
  /// has finished. The HTTP server's own `drain()` stops new arrivals;
  /// this flushes the work already admitted. Cache inserts are flushed to
  /// the disk tier per append, so a drained daemon loses nothing.
  void drain();

  batch::Cache& cache() noexcept { return cache_; }
  const Options& options() const noexcept { return options_; }
  std::uint64_t requests() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }
  std::uint64_t rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }
  std::size_t inflight() const noexcept {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  struct SurveyJob;
  enum class Route : std::uint8_t;

  HttpResponse dispatch(Route route, const HttpRequest& request);
  HttpResponse classify(const HttpRequest& request);
  HttpResponse lint(const HttpRequest& request);
  HttpResponse synthesize(const HttpRequest& request);
  HttpResponse survey_post(const HttpRequest& request);
  HttpResponse survey_get(const std::string& id);
  HttpResponse metrics();
  HttpResponse version() const;

  std::string next_run_id();

  Options options_;
  batch::Cache cache_;
  batch::Pool pool_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::size_t> inflight_{0};
  std::atomic<std::uint64_t> run_seq_{0};

  // Looked up once at construction so a request does no registry lookup:
  // one histogram per route, one counter per known status plus `other`
  // (last).
  std::vector<obs::Histogram*> request_us_;
  std::vector<obs::Counter*> responses_;

  std::mutex surveys_mutex_;
  std::map<std::string, std::shared_ptr<SurveyJob>> surveys_;
};

}  // namespace lcl::svc
