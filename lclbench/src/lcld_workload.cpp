// lcld-classify: an in-process lcld (svc::Service + svc::HttpServer on
// loopback, pool jobs=2, max_steps 3). Set-up primes the cache with every
// Delta=3 l=2 member, so each timed request - a label-permuted, renamed
// member - is a confirmed cache hit. A closed-loop client sends the
// requests through svc::http_request, one connection per request, in
// rounds. A round is one pass over the whole request set, which
// holds every member kPermutations times: the seed shuffles the order and
// draws the permutations and names, but every seed sends the same member
// mix, so runs with different seeds time the same work.

#include <algorithm>
#include <iostream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/survey.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "lint/canonical.hpp"
#include "lint/spec_io.hpp"
#include "obs/json.hpp"
#include "reference.hpp"
#include "svc/http.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace lclbench {

namespace {

using lcl::svc::HttpRequest;
using lcl::svc::HttpServer;
using lcl::svc::Service;

constexpr std::size_t kPermutations = 8;  // request bodies per member
/// Latencies kept for p99: a uniform sample once a run has sent more, so
/// the benchmark's own memory, and with it peak_rss_mb, does not grow with
/// throughput. p99 keeps 650 samples beyond it.
constexpr std::size_t kLatencySample = 1u << 16;
constexpr std::size_t kTracedRequests = 2000;

struct Request {
  std::string body;
  const Verdict* expected = nullptr;  // the unpermuted member's golden row
};

/// A running lcld: the service and its loopback listener. Members are
/// destroyed in reverse order, so the listener stops before the service.
struct Server {
  std::unique_ptr<Service> service;
  std::unique_ptr<HttpServer> http;
};

Service::Options service_options() {
  Service::Options options;
  options.jobs = 2;
  options.engine.max_steps = 3;
  return options;
}

HttpRequest classify_request(std::string body) {
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/classify";
  request.path = "/v1/classify";
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return request;
}

bool response_ok(int status, std::string_view body, const Verdict& expected) {
  if (status != 200) return false;
  const auto got = verdict_from_response(body);
  return got.has_value() && same_engine_fields(*got, expected);
}

/// The seeded request set: kPermutations label-permuted, renamed copies of
/// every member, in a seeded order.
std::vector<Request> make_requests(const lcl::batch::Family& family,
                                   const Reference& golden,
                                   std::uint64_t seed) {
  lcl::SplitRng rng(seed);
  std::vector<std::size_t> order;
  order.reserve(family.members.size() * kPermutations);
  for (std::size_t k = 0; k < kPermutations; ++k) {
    for (std::size_t m = 0; m < family.members.size(); ++m) order.push_back(m);
  }
  for (std::size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[rng.next_below(k)]);
  }
  std::vector<Request> requests;
  requests.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto& member = family.members[order[i]];
    lcl::lint::ProblemSpec spec = lcl::lint::spec_from_problem(member.problem);
    std::vector<lcl::Label> old_to_new(spec.outputs.size());
    std::iota(old_to_new.begin(), old_to_new.end(), lcl::Label{0});
    for (std::size_t k = old_to_new.size(); k > 1; --k) {
      std::swap(old_to_new[k - 1], old_to_new[rng.next_below(k)]);
    }
    spec = lcl::lint::permute_spec(spec, old_to_new);
    const std::string tag = std::to_string(rng.next_below(1'000'000));
    spec.name = "req" + std::to_string(i) + "-" + tag;
    for (std::size_t k = 0; k < spec.outputs.size(); ++k) {
      spec.outputs[k] = "o" + tag + "_" + std::to_string(k);
    }
    const auto expected = golden.find(member.name);
    if (expected == golden.end()) {
      throw std::runtime_error("lcld: " + member.name + " is not in the golden");
    }
    requests.push_back(Request{lcl::lint::spec_to_json(spec), &expected->second});
  }
  return requests;
}

struct SetUp {
  Server server;
  std::vector<Request> requests;
  std::uint64_t prime_failures = 0;
};

/// Service and listener start, priming with every unpermuted member, and
/// building the request bodies.
void set_up(SetUp& out, const lcl::batch::Family& family,
            const Reference& golden, std::uint64_t seed) {
  out.server.service = std::make_unique<Service>(service_options());
  HttpServer::Options http;
  Service* service = out.server.service.get();
  http.handler = [service](const HttpRequest& request) {
    return service->handle(request);
  };
  out.server.http = std::make_unique<HttpServer>(std::move(http));
  if (!out.server.http->start()) {
    throw std::runtime_error("lcld: cannot listen: " +
                             out.server.http->error());
  }
  for (const auto& member : family.members) {
    const auto response = service->handle(classify_request(
        lcl::lint::spec_to_json(lcl::lint::spec_from_problem(member.problem))));
    const auto expected = golden.find(member.name);
    if (expected == golden.end() ||
        !response_ok(response.status, response.body, expected->second)) {
      ++out.prime_failures;
    }
  }
  out.requests = make_requests(family, golden, seed);
}

/// One round's requests; latencies in seconds.
struct ClientStats {
  std::vector<double> latency_s;
  std::uint64_t failed = 0;
  std::uint64_t non2xx = 0;
};

/// One pass of the closed-loop client over the request set.
void client(std::uint16_t port, const std::vector<Request>& requests,
            ClientStats& stats) {
  for (const Request& request : requests) {
    const double start = now_s();
    int status = 0;
    std::string body;
    try {
      auto response = lcl::svc::http_request("127.0.0.1", port, "POST",
                                             "/v1/classify", request.body);
      status = response.status;
      body = std::move(response.body);
    } catch (const std::exception& e) {
      std::cerr << "lclbench: request failed: " << e.what() << "\n";
    }
    stats.latency_s.push_back(now_s() - start);
    if (status < 200 || status > 299) ++stats.non2xx;
    if (!response_ok(status, body, *request.expected)) ++stats.failed;
  }
}

/// The closed loop for `seconds`: rounds of one pass over the request set;
/// each round's wall and process CPU time and its median latency are one
/// sample.
struct LoopStats {
  std::vector<double> round_wall_s;
  std::vector<double> round_cpu_s;
  std::vector<double> round_p50_s;
  std::vector<double> latency_s;  // at most kLatencySample, see add_latency
  double wall_s = 0.0;            // summed over rounds
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t non2xx = 0;
  std::uint64_t cache_misses = 0;  // every request should be a warm hit
};

/// Reservoir sampling (Vitter's algorithm R): after n latencies, each is in
/// `latency_s` with probability kLatencySample / n.
void add_latency(LoopStats& loop, lcl::SplitRng& rng, std::uint64_t seen,
                 double latency) {
  if (loop.latency_s.size() < kLatencySample) {
    loop.latency_s.push_back(latency);
  } else if (const auto slot = rng.next_below(seen + 1);
             slot < kLatencySample) {
    loop.latency_s[slot] = latency;
  }
}

/// Adds rounds on `setup` to `loop` until `seconds` of them have passed.
void closed_loop(const SetUp& setup, double seconds, lcl::SplitRng& rng,
                 LoopStats& loop) {
  const std::uint16_t port = setup.server.http->port();
  const std::size_t total = setup.requests.size();
  const auto misses_before = setup.server.service->cache().stats().misses;
  double wall_s = 0.0;
  while (wall_s == 0.0 || wall_s < seconds) {
    ClientStats stats;
    stats.latency_s.reserve(total);
    const double cpu_start = process_cpu_s();
    const double start = now_s();
    client(port, setup.requests, stats);
    const double wall = now_s() - start;
    loop.round_cpu_s.push_back(process_cpu_s() - cpu_start);
    loop.round_wall_s.push_back(wall);
    wall_s += wall;
    for (const double latency : stats.latency_s) {
      add_latency(loop, rng, loop.attempted++, latency);
    }
    loop.failed += stats.failed;
    loop.non2xx += stats.non2xx;
    loop.round_p50_s.push_back(median(std::move(stats.latency_s)));
  }
  loop.wall_s += wall_s;
  loop.cache_misses +=
      setup.server.service->cache().stats().misses - misses_before;
}

RunResult timed(const RunArgs& args, const lcl::batch::Family& family,
                const Reference& golden) {
  std::vector<double> setup_s;
  std::uint64_t prime_failures = 0;
  LoopStats loop;
  loop.latency_s.reserve(kLatencySample);
  lcl::SplitRng rng = lcl::SplitRng(args.seed).fork(1);  // not the bodies'
  // Each stretch runs on a freshly started lcld, so only one service is
  // alive at a time and peak RSS is one service's.
  for (std::size_t segment = 0; segment < kSegments; ++segment) {
    SetUp setup;
    const double start = now_s();
    set_up(setup, family, golden, args.seed);
    setup_s.push_back(now_s() - start);
    prime_failures += setup.prime_failures;
    closed_loop(setup, static_cast<double>(args.seconds) / kSegments, rng,
                loop);
  }  // each segment's lcld shuts down outside the timing
  std::cerr << "lclbench: " << loop.attempted << " requests in "
            << loop.round_wall_s.size() << " rounds:"
            << spread("wall s", loop.round_wall_s)
            << spread("cpu s", loop.round_cpu_s)
            << spread("p50 s", loop.round_p50_s)
            << spread("set-up s", setup_s) << " p99 "
            << quantile(loop.latency_s, 0.99) << " s, " << loop.failed
            << " failed, " << prime_failures << " priming failures, "
            << loop.cache_misses << " cache misses\n";

  RunResult result;
  result.attempted = loop.attempted;
  // A miss means the canonical tier no longer serves a permuted member,
  // and the run timed cold classifies instead of the request path.
  result.failed = loop.failed + prime_failures + loop.cache_misses;
  result.metrics["wall_s"] = fastest(loop.round_wall_s);
  result.metrics["cpu_s"] = fastest(loop.round_cpu_s);
  result.metrics["p50_ms"] = fastest(loop.round_p50_s) * 1e3;
  result.metrics["setup_s"] = median(setup_s);
  return result;
}

/// The traced invocation: the untraced closed loop for `--seconds` (latency
/// tail, throughput, cache counters), then kTracedRequests bodies through
/// `Service::handle` untraced, through `http_request` over loopback, and
/// through `Service::handle` again under an `obs::TraceSession`. The
/// request path's library spans (batch/task, batch/survey, batch/problem,
/// lint/run) give the layer split; canonical form and the body parse, which
/// the library does not instrument, are timed by calling them on the same
/// bodies directly.
RunResult traced(const RunArgs& args, const lcl::batch::Family& family,
                 const Reference& golden) {
  SetUp setup;
  set_up(setup, family, golden, args.seed);
  Service& service = *setup.server.service;
  const auto before = service.cache().stats();
  LoopStats loop;
  loop.latency_s.reserve(kLatencySample);
  lcl::SplitRng rng = lcl::SplitRng(args.seed).fork(1);
  closed_loop(setup, args.seconds, rng, loop);
  const auto after = service.cache().stats();

  std::uint64_t failed = 0;
  const std::uint16_t port = setup.server.http->port();
  const auto request_at = [&](std::size_t i) -> const Request& {
    return setup.requests[i % setup.requests.size()];
  };
  const auto handle_pass = [&]() {
    std::vector<double> handle_s;
    for (std::size_t i = 0; i < kTracedRequests; ++i) {
      const double start = now_s();
      const auto handled = service.handle(classify_request(request_at(i).body));
      handle_s.push_back(now_s() - start);
      if (!response_ok(handled.status, handled.body, *request_at(i).expected)) {
        ++failed;
      }
    }
    return handle_s;
  };
  const std::vector<double> handle_s = handle_pass();
  std::vector<double> http_s;
  for (std::size_t i = 0; i < kTracedRequests; ++i) {
    const double start = now_s();
    const auto sent = lcl::svc::http_request("127.0.0.1", port, "POST",
                                             "/v1/classify", request_at(i).body);
    http_s.push_back(now_s() - start);
    if (!response_ok(sent.status, sent.body, *request_at(i).expected)) {
      ++failed;
    }
  }
  const std::string trace_path = args.out_dir + "/" + args.workload +
                                 "-seed" + std::to_string(args.seed) +
                                 ".trace.json";
  LibraryTrace trace(trace_path);
  const double traced_start = now_s();
  const std::vector<double> traced_handle_s = handle_pass();
  const double traced_wall = now_s() - traced_start;
  const lcl::obs::ParsedTrace spans = trace.finish();

  // The calls the library does not instrument, on the same bodies.
  double spec_io_s = 0.0;
  double canonical_s = 0.0;
  for (std::size_t i = 0; i < kTracedRequests; ++i) {
    const double t0 = now_s();
    std::string error;
    const auto doc = lcl::obs::json::parse(request_at(i).body, &error);
    if (doc == nullptr) throw std::runtime_error("lcld: bad body " + error);
    const lcl::lint::ProblemSpec spec = lcl::lint::spec_from_json_value(*doc);
    const double t1 = now_s();
    const lcl::lint::CanonicalForm form = lcl::lint::canonical_form(spec);
    canonical_s += now_s() - t1;
    spec_io_s += t1 - t0;
    if (form.spec.outputs.size() != spec.outputs.size()) ++failed;
  }

  RunResult result;
  auto& m = result.metrics;
  std::vector<std::string> ids;
  for (std::size_t i = 0; i < kTracedRequests; ++i) {
    ids.push_back("req-" + std::to_string(i));
  }
  add_layer_metrics(spans, ids, m, std::cerr);
  std::cerr << "lclbench: spans of the traced handle pass in " << trace_path
            << "\n";
  double busy_s = 0.0;
  for (const auto* task : spans_named(spans, "batch/task")) {
    busy_s += static_cast<double>(task->dur_us) * 1e-6;
  }
  m["batch.pool.busy_s"] = busy_s;
  m["batch.pool.idle_frac"] =
      1.0 - busy_s / (static_cast<double>(service_options().jobs) *
                      traced_wall);
  m["lint.canonical_form.s"] = canonical_s;
  m["lint.canonical_form.calls"] = static_cast<double>(kTracedRequests);
  m["lint.spec_io.s"] = spec_io_s;
  m["batch.cache.hits"] = static_cast<double>(after.hits - before.hits);
  m["batch.cache.misses"] = static_cast<double>(after.misses - before.misses);
  m["batch.cache.canonical_hits"] =
      static_cast<double>(after.canonical_hits - before.canonical_hits);
  // Every timed request is warm, so the serial miss count is 0.
  m["batch.cache.dup_misses"] = m["batch.cache.misses"];
  const double handle_ms = median(handle_s) * 1e3;
  m["svc.handle_ms.p50"] = handle_ms;
  m["svc.transport_ms.p50"] = median(http_s) * 1e3 - handle_ms;
  m["svc.p99_ms"] = quantile(loop.latency_s, 0.99) * 1e3;
  m["svc.req_per_s"] = static_cast<double>(loop.attempted) / loop.wall_s;
  m["svc.non2xx"] = static_cast<double>(loop.non2xx);
  m["obs.trace_overhead_frac"] = median(traced_handle_s) / median(handle_s) - 1.0;

  result.attempted = loop.attempted + 3 * kTracedRequests;
  result.failed =
      loop.failed + loop.cache_misses + failed + setup.prime_failures;
  return result;
}

}  // namespace

RunResult run_lcld_workload(const RunArgs& args) {
  lcl::batch::ExhaustiveFamilyOptions options;
  options.max_degree = 3;
  options.labels = 2;
  const lcl::batch::Family family = lcl::batch::exhaustive_family(options);
  const Reference golden = load_survey_report(args.golden);
  return args.trace ? traced(args, family, golden)
                    : timed(args, family, golden);
}

}  // namespace lclbench
