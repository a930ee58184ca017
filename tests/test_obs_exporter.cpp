// The pull-telemetry surface: Prometheus text exposition (golden file),
// the /metrics + /healthz + /progress HTTP endpoints, run-scoped progress
// accounting, resource sampling, and the progress/resource trace records.
// The *Threads suites run under the obs-tsan preset (see batch.yml), which
// is where the "scrapes never stall workers" claim is actually checked.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/survey.hpp"
#include "obs/exporter.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/prom.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/run_context.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

namespace lcl {
namespace {

/// Turns runtime metrics on for one test and restores the previous state,
/// so tests do not leak the switch into each other.
class MetricsOn {
 public:
  MetricsOn() : previous_(obs::metrics_enabled()) {
    obs::set_metrics_enabled(true);
  }
  ~MetricsOn() { obs::set_metrics_enabled(previous_); }

 private:
  bool previous_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The snapshot behind tests/golden/metrics-exposition.prom: one series of
/// every kind, plus the naming/escaping edge cases the exposition grammar
/// cares about. Mirrored by the regen recipe in the golden test below.
obs::MetricsRegistry::Snapshot golden_snapshot() {
  obs::MetricsRegistry::Snapshot snap;
  snap.counters["cache.hits"] = 42;          // dot -> _, _total appended
  snap.counters["re.steps_total"] = 7;       // already _total: no doubling
  snap.counters["9starts with a digit"] = 3; // leading digit prefixed
  snap.gauges["process.rss_kb"] = {51200, 4096, 65536};
  snap.gauges["survey.rows_done"] = {1312, 0, 2000};
  // Values 0, 1, 6, 6, 100: occupies buckets 0, 1, 3, 7 - bucket 2 and
  // 4..6 are empty intermediates the cumulative series must still emit.
  obs::MetricsRegistry::Snapshot::HistogramValue h;
  h.count = 5;
  h.sum = 113;
  h.min = 0;
  h.max = 100;
  h.buckets = {{0, 1}, {1, 1}, {3, 2}, {7, 1}};
  snap.histograms["batch.task_us"] = h;
  snap.histograms["re.empty"] = {};  // count 0: only +Inf/_sum/_count
  return snap;
}

std::vector<obs::prom::Label> golden_labels() {
  // A clean correlation label plus one that needs both key sanitization
  // and value escaping (backslash, quote, newline).
  return {{"run_id", "run-1700000000-42"}, {"weird key!", "a\\b\"c\nd"}};
}

TEST(PromExposition, SanitizesMetricNames) {
  using obs::prom::sanitize_metric_name;
  EXPECT_EQ(sanitize_metric_name("cache.hits"), "cache_hits");
  EXPECT_EQ(sanitize_metric_name("a:b"), "a:b");  // colon legal in names
  EXPECT_EQ(sanitize_metric_name("9lives"), "_9lives");
  EXPECT_EQ(sanitize_metric_name(""), "_");
  EXPECT_EQ(sanitize_metric_name("sp ace/slash"), "sp_ace_slash");
}

TEST(PromExposition, SanitizesLabelKeysAndEscapesValues) {
  using obs::prom::escape_label_value;
  using obs::prom::sanitize_label_key;
  EXPECT_EQ(sanitize_label_key("run_id"), "run_id");
  EXPECT_EQ(sanitize_label_key("a:b"), "a_b");  // no colon in label keys
  EXPECT_EQ(sanitize_label_key("weird key!"), "weird_key_");
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(escape_label_value("two\nlines"), "two\\nlines");
}

TEST(PromExposition, CumulativeBucketsAreMonotoneWithInfEdge) {
  const std::string text =
      obs::prom::render(golden_snapshot(), /*const_labels=*/{});
  // Empty intermediate buckets appear with the running cumulative count...
  EXPECT_NE(text.find("lclscape_batch_task_us_bucket{le=\"3\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lclscape_batch_task_us_bucket{le=\"63\"} 4\n"),
            std::string::npos)
      << text;
  // ...and +Inf equals _count.
  EXPECT_NE(text.find("lclscape_batch_task_us_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lclscape_batch_task_us_count 5\n"), std::string::npos);
  // The empty histogram renders no numbered buckets, just the edge series.
  EXPECT_EQ(text.find("lclscape_re_empty_bucket{le=\"0\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lclscape_re_empty_bucket{le=\"+Inf\"} 0\n"),
            std::string::npos);
}

#ifdef LCL_OBS_GOLDEN_DIR
TEST(PromExposition, MatchesTheCommittedGoldenExposition) {
  const std::string golden_path =
      std::string(LCL_OBS_GOLDEN_DIR) + "/metrics-exposition.prom";
  const std::string golden = read_file(golden_path);
  ASSERT_FALSE(golden.empty()) << "missing golden file " << golden_path;
  EXPECT_EQ(obs::prom::render(golden_snapshot(), golden_labels()), golden)
      << "the exposition format drifted; if intentional, regenerate by\n"
         "printing prom::render(golden_snapshot(), golden_labels()) into\n"
         "tests/golden/metrics-exposition.prom";
}
#endif

TEST(RunContext, EtaSemantics) {
  obs::RunContext run("test-eta");
  // No total and no rows: unknown.
  EXPECT_DOUBLE_EQ(run.eta_seconds(), -1.0);
  run.set_rows_total(10);
  EXPECT_DOUBLE_EQ(run.eta_seconds(), -1.0);  // no rows done yet
  run.add_rows_done(5);
  EXPECT_GE(run.eta_seconds(), 0.0);  // mid-run: a real estimate
  run.add_rows_done(5);
  EXPECT_DOUBLE_EQ(run.eta_seconds(), 0.0);  // done
}

TEST(RunContext, ProgressJsonCarriesTheRunState) {
  obs::RunContext run("test-progress", "survey");
  run.set_phase("survey");
  run.set_rows_total(100);
  run.add_rows_done(25);
  run.add_errors(1);
  run.bump("engine_steps", 17);
  run.set_cache_stats_provider([]() {
    return std::pair<std::uint64_t, std::uint64_t>{30, 10};
  });
  run.record_busy_fractions({0.5, 0.75});

  std::string error;
  const auto doc = obs::json::parse(run.progress_json(), &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->find("run_id")->as_string(), "test-progress");
  EXPECT_EQ(doc->find("phase")->as_string(), "survey");
  EXPECT_EQ(doc->find("rows_total")->as_int(), 100);
  EXPECT_EQ(doc->find("rows_done")->as_int(), 25);
  EXPECT_EQ(doc->find("errors")->as_int(), 1);
  ASSERT_NE(doc->find("eta_s"), nullptr);
  ASSERT_NE(doc->find("rows_per_s"), nullptr);
  const auto* cache = doc->find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->find("hits")->as_int(), 30);
  EXPECT_EQ(cache->find("misses")->as_int(), 10);
  EXPECT_DOUBLE_EQ(cache->find("hit_ratio")->as_double(), 0.75);
  const auto* busy = doc->find("worker_busy");
  ASSERT_NE(busy, nullptr);
  ASSERT_EQ(busy->as_array().size(), 2u);
  const auto* units = doc->find("units");
  ASSERT_NE(units, nullptr);
  EXPECT_EQ(units->find("engine_steps")->as_int(), 17);
}

TEST(RunContext, PublishGaugesWritesPrefixedGauges) {
  MetricsOn on;
  obs::RunContext run("test-gauges", "test_run_ctx");
  run.set_rows_total(8);
  run.add_rows_done(3);
  run.publish_gauges();
  run.record_busy_fractions({0.25});
  auto& reg = obs::registry();
  ASSERT_NE(reg.find_gauge("test_run_ctx.rows_total"), nullptr);
  EXPECT_EQ(reg.find_gauge("test_run_ctx.rows_total")->value(), 8);
  EXPECT_EQ(reg.find_gauge("test_run_ctx.rows_done")->value(), 3);
  ASSERT_NE(reg.find_gauge("test_run_ctx.worker0.busy_ppm"), nullptr);
  EXPECT_EQ(reg.find_gauge("test_run_ctx.worker0.busy_ppm")->value(),
            250000);
}

TEST(RunContext, CurrentInstallAndClear) {
  obs::RunContext run("test-current");
  obs::RunContext* previous = obs::RunContext::set_current(&run);
  EXPECT_EQ(obs::RunContext::current(), &run);
  obs::RunContext::set_current(previous);
  EXPECT_NE(obs::RunContext::current(), &run);
}

TEST(Exporter, ServesMetricsHealthzAndProgress) {
  if (!obs::telemetry_compiled_in()) {
    GTEST_SKIP() << "built with LCL_OBS=0";
  }
  MetricsOn on;
  obs::registry().counter("test.exporter.hits").add(11);

  obs::RunContext run("test-run-1");
  run.set_rows_total(4);
  run.add_rows_done(2);

  obs::Exporter::Options options;
  options.const_labels = {{"run_id", "test-run-1"}};
  options.progress_provider = [&run]() { return run.progress_json(); };
  obs::Exporter exporter(std::move(options));
  ASSERT_TRUE(exporter.start()) << exporter.error();
  ASSERT_TRUE(exporter.running());
  ASSERT_NE(exporter.port(), 0);

  std::string status;
  const std::string metrics =
      obs::http_get("127.0.0.1", exporter.port(), "/metrics", &status);
  EXPECT_NE(status.find("200"), std::string::npos) << status;
  EXPECT_NE(
      metrics.find("lclscape_test_exporter_hits_total{run_id=\"test-run-1\"}"),
      std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);

  EXPECT_EQ(obs::http_get("127.0.0.1", exporter.port(), "/healthz"), "ok\n");

  const std::string progress =
      obs::http_get("127.0.0.1", exporter.port(), "/progress");
  std::string error;
  const auto doc = obs::json::parse(progress, &error);
  ASSERT_NE(doc, nullptr) << error;
  EXPECT_EQ(doc->find("run_id")->as_string(), "test-run-1");
  EXPECT_EQ(doc->find("rows_done")->as_int(), 2);

  obs::http_get("127.0.0.1", exporter.port(), "/nope", &status);
  EXPECT_NE(status.find("404"), std::string::npos) << status;

  EXPECT_GE(exporter.scrapes(), 4u);
  exporter.stop();
  EXPECT_FALSE(exporter.running());
}

TEST(Exporter, ProgressRouteIs404WithoutAProvider) {
  if (!obs::telemetry_compiled_in()) {
    GTEST_SKIP() << "built with LCL_OBS=0";
  }
  obs::Exporter exporter;
  ASSERT_TRUE(exporter.start()) << exporter.error();
  std::string status;
  obs::http_get("127.0.0.1", exporter.port(), "/progress", &status);
  EXPECT_NE(status.find("404"), std::string::npos) << status;
}

TEST(ExporterThreads, ScrapesRaceInstrumentWritersCleanly) {
  if (!obs::telemetry_compiled_in()) {
    GTEST_SKIP() << "built with LCL_OBS=0";
  }
  MetricsOn on;
  obs::Exporter exporter;
  ASSERT_TRUE(exporter.start()) << exporter.error();
  const std::uint16_t port = exporter.port();

  constexpr int kWriters = 4;
  constexpr int kOps = 4000;
  constexpr int kScrapers = 2;
  constexpr int kScrapesEach = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([t]() {
      auto& reg = obs::registry();
      auto& counter = reg.counter("test.scrape_race.counter");
      auto& gauge = reg.gauge("test.scrape_race.gauge");
      auto& histogram = reg.histogram("test.scrape_race.histogram");
      for (int i = 0; i < kOps; ++i) {
        counter.add(1);
        gauge.set(t * kOps + i);
        histogram.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  std::atomic<int> ok{0};
  for (int s = 0; s < kScrapers; ++s) {
    threads.emplace_back([port, &ok]() {
      for (int i = 0; i < kScrapesEach; ++i) {
        const std::string body = obs::http_get("127.0.0.1", port, "/metrics");
        if (body.find("lclscape_test_scrape_race_counter_total") !=
            std::string::npos) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Every scrape after the first writer touched the instruments should see
  // them; requiring "most" keeps the test robust to startup interleaving.
  EXPECT_GE(ok.load(), kScrapers * kScrapesEach - kScrapers);
  EXPECT_GE(exporter.scrapes(),
            static_cast<std::uint64_t>(kScrapers) * kScrapesEach);
  EXPECT_EQ(obs::registry().counter("test.scrape_race.counter").value(),
            static_cast<std::uint64_t>(kWriters) * kOps);
}

/// The acceptance bar from the exporter design: a scraper hammering
/// /metrics at ~100 Hz must not stall survey workers, because scrapes only
/// read relaxed atomics and never hold a lock an instrument update needs.
/// The bound is deliberately loose (3x + 2s) - this is a "no pathological
/// serialization" canary, not a benchmark.
TEST(ExporterThreads, HundredHertzScraperDoesNotStallTheSurvey) {
  if (!obs::telemetry_compiled_in()) {
    GTEST_SKIP() << "built with LCL_OBS=0";
  }
  MetricsOn on;
  batch::SurveyOptions options;
  options.jobs = 4;
  options.engine.max_steps = 3;
  const auto family = batch::exhaustive_family({});

  const auto timed_survey = [&]() {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < 3; ++i) {
      const auto report = batch::run_survey(family, options);
      EXPECT_EQ(report.outcomes.size(), family.members.size());
    }
    return std::chrono::steady_clock::now() - start;
  };

  const auto plain = timed_survey();

  obs::Exporter exporter;
  ASSERT_TRUE(exporter.start()) << exporter.error();
  std::atomic<bool> done{false};
  std::thread scraper([&exporter, &done]() {
    while (!done.load(std::memory_order_acquire)) {
      obs::http_get("127.0.0.1", exporter.port(), "/metrics");
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  const auto scraped = timed_survey();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GT(exporter.scrapes(), 0u);
  EXPECT_LE(scraped, plain * 3 + std::chrono::seconds(2))
      << "plain=" << std::chrono::duration<double>(plain).count() << "s"
      << " scraped=" << std::chrono::duration<double>(scraped).count() << "s";
}

TEST(ResourceSampler, ReadResourceUsageReportsPlausibleNumbers) {
  obs::ResourceUsage usage;
  ASSERT_TRUE(obs::read_resource_usage(&usage));
  EXPECT_GT(usage.rss_kb, 0u);
  EXPECT_GE(usage.peak_rss_kb, usage.rss_kb);
}

TEST(ResourceSampler, SamplesGaugesAndHistogram) {
  if (!obs::telemetry_compiled_in()) {
    GTEST_SKIP() << "built with LCL_OBS=0";
  }
  MetricsOn on;
  obs::RunContext run("test-sampler");
  run.set_rows_total(2);
  run.add_rows_done(1);

  obs::ResourceSampler::Options options;
  options.interval = std::chrono::milliseconds(10);
  options.run = &run;
  obs::ResourceSampler sampler(std::move(options));
  ASSERT_TRUE(sampler.start()) << sampler.error();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.samples(), 1u);

  auto& reg = obs::registry();
  ASSERT_NE(reg.find_gauge("process.rss_kb"), nullptr);
  EXPECT_GT(reg.find_gauge("process.rss_kb")->value(), 0);
  ASSERT_NE(reg.find_histogram("process.rss_sample_kb"), nullptr);
  EXPECT_GE(reg.find_histogram("process.rss_sample_kb")->count(), 1u);
  // stop() published the run's gauges one last time.
  ASSERT_NE(reg.find_gauge("survey.rows_done"), nullptr);
}

TEST(ProgressTrace, ProgressAndResourceRecordsRoundTrip) {
  const std::string path = testing::TempDir() + "lcl_obs_progress.jsonl";
  {
    obs::TraceSession session(path, obs::TraceFormat::kJsonl);
    const obs::TraceArg p1[] = {{"rows_done", 10}, {"rows_total", 40}};
    session.emit_progress("test-run-2", "survey", p1, 2);
    const obs::TraceArg r1[] = {{"rss_kb", 2048}, {"peak_rss_kb", 4096},
                                {"cpu_ms", 120}};
    session.emit_resource(r1, 3);
    const obs::TraceArg p2[] = {{"rows_done", 40}, {"rows_total", 40}};
    session.emit_progress("test-run-2", "survey", p2, 2);
    const obs::TraceArg p3[] = {{"rows_done", 40}, {"rows_total", 40}};
    session.emit_progress("test-run-2", "report", p3, 2);
    session.close();
  }

  obs::ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(obs::parse_trace(read_file(path), &trace, &error)) << error;

  const auto summary = obs::summarize(trace);
  EXPECT_EQ(summary.progress_records, 3u);
  EXPECT_EQ(summary.resource_records, 1u);
  EXPECT_NE(obs::format_summary(summary).find("telemetry records"),
            std::string::npos);

  const auto progress = obs::summarize_progress(trace);
  EXPECT_EQ(progress.run_id, "test-run-2");
  EXPECT_EQ(progress.progress_records, 3u);
  EXPECT_EQ(progress.resource_records, 1u);
  ASSERT_EQ(progress.phases.size(), 2u);
  EXPECT_EQ(progress.phases[0].phase, "survey");
  EXPECT_EQ(progress.phases[0].samples, 2u);
  EXPECT_EQ(progress.phases[0].rows_done, 40);
  EXPECT_EQ(progress.phases[1].phase, "report");
  EXPECT_EQ(progress.rows_done, 40);
  EXPECT_EQ(progress.rows_total, 40);
  EXPECT_EQ(progress.peak_rss_kb, 4096u);

  const std::string table = obs::format_progress(progress);
  EXPECT_NE(table.find("test-run-2"), std::string::npos);
  EXPECT_NE(table.find("survey"), std::string::npos);
  EXPECT_NE(table.find("report"), std::string::npos);
}

TEST(ProgressTrace, ChromeFormatRendersTelemetryAsInstants) {
  const std::string path = testing::TempDir() + "lcl_obs_progress.json";
  {
    obs::TraceSession session(path, obs::TraceFormat::kChromeJson);
    const obs::TraceArg p[] = {{"rows_done", 1}};
    session.emit_progress("test-run-3", "survey", p, 1);
    const obs::TraceArg r[] = {{"rss_kb", 1024}};
    session.emit_resource(r, 1);
    session.close();
  }
  const std::string text = read_file(path);
  std::string error;
  ASSERT_NE(obs::json::parse(text, &error), nullptr) << error;
  EXPECT_NE(text.find("progress/survey"), std::string::npos);
  EXPECT_NE(text.find("\"resource\""), std::string::npos);
}

TEST(ProgressTrace, SummarizeProgressOnAnEmptyTraceIsBenign) {
  obs::ParsedTrace trace;
  const auto progress = obs::summarize_progress(trace);
  EXPECT_EQ(progress.progress_records, 0u);
  EXPECT_EQ(progress.phases.size(), 0u);
  EXPECT_NE(obs::format_progress(progress).find("no progress"),
            std::string::npos);
}

}  // namespace
}  // namespace lcl
