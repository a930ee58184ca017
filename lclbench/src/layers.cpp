#include "layers.hpp"

#include <algorithm>
#include <fstream>
#include <functional>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace lclbench {

namespace {

using lcl::obs::ParsedTrace;
using lcl::obs::PhaseSummary;
using lcl::obs::TraceRecord;

double seconds(std::int64_t us) { return static_cast<double>(us) * 1e-6; }

}  // namespace

LibraryTrace::LibraryTrace(std::string path)
    : path_(std::move(path)),
      session_(path_, lcl::obs::TraceFormat::kChromeJson) {
  previous_ = lcl::obs::TraceSession::set_current(&session_);
}

LibraryTrace::~LibraryTrace() {
  if (!finished_) lcl::obs::TraceSession::set_current(previous_);
}

ParsedTrace LibraryTrace::finish() {
  lcl::obs::TraceSession::set_current(previous_);
  finished_ = true;
  session_.close();
  std::ifstream in(path_);
  std::stringstream text;
  text << in.rdbuf();
  ParsedTrace trace;
  std::string error;
  if (!in || !lcl::obs::parse_trace(text.str(), &trace, &error)) {
    throw std::runtime_error("cannot read trace " + path_ + ": " + error);
  }
  return trace;
}

std::vector<const TraceRecord*> spans_named(const ParsedTrace& trace,
                                            const std::string& name) {
  std::vector<const TraceRecord*> spans;
  for (const auto& record : trace.records) {
    if (record.kind == TraceRecord::Kind::kSpan && record.name == name) {
      spans.push_back(&record);
    }
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceRecord* a, const TraceRecord* b) {
                     return a->ts_us < b->ts_us;
                   });
  return spans;
}

void add_layer_metrics(const ParsedTrace& trace,
                       const std::vector<std::string>& member_names,
                       std::map<std::string, double>& metrics,
                       std::ostream& log) {
  const lcl::obs::TraceSummary summary = lcl::obs::summarize(trace);
  std::map<std::string, PhaseSummary> phases;
  for (const auto& phase : summary.phases) phases[phase.name] = phase;
  const auto phase = [&phases](const char* name) {
    const auto it = phases.find(name);
    return it == phases.end() ? PhaseSummary{} : it->second;
  };
  const auto self_s = [&phase](const char* name) {
    return seconds(phase(name).self_us);
  };

  const PhaseSummary reduce = phase("re/reduce");
  metrics["re.reduce.s"] = seconds(reduce.self_us);
  metrics["re.reduce.calls"] = static_cast<double>(reduce.count);
  metrics["re.reduce.max_s"] = seconds(reduce.max_us);
  const auto labels = reduce.args_total.find("labels_in");
  metrics["re.reduce.labels_in"] =
      labels == reduce.args_total.end() ? 0.0
                                        : static_cast<double>(labels->second);
  metrics["re.R.s"] = self_s("re/R");
  metrics["re.Rbar.s"] = self_s("re/Rbar");
  metrics["re.zero_round.s"] = self_s("re/zero_round");
  metrics["re.zero_round.calls"] =
      static_cast<double>(phase("re/zero_round").count);
  // The classifiers' helper spans are classifier work too.
  metrics["classify.cycles.s"] =
      self_s("classify/cycles") + self_s("classify/cycle_length");
  metrics["classify.paths.s"] =
      self_s("classify/paths") + self_s("classify/path_length");
  metrics["classify.calls"] = static_cast<double>(
      phase("classify/cycles").count + phase("classify/paths").count);
  metrics["lint.run.s"] = self_s("lint/run");
  metrics["lint.run.calls"] = static_cast<double>(phase("lint/run").count);
  metrics["batch.member.self_s"] = self_s("batch/problem");

  log << "span self time (calls, inclusive s, self s, max s), "
      << seconds(summary.wall_us) << " s traced:\n";
  for (const auto& p : summary.phases) {
    log << "  " << std::left << std::setw(22) << p.name << std::right
        << std::setw(8) << p.count << std::fixed << std::setprecision(4)
        << std::setw(10) << seconds(p.total_us) << std::setw(10)
        << seconds(p.self_us) << std::setw(10) << seconds(p.max_us)
        << std::defaultfloat << "\n";
  }
  add_member_metrics(trace, member_names, metrics, log);
}

void add_member_metrics(const ParsedTrace& trace,
                        const std::vector<std::string>& member_names,
                        std::map<std::string, double>& metrics,
                        std::ostream& log) {
  const auto members = spans_named(trace, "batch/problem");
  std::vector<std::pair<double, std::string>> by_time;
  for (std::size_t i = 0; i < members.size(); ++i) {
    std::string name = "#";
    name += std::to_string(i);
    by_time.emplace_back(seconds(members[i]->dur_us),
                         i < member_names.size() ? member_names[i] : name);
  }
  std::sort(by_time.begin(), by_time.end(), std::greater<>());
  const std::size_t top = std::min<std::size_t>(10, by_time.size());
  const auto sum = [](double acc, const auto& m) { return acc + m.first; };
  const double all_s =
      std::accumulate(by_time.begin(), by_time.end(), 0.0, sum);
  const double top_s = std::accumulate(
      by_time.begin(), by_time.begin() + static_cast<long>(top), 0.0, sum);
  metrics["batch.member.max_s"] = by_time.empty() ? 0.0 : by_time[0].first;
  metrics["batch.member.top10_share"] = all_s > 0.0 ? top_s / all_s : 0.0;

  log << "slowest " << top << " of " << by_time.size()
      << " members (s, share of member time):\n";
  for (std::size_t i = 0; i < top; ++i) {
    log << "  " << std::left << std::setw(22) << by_time[i].second
        << std::right << std::fixed << std::setprecision(4) << std::setw(10)
        << by_time[i].first << std::setw(8) << std::setprecision(3)
        << (all_s > 0.0 ? by_time[i].first / all_s : 0.0)
        << std::defaultfloat << "\n";
  }
}

}  // namespace lclbench
