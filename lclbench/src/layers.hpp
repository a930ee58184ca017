#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"

// Per-layer metrics from the library's own spans. A traced invocation runs
// the workload's real code path under an `obs::TraceSession`; the spans the
// layers already emit (re/reduce, re/R, re/Rbar, re/zero_round,
// classify/cycles, classify/paths, lint/run, batch/problem, batch/task,
// batch/survey) are read back with `obs::parse_trace` and summarized with
// `obs::summarize`. Nothing here re-implements a layer's work.
namespace lclbench {

/// Records the library's spans into `path` (Chrome trace-event JSON, which
/// Perfetto opens) from construction until `finish()`.
class LibraryTrace {
 public:
  explicit LibraryTrace(std::string path);
  ~LibraryTrace();
  LibraryTrace(const LibraryTrace&) = delete;
  LibraryTrace& operator=(const LibraryTrace&) = delete;

  /// Detaches and closes the session, then parses the file back. Throws
  /// `std::runtime_error` when the trace cannot be read.
  lcl::obs::ParsedTrace finish();

 private:
  std::string path_;
  lcl::obs::TraceSession session_;
  lcl::obs::TraceSession* previous_ = nullptr;
  bool finished_ = false;
};

/// Spans of one name, in start order.
std::vector<const lcl::obs::TraceRecord*> spans_named(
    const lcl::obs::ParsedTrace& trace, const std::string& name);

/// Adds the re.*, classify.*, lint.run.* and batch.member.self_s metrics
/// of a trace recorded on one thread at a time (self times need that), then
/// the member metrics below, and logs the self-time table.
void add_layer_metrics(const lcl::obs::ParsedTrace& trace,
                       const std::vector<std::string>& member_names,
                       std::map<std::string, double>& metrics,
                       std::ostream& log);

/// batch.member.max_s and batch.member.top10_share from the batch/problem
/// spans, and a log of the ten slowest; `member_names[i]` names the i-th
/// span in start order (unnamed when the list is short).
void add_member_metrics(const lcl::obs::ParsedTrace& trace,
                        const std::vector<std::string>& member_names,
                        std::map<std::string, double>& metrics,
                        std::ostream& log);

}  // namespace lclbench
