// Regression gate over `lclscape.bench.v1` documents (the `--json` output
// of every bench_* binary).
//
//   bench_diff --baseline=OLD.json --current=NEW.json [--max-regress=0.25]
//       Match benchmarks by name and fail when any current wall time
//       exceeds its baseline by more than the threshold (default +25%).
//       A baseline row missing from the current run fails too: renaming or
//       dropping a pinned bench must not remove its gate unnoticed (a
//       rename lands together with its re-pinned baseline row). Rows only
//       in the current run are reported as NEW and pass.
//
//   bench_diff --current=RUN.json --min-speedup=SLOW:FAST:X
//       Machine-independent ratio gate within one document: fail unless
//       real_time(SLOW) / real_time(FAST) >= X. This is how CI pins the
//       mask-kernel speedup without trusting absolute runner speed.
//
// Both gates may be combined in one invocation. Exit codes: 0 = all gates
// pass, 1 = a gate failed, 2 = usage or parse failure.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/version.hpp"

namespace {

namespace json = lcl::obs::json;

int usage(std::ostream& out, int code) {
  out << "usage: bench_diff [options]\n"
         "  --baseline=FILE        lclscape.bench.v1 document to compare "
         "against\n"
         "                         (a baseline row missing from --current "
         "fails)\n"
         "  --current=FILE         document under test (required)\n"
         "  --max-regress=FRAC     allowed wall-time growth vs baseline\n"
         "                         (default 0.25 = +25%)\n"
         "  --min-speedup=S:F:X    require real_time(S) / real_time(F) >= X\n"
         "                         within the current document (repeatable)\n"
         "exit: 0 gates pass, 1 gate failed, 2 usage/parse\n";
  return code;
}

/// Benchmark rows by name, wall time normalized to nanoseconds.
std::optional<std::map<std::string, double>> load_rows(
    const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::cerr << "bench_diff: cannot open '" << path << "'\n";
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string error;
  const auto doc = json::parse(buffer.str(), &error);
  if (doc == nullptr || !doc->is_object()) {
    std::cerr << "bench_diff: '" << path << "': " << error << "\n";
    return std::nullopt;
  }
  const auto* schema = doc->find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "lclscape.bench.v1") {
    std::cerr << "bench_diff: '" << path
              << "' is not an lclscape.bench.v1 document\n";
    return std::nullopt;
  }
  const auto* benchmarks = doc->find("benchmarks");
  if (benchmarks == nullptr || !benchmarks->is_array()) {
    std::cerr << "bench_diff: '" << path << "' has no benchmarks array\n";
    return std::nullopt;
  }
  std::map<std::string, double> rows;
  for (const auto& row : benchmarks->as_array()) {
    if (!row.is_object()) continue;
    const auto* name = row.find("name");
    const auto* real_time = row.find("real_time");
    const auto* unit = row.find("time_unit");
    if (name == nullptr || !name->is_string() || real_time == nullptr ||
        !real_time->is_number()) {
      continue;
    }
    double to_ns = 1.0;
    if (unit != nullptr && unit->is_string()) {
      const std::string& u = unit->as_string();
      if (u == "us") to_ns = 1e3;
      else if (u == "ms") to_ns = 1e6;
      else if (u == "s") to_ns = 1e9;
      else if (u != "ns") {
        std::cerr << "bench_diff: '" << path << "': unknown time unit '" << u
                  << "' for " << name->as_string() << "\n";
        return std::nullopt;
      }
    }
    rows[name->as_string()] = real_time->as_double() * to_ns;
  }
  return rows;
}

std::string format_ns(double ns) {
  char buffer[64];
  if (ns >= 1e6) {
    std::snprintf(buffer, sizeof(buffer), "%.3f ms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buffer, sizeof(buffer), "%.3f us", ns / 1e3);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.1f ns", ns);
  }
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double max_regress = 0.25;
  struct SpeedupGate {
    std::string slow, fast;
    double ratio;
  };
  std::vector<SpeedupGate> speedup_gates;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg == "--version") {
      std::cout << lcl::version_string("bench_diff") << "\n";
      return 0;
    }
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg.rfind("--current=", 0) == 0) {
      current_path = arg.substr(10);
    } else if (arg.rfind("--max-regress=", 0) == 0) {
      char* end = nullptr;
      max_regress = std::strtod(arg.c_str() + 14, &end);
      if (end == nullptr || *end != '\0' || max_regress < 0) {
        std::cerr << "bench_diff: bad --max-regress '" << arg << "'\n";
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--min-speedup=", 0) == 0) {
      const std::string spec = arg.substr(14);
      const auto first = spec.find(':');
      const auto second =
          first == std::string::npos ? first : spec.find(':', first + 1);
      if (first == std::string::npos || second == std::string::npos) {
        std::cerr << "bench_diff: --min-speedup expects SLOW:FAST:RATIO\n";
        return usage(std::cerr, 2);
      }
      SpeedupGate gate;
      gate.slow = spec.substr(0, first);
      gate.fast = spec.substr(first + 1, second - first - 1);
      char* end = nullptr;
      gate.ratio = std::strtod(spec.c_str() + second + 1, &end);
      if (end == nullptr || *end != '\0' || gate.ratio <= 0 ||
          gate.slow.empty() || gate.fast.empty()) {
        std::cerr << "bench_diff: bad --min-speedup '" << spec << "'\n";
        return usage(std::cerr, 2);
      }
      speedup_gates.push_back(std::move(gate));
    } else {
      std::cerr << "bench_diff: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }
  if (current_path.empty()) {
    std::cerr << "bench_diff: --current is required\n";
    return usage(std::cerr, 2);
  }
  if (baseline_path.empty() && speedup_gates.empty()) {
    std::cerr << "bench_diff: nothing to check (need --baseline and/or "
                 "--min-speedup)\n";
    return usage(std::cerr, 2);
  }

  const auto current = load_rows(current_path);
  if (!current.has_value()) return 2;

  bool failed = false;

  if (!baseline_path.empty()) {
    const auto baseline = load_rows(baseline_path);
    if (!baseline.has_value()) return 2;
    for (const auto& [name, base_ns] : *baseline) {
      const auto found = current->find(name);
      if (found == current->end()) {
        std::cout << "MISSING  " << name << " (in baseline only)\n";
        failed = true;
        continue;
      }
      const double ratio = base_ns > 0 ? found->second / base_ns : 1.0;
      const bool regressed = ratio > 1.0 + max_regress;
      std::cout << (regressed ? "REGRESS  " : "ok       ") << name << "  "
                << format_ns(base_ns) << " -> " << format_ns(found->second)
                << "  (" << static_cast<int>(ratio * 100.0) << "% of baseline"
                << ", limit " << static_cast<int>((1.0 + max_regress) * 100.0)
                << "%)\n";
      if (regressed) failed = true;
    }
    for (const auto& [name, ns] : *current) {
      if (baseline->find(name) == baseline->end()) {
        std::cout << "NEW      " << name << "  " << format_ns(ns) << "\n";
      }
    }
  }

  for (const auto& gate : speedup_gates) {
    const auto slow = current->find(gate.slow);
    const auto fast = current->find(gate.fast);
    if (slow == current->end() || fast == current->end()) {
      std::cerr << "bench_diff: --min-speedup: benchmark '"
                << (slow == current->end() ? gate.slow : gate.fast)
                << "' not in " << current_path << "\n";
      return 2;
    }
    const double ratio =
        fast->second > 0 ? slow->second / fast->second : 0.0;
    const bool ok = ratio >= gate.ratio;
    std::cout << (ok ? "ok       " : "TOO-SLOW ") << gate.slow << " / "
              << gate.fast << " = " << ratio << "x (require >= " << gate.ratio
              << "x)\n";
    if (!ok) failed = true;
  }

  return failed ? 1 : 0;
}
