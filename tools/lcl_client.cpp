// CLI client for a running lcld daemon: posts spec files to the /v1 API
// and prints the JSON responses.
//
//   lcl_client --port=8080 classify mis.json
//   lcl_client --port=8080 lint spec.json
//   lcl_client --port=8080 synthesize spec.json
//   lcl_client --port=8080 survey --delta=2 --labels=2
//   lcl_client --port=8080 status SURVEY_ID [--wait]
//   lcl_client --port=8080 health | metrics | version
//
// Exit codes: 0 = 2xx response, 1 = the daemon answered 4xx/5xx (the
// structured error body is printed), 2 = usage/transport failure.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "svc/http.hpp"
#include "util/parse.hpp"
#include "util/version.hpp"

namespace {

using lcl::parse_u64;

namespace json = lcl::obs::json;

int usage(std::ostream& out, int code) {
  out << "usage: lcl_client [--host=H] [--port=N] COMMAND [args]\n"
         "  classify SPEC.json [--max-steps=N] [--degrees=CSV]\n"
         "                     [--check-nodes=N] [--check-budget=N]\n"
         "  lint SPEC.json\n"
         "  synthesize SPEC.json [--max-steps=N] [--degrees=CSV]\n"
         "  survey [--delta=N] [--labels=N] [--max-problems=N]\n"
         "         [--max-steps=N]        start an async exhaustive survey\n"
         "  status SURVEY_ID [--wait]     poll (or wait out) a survey\n"
         "  health | metrics | version    daemon probes\n"
         "  --version                     print client version and exit\n"
         "exit: 0 = 2xx, 1 = daemon error response, 2 = usage/transport\n";
  return code;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw std::runtime_error("cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Wraps a spec file's JSON with the request "options" assembled from the
/// command line. The spec may be bare or already a {"problem": ...}
/// wrapper; either way the daemon's parser accepts the result.
std::string request_body(const std::string& spec_text,
                         const std::vector<std::string>& option_args) {
  std::string error;
  const auto spec = json::parse(spec_text, &error);
  if (spec == nullptr) {
    throw std::runtime_error("spec is not JSON: " + error);
  }
  json::Value root = json::Value::make_object();
  if (spec->is_object() && spec->find("problem") != nullptr) {
    root.object()["problem"] = *spec->find("problem");
  } else {
    root.object()["problem"] = *spec;
  }
  if (!option_args.empty()) {
    json::Value options = json::Value::make_object();
    for (const auto& arg : option_args) {
      const auto set_u64 = [&options, &arg](const std::string& prefix,
                                            const char* key) {
        if (arg.rfind(prefix, 0) != 0) return false;
        std::uint64_t value = 0;
        if (!parse_u64(arg.substr(prefix.size()), value)) {
          throw std::runtime_error("bad value in '" + arg + "'");
        }
        options.object()[key] =
            json::Value(static_cast<std::int64_t>(value));
        return true;
      };
      if (set_u64("--max-steps=", "max_steps")) continue;
      if (set_u64("--max-labels=", "max_labels")) continue;
      if (set_u64("--max-configs=", "max_configs")) continue;
      if (set_u64("--check-nodes=", "check_nodes")) continue;
      if (set_u64("--check-budget=", "check_budget")) continue;
      if (arg.rfind("--degrees=", 0) == 0) {
        json::Value degrees = json::Value::make_array();
        std::istringstream in(arg.substr(std::string("--degrees=").size()));
        std::string item;
        while (std::getline(in, item, ',')) {
          std::uint64_t value = 0;
          if (!parse_u64(item, value)) {
            throw std::runtime_error("bad value in '" + arg + "'");
          }
          degrees.array().push_back(
              json::Value(static_cast<std::int64_t>(value)));
        }
        options.object()["degrees"] = std::move(degrees);
        continue;
      }
      throw std::runtime_error("unknown option '" + arg + "'");
    }
    root.object()["options"] = std::move(options);
  }
  return json::dump(root);
}

/// Prints the response body and maps the status to the exit code.
int finish(const lcl::svc::HttpClientResponse& response) {
  std::cout << response.body;
  if (!response.body.empty() && response.body.back() != '\n') {
    std::cout << "\n";
  }
  if (response.status >= 200 && response.status < 300) return 0;
  std::cerr << "lcl_client: daemon answered " << response.status_line << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint64_t port = 8080;
  std::string command;
  std::vector<std::string> rest;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (command.empty()) {
      if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
      if (arg == "--version") {
        std::cout << lcl::version_string("lcl_client") << "\n";
        return 0;
      }
      if (arg.rfind("--host=", 0) == 0) {
        host = arg.substr(std::string("--host=").size());
        continue;
      }
      if (arg.rfind("--port=", 0) == 0) {
        if (!parse_u64(arg.substr(std::string("--port=").size()), port) ||
            port == 0 || port > 65535) {
          return usage(std::cerr, 2);
        }
        continue;
      }
      command = arg;
    } else {
      rest.push_back(arg);
    }
  }
  if (command.empty()) return usage(std::cerr, 2);
  const auto p = static_cast<std::uint16_t>(port);

  try {
    if (command == "health") {
      return finish(lcl::svc::http_request(host, p, "GET", "/healthz"));
    }
    if (command == "metrics") {
      return finish(lcl::svc::http_request(host, p, "GET", "/metrics"));
    }
    if (command == "version") {
      return finish(lcl::svc::http_request(host, p, "GET", "/version"));
    }
    if (command == "classify" || command == "lint" ||
        command == "synthesize") {
      if (rest.empty()) return usage(std::cerr, 2);
      const std::string spec_text = read_file(rest.front());
      const std::string body = request_body(
          spec_text, {rest.begin() + 1, rest.end()});
      return finish(
          lcl::svc::http_request(host, p, "POST", "/v1/" + command, body));
    }
    if (command == "survey") {
      json::Value family = json::Value::make_object();
      family.object()["kind"] = json::Value(std::string("exhaustive"));
      json::Value options = json::Value::make_object();
      for (const auto& arg : rest) {
        std::uint64_t value = 0;
        if (arg.rfind("--delta=", 0) == 0 &&
            parse_u64(arg.substr(8), value)) {
          family.object()["max_degree"] =
              json::Value(static_cast<std::int64_t>(value));
        } else if (arg.rfind("--labels=", 0) == 0 &&
                   parse_u64(arg.substr(9), value)) {
          family.object()["labels"] =
              json::Value(static_cast<std::int64_t>(value));
        } else if (arg.rfind("--max-problems=", 0) == 0 &&
                   parse_u64(arg.substr(15), value)) {
          family.object()["max_problems"] =
              json::Value(static_cast<std::int64_t>(value));
        } else if (arg.rfind("--max-steps=", 0) == 0 &&
                   parse_u64(arg.substr(12), value)) {
          options.object()["max_steps"] =
              json::Value(static_cast<std::int64_t>(value));
        } else {
          std::cerr << "lcl_client: unknown option '" << arg << "'\n";
          return usage(std::cerr, 2);
        }
      }
      json::Value root = json::Value::make_object();
      root.object()["family"] = std::move(family);
      if (!options.as_object().empty()) {
        root.object()["options"] = std::move(options);
      }
      return finish(lcl::svc::http_request(host, p, "POST", "/v1/survey",
                                           json::dump(root)));
    }
    if (command == "status") {
      if (rest.empty()) return usage(std::cerr, 2);
      const std::string id = rest.front();
      const bool wait =
          rest.size() > 1 && std::string(rest[1]) == "--wait";
      for (;;) {
        const auto response =
            lcl::svc::http_request(host, p, "GET", "/v1/survey/" + id);
        if (!wait || response.status != 200) return finish(response);
        std::string error;
        const auto doc = json::parse(response.body, &error);
        const json::Value* status =
            doc != nullptr ? doc->find("status") : nullptr;
        if (status == nullptr || !status->is_string() ||
            status->as_string() != "running") {
          return finish(response);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
    }
    std::cerr << "lcl_client: unknown command '" << command << "'\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& e) {
    std::cerr << "lcl_client: " << e.what() << "\n";
    return 2;
  }
}
