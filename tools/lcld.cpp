// Long-running LCL classification daemon: serves the versioned /v1 API
// (classify / lint / synthesize / survey) on the shared batch runtime,
// with admission control and a warm, resumable result cache.
//
//   lcld --port=8080 --jobs=4 --cache-dir=/var/lib/lcld
//   lcld --port=0 --port-file=port.txt      # ephemeral port for tests/CI
//
// SIGTERM/SIGINT drain gracefully: the listener closes, in-flight requests
// (including async surveys) finish, the cache's JSONL tier is already
// flushed per insert, and the process exits 0.
//
// Exit codes: 0 = clean start and drain, 2 = usage or startup failure.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "obs/exporter.hpp"
#include "obs/obs.hpp"
#include "obs/run_context.hpp"
#include "svc/http.hpp"
#include "svc/service.hpp"
#include "util/parse.hpp"
#include "util/version.hpp"

namespace {

using lcl::parse_u64;

// Written by the signal handler, polled by the main loop. sig_atomic_t is
// the only type the standard guarantees for this handshake.
volatile std::sig_atomic_t g_shutdown = 0;

void on_signal(int) { g_shutdown = 1; }

int usage(std::ostream& out, int code) {
  out << "usage: lcld [options]\n"
         "  --port=N           TCP port (default 8080; 0 = pick a free "
         "port)\n"
         "  --bind=ADDR        bind address (default 127.0.0.1)\n"
         "  --port-file=FILE   write the bound port here once listening\n"
         "  --jobs=N           worker threads (default 0 = all cores)\n"
         "  --max-inflight=N   compute requests admitted at once before\n"
         "                     429 (default 8)\n"
         "  --max-connections=N  live HTTP connections before 503 "
         "(default 32)\n"
         "  --cache-dir=DIR    keep the on-disk result cache here\n"
         "  --no-resume        truncate an existing cache instead of\n"
         "                     replaying it (default resumes)\n"
         "  --max-steps=N      per-request step-budget ceiling (default 4)\n"
         "  --max-labels=N     per-request label ceiling (default 4096)\n"
         "  --max-configs=N    per-request config ceiling (default "
         "4000000)\n"
         "  --run-id=ID        correlation id prefix (default lcld)\n"
         "  --version          print version and exit\n"
         "exit: 0 clean drain, 2 usage/startup failure\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string bind_address = "127.0.0.1";
  std::uint64_t port = 8080;
  std::string port_file;
  std::string cache_dir;
  bool resume = true;
  lcl::svc::Service::Options service_options;
  service_options.engine.max_steps = 4;
  std::uint64_t max_connections = 32;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    std::uint64_t value = 0;
    if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg == "--version") {
      std::cout << lcl::version_string("lcld") << "\n";
      return 0;
    } else if (arg == "--no-resume") {
      resume = false;
    } else if (arg.rfind("--port=", 0) == 0) {
      if (!parse_u64(value_of("--port="), port) || port > 65535) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--bind=", 0) == 0) {
      bind_address = value_of("--bind=");
    } else if (arg.rfind("--port-file=", 0) == 0) {
      port_file = value_of("--port-file=");
    } else if (arg.rfind("--jobs=", 0) == 0) {
      if (!parse_u64(value_of("--jobs="), value)) return usage(std::cerr, 2);
      service_options.jobs = static_cast<std::size_t>(value);
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      if (!parse_u64(value_of("--max-inflight="), value) || value == 0) {
        return usage(std::cerr, 2);
      }
      service_options.max_inflight = static_cast<std::size_t>(value);
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      if (!parse_u64(value_of("--max-connections="), max_connections) ||
          max_connections == 0) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--cache-dir=", 0) == 0) {
      cache_dir = value_of("--cache-dir=");
    } else if (arg.rfind("--max-steps=", 0) == 0) {
      if (!parse_u64(value_of("--max-steps="), value)) {
        return usage(std::cerr, 2);
      }
      service_options.engine.max_steps = static_cast<int>(value);
    } else if (arg.rfind("--max-labels=", 0) == 0) {
      if (!parse_u64(value_of("--max-labels="), value)) {
        return usage(std::cerr, 2);
      }
      service_options.engine.limits.max_labels =
          static_cast<std::size_t>(value);
    } else if (arg.rfind("--max-configs=", 0) == 0) {
      if (!parse_u64(value_of("--max-configs="),
                     service_options.engine.limits.max_configs)) {
        return usage(std::cerr, 2);
      }
    } else if (arg.rfind("--run-id=", 0) == 0) {
      service_options.tool = value_of("--run-id=");
    } else {
      std::cerr << "lcld: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  try {
    // Metrics are the daemon's primary observability surface; turn the
    // runtime switch on unless the operator said otherwise.
    if (lcl::obs::telemetry_compiled_in()) {
      const char* env = std::getenv("LCL_OBS");
      lcl::obs::set_metrics_enabled(env == nullptr ||
                                    std::string(env) != "0");
    }

    if (!cache_dir.empty()) {
      std::filesystem::create_directories(cache_dir);
      service_options.cache_path =
          (std::filesystem::path(cache_dir) / "cache.jsonl").string();
      service_options.cache_resume = resume;
    }
    service_options.const_labels = {{"service", service_options.tool}};

    lcl::svc::Service service(service_options);

    lcl::svc::HttpServer::Options http;
    http.bind_address = bind_address;
    http.port = static_cast<std::uint16_t>(port);
    http.max_connections = static_cast<std::size_t>(max_connections);
    http.handler = [&service](const lcl::svc::HttpRequest& request) {
      return service.handle(request);
    };
    lcl::svc::HttpServer server(std::move(http));
    if (!server.start()) {
      std::cerr << "lcld: " << server.error() << "\n";
      return 2;
    }

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      if (!out.is_open()) {
        std::cerr << "lcld: cannot write '" << port_file << "'\n";
        return 2;
      }
      out << server.port() << "\n";
    }

    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    std::cout << lcl::version_string("lcld") << "\n"
              << "listening:  http://" << bind_address << ":" << server.port()
              << "  (jobs="
              << (service_options.jobs == 0
                      ? static_cast<std::size_t>(
                            std::thread::hardware_concurrency())
                      : service_options.jobs)
              << ", max_inflight=" << service_options.max_inflight << ")\n";
    if (!service_options.cache_path.empty()) {
      const auto stats = service.cache().stats();
      std::cout << "cache:      " << service_options.cache_path << "  ("
                << stats.disk_loaded << " entries replayed)\n";
    }
    std::cout.flush();

    while (g_shutdown == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    // Two-phase drain: stop accepting and finish in-flight HTTP first,
    // then wait out admitted async work (surveys) on the pool.
    std::cout << "draining...\n" << std::flush;
    server.drain();
    service.drain();
    server.stop();
    std::cout << "drained: " << server.requests_served()
              << " requests served, " << service.rejected()
              << " rejected\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "lcld: " << e.what() << "\n";
    return 2;
  }
}
