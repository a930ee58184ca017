#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace lcl::svc {

/// One HTTP header. Names are matched case-insensitively on lookup; the
/// original spelling is preserved for pass-through.
struct Header {
  std::string name;
  std::string value;
};

/// Case-insensitive ASCII comparison (HTTP header names, token values).
bool iequals(std::string_view a, std::string_view b) noexcept;

/// A parsed inbound request. `target` is the raw request target; `path` and
/// `query` are its two halves around the first '?'.
struct HttpRequest {
  std::string method;   // "GET", "POST", ... (verbatim)
  std::string target;   // "/v1/survey/s1?wait=1"
  std::string path;     // "/v1/survey/s1"
  std::string query;    // "wait=1" ("" when absent)
  std::string version;  // "HTTP/1.1"
  std::vector<Header> headers;
  std::string body;

  /// First header with this name (case-insensitive) or nullptr.
  const std::string* header(std::string_view name) const noexcept;
  /// HTTP/1.1 defaults to keep-alive unless `Connection: close`; HTTP/1.0
  /// defaults to close unless `Connection: keep-alive`.
  bool keep_alive() const noexcept;
};

/// What a handler returns. The server adds Content-Length, Connection, and
/// the status reason phrase itself.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<Header> extra_headers;
};

/// Canonical reason phrase for the status codes this codebase emits;
/// "Unknown" otherwise (the code still serializes).
const char* status_reason(int status) noexcept;

/// Dependency-free threaded HTTP/1.1 server - the shared transport under
/// `obs::Exporter` (metrics scrapes) and `svc::Service` (the lcld API).
///
/// Model: one accept thread plus connection threads that outlive their
/// connections. The accept thread queues each accepted socket for a parked
/// connection thread and starts a new thread only when none is idle; at
/// most `Options::max_connections` connections are live (queued or being
/// served) at once, so at most that many connection threads ever exist.
/// Beyond the cap a connection is answered `503` and closed without being
/// queued. Connections are keep-alive by default; each parsed request is
/// handed to `Options::handler`, whose exceptions map to a plain `500`. The
/// server itself answers the *transport*-level errors - `400` malformed
/// request line/headers, `408` read timeout on a partial request, `413`
/// body over `max_body_bytes`, `431` headers over `max_header_bytes`, `501`
/// chunked transfer encoding - always with `Connection: close`.
/// Routing-level `404`/`405` are the handler's business. Socket calls
/// interrupted by a signal are retried, so neither side drops a request
/// when the process handles signals (with or without `SA_RESTART`).
///
/// Shutdown is two-phase: `drain()` stops accepting (listen socket closes),
/// lets in-flight requests finish (their responses are sent
/// `Connection: close`), closes idle keep-alive connections, and joins the
/// connection threads, each of which exits once no connection is left for
/// it. `stop()` is `drain()` plus joining the accept thread; the destructor
/// calls `stop()`.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  struct Options {
    /// Loopback by default so a box does not silently expose the API.
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port (read back via `port()`).
    std::uint16_t port = 0;
    /// Request line + headers cap; beyond it the request is answered 431.
    std::size_t max_header_bytes = 16 * 1024;
    /// Body cap (Content-Length and actual bytes); beyond it 413.
    std::size_t max_body_bytes = 1 << 20;
    /// Seconds a partial request (or an idle keep-alive connection) may
    /// sit before the connection is timed out (408 on partial reads).
    int read_timeout_seconds = 5;
    /// Cap on live connections, and so on connection threads; the overflow
    /// connection is answered 503.
    std::size_t max_connections = 32;
    /// false = every response carries `Connection: close` (the exporter's
    /// one-request-per-connection contract).
    bool keep_alive = true;
    Handler handler;
  };

  HttpServer() = default;
  explicit HttpServer(Options options) : options_(std::move(options)) {}
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens, and spawns the accept thread. Returns false with
  /// `error()` set when the address is unusable or no handler was given.
  /// Idempotent while running.
  bool start();

  /// Graceful shutdown: stop accepting, finish in-flight requests, close
  /// idle connections, join every connection thread. Idempotent; `start()`
  /// may be called again afterwards.
  void drain();

  /// `drain()` + join the accept thread + close the listen socket. Called
  /// by the destructor.
  void stop();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound port (resolves port 0 after a successful `start()`).
  std::uint16_t port() const noexcept { return bound_port_; }
  const std::string& error() const noexcept { return error_; }

  /// Requests answered so far (handler responses and transport errors).
  std::uint64_t requests_served() const noexcept {
    return served_.load(std::memory_order_relaxed);
  }
  /// Connections refused with 503 because `max_connections` was reached.
  std::uint64_t connections_rejected() const noexcept {
    return rejected_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  void connection_thread();
  void serve_connection(int fd);

  Options options_;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> rejected_{0};
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::string error_;

  // Guarded by conn_mutex_. `live_connections_` counts queued plus served
  // sockets; `idle_threads_` counts connection threads not serving one
  // (parked, just started, or woken and not yet holding the lock), and
  // never falls below `pending_.size()`, so every queued socket has a
  // thread on its way. Parked threads wait on `work_cv_`.
  std::mutex conn_mutex_;
  std::condition_variable work_cv_;
  std::deque<int> pending_;
  std::size_t live_connections_ = 0;
  std::size_t idle_threads_ = 0;
  bool stopping_threads_ = false;

  // Started by the accept thread and joined by drain() after it has joined
  // the accept thread, so only one thread at a time touches the vector.
  std::vector<std::thread> threads_;
};

/// Options for the blocking test/CLI client below.
struct HttpClientOptions {
  /// Hard cap on the response (headers + body); beyond it the request
  /// throws instead of silently truncating.
  std::size_t max_response_bytes = 8u << 20;
  /// Socket receive timeout.
  int timeout_seconds = 30;
};

/// A fully read client-side response.
struct HttpClientResponse {
  int status = 0;              // parsed from the status line
  std::string status_line;     // "HTTP/1.1 200 OK"
  std::vector<Header> headers;
  std::string body;

  const std::string* header(std::string_view name) const noexcept;
};

/// Minimal blocking HTTP/1.1 client for tests and CLIs: one request, one
/// fully validated response (`Connection: close` is always sent). Unlike a
/// read-to-EOF loop this *verifies* the transfer: a response whose body is
/// shorter than its Content-Length throws "truncated", one beyond
/// `max_response_bytes` throws "exceeds cap", a missing header terminator
/// or unparsable status line throws "malformed" - it never hands back a
/// silently incomplete body. Throws `std::runtime_error` on any connect /
/// transport / validation failure.
HttpClientResponse http_request(const std::string& host, std::uint16_t port,
                                const std::string& method,
                                const std::string& path,
                                const std::string& body = std::string(),
                                const std::string& content_type =
                                    "application/json",
                                const HttpClientOptions& options = {});

}  // namespace lcl::svc
