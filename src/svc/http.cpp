#include "svc/http.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include "util/parse.hpp"

namespace lcl::svc {

namespace {

// Every blocking socket call below retries EINTR: the kernel never restarts
// poll(), nor recv()/send() on a socket with a timeout, even under
// SA_RESTART, so any signal the process handles would otherwise drop or
// truncate a request.

void write_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

ssize_t recv_some(int fd, char* buffer, std::size_t size) {
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, size, 0);
    if (n >= 0 || errno != EINTR) return n;
  }
}

/// connect() that survives a signal. An interrupted connect keeps going
/// in the background, so this waits for the socket to turn writable and
/// reads the outcome from SO_ERROR rather than calling connect again.
/// Returns 0 or an errno value.
int connect_socket(int fd, const sockaddr_in& addr, int timeout_seconds) {
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    return 0;
  }
  if (errno != EINTR) return errno;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(timeout_seconds);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return ETIMEDOUT;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int ready = ::poll(
        &pfd, 1, static_cast<int>(std::min<std::int64_t>(left, INT_MAX)));
    if (ready > 0) break;
    if (ready < 0 && errno != EINTR) return errno;
  }
  int error = 0;
  socklen_t length = sizeof(error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &error, &length) != 0) {
    return errno;
  }
  return error;
}

/// Opens a bound, listening IPv4 socket; returns -1 with `error` set.
int open_listener(const std::string& bind_address, std::uint16_t port,
                  std::uint16_t* bound_port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    *error = "bad bind address '" + bind_address + "'";
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, 64) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    *error = std::string("getsockname: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  *bound_port = ntohs(bound.sin_port);
  return fd;
}

/// Strips one trailing '\r' (header lines are split on '\n' so both CRLF
/// and bare-LF requests parse).
std::string_view strip_cr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Where the request headers end: index one past the blank line, or npos.
/// Accepts CRLFCRLF and bare LFLF.
std::size_t header_end(std::string_view buffer) {
  const auto crlf = buffer.find("\r\n\r\n");
  const auto lf = buffer.find("\n\n");
  if (crlf == std::string_view::npos) {
    return lf == std::string_view::npos ? std::string_view::npos : lf + 2;
  }
  if (lf == std::string_view::npos || crlf + 4 <= lf + 2) return crlf + 4;
  return lf + 2;
}

/// Outcome of parsing one request head; `error_status` 0 means OK.
struct ParsedHead {
  HttpRequest request;
  int error_status = 0;
  std::string error_message;
  std::size_t content_length = 0;
};

ParsedHead parse_head(std::string_view head) {
  ParsedHead out;
  std::size_t pos = 0;
  const auto next_line = [&]() -> std::string_view {
    const auto eol = head.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? head.substr(pos)
                                : head.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? head.size() : eol + 1;
    return strip_cr(line);
  };

  const std::string_view request_line = next_line();
  const auto first_space = request_line.find(' ');
  const auto last_space = request_line.rfind(' ');
  if (first_space == std::string_view::npos || first_space == last_space ||
      first_space == 0) {
    out.error_status = 400;
    out.error_message = "malformed request line";
    return out;
  }
  out.request.method = std::string(request_line.substr(0, first_space));
  out.request.target = std::string(trim(
      request_line.substr(first_space + 1, last_space - first_space - 1)));
  out.request.version = std::string(request_line.substr(last_space + 1));
  if (out.request.target.empty() || out.request.target.front() != '/' ||
      out.request.version.rfind("HTTP/", 0) != 0) {
    out.error_status = 400;
    out.error_message = "malformed request line";
    return out;
  }
  const auto question = out.request.target.find('?');
  out.request.path = out.request.target.substr(0, question);
  out.request.query = question == std::string::npos
                          ? std::string()
                          : out.request.target.substr(question + 1);

  while (pos < head.size()) {
    const std::string_view line = next_line();
    if (line.empty()) break;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      out.error_status = 400;
      out.error_message = "malformed header line";
      return out;
    }
    out.request.headers.push_back(Header{
        std::string(trim(line.substr(0, colon))),
        std::string(trim(line.substr(colon + 1)))});
  }

  if (const std::string* te = out.request.header("Transfer-Encoding");
      te != nullptr && !iequals(*te, "identity")) {
    out.error_status = 501;
    out.error_message = "chunked transfer encoding not supported";
    return out;
  }
  if (const std::string* cl = out.request.header("Content-Length")) {
    std::uint64_t parsed = 0;
    if (!parse_u64(*cl, parsed)) {
      out.error_status = 400;
      out.error_message = "malformed Content-Length";
      return out;
    }
    out.content_length = static_cast<std::size_t>(parsed);
  }
  return out;
}

std::string render_response(const HttpResponse& response, bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& header : response.extra_headers) {
    out += header.name + ": " + header.value + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                    : "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpResponse plain_error(int status, std::string message) {
  HttpResponse response;
  response.status = status;
  response.content_type = "text/plain; charset=utf-8";
  message += '\n';
  response.body = std::move(message);
  return response;
}

}  // namespace

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

const std::string* HttpRequest::header(std::string_view name) const noexcept {
  for (const auto& header : headers) {
    if (iequals(header.name, name)) return &header.value;
  }
  return nullptr;
}

bool HttpRequest::keep_alive() const noexcept {
  const std::string* connection = header("Connection");
  if (version == "HTTP/1.0") {
    return connection != nullptr && iequals(*connection, "keep-alive");
  }
  return connection == nullptr || !iequals(*connection, "close");
}

const char* status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

HttpServer::~HttpServer() { stop(); }

bool HttpServer::start() {
  if (running()) return true;
  error_.clear();
  if (!options_.handler) {
    error_ = "no handler configured";
    return false;
  }
  listen_fd_ = open_listener(options_.bind_address, options_.port,
                             &bound_port_, &error_);
  if (listen_fd_ < 0) return false;
  draining_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void HttpServer::drain() {
  if (!running()) return;
  draining_.store(true, std::memory_order_release);
  // Join the accept thread first: once it is gone (it closes the listen
  // socket on exit, so later connects are refused) nothing is queued any
  // more, and the connection count can only fall.
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    stopping_threads_ = true;
  }
  work_cv_.notify_all();
  // A connection thread exits only when it serves no connection and none
  // is queued, so joining every one waits out every live connection.
  for (auto& thread : threads_) thread.join();
  threads_.clear();
  stopping_threads_ = false;  // no thread left to read it
  // The listener is closed and every connection finished: the server is no
  // longer running (start() may be called again).
  running_.store(false, std::memory_order_release);
}

void HttpServer::stop() { drain(); }

void HttpServer::accept_loop() {
  while (!draining_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    // 100 ms poll bounds drain() latency without a wakeup pipe.
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0 || (pfd.revents & POLLIN) == 0) continue;
    if (draining_.load(std::memory_order_acquire)) break;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;

    bool reject = false;
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (live_connections_ >= options_.max_connections) {
        reject = true;
      } else {
        ++live_connections_;
        pending_.push_back(client);
        wake = idle_threads_ >= pending_.size();
        // The new thread counts as idle until it takes a socket. Threads =
        // idle + serving = live connections here, so the cap holds.
        if (!wake) ++idle_threads_;
      }
    }
    if (reject) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      served_.fetch_add(1, std::memory_order_relaxed);
      write_all(client,
                render_response(plain_error(503, "connection limit reached"),
                                /*keep_alive=*/false));
      ::close(client);
      continue;
    }
    if (wake) {
      work_cv_.notify_one();
    } else {
      threads_.emplace_back([this] { connection_thread(); });
    }
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::connection_thread() {
  std::unique_lock<std::mutex> lock(conn_mutex_);
  for (;;) {
    work_cv_.wait(lock,
                  [this] { return !pending_.empty() || stopping_threads_; });
    if (pending_.empty()) break;  // stopping, and nothing left to serve
    const int fd = pending_.front();
    pending_.pop_front();
    --idle_threads_;
    lock.unlock();
    serve_connection(fd);
    lock.lock();
    ++idle_threads_;
    --live_connections_;
    // Closed once this thread counts as idle again: a client that waits
    // for the close before connecting again finds it parked.
    ::close(fd);
  }
  --idle_threads_;
}

void HttpServer::serve_connection(int fd) {
  std::string buffer;
  bool close_connection = false;

  const auto deadline_from_now = [this] {
    return std::chrono::steady_clock::now() +
           std::chrono::seconds(options_.read_timeout_seconds);
  };

  while (!close_connection) {
    // -- Read one request head (and then its body) into `buffer`. --------
    auto deadline = deadline_from_now();
    std::size_t head_size = header_end(buffer);
    int transport_error = 0;  // response status; 0 = none
    std::string transport_message;
    bool peer_closed = false;

    while (head_size == std::string_view::npos) {
      if (buffer.size() > options_.max_header_bytes) {
        transport_error = 431;
        transport_message = "request headers exceed " +
                            std::to_string(options_.max_header_bytes) +
                            " bytes";
        break;
      }
      if (draining_.load(std::memory_order_acquire) && buffer.empty()) {
        peer_closed = true;  // idle keep-alive connection during drain
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        if (buffer.empty()) {
          peer_closed = true;  // idle keep-alive timeout, not an error
        } else {
          transport_error = 408;
          transport_message = "timed out reading request";
        }
        break;
      }
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLIN;
      const int ready = ::poll(&pfd, 1, 100);
      if (ready < 0 && errno != EINTR) {
        peer_closed = true;
        break;
      }
      if (ready <= 0) continue;
      char chunk[4096];
      const ssize_t n = recv_some(fd, chunk, sizeof(chunk));
      if (n <= 0) {
        // A torn request (peer died mid-send) cannot be answered; drop it.
        peer_closed = true;
        break;
      }
      buffer.append(chunk, static_cast<std::size_t>(n));
      head_size = header_end(buffer);
    }
    if (peer_closed && transport_error == 0 &&
        head_size == std::string_view::npos) {
      break;
    }

    // The limit applies to complete heads too, not just ones still being
    // read: a huge header block that arrives in one recv lands here.
    if (transport_error == 0 && head_size > options_.max_header_bytes) {
      transport_error = 431;
      transport_message = "request headers exceed " +
                          std::to_string(options_.max_header_bytes) +
                          " bytes";
    }

    ParsedHead head;
    if (transport_error == 0) {
      head = parse_head(std::string_view(buffer).substr(0, head_size));
      transport_error = head.error_status;
      transport_message = head.error_message;
    }
    if (transport_error == 0 &&
        head.content_length > options_.max_body_bytes) {
      transport_error = 413;
      transport_message = "request body exceeds " +
                          std::to_string(options_.max_body_bytes) + " bytes";
    }
    if (transport_error == 0) {
      // Read the declared body; the timeout keeps counting from the head.
      while (buffer.size() - head_size < head.content_length) {
        if (std::chrono::steady_clock::now() >= deadline) {
          transport_error = 408;
          transport_message = "timed out reading request body";
          break;
        }
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int ready = ::poll(&pfd, 1, 100);
        if (ready < 0 && errno != EINTR) break;
        if (ready <= 0) continue;
        char chunk[4096];
        const ssize_t n = recv_some(fd, chunk, sizeof(chunk));
        if (n <= 0) break;  // torn body: peer died mid-send
        buffer.append(chunk, static_cast<std::size_t>(n));
      }
      if (transport_error == 0 &&
          buffer.size() - head_size < head.content_length) {
        break;  // torn body and the peer is gone: nothing to answer
      }
    }

    if (transport_error != 0) {
      served_.fetch_add(1, std::memory_order_relaxed);
      write_all(fd, render_response(
                        plain_error(transport_error, transport_message),
                        /*keep_alive=*/false));
      break;
    }

    head.request.body = buffer.substr(head_size, head.content_length);
    buffer.erase(0, head_size + head.content_length);

    HttpResponse response;
    try {
      response = options_.handler(head.request);
    } catch (const std::exception& e) {
      response = plain_error(500, std::string("internal error: ") + e.what());
    } catch (...) {
      response = plain_error(500, "internal error");
    }

    const bool keep = options_.keep_alive && head.request.keep_alive() &&
                      !draining_.load(std::memory_order_acquire);
    served_.fetch_add(1, std::memory_order_relaxed);
    write_all(fd, render_response(response, keep));
    close_connection = !keep;
  }
}

const std::string* HttpClientResponse::header(
    std::string_view name) const noexcept {
  for (const auto& header : headers) {
    if (iequals(header.name, name)) return &header.value;
  }
  return nullptr;
}

HttpClientResponse http_request(const std::string& host, std::uint16_t port,
                                const std::string& method,
                                const std::string& path,
                                const std::string& body,
                                const std::string& content_type,
                                const HttpClientOptions& options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("http_request: socket failed");

  timeval timeout{};
  timeout.tv_sec = options.timeout_seconds;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("http_request: bad host '" + host + "'");
  }
  if (const int error = connect_socket(fd, addr, options.timeout_seconds);
      error != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("http_request: connect failed: ") +
                             std::strerror(error));
  }

  std::string request = method + " " + path + " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\n";
  if (!body.empty() || method == "POST" || method == "PUT") {
    request += "Content-Type: " + content_type + "\r\n";
    request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  request += "\r\n";
  request += body;
  write_all(fd, request);

  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = recv_some(fd, chunk, sizeof(chunk));
    if (n < 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("http_request: recv failed: " + reason);
    }
    if (n == 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
    if (response.size() > options.max_response_bytes) {
      ::close(fd);
      throw std::runtime_error(
          "http_request: response exceeds cap of " +
          std::to_string(options.max_response_bytes) + " bytes");
    }
  }
  ::close(fd);

  const std::size_t body_start = header_end(response);
  if (body_start == std::string::npos) {
    throw std::runtime_error(
        "http_request: malformed response (no header terminator)");
  }

  HttpClientResponse out;
  const std::string_view head = std::string_view(response).substr(
      0, body_start);
  std::size_t pos = 0;
  const auto next_line = [&]() -> std::string_view {
    const auto eol = head.find('\n', pos);
    std::string_view line = eol == std::string_view::npos
                                ? head.substr(pos)
                                : head.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? head.size() : eol + 1;
    return strip_cr(line);
  };
  const std::string_view status_line = next_line();
  out.status_line = std::string(status_line);
  if (status_line.rfind("HTTP/", 0) != 0) {
    throw std::runtime_error("http_request: malformed status line '" +
                             out.status_line + "'");
  }
  const auto space = status_line.find(' ');
  if (space == std::string_view::npos || space + 4 > status_line.size()) {
    throw std::runtime_error("http_request: malformed status line '" +
                             out.status_line + "'");
  }
  try {
    out.status = std::stoi(std::string(status_line.substr(space + 1, 3)));
  } catch (...) {
    throw std::runtime_error("http_request: malformed status code in '" +
                             out.status_line + "'");
  }
  while (pos < head.size()) {
    const std::string_view line = next_line();
    if (line.empty()) break;
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    out.headers.push_back(Header{std::string(trim(line.substr(0, colon))),
                                 std::string(trim(line.substr(colon + 1)))});
  }

  out.body = response.substr(body_start);
  if (const std::string* cl = out.header("Content-Length")) {
    std::uint64_t declared = 0;
    if (!parse_u64(*cl, declared)) {
      throw std::runtime_error("http_request: malformed Content-Length '" +
                               *cl + "'");
    }
    if (out.body.size() < declared) {
      throw std::runtime_error(
          "http_request: truncated response (got " +
          std::to_string(out.body.size()) + " of " + std::to_string(declared) +
          " body bytes)");
    }
    out.body.resize(declared);
  }
  return out;
}

}  // namespace lcl::svc
