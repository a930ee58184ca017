// The shared HTTP transport: server lifecycle (drain, restart), the
// connection-thread lifecycle (parked threads reused across connections,
// the max_connections 503 cap), keep-alive, transport-level error mapping
// (400/408/413/431/501), socket calls that survive signals, graceful
// drain, and the validating client (POST, status/header capture,
// truncation/oversize detection).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "svc/http.hpp"

namespace lcl::svc {
namespace {

HttpServer::Options echo_options() {
  HttpServer::Options options;
  options.handler = [](const HttpRequest& request) {
    HttpResponse response;
    if (request.path == "/echo") {
      response.body = request.method + " " + request.target + " " +
                      request.body;
    } else if (request.path == "/throw") {
      throw std::runtime_error("handler exploded");
    } else {
      response.status = 404;
      response.body = "nope";
    }
    return response;
  };
  return options;
}

/// Blocking raw-socket connection to the server under test, for the cases
/// the validating client cannot produce (torn requests, pipelining).
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send(const std::string& bytes) const {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads until the peer closes or `until` is seen.
  std::string read_until_close() const {
    std::string out;
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), 0);
      if (n <= 0) break;
      out.append(buffer, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Reads one response (headers + Content-Length body) off a keep-alive
  /// connection without consuming the next one.
  std::string read_one_response() const {
    std::string out;
    char c = 0;
    std::size_t body = 0;
    // Headers, byte by byte (test-only; simplicity over speed).
    while (out.find("\r\n\r\n") == std::string::npos) {
      if (::recv(fd_, &c, 1, 0) != 1) return out;
      out.push_back(c);
    }
    const auto pos = out.find("Content-Length: ");
    if (pos != std::string::npos) {
      body = static_cast<std::size_t>(
          std::stoul(out.substr(pos + std::strlen("Content-Length: "))));
    }
    while (body-- > 0) {
      if (::recv(fd_, &c, 1, 0) != 1) return out;
      out.push_back(c);
    }
    return out;
  }

 private:
  int fd_ = -1;
};

TEST(SvcHttpServer, StartsOnEphemeralPortAndStops) {
  HttpServer server(echo_options());
  ASSERT_TRUE(server.start()) << server.error();
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(SvcHttpServer, StartWithoutHandlerFails) {
  HttpServer server{HttpServer::Options{}};
  EXPECT_FALSE(server.start());
  EXPECT_FALSE(server.error().empty());
}

TEST(SvcHttpServer, ServesGetAndPost) {
  HttpServer server(echo_options());
  ASSERT_TRUE(server.start()) << server.error();

  const auto get = http_request("127.0.0.1", server.port(), "GET", "/echo");
  EXPECT_EQ(get.status, 200);
  EXPECT_EQ(get.body, "GET /echo ");

  const auto post = http_request("127.0.0.1", server.port(), "POST", "/echo",
                                 "hello body");
  EXPECT_EQ(post.status, 200);
  EXPECT_EQ(post.body, "POST /echo hello body");

  // Status line and headers are captured, not just the body.
  EXPECT_EQ(post.status_line, "HTTP/1.1 200 OK");
  ASSERT_NE(post.header("Content-Type"), nullptr);
  EXPECT_EQ(*post.header("content-type"), "text/plain; charset=utf-8");
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(SvcHttpServer, HandlerRoutesNotFoundAndExceptionsBecome500) {
  HttpServer server(echo_options());
  ASSERT_TRUE(server.start()) << server.error();
  EXPECT_EQ(http_request("127.0.0.1", server.port(), "GET", "/nope").status,
            404);
  EXPECT_EQ(http_request("127.0.0.1", server.port(), "GET", "/throw").status,
            500);
}

TEST(SvcHttpServer, KeepAliveServesMultipleRequestsPerConnection) {
  HttpServer server(echo_options());
  ASSERT_TRUE(server.start()) << server.error();

  RawConnection connection(server.port());
  for (int i = 0; i < 3; ++i) {
    connection.send("GET /echo HTTP/1.1\r\nHost: x\r\n\r\n");
    const std::string response = connection.read_one_response();
    EXPECT_NE(response.find("200 OK"), std::string::npos);
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
  }
  EXPECT_EQ(server.requests_served(), 3u);
}

TEST(SvcHttpServer, KeepAliveOffClosesAfterOneRequest) {
  HttpServer::Options options = echo_options();
  options.keep_alive = false;
  HttpServer server(std::move(options));
  ASSERT_TRUE(server.start()) << server.error();

  RawConnection connection(server.port());
  connection.send("GET /echo HTTP/1.1\r\nHost: x\r\n\r\n");
  const std::string response = connection.read_until_close();  // peer closes
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
}

TEST(SvcHttpServer, MalformedRequestLineIs400) {
  HttpServer server(echo_options());
  ASSERT_TRUE(server.start()) << server.error();
  RawConnection connection(server.port());
  connection.send("NOT-A-REQUEST\r\n\r\n");
  EXPECT_NE(connection.read_until_close().find("400 Bad Request"),
            std::string::npos);
}

TEST(SvcHttpServer, SignedContentLengthIs400) {
  // A signed length is malformed, not huge (-1) and not 2 (+2).
  for (const std::string length : {"-1", "+2"}) {
    HttpServer server(echo_options());
    ASSERT_TRUE(server.start()) << server.error();
    RawConnection connection(server.port());
    connection.send("POST /echo HTTP/1.1\r\nContent-Length: " + length +
                    "\r\n\r\nab");
    EXPECT_NE(connection.read_until_close().find("400 Bad Request"),
              std::string::npos)
        << "Content-Length: " << length;
  }
}

TEST(SvcHttpServer, OversizedBodyIs413) {
  HttpServer::Options options = echo_options();
  options.max_body_bytes = 16;
  HttpServer server(std::move(options));
  ASSERT_TRUE(server.start()) << server.error();
  const auto response = http_request("127.0.0.1", server.port(), "POST",
                                     "/echo", std::string(64, 'x'));
  EXPECT_EQ(response.status, 413);
}

TEST(SvcHttpServer, OversizedHeadersAre431) {
  HttpServer::Options options = echo_options();
  options.max_header_bytes = 128;
  HttpServer server(std::move(options));
  ASSERT_TRUE(server.start()) << server.error();
  RawConnection connection(server.port());
  connection.send("GET /echo HTTP/1.1\r\nX-Big: " + std::string(256, 'y') +
                  "\r\n\r\n");
  EXPECT_NE(connection.read_until_close().find("431"), std::string::npos);
}

TEST(SvcHttpServer, TornRequestTimesOutAs408) {
  HttpServer::Options options = echo_options();
  options.read_timeout_seconds = 1;
  HttpServer server(std::move(options));
  ASSERT_TRUE(server.start()) << server.error();
  RawConnection connection(server.port());
  connection.send("GET /echo HTTP/1.1\r\nHost:");  // head never finishes
  EXPECT_NE(connection.read_until_close().find("408"), std::string::npos);
}

TEST(SvcHttpServer, ChunkedTransferEncodingIs501) {
  HttpServer server(echo_options());
  ASSERT_TRUE(server.start()) << server.error();
  RawConnection connection(server.port());
  connection.send(
      "POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
  EXPECT_NE(connection.read_until_close().find("501"), std::string::npos);
}

TEST(SvcHttpServer, DrainFinishesInflightRequestBeforeReturning) {
  std::atomic<bool> entered{false};
  HttpServer::Options options;
  options.handler = [&entered](const HttpRequest&) {
    entered.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    HttpResponse response;
    response.body = "slow done";
    return response;
  };
  HttpServer server(std::move(options));
  ASSERT_TRUE(server.start()) << server.error();

  std::string body;
  std::thread client([&server, &body]() {
    body = http_request("127.0.0.1", server.port(), "GET", "/slow").body;
  });
  while (!entered.load()) std::this_thread::sleep_for(
      std::chrono::milliseconds(5));

  server.drain();  // must wait for the in-flight response, then return
  client.join();
  EXPECT_EQ(body, "slow done");
  EXPECT_FALSE(server.running());  // draining implies no further accepts
}

TEST(SvcHttpServer, ConcurrentClientsAllServed) {
  HttpServer server(echo_options());
  ASSERT_TRUE(server.start()) << server.error();

  constexpr int kThreads = 8;
  constexpr int kRequests = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&server, &ok]() {
      for (int i = 0; i < kRequests; ++i) {
        const auto response = http_request("127.0.0.1", server.port(), "POST",
                                           "/echo", "ping");
        if (response.status == 200 && response.body == "POST /echo ping") {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(ok.load(), kThreads * kRequests);
  EXPECT_EQ(server.requests_served(),
            static_cast<std::uint64_t>(kThreads * kRequests));
}

TEST(SvcHttpServer, DestroyRightAfterLastResponseWaitsForConnectionThreads) {
  // Connection threads detach, and each one's last touch of the server is
  // its decrement-and-notify. Destroying the server right after the last
  // response must not free conn_cv_ under a thread still notifying it (the
  // obs-tsan job runs this under ThreadSanitizer).
  constexpr int kRounds = 10;
  constexpr int kClients = 4;
  for (int round = 0; round < kRounds; ++round) {
    auto server = std::make_unique<HttpServer>(echo_options());
    ASSERT_TRUE(server->start()) << server->error();
    const std::uint16_t port = server->port();
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([port, &ok]() {
        const auto response =
            http_request("127.0.0.1", port, "POST", "/echo", "ping");
        if (response.status == 200 && response.body == "POST /echo ping") {
          ok.fetch_add(1);
        }
      });
    }
    for (auto& client : clients) client.join();
    server.reset();
    EXPECT_EQ(ok.load(), kClients) << "round " << round;
  }
}

std::size_t process_thread_count() {
  std::size_t threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++threads;
  }
  return threads;
}

pid_t current_tid() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

TEST(SvcHttpServer, SequentialConnectionsReuseParkedThreads) {
  std::mutex mutex;
  std::set<pid_t> handler_threads;
  HttpServer::Options options;
  options.handler = [&mutex, &handler_threads](const HttpRequest&) {
    const std::lock_guard<std::mutex> lock(mutex);
    handler_threads.insert(current_tid());
    return HttpResponse{};
  };
  HttpServer server(std::move(options));
  ASSERT_TRUE(server.start()) << server.error();

  const std::size_t before = process_thread_count();
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(http_request("127.0.0.1", server.port(), "GET", "/").status,
              200)
        << "request " << i;
  }
  // Each connection closes before the next opens, so a parked thread is
  // always there to take it; no thread is started per connection.
  EXPECT_LE(process_thread_count(), before + 2);
  const std::lock_guard<std::mutex> lock(mutex);
  EXPECT_LE(handler_threads.size(), 2u);
}

TEST(SvcHttpServer, ConnectionCapAnswers503UntilALiveConnectionCloses) {
  HttpServer::Options options = echo_options();
  options.max_connections = 2;
  HttpServer server(std::move(options));
  ASSERT_TRUE(server.start()) << server.error();

  // Two idle keep-alive connections, each served once, hold both slots.
  auto first = std::make_unique<RawConnection>(server.port());
  RawConnection second(server.port());
  for (const RawConnection* connection : {first.get(), &second}) {
    connection->send("GET /echo HTTP/1.1\r\nHost: x\r\n\r\n");
    EXPECT_NE(connection->read_one_response().find("200 OK"),
              std::string::npos);
  }

  // The third is answered before it sends anything, then closed.
  RawConnection third(server.port());
  EXPECT_NE(third.read_until_close().find("503 Service Unavailable"),
            std::string::npos);
  EXPECT_EQ(server.connections_rejected(), 1u);

  // Once the server has seen the first one close, its slot is free again.
  first.reset();
  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (status != 200 && std::chrono::steady_clock::now() < deadline) {
    try {
      status = http_request("127.0.0.1", server.port(), "GET", "/echo").status;
    } catch (const std::runtime_error&) {
      // A 503 written before the request was read can arrive as a reset.
      status = 0;
    }
    if (status != 200) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_EQ(status, 200);
}

TEST(SvcHttpServer, StartAfterDrainServesAgain) {
  HttpServer server(echo_options());
  ASSERT_TRUE(server.start()) << server.error();
  EXPECT_EQ(http_request("127.0.0.1", server.port(), "GET", "/echo").status,
            200);
  server.drain();
  EXPECT_FALSE(server.running());

  ASSERT_TRUE(server.start()) << server.error();
  EXPECT_TRUE(server.running());
  const auto response =
      http_request("127.0.0.1", server.port(), "POST", "/echo", "again");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "POST /echo again");
  EXPECT_EQ(server.requests_served(), 2u);
}

std::atomic<std::uint64_t> g_signals_handled{0};

void count_signal(int) {
  g_signals_handled.fetch_add(1, std::memory_order_relaxed);
}

/// Sends SIGUSR1 to every thread of the process every 50 microseconds
/// until destroyed - except itself and, with `spare_caller`, the thread
/// that built it (a raw-socket peer that does not retry EINTR itself).
/// Per-thread delivery makes sure the server's threads are interrupted
/// too, not just whichever thread the kernel picks for a process-wide
/// signal.
class SignalStorm {
 public:
  explicit SignalStorm(bool spare_caller) {
    const pid_t spared = spare_caller ? current_tid() : 0;
    thread_ = std::thread([this, spared] {
      const pid_t self = current_tid();
      while (!stop_.load()) {
        // Threads come and go while this lists them: no throwing here.
        std::error_code error;
        for (std::filesystem::directory_iterator it("/proc/self/task", error),
             end;
             !error && it != end; it.increment(error)) {
          const pid_t tid = static_cast<pid_t>(
              std::strtol(it->path().filename().c_str(), nullptr, 10));
          if (tid != self && tid != spared) {
            ::syscall(SYS_tgkill, ::getpid(), tid, SIGUSR1);
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  ~SignalStorm() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(SvcHttpServer, RequestsSurviveSignalsWithoutSaRestart) {
  // Without SA_RESTART every blocking call a signal lands in fails with
  // EINTR; poll(), and recv()/send() on a socket with a timeout, fail so
  // even with it. The handler stays installed after the test, so a signal
  // still in flight never meets the default (terminating) action.
  struct sigaction action {};
  action.sa_handler = count_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  ASSERT_EQ(::sigaction(SIGUSR1, &action, nullptr), 0);

  constexpr std::size_t kBigResponse = 16u << 20;
  HttpServer::Options options;
  options.handler = [](const HttpRequest& request) {
    HttpResponse response;
    response.body = request.path == "/big" ? std::string(kBigResponse, 'z')
                                           : request.body + request.body;
    return response;
  };
  HttpServer server(std::move(options));
  ASSERT_TRUE(server.start()) << server.error();

  const std::uint64_t handled_before = g_signals_handled.load();
  {
    // Client and server threads alike are interrupted.
    const SignalStorm storm(/*spare_caller=*/false);
    for (int i = 0; i < 300; ++i) {
      const std::string body =
          std::to_string(i) + std::string(256 * 1024, static_cast<char>(
                                                          'a' + i % 26));
      HttpClientResponse response;
      try {
        response =
            http_request("127.0.0.1", server.port(), "POST", "/", body);
      } catch (const std::exception& e) {
        FAIL() << "request " << i << ": " << e.what();
      }
      ASSERT_EQ(response.status, 200) << "request " << i;
      ASSERT_EQ(response.body.size(), 2 * body.size()) << "request " << i;
      ASSERT_TRUE(response.body == body + body) << "request " << i;
    }
  }
  {
    // Stalled raw peers park the server's connection thread in poll() and
    // in send() while the signals land; this thread is spared.
    const SignalStorm storm(/*spare_caller=*/true);
    const auto stall = [] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    };

    RawConnection stalled_head(server.port());
    stalled_head.send("POST / HTTP/1.1\r\nHost: x\r\n");
    stall();
    stalled_head.send("Content-Length: 4\r\nConnection: close\r\n\r\nhead");
    EXPECT_NE(stalled_head.read_until_close().find("\r\n\r\nheadhead"),
              std::string::npos);

    RawConnection stalled_body(server.port());
    stalled_body.send(
        "POST / HTTP/1.1\r\nContent-Length: 8\r\nConnection: close\r\n"
        "\r\nbody");
    stall();
    stalled_body.send("body");
    EXPECT_NE(stalled_body.read_until_close().find("\r\n\r\nbodybodybodybody"),
              std::string::npos);

    RawConnection slow_reader(server.port());
    slow_reader.send("GET /big HTTP/1.1\r\nConnection: close\r\n\r\n");
    stall();  // the response fills the socket buffers; send() blocks
    const std::string big = slow_reader.read_until_close();
    const auto head_end = big.find("\r\n\r\n");
    ASSERT_NE(head_end, std::string::npos);
    EXPECT_EQ(big.size() - head_end - 4, kBigResponse);
  }
  EXPECT_GT(g_signals_handled.load(), handled_before);
  EXPECT_EQ(server.requests_served(), 303u);
}

/// One-shot fake server: accepts a single connection, sends `script`
/// verbatim, closes. For exercising the client's validation paths.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::string script) : script_(std::move(script)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this]() {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      char buffer[4096];
      ::recv(fd, buffer, sizeof(buffer), 0);  // drain the request head
      ::send(fd, script_.data(), script_.size(), 0);
      ::close(fd);
    });
  }
  ~ScriptedServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  std::uint16_t port() const { return port_; }

 private:
  std::string script_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(SvcHttpClient, ThrowsOnTruncatedBodyInsteadOfReturningIt) {
  // Content-Length promises 100 bytes; the peer sends 10 and closes.
  ScriptedServer server(
      "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789");
  try {
    http_request("127.0.0.1", server.port(), "GET", "/");
    FAIL() << "expected a truncation error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(SvcHttpClient, ThrowsOnOversizedResponseInsteadOfTruncating) {
  ScriptedServer server("HTTP/1.1 200 OK\r\nContent-Length: 4096\r\n\r\n" +
                        std::string(4096, 'z'));
  HttpClientOptions options;
  options.max_response_bytes = 512;
  try {
    http_request("127.0.0.1", server.port(), "GET", "/", "",
                 "application/json", options);
    FAIL() << "expected an oversize error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << e.what();
  }
}

TEST(SvcHttpClient, ThrowsOnMalformedContentLength) {
  ScriptedServer server(
      "HTTP/1.1 200 OK\r\nContent-Length: 12abc\r\n\r\n0123456789ab");
  try {
    http_request("127.0.0.1", server.port(), "GET", "/");
    FAIL() << "expected a malformed Content-Length error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed Content-Length"),
              std::string::npos)
        << e.what();
  }
}

TEST(SvcHttpClient, ThrowsOnMalformedStatusLine) {
  ScriptedServer server("BANANAS\r\n\r\n");
  EXPECT_THROW(http_request("127.0.0.1", server.port(), "GET", "/"),
               std::runtime_error);
}

TEST(SvcHttpClient, ConnectFailureThrows) {
  // Port 1 on loopback is essentially never listening.
  EXPECT_THROW(http_request("127.0.0.1", 1, "GET", "/"), std::runtime_error);
}

}  // namespace
}  // namespace lcl::svc
