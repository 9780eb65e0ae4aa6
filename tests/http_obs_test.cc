#include "authidx/obs/http_server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "authidx/core/author_index.h"
#include "authidx/core/stats.h"
#include "authidx/format/metrics_text.h"
#include "authidx/obs/log.h"
#include "authidx/obs/slowlog.h"
#include "authidx/storage/engine.h"
#include "fault_env.h"

namespace authidx::obs {
namespace {

// Minimal HTTP/1.1 client response: status line + headers + body,
// parsed from a full read-until-EOF capture (the server always sends
// Connection: close).
struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // Lower-cased names.
  std::string body;
};

std::string ToLower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

// Sends `raw` to 127.0.0.1:port, reads to EOF, parses the response.
// Returns false on any socket failure.
bool RawRequest(int port, const std::string& raw, ClientResponse* out) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return false;
  }
  size_t sent = 0;
  while (sent < raw.size()) {
    ssize_t n = ::write(fd, raw.data() + sent, raw.size() - sent);
    if (n <= 0) {
      ::close(fd);
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  size_t line_end = response.find("\r\n");
  if (line_end == std::string::npos) return false;
  std::string status_line = response.substr(0, line_end);
  if (status_line.rfind("HTTP/1.1 ", 0) != 0 || status_line.size() < 12) {
    return false;
  }
  out->status = std::atoi(status_line.c_str() + 9);

  size_t headers_end = response.find("\r\n\r\n");
  if (headers_end == std::string::npos) return false;
  size_t pos = line_end + 2;
  while (pos < headers_end) {
    size_t eol = response.find("\r\n", pos);
    std::string header = response.substr(pos, eol - pos);
    size_t colon = header.find(':');
    if (colon != std::string::npos) {
      std::string name = ToLower(header.substr(0, colon));
      size_t value_start = colon + 1;
      while (value_start < header.size() && header[value_start] == ' ') {
        ++value_start;
      }
      out->headers[name] = header.substr(value_start);
    }
    pos = eol + 2;
  }
  out->body = response.substr(headers_end + 4);
  return true;
}

bool Get(int port, const std::string& path, ClientResponse* out) {
  return RawRequest(port,
                    "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n",
                    out);
}

TEST(HttpServerTest, StartAssignsEphemeralPortAndStopIsIdempotent) {
  HttpServer server;
  EXPECT_FALSE(server.running());
  server.Stop();  // Stop before Start is a no-op.
  server.Route("/ping", [] {
    HttpResponse r;
    r.body = "pong";
    return r;
  });
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.running());
  EXPECT_GT(server.port(), 0);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // Second Stop is a no-op.
}

TEST(HttpServerTest, ServesRegisteredRoutes) {
  HttpServer server;
  server.Route("/ping", [] {
    HttpResponse r;
    r.body = "pong";
    return r;
  });
  server.Route("/json", [] {
    HttpResponse r;
    r.content_type = "application/json";
    r.body = "{\"ok\":true}";
    return r;
  });
  ASSERT_TRUE(server.Start(0).ok());

  ClientResponse response;
  ASSERT_TRUE(Get(server.port(), "/ping", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "pong");
  EXPECT_EQ(response.headers["content-length"], "4");
  EXPECT_EQ(response.headers["connection"], "close");
  EXPECT_NE(response.headers["content-type"].find("text/plain"),
            std::string::npos);

  ASSERT_TRUE(Get(server.port(), "/json", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["content-type"], "application/json");
  EXPECT_EQ(response.body, "{\"ok\":true}");

  // Query strings are stripped before route matching.
  ASSERT_TRUE(Get(server.port(), "/ping?verbose=1", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "pong");

  EXPECT_GE(server.requests_served(), 3u);
  server.Stop();
}

TEST(HttpServerTest, RejectsUnknownPathsMethodsAndGarbage) {
  HttpServer server;
  server.Route("/ping", [] {
    HttpResponse r;
    r.body = "pong";
    return r;
  });
  ASSERT_TRUE(server.Start(0).ok());

  ClientResponse response;
  ASSERT_TRUE(Get(server.port(), "/nope", &response));
  EXPECT_EQ(response.status, 404);

  ASSERT_TRUE(RawRequest(server.port(),
                         "POST /ping HTTP/1.1\r\nHost: x\r\n\r\n",
                         &response));
  EXPECT_EQ(response.status, 405);

  ASSERT_TRUE(RawRequest(server.port(), "garbage\r\n\r\n", &response));
  EXPECT_EQ(response.status, 400);

  server.Stop();
}

TEST(HttpServerTest, HandlesSequentialAndConcurrentClients) {
  HttpServer server;
  server.Route("/ping", [] {
    HttpResponse r;
    r.body = "pong";
    return r;
  });
  ASSERT_TRUE(server.Start(0).ok());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5;
  std::vector<std::thread> threads;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &ok_count] {
      for (int i = 0; i < kPerThread; ++i) {
        ClientResponse response;
        if (Get(server.port(), "/ping", &response) &&
            response.status == 200 && response.body == "pong") {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(ok_count.load(), kThreads * kPerThread);
  EXPECT_EQ(server.requests_served(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  server.Stop();
}

// Regression for the PR 3 documented limitation: the accept loop used
// to serve connections serially, so one slow /metrics scrape starved
// every /healthz probe behind it. With the handler pool, /healthz must
// answer while slow requests are still blocked mid-handler.
TEST(HttpServerTest, SlowScrapeDoesNotStarveHealthz) {
  HttpServer server;
  std::atomic<int> slow_active{0};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  server.Route("/slow", [&slow_active, released] {
    slow_active.fetch_add(1, std::memory_order_relaxed);
    released.wait();  // Hold the handler thread until the test says so.
    HttpResponse r;
    r.body = "done";
    return r;
  });
  server.Route("/healthz", [] {
    HttpResponse r;
    r.body = "ok\n";
    return r;
  });
  ASSERT_TRUE(server.Start(0).ok());

  // Pin down all but one of the handler threads (the pool has four).
  constexpr int kSlowClients = 3;
  std::vector<std::thread> slow_clients;
  for (int i = 0; i < kSlowClients; ++i) {
    slow_clients.emplace_back([&server] {
      ClientResponse response;
      if (Get(server.port(), "/slow", &response)) {
        EXPECT_EQ(response.body, "done");
      }
    });
  }
  while (slow_active.load(std::memory_order_relaxed) < kSlowClients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Old behavior: this Get would block behind the wedged scrapes and
  // the test would hang until their 5s socket timeouts.
  ClientResponse response;
  ASSERT_TRUE(Get(server.port(), "/healthz", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");

  release.set_value();
  for (std::thread& t : slow_clients) {
    t.join();
  }
  server.Stop();
}

TEST(HttpServerTest, SurvivesClientAbortBeforeReadingLargeResponse) {
  HttpServer server;
  // Body far larger than the loopback socket buffers, so the worker is
  // still mid-write when the client vanishes.
  server.Route("/big", [] {
    HttpResponse r;
    r.body.assign(8 * 1024 * 1024, 'x');
    return r;
  });
  ASSERT_TRUE(server.Start(0).ok());

  // Abort mid-response: send the request, then reset the connection
  // without reading a byte (SO_LINGER 0 turns close() into an RST).
  // The server's send must fail with EPIPE/ECONNRESET — a SIGPIPE
  // would kill this whole test binary.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char kRequest[] = "GET /big HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ASSERT_GT(::write(fd, kRequest, sizeof(kRequest) - 1), 0);
  struct linger hard_reset = {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset,
               sizeof(hard_reset));
  ::close(fd);

  // The worker thread survives and keeps answering.
  ClientResponse response;
  ASSERT_TRUE(Get(server.port(), "/big", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.size(), 8u * 1024 * 1024);
  server.Stop();
}

// The full observability surface the CLI `serve` command wires up,
// driven end-to-end over real sockets against an in-memory catalog.
class ObservabilityEndpointsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = core::AuthorIndex::Create();
    Entry entry;
    entry.author = {"Minow", "Martha", "", false};
    entry.title = "All in the Family and in All Families";
    entry.citation = {95, 275, 1992};
    ASSERT_TRUE(catalog_->Add(std::move(entry)).ok());
    Entry second;
    second.author = {"Arceneaux", "Webster J.", "III", false};
    second.title = "Potential Criminal Liability in the Coal Fields";
    second.citation = {95, 691, 1993};
    ASSERT_TRUE(catalog_->Add(std::move(second)).ok());

    logger_ = std::make_unique<Logger>(LogLevel::kInfo);
    auto sink = std::make_unique<VectorSink>();
    lines_ = sink.get();
    logger_->AddSink(std::move(sink));
    catalog_->SetLogger(logger_.get());

    core::AuthorIndex* catalog = catalog_.get();
    Logger* logger = logger_.get();
    server_.Route("/metrics", [catalog] {
      HttpResponse r;
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      r.body = format::MetricsToPrometheusText(catalog->GetMetricsSnapshot());
      return r;
    });
    server_.Route("/healthz", [catalog, logger] {
      HttpResponse r;
      // Mirrors the CLI: a sticky storage error outranks logged errors.
      if (catalog->StorageDegraded()) {
        r.status = 503;
        r.body = "degraded: " +
                 catalog->StorageBackgroundError().ToString() + "\n";
      } else if (logger->error_count() != 0) {
        r.status = 503;
        r.body = "degraded: " + logger->last_error() + "\n";
      } else {
        r.body = "ok\n";
      }
      return r;
    });
    server_.Route("/varz", [catalog] {
      HttpResponse r;
      r.content_type = "application/json";
      r.body = "{\"stats\":" + core::ComputeStats(*catalog).ToJson() + "}";
      return r;
    });
    server_.Route("/slowlog", [catalog] {
      HttpResponse r;
      r.content_type = "application/json";
      r.body = SlowQueryLog::ToJson(catalog->SlowQueries());
      return r;
    });
    ASSERT_TRUE(server_.Start(0).ok());
  }

  void TearDown() override { server_.Stop(); }

  std::unique_ptr<core::AuthorIndex> catalog_;
  std::unique_ptr<Logger> logger_;
  VectorSink* lines_ = nullptr;
  HttpServer server_;
};

TEST_F(ObservabilityEndpointsTest, MetricsEndpointServesPrometheusText) {
  ASSERT_TRUE(catalog_->Search("author:minow").ok());
  ClientResponse response;
  ASSERT_TRUE(Get(server_.port(), "/metrics", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.headers["content-type"].find("version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.body.find("# HELP authidx_queries_total"),
            std::string::npos);
  EXPECT_NE(response.body.find("authidx_queries_total 1"),
            std::string::npos);
  EXPECT_NE(response.body.find("authidx_inverted_postings_decoded_total"), std::string::npos);
}

TEST_F(ObservabilityEndpointsTest, HealthzReflectsLoggerErrors) {
  ClientResponse response;
  ASSERT_TRUE(Get(server_.port(), "/healthz", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");

  logger_->Log(LogLevel::kError, "table_get_failed", {{"table", 9}});
  ASSERT_TRUE(Get(server_.port(), "/healthz", &response));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("degraded"), std::string::npos);
  EXPECT_NE(response.body.find("table_get_failed"), std::string::npos);
}

// /healthz against a persistent catalog whose storage engine trips its
// sticky background error: the endpoint must flip to 503 and name the
// cause, exactly as load balancers rely on to drain a degraded node.
TEST(HealthzDegradedTest, Returns503WhileStorageDegraded) {
  std::string dir = ::testing::TempDir() + "/http_obs_degraded";
  std::filesystem::remove_all(dir);
  tests::FaultEnv env;
  storage::EngineOptions options;
  options.env = &env;
  options.retry_base_delay_us = 0;
  auto catalog = core::AuthorIndex::OpenPersistent(dir, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status();
  Entry entry;
  entry.author = {"Minow", "Martha", "", false};
  entry.title = "All in the Family and in All Families";
  entry.citation = {95, 275, 1992};
  ASSERT_TRUE((*catalog)->Add(std::move(entry)).ok());

  Logger logger(LogLevel::kError);
  core::AuthorIndex* cat = catalog->get();
  Logger* log = &logger;
  HttpServer server;
  server.Route("/healthz", [cat, log] {
    HttpResponse r;
    if (cat->StorageDegraded()) {
      r.status = 503;
      r.body = "degraded: " + cat->StorageBackgroundError().ToString() + "\n";
    } else if (log->error_count() != 0) {
      r.status = 503;
      r.body = "degraded: " + log->last_error() + "\n";
    } else {
      r.body = "ok\n";
    }
    return r;
  });
  ASSERT_TRUE(server.Start(0).ok());

  ClientResponse response;
  ASSERT_TRUE(Get(server.port(), "/healthz", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "ok\n");

  env.FailAllFromNow();
  Entry doomed;
  doomed.author = {"Arceneaux", "Webster J.", "III", false};
  doomed.title = "Potential Criminal Liability in the Coal Fields";
  doomed.citation = {95, 691, 1993};
  EXPECT_FALSE((*catalog)->Add(std::move(doomed)).ok());
  env.StopFailing();
  ASSERT_TRUE(cat->StorageDegraded());

  ASSERT_TRUE(Get(server.port(), "/healthz", &response));
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("degraded"), std::string::npos);
  EXPECT_NE(response.body.find("IOError"), std::string::npos)
      << response.body;

  server.Stop();
  catalog->reset();
  std::filesystem::remove_all(dir);
}

TEST_F(ObservabilityEndpointsTest, VarzServesCatalogStatsJson) {
  ClientResponse response;
  ASSERT_TRUE(Get(server_.port(), "/varz", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.headers["content-type"], "application/json");
  EXPECT_NE(response.body.find("\"entries\":2"), std::string::npos);
  EXPECT_NE(response.body.find("\"distinct_authors\":2"), std::string::npos);
  EXPECT_NE(response.body.find("\"top_authors\":["), std::string::npos);
}

TEST_F(ObservabilityEndpointsTest, SlowQueryAppearsInSlowlogWithSpans) {
  ClientResponse response;
  ASSERT_TRUE(Get(server_.port(), "/slowlog", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body, "[]");

  // A 1ns threshold captures every query, spans and all, even though
  // the caller brought no trace of its own.
  catalog_->SetSlowQueryThreshold(1);
  ASSERT_TRUE(catalog_->Search("author:minow").ok());

  ASSERT_TRUE(Get(server_.port(), "/slowlog", &response));
  EXPECT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("\"query\":\"author:minow\""),
            std::string::npos);
  EXPECT_NE(response.body.find("\"plan\":"), std::string::npos);
  EXPECT_NE(response.body.find("\"spans\":[{"), std::string::npos);
  EXPECT_NE(response.body.find("\"name\":\"query\""), std::string::npos);
  EXPECT_NE(response.body.find("\"name\":\"parse\""), std::string::npos);
  EXPECT_NE(response.body.find("\"duration_ns\":"), std::string::npos);

  // The slow query was also logged as a structured WARN event.
  EXPECT_TRUE(lines_->Contains("event=slow_query"));
  EXPECT_TRUE(lines_->Contains("query=author:minow"));

  // And counted.
  ASSERT_TRUE(Get(server_.port(), "/metrics", &response));
  EXPECT_NE(response.body.find("authidx_slow_queries_total 1"),
            std::string::npos);
}

TEST_F(ObservabilityEndpointsTest, RunCapturesSlowPreParsedQueries) {
  // Pre-parsed queries go through the same capture envelope as
  // Search/SearchTraced; the logged text is reconstructed via
  // Query::ToString().
  catalog_->SetSlowQueryThreshold(1);
  auto parsed = query::ParseQuery("author:minow");
  ASSERT_TRUE(parsed.ok());
  ASSERT_TRUE(catalog_->Run(*parsed).ok());

  std::vector<SlowQueryEntry> entries = catalog_->SlowQueries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_NE(entries[0].query.find("author=minow"), std::string::npos);
  EXPECT_FALSE(entries[0].spans.empty());
  EXPECT_TRUE(lines_->Contains("event=slow_query"));
}

}  // namespace
}  // namespace authidx::obs
