// Client <-> server integration over real loopback sockets: round
// trips, pipelining, framing limits, abort/drain behavior, admission
// control, and the degraded-storage contract surfaced over RPC.

#include "authidx/net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "authidx/core/author_index.h"
#include "authidx/net/client.h"
#include "authidx/parse/tsv.h"
#include "fault_env.h"
#include "net_fault_util.h"

namespace authidx::net {
namespace {

const char* const kMinowTsv =
    "Minow, Martha\tAll in the Family and in All Families\t95:275 (1992)";
const char* const kArceneauxTsv =
    "Arceneaux, Webster J., III\tPotential Criminal Liability in the Coal "
    "Fields\t95:691 (1993)";

// In-memory catalog + running server on an ephemeral port.
struct TestServer {
  std::unique_ptr<core::AuthorIndex> catalog;
  std::unique_ptr<Server> server;

  explicit TestServer(ServerOptions options = {}) {
    catalog = core::AuthorIndex::Create();
    // Share the catalog registry, as authidx_server does: one metrics
    // page must cover engine and RPC instruments.
    options.metrics = catalog->mutable_metrics();
    server = std::make_unique<Server>(catalog.get(), options);
    AUTHIDX_CHECK_OK(server->Start());
  }

  Client MakeClient(int max_attempts = 1) const {
    ClientOptions options;
    options.port = server->port();
    options.retry.max_attempts = max_attempts;
    options.retry.base_delay_us = 100;
    return Client(options);
  }

  uint64_t CounterValue(const std::string& name) const {
    // Keep the snapshot alive past Find(): the pointer aliases it.
    obs::MetricsSnapshot snapshot = server->metrics().Snapshot();
    const obs::MetricValue* value = snapshot.Find(name);
    return value != nullptr ? value->counter : 0;
  }

  // The worker records a trace AFTER writing the response, so a client
  // that just received its reply can race the store briefly; poll.
  uint64_t WaitForTraces(uint64_t at_least) const {
    uint64_t recorded = 0;
    for (int i = 0; i < 400; ++i) {
      recorded = server->trace_store().total_recorded();
      if (recorded >= at_least) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return recorded;
  }
};

TEST(NetServerTest, PingAddQueryStatsFlushRoundTrip) {
  TestServer fixture;
  Client client = fixture.MakeClient();
  ASSERT_TRUE(client.Ping().ok());

  Result<uint64_t> added = client.Add({kMinowTsv, kArceneauxTsv});
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_EQ(*added, 2u);
  EXPECT_EQ(fixture.catalog->entry_count(), 2u);

  Result<WireQueryResult> result = client.Query("author:minow");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->total_matches, 1u);
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].author, "Minow, Martha");
  EXPECT_EQ(result->hits[0].title,
            "All in the Family and in All Families");
  EXPECT_EQ(result->hits[0].citation, "95:275 (1992)");

  Result<WireStats> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->entry_count, 2u);
  EXPECT_EQ(stats->group_count, 2u);

  EXPECT_TRUE(client.Flush().ok());  // No-op for in-memory, still OK.

  // The shared registry carries the server-side instruments.
  EXPECT_GE(fixture.CounterValue("authidx_server_requests_total"), 5u);
  EXPECT_EQ(fixture.CounterValue("authidx_shed_requests_total"), 0u);
}

TEST(NetServerTest, BadQueryAndBadTsvSurfaceEngineStatusCodes) {
  TestServer fixture;
  Client client = fixture.MakeClient();
  Result<WireQueryResult> result = client.Query("year:abc");
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();

  Result<uint64_t> added = client.Add({"not a tsv line"});
  EXPECT_FALSE(added.ok());
  EXPECT_FALSE(added.status().IsIOError());  // Parse error, not I/O.
  EXPECT_EQ(fixture.catalog->entry_count(), 0u);

  // The connection survives request-level errors.
  EXPECT_TRUE(client.Ping().ok());
}

// offset + limit past SIZE_MAX once overflowed in the executor and
// threw from the worker, taking the whole process down.
TEST(NetServerTest, HugeLimitQueryIsAnsweredAndServingContinues) {
  TestServer fixture;
  Client client = fixture.MakeClient();
  ASSERT_TRUE(client.Add({kMinowTsv, kArceneauxTsv}).ok());

  Result<WireQueryResult> result =
      client.Query("author:a* offset:1 limit:18446744073709551615");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->total_matches, 1u);
  EXPECT_TRUE(result->hits.empty());

  result = client.Query("author:minow limit:18446744073709551615");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].author, "Minow, Martha");
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, PipelinedRequestsAllAnsweredAndMatchedById) {
  TestServer fixture;
  ASSERT_TRUE(fixture.catalog
                  ->AddAll(*ParseTsv(std::string(kMinowTsv) + "\n" +
                                     kArceneauxTsv + "\n"))
                  .ok());
  Client client = fixture.MakeClient();
  ASSERT_TRUE(client.Connect().ok());

  std::string query_payload;
  EncodeQueryRequest("author:minow", &query_payload);
  constexpr size_t kDepth = 16;
  std::set<uint64_t> sent;
  for (size_t i = 0; i < kDepth; ++i) {
    uint64_t id = 0;
    Status s = (i % 2 == 0)
                   ? client.SendRequest(Opcode::kQuery, query_payload, &id)
                   : client.SendRequest(Opcode::kPing, {}, &id);
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_TRUE(sent.insert(id).second);
  }
  // Responses may arrive in any order (the protocol's request_id is the
  // correlation mechanism); every request must be answered exactly once.
  std::set<uint64_t> received;
  for (size_t i = 0; i < kDepth; ++i) {
    uint64_t id = 0;
    ResponsePayload response;
    ASSERT_TRUE(client.ReceiveResponse(&id, &response).ok());
    EXPECT_EQ(response.status, WireStatus::kOk);
    EXPECT_TRUE(received.insert(id).second) << "duplicate response " << id;
  }
  EXPECT_EQ(received, sent);
}

TEST(NetServerTest, OversizedFrameGetsBadFrameAndCloses) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  TestServer fixture(options);
  Client client = fixture.MakeClient();
  ASSERT_TRUE(client.Connect().ok());

  std::string big_payload;
  EncodeAddRequest({std::string(4096, 'x')}, &big_payload);
  uint64_t id = 0;
  ASSERT_TRUE(client.SendRequest(Opcode::kAdd, big_payload, &id).ok());

  ResponsePayload response;
  uint64_t response_id = 0;
  ASSERT_TRUE(client.ReceiveResponse(&response_id, &response).ok());
  EXPECT_EQ(response.status, WireStatus::kBadFrame);
  // The stream cannot be resynchronized, so the BAD_FRAME response
  // cannot echo the request id (the header was never trusted).
  EXPECT_EQ(response_id, 0u);
  // ...and the server closes the connection right after.
  Status s = client.ReceiveResponse(&response_id, &response);
  EXPECT_TRUE(s.IsIOError()) << s;

  EXPECT_GE(fixture.CounterValue("authidx_server_bad_frames_total"), 1u);

  // A fresh connection works: the poisoned one was quarantined alone.
  Client fresh = fixture.MakeClient();
  EXPECT_TRUE(fresh.Ping().ok());
}

TEST(NetServerTest, CorruptFrameAlsoGetsBadFrame) {
  TestServer fixture;
  Client client = fixture.MakeClient();
  ASSERT_TRUE(client.Connect().ok());
  EXPECT_TRUE(client.Ping().ok());

  // Hand-corrupt a frame on a second raw connection so the CRC fails.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(fixture.server->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  FrameHeader header;
  header.request_id = 5;
  std::string frame;
  EncodeFrame(header, "payload", &frame);
  frame[frame.size() - 1] = static_cast<char>(frame.back() ^ 0x1);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  // The server answers BAD_FRAME then closes; read until EOF.
  std::string response_bytes;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    response_bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  DecodedFrame decoded;
  ASSERT_EQ(DecodeFrame(response_bytes, kMaxFrameBytesDefault, &decoded,
                        nullptr),
            DecodeOutcome::kFrame);
  ResponsePayload response;
  ASSERT_TRUE(DecodeResponsePayload(decoded.payload, &response).ok());
  EXPECT_EQ(response.status, WireStatus::kBadFrame);

  // The first client's connection is unaffected.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, ResponseTruncatedMidFrameIsATransientIOError) {
  TestServer fixture;
  tests::TcpRelay relay(fixture.server->port());
  ASSERT_TRUE(relay.Start());

  ClientOptions options;
  options.port = relay.port();
  options.retry.max_attempts = 1;
  Client client(options);

  // Arm before the client's first connection: deliver only the first
  // few bytes of the response — a frame cut off inside its header —
  // then hard-close.
  relay.set_truncate_after(3);
  Status truncated = client.Ping();
  EXPECT_TRUE(truncated.IsIOError()) << truncated;
  EXPECT_EQ(relay.response_bytes_forwarded(), 3u);

  // Disarm: the client reconnects (new relay connection, fresh budget)
  // and the stream works end to end again.
  relay.clear_faults();
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, UnknownOpcodeIsAnsweredWithoutClosing) {
  TestServer fixture;
  Client client = fixture.MakeClient();
  ASSERT_TRUE(client.Connect().ok());
  uint64_t id = 0;
  ASSERT_TRUE(
      client.SendRequest(static_cast<Opcode>(0x7f), "", &id).ok());
  ResponsePayload response;
  uint64_t response_id = 0;
  ASSERT_TRUE(client.ReceiveResponse(&response_id, &response).ok());
  EXPECT_EQ(response.status, WireStatus::kUnknownOpcode);
  EXPECT_EQ(response_id, id);  // CRC-valid header, so the id is usable.
  // The stream stayed in sync: the same connection keeps working.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, ClientAbortMidResponseDoesNotHurtTheServer) {
  TestServer fixture;
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < 500; ++i) {
    Entry entry;
    entry.author = {"Abbott", "A. " + std::to_string(i), "", false};
    entry.title = "Title number " + std::to_string(i) +
                  std::string(200, 'x');  // Fatten the response.
    entry.citation = {90, i + 1, 1990};
    entries.push_back(std::move(entry));
  }
  ASSERT_TRUE(fixture.catalog->AddAll(std::move(entries)).ok());

  // Request a large result, then reset the connection without reading a
  // byte (SO_LINGER 0 turns close() into an RST): the worker's write
  // must fail gracefully, never kill the process via SIGPIPE.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(fixture.server->port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::string payload;
  EncodeQueryRequest("author:abbott limit:500", &payload);
  FrameHeader header;
  header.opcode = Opcode::kQuery;
  header.request_id = 1;
  std::string frame;
  EncodeFrame(header, payload, &frame);
  ASSERT_EQ(::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  struct linger hard_reset = {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_reset,
               sizeof(hard_reset));
  ::close(fd);

  // The server keeps serving everyone else.
  Client client = fixture.MakeClient();
  for (int i = 0; i < 5; ++i) {
    Result<WireQueryResult> result =
        client.Query("author:abbott limit:3");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->hits.size(), 3u);
  }
}

TEST(NetServerTest, SheddingTriggersUnderOverloadAndCountsIt) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_limit = 1;
  options.max_pipeline = 64;
  options.handler_delay_ms_for_test = 50;  // Hold the one worker busy.
  TestServer fixture(options);
  Client client = fixture.MakeClient();
  ASSERT_TRUE(client.Connect().ok());

  constexpr size_t kBurst = 8;
  for (size_t i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client.SendRequest(Opcode::kPing, {}, &id).ok());
  }
  size_t ok = 0;
  size_t busy = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    ResponsePayload response;
    ASSERT_TRUE(client.ReceiveResponse(&id, &response).ok());
    if (response.status == WireStatus::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(response.status, WireStatus::kRetryableBusy)
          << response.message;
      ++busy;
    }
  }
  // One slow worker + queue bound 1: the burst must overflow admission
  // control (exact counts depend on scheduling, the invariant doesn't).
  EXPECT_GE(ok, 1u);
  EXPECT_GE(busy, 1u);
  EXPECT_EQ(ok + busy, kBurst);
  EXPECT_GE(fixture.CounterValue("authidx_shed_requests_total"), busy);

  // RETRYABLE_BUSY maps to a transient Status, so the synchronous
  // client retries through the overload and eventually lands.
  Client retrying = fixture.MakeClient(/*max_attempts=*/10);
  EXPECT_TRUE(retrying.Ping().ok());
}

TEST(NetServerTest, PerConnectionPipelineLimitSheds) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_limit = 1024;  // Queue never fills; the cap must come
  options.max_pipeline = 2;    // from the per-connection limit.
  options.handler_delay_ms_for_test = 50;
  TestServer fixture(options);
  Client client = fixture.MakeClient();
  ASSERT_TRUE(client.Connect().ok());
  constexpr size_t kBurst = 6;
  for (size_t i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client.SendRequest(Opcode::kPing, {}, &id).ok());
  }
  size_t busy = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    ResponsePayload response;
    ASSERT_TRUE(client.ReceiveResponse(&id, &response).ok());
    if (response.status == WireStatus::kRetryableBusy) {
      EXPECT_NE(response.message.find("pipeline"), std::string::npos);
      ++busy;
    }
  }
  EXPECT_GE(busy, 1u);
}

// ADD is not idempotent: once the request is fully sent, a failure
// while waiting for the response must NOT be blindly retried — the
// server may have executed the ingest with only the reply lost, and a
// re-send would duplicate entries.
TEST(NetServerTest, AmbiguousAddFailureIsNotRetried) {
  ServerOptions options;
  options.handler_delay_ms_for_test = 100;  // Outlive the client's
  TestServer fixture(options);              // receive timeout.
  ClientOptions client_options;
  client_options.port = fixture.server->port();
  client_options.io_timeout_ms = 30;
  client_options.retry.max_attempts = 5;
  client_options.retry.base_delay_us = 100;
  Client client(client_options);

  Result<uint64_t> added = client.Add({kMinowTsv});
  ASSERT_FALSE(added.ok());
  EXPECT_TRUE(added.status().IsIOError()) << added.status();
  EXPECT_NE(added.status().message().find("not retried"),
            std::string::npos)
      << added.status();

  // The server executes the one ADD it received; a blind retry under
  // max_attempts=5 would have ingested the line again.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(fixture.catalog->entry_count(), 1u);
}

// A QUERY whose rendered hit page would overflow the frame cap must
// not produce a frame the client rejects as corrupt: the server
// truncates the page to fit while total_matches reports every match.
TEST(NetServerTest, QueryHitPageIsTruncatedToFitTheFrameCap) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  TestServer fixture(options);
  std::vector<Entry> entries;
  for (uint32_t i = 0; i < 40; ++i) {
    Entry entry;
    entry.author = {"Abbott", "A. " + std::to_string(i), "", false};
    entry.title = "Title number " + std::to_string(i) +
                  std::string(200, 'x');  // ~230 bytes per hit.
    entry.citation = {90, i + 1, 1990};
    entries.push_back(std::move(entry));
  }
  ASSERT_TRUE(fixture.catalog->AddAll(std::move(entries)).ok());

  Client client = fixture.MakeClient();  // Default 1 MiB client cap.
  Result<WireQueryResult> result = client.Query("author:abbott limit:40");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->total_matches, 40u);
  EXPECT_LT(result->hits.size(), 40u);
  EXPECT_GE(result->hits.size(), 1u);

  // The connection survives: the response frame stayed under the cap.
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetServerTest, ConnectionLimitRejectsTheOverflow) {
  ServerOptions options;
  options.max_connections = 1;
  TestServer fixture(options);
  Client first = fixture.MakeClient();
  ASSERT_TRUE(first.Ping().ok());

  Client second = fixture.MakeClient();
  Status s = second.Ping();
  EXPECT_FALSE(s.ok());
  EXPECT_GE(fixture.CounterValue("authidx_server_rejected_connections_total"),
            1u);
  // The admitted connection is unaffected.
  EXPECT_TRUE(first.Ping().ok());
}

TEST(NetServerTest, StopDrainsQueuedRequestsBeforeExiting) {
  ServerOptions options;
  options.num_workers = 1;
  options.queue_limit = 64;
  options.max_pipeline = 64;
  options.handler_delay_ms_for_test = 30;
  TestServer fixture(options);
  Client client = fixture.MakeClient();
  ASSERT_TRUE(client.Connect().ok());

  constexpr size_t kQueued = 3;
  std::set<uint64_t> sent;
  for (size_t i = 0; i < kQueued; ++i) {
    uint64_t id = 0;
    ASSERT_TRUE(client.SendRequest(Opcode::kPing, {}, &id).ok());
    sent.insert(id);
  }
  // Give the event loop time to parse and enqueue all three, then stop:
  // the contract is that already-accepted requests are answered.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fixture.server->Stop();

  std::set<uint64_t> received;
  for (size_t i = 0; i < kQueued; ++i) {
    uint64_t id = 0;
    ResponsePayload response;
    Status s = client.ReceiveResponse(&id, &response);
    ASSERT_TRUE(s.ok()) << "response " << i << ": " << s;
    EXPECT_EQ(response.status, WireStatus::kOk);
    received.insert(id);
  }
  EXPECT_EQ(received, sent);
  EXPECT_FALSE(fixture.server->running());
}

// Storage latches its sticky background error; the RPC layer must
// surface it (docs/ROBUSTNESS.md meets docs/PROTOCOL.md).
TEST(NetServerTest, DegradedEngineSurfacesStickyErrorOverRpc) {
  std::string dir = ::testing::TempDir() + "/net_server_degraded";
  std::filesystem::remove_all(dir);
  tests::FaultEnv env;
  storage::EngineOptions engine_options;
  engine_options.env = &env;
  engine_options.retry_base_delay_us = 0;
  auto catalog = core::AuthorIndex::OpenPersistent(dir, engine_options);
  ASSERT_TRUE(catalog.ok()) << catalog.status();

  ServerOptions options;
  options.metrics = (*catalog)->mutable_metrics();
  Server server(catalog->get(), options);
  ASSERT_TRUE(server.Start().ok());
  ClientOptions client_options;
  client_options.port = server.port();
  client_options.retry.max_attempts = 1;
  Client client(client_options);

  ASSERT_TRUE(client.Add({kMinowTsv}).ok());

  env.FailAllFromNow();
  Result<uint64_t> doomed = client.Add({kArceneauxTsv});
  EXPECT_FALSE(doomed.ok());
  env.StopFailing();
  ASSERT_TRUE((*catalog)->StorageDegraded());

  // Degraded is sticky: writes keep failing fast with the latched
  // background error even though the injected fault is gone. The wire
  // carries the original status code and the degraded detail verbatim.
  Result<uint64_t> still_failing = client.Add({kArceneauxTsv});
  ASSERT_FALSE(still_failing.ok());
  EXPECT_TRUE(still_failing.status().IsIOError()) << still_failing.status();
  EXPECT_NE(still_failing.status().message().find("degraded"),
            std::string::npos)
      << still_failing.status();

  // ...while reads serve the durable state over the same connection.
  Result<WireQueryResult> result = client.Query("author:minow");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->total_matches, 1u);

  server.Stop();
  catalog->reset();
  std::filesystem::remove_all(dir);
}

// A traced query must come back with the client's trace id and the
// server's span tree, and the same id must be findable server-side in
// /tracez and /rpcz — that is the whole point of wire propagation.
TEST(NetServerTest, TracedQueryPropagatesIdAndReturnsSpanTree) {
  TestServer fixture;
  ASSERT_TRUE(fixture.catalog
                  ->AddAll(*ParseTsv(std::string(kMinowTsv) + "\n"))
                  .ok());
  ClientOptions options;
  options.port = fixture.server->port();
  options.retry.max_attempts = 1;
  options.trace = true;
  Client client(options);

  Result<WireQueryResult> result = client.Query("author:minow");
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->hits.size(), 1u);

  const RpcTrace& trace = client.last_trace();
  EXPECT_FALSE(trace.trace_id.IsZero());
  EXPECT_TRUE(trace.sampled);
  ASSERT_FALSE(trace.spans.empty());
  EXPECT_EQ(trace.spans[0].name, "rpc/QUERY");
  EXPECT_EQ(trace.spans[0].depth, 0);
  std::set<std::string> names;
  for (const obs::Trace::Span& span : trace.spans) {
    names.insert(span.name);
  }
  // The RPC lifecycle children are always present...
  EXPECT_TRUE(names.count("socket_read")) << "missing socket_read";
  EXPECT_TRUE(names.count("decode")) << "missing decode";
  EXPECT_TRUE(names.count("queue_wait")) << "missing queue_wait";
  EXPECT_TRUE(names.count("execute")) << "missing execute";
  // ...with the engine's own spans grafted beneath "execute".
  EXPECT_TRUE(names.count("query")) << "missing engine query span";
  EXPECT_TRUE(names.count("parse")) << "missing engine parse span";

  // The same trace id is recoverable server-side.
  EXPECT_GE(fixture.WaitForTraces(1), 1u);
  std::string hex = trace.trace_id.ToHex();
  EXPECT_NE(fixture.server->TracezText().find(hex), std::string::npos)
      << "trace " << hex << " not in /tracez";
  std::string rpcz = fixture.server->RpczJson();
  EXPECT_NE(rpcz.find("\"QUERY\""), std::string::npos) << rpcz;
}

// Out-of-order pipelined responses must each carry the trace id of
// their own request — a server that answers from one shared slot (or
// cross-wires trace prefixes between connections' in-flight requests)
// fails this.
TEST(NetServerTest, PipelinedTracesMatchTheirOwnRequests) {
  TestServer fixture;
  ASSERT_TRUE(fixture.catalog
                  ->AddAll(*ParseTsv(std::string(kMinowTsv) + "\n" +
                                     kArceneauxTsv + "\n"))
                  .ok());
  ClientOptions options;
  options.port = fixture.server->port();
  options.retry.max_attempts = 1;
  options.trace = true;
  Client client(options);
  ASSERT_TRUE(client.Connect().ok());

  std::string query_payload;
  EncodeQueryRequest("author:minow", &query_payload);
  constexpr size_t kDepth = 8;
  std::map<uint64_t, obs::TraceId> sent;  // request_id -> trace id
  std::map<uint64_t, std::string> root;   // request_id -> root span
  for (size_t i = 0; i < kDepth; ++i) {
    uint64_t id = 0;
    obs::TraceId trace_id;
    Status s = (i % 2 == 0)
                   ? client.SendRequest(Opcode::kQuery, query_payload,
                                        &id, &trace_id)
                   : client.SendRequest(Opcode::kPing, {}, &id, &trace_id);
    ASSERT_TRUE(s.ok()) << s;
    EXPECT_FALSE(trace_id.IsZero());
    ASSERT_TRUE(sent.emplace(id, trace_id).second);
    root.emplace(id, i % 2 == 0 ? "rpc/QUERY" : "rpc/PING");
  }
  for (size_t i = 0; i < kDepth; ++i) {
    uint64_t id = 0;
    ResponsePayload response;
    ASSERT_TRUE(client.ReceiveResponse(&id, &response).ok());
    EXPECT_EQ(response.status, WireStatus::kOk);
    ASSERT_EQ(sent.count(id), 1u) << "unknown response id " << id;
    // The response's trace context is the one this request carried,
    // independent of the order responses came back in.
    EXPECT_EQ(client.last_trace().trace_id, sent[id])
        << "trace id mismatch on request " << id;
    ASSERT_FALSE(client.last_trace().spans.empty());
    EXPECT_EQ(client.last_trace().spans[0].name, root[id]);
    sent.erase(id);
  }
  EXPECT_TRUE(sent.empty());
  EXPECT_GE(fixture.WaitForTraces(kDepth), kDepth);
}

// Head sampling without client trace context: the server records 1 in
// N requests into its own store, and responses stay flag-free (the
// decision is local; untraced clients never see trace bytes).
TEST(NetServerTest, HeadSamplingRecordsUntracedRequests) {
  ServerOptions options;
  options.trace_sample_every = 1;  // Sample everything.
  TestServer fixture(options);
  Client client = fixture.MakeClient();
  ASSERT_TRUE(client.Ping().ok());
  EXPECT_GE(fixture.WaitForTraces(1), 1u);
  // The client saw no trace context on the wire.
  EXPECT_TRUE(client.last_trace().trace_id.IsZero());
  EXPECT_TRUE(client.last_trace().spans.empty());
}

TEST(NetServerTest, StartStopLifecycle) {
  TestServer fixture;
  EXPECT_TRUE(fixture.server->running());
  EXPECT_GT(fixture.server->port(), 0);
  EXPECT_FALSE(fixture.server->Start().ok());  // Already running.
  fixture.server->Stop();
  EXPECT_FALSE(fixture.server->running());
  fixture.server->Stop();  // Idempotent.

  // Connections after Stop are refused.
  Client client = fixture.MakeClient();
  EXPECT_FALSE(client.Ping().ok());
}

}  // namespace
}  // namespace authidx::net
