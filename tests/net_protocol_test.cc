#include "authidx/net/protocol.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "authidx/common/coding.h"
#include "authidx/common/crc32c.h"
#include "authidx/common/retry.h"
#include "authidx/common/strings.h"

namespace authidx::net {
namespace {

// WireStatus values 0-10 mirror authidx::StatusCode one-for-one; the
// wire protocol freezes them, so drift is a compile error here.
static_assert(static_cast<uint8_t>(WireStatus::kOk) ==
              static_cast<uint8_t>(StatusCode::kOk));
static_assert(static_cast<uint8_t>(WireStatus::kInvalidArgument) ==
              static_cast<uint8_t>(StatusCode::kInvalidArgument));
static_assert(static_cast<uint8_t>(WireStatus::kNotFound) ==
              static_cast<uint8_t>(StatusCode::kNotFound));
static_assert(static_cast<uint8_t>(WireStatus::kAlreadyExists) ==
              static_cast<uint8_t>(StatusCode::kAlreadyExists));
static_assert(static_cast<uint8_t>(WireStatus::kOutOfRange) ==
              static_cast<uint8_t>(StatusCode::kOutOfRange));
static_assert(static_cast<uint8_t>(WireStatus::kCorruption) ==
              static_cast<uint8_t>(StatusCode::kCorruption));
static_assert(static_cast<uint8_t>(WireStatus::kIOError) ==
              static_cast<uint8_t>(StatusCode::kIOError));
static_assert(static_cast<uint8_t>(WireStatus::kNotSupported) ==
              static_cast<uint8_t>(StatusCode::kNotSupported));
static_assert(static_cast<uint8_t>(WireStatus::kFailedPrecondition) ==
              static_cast<uint8_t>(StatusCode::kFailedPrecondition));
static_assert(static_cast<uint8_t>(WireStatus::kResourceExhausted) ==
              static_cast<uint8_t>(StatusCode::kResourceExhausted));
static_assert(static_cast<uint8_t>(WireStatus::kInternal) ==
              static_cast<uint8_t>(StatusCode::kInternal));

TEST(FrameTest, RoundTripsHeaderAndPayload) {
  FrameHeader header;
  header.opcode = Opcode::kQuery;
  header.request_id = 0x0123456789abcdefull;
  std::string payload = "the payload \x00\xff bytes";
  std::string frame;
  EncodeFrame(header, payload, &frame);
  EXPECT_EQ(frame.size(), payload.size() + kFrameOverheadBytes);

  DecodedFrame decoded;
  Status error;
  ASSERT_EQ(DecodeFrame(frame, kMaxFrameBytesDefault, &decoded, &error),
            DecodeOutcome::kFrame)
      << error;
  EXPECT_EQ(decoded.header.version, kProtocolVersion);
  EXPECT_EQ(decoded.header.opcode, Opcode::kQuery);
  EXPECT_EQ(decoded.header.flags, 0);
  EXPECT_EQ(decoded.header.request_id, 0x0123456789abcdefull);
  EXPECT_EQ(decoded.payload, payload);
  EXPECT_EQ(decoded.frame_bytes, frame.size());
}

TEST(FrameTest, RoundTripsEmptyPayloadAndConsumesOnlyOneFrame) {
  std::string frames;
  FrameHeader ping;
  ping.request_id = 1;
  EncodeFrame(ping, "", &frames);
  size_t first_size = frames.size();
  FrameHeader second;
  second.opcode = Opcode::kStats;
  second.request_id = 2;
  EncodeFrame(second, "", &frames);

  DecodedFrame decoded;
  ASSERT_EQ(DecodeFrame(frames, kMaxFrameBytesDefault, &decoded, nullptr),
            DecodeOutcome::kFrame);
  EXPECT_EQ(decoded.header.request_id, 1u);
  EXPECT_TRUE(decoded.payload.empty());
  EXPECT_EQ(decoded.frame_bytes, first_size);

  std::string_view rest =
      std::string_view(frames).substr(decoded.frame_bytes);
  ASSERT_EQ(DecodeFrame(rest, kMaxFrameBytesDefault, &decoded, nullptr),
            DecodeOutcome::kFrame);
  EXPECT_EQ(decoded.header.opcode, Opcode::kStats);
  EXPECT_EQ(decoded.header.request_id, 2u);
}

TEST(FrameTest, NeedsMoreOnEveryTruncationPoint) {
  FrameHeader header;
  header.opcode = Opcode::kAdd;
  header.request_id = 7;
  std::string frame;
  EncodeFrame(header, "abcdef", &frame);
  for (size_t len = 0; len < frame.size(); ++len) {
    DecodedFrame decoded;
    Status error;
    EXPECT_EQ(DecodeFrame(std::string_view(frame).substr(0, len),
                          kMaxFrameBytesDefault, &decoded, &error),
              DecodeOutcome::kNeedMore)
        << "prefix of " << len << " bytes";
  }
}

TEST(FrameTest, RejectsCorruptionAnywhereInTheFrame) {
  FrameHeader header;
  header.opcode = Opcode::kPing;
  header.request_id = 9;
  std::string frame;
  EncodeFrame(header, "payload", &frame);
  // Flip one bit in the version byte, the payload, and the CRC itself:
  // every one must fail the checksum (or a validity check), never pass.
  for (size_t pos : {size_t{4}, size_t{16}, frame.size() - 1}) {
    std::string corrupt = frame;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    DecodedFrame decoded;
    Status error;
    EXPECT_EQ(DecodeFrame(corrupt, kMaxFrameBytesDefault, &decoded, &error),
              DecodeOutcome::kError)
        << "corrupt byte at " << pos;
    EXPECT_FALSE(error.ok());
  }
}

TEST(FrameTest, RejectsOversizedFrameBeforeBufferingPayload) {
  // Only the 4-byte length prefix announcing a huge frame: the decoder
  // must reject from the announcement alone, not wait for the payload.
  std::string prefix;
  PutFixed32(&prefix, 1u << 30);
  DecodedFrame decoded;
  Status error;
  EXPECT_EQ(DecodeFrame(prefix, kMaxFrameBytesDefault, &decoded, &error),
            DecodeOutcome::kError);
  EXPECT_NE(error.message().find("exceeds cap"), std::string::npos)
      << error;

  // The same frame passes under a bigger cap and fails under a smaller
  // one, so per-connection limits are enforceable.
  FrameHeader header;
  std::string frame;
  EncodeFrame(header, std::string(1000, 'x'), &frame);
  EXPECT_EQ(DecodeFrame(frame, frame.size(), &decoded, &error),
            DecodeOutcome::kFrame);
  EXPECT_EQ(DecodeFrame(frame, frame.size() - 1, &decoded, &error),
            DecodeOutcome::kError);
}

TEST(FrameTest, RejectsBadVersionLengthAndFlags) {
  FrameHeader header;
  header.request_id = 3;
  std::string frame;
  EncodeFrame(header, "", &frame);

  // Version byte is CRC-covered, so re-frame with a bogus version via a
  // hand-built body (flip byte then fix the CRC).
  std::string bad_version = frame;
  bad_version[4] = 2;
  uint32_t crc = crc32c::Value(std::string_view(bad_version)
                                   .substr(4, bad_version.size() - 8));
  std::string fixed_crc;
  PutFixed32(&fixed_crc, crc32c::Mask(crc));
  bad_version.replace(bad_version.size() - 4, 4, fixed_crc);
  DecodedFrame decoded;
  Status error;
  EXPECT_EQ(
      DecodeFrame(bad_version, kMaxFrameBytesDefault, &decoded, &error),
      DecodeOutcome::kError);
  EXPECT_NE(error.message().find("version"), std::string::npos) << error;

  // Bit 15 is outside kKnownFlagsMask; bit 0 (TRACE_CONTEXT) is legal.
  std::string bad_flags = frame;
  bad_flags[7] = static_cast<char>(0x80);
  crc = crc32c::Value(
      std::string_view(bad_flags).substr(4, bad_flags.size() - 8));
  fixed_crc.clear();
  PutFixed32(&fixed_crc, crc32c::Mask(crc));
  bad_flags.replace(bad_flags.size() - 4, 4, fixed_crc);
  EXPECT_EQ(DecodeFrame(bad_flags, kMaxFrameBytesDefault, &decoded, &error),
            DecodeOutcome::kError);
  EXPECT_NE(error.message().find("flags"), std::string::npos) << error;

  // A length below the fixed header+trailer minimum can never be valid.
  std::string runt;
  PutFixed32(&runt, 4);
  runt.append(16, '\0');
  EXPECT_EQ(DecodeFrame(runt, kMaxFrameBytesDefault, &decoded, &error),
            DecodeOutcome::kError);
  EXPECT_NE(error.message().find("below minimum"), std::string::npos)
      << error;
}

TEST(FrameTest, AcceptsAssignedFlagBits) {
  FrameHeader header;
  header.opcode = Opcode::kQuery;
  header.flags = kFlagTraceContext;
  header.request_id = 11;
  std::string frame;
  EncodeFrame(header, "body", &frame);
  DecodedFrame decoded;
  Status error;
  ASSERT_EQ(DecodeFrame(frame, kMaxFrameBytesDefault, &decoded, &error),
            DecodeOutcome::kFrame)
      << error;
  EXPECT_EQ(decoded.header.flags, kFlagTraceContext);
}

TEST(TraceContextTest, RoundTrip) {
  TraceContext ctx;
  ctx.trace_id = obs::TraceId{0x0123456789abcdefull, 0xfedcba9876543210ull};
  ctx.sampled = true;
  std::string wire;
  EncodeTraceContext(ctx, &wire);
  ASSERT_EQ(wire.size(), kTraceContextBytes);
  wire += "payload after the prefix";

  std::string_view view = wire;
  TraceContext decoded;
  ASSERT_TRUE(DecodeTraceContext(&view, &decoded).ok());
  EXPECT_EQ(decoded.trace_id, ctx.trace_id);
  EXPECT_TRUE(decoded.sampled);
  // The prefix — and only the prefix — is consumed.
  EXPECT_EQ(view, "payload after the prefix");
}

TEST(TraceContextTest, RejectsShortPrefixAndBadSamplingByte) {
  TraceContext ctx;
  ctx.trace_id = obs::TraceId{1, 2};
  std::string wire;
  EncodeTraceContext(ctx, &wire);

  std::string_view truncated = std::string_view(wire).substr(0, 16);
  TraceContext decoded;
  EXPECT_TRUE(DecodeTraceContext(&truncated, &decoded).IsCorruption());

  std::string bad = wire;
  bad[16] = 2;  // Sampling byte must be 0 or 1.
  std::string_view view = bad;
  EXPECT_TRUE(DecodeTraceContext(&view, &decoded).IsCorruption());
}

TEST(TraceContextTest, SpanListRoundTripPreservesTreeShape) {
  obs::Trace trace;
  trace.AppendSpan("rpc/QUERY", 0, 5'000'000, 900);
  trace.AppendSpan("execute", 1, 5'000'100, 200);
  ASSERT_EQ(trace.spans().size(), 2u);

  std::string wire;
  EncodeTraceSpans(trace.spans(), &wire);
  wire += "rest";
  std::string_view view = wire;
  std::vector<obs::Trace::Span> decoded;
  ASSERT_TRUE(DecodeTraceSpans(&view, &decoded).ok());
  EXPECT_EQ(view, "rest");
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].name, "rpc/QUERY");
  EXPECT_EQ(decoded[0].depth, 0);
  EXPECT_EQ(decoded[1].name, "execute");
  EXPECT_EQ(decoded[1].depth, 1);
  // Start offsets are relative to the first span, so the root is 0 and
  // children keep their distance from it.
  EXPECT_EQ(decoded[0].start_ns, 0u);
  EXPECT_EQ(decoded[1].start_ns,
            trace.spans()[1].start_ns - trace.spans()[0].start_ns);
  EXPECT_EQ(decoded[1].duration_ns, trace.spans()[1].duration_ns);

  // Empty list is a single zero count byte.
  std::string empty;
  EncodeTraceSpans({}, &empty);
  EXPECT_EQ(empty.size(), 1u);
  std::string_view empty_view = empty;
  ASSERT_TRUE(DecodeTraceSpans(&empty_view, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(TraceContextTest, RejectsForgedSpanCountBeforeReserving) {
  std::string forged;
  PutVarint32(&forged, 0xffffffffu);
  std::string_view view = forged;
  std::vector<obs::Trace::Span> spans;
  Status s = DecodeTraceSpans(&view, &spans);
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_NE(s.message().find("count"), std::string::npos) << s;
}

TEST(SerdeTest, QueryRequestRoundTrip) {
  std::string payload;
  EncodeQueryRequest("author:mc* coal year:1975..", &payload);
  std::string_view text;
  ASSERT_TRUE(DecodeQueryRequest(payload, &text).ok());
  EXPECT_EQ(text, "author:mc* coal year:1975..");

  payload.push_back('x');
  EXPECT_TRUE(DecodeQueryRequest(payload, &text).IsCorruption());
}

TEST(SerdeTest, AddRequestRoundTrip) {
  std::vector<std::string> lines = {
      "Minow, M.\tAll in the Family\t95:275 (1992)",
      "Arceneaux, W. J., III\tCoal Fields\t95:691 (1993)",
  };
  std::string payload;
  EncodeAddRequest(lines, &payload);
  std::vector<std::string_view> decoded;
  ASSERT_TRUE(DecodeAddRequest(payload, &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], lines[0]);
  EXPECT_EQ(decoded[1], lines[1]);

  payload.push_back('x');
  EXPECT_TRUE(DecodeAddRequest(payload, &decoded).IsCorruption());
  // A count that promises more lines than the payload holds.
  std::string truncated;
  PutVarint32(&truncated, 3);
  PutLengthPrefixed(&truncated, "only one");
  EXPECT_FALSE(DecodeAddRequest(truncated, &decoded).ok());
}

TEST(SerdeTest, RejectsForgedCountsBeforeReserving) {
  // A tiny CRC-valid payload claiming 2^32-1 items must fail count
  // validation up front — not reserve() gigabytes and die on
  // bad_alloc (the DoS this guards against).
  std::string forged;
  PutVarint32(&forged, 0xffffffffu);
  std::vector<std::string_view> lines;
  Status s = DecodeAddRequest(forged, &lines);
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_NE(s.message().find("count"), std::string::npos) << s;

  std::string body;
  PutVarint64(&body, 1);  // total_matches
  body.push_back('\0');   // plan
  PutVarint32(&body, 0xffffffffu);  // forged hit count, empty body
  WireQueryResult result;
  s = DecodeQueryResult(body, &result);
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_NE(s.message().find("count"), std::string::npos) << s;
}

TEST(SerdeTest, QueryResultRoundTripPreservesScoreBits) {
  WireQueryResult result;
  result.total_matches = 12345;
  result.plan = 3;
  WireHit hit;
  hit.id = 42;
  hit.score = 0.1 + 0.2;  // A value decimal text would mangle.
  hit.author = "Minow, Martha";
  hit.title = "All in the Family and in All Families";
  hit.citation = "95:275 (1992)";
  result.hits.push_back(hit);
  WireHit second;
  second.id = 7;
  second.score = -0.0;
  result.hits.push_back(second);

  std::string body;
  EncodeQueryResult(result, &body);
  WireQueryResult decoded;
  ASSERT_TRUE(DecodeQueryResult(body, &decoded).ok());
  EXPECT_EQ(decoded.total_matches, 12345u);
  EXPECT_EQ(decoded.plan, 3);
  ASSERT_EQ(decoded.hits.size(), 2u);
  EXPECT_EQ(decoded.hits[0].id, 42u);
  EXPECT_EQ(decoded.hits[0].score, 0.1 + 0.2);  // Bit-exact transport.
  EXPECT_EQ(decoded.hits[0].author, "Minow, Martha");
  EXPECT_EQ(decoded.hits[0].title, hit.title);
  EXPECT_EQ(decoded.hits[0].citation, "95:275 (1992)");
  EXPECT_TRUE(std::signbit(decoded.hits[1].score));

  body.push_back('x');
  EXPECT_TRUE(DecodeQueryResult(body, &decoded).IsCorruption());
  EXPECT_FALSE(DecodeQueryResult("", &decoded).ok());
}

TEST(SerdeTest, StatsRoundTrip) {
  WireStats stats;
  stats.entry_count = 1u << 20;
  stats.group_count = 999;
  std::string body;
  EncodeStats(stats, &body);
  WireStats decoded;
  ASSERT_TRUE(DecodeStats(body, &decoded).ok());
  EXPECT_EQ(decoded.entry_count, 1u << 20);
  EXPECT_EQ(decoded.group_count, 999u);
  body.push_back('x');
  EXPECT_TRUE(DecodeStats(body, &decoded).IsCorruption());
}

TEST(SerdeTest, ResponsePayloadRoundTrip) {
  ResponsePayload response;
  response.status = WireStatus::kRetryableBusy;
  response.message = "worker queue full";
  response.body = "opaque body bytes";
  std::string payload;
  EncodeResponsePayload(response, &payload);
  ResponsePayload decoded;
  ASSERT_TRUE(DecodeResponsePayload(payload, &decoded).ok());
  EXPECT_EQ(decoded.status, WireStatus::kRetryableBusy);
  EXPECT_EQ(decoded.message, "worker queue full");
  EXPECT_EQ(decoded.body, "opaque body bytes");
  EXPECT_TRUE(DecodeResponsePayload("", &decoded).IsCorruption());
}

TEST(SerdeTest, ReplSubscribeAndAckRoundTrip) {
  WirePosition cursor{3, 4096};
  std::string payload;
  EncodeReplSubscribe(cursor, &payload);
  WirePosition decoded;
  ASSERT_TRUE(DecodeReplSubscribe(payload, &decoded).ok());
  EXPECT_EQ(decoded.wal_number, 3u);
  EXPECT_EQ(decoded.offset, 4096u);
  payload.push_back('x');
  EXPECT_TRUE(DecodeReplSubscribe(payload, &decoded).IsCorruption());
  EXPECT_TRUE(DecodeReplSubscribe("short", &decoded).IsCorruption());

  WireReplSubscribeAck ack;
  ack.start = {7, 123};
  std::string body;
  EncodeReplSubscribeAck(ack, &body);
  EXPECT_EQ(body.size(), 16u);  // Just the position.
  WireReplSubscribeAck decoded_ack;
  ASSERT_TRUE(DecodeReplSubscribeAck(body, &decoded_ack).ok());
  EXPECT_EQ(decoded_ack.start.wal_number, 7u);
  EXPECT_EQ(decoded_ack.start.offset, 123u);
  body.push_back('x');
  EXPECT_TRUE(DecodeReplSubscribeAck(body, &decoded_ack).IsCorruption());
  EXPECT_TRUE(DecodeReplSubscribeAck("", &decoded_ack).IsCorruption());
}

TEST(SerdeTest, ReplRecordsRoundTripAndForgedCount) {
  WireReplRecords batch;
  batch.end = {2, 900};
  batch.committed = {2, 1400};
  batch.records = {"record one", "", std::string(300, 'z')};
  std::string payload;
  EncodeReplRecords(batch, &payload);
  WireReplRecords decoded;
  ASSERT_TRUE(DecodeReplRecords(payload, &decoded).ok());
  EXPECT_EQ(decoded.end.offset, 900u);
  EXPECT_EQ(decoded.committed.offset, 1400u);
  ASSERT_EQ(decoded.records.size(), 3u);
  EXPECT_EQ(decoded.records[0], "record one");
  EXPECT_EQ(decoded.records[1], "");
  EXPECT_EQ(decoded.records[2], std::string(300, 'z'));
  payload.push_back('x');
  EXPECT_TRUE(DecodeReplRecords(payload, &decoded).IsCorruption());

  // A forged record count must fail validation before the reserve()
  // (same peer-controlled-count defense as DecodeAddRequest).
  std::string forged;
  for (int i = 0; i < 4; ++i) {
    PutFixed64(&forged, 0);  // end + committed positions.
  }
  PutVarint32(&forged, 0xffffffffu);
  Status s = DecodeReplRecords(forged, &decoded);
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_NE(s.message().find("count"), std::string::npos) << s;
}

TEST(SerdeTest, ReplHeartbeatRoundTripAndBadDegradedByte) {
  WireReplHeartbeat hb;
  hb.committed = {5, 777};
  hb.degraded = 1;
  std::string payload;
  EncodeReplHeartbeat(hb, &payload);
  WireReplHeartbeat decoded;
  ASSERT_TRUE(DecodeReplHeartbeat(payload, &decoded).ok());
  EXPECT_EQ(decoded.committed.wal_number, 5u);
  EXPECT_EQ(decoded.committed.offset, 777u);
  EXPECT_EQ(decoded.degraded, 1);
  payload.back() = 2;  // Degraded is a boolean byte.
  EXPECT_TRUE(DecodeReplHeartbeat(payload, &decoded).IsCorruption());
  payload.push_back('x');
  EXPECT_TRUE(DecodeReplHeartbeat(payload, &decoded).IsCorruption());
}

TEST(StatusMappingTest, NamesAndKnownness) {
  EXPECT_EQ(OpcodeName(Opcode::kPing), "PING");
  EXPECT_EQ(OpcodeName(Opcode::kResponse), "RESPONSE");
  EXPECT_EQ(OpcodeName(static_cast<Opcode>(0x33)), "UNKNOWN");
  EXPECT_TRUE(IsKnownOpcode(0x01));
  EXPECT_TRUE(IsKnownOpcode(0x80));
  EXPECT_FALSE(IsKnownOpcode(0x00));
  EXPECT_FALSE(IsKnownOpcode(0x7f));
  EXPECT_FALSE(IsKnownOpcode(0x83));  // Reserved: the retired snapshot.
  EXPECT_EQ(WireStatusName(WireStatus::kOk), "OK");
  EXPECT_EQ(WireStatusName(WireStatus::kRetryableBusy), "RETRYABLE_BUSY");
  EXPECT_EQ(WireStatusName(static_cast<WireStatus>(200)), "UNKNOWN");
}

TEST(StatusMappingTest, EngineStatusRoundTripsThroughTheWire) {
  for (const WireStatusInfo& info : kWireStatusTable) {
    if (static_cast<uint8_t>(info.status) > 10) {
      continue;  // Transport-level conditions have no Status source.
    }
    Status original =
        info.status == WireStatus::kOk
            ? Status::OK()
            : Status(static_cast<StatusCode>(info.status), "detail");
    WireStatus wire = WireStatusFromStatus(original);
    EXPECT_EQ(wire, info.status);
    Status back = StatusFromWire(wire, std::string(original.message()));
    EXPECT_EQ(back.code(), original.code()) << info.name;
  }
}

TEST(StatusMappingTest, TransportConditionsMapToRetryableEngineCodes) {
  Status busy = StatusFromWire(WireStatus::kRetryableBusy, "queue full");
  EXPECT_TRUE(busy.IsResourceExhausted());
  // The whole point of RETRYABLE_BUSY: common/retry.h treats it as
  // transient, so the client re-sends shed requests.
  EXPECT_TRUE(IsTransientError(busy));

  Status bad = StatusFromWire(WireStatus::kBadFrame, "crc");
  EXPECT_TRUE(bad.IsInvalidArgument());
  EXPECT_FALSE(IsTransientError(bad));

  Status unknown = StatusFromWire(WireStatus::kUnknownOpcode, "0x7f");
  EXPECT_TRUE(unknown.IsNotSupported());
  EXPECT_FALSE(IsTransientError(unknown));
}

// --- doc sync -------------------------------------------------------

std::string ReadDoc(const std::string& relative) {
  std::string path = std::string(AUTHIDX_REPO_ROOT) + "/" + relative;
  std::ifstream file(path);
  EXPECT_TRUE(file.is_open()) << "missing " << path;
  std::stringstream contents;
  contents << file.rdbuf();
  return contents.str();
}

size_t CountTableRows(const std::string& doc, const std::string& prefix) {
  size_t count = 0;
  size_t pos = 0;
  while ((pos = doc.find(prefix, pos)) != std::string::npos) {
    ++count;
    pos += prefix.size();
  }
  return count;
}

// docs/PROTOCOL.md is the normative spec; its opcode table must list
// exactly the opcodes in net/protocol.h, value and name both.
TEST(DocSyncTest, ProtocolDocListsEveryOpcode) {
  std::string doc = ReadDoc("docs/PROTOCOL.md");
  for (const OpcodeInfo& info : kOpcodeTable) {
    std::string row =
        StringPrintf("| `0x%02x` | `%s` |",
                     static_cast<unsigned>(info.opcode), info.name);
    EXPECT_NE(doc.find(row), std::string::npos)
        << "docs/PROTOCOL.md is missing the opcode row: " << row;
  }
  // Two-way: the doc must not list opcodes the header does not define.
  EXPECT_EQ(CountTableRows(doc, "| `0x"),
            std::size(kOpcodeTable))
      << "docs/PROTOCOL.md has extra or missing opcode rows";
}

// Same contract for the status table (decimal values, as in responses).
TEST(DocSyncTest, ProtocolDocListsEveryWireStatus) {
  std::string doc = ReadDoc("docs/PROTOCOL.md");
  size_t rows = 0;
  for (const WireStatusInfo& info : kWireStatusTable) {
    std::string row =
        StringPrintf("| `%u` | `%s` |",
                     static_cast<unsigned>(info.status), info.name);
    EXPECT_NE(doc.find(row), std::string::npos)
        << "docs/PROTOCOL.md is missing the status row: " << row;
    ++rows;
  }
  size_t doc_rows = 0;
  for (unsigned value = 0; value < 256; ++value) {
    doc_rows += CountTableRows(
        doc, StringPrintf("| `%u` | `", value));
  }
  EXPECT_EQ(doc_rows, rows)
      << "docs/PROTOCOL.md has extra or missing status rows";
}

// The flag table is normative the same way: every assigned bit in the
// header must appear in the doc (bit index, value, and name), and the
// doc must not invent bits the header does not assign.
TEST(DocSyncTest, ProtocolDocListsEveryFlagBit) {
  std::string doc = ReadDoc("docs/PROTOCOL.md");
  uint16_t mask = 0;
  for (const FlagInfo& info : kFlagTable) {
    unsigned index = 0;
    while ((info.bit >> index) != 1u) {
      ++index;
    }
    std::string row =
        StringPrintf("| bit %u (value %u) | `%s` |", index,
                     static_cast<unsigned>(info.bit), info.name);
    EXPECT_NE(doc.find(row), std::string::npos)
        << "docs/PROTOCOL.md is missing the flag row: " << row;
    mask = static_cast<uint16_t>(mask | info.bit);
  }
  // The table and the mask must agree, or DecodeFrame rejects (or
  // accepts) bits the doc says otherwise about.
  EXPECT_EQ(mask, kKnownFlagsMask);
  EXPECT_EQ(CountTableRows(doc, "| bit "), std::size(kFlagTable))
      << "docs/PROTOCOL.md has extra or missing flag rows";
}

// The frame constants quoted in the doc's layout section must match.
TEST(DocSyncTest, ProtocolDocQuotesFrameConstants) {
  std::string doc = ReadDoc("docs/PROTOCOL.md");
  EXPECT_NE(doc.find("version = `1`"), std::string::npos);
  EXPECT_NE(doc.find("16 bytes"), std::string::npos);   // Header size.
  EXPECT_NE(doc.find("1 MiB"), std::string::npos);      // Default cap.
}

}  // namespace
}  // namespace authidx::net
