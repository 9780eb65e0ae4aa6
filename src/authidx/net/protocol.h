#ifndef AUTHIDX_NET_PROTOCOL_H_
#define AUTHIDX_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "authidx/common/result.h"
#include "authidx/common/status.h"
#include "authidx/model/record.h"
#include "authidx/obs/trace.h"

namespace authidx::net {

// The authidx wire protocol: length-prefixed, CRC-framed binary frames
// over a byte stream (TCP). docs/PROTOCOL.md is the normative spec;
// the opcode and status tables below are its machine-checked source of
// truth (tests/net_protocol_test.cc fails if either drifts from the
// doc). All multi-byte integers are little-endian; strings are
// varint32-length-prefixed byte sequences.

/// Protocol version carried in every frame header. A server answers a
/// frame whose version it does not speak with BAD_FRAME and closes the
/// connection (see docs/PROTOCOL.md "Versioning").
inline constexpr uint8_t kProtocolVersion = 1;

/// Bytes of the fixed frame prologue: u32 length + u8 version +
/// u8 opcode + u16 flags + u64 request id.
inline constexpr size_t kFrameHeaderBytes = 16;

/// Bytes of the masked-CRC32C trailer closing every frame.
inline constexpr size_t kFrameTrailerBytes = 4;

/// Framing overhead per message: header plus CRC trailer.
inline constexpr size_t kFrameOverheadBytes =
    kFrameHeaderBytes + kFrameTrailerBytes;

/// Default cap on a whole frame (header + payload + trailer). Both
/// sides drop the connection on a frame announcing more than their
/// configured cap, before buffering the payload.
inline constexpr size_t kMaxFrameBytesDefault = 1u << 20;

/// Operation selector carried in byte 5 of every frame. Requests use
/// the 0x01-0x7f range; server->client opcodes have the high bit set:
/// RESPONSE answers one request, while the REPL_* stream opcodes are
/// pushed to a subscribed follower (echoing the REPL_SUBSCRIBE
/// request_id) for the life of the subscription.
enum class Opcode : uint8_t {
  /// Liveness probe; empty payload both ways.
  kPing = 0x01,
  /// Run a query string (the authidx query grammar).
  kQuery = 0x02,
  /// Ingest TSV entry lines.
  kAdd = 0x03,
  /// Persist pending writes (engine flush).
  kFlush = 0x04,
  /// Catalog size counters.
  kStats = 0x05,
  /// Follower subscribes for WAL shipping from a position cursor.
  kReplSubscribe = 0x06,
  /// Server->client reply; request_id echoes the request.
  kResponse = 0x80,
  /// Stream: a batch of committed WAL records.
  kReplRecords = 0x81,
  /// Stream: the primary's committed position (liveness + lag signal).
  kReplHeartbeat = 0x82,
  // 0x83 is reserved: it carried snapshot chunks before followers
  // bootstrapped from the primary's log. Never reassign it.
};

/// One row of the opcode table: the value and its spec name.
struct OpcodeInfo {
  /// Wire value.
  Opcode opcode;
  /// Name used in docs/PROTOCOL.md.
  const char* name;
};

/// Every opcode, in wire-value order. docs/PROTOCOL.md's opcode table
/// is checked row-for-row against this array.
inline constexpr OpcodeInfo kOpcodeTable[] = {
    {Opcode::kPing, "PING"},
    {Opcode::kQuery, "QUERY"},
    {Opcode::kAdd, "ADD"},
    {Opcode::kFlush, "FLUSH"},
    {Opcode::kStats, "STATS"},
    {Opcode::kReplSubscribe, "REPL_SUBSCRIBE"},
    {Opcode::kResponse, "RESPONSE"},
    {Opcode::kReplRecords, "REPL_RECORDS"},
    {Opcode::kReplHeartbeat, "REPL_HEARTBEAT"},
};

/// Number of *request* opcodes (the 0x01-0x7f range): the first
/// kRequestOpcodeCount rows of kOpcodeTable, which is kept in
/// wire-value order so requests precede the high-bit stream opcodes.
inline constexpr size_t kRequestOpcodeCount = 6;

/// Spec name of `opcode` ("PING"); "UNKNOWN" for unassigned values.
std::string_view OpcodeName(Opcode opcode);

/// True when `value` is an assigned opcode.
bool IsKnownOpcode(uint8_t value);

/// First byte of every response payload: the outcome of the request.
/// Values 0-10 mirror authidx::StatusCode one-for-one; values >= 100
/// are transport-level conditions with no Status equivalent.
enum class WireStatus : uint8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kCorruption = 5,
  kIOError = 6,
  kNotSupported = 7,
  kFailedPrecondition = 8,
  kResourceExhausted = 9,
  kInternal = 10,
  /// Admission control shed the request before execution: the server is
  /// overloaded, nothing ran, and the client should back off and retry.
  kRetryableBusy = 100,
  /// The frame failed CRC/length/version validation; the server closes
  /// the connection after sending this.
  kBadFrame = 101,
  /// The request opcode is not assigned in this protocol version.
  kUnknownOpcode = 102,
  /// A mutation (ADD) or replication subscription was sent to a node
  /// that is not the primary. Never retried and never failed over:
  /// clients surface it so the operator redirects writes.
  kNotPrimary = 103,
};

/// One row of the status table: the value and its spec name.
struct WireStatusInfo {
  /// Wire value.
  WireStatus status;
  /// Name used in docs/PROTOCOL.md.
  const char* name;
};

/// Every wire status, in wire-value order. docs/PROTOCOL.md's status
/// table is checked row-for-row against this array.
inline constexpr WireStatusInfo kWireStatusTable[] = {
    {WireStatus::kOk, "OK"},
    {WireStatus::kInvalidArgument, "INVALID_ARGUMENT"},
    {WireStatus::kNotFound, "NOT_FOUND"},
    {WireStatus::kAlreadyExists, "ALREADY_EXISTS"},
    {WireStatus::kOutOfRange, "OUT_OF_RANGE"},
    {WireStatus::kCorruption, "CORRUPTION"},
    {WireStatus::kIOError, "IO_ERROR"},
    {WireStatus::kNotSupported, "NOT_SUPPORTED"},
    {WireStatus::kFailedPrecondition, "FAILED_PRECONDITION"},
    {WireStatus::kResourceExhausted, "RESOURCE_EXHAUSTED"},
    {WireStatus::kInternal, "INTERNAL"},
    {WireStatus::kRetryableBusy, "RETRYABLE_BUSY"},
    {WireStatus::kBadFrame, "BAD_FRAME"},
    {WireStatus::kUnknownOpcode, "UNKNOWN_OPCODE"},
    {WireStatus::kNotPrimary, "NOT_PRIMARY"},
};

/// Spec name of `status` ("RETRYABLE_BUSY"); "UNKNOWN" for unassigned.
std::string_view WireStatusName(WireStatus status);

/// Frame-header flag bit: when set, the payload begins with a
/// kTraceContextBytes trace-context prefix (16-byte trace id + 1-byte
/// sampling decision); the logical payload follows it. Valid on
/// requests (client asks the server to trace) and responses (server
/// returns the trace id plus its span tree ahead of the response
/// payload). See docs/PROTOCOL.md "Trace context".
inline constexpr uint16_t kFlagTraceContext = 0x0001;

/// Every flag bit assigned in protocol version 1. DecodeFrame rejects
/// frames with any bit outside this mask set (kError, connection
/// closed) so unassigned bits stay meaningful for future versions.
inline constexpr uint16_t kKnownFlagsMask = kFlagTraceContext;

/// One row of the flag table: the bit and its spec name.
struct FlagInfo {
  /// Wire bit (a power of two).
  uint16_t bit;
  /// Name used in docs/PROTOCOL.md.
  const char* name;
};

/// Every assigned flag bit, in bit order. docs/PROTOCOL.md's flag
/// table is checked row-for-row against this array.
inline constexpr FlagInfo kFlagTable[] = {
    {kFlagTraceContext, "TRACE_CONTEXT"},
};

/// Bytes of the trace-context payload prefix: 16-byte trace id
/// (hi u64 LE, lo u64 LE) + 1-byte sampling decision (0 or 1).
inline constexpr size_t kTraceContextBytes = 17;

/// The trace-context extension carried when kFlagTraceContext is set:
/// the 128-bit correlation id plus whether the sender decided to
/// sample (record spans for) this request.
struct TraceContext {
  /// Correlation id; the zero sentinel means "no trace".
  obs::TraceId trace_id;
  /// True when the sender sampled this request; the receiver records
  /// spans and returns them on the response.
  bool sampled = false;
};

/// Appends the kTraceContextBytes prefix encoding `ctx` to `*dst`.
void EncodeTraceContext(const TraceContext& ctx, std::string* dst);

/// Strips a trace-context prefix from the front of `*payload` into
/// `*ctx`. Fails with Corruption when fewer than kTraceContextBytes
/// remain or the sampling byte is not 0/1.
Status DecodeTraceContext(std::string_view* payload, TraceContext* ctx);

/// Appends a span list (the server's lifecycle span tree) to `*dst`:
/// varint32 count, then per span a length-prefixed name, varint32
/// depth, varint64 start offset (ns relative to the first span's
/// start), varint64 duration ns. Start offsets keep the encoding
/// compact and clock-domain free: the receiver rebases onto its own
/// zero.
void EncodeTraceSpans(const std::vector<obs::Trace::Span>& spans,
                      std::string* dst);

/// Decodes a span list from the front of `*payload` (consuming it),
/// rebasing start times at zero. Fails with Corruption on truncation
/// or when the count exceeds the remaining payload.
Status DecodeTraceSpans(std::string_view* payload,
                        std::vector<obs::Trace::Span>* spans);

/// Maps an engine Status onto the wire (codes 0-10 map one-for-one).
WireStatus WireStatusFromStatus(const Status& status);

/// Inverse mapping for the client: reconstructs a Status carrying
/// `message`. Transport-level conditions map onto the closest engine
/// code — RETRYABLE_BUSY becomes ResourceExhausted (transient under
/// common/retry.h, so the client retries it), BAD_FRAME becomes
/// InvalidArgument, UNKNOWN_OPCODE becomes NotSupported, NOT_PRIMARY
/// becomes FailedPrecondition (non-transient: never retried, never
/// failed over).
Status StatusFromWire(WireStatus status, std::string message);

/// Decoded fixed prologue of one frame (the length field is implicit
/// in DecodedFrame::frame_bytes).
struct FrameHeader {
  /// Protocol version (kProtocolVersion).
  uint8_t version = kProtocolVersion;
  /// Operation selector.
  Opcode opcode = Opcode::kPing;
  /// Assigned bits in kKnownFlagsMask (kFlagTraceContext); all other
  /// bits are reserved and must be zero in version 1.
  uint16_t flags = 0;
  /// Client-chosen correlation id, echoed verbatim in the response;
  /// what makes pipelining possible.
  uint64_t request_id = 0;
};

/// Appends one complete frame (header, payload, masked-CRC32C trailer)
/// to `*dst`.
void EncodeFrame(const FrameHeader& header, std::string_view payload,
                 std::string* dst);

/// Outcome of a DecodeFrame attempt against a byte buffer.
enum class DecodeOutcome {
  /// A complete, CRC-valid frame was decoded.
  kFrame,
  /// The buffer holds a valid prefix; read more bytes and retry.
  kNeedMore,
  /// The stream is unrecoverable (bad length/version/CRC/flags); the
  /// connection must be closed.
  kError,
};

/// A successfully decoded frame. `payload` aliases the input buffer and
/// is only valid until the buffer mutates.
struct DecodedFrame {
  /// Decoded prologue fields.
  FrameHeader header;
  /// Payload bytes (aliases the input buffer).
  std::string_view payload;
  /// Total encoded size, for consuming the frame from the buffer.
  size_t frame_bytes = 0;
};

/// Attempts to decode one frame from the front of `input`. On kError,
/// `*error` (may be null) receives the reason. Frames announcing more
/// than `max_frame_bytes` total are kError before their payload is
/// buffered.
DecodeOutcome DecodeFrame(std::string_view input, size_t max_frame_bytes,
                          DecodedFrame* out, Status* error);

/// QUERY request payload: the query text.
void EncodeQueryRequest(std::string_view query_text, std::string* dst);

/// Decodes a QUERY request payload (view aliases `payload`).
Status DecodeQueryRequest(std::string_view payload,
                          std::string_view* query_text);

/// ADD request payload: a batch of TSV entry lines.
void EncodeAddRequest(const std::vector<std::string>& tsv_lines,
                      std::string* dst);

/// Decodes an ADD request payload (views alias `payload`).
Status DecodeAddRequest(std::string_view payload,
                        std::vector<std::string_view>* tsv_lines);

/// One hit of a QUERY response, rendered server-side so the client
/// needs no catalog.
struct WireHit {
  /// Dense entry id on the server.
  EntryId id = 0;
  /// BM25 score when ranked by relevance; 0 in collation order.
  double score = 0.0;
  /// Author in index form ("Surname, Given, Suffix*").
  std::string author;
  /// Article title.
  std::string title;
  /// Rendered citation ("95:691 (1993)").
  std::string citation;
};

/// QUERY response body.
struct WireQueryResult {
  /// Matches before offset/limit.
  uint64_t total_matches = 0;
  /// query::PlanKind the server's planner chose, as its wire value.
  uint8_t plan = 0;
  /// The returned page of hits.
  std::vector<WireHit> hits;
};

/// Encodes a QUERY response body.
void EncodeQueryResult(const WireQueryResult& result, std::string* dst);

/// Decodes a QUERY response body.
Status DecodeQueryResult(std::string_view body, WireQueryResult* result);

/// STATS response body: catalog size counters.
struct WireStats {
  /// Total indexed entries.
  uint64_t entry_count = 0;
  /// Distinct author groups.
  uint64_t group_count = 0;
};

/// Encodes a STATS response body.
void EncodeStats(const WireStats& stats, std::string* dst);

/// Decodes a STATS response body.
Status DecodeStats(std::string_view body, WireStats* stats);

/// A log position on the wire: two fixed64s (segment number, byte
/// offset). {0, 0} from a subscriber means "I have nothing — send the
/// log from its first segment".
struct WirePosition {
  /// Log segment number (consecutive from 1).
  uint64_t wal_number = 0;
  /// Byte offset into that segment.
  uint64_t offset = 0;
};

/// REPL_SUBSCRIBE request payload: the follower's durable cursor (next
/// unread WAL byte).
void EncodeReplSubscribe(const WirePosition& position, std::string* dst);

/// Decodes a REPL_SUBSCRIBE request payload.
Status DecodeReplSubscribe(std::string_view payload, WirePosition* position);

/// RESPONSE body answering an accepted REPL_SUBSCRIBE: where the
/// stream of records starts.
struct WireReplSubscribeAck {
  /// Position the stream starts (or resumes) from: the subscribed
  /// cursor, where {0, 0} means the start of the primary's log.
  WirePosition start;
};

/// Encodes a REPL_SUBSCRIBE ack body.
void EncodeReplSubscribeAck(const WireReplSubscribeAck& ack,
                            std::string* dst);
/// Decodes a REPL_SUBSCRIBE ack body.
Status DecodeReplSubscribeAck(std::string_view body,
                              WireReplSubscribeAck* ack);

/// REPL_RECORDS stream payload: a batch of committed WAL records plus
/// the cursor after them and the primary's committed frontier (for lag
/// accounting).
struct WireReplRecords {
  /// Cursor after the last record in this batch.
  WirePosition end;
  /// The primary's committed frontier when the batch was read.
  WirePosition committed;
  /// Full WAL records (op byte + payload), in commit order.
  std::vector<std::string> records;
};

/// Encodes a REPL_RECORDS stream payload.
void EncodeReplRecords(const WireReplRecords& batch, std::string* dst);

/// Decodes a REPL_RECORDS payload. The record count is validated
/// against the remaining payload before any allocation (forged-count
/// defense), and every record is bounds-checked.
Status DecodeReplRecords(std::string_view payload, WireReplRecords* batch);

/// REPL_HEARTBEAT stream payload: primary liveness plus its committed
/// position and degradation state.
struct WireReplHeartbeat {
  /// The primary's committed frontier.
  WirePosition committed;
  /// 1 when the primary's storage engine is degraded (sticky background
  /// error): the follower should surface it and clients may prefer
  /// replicas for reads.
  uint8_t degraded = 0;
};

/// Encodes a REPL_HEARTBEAT stream payload.
void EncodeReplHeartbeat(const WireReplHeartbeat& hb, std::string* dst);
/// Decodes a REPL_HEARTBEAT payload (rejects non-boolean degraded).
Status DecodeReplHeartbeat(std::string_view payload, WireReplHeartbeat* hb);

/// Payload of every RESPONSE frame: a status, a human-readable message
/// (empty on OK), and an opcode-specific body (empty on error).
struct ResponsePayload {
  /// Outcome of the request.
  WireStatus status = WireStatus::kOk;
  /// Error detail; empty when status == kOk.
  std::string message;
  /// Opcode-specific body (e.g. an encoded WireQueryResult).
  std::string body;
};

/// Encodes a RESPONSE payload.
void EncodeResponsePayload(const ResponsePayload& response, std::string* dst);

/// Decodes a RESPONSE payload.
Status DecodeResponsePayload(std::string_view payload,
                             ResponsePayload* response);

}  // namespace authidx::net

#endif  // AUTHIDX_NET_PROTOCOL_H_
