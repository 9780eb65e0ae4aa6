#include "authidx/net/protocol.h"

#include <cstring>

#include "authidx/common/coding.h"
#include "authidx/common/crc32c.h"

namespace authidx::net {

namespace {

// Reinterprets a double's bits for fixed64 transport (exact round-trip,
// unlike decimal text).
uint64_t DoubleToBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double value = 0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

}  // namespace

std::string_view OpcodeName(Opcode opcode) {
  for (const OpcodeInfo& info : kOpcodeTable) {
    if (info.opcode == opcode) {
      return info.name;
    }
  }
  return "UNKNOWN";
}

bool IsKnownOpcode(uint8_t value) {
  for (const OpcodeInfo& info : kOpcodeTable) {
    if (static_cast<uint8_t>(info.opcode) == value) {
      return true;
    }
  }
  return false;
}

std::string_view WireStatusName(WireStatus status) {
  for (const WireStatusInfo& info : kWireStatusTable) {
    if (info.status == status) {
      return info.name;
    }
  }
  return "UNKNOWN";
}

WireStatus WireStatusFromStatus(const Status& status) {
  // StatusCode values 0-10 are mirrored one-for-one by design; the
  // static_asserts in net_protocol_test.cc keep them aligned.
  return static_cast<WireStatus>(static_cast<uint8_t>(status.code()));
}

Status StatusFromWire(WireStatus status, std::string message) {
  switch (status) {
    case WireStatus::kOk:
      return Status::OK();
    case WireStatus::kRetryableBusy:
      return Status::ResourceExhausted("RETRYABLE_BUSY: " +
                                       std::move(message));
    case WireStatus::kBadFrame:
      return Status::InvalidArgument("BAD_FRAME: " + std::move(message));
    case WireStatus::kUnknownOpcode:
      return Status::NotSupported("UNKNOWN_OPCODE: " + std::move(message));
    case WireStatus::kNotPrimary:
      // FailedPrecondition is non-transient under common/retry.h, so
      // the client never retries or fails over a rejected mutation.
      return Status::FailedPrecondition("NOT_PRIMARY: " + std::move(message));
    default:
      break;
  }
  uint8_t code = static_cast<uint8_t>(status);
  if (code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::Internal("unassigned wire status " +
                            std::to_string(code) + ": " + std::move(message));
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

void EncodeFrame(const FrameHeader& header, std::string_view payload,
                 std::string* dst) {
  // length counts everything after the length field itself.
  uint32_t length = static_cast<uint32_t>(kFrameHeaderBytes - 4 +
                                          payload.size() +
                                          kFrameTrailerBytes);
  size_t body_start = dst->size() + 4;
  PutFixed32(dst, length);
  dst->push_back(static_cast<char>(header.version));
  dst->push_back(static_cast<char>(header.opcode));
  dst->push_back(static_cast<char>(header.flags & 0xff));
  dst->push_back(static_cast<char>((header.flags >> 8) & 0xff));
  PutFixed64(dst, header.request_id);
  dst->append(payload);
  uint32_t crc = crc32c::Value(
      std::string_view(dst->data() + body_start, dst->size() - body_start));
  PutFixed32(dst, crc32c::Mask(crc));
}

DecodeOutcome DecodeFrame(std::string_view input, size_t max_frame_bytes,
                          DecodedFrame* out, Status* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) {
      *error = Status::InvalidArgument(std::move(message));
    }
    return DecodeOutcome::kError;
  };
  if (input.size() < 4) {
    return DecodeOutcome::kNeedMore;
  }
  uint32_t length = DecodeFixed32(input.data());
  // Minimum: the 12 header bytes after the length field plus the CRC.
  if (length < kFrameHeaderBytes - 4 + kFrameTrailerBytes) {
    return fail("frame length " + std::to_string(length) + " below minimum");
  }
  size_t frame_bytes = 4 + static_cast<size_t>(length);
  if (frame_bytes > max_frame_bytes) {
    return fail("frame of " + std::to_string(frame_bytes) +
                " bytes exceeds cap of " + std::to_string(max_frame_bytes));
  }
  if (input.size() < frame_bytes) {
    return DecodeOutcome::kNeedMore;
  }
  std::string_view body = input.substr(4, frame_bytes - 4 -
                                              kFrameTrailerBytes);
  uint32_t stored_crc = crc32c::Unmask(
      DecodeFixed32(input.data() + frame_bytes - kFrameTrailerBytes));
  uint32_t actual_crc = crc32c::Value(body);
  if (stored_crc != actual_crc) {
    return fail("frame CRC mismatch");
  }
  FrameHeader header;
  header.version = static_cast<uint8_t>(body[0]);
  header.opcode = static_cast<Opcode>(static_cast<uint8_t>(body[1]));
  header.flags = static_cast<uint16_t>(
      static_cast<uint8_t>(body[2]) |
      (static_cast<uint16_t>(static_cast<uint8_t>(body[3])) << 8));
  header.request_id = DecodeFixed64(body.data() + 4);
  if (header.version != kProtocolVersion) {
    return fail("unsupported protocol version " +
                std::to_string(header.version));
  }
  if ((header.flags & ~kKnownFlagsMask) != 0) {
    return fail("unknown bits " +
                std::to_string(header.flags & ~kKnownFlagsMask) +
                " in flags field");
  }
  out->header = header;
  out->payload = body.substr(kFrameHeaderBytes - 4);
  out->frame_bytes = frame_bytes;
  return DecodeOutcome::kFrame;
}

void EncodeTraceContext(const TraceContext& ctx, std::string* dst) {
  PutFixed64(dst, ctx.trace_id.hi);
  PutFixed64(dst, ctx.trace_id.lo);
  dst->push_back(ctx.sampled ? '\x01' : '\x00');
}

Status DecodeTraceContext(std::string_view* payload, TraceContext* ctx) {
  if (payload->size() < kTraceContextBytes) {
    return Status::Corruption("trace context of " +
                              std::to_string(payload->size()) +
                              " bytes, need " +
                              std::to_string(kTraceContextBytes));
  }
  ctx->trace_id.hi = DecodeFixed64(payload->data());
  ctx->trace_id.lo = DecodeFixed64(payload->data() + 8);
  uint8_t sampled = static_cast<uint8_t>((*payload)[16]);
  if (sampled > 1) {
    return Status::Corruption("trace context sampling byte " +
                              std::to_string(sampled) + " is not 0 or 1");
  }
  ctx->sampled = sampled == 1;
  payload->remove_prefix(kTraceContextBytes);
  return Status::OK();
}

void EncodeTraceSpans(const std::vector<obs::Trace::Span>& spans,
                      std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(spans.size()));
  uint64_t base_ns = spans.empty() ? 0 : spans.front().start_ns;
  for (const obs::Trace::Span& span : spans) {
    PutLengthPrefixed(dst, span.name);
    PutVarint32(dst, static_cast<uint32_t>(span.depth));
    PutVarint64(dst, span.start_ns - base_ns);
    PutVarint64(dst, span.duration_ns);
  }
}

Status DecodeTraceSpans(std::string_view* payload,
                        std::vector<obs::Trace::Span>* spans) {
  uint32_t count = 0;
  AUTHIDX_RETURN_NOT_OK(GetVarint32(payload, &count));
  // Every span costs at least 4 encoded bytes; a count beyond the
  // remaining payload is corrupt. Same peer-controlled-count defense
  // as DecodeAddRequest: validate before the reserve().
  if (count > payload->size()) {
    return Status::Corruption("span count " + std::to_string(count) +
                              " exceeds remaining payload of " +
                              std::to_string(payload->size()) + " bytes");
  }
  spans->clear();
  spans->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    obs::Trace::Span span;
    std::string_view name;
    AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(payload, &name));
    span.name = std::string(name);
    uint32_t depth = 0;
    AUTHIDX_RETURN_NOT_OK(GetVarint32(payload, &depth));
    span.depth = static_cast<int>(depth);
    AUTHIDX_RETURN_NOT_OK(GetVarint64(payload, &span.start_ns));
    AUTHIDX_RETURN_NOT_OK(GetVarint64(payload, &span.duration_ns));
    spans->push_back(std::move(span));
  }
  return Status::OK();
}

void EncodeQueryRequest(std::string_view query_text, std::string* dst) {
  PutLengthPrefixed(dst, query_text);
}

Status DecodeQueryRequest(std::string_view payload,
                          std::string_view* query_text) {
  AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&payload, query_text));
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes after QUERY request");
  }
  return Status::OK();
}

void EncodeAddRequest(const std::vector<std::string>& tsv_lines,
                      std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(tsv_lines.size()));
  for (const std::string& line : tsv_lines) {
    PutLengthPrefixed(dst, line);
  }
}

Status DecodeAddRequest(std::string_view payload,
                        std::vector<std::string_view>* tsv_lines) {
  uint32_t count = 0;
  AUTHIDX_RETURN_NOT_OK(GetVarint32(&payload, &count));
  // Every line costs at least its 1-byte length prefix, so a count
  // beyond the remaining payload is corrupt. Validating before the
  // reserve() matters: the count is peer-controlled, and a tiny
  // CRC-valid frame claiming 2^32-1 lines must not force a multi-GiB
  // allocation (whose bad_alloc would escape the caller).
  if (count > payload.size()) {
    return Status::Corruption("ADD line count " + std::to_string(count) +
                              " exceeds remaining payload of " +
                              std::to_string(payload.size()) + " bytes");
  }
  tsv_lines->clear();
  tsv_lines->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view line;
    AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&payload, &line));
    tsv_lines->push_back(line);
  }
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes after ADD request");
  }
  return Status::OK();
}

void EncodeQueryResult(const WireQueryResult& result, std::string* dst) {
  PutVarint64(dst, result.total_matches);
  dst->push_back(static_cast<char>(result.plan));
  PutVarint32(dst, static_cast<uint32_t>(result.hits.size()));
  for (const WireHit& hit : result.hits) {
    PutVarint32(dst, hit.id);
    PutFixed64(dst, DoubleToBits(hit.score));
    PutLengthPrefixed(dst, hit.author);
    PutLengthPrefixed(dst, hit.title);
    PutLengthPrefixed(dst, hit.citation);
  }
}

Status DecodeQueryResult(std::string_view body, WireQueryResult* result) {
  AUTHIDX_RETURN_NOT_OK(GetVarint64(&body, &result->total_matches));
  if (body.empty()) {
    return Status::Corruption("truncated QUERY result");
  }
  result->plan = static_cast<uint8_t>(body[0]);
  body.remove_prefix(1);
  uint32_t count = 0;
  AUTHIDX_RETURN_NOT_OK(GetVarint32(&body, &count));
  // Every hit costs at least 12 encoded bytes; a count beyond the
  // remaining body is corrupt. Same defense as DecodeAddRequest: a
  // forged count must never size the reserve() below.
  if (count > body.size()) {
    return Status::Corruption("QUERY hit count " + std::to_string(count) +
                              " exceeds remaining body of " +
                              std::to_string(body.size()) + " bytes");
  }
  result->hits.clear();
  result->hits.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireHit hit;
    AUTHIDX_RETURN_NOT_OK(GetVarint32(&body, &hit.id));
    if (body.size() < 8) {
      return Status::Corruption("truncated QUERY hit score");
    }
    hit.score = BitsToDouble(DecodeFixed64(body.data()));
    body.remove_prefix(8);
    std::string_view field;
    AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&body, &field));
    hit.author = std::string(field);
    AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&body, &field));
    hit.title = std::string(field);
    AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&body, &field));
    hit.citation = std::string(field);
    result->hits.push_back(std::move(hit));
  }
  if (!body.empty()) {
    return Status::Corruption("trailing bytes after QUERY result");
  }
  return Status::OK();
}

void EncodeStats(const WireStats& stats, std::string* dst) {
  PutVarint64(dst, stats.entry_count);
  PutVarint64(dst, stats.group_count);
}

Status DecodeStats(std::string_view body, WireStats* stats) {
  AUTHIDX_RETURN_NOT_OK(GetVarint64(&body, &stats->entry_count));
  AUTHIDX_RETURN_NOT_OK(GetVarint64(&body, &stats->group_count));
  if (!body.empty()) {
    return Status::Corruption("trailing bytes after STATS body");
  }
  return Status::OK();
}

namespace {

void EncodeWirePosition(const WirePosition& pos, std::string* dst) {
  PutFixed64(dst, pos.wal_number);
  PutFixed64(dst, pos.offset);
}

Status DecodeWirePosition(std::string_view* input, WirePosition* pos) {
  if (input->size() < 16) {
    return Status::Corruption("truncated WAL position");
  }
  pos->wal_number = DecodeFixed64(input->data());
  pos->offset = DecodeFixed64(input->data() + 8);
  input->remove_prefix(16);
  return Status::OK();
}

}  // namespace

void EncodeReplSubscribe(const WirePosition& position, std::string* dst) {
  EncodeWirePosition(position, dst);
}

Status DecodeReplSubscribe(std::string_view payload, WirePosition* position) {
  AUTHIDX_RETURN_NOT_OK(DecodeWirePosition(&payload, position));
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes after REPL_SUBSCRIBE request");
  }
  return Status::OK();
}

void EncodeReplSubscribeAck(const WireReplSubscribeAck& ack,
                            std::string* dst) {
  EncodeWirePosition(ack.start, dst);
}

Status DecodeReplSubscribeAck(std::string_view body,
                              WireReplSubscribeAck* ack) {
  AUTHIDX_RETURN_NOT_OK(DecodeWirePosition(&body, &ack->start));
  if (!body.empty()) {
    return Status::Corruption("trailing bytes after REPL_SUBSCRIBE ack");
  }
  return Status::OK();
}

void EncodeReplRecords(const WireReplRecords& batch, std::string* dst) {
  EncodeWirePosition(batch.end, dst);
  EncodeWirePosition(batch.committed, dst);
  PutVarint32(dst, static_cast<uint32_t>(batch.records.size()));
  for (const std::string& record : batch.records) {
    PutLengthPrefixed(dst, record);
  }
}

Status DecodeReplRecords(std::string_view payload, WireReplRecords* batch) {
  AUTHIDX_RETURN_NOT_OK(DecodeWirePosition(&payload, &batch->end));
  AUTHIDX_RETURN_NOT_OK(DecodeWirePosition(&payload, &batch->committed));
  uint32_t count = 0;
  AUTHIDX_RETURN_NOT_OK(GetVarint32(&payload, &count));
  // Every record costs at least its 1-byte length prefix; a count
  // beyond the remaining payload is corrupt. Same peer-controlled-count
  // defense as DecodeAddRequest: validate before the reserve().
  if (count > payload.size()) {
    return Status::Corruption("REPL record count " + std::to_string(count) +
                              " exceeds remaining payload of " +
                              std::to_string(payload.size()) + " bytes");
  }
  batch->records.clear();
  batch->records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view record;
    AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&payload, &record));
    batch->records.emplace_back(record);
  }
  if (!payload.empty()) {
    return Status::Corruption("trailing bytes after REPL_RECORDS payload");
  }
  return Status::OK();
}

void EncodeReplHeartbeat(const WireReplHeartbeat& hb, std::string* dst) {
  EncodeWirePosition(hb.committed, dst);
  dst->push_back(static_cast<char>(hb.degraded));
}

Status DecodeReplHeartbeat(std::string_view payload, WireReplHeartbeat* hb) {
  AUTHIDX_RETURN_NOT_OK(DecodeWirePosition(&payload, &hb->committed));
  if (payload.size() != 1) {
    return Status::Corruption("malformed REPL_HEARTBEAT payload");
  }
  hb->degraded = static_cast<uint8_t>(payload[0]);
  if (hb->degraded > 1) {
    return Status::Corruption("REPL_HEARTBEAT degraded byte " +
                              std::to_string(hb->degraded) + " is not 0 or 1");
  }
  return Status::OK();
}

void EncodeResponsePayload(const ResponsePayload& response,
                           std::string* dst) {
  dst->push_back(static_cast<char>(response.status));
  PutLengthPrefixed(dst, response.message);
  dst->append(response.body);
}

Status DecodeResponsePayload(std::string_view payload,
                             ResponsePayload* response) {
  if (payload.empty()) {
    return Status::Corruption("empty RESPONSE payload");
  }
  response->status = static_cast<WireStatus>(static_cast<uint8_t>(payload[0]));
  payload.remove_prefix(1);
  std::string_view message;
  AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(&payload, &message));
  response->message = std::string(message);
  response->body = std::string(payload);
  return Status::OK();
}

}  // namespace authidx::net
