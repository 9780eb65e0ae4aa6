#include "authidx/storage/wal.h"

#include <algorithm>

#include "authidx/common/coding.h"
#include "authidx/common/crc32c.h"
#include "authidx/common/strings.h"

namespace authidx::storage {

namespace {

// Parses the put op at the front of `*ops`, advancing past it.
Status ParsePutOp(std::string_view* ops, std::string_view* key,
                  std::string_view* value) {
  if (ops->front() != kWalPut) {
    return Status::Corruption("unknown WAL op");
  }
  ops->remove_prefix(1);
  AUTHIDX_RETURN_NOT_OK(GetLengthPrefixed(ops, key));
  return GetLengthPrefixed(ops, value);
}

// Second pass over a record longer than the read buffer, already known
// to be CRC-valid: decodes its puts chunk by chunk, carrying an op that
// straddles a chunk boundary over into the next chunk.
Status DecodeLargeRecord(const RandomAccessFile& file, uint64_t begin,
                         uint64_t end, std::string* buf,
                         const WalOpSink& sink) {
  std::string carry;
  bool first = true;
  for (uint64_t off = begin; off < end;) {
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(kWalReadBufferBytes, end - off));
    std::string_view chunk;
    AUTHIDX_RETURN_NOT_OK(file.Read(off, n, buf, &chunk));
    if (chunk.size() != n) {
      return Status::Corruption("log segment shrank during replay");
    }
    off += n;
    if (first) {
      first = false;
      if (chunk.front() == kWalBatch) {
        chunk.remove_prefix(1);
      } else if (chunk.front() != kWalPut) {
        return Status::Corruption("unknown WAL op");
      }
    }
    carry.append(chunk);
    std::string_view ops = carry;
    while (!ops.empty()) {
      std::string_view rest = ops, key, value;
      Status parsed = ParsePutOp(&rest, &key, &value);
      if (!parsed.ok()) {
        if (off < end) {
          break;  // The op continues in the next chunk.
        }
        return parsed;
      }
      AUTHIDX_RETURN_NOT_OK(sink(key, value));
      ops = rest;
    }
    carry.erase(0, carry.size() - ops.size());
  }
  return Status::OK();
}

}  // namespace

std::string WalFileName(const std::string& dir, uint64_t number) {
  return dir + "/" + StringPrintf("%06llu.wal",
                                  static_cast<unsigned long long>(number));
}

Status ForEachRecordOp(std::string_view record, const WalOpSink& sink) {
  if (record.empty()) {
    return Status::Corruption("empty WAL record");
  }
  if (record.front() == kWalBatch) {
    record.remove_prefix(1);
  } else if (record.front() != kWalPut) {
    return Status::Corruption("unknown WAL op");
  }
  while (!record.empty()) {
    std::string_view key, value;
    AUTHIDX_RETURN_NOT_OK(ParsePutOp(&record, &key, &value));
    AUTHIDX_RETURN_NOT_OK(sink(key, value));
  }
  return Status::OK();
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(Env* env,
                                                   const std::string& path) {
  AUTHIDX_ASSIGN_OR_RETURN(auto file, env->NewWritableFile(path));
  return std::unique_ptr<WalWriter>(new WalWriter(std::move(file)));
}

Status WalWriter::Append(std::string_view record) {
  std::string header;
  uint32_t crc = crc32c::Mask(crc32c::Value(record));
  PutFixed32(&header, crc);
  PutFixed32(&header, static_cast<uint32_t>(record.size()));
  AUTHIDX_RETURN_NOT_OK(file_->Append(header));
  AUTHIDX_RETURN_NOT_OK(file_->Append(record));
  bytes_written_ += kWalRecordHeaderBytes + record.size();
  return Status::OK();
}

Status WalWriter::Flush() { return file_->Flush(); }

Status WalWriter::Sync() { return file_->Sync(); }

Status WalWriter::Close() { return file_->Close(); }

Result<WalScan> ScanSegment(Env* env, const std::string& path,
                            uint64_t limit, const WalOpSink* on_op) {
  AUTHIDX_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                           env->NewRandomAccessFile(path));
  AUTHIDX_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  const uint64_t end = std::min(size, limit);
  WalScan scan;
  std::string buf;
  // The buffered file bytes [window_start, window_start + window.size()).
  std::string_view window;
  uint64_t window_start = 0;
  // Makes the window cover [pos, pos + n); false if the file ends first.
  auto cover = [&](uint64_t pos, uint64_t n) -> Result<bool> {
    if (pos < window_start || pos + n > window_start + window.size()) {
      AUTHIDX_RETURN_NOT_OK(file->Read(
          pos,
          static_cast<size_t>(std::min<uint64_t>(kWalReadBufferBytes,
                                                 end - pos)),
          &buf, &window));
      window_start = pos;
    }
    return pos + n <= window_start + window.size();
  };
  uint64_t pos = 0;
  while (pos < end) {
    bool intact = end - pos >= kWalRecordHeaderBytes;
    if (intact) {
      AUTHIDX_ASSIGN_OR_RETURN(intact, cover(pos, kWalRecordHeaderBytes));
    }
    if (!intact) {
      scan.damaged = true;  // A header cut short.
      break;
    }
    const char* header = window.data() + (pos - window_start);
    const uint32_t expected = crc32c::Unmask(DecodeFixed32(header));
    const uint64_t length = DecodeFixed32(header + 4);
    const uint64_t body = pos + kWalRecordHeaderBytes;
    if (end - body < length) {
      scan.damaged = true;  // A payload cut short.
      break;
    }
    if (kWalRecordHeaderBytes + length <= kWalReadBufferBytes) {
      AUTHIDX_ASSIGN_OR_RETURN(intact,
                               cover(pos, kWalRecordHeaderBytes + length));
      std::string_view payload;
      if (intact) {
        payload = window.substr(body - window_start, length);
        intact = crc32c::Value(payload) == expected;
      }
      if (!intact) {
        scan.damaged = true;
        break;
      }
      if (on_op != nullptr) {
        AUTHIDX_RETURN_NOT_OK(ForEachRecordOp(payload, *on_op));
      }
    } else {
      uint32_t actual = 0;
      for (uint64_t off = body; intact && off < body + length;) {
        size_t n = static_cast<size_t>(
            std::min<uint64_t>(kWalReadBufferBytes, body + length - off));
        std::string_view chunk;
        AUTHIDX_RETURN_NOT_OK(file->Read(off, n, &buf, &chunk));
        intact = chunk.size() == n;
        actual = crc32c::Extend(actual, chunk.data(), chunk.size());
        off += n;
      }
      window = {};  // `buf` now holds the record's last chunk.
      if (!intact || actual != expected) {
        scan.damaged = true;
        break;
      }
      if (on_op != nullptr) {
        AUTHIDX_RETURN_NOT_OK(
            DecodeLargeRecord(*file, body, body + length, &buf, *on_op));
      }
    }
    ++scan.records;
    pos = body + length;
    scan.bytes = pos;
  }
  return scan;
}

}  // namespace authidx::storage
