#include "authidx/storage/replication.h"

#include <memory>

#include "authidx/common/coding.h"
#include "authidx/common/crc32c.h"
#include "authidx/common/strings.h"

namespace authidx::storage {

namespace {

constexpr char kPositionFileName[] = "REPL_POSITION";
constexpr size_t kPositionFileBytes = 16;  // Two fixed64s.

// Splits `record` into put-batch records of at most `max_bytes` each; a
// put larger than that is a piece of its own.
Status SplitRecord(std::string_view record, size_t max_bytes,
                   std::vector<std::string>* pieces) {
  std::string piece(1, kWalBatch);
  WriteBatch op;
  Status s = ForEachRecordOp(
      record, [&](std::string_view key, std::string_view value) {
        op.Clear();
        op.Put(key, value);
        if (piece.size() > 1 && piece.size() + op.rep().size() > max_bytes) {
          pieces->push_back(std::move(piece));
          piece.assign(1, kWalBatch);
        }
        piece += op.rep();
        return Status::OK();
      });
  if (piece.size() > 1) {
    pieces->push_back(std::move(piece));
  }
  return s;
}

Status DamagedBelowFrontier(uint64_t segment, uint64_t offset) {
  return Status::Corruption(StringPrintf(
      "damaged log record below the committed frontier in segment %llu at "
      "offset %llu",
      static_cast<unsigned long long>(segment),
      static_cast<unsigned long long>(offset)));
}

}  // namespace

ReplicationSource::ReplicationSource(StorageEngine* engine, Env* env)
    : engine_(engine), env_(env != nullptr ? env : Env::Default()) {}

Result<ReplicationBatch> ReplicationSource::ReadBatch(WalPosition from,
                                                      size_t max_records,
                                                      size_t max_bytes) {
  ReplicationBatch batch;
  batch.committed = engine_->CommittedWalPosition();
  batch.end = from.wal_number == 0 ? WalPosition{1, 0} : from;
  if (batch.committed < batch.end) {
    // A cursor past the primary's frontier means the follower was fed
    // by a store that no longer exists (e.g. the primary lost its disk
    // and restarted empty). Only a reseed can reconcile that.
    return Status::NotFound(
        "cursor is past the primary's committed position");
  }
  WalPosition& cur = batch.end;
  std::unique_ptr<RandomAccessFile> file;
  uint64_t file_number = 0;
  uint64_t limit = 0;  // Readable bytes of segment `file_number`.
  std::string buf;
  size_t batch_bytes = 0;
  while (cur < batch.committed) {
    if (file_number != cur.wal_number) {
      const std::string path = WalFileName(engine_->dir(), cur.wal_number);
      Result<std::unique_ptr<RandomAccessFile>> opened =
          env_->NewRandomAccessFile(path);
      if (!opened.ok()) {
        return opened.status().IsNotFound()
                   ? Status::Corruption("log segment " + path + " is missing")
                   : opened.status().WithContext("opening " + path);
      }
      file = std::move(opened).value();
      file_number = cur.wal_number;
      if (file_number == batch.committed.wal_number) {
        limit = batch.committed.offset;
      } else {
        AUTHIDX_ASSIGN_OR_RETURN(limit, file->Size());
      }
      if (cur.offset > limit) {
        return Status::NotFound(StringPrintf(
            "cursor offset %llu is past the end of segment %llu",
            static_cast<unsigned long long>(cur.offset),
            static_cast<unsigned long long>(file_number)));
      }
    }
    if (cur.offset == limit) {
      cur = {cur.wal_number + 1, 0};  // Finished a sealed segment.
      continue;
    }
    if (batch.records.size() >= max_records) {
      break;
    }
    // Every byte below the committed frontier (or below the end of a
    // sealed segment) is a whole, CRC-valid record; anything else is
    // damage.
    std::string_view header;
    AUTHIDX_RETURN_NOT_OK(
        file->Read(cur.offset, kWalRecordHeaderBytes, &buf, &header));
    if (header.size() < kWalRecordHeaderBytes) {
      return DamagedBelowFrontier(cur.wal_number, cur.offset);
    }
    const uint32_t expected = crc32c::Unmask(DecodeFixed32(header.data()));
    const uint64_t length = DecodeFixed32(header.data() + 4);
    const uint64_t record_bytes = kWalRecordHeaderBytes + length;
    if (record_bytes > limit - cur.offset) {
      return DamagedBelowFrontier(cur.wal_number, cur.offset);
    }
    if (!batch.records.empty() && batch_bytes + record_bytes > max_bytes) {
      break;
    }
    std::string_view payload;
    AUTHIDX_RETURN_NOT_OK(file->Read(cur.offset + kWalRecordHeaderBytes,
                                     static_cast<size_t>(length), &buf,
                                     &payload));
    if (payload.size() != length || crc32c::Value(payload) != expected) {
      return DamagedBelowFrontier(cur.wal_number, cur.offset);
    }
    cur.offset += record_bytes;
    if (record_bytes > max_bytes) {
      // Alone in its batch: ship it as pieces a frame can carry.
      AUTHIDX_RETURN_NOT_OK(SplitRecord(payload, max_bytes, &batch.records));
      break;
    }
    batch.records.emplace_back(payload);
    batch_bytes += record_bytes;
  }
  return batch;
}

ReplicationApplier::ReplicationApplier(std::string dir, Env* env)
    : dir_(std::move(dir)), env_(env != nullptr ? env : Env::Default()) {}

std::string ReplicationApplier::position_path() const {
  return dir_ + "/" + kPositionFileName;
}

Result<WalPosition> ReplicationApplier::LoadPosition() {
  Result<std::string> data = env_->ReadFileToString(position_path());
  if (!data.ok()) {
    if (data.status().IsNotFound()) {
      return WalPosition{};  // Fresh follower: read from the start.
    }
    return data.status().WithContext("reading replication position");
  }
  if (data->size() != kPositionFileBytes) {
    // A torn sidecar is recoverable by re-reading from the start (the
    // apply path skips what the follower already holds).
    return WalPosition{};
  }
  WalPosition pos;
  pos.wal_number = DecodeFixed64(data->data());
  pos.offset = DecodeFixed64(data->data() + 8);
  return pos;
}

Status ReplicationApplier::CommitPosition(WalPosition pos) {
  std::string data;
  data.reserve(kPositionFileBytes);
  PutFixed64(&data, pos.wal_number);
  PutFixed64(&data, pos.offset);
  return env_->WriteStringToFileSync(position_path(), data);
}

}  // namespace authidx::storage
