#ifndef AUTHIDX_STORAGE_WAL_H_
#define AUTHIDX_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "authidx/common/env.h"
#include "authidx/common/result.h"

namespace authidx::storage {

/// Bytes of the per-record framing prologue: masked CRC32C (4) plus
/// payload length (4). Public so replication can walk log segments
/// record by record from an arbitrary byte offset.
inline constexpr size_t kWalRecordHeaderBytes = 8;

/// Record kinds: a record is one op byte followed by its body. A put
/// record ('P' + length-prefixed key + length-prefixed value) has the
/// same bytes as one batch op, so a batch record is 'B' followed by put
/// ops, repeated.
inline constexpr char kWalPut = 'P';
inline constexpr char kWalBatch = 'B';

/// ScanSegment reads through a buffer of this size: replay memory stays
/// bounded however large one record (say, a bulk-load batch) grows.
inline constexpr size_t kWalReadBufferBytes = 256 * 1024;

/// `<dir>/NNNNNN.wal`: log segment `number` (segments count from 1).
std::string WalFileName(const std::string& dir, uint64_t number);

/// A durable coordinate in the log: byte `offset` into the segment
/// numbered `wal_number`. Positions order first by segment, then by
/// offset. {0, 0} is the "nothing shipped yet" sentinel: the start of
/// the first segment.
struct WalPosition {
  uint64_t wal_number = 0;
  uint64_t offset = 0;

  friend bool operator==(const WalPosition& a, const WalPosition& b) {
    return a.wal_number == b.wal_number && a.offset == b.offset;
  }
  friend bool operator!=(const WalPosition& a, const WalPosition& b) {
    return !(a == b);
  }
  friend bool operator<(const WalPosition& a, const WalPosition& b) {
    return a.wal_number != b.wal_number ? a.wal_number < b.wal_number
                                        : a.offset < b.offset;
  }
  friend bool operator<=(const WalPosition& a, const WalPosition& b) {
    return a < b || a == b;
  }
};

/// Called once per put a record holds, in record order. The views are
/// valid only for the duration of the call.
using WalOpSink =
    std::function<Status(std::string_view key, std::string_view value)>;

/// Decodes one record (op byte + body), calling `sink` for each put it
/// holds. Corruption on an empty record, an unknown op byte, or a
/// malformed op; `sink`'s first error stops the walk and is returned.
Status ForEachRecordOp(std::string_view record, const WalOpSink& sink);

/// Write-ahead log segment. Each record is framed as
///
///   masked_crc32c (fixed32, over payload) | length (fixed32) | payload
///
/// The masked CRC (crc32c::Mask) prevents a log embedded in another log
/// from validating.
class WalWriter {
 public:
  /// Creates (truncates) the segment at `path`.
  static Result<std::unique_ptr<WalWriter>> Open(Env* env,
                                                 const std::string& path);

  /// Appends one record. Durability requires Sync().
  Status Append(std::string_view record);

  /// Pushes appended records out of the user-space buffer into the OS
  /// (no fsync). After this, same-host readers — the replay pass and the
  /// replication source, which read behind the committed frontier — see
  /// every appended byte.
  Status Flush();

  /// fdatasyncs all appended records.
  Status Sync();

  Status Close();

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  explicit WalWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  std::unique_ptr<WritableFile> file_;
  uint64_t bytes_written_ = 0;
};

/// What ScanSegment found.
struct WalScan {
  /// Intact records read.
  uint64_t records = 0;
  /// Bytes those records occupy: the offset just past the last one.
  uint64_t bytes = 0;
  /// True when bytes after `bytes` (and before the scan's limit) do not
  /// form an intact record. In the newest segment that is the torn tail
  /// a crash mid-append leaves; anywhere else it is damage.
  bool damaged = false;
};

/// Reads the records of the segment at `path` lying below `limit`
/// (UINT64_MAX: the whole file) in order, through a buffer of
/// kWalReadBufferBytes, and stops at the first damaged one. With
/// `on_op`, every intact record is also decoded and `*on_op` called per
/// put. A record larger than the buffer is checked by a streaming CRC
/// pass first and then decoded by a second streaming pass, so memory
/// stays bounded by the buffer plus one put. Returns I/O errors, decode
/// errors in a CRC-valid record, and `on_op`'s errors as such; damage
/// is reported through WalScan::damaged, never as an error.
Result<WalScan> ScanSegment(Env* env, const std::string& path,
                            uint64_t limit, const WalOpSink* on_op);

}  // namespace authidx::storage

#endif  // AUTHIDX_STORAGE_WAL_H_
