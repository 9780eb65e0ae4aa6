#ifndef AUTHIDX_STORAGE_TABLE_H_
#define AUTHIDX_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "authidx/common/env.h"
#include "authidx/obs/metrics.h"
#include "authidx/storage/block.h"
#include "authidx/storage/iterator.h"

namespace authidx::storage {

/// Location of a block inside a table file.
struct BlockHandle {
  uint64_t offset = 0;
  uint64_t size = 0;  // Payload size, excluding the type/crc trailer.

  void EncodeTo(std::string* dst) const;
  static Result<BlockHandle> DecodeFrom(std::string_view* input);
};

/// Immutable sorted-run file ("SSTable"):
///
///   [data block]*  [index block]  [footer]
///
/// Every block is stored as payload | type (1B) | masked crc32c (4B),
/// where type 'R' is raw and 'L' is LzCompress'd (chosen per block by
/// whichever is smaller when compression is enabled). Data blocks hold
/// the user keys and values verbatim. The index block maps each data
/// block's last key to its handle. The fixed-size footer holds the index
/// handle plus a magic number that names the format version.
class TableBuilder {
 public:
  struct Options {
    size_t block_bytes = 4096;
    int restart_interval = 16;
    /// Compress data/index blocks when it helps.
    bool compress = false;
  };

  TableBuilder(Options options, WritableFile* file);
  ~TableBuilder();

  /// Adds a key strictly greater than all previous keys.
  Status Add(std::string_view key, std::string_view value);

  /// Flushes everything and writes index/footer. The file is NOT
  /// synced or closed; the caller owns that.
  Status Finish();

  uint64_t entry_count() const { return entry_count_; }
  uint64_t file_bytes() const { return offset_; }
  /// Blocks that were stored compressed (diagnostics).
  uint64_t compressed_blocks() const { return compressed_blocks_; }

 private:
  Status FlushDataBlock();
  Status WriteBlock(std::string_view contents, BlockHandle* handle);

  Options options_;
  WritableFile* file_;
  BlockBuilder data_block_;
  BlockBuilder index_block_;
  std::string last_key_;
  std::string pending_index_key_;
  BlockHandle pending_handle_;
  bool pending_index_entry_ = false;
  uint64_t offset_ = 0;
  uint64_t entry_count_ = 0;
  uint64_t compressed_blocks_ = 0;
  bool finished_ = false;
};

/// Read side of a table file. Every block is read from disk and
/// CRC-checked on each visit; nothing is cached.
class TableReader {
 public:
  /// Opens and validates the footer and index block. A file written in
  /// another table format fails here with a Corruption naming `path`.
  static Result<std::unique_ptr<TableReader>> Open(Env* env,
                                                   const std::string& path);

  /// Ordered iterator over the whole table. The reader must outlive it.
  std::unique_ptr<Iterator> NewIterator() const;

  uint64_t file_bytes() const { return file_size_; }

  /// Mirrors block-integrity failures into a registry counter (owned by
  /// the caller; may be null): incremented once per block whose CRC,
  /// framing, or decompression check fails.
  void BindCorruptionMetric(obs::Counter* corrupt_blocks);

 private:
  class Iter;

  TableReader() = default;

  /// Reads, verifies and decompresses a block payload.
  Result<std::string> ReadBlockContents(const BlockHandle& handle) const;
  /// ReadBlockContents + parse.
  Result<std::unique_ptr<Block>> ReadBlock(const BlockHandle& handle) const;

  std::unique_ptr<RandomAccessFile> file_;
  uint64_t file_size_ = 0;
  std::unique_ptr<Block> index_block_;
  obs::Counter* metric_corrupt_blocks_ = nullptr;  // Not owned; may be null.
};

}  // namespace authidx::storage

#endif  // AUTHIDX_STORAGE_TABLE_H_
