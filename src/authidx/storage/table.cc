#include "authidx/storage/table.h"

#include "authidx/common/coding.h"
#include "authidx/common/compress.h"
#include "authidx/common/crc32c.h"

namespace authidx::storage {

namespace {
// "authidx2": names the table format; a file with another magic (an
// older format) fails Open rather than being misread.
constexpr uint64_t kTableMagic = 0x6175746869647832ULL;
constexpr char kBlockRaw = 'R';
constexpr char kBlockLz = 'L';
constexpr size_t kBlockTrailerSize = 5;  // type (1B) + masked crc32c (4B).
// Footer: index handle (two varints, padded) + magic.
constexpr size_t kFooterSize = 2 * 10 + 8;
}  // namespace

void BlockHandle::EncodeTo(std::string* dst) const {
  PutVarint64(dst, offset);
  PutVarint64(dst, size);
}

Result<BlockHandle> BlockHandle::DecodeFrom(std::string_view* input) {
  BlockHandle handle;
  AUTHIDX_RETURN_NOT_OK(GetVarint64(input, &handle.offset));
  AUTHIDX_RETURN_NOT_OK(GetVarint64(input, &handle.size));
  return handle;
}

TableBuilder::TableBuilder(Options options, WritableFile* file)
    : options_(options),
      file_(file),
      data_block_(options.restart_interval),
      index_block_(1) {}

TableBuilder::~TableBuilder() = default;

Status TableBuilder::Add(std::string_view key, std::string_view value) {
  if (finished_) {
    return Status::FailedPrecondition("table already finished");
  }
  if (entry_count_ > 0 && key <= std::string_view(last_key_)) {
    return Status::InvalidArgument("keys added out of order");
  }
  if (pending_index_entry_) {
    std::string encoded;
    pending_handle_.EncodeTo(&encoded);
    index_block_.Add(pending_index_key_, encoded);
    pending_index_entry_ = false;
  }
  data_block_.Add(key, value);
  last_key_.assign(key);
  ++entry_count_;
  if (data_block_.CurrentSizeEstimate() >= options_.block_bytes) {
    AUTHIDX_RETURN_NOT_OK(FlushDataBlock());
  }
  return Status::OK();
}

Status TableBuilder::FlushDataBlock() {
  if (data_block_.empty()) {
    return Status::OK();
  }
  std::string_view contents = data_block_.Finish();
  AUTHIDX_RETURN_NOT_OK(WriteBlock(contents, &pending_handle_));
  data_block_.Reset();
  pending_index_key_ = last_key_;
  pending_index_entry_ = true;
  return Status::OK();
}

Status TableBuilder::WriteBlock(std::string_view contents,
                                BlockHandle* handle) {
  char type = kBlockRaw;
  std::string compressed;
  std::string_view payload = contents;
  if (options_.compress) {
    LzCompress(contents, &compressed);
    if (compressed.size() < contents.size()) {
      payload = compressed;
      type = kBlockLz;
      ++compressed_blocks_;
    }
  }
  handle->offset = offset_;
  handle->size = payload.size();
  AUTHIDX_RETURN_NOT_OK(file_->Append(payload));
  std::string trailer(1, type);
  uint32_t crc = crc32c::Extend(0, payload.data(), payload.size());
  crc = crc32c::Extend(crc, &type, 1);  // CRC covers payload + type.
  PutFixed32(&trailer, crc32c::Mask(crc));
  AUTHIDX_RETURN_NOT_OK(file_->Append(trailer));
  offset_ += payload.size() + kBlockTrailerSize;
  return Status::OK();
}

Status TableBuilder::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("table already finished");
  }
  AUTHIDX_RETURN_NOT_OK(FlushDataBlock());
  if (pending_index_entry_) {
    std::string encoded;
    pending_handle_.EncodeTo(&encoded);
    index_block_.Add(pending_index_key_, encoded);
    pending_index_entry_ = false;
  }
  BlockHandle index_handle;
  AUTHIDX_RETURN_NOT_OK(WriteBlock(index_block_.Finish(), &index_handle));
  std::string footer;
  index_handle.EncodeTo(&footer);
  footer.resize(kFooterSize - 8);  // Pad.
  PutFixed64(&footer, kTableMagic);
  AUTHIDX_RETURN_NOT_OK(file_->Append(footer));
  offset_ += footer.size();
  finished_ = true;
  return Status::OK();
}

Result<std::unique_ptr<TableReader>> TableReader::Open(
    Env* env, const std::string& path) {
  auto reader = std::unique_ptr<TableReader>(new TableReader());
  AUTHIDX_ASSIGN_OR_RETURN(reader->file_, env->NewRandomAccessFile(path));
  AUTHIDX_ASSIGN_OR_RETURN(reader->file_size_, reader->file_->Size());
  if (reader->file_size_ < kFooterSize) {
    return Status::Corruption("table file too small: " + path);
  }
  std::string scratch;
  std::string_view footer;
  AUTHIDX_RETURN_NOT_OK(reader->file_->Read(reader->file_size_ - kFooterSize,
                                            kFooterSize, &scratch, &footer));
  if (footer.size() != kFooterSize) {
    return Status::Corruption("short footer read: " + path);
  }
  if (DecodeFixed64(footer.data() + kFooterSize - 8) != kTableMagic) {
    return Status::Corruption(
        "bad table magic (not a table, or another table format): " + path);
  }
  std::string_view handles = footer;
  AUTHIDX_ASSIGN_OR_RETURN(BlockHandle index_handle,
                           BlockHandle::DecodeFrom(&handles));
  AUTHIDX_ASSIGN_OR_RETURN(std::string index_bytes,
                           reader->ReadBlockContents(index_handle));
  AUTHIDX_ASSIGN_OR_RETURN(auto index_block,
                           Block::Parse(std::move(index_bytes)));
  reader->index_block_ = std::move(index_block);
  return reader;
}

Result<std::string> TableReader::ReadBlockContents(
    const BlockHandle& handle) const {
  // Any failure below means the bytes on disk do not match what the
  // builder wrote: count it so operators see corruption as a metric,
  // not just a per-request error.
  auto corrupt = [this](std::string msg) -> Status {
    if (metric_corrupt_blocks_ != nullptr) {
      metric_corrupt_blocks_->Inc();
    }
    return Status::Corruption(std::move(msg));
  };
  std::string scratch;
  std::string_view data;
  AUTHIDX_RETURN_NOT_OK(file_->Read(
      handle.offset, handle.size + kBlockTrailerSize, &scratch, &data));
  if (data.size() != handle.size + kBlockTrailerSize) {
    return corrupt("short block read");
  }
  std::string_view payload = data.substr(0, handle.size);
  char type = data[handle.size];
  uint32_t expected =
      crc32c::Unmask(DecodeFixed32(data.data() + handle.size + 1));
  uint32_t actual = crc32c::Extend(0, payload.data(), payload.size());
  actual = crc32c::Extend(actual, &type, 1);
  if (actual != expected) {
    return corrupt("block crc mismatch");
  }
  switch (type) {
    case kBlockRaw:
      return std::string(payload);
    case kBlockLz: {
      Result<std::string> decompressed = LzDecompress(payload);
      if (!decompressed.ok()) {
        return corrupt("block decompression failed: " +
                       decompressed.status().message());
      }
      return decompressed;
    }
    default:
      return corrupt("unknown block type");
  }
}

Result<std::unique_ptr<Block>> TableReader::ReadBlock(
    const BlockHandle& handle) const {
  AUTHIDX_ASSIGN_OR_RETURN(std::string contents, ReadBlockContents(handle));
  Result<std::unique_ptr<Block>> parsed = Block::Parse(std::move(contents));
  if (!parsed.ok() && parsed.status().IsCorruption() &&
      metric_corrupt_blocks_ != nullptr) {
    metric_corrupt_blocks_->Inc();
  }
  return parsed;
}

void TableReader::BindCorruptionMetric(obs::Counter* corrupt_blocks) {
  metric_corrupt_blocks_ = corrupt_blocks;
}

// Two-level iterator: walks the index block, materializing one data
// block at a time.
class TableReader::Iter final : public Iterator {
 public:
  explicit Iter(const TableReader* table)
      : table_(table), index_iter_(table->index_block_->NewIterator()) {}

  bool Valid() const override {
    return data_iter_ != nullptr && data_iter_->Valid();
  }

  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    LoadDataBlock();
    if (data_iter_ != nullptr) {
      data_iter_->SeekToFirst();
    }
    SkipEmptyBlocksForward();
  }

  void Seek(std::string_view target) override {
    index_iter_->Seek(target);
    LoadDataBlock();
    if (data_iter_ != nullptr) {
      data_iter_->Seek(target);
    }
    SkipEmptyBlocksForward();
  }

  void Next() override {
    data_iter_->Next();
    SkipEmptyBlocksForward();
  }

  std::string_view key() const override { return data_iter_->key(); }
  std::string_view value() const override { return data_iter_->value(); }

  Status status() const override {
    if (!status_.ok()) {
      return status_;
    }
    if (data_iter_ != nullptr) {
      return data_iter_->status();
    }
    return index_iter_->status();
  }

 private:
  void LoadDataBlock() {
    data_block_.reset();
    data_iter_.reset();
    if (!index_iter_->Valid()) {
      return;
    }
    std::string_view handle_data = index_iter_->value();
    Result<BlockHandle> handle = BlockHandle::DecodeFrom(&handle_data);
    if (!handle.ok()) {
      status_ = handle.status();
      return;
    }
    Result<std::unique_ptr<Block>> block = table_->ReadBlock(*handle);
    if (!block.ok()) {
      status_ = block.status();
      return;
    }
    data_block_ = std::move(block).value();
    data_iter_ = data_block_->NewIterator();
  }

  void SkipEmptyBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!index_iter_->Valid() || !status_.ok()) {
        data_block_.reset();
        data_iter_.reset();
        return;
      }
      index_iter_->Next();
      LoadDataBlock();
      if (data_iter_ != nullptr) {
        data_iter_->SeekToFirst();
      }
    }
  }

  const TableReader* table_;
  std::unique_ptr<Iterator> index_iter_;
  std::unique_ptr<Block> data_block_;
  std::unique_ptr<Iterator> data_iter_;
  Status status_;
};

std::unique_ptr<Iterator> TableReader::NewIterator() const {
  return std::make_unique<Iter>(this);
}

}  // namespace authidx::storage
