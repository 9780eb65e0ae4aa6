#include "authidx/index/postings.h"

#include <algorithm>

#include "authidx/common/coding.h"

namespace authidx {

std::string EncodePostings(const std::vector<Posting>& postings) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(postings.size()));
  EntryId prev = 0;
  bool first = true;
  for (const Posting& p : postings) {
    uint32_t gap = first ? p.doc : p.doc - prev;
    PutVarint32(&out, gap);
    PutVarint32(&out, p.freq);
    prev = p.doc;
    first = false;
  }
  return out;
}

Result<std::vector<Posting>> DecodePostings(std::string_view data) {
  uint32_t count = 0;
  AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &count));
  // Each posting takes at least 2 bytes; reject counts the buffer cannot
  // hold so corruption does not trigger giant allocations.
  if (static_cast<uint64_t>(count) * 2 > data.size()) {
    return Status::Corruption("postings count exceeds buffer");
  }
  std::vector<Posting> postings;
  postings.reserve(count);
  EntryId prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t gap = 0, freq = 0;
    AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &gap));
    AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &freq));
    EntryId doc = (i == 0) ? gap : prev + gap;
    if (i > 0 && gap == 0) {
      return Status::Corruption("postings doc ids not strictly increasing");
    }
    postings.push_back(Posting{doc, freq});
    prev = doc;
  }
  if (!data.empty()) {
    return Status::Corruption("trailing bytes after postings");
  }
  return postings;
}

std::string EncodeBlockMaxPostings(const std::vector<Posting>& postings) {
  std::string out;
  PutVarint32(&out, static_cast<uint32_t>(postings.size()));
  const size_t block_count =
      (postings.size() + kPostingsBlockSize - 1) / kPostingsBlockSize;
  PutVarint32(&out, static_cast<uint32_t>(block_count));
  // Skip table, then payloads; both need one pass over the blocks.
  std::string payload;
  EntryId prev_last = 0;
  EntryId prev = 0;
  bool first = true;
  for (size_t b = 0; b < block_count; ++b) {
    const size_t begin = b * kPostingsBlockSize;
    const size_t end = std::min(begin + kPostingsBlockSize, postings.size());
    const size_t payload_begin = payload.size();
    uint32_t max_freq = 0;
    for (size_t i = begin; i < end; ++i) {
      const Posting& p = postings[i];
      uint32_t gap = first ? p.doc : p.doc - prev;
      PutVarint32(&payload, gap);
      PutVarint32(&payload, p.freq);
      max_freq = std::max(max_freq, p.freq);
      prev = p.doc;
      first = false;
    }
    const EntryId last_doc = postings[end - 1].doc;
    PutVarint32(&out, static_cast<uint32_t>(end - begin));
    PutVarint32(&out, b == 0 ? last_doc : last_doc - prev_last);
    PutVarint32(&out, max_freq);
    PutVarint32(&out, static_cast<uint32_t>(payload.size() - payload_begin));
    prev_last = last_doc;
  }
  out += payload;
  return out;
}

Result<BlockMaxReader> BlockMaxReader::Open(std::string_view data) {
  BlockMaxReader reader;
  uint32_t block_count = 0;
  AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &reader.total_count_));
  AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &block_count));
  // Sizing sanity before any reserve: each posting takes >= 2 payload
  // bytes and each skip entry >= 4 header bytes, so forged counts are
  // rejected without attacker-controlled allocations.
  if (static_cast<uint64_t>(reader.total_count_) * 2 > data.size()) {
    return Status::Corruption("block-max postings count exceeds buffer");
  }
  if (static_cast<uint64_t>(block_count) * 4 > data.size()) {
    return Status::Corruption("block-max block count exceeds buffer");
  }
  const uint64_t min_blocks =
      (static_cast<uint64_t>(reader.total_count_) + kPostingsBlockSize - 1) /
      kPostingsBlockSize;
  if (block_count != min_blocks) {
    return Status::Corruption("block-max block count inconsistent");
  }
  reader.blocks_.reserve(block_count);
  reader.offsets_.reserve(block_count);
  uint64_t seen = 0;
  uint64_t payload_bytes = 0;
  EntryId prev_last = 0;
  for (uint32_t b = 0; b < block_count; ++b) {
    PostingsBlock block;
    uint32_t last_gap = 0;
    AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &block.count));
    AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &last_gap));
    AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &block.max_freq));
    AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &block.bytes));
    if (block.count == 0 || block.count > kPostingsBlockSize) {
      return Status::Corruption("block-max block length out of range");
    }
    if (b + 1 < block_count && block.count != kPostingsBlockSize) {
      return Status::Corruption("block-max interior block not full");
    }
    if (b > 0 && last_gap == 0) {
      return Status::Corruption("block-max last docs not increasing");
    }
    block.last_doc = b == 0 ? last_gap : prev_last + last_gap;
    if (static_cast<uint64_t>(block.bytes) <
        static_cast<uint64_t>(block.count) * 2) {
      return Status::Corruption("block-max block bytes too small");
    }
    prev_last = block.last_doc;
    seen += block.count;
    payload_bytes += block.bytes;
    reader.offsets_.push_back(static_cast<size_t>(payload_bytes) -
                              block.bytes);
    reader.blocks_.push_back(block);
  }
  if (seen != reader.total_count_) {
    return Status::Corruption("block-max block lengths disagree with count");
  }
  if (payload_bytes != data.size()) {
    return Status::Corruption("block-max payload size mismatch");
  }
  reader.payload_ = data;
  return reader;
}

Status BlockMaxReader::DecodeBlock(size_t b, std::vector<Posting>* out) const {
  const PostingsBlock& block = blocks_[b];
  std::string_view data = payload_.substr(offsets_[b], block.bytes);
  out->clear();
  out->reserve(block.count);
  EntryId prev = b == 0 ? 0 : blocks_[b - 1].last_doc;
  uint32_t max_freq = 0;
  for (uint32_t i = 0; i < block.count; ++i) {
    uint32_t gap = 0, freq = 0;
    AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &gap));
    AUTHIDX_RETURN_NOT_OK(GetVarint32(&data, &freq));
    // The very first posting of the list is an absolute id and may be
    // doc 0; every other gap must advance.
    if (gap == 0 && !(b == 0 && i == 0)) {
      return Status::Corruption("block-max doc ids not strictly increasing");
    }
    prev += gap;
    max_freq = std::max(max_freq, freq);
    out->push_back(Posting{prev, freq});
  }
  if (!data.empty()) {
    return Status::Corruption("trailing bytes after block-max block");
  }
  if (prev != block.last_doc) {
    return Status::Corruption("block-max skip last_doc disagrees with block");
  }
  if (max_freq != block.max_freq) {
    return Status::Corruption("block-max skip max_freq disagrees with block");
  }
  return Status::OK();
}

Result<std::vector<Posting>> DecodeBlockMaxPostings(std::string_view data) {
  AUTHIDX_ASSIGN_OR_RETURN(BlockMaxReader reader, BlockMaxReader::Open(data));
  std::vector<Posting> postings;
  postings.reserve(reader.total_count());
  std::vector<Posting> block;
  for (size_t b = 0; b < reader.block_count(); ++b) {
    AUTHIDX_RETURN_NOT_OK(reader.DecodeBlock(b, &block));
    postings.insert(postings.end(), block.begin(), block.end());
  }
  return postings;
}

}  // namespace authidx
