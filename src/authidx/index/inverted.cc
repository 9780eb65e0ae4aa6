#include "authidx/index/inverted.h"

#include <algorithm>

#include "authidx/common/coding.h"

namespace authidx {

bool InvertedIndex::AddDocument(EntryId doc,
                                const std::vector<std::string>& tokens) {
  if (any_doc_ && doc <= max_doc_) {
    return false;
  }
  // Aggregate term frequencies within the document.
  std::unordered_map<std::string_view, uint32_t> freqs;
  for (const std::string& token : tokens) {
    ++freqs[token];
  }
  for (const auto& [token, freq] : freqs) {
    auto it = terms_.find(token);
    if (it == terms_.end()) {
      it = terms_.emplace(std::string(token), TermEntry{}).first;
    }
    TermEntry& entry = it->second;
    uint32_t gap = entry.doc_freq == 0 ? doc : doc - entry.last_doc;
    if (entry.open_count == 0) {
      entry.open_offset = static_cast<uint32_t>(entry.encoded.size());
    }
    PutVarint32(&entry.encoded, gap);
    PutVarint32(&entry.encoded, freq);
    entry.last_doc = doc;
    ++entry.doc_freq;
    entry.max_freq = std::max(entry.max_freq, freq);
    entry.open_max_freq = std::max(entry.open_max_freq, freq);
    if (++entry.open_count == kPostingsBlockSize) {
      // Close the block: its skip entry is what lets Cursor bound and
      // skip it without decoding.
      entry.blocks.push_back(
          BlockInfo{doc, entry.open_max_freq, entry.open_offset});
      entry.open_count = 0;
      entry.open_max_freq = 0;
    }
  }
  doc_lengths_.resize(size_t{doc} + 1);
  doc_lengths_[doc] = static_cast<uint32_t>(tokens.size());
  total_tokens_ += tokens.size();
  min_doc_tokens_ =
      std::min(min_doc_tokens_, static_cast<uint32_t>(tokens.size()));
  ++doc_count_;
  max_doc_ = doc;
  any_doc_ = true;
  return true;
}

std::vector<Posting> InvertedIndex::GetPostings(std::string_view term) const {
  auto it = terms_.find(term);
  if (it == terms_.end()) {
    return {};
  }
  const TermEntry& entry = it->second;
  std::vector<Posting> postings;
  postings.reserve(entry.doc_freq);
  std::string_view data = entry.encoded;
  EntryId prev = 0;
  for (uint32_t i = 0; i < entry.doc_freq; ++i) {
    uint32_t gap = 0, freq = 0;
    // Encoded in-process; decode failures would indicate memory
    // corruption, so treat them as "stop early".
    if (!GetVarint32(&data, &gap).ok() || !GetVarint32(&data, &freq).ok()) {
      break;
    }
    EntryId doc = (i == 0) ? gap : prev + gap;
    postings.push_back(Posting{doc, freq});
    prev = doc;
  }
  if (postings_decoded_ != nullptr) {
    postings_decoded_->Inc(postings.size());
  }
  return postings;
}

void InvertedIndex::BindMetrics(obs::Counter* postings_decoded) {
  postings_decoded_ = postings_decoded;
}

std::vector<EntryId> InvertedIndex::GetDocs(std::string_view term) const {
  std::vector<Posting> postings = GetPostings(term);
  std::vector<EntryId> docs;
  docs.reserve(postings.size());
  for (const Posting& p : postings) {
    docs.push_back(p.doc);
  }
  return docs;
}

size_t InvertedIndex::DocFreq(std::string_view term) const {
  auto it = terms_.find(term);
  return it == terms_.end() ? 0 : it->second.doc_freq;
}

uint32_t InvertedIndex::DocLength(EntryId doc) const {
  return doc < doc_lengths_.size() ? doc_lengths_[doc] : 0;
}

size_t InvertedIndex::CompressedBytes() const {
  size_t total = 0;
  for (const auto& [term, entry] : terms_) {
    total += entry.encoded.size();
  }
  return total;
}

InvertedIndex::Cursor InvertedIndex::OpenCursor(std::string_view term) const {
  auto it = terms_.find(term);
  if (it == terms_.end()) {
    return Cursor();
  }
  return Cursor(&it->second, postings_decoded_);
}

size_t InvertedIndex::Cursor::block_count() const {
  if (entry_ == nullptr) {
    return 0;
  }
  return entry_->blocks.size() + (entry_->open_count > 0 ? 1 : 0);
}

EntryId InvertedIndex::Cursor::block_last_doc(size_t b) const {
  return b < entry_->blocks.size() ? entry_->blocks[b].last_doc
                                   : entry_->last_doc;
}

uint32_t InvertedIndex::Cursor::block_max_freq(size_t b) const {
  return b < entry_->blocks.size() ? entry_->blocks[b].max_freq
                                   : entry_->open_max_freq;
}

bool InvertedIndex::Cursor::ShallowSeek(EntryId target) {
  const size_t blocks = block_count();
  size_t b = block_;
  while (b < blocks && block_last_doc(b) < target) {
    ++b;
  }
  if (b >= blocks) {
    block_ = blocks;
    return false;
  }
  if (b != block_) {
    block_ = b;
    decoded_ = false;  // Position moved to a block not yet decoded.
  }
  return true;
}

void InvertedIndex::Cursor::DecodeCurrentBlock() {
  if (decoded_) {
    return;
  }
  const size_t closed = entry_->blocks.size();
  const bool partial = block_ >= closed;
  const size_t begin =
      partial ? entry_->open_offset : entry_->blocks[block_].offset;
  size_t end = entry_->encoded.size();
  if (!partial && block_ + 1 < closed) {
    end = entry_->blocks[block_ + 1].offset;
  } else if (!partial && entry_->open_count > 0) {
    end = entry_->open_offset;
  }
  const uint32_t count = partial ? entry_->open_count : kPostingsBlockSize;
  std::string_view data(entry_->encoded);
  data = data.substr(begin, end - begin);
  buf_.clear();
  buf_.reserve(count);
  EntryId prev = block_ == 0 ? 0 : block_last_doc(block_ - 1);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t gap = 0, freq = 0;
    // Encoded in-process; decode failures would indicate memory
    // corruption, so treat them as "stop early" (like GetPostings).
    if (!GetVarint32(&data, &gap).ok() || !GetVarint32(&data, &freq).ok()) {
      break;
    }
    prev += gap;
    buf_.push_back(Posting{prev, freq});
  }
  decoded_ = true;
  pos_ = 0;
  decoded_postings_ += buf_.size();
  if (counter_ != nullptr) {
    counter_->Inc(buf_.size());
  }
}

void InvertedIndex::Cursor::Seek(EntryId target) {
  DecodeCurrentBlock();
  if (pos_ < buf_.size() && buf_[pos_].doc >= target) {
    // Already there (repeated Seek at the same alignment target).
  } else {
    auto it = std::lower_bound(
        buf_.begin(), buf_.end(), target,
        [](const Posting& p, EntryId t) { return p.doc < t; });
    pos_ = static_cast<size_t>(it - buf_.begin());
  }
}

std::vector<std::string> InvertedIndex::Terms() const {
  std::vector<std::string> out;
  out.reserve(terms_.size());
  for (const auto& [term, entry] : terms_) {
    out.push_back(term);
  }
  return out;
}

}  // namespace authidx
