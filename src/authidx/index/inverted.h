#ifndef AUTHIDX_INDEX_INVERTED_H_
#define AUTHIDX_INDEX_INVERTED_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "authidx/index/postings.h"
#include "authidx/model/record.h"
#include "authidx/obs/metrics.h"

namespace authidx {

/// In-memory inverted index: term -> compressed postings. Documents are
/// added with pre-analyzed tokens (the caller runs text::Tokenize so
/// indexing and querying share one analyzer). Doc ids must be added in
/// strictly increasing order, which ingest order guarantees; doc
/// lengths are kept in an array indexed by doc id, so ids should also be
/// dense.
///
/// Postings are stored as one continuous delta-varint run per term with
/// a per-block skip table (kPostingsBlockSize postings per block,
/// tracking last doc id + max term frequency) maintained incrementally
/// on add — the in-memory mirror of the EncodeBlockMaxPostings format.
/// Cursor (below) uses the skip table to decode only the blocks a
/// top-k pruning loop actually visits.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  /// Indexes `tokens` under `doc`. Duplicate tokens raise the term
  /// frequency. Returns false (and indexes nothing) unless `doc` is
  /// above every previously added doc id.
  bool AddDocument(EntryId doc, const std::vector<std::string>& tokens);

  /// Doc ids containing `term` (empty vector if absent).
  std::vector<EntryId> GetDocs(std::string_view term) const;

  /// Full postings with term frequencies.
  std::vector<Posting> GetPostings(std::string_view term) const;

  /// Number of documents containing `term`.
  size_t DocFreq(std::string_view term) const;

  /// Total number of documents added.
  size_t doc_count() const { return doc_count_; }

  /// Number of distinct terms.
  size_t term_count() const { return terms_.size(); }

  /// Sum of document lengths (tokens); used by BM25's length norm.
  uint64_t total_tokens() const { return total_tokens_; }

  /// Token count of document `doc` (0 if unknown).
  uint32_t DocLength(EntryId doc) const;

  /// Smallest token count any added document had (0 before the first
  /// add). A lower bound on every DocLength a posting can refer to —
  /// the doc-length side of the BM25 impact upper bound.
  uint32_t min_doc_tokens() const {
    return doc_count_ == 0 ? 0 : min_doc_tokens_;
  }

  /// Total compressed postings bytes (diagnostics/benchmarks).
  size_t CompressedBytes() const;

  /// All terms (unsorted); mainly for tests and stats.
  std::vector<std::string> Terms() const;

  /// Points the index at a registry counter (may be null) counting
  /// postings decoded by GetPostings/GetDocs and by Cursor block
  /// decodes. See docs/OBSERVABILITY.md.
  void BindMetrics(obs::Counter* postings_decoded);

 private:
  // One closed (full) block of kPostingsBlockSize postings. The
  // trailing partial block lives in TermEntry's open_* fields until it
  // fills up.
  struct BlockInfo {
    EntryId last_doc = 0;
    uint32_t max_freq = 0;
    // Byte offset of the block's first varint within `encoded`.
    uint32_t offset = 0;
  };

  struct TermEntry {
    // Encoded (gap, freq) varint postings, appended incrementally.
    std::string encoded;
    uint32_t doc_freq = 0;
    EntryId last_doc = 0;
    // Largest term frequency across the whole list.
    uint32_t max_freq = 0;
    // Closed blocks, each exactly kPostingsBlockSize postings.
    std::vector<BlockInfo> blocks;
    // Trailing partial block: posting count, its max freq, and the
    // byte offset where it starts.
    uint32_t open_count = 0;
    uint32_t open_max_freq = 0;
    uint32_t open_offset = 0;
  };

 public:
  /// Skip-aware read cursor over one term's postings. Supports the
  /// two-phase access pattern of block-max top-k pruning: ShallowSeek
  /// advances over whole blocks consulting only skip metadata (last doc
  /// id, max freq — no decoding), Seek then decodes just the block the
  /// caller decided to look into. Decoded postings are charged to the
  /// index's postings-decoded counter exactly once per decoded block.
  /// Reading positions only; never mutates the index. Invalidated by
  /// AddDocument (same contract as any reference into the index).
  class Cursor {
   public:
    /// Empty cursor (no postings).
    Cursor() = default;

    /// True when there are no (more) postings to read.
    bool empty() const { return entry_ == nullptr || entry_->doc_freq == 0; }

    /// Document frequency of the term (postings in the list).
    uint32_t doc_freq() const { return entry_ == nullptr ? 0 : entry_->doc_freq; }

    /// Largest term frequency across the whole list.
    uint32_t max_freq() const { return entry_ == nullptr ? 0 : entry_->max_freq; }

    /// Number of blocks (closed + the trailing partial one).
    size_t block_count() const;

    /// Last doc id of block `b`.
    EntryId block_last_doc(size_t b) const;

    /// Max term frequency within block `b`.
    uint32_t block_max_freq(size_t b) const;

    /// Advances the block position (without decoding) to the first
    /// block whose last doc id >= target. Returns false when every
    /// remaining doc id is < target (list exhausted).
    bool ShallowSeek(EntryId target);

    /// Last doc id of the current block (after a true ShallowSeek).
    EntryId current_block_last_doc() const { return block_last_doc(block_); }

    /// Max term frequency of the current block.
    uint32_t current_block_max_freq() const { return block_max_freq(block_); }

    /// Decodes the current block if needed and positions on the first
    /// posting with doc id >= target. Requires a preceding
    /// ShallowSeek(target) that returned true (which guarantees such a
    /// posting exists in the current block).
    void Seek(EntryId target);

    /// Doc id at the current position (after Seek).
    EntryId doc() const { return buf_[pos_].doc; }

    /// Term frequency at the current position (after Seek).
    uint32_t freq() const { return buf_[pos_].freq; }

    /// Postings decoded through this cursor so far.
    uint64_t decoded_postings() const { return decoded_postings_; }

   private:
    friend class InvertedIndex;
    Cursor(const TermEntry* entry, obs::Counter* counter)
        : entry_(entry), counter_(counter) {}

    // Decodes block `block_` into buf_ (no-op if already decoded).
    void DecodeCurrentBlock();

    const TermEntry* entry_ = nullptr;
    obs::Counter* counter_ = nullptr;
    size_t block_ = 0;
    bool decoded_ = false;
    std::vector<Posting> buf_;
    size_t pos_ = 0;
    uint64_t decoded_postings_ = 0;
  };

  /// Opens a skip-aware cursor over `term`'s postings (empty() cursor
  /// for unknown terms).
  Cursor OpenCursor(std::string_view term) const;

 private:
  // Transparent hash and equality: lookups by string_view never build a
  // std::string.
  struct TermHash {
    using is_transparent = void;
    size_t operator()(std::string_view term) const {
      return std::hash<std::string_view>{}(term);
    }
  };
  std::unordered_map<std::string, TermEntry, TermHash, std::equal_to<>>
      terms_;
  // Token count per doc id; 0 for ids never added.
  std::vector<uint32_t> doc_lengths_;
  size_t doc_count_ = 0;
  uint64_t total_tokens_ = 0;
  EntryId max_doc_ = 0;
  uint32_t min_doc_tokens_ = UINT32_MAX;
  bool any_doc_ = false;
  obs::Counter* postings_decoded_ = nullptr;
};

}  // namespace authidx

#endif  // AUTHIDX_INDEX_INVERTED_H_
