#ifndef AUTHIDX_INDEX_POSTINGS_H_
#define AUTHIDX_INDEX_POSTINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "authidx/common/result.h"
#include "authidx/model/record.h"

namespace authidx {

/// One posting: a document (entry) plus the term's frequency in it.
struct Posting {
  EntryId doc = 0;
  uint32_t freq = 1;

  friend bool operator==(const Posting&, const Posting&) = default;
};

/// Delta-varint encodes a doc-sorted postings list: (gap, freq) pairs
/// where gap is the difference from the previous doc id (first is
/// absolute). Requires strictly increasing doc ids.
std::string EncodePostings(const std::vector<Posting>& postings);

/// Inverse of EncodePostings.
Result<std::vector<Posting>> DecodePostings(std::string_view data);

/// Postings per skip block in the block-max format (and in
/// InvertedIndex's in-memory block metadata). 32 keeps a skip entry per
/// ~64+ payload bytes while letting top-k pruning skip whole blocks.
inline constexpr uint32_t kPostingsBlockSize = 32;

/// Skip-table entry for one block of the block-max postings format:
/// enough metadata to (a) skip the block during WAND-style top-k
/// pruning (last_doc + max_freq bound its best possible BM25 impact)
/// and (b) decode it independently of its predecessors.
struct PostingsBlock {
  /// Postings in the block (== kPostingsBlockSize except the last).
  uint32_t count = 0;
  /// Largest (last) doc id in the block.
  EntryId last_doc = 0;
  /// Largest term frequency in the block (BM25 impact upper bound).
  uint32_t max_freq = 0;
  /// Payload byte length of the block's (gap, freq) varint run.
  uint32_t bytes = 0;

  friend bool operator==(const PostingsBlock&, const PostingsBlock&) = default;
};

/// Block-max encoding: a skip table followed by the same delta-varint
/// (gap, freq) payload EncodePostings produces, split into blocks of
/// kPostingsBlockSize postings. Each block's first gap is relative to
/// the previous block's last_doc (block 0's first doc is absolute), so
/// any block can be decoded from the skip table alone. Layout:
///
///   varint32 total_count
///   varint32 block_count
///   block_count x (varint32 count, varint32 last_doc_gap,
///                  varint32 max_freq, varint32 bytes)
///   concatenated block payloads
///
/// last_doc_gap is the delta from the previous block's last_doc (first
/// is absolute), keeping the skip table itself compressed.
std::string EncodeBlockMaxPostings(const std::vector<Posting>& postings);

/// Decodes a full block-max postings list, validating the skip table
/// against the payload (counts, last docs, max freqs, byte lengths must
/// all agree; anything else is Corruption, never a crash or an
/// attacker-sized allocation).
Result<std::vector<Posting>> DecodeBlockMaxPostings(std::string_view data);

/// Random-access view over an encoded block-max postings list: the skip
/// table is decoded eagerly (and validated structurally), block
/// payloads only on demand — the access pattern top-k pruning needs.
/// Holds views into `data`, which must outlive the reader.
class BlockMaxReader {
 public:
  /// Parses and validates the header + skip table of `data`.
  static Result<BlockMaxReader> Open(std::string_view data);

  /// Total postings across all blocks.
  uint32_t total_count() const { return total_count_; }

  /// Number of blocks.
  size_t block_count() const { return blocks_.size(); }

  /// Skip-table entry for block `b` (b < block_count()).
  const PostingsBlock& block(size_t b) const { return blocks_[b]; }

  /// Decodes block `b` into `*out` (replacing its contents), verifying
  /// the payload against the skip entry.
  Status DecodeBlock(size_t b, std::vector<Posting>* out) const;

 private:
  BlockMaxReader() = default;

  uint32_t total_count_ = 0;
  std::vector<PostingsBlock> blocks_;
  // Byte offset of each block's payload within payload_.
  std::vector<size_t> offsets_;
  std::string_view payload_;
};

}  // namespace authidx

#endif  // AUTHIDX_INDEX_POSTINGS_H_
