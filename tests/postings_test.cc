#include "authidx/index/postings.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "authidx/common/random.h"

namespace authidx {
namespace {

std::vector<EntryId> RandomSortedIds(Random* rng, size_t n, EntryId max_id) {
  std::set<EntryId> ids;
  while (ids.size() < n) {
    ids.insert(static_cast<EntryId>(rng->Uniform(max_id)));
  }
  return {ids.begin(), ids.end()};
}

TEST(PostingsCodecTest, RoundTrip) {
  std::vector<Posting> postings = {
      {0, 1}, {1, 3}, {7, 1}, {100, 2}, {1000000, 9}};
  std::string encoded = EncodePostings(postings);
  Result<std::vector<Posting>> decoded = DecodePostings(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, postings);
}

TEST(PostingsCodecTest, EmptyList) {
  Result<std::vector<Posting>> decoded = DecodePostings(EncodePostings({}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(PostingsCodecTest, DeltaCompressionIsCompact) {
  // Dense small-gap lists should take ~2 bytes per posting.
  std::vector<Posting> postings;
  for (EntryId i = 0; i < 1000; ++i) {
    postings.push_back({i * 2, 1});
  }
  std::string encoded = EncodePostings(postings);
  EXPECT_LT(encoded.size(), 1000u * 3);
}

TEST(PostingsCodecTest, CorruptionRejected) {
  std::string encoded = EncodePostings({{5, 1}, {9, 2}});
  // Truncations.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodePostings(encoded.substr(0, len)).ok()) << len;
  }
  // Trailing junk.
  EXPECT_TRUE(DecodePostings(encoded + "x").status().IsCorruption());
  // Absurd count with tiny buffer.
  std::string absurd;
  absurd.push_back('\xFF');
  absurd.push_back('\xFF');
  absurd.push_back('\x7F');
  EXPECT_TRUE(DecodePostings(absurd).status().IsCorruption());
}

TEST(PostingsCodecTest, NonIncreasingDocsRejected) {
  // Hand-craft: count 2, first doc 5, gap 0 (duplicate).
  std::vector<Posting> good = {{5, 1}, {6, 1}};
  std::string encoded = EncodePostings(good);
  // Patch second gap byte (1) to 0: layout is [count][5][1][gap][1].
  encoded[3] = 0;
  EXPECT_TRUE(DecodePostings(encoded).status().IsCorruption());
}

std::vector<Posting> MakePostings(Random* rng, size_t n) {
  std::vector<EntryId> ids = RandomSortedIds(rng, n, 1 << 24);
  std::vector<Posting> postings;
  for (EntryId id : ids) {
    postings.push_back({id, 1 + static_cast<uint32_t>(rng->Uniform(7))});
  }
  return postings;
}

TEST(BlockMaxCodecTest, RoundTripAcrossBlockBoundaries) {
  Random rng(7);
  // 0, 1, partial, exactly one, one + partial, many blocks.
  for (size_t n : {0u, 1u, 31u, 32u, 33u, 64u, 100u, 1000u}) {
    std::vector<Posting> postings = MakePostings(&rng, n);
    std::string encoded = EncodeBlockMaxPostings(postings);
    Result<std::vector<Posting>> decoded = DecodeBlockMaxPostings(encoded);
    ASSERT_TRUE(decoded.ok()) << n << ": " << decoded.status();
    EXPECT_EQ(*decoded, postings) << n;
  }
}

TEST(BlockMaxCodecTest, SkipTableMatchesBlocks) {
  Random rng(8);
  std::vector<Posting> postings = MakePostings(&rng, 100);
  std::string encoded = EncodeBlockMaxPostings(postings);
  Result<BlockMaxReader> reader = BlockMaxReader::Open(encoded);
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->total_count(), 100u);
  ASSERT_EQ(reader->block_count(), 4u);  // 32 + 32 + 32 + 4.
  std::vector<Posting> block;
  size_t seen = 0;
  for (size_t b = 0; b < reader->block_count(); ++b) {
    ASSERT_TRUE(reader->DecodeBlock(b, &block).ok());
    ASSERT_EQ(block.size(), reader->block(b).count);
    uint32_t max_freq = 0;
    for (const Posting& p : block) {
      max_freq = std::max(max_freq, p.freq);
      ASSERT_EQ(p, postings[seen]);
      ++seen;
    }
    EXPECT_EQ(reader->block(b).max_freq, max_freq);
    EXPECT_EQ(reader->block(b).last_doc, block.back().doc);
  }
  EXPECT_EQ(seen, postings.size());
}

TEST(BlockMaxCodecTest, BlocksDecodeIndependently) {
  Random rng(9);
  std::vector<Posting> postings = MakePostings(&rng, 200);
  std::string encoded = EncodeBlockMaxPostings(postings);
  Result<BlockMaxReader> reader = BlockMaxReader::Open(encoded);
  ASSERT_TRUE(reader.ok());
  // Decode only the last block — no predecessor decode needed.
  std::vector<Posting> block;
  size_t last = reader->block_count() - 1;
  ASSERT_TRUE(reader->DecodeBlock(last, &block).ok());
  ASSERT_FALSE(block.empty());
  EXPECT_EQ(block.back().doc, postings.back().doc);
  EXPECT_EQ(block.front().doc, postings[32 * last].doc);
}

TEST(BlockMaxCodecTest, TruncationsRejected) {
  Random rng(10);
  std::string encoded = EncodeBlockMaxPostings(MakePostings(&rng, 70));
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeBlockMaxPostings(encoded.substr(0, len)).ok()) << len;
  }
  EXPECT_TRUE(
      DecodeBlockMaxPostings(encoded + "x").status().IsCorruption());
}

TEST(BlockMaxCodecTest, ForgedCountsRejectedBeforeAllocation) {
  // A huge total_count in a tiny buffer must fail validation, not
  // drive a reserve() of attacker-chosen size.
  std::string absurd;
  absurd.push_back('\xFF');
  absurd.push_back('\xFF');
  absurd.push_back('\xFF');
  absurd.push_back('\x7F');
  EXPECT_TRUE(DecodeBlockMaxPostings(absurd).status().IsCorruption());
  // Plausible total_count but absurd block_count.
  std::string forged;
  forged.push_back('\x04');  // total_count = 4
  forged.push_back('\xFF');
  forged.push_back('\xFF');
  forged.push_back('\x7F');  // block_count huge
  EXPECT_TRUE(DecodeBlockMaxPostings(forged).status().IsCorruption());
  // block_count inconsistent with total_count.
  std::string mismatched;
  mismatched.push_back('\x04');  // total_count = 4
  mismatched.push_back('\x02');  // block_count = 2 (should be 1)
  EXPECT_TRUE(DecodeBlockMaxPostings(mismatched).status().IsCorruption());
}

TEST(BlockMaxCodecTest, CorruptedSkipEntriesRejected) {
  Random rng(11);
  std::vector<Posting> postings = MakePostings(&rng, 64);
  std::string encoded = EncodeBlockMaxPostings(postings);
  // Flip every byte in turn; decode must never crash, and anything it
  // accepts must still be structurally valid (strictly increasing doc
  // ids). Content integrity beyond structure is the storage layer's
  // CRC job, not the codec's.
  for (size_t i = 0; i < encoded.size(); ++i) {
    for (uint8_t delta : {uint8_t{1}, uint8_t{0x80}}) {
      std::string corrupt = encoded;
      corrupt[i] = static_cast<char>(static_cast<uint8_t>(corrupt[i]) ^ delta);
      Result<std::vector<Posting>> decoded = DecodeBlockMaxPostings(corrupt);
      if (!decoded.ok()) {
        continue;
      }
      EntryId prev = 0;
      bool first = true;
      for (const Posting& p : *decoded) {
        EXPECT_TRUE(first || p.doc > prev) << "byte " << i;
        prev = p.doc;
        first = false;
      }
    }
  }
}

TEST(BlockMaxCodecTest, MatchesPlainCodecPayload) {
  // Block payloads concatenated are exactly the EncodePostings stream
  // minus its count prefix — the formats share the inner codec.
  Random rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Posting> postings = MakePostings(&rng, rng.Uniform(300));
    Result<std::vector<Posting>> plain =
        DecodePostings(EncodePostings(postings));
    Result<std::vector<Posting>> blockmax =
        DecodeBlockMaxPostings(EncodeBlockMaxPostings(postings));
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(blockmax.ok());
    EXPECT_EQ(*plain, *blockmax);
  }
}

TEST(CodecPropertyTest, RandomListsRoundTrip) {
  Random rng(404);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<EntryId> ids = RandomSortedIds(&rng, rng.Uniform(500), 1 << 24);
    std::vector<Posting> postings;
    for (EntryId id : ids) {
      postings.push_back({id, 1 + static_cast<uint32_t>(rng.Uniform(5))});
    }
    Result<std::vector<Posting>> decoded =
        DecodePostings(EncodePostings(postings));
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(*decoded, postings);
  }
}

}  // namespace
}  // namespace authidx
