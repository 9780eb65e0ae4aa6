// Deterministic fuzzing of the Entry binary serde (the value format of
// the storage engine and WAL):
//  * encode(entry) -> decode must reproduce the entry exactly for
//    arbitrary field contents (including embedded NUL and non-UTF-8);
//  * decoding corrupted or random bytes must never crash and must fail
//    with a Status (Corruption/InvalidArgument), never UB;
//  * decode -> encode -> decode must be a fixed point.
// Run under the asan-ubsan preset for full effect.

#include <gtest/gtest.h>

#include "authidx/model/serde.h"
#include "fuzz_util.h"

namespace authidx {
namespace {

Entry RandomEntry(Random* rng) {
  Entry e;
  e.author.surname = RandomBytes(rng, 24);
  e.author.given = RandomBytes(rng, 24);
  e.author.suffix = RandomBytes(rng, 8);
  e.author.student_material = rng->OneIn(3);
  e.title = RandomBytes(rng, 120);
  e.citation.volume = static_cast<uint32_t>(rng->Skewed(31));
  e.citation.page = static_cast<uint32_t>(rng->Skewed(31));
  e.citation.year = static_cast<uint32_t>(rng->Skewed(31));
  uint64_t n = rng->Uniform(5);
  for (uint64_t i = 0; i < n; ++i) {
    e.coauthors.push_back(RandomBytes(rng, 32));
  }
  return e;
}

TEST(FuzzSerde, RandomEntriesRoundTripExactly) {
  Random rng(0x5e2de1);
  int iters = FuzzIterations();
  for (int i = 0; i < iters; ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    Entry entry = RandomEntry(&rng);
    std::string encoded = EncodeEntryToString(entry);
    Result<Entry> decoded = DecodeEntryExact(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(*decoded, entry);
  }
}

TEST(FuzzSerde, CorruptedEncodingsNeverCrash) {
  Random seed_rng(0xc0de02);
  std::vector<std::string> corpus;
  for (int i = 0; i < 32; ++i) {
    corpus.push_back(EncodeEntryToString(RandomEntry(&seed_rng)));
  }
  CorpusMutator mutator(std::move(corpus), /*seed=*/0xbadbed);
  int iters = FuzzIterations();
  for (int i = 0; i < iters; ++i) {
    std::string bytes = mutator.Next();
    SCOPED_TRACE("case " + std::to_string(i));
    std::string_view input(bytes);
    Result<Entry> decoded = DecodeEntry(&input);
    if (!decoded.ok()) {
      continue;  // Rejection must be a Status, never a crash.
    }
    // Accepted decodes must be a fixed point: re-encoding the decoded
    // entry and decoding again yields the same entry (the canonical
    // encoding is self-consistent even when reached from mutated bytes).
    std::string reencoded = EncodeEntryToString(*decoded);
    Result<Entry> redecoded = DecodeEntryExact(reencoded);
    ASSERT_TRUE(redecoded.ok())
        << "re-decode of canonical encoding failed: " << redecoded.status();
    EXPECT_EQ(*redecoded, *decoded);
  }
}

TEST(FuzzSerde, RandomBytesNeverCrash) {
  Random rng(0xf00d03);
  int iters = FuzzIterations();
  for (int i = 0; i < iters; ++i) {
    std::string bytes = RandomBytes(&rng, 256);
    SCOPED_TRACE("case " + std::to_string(i));
    // Both entry points must tolerate arbitrary input.
    DecodeEntryExact(bytes).status().IgnoreError();
    std::string_view input(bytes);
    DecodeEntry(&input).status().IgnoreError();
  }
}

}  // namespace
}  // namespace authidx
