#include "authidx/text/collate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "authidx/common/random.h"

namespace authidx::text {
namespace {

// Sorting with precomputed keys must equal sorting with Compare.
std::vector<std::string> SortByKeys(std::vector<std::string> names) {
  std::sort(names.begin(), names.end(),
            [](const std::string& a, const std::string& b) {
              return MakeSortKey(a) < MakeSortKey(b);
            });
  return names;
}

TEST(CollateTest, CaseInsensitivePrimary) {
  EXPECT_LT(Compare("abrams", "ZIMAROWSKI"), 0);
  EXPECT_LT(Compare("Abrams", "abramson"), 0);
  // Same letters different case: not equal (tiebreak on raw bytes) but
  // adjacent in order.
  EXPECT_NE(Compare("Smith", "smith"), 0);
}

TEST(CollateTest, AccentInsensitivePrimary) {
  // Ábrams sorts with abrams, not after 'z'.
  EXPECT_LT(Compare("Ábrams", "Baker"), 0);
  EXPECT_LT(Compare("Abramovsky", "Ábrams"), 0);
}

TEST(CollateTest, PunctuationIgnoredAtPrimaryLevel) {
  // O'Brien ~ OBrien: differ only in tiebreak.
  EXPECT_LT(Compare("O'Brien", "Ochoa"), 0);
  EXPECT_LT(Compare("Oakes", "O'Brien"), 0);
  // Hyphenated surname.
  EXPECT_LT(Compare("Bates-Smith, Pamela", "Batey, Robert"), 0);
}

TEST(CollateTest, NumbersCompareNumerically) {
  EXPECT_LT(Compare("Vol 9", "Vol 12"), 0);
  EXPECT_LT(Compare("Vol 12", "Vol 101"), 0);
  EXPECT_LT(Compare("item2", "item10"), 0);
  // Leading zeros do not matter at the primary level.
  EXPECT_LT(Compare("item007", "item8"), 0);
}

TEST(CollateTest, TotalOrderOverDistinctStrings) {
  EXPECT_EQ(Compare("same", "same"), 0);
  EXPECT_NE(Compare("a-b", "ab"), 0);  // Distinct inputs never tie.
  int ab = Compare("a-b", "ab");
  int ba = Compare("ab", "a-b");
  EXPECT_EQ(ab, -ba);  // Antisymmetry.
}

TEST(CollateTest, KeysOrderLikeThePrintedIndex) {
  // Names in the order they appear in the source document.
  std::vector<std::string> printed = {
      "Abdalla, Tarek F.",   "Abramovsky, Deborah", "Abrams, Dennis M.",
      "Adams, Alayne B.",    "Adler, Mortimer J.",  "Albert, Michael C.",
      "Allen, Michael C.",   "Ameri, Samuel J.",    "Anderson, John M.",
      "Arceneaux, Webster J., III",                 "Archer, Debra G.",
      "Archibald, Ellen R.", "Areen, Judith",       "Artimez, Linda R.",
      "Ashdown, Gerald G.",  "Ashe, Marie",         "Atkinson, Stephen L.",
      "Ausness, Richard C.", "Auvil, Walt",         "Avis, Hugh C.",
  };
  std::vector<std::string> shuffled = printed;
  Random rng(5);
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  EXPECT_EQ(SortByKeys(shuffled), printed);
}

TEST(CollateTest, McNamesSortByLiteralLetters) {
  // Like the source: MacLeod < Madden < ... < McAteer (letter-by-letter,
  // no Mc/Mac equivalence).
  std::vector<std::string> printed = {"MacLeod, John", "Madden, M. Stuart",
                                      "Malley, Wallace", "McAteer, J. Davitt",
                                      "McGinley, Patrick C."};
  std::vector<std::string> shuffled = {printed[3], printed[0], printed[4],
                                       printed[2], printed[1]};
  EXPECT_EQ(SortByKeys(shuffled), printed);
}

TEST(CollateTest, CompareConsistentWithMakeSortKey) {
  Random rng(99);
  const char* pool[] = {"Abrams", "abrams", "Ábrams", "O'Brien", "OBrien",
                        "Vol 9",  "Vol 12", "a-b",    "ab",      ""};
  for (const char* a : pool) {
    for (const char* b : pool) {
      int direct = Compare(a, b);
      int via_keys = MakeSortKey(a).compare(MakeSortKey(b));
      via_keys = via_keys < 0 ? -1 : (via_keys > 0 ? 1 : 0);
      EXPECT_EQ(direct, via_keys) << a << " vs " << b;
    }
  }
  (void)rng;
}

// Property: the key order is a strict weak ordering; sorting random
// strings by keys is stable w.r.t. repeated sorting and agrees with
// Compare pairwise.
class CollatePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CollatePropertyTest, PairwiseAgreement) {
  Random rng(GetParam());
  std::vector<std::string> names;
  for (int i = 0; i < 200; ++i) {
    std::string s;
    size_t len = rng.Uniform(12);
    for (size_t j = 0; j < len; ++j) {
      const char alphabet[] =
          "abcXYZ 0123456789-'.,";
      s += alphabet[rng.Uniform(sizeof(alphabet) - 1)];
    }
    names.push_back(std::move(s));
  }
  std::vector<std::string> sorted = SortByKeys(names);
  for (size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(Compare(sorted[i - 1], sorted[i]), 0)
        << "'" << sorted[i - 1] << "' > '" << sorted[i] << "'";
  }
}

TEST(SortKeyPrefixTest, BigEndianZeroPadded) {
  EXPECT_EQ(SortKeyPrefix(""), 0u);
  EXPECT_EQ(SortKeyPrefix("a"), 0x6100000000000000u);
  EXPECT_EQ(SortKeyPrefix("abcdefgh"), 0x6162636465666768u);
  EXPECT_EQ(SortKeyPrefix("abcdefghij"), SortKeyPrefix("abcdefgh"));
  EXPECT_EQ(SortKeyPrefix("\xff"), 0xff00000000000000u);
}

// Property: a < b in memcmp order implies prefix(a) <= prefix(b), over
// short strings drawn from bytes that include the zero padding itself
// (0x00), the primary/tiebreak separator (0x01) and high bytes.
TEST_P(CollatePropertyTest, SortKeyPrefixIsMonotone) {
  Random rng(GetParam());
  const char alphabet[] = {'\x00', '\x01', 'a', 'b', '\x7f', '\xff'};
  std::vector<std::string> keys;
  for (int i = 0; i < 300; ++i) {
    std::string s(rng.Uniform(13), '\0');
    for (char& c : s) {
      c = alphabet[rng.Uniform(sizeof(alphabet))];
    }
    keys.push_back(std::move(s));
  }
  for (const std::string& a : keys) {
    for (const std::string& b : keys) {
      if (a < b) {
        ASSERT_LE(SortKeyPrefix(a), SortKeyPrefix(b))
            << testing::PrintToString(a) << " < "
            << testing::PrintToString(b);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollatePropertyTest,
                         ::testing::Values(1, 22, 333, 4444));

}  // namespace
}  // namespace authidx::text
