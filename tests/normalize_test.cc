#include "authidx/text/normalize.h"

#include <gtest/gtest.h>

namespace authidx::text {
namespace {

TEST(FoldCaseTest, AsciiLowercasing) {
  EXPECT_EQ(FoldCase("Hello World"), "hello world");
  EXPECT_EQ(FoldCase("ABC-123"), "abc-123");
  EXPECT_EQ(FoldCase(""), "");
}

TEST(FoldCaseTest, Latin1Diacritics) {
  EXPECT_EQ(FoldCase("Élan"), "elan");
  EXPECT_EQ(FoldCase("naïve"), "naive");
  EXPECT_EQ(FoldCase("Søren"), "soren");
  EXPECT_EQ(FoldCase("Müller"), "muller");
  EXPECT_EQ(FoldCase("Ñoño"), "nono");
  EXPECT_EQ(FoldCase("Çelik"), "celik");
}

TEST(FoldCaseTest, MultiCharExpansions) {
  EXPECT_EQ(FoldCase("Strauß"), "strauss");
  EXPECT_EQ(FoldCase("Ægir"), "aegir");
  EXPECT_EQ(FoldCase("Œuvre"), "oeuvre");
  EXPECT_EQ(FoldCase("Þor"), "thor");
}

TEST(FoldCaseTest, LatinExtendedA) {
  EXPECT_EQ(FoldCase("Šimek"), "simek");
  EXPECT_EQ(FoldCase("Łukasz"), "lukasz");
  EXPECT_EQ(FoldCase("Dvořák"), "dvorak");
  EXPECT_EQ(FoldCase("Ğül"), "gul");
}

TEST(FoldCaseTest, PassesThroughNonLatin) {
  // Cyrillic is outside the folded ranges: preserved verbatim.
  EXPECT_EQ(FoldCase("Тест"), "Тест");
}

TEST(FoldCaseTest, InvalidUtf8BytesSurvive) {
  std::string bad = "a\xFF"
                    "b";
  std::string folded = FoldCase(bad);
  EXPECT_EQ(folded.substr(0, 1), "a");
  EXPECT_EQ(folded.substr(folded.size() - 1), "b");
}

TEST(NormalizeForIndexTest, CollapsesWhitespace) {
  EXPECT_EQ(NormalizeForIndex("  A   B\t C \n"), "a b c");
  EXPECT_EQ(NormalizeForIndex("NoChange"), "nochange");
  EXPECT_EQ(NormalizeForIndex("   "), "");
}

TEST(CharClassTest, Predicates) {
  EXPECT_TRUE(IsAsciiAlpha('a'));
  EXPECT_TRUE(IsAsciiAlpha('Z'));
  EXPECT_FALSE(IsAsciiAlpha('1'));
  EXPECT_TRUE(IsAsciiDigit('0'));
  EXPECT_FALSE(IsAsciiDigit('x'));
}

}  // namespace
}  // namespace authidx::text
