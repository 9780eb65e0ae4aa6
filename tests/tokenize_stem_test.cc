#include <gtest/gtest.h>

#include "authidx/text/stem.h"
#include "authidx/text/tokenize.h"

namespace authidx::text {
namespace {

TEST(StemTest, ClassicPorterExamples) {
  // Canonical pairs from Porter's paper and reference vocabulary.
  EXPECT_EQ(PorterStem("caresses"), "caress");
  EXPECT_EQ(PorterStem("ponies"), "poni");
  EXPECT_EQ(PorterStem("caress"), "caress");
  EXPECT_EQ(PorterStem("cats"), "cat");
  EXPECT_EQ(PorterStem("feed"), "feed");
  EXPECT_EQ(PorterStem("agreed"), "agre");  // step 5a strips the e.
  EXPECT_EQ(PorterStem("plastered"), "plaster");
  EXPECT_EQ(PorterStem("bled"), "bled");
  EXPECT_EQ(PorterStem("motoring"), "motor");
  EXPECT_EQ(PorterStem("sing"), "sing");
  EXPECT_EQ(PorterStem("conflated"), "conflat");
  EXPECT_EQ(PorterStem("troubled"), "troubl");
  EXPECT_EQ(PorterStem("sized"), "size");
  EXPECT_EQ(PorterStem("hopping"), "hop");
  EXPECT_EQ(PorterStem("tanned"), "tan");
  EXPECT_EQ(PorterStem("falling"), "fall");
  EXPECT_EQ(PorterStem("hissing"), "hiss");
  EXPECT_EQ(PorterStem("fizzed"), "fizz");
  EXPECT_EQ(PorterStem("failing"), "fail");
  EXPECT_EQ(PorterStem("filing"), "file");
  EXPECT_EQ(PorterStem("happy"), "happi");
  EXPECT_EQ(PorterStem("sky"), "sky");
  EXPECT_EQ(PorterStem("relational"), "relat");
  EXPECT_EQ(PorterStem("conditional"), "condit");
  EXPECT_EQ(PorterStem("rational"), "ration");
  EXPECT_EQ(PorterStem("digitizer"), "digit");
  EXPECT_EQ(PorterStem("operator"), "oper");
  EXPECT_EQ(PorterStem("feudalism"), "feudal");
  EXPECT_EQ(PorterStem("hopefulness"), "hope");
  EXPECT_EQ(PorterStem("formaliti"), "formal");
  EXPECT_EQ(PorterStem("triplicate"), "triplic");
  EXPECT_EQ(PorterStem("formative"), "form");
  EXPECT_EQ(PorterStem("formalize"), "formal");
  EXPECT_EQ(PorterStem("electrical"), "electr");  // step 4 then applies.
  EXPECT_EQ(PorterStem("hopeful"), "hope");
  EXPECT_EQ(PorterStem("goodness"), "good");
  EXPECT_EQ(PorterStem("revival"), "reviv");
  EXPECT_EQ(PorterStem("allowance"), "allow");
  EXPECT_EQ(PorterStem("inference"), "infer");
  EXPECT_EQ(PorterStem("airliner"), "airlin");
  EXPECT_EQ(PorterStem("adjustable"), "adjust");
  EXPECT_EQ(PorterStem("defensible"), "defens");
  EXPECT_EQ(PorterStem("irritant"), "irrit");
  EXPECT_EQ(PorterStem("replacement"), "replac");
  EXPECT_EQ(PorterStem("adjustment"), "adjust");
  EXPECT_EQ(PorterStem("dependent"), "depend");
  EXPECT_EQ(PorterStem("adoption"), "adopt");
  EXPECT_EQ(PorterStem("homologou"), "homolog");
  EXPECT_EQ(PorterStem("communism"), "commun");
  EXPECT_EQ(PorterStem("activate"), "activ");
  EXPECT_EQ(PorterStem("angulariti"), "angular");
  EXPECT_EQ(PorterStem("effective"), "effect");
  EXPECT_EQ(PorterStem("bowdlerize"), "bowdler");
  EXPECT_EQ(PorterStem("probate"), "probat");
  EXPECT_EQ(PorterStem("rate"), "rate");
  EXPECT_EQ(PorterStem("cease"), "ceas");
  EXPECT_EQ(PorterStem("controll"), "control");
  EXPECT_EQ(PorterStem("roll"), "roll");
}

TEST(StemTest, DomainVocabulary) {
  EXPECT_EQ(PorterStem("mining"), "mine");
  EXPECT_EQ(PorterStem("regulations"), PorterStem("regulation"));
  EXPECT_EQ(PorterStem("liability"), PorterStem("liabilities"));
  EXPECT_EQ(PorterStem("constitutional"), PorterStem("constitution"));
}

TEST(StemTest, ShortAndNonAlphaInputsUnchanged) {
  EXPECT_EQ(PorterStem("at"), "at");
  EXPECT_EQ(PorterStem("a"), "a");
  EXPECT_EQ(PorterStem(""), "");
  EXPECT_EQ(PorterStem("Mixed"), "Mixed");  // Uppercase: passthrough.
  EXPECT_EQ(PorterStem("x123"), "x123");
}

TEST(StopwordTest, CommonWordsDetected) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("of"));
  EXPECT_TRUE(IsStopword("and"));
  EXPECT_FALSE(IsStopword("coal"));
  EXPECT_FALSE(IsStopword(""));
}

TEST(TokenizeTest, FoldsSplitsAndStems) {
  auto tokens = Tokenize("The Regulation of Coal Mining in West Virginia");
  // "the"/"of"/"in" dropped; remaining words stemmed and lowercased.
  std::vector<std::string> expected = {
      PorterStem("regulation"), "coal", PorterStem("mining"),
      "west",                   "virginia"};
  EXPECT_EQ(tokens, expected);
}

TEST(TokenizeTest, NumbersAreStandaloneTokens) {
  auto tokens = Tokenize("Act of 1977 Amendments");
  EXPECT_EQ(tokens, (std::vector<std::string>{"act", "1977",
                                              PorterStem("amendments")}));
}

TEST(TokenizeTest, PunctuationSeparates) {
  auto tokens = Tokenize("employer-employee relationship");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], PorterStem("employer"));
  EXPECT_EQ(tokens[1], PorterStem("employee"));
}

TEST(TokenizeTest, AccentedTitles) {
  auto tokens = Tokenize("Décisions Économiques");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].substr(0, 5), "decis");
}

TEST(TokenizeTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("—–!!!").empty());
}

}  // namespace
}  // namespace authidx::text
