#include "authidx/text/tokenize.h"

#include <algorithm>
#include <array>

#include "authidx/text/normalize.h"
#include "authidx/text/stem.h"

namespace authidx::text {
namespace {

// Sorted so membership is a binary search over string_views; chosen from
// the classic Snowball list, restricted to words common in titles.
constexpr std::array<std::string_view, 42> kStopwords = {
    "a",    "an",   "and",  "are",  "as",   "at",   "be",   "but",
    "by",   "for",  "from", "has",  "have", "in",   "into", "is",
    "it",   "its",  "no",   "not",  "of",   "on",   "or",   "our",
    "over", "s",    "such", "that", "the",  "their", "then", "there",
    "these", "they", "this", "to",   "under", "was",  "were", "will",
    "with", "would",
};

static_assert(std::is_sorted(kStopwords.begin(), kStopwords.end()));

}  // namespace

bool IsStopword(std::string_view folded_word) {
  return std::binary_search(kStopwords.begin(), kStopwords.end(),
                            folded_word);
}

std::vector<std::string> Tokenize(std::string_view utf8) {
  std::string folded = FoldCase(utf8);
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < folded.size()) {
    char c = folded[i];
    if ((c >= 'a' && c <= 'z') || IsAsciiDigit(c)) {
      size_t start = i;
      bool numeric = IsAsciiDigit(c);
      while (i < folded.size() &&
             (numeric ? IsAsciiDigit(folded[i])
                      : (folded[i] >= 'a' && folded[i] <= 'z'))) {
        ++i;
      }
      std::string token = folded.substr(start, i - start);
      if (numeric) {
        tokens.push_back(std::move(token));
      } else if (!IsStopword(token)) {
        tokens.push_back(PorterStem(token));
      }
    } else {
      ++i;
    }
  }
  return tokens;
}

}  // namespace authidx::text
