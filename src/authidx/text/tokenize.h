#ifndef AUTHIDX_TEXT_TOKENIZE_H_
#define AUTHIDX_TEXT_TOKENIZE_H_

#include <string>
#include <string_view>
#include <vector>

namespace authidx::text {

/// Splits `utf8` into normalized word tokens: case/accent folded,
/// punctuation-separated, English stopwords ("the", "of", ...) dropped,
/// words Porter-stemmed, digit runs kept as standalone tokens. This is
/// the one analyzer for title text: the inverted index and the query
/// parser both call it, so indexed and queried terms always agree.
std::vector<std::string> Tokenize(std::string_view utf8);

/// True if the (already folded) word is an English stopword.
bool IsStopword(std::string_view folded_word);

}  // namespace authidx::text

#endif  // AUTHIDX_TEXT_TOKENIZE_H_
