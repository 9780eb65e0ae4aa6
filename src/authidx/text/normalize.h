#ifndef AUTHIDX_TEXT_NORMALIZE_H_
#define AUTHIDX_TEXT_NORMALIZE_H_

#include <string>
#include <string_view>

namespace authidx::text {

/// Text normalization used before indexing and collation.
///
/// The engine operates on UTF-8 but only folds the ranges that occur in
/// bibliographic front matter: ASCII plus the Latin-1 Supplement and
/// Latin Extended-A blocks (accented European names). Anything else is
/// passed through unchanged.

/// Lowercases ASCII and folds Latin-1/Extended-A letters to their
/// unaccented lowercase ASCII base (e.g. "É" -> "e", "ø" -> "o",
/// "Š" -> "s"). Invalid UTF-8 bytes are copied verbatim.
std::string FoldCase(std::string_view utf8);

/// FoldCase plus: collapses runs of whitespace to single spaces and trims.
std::string NormalizeForIndex(std::string_view utf8);

/// True if `c` is an ASCII letter.
inline bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/// True if `c` is an ASCII digit.
inline bool IsAsciiDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace authidx::text

#endif  // AUTHIDX_TEXT_NORMALIZE_H_
