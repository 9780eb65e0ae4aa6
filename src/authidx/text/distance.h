#ifndef AUTHIDX_TEXT_DISTANCE_H_
#define AUTHIDX_TEXT_DISTANCE_H_

#include <cstddef>
#include <string_view>

namespace authidx::text {

/// Levenshtein edit distance (insert/delete/substitute, unit costs),
/// O(|a|*|b|) time, O(min(|a|,|b|)) space.
size_t Levenshtein(std::string_view a, std::string_view b);

/// Banded Levenshtein: returns the exact distance if it is <= max_dist,
/// otherwise returns max_dist + 1. Runs in O(max_dist * min(|a|,|b|)),
/// which is what makes fuzzy scans over large author dictionaries cheap.
size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_dist);

/// True iff Levenshtein(a, b) <= max_dist (early-exit wrapper).
bool WithinEditDistance(std::string_view a, std::string_view b,
                        size_t max_dist);

/// Jaro-Winkler similarity in [0, 1]; 1 means equal. Used to rank fuzzy
/// author-name candidates (favors shared prefixes, matching how readers
/// scan an author index).
double JaroWinkler(std::string_view a, std::string_view b);

}  // namespace authidx::text

#endif  // AUTHIDX_TEXT_DISTANCE_H_
