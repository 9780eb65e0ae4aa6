#include "authidx/text/distance.h"

#include <algorithm>
#include <vector>

namespace authidx::text {

size_t Levenshtein(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) {
    std::swap(a, b);  // b is the shorter: row length = |b|+1.
  }
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) {
    row[j] = j;
  }
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];  // D[i-1][0]
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t above = row[j];  // D[i-1][j]
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, diag + cost});
      diag = above;
    }
  }
  return row[b.size()];
}

size_t BoundedLevenshtein(std::string_view a, std::string_view b,
                          size_t max_dist) {
  if (a.size() < b.size()) {
    std::swap(a, b);
  }
  // Length difference is a lower bound on the distance.
  if (a.size() - b.size() > max_dist) {
    return max_dist + 1;
  }
  const size_t kBig = max_dist + 1;
  std::vector<size_t> row(b.size() + 1, kBig);
  for (size_t j = 0; j <= std::min(b.size(), max_dist); ++j) {
    row[j] = j;
  }
  for (size_t i = 1; i <= a.size(); ++i) {
    // Only columns within the band |i - j| <= max_dist can stay <= max.
    size_t lo = (i > max_dist) ? i - max_dist : 0;
    size_t hi = std::min(b.size(), i + max_dist);
    size_t diag = (lo == 0) ? row[0] : row[lo - 1];
    size_t row_min = kBig;
    if (lo == 0) {
      row[0] = i <= max_dist ? i : kBig;
      row_min = row[0];
    } else {
      // Left neighbor of the first in-band column is out of band.
      row[lo - 1] = kBig;
    }
    for (size_t j = std::max<size_t>(lo, 1); j <= hi; ++j) {
      size_t above = row[j];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t best = diag + cost;
      if (above + 1 < best) best = above + 1;
      if (row[j - 1] + 1 < best) best = row[j - 1] + 1;
      row[j] = best > kBig ? kBig : best;
      row_min = std::min(row_min, row[j]);
      diag = above;
    }
    if (hi < b.size()) {
      row[hi + 1] = kBig;  // Invalidate stale value right of the band.
    }
    if (row_min > max_dist) {
      return max_dist + 1;  // Whole band exceeded: early exit.
    }
  }
  return std::min(row[b.size()], kBig);
}

bool WithinEditDistance(std::string_view a, std::string_view b,
                        size_t max_dist) {
  return BoundedLevenshtein(a, b, max_dist) <= max_dist;
}

double JaroWinkler(std::string_view a, std::string_view b) {
  if (a == b) {
    return 1.0;
  }
  if (a.empty() || b.empty()) {
    return 0.0;
  }
  size_t window = std::max(a.size(), b.size()) / 2;
  if (window > 0) {
    --window;
  }
  std::vector<bool> a_match(a.size(), false), b_match(b.size(), false);
  size_t matches = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    size_t lo = (i > window) ? i - window : 0;
    size_t hi = std::min(b.size(), i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (!b_match[j] && a[i] == b[j]) {
        a_match[i] = b_match[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) {
    return 0.0;
  }
  // Count transpositions among matched characters.
  size_t transpositions = 0;
  size_t j = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a_match[i]) continue;
    while (!b_match[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  double m = static_cast<double>(matches);
  double jaro = (m / static_cast<double>(a.size()) +
                 m / static_cast<double>(b.size()) +
                 (m - static_cast<double>(transpositions) / 2.0) / m) /
                3.0;
  // Winkler prefix boost: up to 4 shared leading characters.
  size_t prefix = 0;
  for (size_t i = 0; i < std::min({a.size(), b.size(), size_t{4}}); ++i) {
    if (a[i] == b[i]) {
      ++prefix;
    } else {
      break;
    }
  }
  return jaro + static_cast<double>(prefix) * 0.1 * (1.0 - jaro);
}

}  // namespace authidx::text
