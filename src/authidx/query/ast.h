#ifndef AUTHIDX_QUERY_AST_H_
#define AUTHIDX_QUERY_AST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace authidx::query {

/// Inclusive numeric range filter.
struct NumRange {
  uint32_t lo = 0;
  uint32_t hi = UINT32_MAX;

  bool Contains(uint32_t v) const { return v >= lo && v <= hi; }

  friend bool operator==(const NumRange&, const NumRange&) = default;
};

/// How results are ordered.
enum class RankMode {
  /// Printed-index order: author collation key, then volume, then page.
  kCollation,
  /// BM25 relevance over the title terms (falls back to collation when
  /// the query has no title terms).
  kRelevance,
};

/// A parsed structured query. Produced by ParseQuery from strings like:
///
///   author:mcginley title:"surface mining" year:1976..1985 -tax
///   author:sm* vol:82 student:yes order:relevance limit:20
///   author~jonson
///
/// Semantics:
///  * at most one of author_exact / author_prefix / author_fuzzy;
///  * title terms are conjunctive (AND); a quoted phrase contributes its
///    tokens (the index is not positional, documented limitation);
///  * `-term` excludes entries whose title contains the term.
struct Query {
  std::optional<std::string> author_exact;
  std::optional<std::string> author_prefix;
  std::optional<std::string> author_fuzzy;
  /// Analyzed (folded/stemmed) title terms, conjunctive.
  std::vector<std::string> title_terms;
  /// Analyzed excluded terms.
  std::vector<std::string> not_terms;
  /// Folded substring that must appear in some coauthor name
  /// (cross-reference filter: "who wrote with X?").
  std::optional<std::string> coauthor;
  std::optional<NumRange> year;
  std::optional<NumRange> volume;
  /// Filter on the student-material asterisk.
  std::optional<bool> student;
  RankMode rank = RankMode::kCollation;
  size_t offset = 0;
  size_t limit = 100;

  /// Fuzzy match budget (edit distance) for author_fuzzy.
  size_t fuzzy_max_edits = 2;

  /// True when nothing constrains the candidate set (pure scan).
  bool IsUnconstrained() const {
    return !author_exact && !author_prefix && !author_fuzzy &&
           title_terms.empty();
  }

  /// Debug rendering (stable; used in tests and the slow-query log).
  /// Not injective, so never a key: core::ResultCache::KeyFor is.
  std::string ToString() const;

  friend bool operator==(const Query&, const Query&) = default;
};

}  // namespace authidx::query

#endif  // AUTHIDX_QUERY_AST_H_
