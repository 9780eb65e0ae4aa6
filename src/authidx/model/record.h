#ifndef AUTHIDX_MODEL_RECORD_H_
#define AUTHIDX_MODEL_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "authidx/common/status.h"

namespace authidx {

/// Stable identifier of an indexed entry, assigned densely at ingest in
/// insertion order. Doubles as the document id in postings lists.
using EntryId = uint32_t;

/// Sentinel for "no entry".
inline constexpr EntryId kInvalidEntryId = UINT32_MAX;

/// A personal name as printed in an author index:
/// "Arceneaux, Webster J., III*" -> surname "Arceneaux",
/// given "Webster J.", suffix "III", student_material true.
struct AuthorName {
  std::string surname;
  std::string given;   // Given names/initials, may be empty.
  std::string suffix;  // "Jr.", "Sr.", "II"..."IV"; empty if none.
  /// The source text marks student-written material with an asterisk.
  bool student_material = false;

  /// Renders in index form: "Surname, Given, Suffix*".
  std::string ToIndexForm() const;

  /// Key used for grouping and collation: "surname, given, suffix"
  /// (student marker excluded so the same person groups together).
  std::string GroupKey() const;

  friend bool operator==(const AuthorName& a, const AuthorName& b) {
    return a.surname == b.surname && a.given == b.given &&
           a.suffix == b.suffix && a.student_material == b.student_material;
  }
};

/// A volume:first-page (year) citation, e.g. "95:691 (1993)".
struct Citation {
  uint32_t volume = 0;
  uint32_t page = 0;
  uint32_t year = 0;

  /// Renders as "95:691 (1993)".
  std::string ToString() const;

  friend bool operator==(const Citation&, const Citation&) = default;
  friend auto operator<=>(const Citation&, const Citation&) = default;
};

/// One line of the author index: an author, an article title, and where
/// it appeared. Articles with k coauthors contribute k entries (one per
/// author), exactly as in the printed index; `coauthors` preserves the
/// full byline for cross-referencing.
struct Entry {
  AuthorName author;
  std::string title;
  Citation citation;
  /// Other authors of the same article (index form, without asterisk).
  std::vector<std::string> coauthors;

  friend bool operator==(const Entry&, const Entry&) = default;
};

/// Checks structural invariants (non-empty surname and title, plausible
/// volume/page/year ranges). Returns InvalidArgument describing the first
/// violation.
Status ValidateEntry(const Entry& entry);

}  // namespace authidx

#endif  // AUTHIDX_MODEL_RECORD_H_
