#ifndef AUTHIDX_FORMAT_TYPESET_H_
#define AUTHIDX_FORMAT_TYPESET_H_

#include <string>
#include <string_view>
#include <vector>

#include "authidx/core/author_index.h"

namespace authidx::format {

/// Layout parameters for the printed author index. Defaults mirror the
/// source document: a three-column table (AUTHOR | ARTICLE | citation),
/// titles wrapped inside their column, student material marked with an
/// asterisk on the author, continuation headers on every page.
struct TypesetOptions {
  size_t author_width = 26;
  size_t title_width = 36;
  size_t citation_width = 14;
  size_t gutter = 2;           // Spaces between columns.
  size_t lines_per_page = 48;  // Body lines (excluding header/footer).
  size_t first_page_number = 1365;
  std::string heading = "AUTHOR INDEX";
  std::string author_col = "AUTHOR";
  std::string article_col = "ARTICLE";
  std::string citation_col = "W. VA. L. REV.";
  /// Footer like "[Vol. 95:1365" on even pages, "1993]" on odd ones;
  /// empty strings suppress the footer.
  std::string footer_left = "";
  std::string footer_right = "";
};

/// Greedy word-wraps `text` to `width` columns. Words longer than the
/// width are hard-broken. Never returns an empty vector.
std::vector<std::string> WrapText(std::string_view text, size_t width);

/// One typeset page.
struct Page {
  size_t number = 0;
  std::string text;
};

/// Typesets the whole catalog into pages in printed-index order.
std::vector<Page> TypesetAuthorIndex(const core::AuthorIndex& catalog,
                                     const TypesetOptions& options = {});

}  // namespace authidx::format

#endif  // AUTHIDX_FORMAT_TYPESET_H_
