#include "authidx/format/typeset.h"

#include <algorithm>

#include "authidx/common/strings.h"

namespace authidx::format {
namespace {

// Pads or truncates `s` to exactly `width` display columns.
std::string PadTo(std::string_view s, size_t width) {
  std::string out(s.substr(0, width));
  out.append(width - out.size(), ' ');
  return out;
}

std::string Centered(std::string_view s, size_t width) {
  if (s.size() >= width) {
    return std::string(s);
  }
  size_t left = (width - s.size()) / 2;
  std::string out(left, ' ');
  out += s;
  return out;
}

}  // namespace

std::vector<std::string> WrapText(std::string_view text, size_t width) {
  std::vector<std::string> lines;
  if (width == 0) {
    lines.emplace_back(text);
    return lines;
  }
  std::string current;
  for (std::string_view word : SplitString(text, ' ')) {
    if (word.empty()) {
      continue;
    }
    // Hard-break words that cannot fit on any line.
    while (word.size() > width) {
      if (!current.empty()) {
        lines.push_back(std::move(current));
        current.clear();
      }
      lines.emplace_back(word.substr(0, width));
      word.remove_prefix(width);
    }
    if (current.empty()) {
      current = word;
    } else if (current.size() + 1 + word.size() <= width) {
      current += ' ';
      current += word;
    } else {
      lines.push_back(std::move(current));
      current = word;
    }
  }
  if (!current.empty()) {
    lines.push_back(std::move(current));
  }
  if (lines.empty()) {
    lines.emplace_back("");
  }
  return lines;
}

std::vector<Page> TypesetAuthorIndex(const core::AuthorIndex& catalog,
                                     const TypesetOptions& options) {
  const size_t total_width = options.author_width + options.gutter +
                             options.title_width + options.gutter +
                             options.citation_width;

  // Render each entry into body lines first, then paginate. A row never
  // splits across pages (widow/orphan control), matching the source.
  struct Row {
    std::vector<std::string> lines;
  };
  std::vector<Row> rows;
  for (const core::AuthorIndex::Group& group : catalog.GroupsInOrder()) {
    for (EntryId id : group.entries) {
      const Entry* entry = catalog.GetEntry(id);
      Row row;
      std::vector<std::string> author_lines =
          WrapText(entry->author.ToIndexForm(), options.author_width);
      std::vector<std::string> title_lines =
          WrapText(entry->title, options.title_width);
      std::string citation = entry->citation.ToString();
      size_t height = std::max(author_lines.size(), title_lines.size());
      for (size_t i = 0; i < height; ++i) {
        std::string line =
            PadTo(i < author_lines.size() ? author_lines[i] : "",
                  options.author_width);
        line.append(options.gutter, ' ');
        line += PadTo(i < title_lines.size() ? title_lines[i] : "",
                      options.title_width);
        line.append(options.gutter, ' ');
        line += (i == 0) ? citation : "";
        // Trim trailing spaces for byte-stable output.
        while (!line.empty() && line.back() == ' ') {
          line.pop_back();
        }
        row.lines.push_back(std::move(line));
      }
      rows.push_back(std::move(row));
    }
  }

  std::vector<Page> pages;
  size_t page_number = options.first_page_number;
  size_t row_idx = 0;
  while (row_idx < rows.size() || pages.empty()) {
    Page page;
    page.number = page_number;
    std::string& text = page.text;
    text += Centered(options.heading, total_width);
    text += '\n';
    std::string header = PadTo(options.author_col, options.author_width);
    header.append(options.gutter, ' ');
    header += PadTo(options.article_col, options.title_width);
    header.append(options.gutter, ' ');
    header += options.citation_col;
    text += header;
    text += '\n';
    text.append(total_width, '-');
    text += '\n';
    size_t used = 0;
    while (row_idx < rows.size()) {
      const Row& row = rows[row_idx];
      if (used + row.lines.size() > options.lines_per_page &&
          used > 0) {
        break;  // Push whole row to the next page.
      }
      for (const std::string& line : row.lines) {
        text += line;
        text += '\n';
        ++used;
      }
      ++row_idx;
      if (used >= options.lines_per_page) {
        break;
      }
    }
    if (!options.footer_left.empty() || !options.footer_right.empty()) {
      // Alternating book-style footer.
      bool even = (page_number % 2) == 0;
      text += even ? options.footer_left : options.footer_right;
      text += '\n';
    }
    text += Centered(StringPrintf("%zu", page_number), total_width);
    text += '\n';
    pages.push_back(std::move(page));
    ++page_number;
    if (rows.empty()) {
      break;
    }
  }
  return pages;
}

}  // namespace authidx::format
