#include "authidx/format/typeset.h"

#include <gtest/gtest.h>

#include "authidx/parse/tsv.h"
#include "authidx/workload/sample_data.h"

namespace authidx::format {
namespace {

TEST(WrapTextTest, BasicWrapping) {
  auto lines = WrapText("one two three four", 9);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one two");
  EXPECT_EQ(lines[1], "three");
  EXPECT_EQ(lines[2], "four");
  for (const auto& line : lines) {
    EXPECT_LE(line.size(), 9u);
  }
}

TEST(WrapTextTest, NoWrapNeeded) {
  auto lines = WrapText("short", 20);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "short");
}

TEST(WrapTextTest, LongWordHardBroken) {
  auto lines = WrapText("anextraordinarilylongword ok", 10);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "anextraord");
  EXPECT_EQ(lines[1], "inarilylon");
  for (const auto& line : lines) {
    EXPECT_LE(line.size(), 10u);
  }
}

TEST(WrapTextTest, EmptyInputYieldsOneEmptyLine) {
  auto lines = WrapText("", 10);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "");
  lines = WrapText("   ", 10);
  ASSERT_EQ(lines.size(), 1u);
}

TEST(WrapTextTest, EveryLineFitsProperty) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "word" + std::to_string(i) + " ";
  }
  for (size_t width : {5, 8, 13, 30, 80}) {
    for (const auto& line : WrapText(text, width)) {
      EXPECT_LE(line.size(), width);
      EXPECT_FALSE(line.empty());
    }
  }
}

std::unique_ptr<core::AuthorIndex> SampleCatalog() {
  auto entries = authidx::workload::LoadSampleEntries();
  EXPECT_TRUE(entries.ok());
  auto catalog = core::AuthorIndex::Create();
  EXPECT_TRUE(catalog->AddAll(std::move(entries).value()).ok());
  return catalog;
}

// Every page's text, joined with form feeds (the CLI prints the pages
// one after another the same way).
std::string TypesetAll(const core::AuthorIndex& catalog) {
  std::string out;
  for (const Page& page : TypesetAuthorIndex(catalog)) {
    out += page.text;
    out += '\f';
  }
  return out;
}

TEST(TypesetTest, PagesCarryHeadersAndNumbers) {
  auto catalog = SampleCatalog();
  TypesetOptions options;
  auto pages = TypesetAuthorIndex(*catalog, options);
  ASSERT_GT(pages.size(), 1u);
  for (size_t i = 0; i < pages.size(); ++i) {
    EXPECT_EQ(pages[i].number, options.first_page_number + i);
    EXPECT_NE(pages[i].text.find("AUTHOR INDEX"), std::string::npos);
    EXPECT_NE(pages[i].text.find("AUTHOR"), std::string::npos);
    EXPECT_NE(pages[i].text.find("ARTICLE"), std::string::npos);
    EXPECT_NE(pages[i].text.find("W. VA. L. REV."), std::string::npos);
    EXPECT_NE(pages[i].text.find(std::to_string(pages[i].number)),
              std::string::npos);
  }
}

TEST(TypesetTest, FirstEntriesInPrintedOrderWithMarkers) {
  auto catalog = SampleCatalog();
  auto pages = TypesetAuthorIndex(*catalog);
  const std::string& first_page = pages[0].text;
  size_t abdalla = first_page.find("Abdalla, Tarek F.*");
  size_t abramovsky = first_page.find("Abramovsky, Deborah");
  size_t abrams = first_page.find("Abrams, Dennis M.");
  ASSERT_NE(abdalla, std::string::npos);
  ASSERT_NE(abramovsky, std::string::npos);
  ASSERT_NE(abrams, std::string::npos);
  EXPECT_LT(abdalla, abramovsky);
  EXPECT_LT(abramovsky, abrams);
  // Citations appear in the layout.
  EXPECT_NE(first_page.find("91:973 (1989)"), std::string::npos);
}

TEST(TypesetTest, RepeatedAuthorsGetOneRowPerArticle) {
  auto catalog = SampleCatalog();
  std::string all = TypesetAll(*catalog);
  // Cady, Thomas C. has three articles in the sample: three rows.
  size_t count = 0;
  size_t pos = 0;
  while ((pos = all.find("Cady, Thomas C.", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_EQ(count, 3u);
}

TEST(TypesetTest, LinesRespectTotalWidth) {
  auto catalog = SampleCatalog();
  TypesetOptions options;
  size_t total = options.author_width + options.gutter + options.title_width +
                 options.gutter + options.citation_width;
  for (const Page& page : TypesetAuthorIndex(*catalog, options)) {
    size_t start = 0;
    while (start < page.text.size()) {
      size_t end = page.text.find('\n', start);
      if (end == std::string::npos) {
        end = page.text.size();
      }
      EXPECT_LE(end - start, total + 2) << page.text.substr(start, end - start);
      start = end + 1;
    }
  }
}

TEST(TypesetTest, RowsNeverSplitAcrossPages) {
  auto catalog = SampleCatalog();
  TypesetOptions options;
  options.lines_per_page = 10;  // Tiny pages force many boundaries.
  auto pages = TypesetAuthorIndex(*catalog, options);
  ASSERT_GT(pages.size(), 3u);
  // Every citation (row start) must appear on the same page as its
  // author cell: scan for a citation on each page and confirm the line
  // containing it also has non-space content in the author column.
  for (const Page& page : pages) {
    size_t cite = page.text.find(" (19");
    if (cite == std::string::npos) {
      continue;
    }
    size_t line_start = page.text.rfind('\n', cite);
    line_start = (line_start == std::string::npos) ? 0 : line_start + 1;
    std::string line = page.text.substr(line_start, cite - line_start);
    EXPECT_NE(line.find_first_not_of(' '), std::string::npos);
  }
}

TEST(TypesetTest, EmptyCatalogProducesOneHeaderPage) {
  auto catalog = core::AuthorIndex::Create();
  auto pages = TypesetAuthorIndex(*catalog);
  ASSERT_EQ(pages.size(), 1u);
  EXPECT_NE(pages[0].text.find("AUTHOR INDEX"), std::string::npos);
}

TEST(TypesetTest, CustomHeadingAndFooters) {
  auto catalog = SampleCatalog();
  TypesetOptions options;
  options.heading = "PROCEEDINGS AUTHOR INDEX";
  options.footer_left = "[Vol. 95:1365";
  options.footer_right = "1993]";
  options.first_page_number = 1366;  // Even page: left footer.
  auto pages = TypesetAuthorIndex(*catalog, options);
  EXPECT_NE(pages[0].text.find("PROCEEDINGS AUTHOR INDEX"),
            std::string::npos);
  EXPECT_NE(pages[0].text.find("[Vol. 95:1365"), std::string::npos);
  ASSERT_GT(pages.size(), 1u);
  EXPECT_NE(pages[1].text.find("1993]"), std::string::npos);
}

TEST(TypesetTest, DeterministicOutput) {
  auto catalog = SampleCatalog();
  EXPECT_EQ(TypesetAll(*catalog), TypesetAll(*catalog));
}

}  // namespace
}  // namespace authidx::format
