#include <gtest/gtest.h>

#include "authidx/model/record.h"
#include "authidx/model/serde.h"

namespace authidx {
namespace {

Entry MakeEntry() {
  Entry entry;
  entry.author = {"Arceneaux", "Webster J.", "III", false};
  entry.title =
      "Potential Criminal Liability in the Coal Fields Under the Clean "
      "Water Act: A Defense Perspective";
  entry.citation = {95, 691, 1993};
  entry.coauthors = {"Scott, Philip B.", "Bryant, S. Benjamin"};
  return entry;
}

TEST(RecordTest, ToIndexFormRendering) {
  AuthorName plain{"Minow", "Martha", "", false};
  EXPECT_EQ(plain.ToIndexForm(), "Minow, Martha");
  AuthorName student{"Abdalla", "Tarek F.", "", true};
  EXPECT_EQ(student.ToIndexForm(), "Abdalla, Tarek F.*");
  AuthorName suffixed{"Arceneaux", "Webster J.", "III", false};
  EXPECT_EQ(suffixed.ToIndexForm(), "Arceneaux, Webster J., III");
  AuthorName surname_only{"Cox", "", "", false};
  EXPECT_EQ(surname_only.ToIndexForm(), "Cox");
}

TEST(RecordTest, GroupKeyIgnoresStudentMarker) {
  AuthorName name{"Bean", "Ralph J.", "Jr.", true};
  // Group key excludes the student marker so one person groups together.
  AuthorName note = name;
  note.student_material = false;
  EXPECT_EQ(name.GroupKey(), note.GroupKey());
}

TEST(RecordTest, CitationToString) {
  EXPECT_EQ((Citation{95, 691, 1993}).ToString(), "95:691 (1993)");
  EXPECT_EQ((Citation{69, 1, 1966}).ToString(), "69:1 (1966)");
}

TEST(ValidateTest, AcceptsGoodEntry) {
  EXPECT_TRUE(ValidateEntry(MakeEntry()).ok());
}

TEST(ValidateTest, RejectsBadFields) {
  Entry e = MakeEntry();
  e.author.surname.clear();
  EXPECT_TRUE(ValidateEntry(e).IsInvalidArgument());

  e = MakeEntry();
  e.title.clear();
  EXPECT_TRUE(ValidateEntry(e).IsInvalidArgument());

  e = MakeEntry();
  e.citation.volume = 0;
  EXPECT_TRUE(ValidateEntry(e).IsInvalidArgument());

  e = MakeEntry();
  e.citation.page = 0;
  EXPECT_TRUE(ValidateEntry(e).IsInvalidArgument());

  e = MakeEntry();
  e.citation.year = 1200;
  EXPECT_TRUE(ValidateEntry(e).IsInvalidArgument());

  e = MakeEntry();
  e.citation.year = 3000;
  EXPECT_TRUE(ValidateEntry(e).IsInvalidArgument());
}

TEST(SerdeTest, RoundTripFull) {
  Entry entry = MakeEntry();
  std::string encoded = EncodeEntryToString(entry);
  Result<Entry> decoded = DecodeEntryExact(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, entry);
}

TEST(SerdeTest, RoundTripMinimalAndStudent) {
  Entry entry;
  entry.author = {"Cox", "", "", true};
  entry.title = "T";
  entry.citation = {94, 281, 1991};
  Result<Entry> decoded = DecodeEntryExact(EncodeEntryToString(entry));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, entry);
  EXPECT_TRUE(decoded->author.student_material);
}

TEST(SerdeTest, StreamOfEntriesDecodesSequentially) {
  Entry a = MakeEntry();
  Entry b = MakeEntry();
  b.author.surname = "Bailey";
  b.coauthors.clear();
  std::string buf;
  EncodeEntry(a, &buf);
  EncodeEntry(b, &buf);
  std::string_view input = buf;
  Result<Entry> first = DecodeEntry(&input);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, a);
  Result<Entry> second = DecodeEntry(&input);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, b);
  EXPECT_TRUE(input.empty());
}

TEST(SerdeTest, TruncationAtEveryPointIsCorruption) {
  std::string encoded = EncodeEntryToString(MakeEntry());
  for (size_t len = 0; len < encoded.size(); ++len) {
    Result<Entry> decoded =
        DecodeEntryExact(std::string_view(encoded).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "accepted truncation at " << len;
  }
}

TEST(SerdeTest, TrailingBytesRejectedByExact) {
  std::string encoded = EncodeEntryToString(MakeEntry());
  encoded += "junk";
  EXPECT_TRUE(DecodeEntryExact(encoded).status().IsCorruption());
}

TEST(SerdeTest, UnknownVersionRejected) {
  std::string encoded = EncodeEntryToString(MakeEntry());
  encoded[0] = 9;  // Version byte is first (small varint).
  EXPECT_TRUE(DecodeEntryExact(encoded).status().IsCorruption());
}

TEST(SerdeTest, BinarySafeTitle) {
  Entry entry = MakeEntry();
  entry.title = std::string("bin\0ary\xff title", 15);
  Result<Entry> decoded = DecodeEntryExact(EncodeEntryToString(entry));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->title, entry.title);
}

}  // namespace
}  // namespace authidx
