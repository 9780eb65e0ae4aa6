#include "authidx/storage/table.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

#include "authidx/common/strings.h"
#include "scan_util.h"

namespace authidx::storage {
namespace {

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/table_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/test.tbl";
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Builds a table file from sorted kvs and returns a reader.
  std::unique_ptr<TableReader> BuildAndOpen(
      const std::map<std::string, std::string>& kvs,
      TableBuilder::Options options = {}) {
    auto file = Env::Default()->NewWritableFile(path_);
    EXPECT_TRUE(file.ok());
    TableBuilder builder(options, file->get());
    for (const auto& [key, value] : kvs) {
      EXPECT_TRUE(builder.Add(key, value).ok());
    }
    EXPECT_TRUE(builder.Finish().ok());
    EXPECT_TRUE((*file)->Sync().ok());
    EXPECT_TRUE((*file)->Close().ok());
    auto reader = TableReader::Open(Env::Default(), path_);
    EXPECT_TRUE(reader.ok()) << reader.status();
    return std::move(reader).value();
  }

  std::map<std::string, std::string> ManyKvs(int n) {
    std::map<std::string, std::string> kvs;
    for (int i = 0; i < n; ++i) {
      kvs[StringPrintf("key%06d", i)] = StringPrintf("value-%d", i);
    }
    return kvs;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(TableTest, ScanAcrossManyBlocks) {
  TableBuilder::Options options;
  options.block_bytes = 512;  // Force many data blocks.
  auto kvs = ManyKvs(3000);
  auto reader = BuildAndOpen(kvs, options);
  auto state = tests::ScanToMap(*reader->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(*state, kvs);
}

TEST_F(TableTest, FullIterationInOrder) {
  TableBuilder::Options options;
  options.block_bytes = 256;
  auto kvs = ManyKvs(1500);
  auto reader = BuildAndOpen(kvs, options);
  auto it = reader->NewIterator();
  auto expected = kvs.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, kvs.end());
    ASSERT_EQ(it->key(), expected->first);
    ASSERT_EQ(it->value(), expected->second);
  }
  EXPECT_EQ(expected, kvs.end());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(TableTest, IteratorSeekAcrossBlockBoundaries) {
  TableBuilder::Options options;
  options.block_bytes = 128;
  auto kvs = ManyKvs(500);
  auto reader = BuildAndOpen(kvs, options);
  auto it = reader->NewIterator();
  for (int i = 0; i < 500; i += 61) {
    std::string key = StringPrintf("key%06d", i);
    it->Seek(key);
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), key);
  }
  it->Seek("key9");  // Past everything.
  EXPECT_FALSE(it->Valid());
  it->Seek("a");  // Before everything.
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "key000000");
}

TEST_F(TableTest, OutOfOrderAddRejected) {
  auto file = Env::Default()->NewWritableFile(path_);
  ASSERT_TRUE(file.ok());
  TableBuilder builder({}, file->get());
  ASSERT_TRUE(builder.Add("b", "1").ok());
  EXPECT_TRUE(builder.Add("a", "2").IsInvalidArgument());
  EXPECT_TRUE(builder.Add("b", "2").IsInvalidArgument());
}

TEST_F(TableTest, EmptyTableOpensAndIterates) {
  auto reader = BuildAndOpen({});
  auto it = reader->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  it->Seek("anything");
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(TableTest, CorruptedDataBlockDetected) {
  TableBuilder::Options options;
  options.block_bytes = 256;
  auto kvs = ManyKvs(500);
  BuildAndOpen(kvs, options);
  // Flip a byte early in the file (inside the first data block).
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char c;
    f.seekg(20);
    f.get(c);
    f.seekp(20);
    f.put(static_cast<char>(c ^ 0x40));
  }
  auto reader = TableReader::Open(Env::Default(), path_);
  ASSERT_TRUE(reader.ok());  // Footer/index are intact.
  // A scan touching the damaged block must report corruption, never
  // wrong data.
  auto state = tests::ScanToMap(*(*reader)->NewIterator());
  EXPECT_TRUE(state.status().IsCorruption()) << state.status();
}

TEST_F(TableTest, TruncatedFileRejectedAtOpen) {
  BuildAndOpen(ManyKvs(100));
  std::filesystem::resize_file(path_, 10);
  auto reader = TableReader::Open(Env::Default(), path_);
  EXPECT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status();
}

TEST_F(TableTest, BadMagicRejected) {
  BuildAndOpen(ManyKvs(10));
  uint64_t size = std::filesystem::file_size(path_);
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(size - 1));
    f.put('\0');
  }
  auto reader = TableReader::Open(Env::Default(), path_);
  EXPECT_TRUE(reader.status().IsCorruption());
}

// A table written by the first table format (a Bloom filter block and a
// 1-byte value tag; magic "authidx\n") holding the single entry
// "k" -> "Pv". The current reader has no code path for it: Open must
// refuse it as corrupt and name the file.
TEST_F(TableTest, FirstFormatTableRejectedAtOpenNamingTheFile) {
  static constexpr char kFirstFormatTable[] =
      "\x00\x01\x02\x6b\x50\x76\x00\x00\x00\x00\x01\x00\x00\x00\x52\xe8"
      "\x95\xb3\x1a\x07\x08\x01\x04\x10\x08\x20\x80\x00\x02\x52\x66\xcd"
      "\xbc\x45\x00\x01\x02\x6b\x00\x0e\x00\x00\x00\x00\x01\x00\x00\x00"
      "\x52\x7a\x11\x5e\x43\x13\x0a\x22\x0e\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x0a\x78\x64"
      "\x69\x68\x74\x75\x61";
  ASSERT_TRUE(Env::Default()
                  ->WriteStringToFileSync(
                      path_, std::string(kFirstFormatTable,
                                         sizeof(kFirstFormatTable) - 1))
                  .ok());
  ASSERT_EQ(std::filesystem::file_size(path_), 101u);
  auto reader = TableReader::Open(Env::Default(), path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsCorruption()) << reader.status();
  EXPECT_NE(reader.status().message().find(path_), std::string::npos)
      << reader.status();
}

TEST_F(TableTest, LargeValuesRoundTrip) {
  std::map<std::string, std::string> kvs;
  kvs["big1"] = std::string(100000, 'x');
  kvs["big2"] = std::string(50000, 'y');
  kvs["small"] = "s";
  auto reader = BuildAndOpen(kvs);
  auto state = tests::ScanToMap(*reader->NewIterator());
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ((*state)["big1"].size(), 100000u);
  EXPECT_EQ((*state)["small"], "s");
}

}  // namespace
}  // namespace authidx::storage
