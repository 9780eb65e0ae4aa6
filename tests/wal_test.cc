#include "authidx/storage/wal.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "authidx/common/coding.h"

namespace authidx::storage {
namespace {

using Puts = std::vector<std::pair<std::string, std::string>>;

std::string PutRecord(std::string_view key, std::string_view value) {
  std::string record(1, kWalPut);
  PutLengthPrefixed(&record, key);
  PutLengthPrefixed(&record, value);
  return record;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/wal_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = WalFileName(dir_, 1);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  void Write(const std::vector<std::string>& records) {
    auto writer = WalWriter::Open(Env::Default(), path_);
    ASSERT_TRUE(writer.ok());
    for (const std::string& record : records) {
      ASSERT_TRUE((*writer)->Append(record).ok());
    }
    ASSERT_TRUE((*writer)->Sync().ok());
    ASSERT_TRUE((*writer)->Close().ok());
  }

  // Decoding scan of the whole segment; the puts land in `*puts`.
  WalScan Scan(Puts* puts, uint64_t limit = UINT64_MAX) {
    WalOpSink sink = [puts](std::string_view key, std::string_view value) {
      puts->emplace_back(std::string(key), std::string(value));
      return Status::OK();
    };
    Result<WalScan> scan = ScanSegment(Env::Default(), path_, limit, &sink);
    EXPECT_TRUE(scan.ok()) << scan.status();
    return scan.ok() ? *scan : WalScan{};
  }

  void Truncate(uint64_t size) { std::filesystem::resize_file(path_, size); }

  std::string dir_;
  std::string path_;
};

TEST_F(WalTest, AppendAndScan) {
  Write({PutRecord("k1", "first"), PutRecord("k2", "second record"),
         PutRecord("", "")});
  Puts puts;
  WalScan scan = Scan(&puts);
  EXPECT_EQ(puts, (Puts{{"k1", "first"}, {"k2", "second record"}, {"", ""}}));
  EXPECT_FALSE(scan.damaged);
  EXPECT_EQ(scan.records, 3u);
  EXPECT_EQ(scan.bytes, std::filesystem::file_size(path_));
  EXPECT_EQ(WalFileName("d", 12), "d/000012.wal");
}

TEST_F(WalTest, FramingAcceptsAnyPayloadDecodingDoesNot) {
  Write({"not an op", ""});
  // Framing-only scans check CRCs and lengths, nothing else.
  Result<WalScan> scan =
      ScanSegment(Env::Default(), path_, UINT64_MAX, nullptr);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(scan->records, 2u);
  EXPECT_FALSE(scan->damaged);
  // A decoding scan rejects a CRC-valid record that is not an op list.
  WalOpSink sink = [](std::string_view, std::string_view) {
    return Status::OK();
  };
  scan = ScanSegment(Env::Default(), path_, UINT64_MAX, &sink);
  EXPECT_TRUE(scan.status().IsCorruption()) << scan.status();
}

TEST_F(WalTest, BatchRecordsYieldEveryPut) {
  std::string batch(1, kWalBatch);
  batch += PutRecord("a", "1");
  batch += PutRecord("b", "2");
  Write({batch, std::string(1, kWalBatch)});  // An empty batch is legal.
  Puts puts;
  WalScan scan = Scan(&puts);
  EXPECT_EQ(puts, (Puts{{"a", "1"}, {"b", "2"}}));
  EXPECT_EQ(scan.records, 2u);
}

TEST_F(WalTest, BinaryPayloadsSurvive) {
  std::string binary;
  for (int i = 0; i < 256; ++i) {
    binary.push_back(static_cast<char>(i));
  }
  Write({PutRecord(binary, binary)});
  Puts puts;
  Scan(&puts);
  EXPECT_EQ(puts, (Puts{{binary, binary}}));
}

TEST_F(WalTest, TruncatedTailIsToleratedAndReported) {
  Write({PutRecord("1", "record one"), PutRecord("2", "record two")});
  const uint64_t bytes_after_two = std::filesystem::file_size(path_);
  Write({PutRecord("1", "record one"), PutRecord("2", "record two"),
         PutRecord("3", "record three (will be torn)")});
  // Tear the last record mid-payload, as a crash would.
  Truncate(bytes_after_two + 10);
  Puts puts;
  WalScan scan = Scan(&puts);
  ASSERT_EQ(puts.size(), 2u);
  EXPECT_EQ(puts[1].second, "record two");
  EXPECT_TRUE(scan.damaged);
  EXPECT_EQ(scan.records, 2u);
  EXPECT_EQ(scan.bytes, bytes_after_two);
}

TEST_F(WalTest, TruncationInsideHeaderIsTolerated) {
  Write({PutRecord("w", "whole"), PutRecord("t", "torn")});
  uint64_t full = std::filesystem::file_size(path_);
  const uint64_t torn_bytes = PutRecord("t", "torn").size();
  // Leaves 4 of the second record's 8-byte header.
  Truncate(full - torn_bytes - 4);
  Puts puts;
  WalScan scan = Scan(&puts);
  EXPECT_EQ(puts, (Puts{{"w", "whole"}}));
  EXPECT_TRUE(scan.damaged);
}

TEST_F(WalTest, BitFlipStopsTheScanAtTheDamage) {
  Write({PutRecord("a", "aaaaaaaaaa"), PutRecord("b", "bbbbbbbbbb")});
  // Flip one payload byte of the first record.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(kWalRecordHeaderBytes + 4);
    f.put('X');
  }
  Puts puts;
  WalScan scan = Scan(&puts);
  EXPECT_TRUE(puts.empty());  // Nothing before the damage.
  EXPECT_TRUE(scan.damaged);
  EXPECT_EQ(scan.bytes, 0u);
}

TEST_F(WalTest, LimitStopsTheScanWithoutDamage) {
  Write({PutRecord("1", "one"), PutRecord("2", "two")});
  const uint64_t first = kWalRecordHeaderBytes + PutRecord("1", "one").size();
  Puts puts;
  WalScan scan = Scan(&puts, first);
  EXPECT_EQ(puts, (Puts{{"1", "one"}}));
  EXPECT_FALSE(scan.damaged);
  EXPECT_EQ(scan.bytes, first);
}

TEST_F(WalTest, SinkErrorAbortsTheScan) {
  Write({PutRecord("1", "one"), PutRecord("2", "two")});
  int seen = 0;
  WalOpSink sink = [&](std::string_view, std::string_view) {
    ++seen;
    return Status::Corruption("sink says no");
  };
  Result<WalScan> scan = ScanSegment(Env::Default(), path_, UINT64_MAX, &sink);
  EXPECT_FALSE(scan.ok());
  EXPECT_EQ(seen, 1);
}

TEST_F(WalTest, MissingFileIsNotFound) {
  Result<WalScan> scan = ScanSegment(Env::Default(), dir_ + "/absent.wal",
                                     UINT64_MAX, nullptr);
  EXPECT_TRUE(scan.status().IsNotFound());
}

TEST_F(WalTest, EmptyFileScansZeroRecords) {
  Write({});
  Puts puts;
  WalScan scan = Scan(&puts);
  EXPECT_TRUE(puts.empty());
  EXPECT_FALSE(scan.damaged);
  EXPECT_EQ(scan.records, 0u);
}

}  // namespace
}  // namespace authidx::storage
