// The storage layer in isolation: the shared record codec, the
// filesystem helpers, and the WAL's crash-damage handling — torn
// tails, CRC corruption, truncated length headers — as table tests
// over systematically damaged byte streams.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "storage/durability.h"
#include "storage/fs.h"
#include "storage/record_codec.h"
#include "storage/wal.h"

namespace metacomm::storage {
namespace {

// ---------------------------------------------------------------------
// RecordCodec

TEST(RecordCodecTest, RoundTripsPayloads) {
  for (const std::string& payload :
       {std::string(""), std::string("x"),
        std::string("line one\nline two\n"),
        std::string("\0binary\xff\x01", 9), std::string(100000, 'z')}) {
    std::string framed = EncodeRecord(payload);
    DecodedRecord decoded = DecodeRecord(framed, 1u << 20);
    ASSERT_EQ(decoded.kind, DecodedRecord::Kind::kRecord)
        << decoded.error;
    EXPECT_EQ(decoded.payload, payload);
    EXPECT_EQ(decoded.consumed, framed.size());
  }
}

TEST(RecordCodecTest, DecodesBackToBackRecords) {
  std::string buffer = EncodeRecord("first") + EncodeRecord("second");
  DecodedRecord first = DecodeRecord(buffer, 1u << 20);
  ASSERT_EQ(first.kind, DecodedRecord::Kind::kRecord);
  EXPECT_EQ(first.payload, "first");
  DecodedRecord second = DecodeRecord(
      std::string_view(buffer).substr(first.consumed), 1u << 20);
  ASSERT_EQ(second.kind, DecodedRecord::Kind::kRecord);
  EXPECT_EQ(second.payload, "second");
}

TEST(RecordCodecTest, DamageTable) {
  const std::string good = EncodeRecord("the payload");
  struct Case {
    const char* name;
    std::string bytes;
    DecodedRecord::Kind want;
  };
  std::vector<Case> cases;
  // Every proper prefix of a valid record is a torn tail, not
  // corruption — the decoder must ask for more rather than condemn.
  for (size_t cut : {size_t{1}, good.size() / 2, good.size() - 1}) {
    cases.push_back({"torn tail", good.substr(0, cut),
                     DecodedRecord::Kind::kNeedMore});
  }
  {
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x20;  // Flip a payload bit: CRC mismatch.
    cases.push_back({"payload bit flip", std::move(bad),
                     DecodedRecord::Kind::kCorrupt});
  }
  {
    std::string bad = good;
    bad[bad.size() - 2] = 'X';  // Damage the CRC field itself.
    cases.push_back({"crc field damage", std::move(bad),
                     DecodedRecord::Kind::kCorrupt});
  }
  {
    std::string bad = good;
    bad.back() = 'x';  // Terminator replaced: framing violation.
    cases.push_back({"missing terminator", std::move(bad),
                     DecodedRecord::Kind::kCorrupt});
  }
  cases.push_back({"non-numeric length", "abc\nwhatever",
                   DecodedRecord::Kind::kCorrupt});
  cases.push_back({"absurd length header", "999999999\nx",
                   DecodedRecord::Kind::kCorrupt});
  for (const Case& c : cases) {
    DecodedRecord decoded = DecodeRecord(c.bytes, 1u << 20);
    EXPECT_EQ(decoded.kind, c.want)
        << c.name << ": " << decoded.error;
  }
}

TEST(RecordCodecTest, EscapeTokenRoundTrips) {
  for (const std::string& raw :
       {std::string("plain"), std::string("a=b,c d\ne\rf%g"),
        std::string("%%%"), std::string("")}) {
    auto back = UnescapeToken(EscapeToken(raw));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, raw);
    // Escaped form must be free of structural metacharacters.
    std::string escaped = EscapeToken(raw);
    EXPECT_EQ(escaped.find_first_of("=, \n\r"), std::string::npos);
  }
}

TEST(RecordCodecTest, RecordImageRoundTrips) {
  lexpress::Record record("ldap");
  record.SetOne("cn", "John Doe");
  record.Set("telephoneNumber",
             lexpress::Value{"+1 908 582 4567", "+1 908 582 9999"});
  record.SetOne("roomNumber", "2B-404, annex=east");
  std::vector<std::string> lines = EncodeRecordImage(record);
  lexpress::Record back;
  ASSERT_TRUE(DecodeRecordImage(lines, "ldap", &back).ok());
  EXPECT_EQ(back.schema(), "ldap");
  EXPECT_EQ(back.Get("cn"), record.Get("cn"));
  EXPECT_EQ(back.Get("telephoneNumber"),
            record.Get("telephoneNumber"));
  EXPECT_EQ(back.Get("roomNumber"), record.Get("roomNumber"));
}

// ---------------------------------------------------------------------
// fs helpers

class FsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/metacomm_fs_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(MakeDirs(dir_).ok());
    auto leftover = ListDir(dir_);
    ASSERT_TRUE(leftover.ok());
    for (const std::string& name : *leftover) {
      ASSERT_TRUE(RemoveFile(dir_ + "/" + name).ok());
    }
  }
  std::string dir_;
};

TEST_F(FsTest, WriteReadRoundTrip) {
  ASSERT_TRUE(WriteFileDurable(dir_ + "/f", "hello\0world").ok());
  auto read = ReadFileToString(dir_ + "/f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, "hello");  // C-string literal stops at NUL...
  ASSERT_TRUE(
      WriteFileDurable(dir_ + "/g", std::string("a\0b", 3)).ok());
  read = ReadFileToString(dir_ + "/g");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::string("a\0b", 3));  // ...but std::string doesn't.
}

TEST_F(FsTest, MissingFileIsNotFound) {
  EXPECT_EQ(ReadFileToString(dir_ + "/absent").status().code(),
            StatusCode::kNotFound);
}

TEST_F(FsTest, ListAndRemove) {
  ASSERT_TRUE(WriteFileDurable(dir_ + "/one", "1").ok());
  ASSERT_TRUE(WriteFileDurable(dir_ + "/two", "2").ok());
  auto names = ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 2u);
  ASSERT_TRUE(RemoveFile(dir_ + "/one").ok());
  names = ListDir(dir_);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names->size(), 1u);
}

// ---------------------------------------------------------------------
// Wal

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string(::testing::TempDir()) + "/metacomm_wal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(MakeDirs(dir_).ok());
    auto leftover = ListDir(dir_);
    ASSERT_TRUE(leftover.ok());
    for (const std::string& name : *leftover) {
      ASSERT_TRUE(RemoveFile(dir_ + "/" + name).ok());
    }
    config_.data_dir = dir_;
    config_.wal_fsync = FsyncPolicy::kOff;  // Tests survive the process.
  }

  std::vector<std::string> Replay(Wal* wal) {
    std::vector<std::string> payloads;
    Status replayed = wal->ReplayAll([&](std::string_view payload) {
      payloads.emplace_back(payload);
      return Status::Ok();
    });
    EXPECT_TRUE(replayed.ok()) << replayed;
    return payloads;
  }

  /// Path of the newest segment on disk.
  std::string NewestSegment() {
    auto names = ListDir(dir_);
    EXPECT_TRUE(names.ok());
    std::string newest;
    for (const std::string& name : *names) {
      if (name > newest) newest = name;
    }
    return dir_ + "/" + newest;
  }

  void AppendRaw(const std::string& path, const std::string& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
  }

  std::string dir_;
  DurabilityConfig config_;
};

TEST_F(WalTest, AppendReplayRoundTrip) {
  auto wal = Wal::Open(dir_, "wal", config_);
  ASSERT_TRUE(wal.ok()) << wal.status();
  for (const char* payload : {"one", "two", "three"}) {
    auto appended = (*wal)->Append(payload);
    ASSERT_TRUE(appended.ok());
    ASSERT_TRUE((*wal)->Sync(appended->lsn).ok());
  }
  EXPECT_EQ(Replay(wal->get()),
            (std::vector<std::string>{"one", "two", "three"}));
}

TEST_F(WalTest, LsnContinuesAcrossReopen) {
  {
    auto wal = Wal::Open(dir_, "wal", config_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("first").ok());
  }
  auto wal = Wal::Open(dir_, "wal", config_);
  ASSERT_TRUE(wal.ok());
  EXPECT_EQ((*wal)->open_stats().records, 1u);
  auto appended = (*wal)->Append("second");
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended->lsn, 2u);
  EXPECT_EQ(Replay(wal->get()),
            (std::vector<std::string>{"first", "second"}));
}

TEST_F(WalTest, TornTailIsTruncatedOnOpen) {
  {
    auto wal = Wal::Open(dir_, "wal", config_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("kept").ok());
  }
  // A crash mid-append leaves a prefix of a record at the tail.
  std::string torn = EncodeRecord("lost to the crash");
  torn.resize(torn.size() / 2);
  AppendRaw(NewestSegment(), torn);

  auto wal = Wal::Open(dir_, "wal", config_);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ((*wal)->open_stats().records, 1u);
  EXPECT_EQ((*wal)->open_stats().truncated_bytes, torn.size());
  // The log is fully usable after truncation: the torn bytes are gone
  // and a fresh append replays cleanly behind the survivor.
  ASSERT_TRUE((*wal)->Append("after").ok());
  EXPECT_EQ(Replay(wal->get()),
            (std::vector<std::string>{"kept", "after"}));
}

TEST_F(WalTest, MidSegmentCorruptionFailsOpen) {
  {
    auto wal = Wal::Open(dir_, "wal", config_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("aaaa").ok());
    ASSERT_TRUE((*wal)->Append("bbbb").ok());
  }
  // Flip a byte inside the FIRST record: damage followed by intact
  // records is real corruption, not a torn tail — refuse to open.
  std::string path = NewestSegment();
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[4] ^= 0x01;
  ASSERT_TRUE(WriteFileDurable(path, damaged).ok());

  auto wal = Wal::Open(dir_, "wal", config_);
  EXPECT_FALSE(wal.ok());
}

TEST_F(WalTest, RollAndDeleteSegments) {
  auto wal = Wal::Open(dir_, "wal", config_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->Append("old-1").ok());
  ASSERT_TRUE((*wal)->Append("old-2").ok());
  auto fresh = (*wal)->Roll();
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE((*wal)->Append("new-1").ok());

  auto deleted = (*wal)->DeleteSegmentsBefore(*fresh);
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  EXPECT_EQ(Replay(wal->get()), (std::vector<std::string>{"new-1"}));
  // LSNs keep counting across the deletion.
  auto appended = (*wal)->Append("new-2");
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(appended->lsn, 4u);
}

TEST_F(WalTest, TornTailInFreshSegmentAfterRoll) {
  {
    auto wal = Wal::Open(dir_, "wal", config_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append("segment-one").ok());
    ASSERT_TRUE((*wal)->Roll().ok());
    ASSERT_TRUE((*wal)->Append("segment-two").ok());
  }
  // The torn tail lands in the NEWEST segment; the older segment must
  // still validate end to end.
  AppendRaw(NewestSegment(), "17\nhalf of a reco");
  auto wal = Wal::Open(dir_, "wal", config_);
  ASSERT_TRUE(wal.ok()) << wal.status();
  EXPECT_EQ(Replay(wal->get()),
            (std::vector<std::string>{"segment-one", "segment-two"}));
}

TEST_F(WalTest, FailedRollFsyncDisablesTheLog) {
  config_.wal_fsync = FsyncPolicy::kBatch;
  auto wal = Wal::Open(dir_, "wal", config_);
  ASSERT_TRUE(wal.ok()) << wal.status();
  // Segment 2 is a FIFO, held open by a reader so the WAL's write open
  // succeeds; fsync on a FIFO fails (EINVAL).
  const std::string fifo = dir_ + "/wal-00000002.wal";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0644), 0);
  const int reader = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  ASSERT_TRUE((*wal)->Roll().ok());
  auto appended = (*wal)->Append("b");
  ASSERT_TRUE(appended.ok());
  // Rolling past the FIFO fsyncs it: the failure must not count "b"
  // as durable.
  EXPECT_FALSE((*wal)->Roll().ok());
  EXPECT_FALSE((*wal)->Sync(appended->lsn).ok());
  wal->reset();
  ::close(reader);
}

/// Shutdown's last fsync can fail too, and the records it should have
/// made durable may then be lost: the durability manager logs it.
TEST_F(WalTest, FailedFinalFsyncIsLoggedAtShutdown) {
  config_.wal_fsync = FsyncPolicy::kBatch;
  auto manager = DurabilityManager::Open(config_);
  ASSERT_TRUE(manager.ok()) << manager.status();
  // Segment 2 is a FIFO, held open by a reader so the WAL's write open
  // succeeds; fsync on a FIFO fails (EINVAL).
  const std::string fifo = dir_ + "/wal-00000002.wal";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0644), 0);
  const int reader = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(reader, 0);
  ASSERT_TRUE((*manager)->wal()->Roll().ok());
  ASSERT_TRUE((*manager)->wal()->Append("unsynced").ok());

  Logger& logger = Logger::Get();
  const LogLevel old_level = logger.min_level();
  std::vector<std::string> warnings;
  logger.set_sink([&warnings](LogLevel level, const std::string& message) {
    if (level >= LogLevel::kWarning) warnings.push_back(message);
  });
  logger.set_min_level(LogLevel::kWarning);
  manager->reset();
  logger.set_sink(nullptr);
  logger.set_min_level(old_level);
  ::close(reader);

  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("wal close failed"), std::string::npos)
      << warnings[0];
}

}  // namespace
}  // namespace metacomm::storage
