#include "queue/segment_file.h"

#include <cstring>

#include <gtest/gtest.h>

#include "common/random.h"

namespace amdj::queue {
namespace {

struct Record {
  double key;
  uint64_t payload;
};

TEST(SegmentFileTest, AppendReadAllRoundTrip) {
  storage::InMemoryDiskManager disk;
  SegmentFile seg(&disk, sizeof(Record), nullptr);
  std::vector<Record> written;
  for (int i = 0; i < 1000; ++i) {
    Record r{static_cast<double>(i) * 0.5, static_cast<uint64_t>(i)};
    ASSERT_TRUE(seg.Append(&r).ok());
    written.push_back(r);
  }
  EXPECT_EQ(seg.count(), 1000u);
  std::vector<char> bytes;
  ASSERT_TRUE(seg.ReadAll(&bytes).ok());
  ASSERT_EQ(bytes.size(), 1000 * sizeof(Record));
  std::vector<Record> read(1000);
  std::memcpy(read.data(), bytes.data(), bytes.size());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(read[i].key, written[i].key);
    EXPECT_EQ(read[i].payload, written[i].payload);
  }
}

TEST(SegmentFileTest, PartialBufferIsIncludedInReadAll) {
  storage::InMemoryDiskManager disk;
  SegmentFile seg(&disk, sizeof(Record), nullptr);
  Record r{1.0, 42};
  ASSERT_TRUE(seg.Append(&r).ok());  // stays in the write buffer
  EXPECT_EQ(disk.stats().page_writes, 0u);
  std::vector<char> bytes;
  ASSERT_TRUE(seg.ReadAll(&bytes).ok());
  ASSERT_EQ(bytes.size(), sizeof(Record));
  Record back;
  std::memcpy(&back, bytes.data(), sizeof(back));
  EXPECT_EQ(back.payload, 42u);
}

TEST(SegmentFileTest, DropFreesPagesForReuse) {
  storage::InMemoryDiskManager disk;
  SegmentFile seg(&disk, sizeof(Record), nullptr);
  Record r{0, 0};
  for (int i = 0; i < 2000; ++i) {
    r.payload = static_cast<uint64_t>(i);
    ASSERT_TRUE(seg.Append(&r).ok());
  }
  const uint32_t pages_before = disk.PageCount();
  EXPECT_GT(pages_before, 0u);
  seg.Drop();
  EXPECT_EQ(seg.count(), 0u);
  // Freed pages are reused by the next allocation round.
  SegmentFile seg2(&disk, sizeof(Record), nullptr);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(seg2.Append(&r).ok());
  }
  EXPECT_EQ(disk.PageCount(), pages_before);
}

TEST(SegmentFileTest, CountsPageIoIntoStats) {
  storage::InMemoryDiskManager disk;
  JoinStats stats;
  SegmentFile seg(&disk, sizeof(Record), &stats);
  Record r{0, 0};
  const size_t per_page = storage::kPageSize / sizeof(Record);
  for (size_t i = 0; i < per_page * 3; ++i) {
    ASSERT_TRUE(seg.Append(&r).ok());
  }
  EXPECT_GE(stats.queue_page_writes, 2u);
  std::vector<char> bytes;
  ASSERT_TRUE(seg.ReadAll(&bytes).ok());
  EXPECT_GE(stats.queue_page_reads, 2u);
}

TEST(SegmentFileTest, MoveTransfersOwnership) {
  storage::InMemoryDiskManager disk;
  SegmentFile a(&disk, sizeof(Record), nullptr);
  Record r{3.5, 9};
  for (int i = 0; i < 500; ++i) ASSERT_TRUE(a.Append(&r).ok());
  SegmentFile b = std::move(a);
  EXPECT_EQ(b.count(), 500u);
  std::vector<char> bytes;
  ASSERT_TRUE(b.ReadAll(&bytes).ok());
  EXPECT_EQ(bytes.size(), 500 * sizeof(Record));
  // The moved-from object is safely destructible (no double free): scope
  // exit exercises both destructors.
}

TEST(SegmentFileTest, ReadFailurePropagates) {
  storage::InMemoryDiskManager base;
  storage::FaultInjectionDiskManager faulty(&base);
  SegmentFile seg(&faulty, sizeof(Record), nullptr);
  Record r{0, 0};
  const size_t per_page = storage::kPageSize / sizeof(Record);
  for (size_t i = 0; i < per_page + 1; ++i) {
    ASSERT_TRUE(seg.Append(&r).ok());
  }
  faulty.FailReadsAfter(0);
  std::vector<char> bytes;
  EXPECT_EQ(seg.ReadAll(&bytes).code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace amdj::queue
