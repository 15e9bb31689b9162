// End-to-end error-path coverage: disk failures at any point must surface
// as Status errors from the join APIs, never crash or hang, and the system
// must recover once the fault clears.

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "core/distance_join.h"
#include "core/expansion.h"
#include "queue/segment_file.h"
#include "test_util.h"
#include "workload/generators.h"

namespace amdj::core {
namespace {

using test::JoinFixture;

struct FaultyFixture {
  std::unique_ptr<storage::InMemoryDiskManager> base_tree_disk;
  std::unique_ptr<storage::FaultInjectionDiskManager> tree_disk;
  std::unique_ptr<storage::InMemoryDiskManager> base_queue_disk;
  std::unique_ptr<storage::FaultInjectionDiskManager> queue_disk;
  std::unique_ptr<storage::BufferPool> pool;
  std::unique_ptr<rtree::RTree> r;
  std::unique_ptr<rtree::RTree> s;
};

FaultyFixture MakeFaultyFixture() {
  FaultyFixture f;
  f.base_tree_disk = std::make_unique<storage::InMemoryDiskManager>();
  f.tree_disk = std::make_unique<storage::FaultInjectionDiskManager>(
      f.base_tree_disk.get());
  f.base_queue_disk = std::make_unique<storage::InMemoryDiskManager>();
  f.queue_disk = std::make_unique<storage::FaultInjectionDiskManager>(
      f.base_queue_disk.get());
  // Tiny pool: every join does real reads through the faulty disk.
  f.pool = std::make_unique<storage::BufferPool>(f.tree_disk.get(), 8);
  const geom::Rect uni(0, 0, 5000, 5000);
  rtree::RTree::Options opts;
  opts.max_entries = 8;
  f.r = std::move(*rtree::RTree::Create(f.pool.get(), opts));
  f.s = std::move(*rtree::RTree::Create(f.pool.get(), opts));
  EXPECT_TRUE(
      f.r->BulkLoad(workload::UniformPoints(400, 81, uni).ToEntries()).ok());
  EXPECT_TRUE(
      f.s->BulkLoad(workload::UniformPoints(300, 82, uni).ToEntries()).ok());
  EXPECT_TRUE(f.pool->FlushAll().ok());
  return f;
}

// Overwrites the level of one leaf page through the buffer pool, as a
// torn or misdirected write would: the page then claims to hold nodes.
void CorruptOneLeafLevel(const rtree::RTree& tree) {
  PairRef ref = RootRef(tree);
  while (ref.level > 0) {
    std::vector<PairRef> children;
    ASSERT_TRUE(FetchChildren(tree, ref, &children).ok());
    ref = children.back();
  }
  auto guard = tree.buffer_pool()->FetchPage(ref.id);
  ASSERT_TRUE(guard.ok());
  const uint16_t bad_level = 1;
  std::memcpy(guard->MutableData(), &bad_level, sizeof(bad_level));
}

/// Small trees whose joins expand every leaf at k = |R| x |S|.
JoinFixture SmallFixture() {
  const geom::Rect uni(0, 0, 1000, 1000);
  return test::MakeFixture(workload::UniformPoints(90, 84, uni),
                           workload::UniformPoints(70, 85, uni),
                           /*fanout=*/8, /*buffer_pages=*/16);
}

class KdjFaultTest : public ::testing::TestWithParam<KdjAlgorithm> {};

TEST_P(KdjFaultTest, TreeReadFailureSurfacesAsIOError) {
  FaultyFixture f = MakeFaultyFixture();
  ASSERT_TRUE(f.pool->Clear().ok());
  // Fail after a few successful node reads: the join dies mid-traversal.
  f.tree_disk->FailReadsAfter(5);
  JoinOptions options;
  auto result =
      RunKDistanceJoin(*f.r, *f.s, 200, GetParam(), options, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);

  // Heal and retry: full result, no corruption left behind.
  f.tree_disk->Heal();
  ASSERT_TRUE(f.pool->Clear().ok());
  auto retry =
      RunKDistanceJoin(*f.r, *f.s, 200, GetParam(), options, nullptr);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->size(), 200u);
}

TEST_P(KdjFaultTest, QueueSpillFailureSurfacesAsIOError) {
  if (GetParam() == KdjAlgorithm::kHsKdj) {
    // HS-KDJ at this size may not spill; covered by the others.
  }
  FaultyFixture f = MakeFaultyFixture();
  ASSERT_TRUE(f.pool->Clear().ok());
  JoinOptions options;
  options.queue_disk = f.queue_disk.get();
  options.queue_memory_bytes = 2048;  // tiny heap: guaranteed spilling
  f.queue_disk->FailWritesAfter(0);
  auto result =
      RunKDistanceJoin(*f.r, *f.s, 2000, GetParam(), options, nullptr);
  if (result.ok()) {
    // Legal only if the algorithm never actually spilled.
    EXPECT_EQ(f.base_queue_disk->stats().page_writes, 0u);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  }
}

TEST_P(KdjFaultTest, LeafPageAtWrongLevelIsCorruption) {
  JoinFixture f = SmallFixture();
  CorruptOneLeafLevel(*f.r);
  auto result = RunKDistanceJoin(*f.r, *f.s, 90 * 70, GetParam(),
                                 JoinOptions{}, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  EXPECT_NE(result.status().ToString().find("node page"), std::string::npos)
      << result.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(AllKdj, KdjFaultTest,
                         ::testing::Values(KdjAlgorithm::kHsKdj,
                                           KdjAlgorithm::kBKdj,
                                           KdjAlgorithm::kAmKdj,
                                           KdjAlgorithm::kSjSort),
                         [](const auto& info) {
                           std::string n = ToString(info.param);
                           n.erase(std::remove(n.begin(), n.end(), '-'),
                                   n.end());
                           return n;
                         });

TEST(IdjFaultTest, CursorSurfacesAndSurvivesMidStreamFailure) {
  FaultyFixture f = MakeFaultyFixture();
  ASSERT_TRUE(f.pool->Clear().ok());
  JoinOptions options;
  auto cursor = OpenIncrementalJoin(*f.r, *f.s, IdjAlgorithm::kAmIdj,
                                    options, nullptr);
  ASSERT_TRUE(cursor.ok());
  ResultPair pair;
  bool done = false;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE((*cursor)->Next(&pair, &done).ok());
    ASSERT_FALSE(done);
  }
  f.tree_disk->FailReadsAfter(0);
  ASSERT_TRUE(f.pool->Clear().ok());
  // The cursor eventually needs a node it cannot read.
  Status status = Status::OK();
  for (int i = 0; i < 5000 && status.ok() && !done; ++i) {
    status = (*cursor)->Next(&pair, &done);
  }
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(IdjFaultTest, LeafPageAtWrongLevelIsCorruption) {
  for (const IdjAlgorithm algorithm :
       {IdjAlgorithm::kHsIdj, IdjAlgorithm::kAmIdj}) {
    JoinFixture f = SmallFixture();
    CorruptOneLeafLevel(*f.s);
    auto cursor =
        OpenIncrementalJoin(*f.r, *f.s, algorithm, JoinOptions{}, nullptr);
    ASSERT_TRUE(cursor.ok());
    ResultPair pair;
    bool done = false;
    Status status = Status::OK();
    while (status.ok() && !done) status = (*cursor)->Next(&pair, &done);
    EXPECT_EQ(status.code(), StatusCode::kCorruption)
        << ToString(algorithm) << ": " << status.ToString();
  }
}

// Regression: SegmentFile::Append allocated a fresh page, and when the
// spill write failed it returned the error with the page still allocated —
// unreachable (never recorded in pages_) and unfreeable for the disk's
// lifetime. After a failed spill + Drop, every page the disk ever handed
// out must be back on its free list: re-allocating must recycle old ids
// only.
TEST(SegmentFileFaultTest, FailedSpillLeaksNoPages) {
  storage::InMemoryDiskManager base;
  storage::FaultInjectionDiskManager faulty(&base);
  constexpr size_t kRecordSize = 64;
  const size_t per_page = storage::kPageSize / kRecordSize;
  char record[kRecordSize];
  std::memset(record, 'r', sizeof(record));
  {
    queue::SegmentFile segment(&faulty, kRecordSize, nullptr);
    // Two successful spills, then arm the fault.
    for (size_t i = 0; i < 2 * per_page; ++i) {
      ASSERT_TRUE(segment.Append(record).ok());
    }
    faulty.FailWritesAfter(0);
    Status status = Status::OK();
    size_t appended = 0;
    while (status.ok() && appended < 4 * per_page) {
      status = segment.Append(record);
      if (status.ok()) ++appended;
    }
    ASSERT_EQ(status.code(), StatusCode::kIOError);

    // The errored Append still retained its record (the failure hit the
    // post-insert page flush), so the segment holds one more than the
    // accepted count. Healing lets the exact same segment finish, and
    // ReadAll sees every retained record exactly once.
    EXPECT_EQ(segment.count(), 2 * per_page + appended + 1);
    faulty.Heal();
    for (size_t i = appended + 1; i < 4 * per_page; ++i) {
      ASSERT_TRUE(segment.Append(record).ok());
    }
    EXPECT_EQ(segment.count(), 6 * per_page);
    std::vector<char> all;
    ASSERT_TRUE(segment.ReadAll(&all).ok());
    EXPECT_EQ(all.size(), 6 * per_page * kRecordSize);

    segment.Drop();
  }
  // Leak check: every page the disk handed out must be reusable now. If
  // the failed spill leaked its allocation, one of these comes back as a
  // brand-new id past the old high-water mark.
  const uint32_t high_water = faulty.PageCount();
  ASSERT_GT(high_water, 0u);
  for (uint32_t i = 0; i < high_water; ++i) {
    EXPECT_LT(faulty.AllocatePage(), high_water) << "leaked page detected";
  }
}

TEST(RTreeFaultTest, BuildFailurePropagates) {
  storage::InMemoryDiskManager base;
  storage::FaultInjectionDiskManager faulty(&base);
  storage::BufferPool pool(&faulty, 4);
  rtree::RTree::Options opts;
  opts.max_entries = 8;
  auto tree = rtree::RTree::Create(&pool, opts);
  ASSERT_TRUE(tree.ok());
  faulty.FailWritesAfter(2);
  Status status = Status::OK();
  const geom::Rect uni(0, 0, 100, 100);
  const auto data = workload::UniformPoints(500, 83, uni);
  for (const auto& rect : data.objects) {
    status = (*tree)->Insert(rect, 0);
    if (!status.ok()) break;
  }
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace amdj::core
