// Differential testing of index mutation + join interplay: random
// insert/delete workloads applied to the trees, with the k-distance join
// checked against a brute-force shadow, and every sweeping join against the
// same join on freshly built trees, after every epoch.

#include <map>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/distance_join.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace amdj::core {
namespace {

using geom::Rect;

struct Shadow {
  std::map<uint32_t, Rect> objects;  // id -> rect
};

class MutationJoinTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MutationJoinTest, JoinStaysCorrectAcrossInsertDeleteEpochs) {
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 128);
  rtree::RTree::Options opts;
  opts.max_entries = 8;
  auto r_tree = rtree::RTree::Create(&pool, opts).value();
  auto s_tree = rtree::RTree::Create(&pool, opts).value();
  Shadow r_shadow, s_shadow;
  Random rng(GetParam());
  uint32_t next_id = 0;

  auto mutate = [&](rtree::RTree& tree, Shadow& shadow, int ops) {
    for (int i = 0; i < ops; ++i) {
      if (shadow.objects.empty() || rng.Bernoulli(0.65)) {
        const double x = rng.Uniform(0, 1000);
        const double y = rng.Uniform(0, 1000);
        const Rect rect(x, y, x + rng.Uniform(0, 10), y + rng.Uniform(0, 10));
        const uint32_t id = next_id++;
        ASSERT_TRUE(tree.Insert(rect, id).ok());
        shadow.objects[id] = rect;
      } else {
        auto it = shadow.objects.begin();
        std::advance(it, rng.UniformInt(shadow.objects.size()));
        bool found = false;
        ASSERT_TRUE(tree.Delete(it->second, it->first, &found).ok());
        ASSERT_TRUE(found) << "id " << it->first;
        shadow.objects.erase(it);
      }
    }
  };

  for (int epoch = 0; epoch < 6; ++epoch) {
    mutate(*r_tree, r_shadow, 120);
    mutate(*s_tree, s_shadow, 90);
    ASSERT_TRUE(r_tree->Validate().ok()) << r_tree->Validate().ToString();
    ASSERT_TRUE(s_tree->Validate().ok()) << s_tree->Validate().ToString();
    ASSERT_EQ(r_tree->size(), r_shadow.objects.size());
    ASSERT_EQ(s_tree->size(), s_shadow.objects.size());

    // Brute-force reference over the shadows.
    std::vector<double> brute;
    for (const auto& [ri, rr] : r_shadow.objects) {
      for (const auto& [si, sr] : s_shadow.objects) {
        brute.push_back(geom::MinDistance(rr, sr));
      }
    }
    std::sort(brute.begin(), brute.end());

    const uint64_t k = 1 + rng.UniformInt(uint64_t{200});
    for (const auto algorithm :
         {KdjAlgorithm::kBKdj, KdjAlgorithm::kAmKdj}) {
      auto result =
          RunKDistanceJoin(*r_tree, *s_tree, k, algorithm, JoinOptions{},
                           nullptr);
      ASSERT_TRUE(result.ok());
      const size_t expected = std::min<uint64_t>(k, brute.size());
      ASSERT_EQ(result->size(), expected)
          << ToString(algorithm) << " epoch " << epoch;
      for (size_t i = 0; i < expected; ++i) {
        ASSERT_NEAR((*result)[i].distance, brute[i], 1e-9)
            << ToString(algorithm) << " epoch " << epoch << " rank " << i;
        // The reported pair is live in both shadows and realizes the
        // distance.
        const auto rit = r_shadow.objects.find((*result)[i].r_id);
        const auto sit = s_shadow.objects.find((*result)[i].s_id);
        ASSERT_NE(rit, r_shadow.objects.end());
        ASSERT_NE(sit, s_shadow.objects.end());
        ASSERT_NEAR(geom::MinDistance(rit->second, sit->second),
                    (*result)[i].distance, 1e-9);
      }
    }
  }
}

// Mutated trees carry sweep orders from the joins of earlier epochs; each
// mutation must drop them, and every sweeping join on the mutated trees
// must equal the same join on trees freshly bulk-loaded with the same
// objects.
TEST_P(MutationJoinTest, SweepingJoinsMatchFreshTreesAcrossEpochs) {
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 128);
  rtree::RTree::Options opts;
  opts.max_entries = 8;
  auto r_tree = rtree::RTree::Create(&pool, opts).value();
  auto s_tree = rtree::RTree::Create(&pool, opts).value();
  Shadow r_shadow, s_shadow;
  Random rng(GetParam() + 100);
  uint32_t next_id = 0;

  for (int epoch = 0; epoch < 5; ++epoch) {
    for (auto* side : {&r_shadow, &s_shadow}) {
      rtree::RTree& tree = side == &r_shadow ? *r_tree : *s_tree;
      for (int i = 0; i < 100; ++i) {
        if (side->objects.empty() || rng.Bernoulli(0.7)) {
          const double x = rng.Uniform(0, 1000);
          const double y = rng.Uniform(0, 1000);
          const Rect rect(x, y, x + rng.Uniform(0, 10),
                          y + rng.Uniform(0, 10));
          ASSERT_TRUE(tree.Insert(rect, next_id).ok());
          side->objects[next_id++] = rect;
        } else {
          auto it = side->objects.begin();
          std::advance(it, rng.UniformInt(side->objects.size()));
          bool found = false;
          ASSERT_TRUE(tree.Delete(it->second, it->first, &found).ok());
          ASSERT_TRUE(found);
          side->objects.erase(it);
        }
      }
      EXPECT_EQ(tree.sweep_orders().order_count(), 0u);
    }

    storage::InMemoryDiskManager fresh_disk;
    storage::BufferPool fresh_pool(&fresh_disk, 128);
    auto fresh_r = rtree::RTree::Create(&fresh_pool, opts).value();
    auto fresh_s = rtree::RTree::Create(&fresh_pool, opts).value();
    for (auto [fresh, shadow] :
         {std::pair{fresh_r.get(), &r_shadow}, {fresh_s.get(), &s_shadow}}) {
      std::vector<rtree::Entry> entries;
      for (const auto& [id, rect] : shadow->objects) {
        entries.emplace_back(rect, id);
      }
      ASSERT_TRUE(fresh->BulkLoad(std::move(entries)).ok());
    }

    const uint64_t k = 1 + rng.UniformInt(uint64_t{400});
    // Twice on the mutated trees: once filling the table, once from it.
    const auto expected = test::SweepingJoins(*fresh_r, *fresh_s, k);
    for (int pass = 0; pass < 2; ++pass) {
      const auto got = test::SweepingJoins(*r_tree, *s_tree, k);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(test::Distances(got[i]), test::Distances(expected[i]))
            << "epoch " << epoch << " pass " << pass << " join " << i;
      }
    }
    EXPECT_GT(r_tree->sweep_orders().order_count(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationJoinTest,
                         ::testing::Values(uint64_t{1}, uint64_t{2},
                                           uint64_t{3}));

}  // namespace
}  // namespace amdj::core
