#include "fl/upload.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace fedms::fl {
namespace {

TEST(Sparse, SelectsExactlyOneValidServer) {
  SparseUpload strategy;
  core::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto targets = strategy.select_servers(0, i, 10, rng);
    ASSERT_EQ(targets.size(), 1u);
    EXPECT_LT(targets[0], 10u);
  }
}

TEST(Sparse, UniformOverServers) {
  // The paper's Lemma 3 needs uniform selection: E|N_i| = K/P.
  SparseUpload strategy;
  core::Rng rng(2);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    ++counts[strategy.select_servers(0, 0, 10, rng)[0]];
  for (const int c : counts) EXPECT_NEAR(double(c) / n, 0.1, 0.01);
}

TEST(Full, SelectsEveryServerOnce) {
  FullUpload strategy;
  core::Rng rng(3);
  const auto targets = strategy.select_servers(5, 9, 7, rng);
  ASSERT_EQ(targets.size(), 7u);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(targets[i], i);
}

TEST(Multi, SelectsMDistinctServers) {
  MultiUpload strategy(3);
  core::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const auto targets = strategy.select_servers(0, i, 10, rng);
    ASSERT_EQ(targets.size(), 3u);
    const std::set<std::size_t> unique(targets.begin(), targets.end());
    EXPECT_EQ(unique.size(), 3u);
    for (const auto t : targets) EXPECT_LT(t, 10u);
  }
}

TEST(Multi, ClampsToServerCount) {
  MultiUpload strategy(8);
  core::Rng rng(5);
  const auto targets = strategy.select_servers(0, 0, 4, rng);
  EXPECT_EQ(targets.size(), 4u);
}

TEST(Multi, UniformMarginals) {
  MultiUpload strategy(2);
  core::Rng rng(6);
  std::vector<int> counts(5, 0);
  const int n = 25000;
  for (int i = 0; i < n; ++i)
    for (const auto t : strategy.select_servers(0, 0, 5, rng)) ++counts[t];
  // Each server is in a 2-of-5 sample with probability 0.4.
  for (const int c : counts) EXPECT_NEAR(double(c) / n, 0.4, 0.02);
}

TEST(UploadFactory, ParsesSpecs) {
  EXPECT_EQ(make_upload_strategy("sparse")->name(), "sparse");
  EXPECT_EQ(make_upload_strategy("full")->name(), "full");
  EXPECT_EQ(make_upload_strategy("multi:3")->name(), "multi:3");
}

TEST(FactoryDeath, RejectsUnknown) {
  EXPECT_DEATH((void)make_upload_strategy("bogus"), "Precondition");
}

TEST(UploadDeath, RejectsZeroServers) {
  SparseUpload strategy;
  core::Rng rng(7);
  EXPECT_DEATH((void)strategy.select_servers(0, 0, 0, rng), "Precondition");
}

}  // namespace
}  // namespace fedms::fl
