// RNG stream-discipline tests: cross-stream independence of SeedSequence
// children, and sim-vs-node bit-identical partial-participation draws (the
// wire-parity guarantee that lets fedms_node replay the simulator's
// "participation" stream without any coordination messages).
//
// These tests are randomized over one root seed taken from
// testing::test_seed(); failures embed the FEDMS_TEST_SEED repro command.
#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fl/fedms.h"
#include "testing/test_seed.h"

namespace {

using fedms::core::Rng;
using fedms::core::SeedSequence;

std::vector<std::uint64_t> draw(Rng rng, std::size_t n) {
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = rng();
  return out;
}

TEST(RngStreams, SameTagIndexReproduces) {
  const std::uint64_t root = fedms::testing::test_seed(0x5eed5001);
  SCOPED_TRACE(fedms::testing::seed_repro_hint(root, "RngStreams"));
  SeedSequence seeds(root);
  EXPECT_EQ(draw(seeds.make_rng("participation"), 64),
            draw(seeds.make_rng("participation"), 64));
  EXPECT_EQ(seeds.derive("attack", 3), seeds.derive("attack", 3));
}

TEST(RngStreams, DistinctTagsAndIndicesAreIndependent) {
  const std::uint64_t root = fedms::testing::test_seed(0x5eed5001);
  SCOPED_TRACE(fedms::testing::seed_repro_hint(root, "RngStreams"));
  SeedSequence seeds(root);

  // Child seeds across tags and indices never collide, and neither do the
  // first outputs of the derived streams.
  std::set<std::uint64_t> child_seeds;
  std::set<std::uint64_t> first_draws;
  const char* tags[] = {"participation", "attack", "grad-noise", "ps-choice",
                        "byz-placement", "fuzz-schedule"};
  for (const char* tag : tags) {
    for (std::uint64_t i = 0; i < 32; ++i) {
      ASSERT_TRUE(child_seeds.insert(seeds.derive(tag, i)).second)
          << "seed collision for stream " << tag << "/" << i;
      ASSERT_TRUE(first_draws.insert(seeds.make_rng(tag, i)()).second)
          << "first-draw collision for stream " << tag << "/" << i;
    }
  }

  // Prefixes of sibling streams must not be shifted copies of each other.
  const auto a = draw(seeds.make_rng("grad-noise", 0), 64);
  const auto b = draw(seeds.make_rng("grad-noise", 1), 64);
  for (std::size_t lag = 0; lag < 8; ++lag) {
    EXPECT_FALSE(std::equal(a.begin() + std::ptrdiff_t(lag), a.end(),
                            b.begin()))
        << "stream grad-noise/1 is a lag-" << lag << " copy of grad-noise/0";
  }
}

TEST(RngStreams, DifferentRootsDiverge) {
  const std::uint64_t root = fedms::testing::test_seed(0x5eed5001);
  SCOPED_TRACE(fedms::testing::seed_repro_hint(root, "RngStreams"));
  SeedSequence seeds(root);
  SeedSequence other(root + 1);
  EXPECT_NE(seeds.derive("participation"), other.derive("participation"));
  EXPECT_NE(draw(seeds.make_rng("participation"), 16),
            draw(other.make_rng("participation"), 16));
}

// The uniform participation draw spelled out (one sequential
// "participation" stream, sample_without_replacement per round):
// fl::draw_participants must reproduce it for every engine.
std::vector<std::vector<bool>> sim_participation(const fedms::fl::FedMsConfig& fed) {
  Rng rng = SeedSequence(fed.seed).make_rng("participation");
  const std::size_t active = std::max<std::size_t>(
      1, static_cast<std::size_t>(fed.participation * double(fed.clients) + 0.5));
  std::vector<std::vector<bool>> rounds;
  for (std::size_t r = 0; r < fed.rounds; ++r) {
    std::vector<bool> mask(fed.clients, false);
    for (const std::size_t k : rng.sample_without_replacement(fed.clients, active))
      mask[k] = true;
    rounds.push_back(mask);
  }
  return rounds;
}

TEST(RngStreams, NodeParticipationMatchesSimulatorBitForBit) {
  const std::uint64_t root = fedms::testing::test_seed(0x5eed5002);
  SCOPED_TRACE(fedms::testing::seed_repro_hint(root, "RngStreams"));

  fedms::fl::FedMsConfig fed;
  fed.clients = 7;
  fed.servers = 3;
  fed.byzantine = 1;
  fed.rounds = 12;
  fed.participation = 0.5;
  fed.seed = root;

  const auto sim = sim_participation(fed);

  // Every node owns its own replay of the shared stream; all must agree
  // with the simulator for their own index, on every round, in order.
  for (std::size_t k = 0; k < fed.clients; ++k) {
    Rng own = SeedSequence(fed.seed).make_rng("participation");
    for (std::size_t r = 0; r < fed.rounds; ++r) {
      EXPECT_EQ(fedms::fl::draw_participants(fed, own)[k], sim[r][k])
          << "node " << k << " disagrees with simulator at round " << r;
    }
  }

  // Sanity on the draw itself: exactly `active` participants per round.
  const std::size_t active = std::max<std::size_t>(
      1, static_cast<std::size_t>(fed.participation * double(fed.clients) + 0.5));
  for (std::size_t r = 0; r < fed.rounds; ++r)
    EXPECT_EQ(std::size_t(std::count(sim[r].begin(), sim[r].end(), true)),
              active);
}

TEST(TestSeed, EnvOverrideAndHint) {
  unsetenv("FEDMS_TEST_SEED");
  EXPECT_EQ(fedms::testing::test_seed(1234), 1234u);
  EXPECT_FALSE(fedms::testing::test_seed_overridden());

  setenv("FEDMS_TEST_SEED", "0x5eed", 1);
  EXPECT_EQ(fedms::testing::test_seed(1234), 0x5eedu);
  EXPECT_TRUE(fedms::testing::test_seed_overridden());

  setenv("FEDMS_TEST_SEED", "99", 1);
  EXPECT_EQ(fedms::testing::test_seed(1234), 99u);

  unsetenv("FEDMS_TEST_SEED");
  const std::string hint = fedms::testing::seed_repro_hint(0x5eed, "MyTest");
  EXPECT_NE(hint.find("FEDMS_TEST_SEED=0x5eed"), std::string::npos) << hint;
  EXPECT_NE(hint.find("MyTest"), std::string::npos) << hint;
}

}  // namespace
