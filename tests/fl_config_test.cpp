#include "fl/config.h"

#include <gtest/gtest.h>

namespace fedms::fl {
namespace {

TEST(Config, DefaultsMatchTableII) {
  const FedMsConfig config;
  EXPECT_EQ(config.clients, 50u);        // K = 50
  EXPECT_EQ(config.servers, 10u);        // P = 10
  EXPECT_EQ(config.local_iterations, 3u);  // E = 3
  EXPECT_DOUBLE_EQ(config.byzantine_fraction(), 0.2);  // eps = 20%
  config.validate();
}

TEST(Config, ByzantineFraction) {
  FedMsConfig config;
  config.servers = 10;
  config.byzantine = 3;
  EXPECT_DOUBLE_EQ(config.byzantine_fraction(), 0.3);
  config.byzantine = 0;
  EXPECT_DOUBLE_EQ(config.byzantine_fraction(), 0.0);
}

TEST(Config, ValidateAcceptsBoundaryMinority) {
  FedMsConfig config;
  config.servers = 10;
  config.byzantine = 5;  // B = P/2 is the paper's feasibility boundary
  config.validate();
}

TEST(ConfigDeath, RejectsByzantineMajority) {
  FedMsConfig config;
  config.servers = 10;
  config.byzantine = 6;
  EXPECT_DEATH(config.validate(), "Precondition");
}

TEST(ConfigDeath, RejectsZeroClientsOrServers) {
  FedMsConfig config;
  config.clients = 0;
  EXPECT_DEATH(config.validate(), "Precondition");
  config.clients = 10;
  config.servers = 0;
  EXPECT_DEATH(config.validate(), "Precondition");
}

TEST(ConfigDeath, RejectsUnknownPlacement) {
  FedMsConfig config;
  config.byzantine_placement = "middle";
  EXPECT_DEATH(config.validate(), "Precondition");
}

TEST(Config, ToStringMentionsKeyFields) {
  FedMsConfig config;
  config.attack = "random";
  const std::string s = config.to_string();
  EXPECT_NE(s.find("K=50"), std::string::npos);
  EXPECT_NE(s.find("P=10"), std::string::npos);
  EXPECT_NE(s.find("attack=random"), std::string::npos);
}

}  // namespace
}  // namespace fedms::fl
