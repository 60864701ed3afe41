#include "metrics/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "core/json_min.h"
#include "core/rounding.h"
#include "runtime/telemetry.h"

namespace fedms::metrics {
namespace {

fl::RunResult sample_run() {
  fl::RunResult result;
  for (std::uint64_t t = 0; t < 3; ++t) {
    fl::RoundRecord record;
    record.round = t;
    record.train_loss = 1.0 - 0.1 * double(t);
    if (t == 2) {
      record.eval_accuracy = 0.75;
      record.eval_loss = 0.5;
    }
    record.uplink_bytes = 1000 * (t + 1);
    record.downlink_bytes = 2000 * (t + 1);
    record.upload_seconds = 0.01;
    record.broadcast_seconds = 0.02;
    result.rounds.push_back(record);
  }
  result.uplink_total.messages = 150;
  result.uplink_total.bytes = 6000;
  result.downlink_total.messages = 300;
  result.downlink_total.bytes = 12000;
  result.simulated_comm_seconds = 0.09;
  return result;
}

TEST(JsonExport, ContainsConfigAndRounds) {
  fl::FedMsConfig config;
  config.attack = "random";
  std::ostringstream os;
  write_run_json(os, config, sample_run());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"clients\": 50"), std::string::npos);
  EXPECT_NE(json.find("\"attack\": \"random\""), std::string::npos);
  EXPECT_NE(json.find("\"round\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"eval_accuracy\": 0.75"), std::string::npos);
  EXPECT_NE(json.find("\"uplink_bytes\": 6000"), std::string::npos);
}

TEST(JsonExport, UnevaluatedRoundsAreNull) {
  fl::FedMsConfig config;
  std::ostringstream os;
  write_run_json(os, config, sample_run());
  const std::string json = os.str();
  EXPECT_NE(json.find("\"eval_accuracy\": null"), std::string::npos);
}

TEST(JsonExport, NonFiniteNumbersBecomeNull) {
  fl::FedMsConfig config;
  fl::RunResult result = sample_run();
  result.rounds[0].train_loss = std::nan("");
  std::ostringstream os;
  write_run_json(os, config, result);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"train_loss\": null"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(JsonExport, BalancedBracesAndQuotes) {
  fl::FedMsConfig config;
  std::ostringstream os;
  write_run_json(os, config, sample_run());
  const std::string json = os.str();
  int depth = 0;
  std::size_t quotes = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (c == '"') ++quotes;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0u);
}

// Both run-JSON writers route every number through core::json_double and
// every string through core::json_escape: the same run writes the same
// bytes under all four fenv rounding modes (a "%.10g" writer prints 0.05
// as 0.05000000001 under upward), and core::Json parses the document back
// to the exact values.
TEST(JsonExport, BothWritersAreModeProofAndParse) {
  fl::FedMsConfig config;
  config.participation = 0.5;
  config.attack = "quote\"back\\slash";
  fl::RunResult run = sample_run();
  run.rounds[0].upload_seconds = 0.01077696;

  runtime::RuntimeOptions options;
  options.compute_seconds = 0.05;
  options.retry_backoff_seconds = 0.1;
  options.faults = runtime::FaultPlan::parse("crash=1@2;drop=0.1");
  runtime::AsyncRunResult async_run;
  for (const fl::RoundRecord& base : run.rounds) {
    runtime::AsyncRoundRecord record;
    record.base = base;
    record.start_seconds = 0.3 * double(base.round);
    record.end_seconds = record.start_seconds + 0.3;
    record.mean_candidates = 2.0 / 3.0;
    async_run.rounds.push_back(record);
  }
  async_run.virtual_seconds = 0.9;
  async_run.trace_hash = 0x5668ee332f5d91d5ULL;

  const auto write_both = [&] {
    std::ostringstream sync_json, async_json;
    write_run_json(sync_json, config, run);
    runtime::write_async_run_json(async_json, config, options, async_run);
    return std::make_pair(sync_json.str(), async_json.str());
  };
  const auto nearest = write_both();
  for (std::size_t m = 0; m < core::kRoundingModeCount; ++m) {
    const core::ScopedRoundingMode mode(core::all_rounding_modes()[m]);
    SCOPED_TRACE(core::rounding_mode_name(core::all_rounding_modes()[m]));
    const auto written = write_both();
    EXPECT_EQ(written.first, nearest.first);
    EXPECT_EQ(written.second, nearest.second);
  }

  const core::Json sync_doc = core::Json::parse(nearest.first);
  EXPECT_EQ(sync_doc.at("config").at("participation").as_number(), 0.5);
  EXPECT_EQ(sync_doc.at("config").at("attack").as_string(), config.attack);
  EXPECT_EQ(sync_doc.at("rounds").items()[0].at("upload_seconds").as_number(),
            0.01077696);
  EXPECT_EQ(sync_doc.at("rounds").items()[0].at("eval_accuracy").type(),
            core::Json::Type::kNull);

  const core::Json async_doc = core::Json::parse(nearest.second);
  EXPECT_EQ(async_doc.at("config").at("participation").as_number(), 0.5);
  EXPECT_EQ(async_doc.at("config").at("attack").as_string(), config.attack);
  const core::Json& parsed_options = async_doc.at("options");
  EXPECT_EQ(parsed_options.at("compute_seconds").as_number(), 0.05);
  EXPECT_EQ(parsed_options.at("retry_backoff_seconds").as_number(), 0.1);
  EXPECT_EQ(async_doc.at("fault_plan").as_string(),
            options.faults.to_string());
  EXPECT_EQ(async_doc.at("rounds").items()[2].at("mean_candidates")
                .as_number(),
            2.0 / 3.0);
  EXPECT_EQ(async_doc.at("rounds").items()[2].at("eval_accuracy").as_number(),
            0.75);
  EXPECT_EQ(async_doc.at("totals").at("virtual_seconds").as_number(), 0.9);
}

// Both writers emit the same config block, and it tells apart every
// configuration that can change a run's results (a DP run and a plain run
// with the same seed used to write identical blocks).
TEST(JsonExport, BothWritersShareOneResultAffectingConfigBlock) {
  const auto config_of = [](const fl::FedMsConfig& config, bool async) {
    std::ostringstream json;
    if (async)
      runtime::write_async_run_json(json, config, runtime::RuntimeOptions{},
                                    runtime::AsyncRunResult{});
    else
      write_run_json(json, config, fl::RunResult{});
    return core::Json::parse(json.str()).at("config");
  };
  fl::FedMsConfig plain;
  fl::FedMsConfig dp = plain;
  dp.dp_clip_norm = 1.0;
  dp.dp_noise_multiplier = 0.01;

  const core::Json sync_config = config_of(dp, false);
  const core::Json async_config = config_of(dp, true);
  std::vector<std::string> keys;
  for (const auto& [key, value] : sync_config.members()) keys.push_back(key);
  std::vector<std::string> async_keys;
  for (const auto& [key, value] : async_config.members())
    async_keys.push_back(key);
  EXPECT_EQ(keys, async_keys);
  for (const char* key :
       {"local_iterations", "server_aggregator", "byzantine_clients",
        "client_attack", "dp_clip_norm", "dp_noise_multiplier",
        "byzantine_placement", "byzantine_client_placement", "eval_every",
        "eval_clients", "fedgreed_root_samples", "participation",
        "wire_encoding", "seed"})
    EXPECT_NE(sync_config.find(key), nullptr) << key;
  // Results do not depend on the worker count, so it is not config.
  EXPECT_EQ(sync_config.find("worker_threads"), nullptr);

  EXPECT_EQ(sync_config.at("dp_clip_norm").as_number(), 1.0);
  EXPECT_EQ(async_config.at("dp_noise_multiplier").as_number(), 0.01);
  EXPECT_EQ(config_of(plain, true).at("dp_clip_norm").as_number(), 0.0);
}

TEST(JsonExport, SaveToFileThrowsOnBadPath) {
  fl::FedMsConfig config;
  EXPECT_THROW(save_run_json("/nonexistent/dir/run.json", config,
                             sample_run()),
               std::runtime_error);
}

}  // namespace
}  // namespace fedms::metrics
