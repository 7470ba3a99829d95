#include "ctfl/nn/serialize.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ctfl/data/gen/synthetic.h"
#include "ctfl/nn/trainer.h"
#include "ctfl/rules/extraction.h"
#include "test_paths.h"

namespace ctfl {
namespace {

SchemaPtr MakeSchema() {
  return std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("x", 0, 1),
          FeatureSchema::Discrete("c", {"a", "b"}),
      },
      "neg", "pos");
}

Dataset RandomData(const SchemaPtr& schema, size_t n, uint64_t seed) {
  Dataset d(schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Instance inst;
    inst.values = {rng.Uniform(), static_cast<double>(rng.UniformInt(2))};
    inst.label = inst.values[0] > 0.5 ? 1 : 0;
    d.AppendUnchecked(std::move(inst));
  }
  return d;
}

std::string TempPath(const std::string& name) {
  return TestTempPath(name);
}

TEST(SerializeTest, RoundTripPreservesModel) {
  const SchemaPtr schema = MakeSchema();
  LogicalNetConfig config;
  config.tau_d = 4;
  config.logic_layers = {{6, 6}, {3, 3}};
  config.fan_in = 2;
  config.seed = 9;
  LogicalNet net(schema, config);
  const Dataset train = RandomData(schema, 200, 1);
  TrainConfig tc;
  tc.epochs = 8;
  TrainGrafted(net, train, tc);

  const std::string path = TempPath("model_roundtrip.txt");
  ASSERT_TRUE(SaveLogicalNet(net, path).ok());
  const Result<LogicalNet> loaded = LoadLogicalNet(schema, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->GetParameters(), net.GetParameters());
  EXPECT_EQ(loaded->num_rules(), net.num_rules());
  // Behavioral equality on fresh data.
  const Dataset probe = RandomData(schema, 100, 2);
  for (const Instance& inst : probe.instances()) {
    EXPECT_EQ(loaded->Predict(inst), net.Predict(inst));
    EXPECT_EQ(loaded->RuleActivations(inst), net.RuleActivations(inst));
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsWrongSchema) {
  const SchemaPtr schema = MakeSchema();
  LogicalNetConfig config;
  config.tau_d = 4;
  config.logic_layers = {{4, 4}};
  LogicalNet net(schema, config);
  const std::string path = TempPath("model_wrong_schema.txt");
  ASSERT_TRUE(SaveLogicalNet(net, path).ok());

  // A schema with a different encoded width cannot host these params.
  const SchemaPtr other = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{FeatureSchema::Continuous("x", 0, 1)}, "n",
      "p");
  EXPECT_FALSE(LoadLogicalNet(other, path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsFingerprintMismatchOfSameWidthSchema) {
  const SchemaPtr schema = MakeSchema();
  LogicalNetConfig config;
  config.tau_d = 4;
  config.logic_layers = {{4, 4}};
  LogicalNet net(schema, config);
  const std::string path = TempPath("model_fingerprint.txt");
  ASSERT_TRUE(SaveLogicalNet(net, path).ok());

  // Same encoded width (param count matches), different feature name: only
  // the v2 fingerprint can catch the swap.
  const SchemaPtr renamed = std::make_shared<FeatureSchema>(
      std::vector<FeatureSpec>{
          FeatureSchema::Continuous("y", 0, 1),
          FeatureSchema::Discrete("c", {"a", "b"}),
      },
      "neg", "pos");
  const Result<LogicalNet> loaded = LoadLogicalNet(renamed, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("fingerprint"),
            std::string::npos)
      << loaded.status();
  // The original schema still loads.
  EXPECT_TRUE(LoadLogicalNet(schema, path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadAcceptsVersion1FilesWithoutFingerprint) {
  const SchemaPtr schema = MakeSchema();
  LogicalNetConfig config;
  config.tau_d = 4;
  config.logic_layers = {{4, 4}};
  config.seed = 11;
  LogicalNet net(schema, config);
  const std::string path = TempPath("model_v1.txt");
  ASSERT_TRUE(SaveLogicalNet(net, path).ok());

  // Downgrade the file to the v1 format: old header, no fingerprint line.
  std::string contents;
  {
    std::ifstream in(path);
    contents.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_NE(contents.find("ctfl-model 2\n"), std::string::npos);
  contents.replace(contents.find("ctfl-model 2\n"),
                   std::string("ctfl-model 2\n").size(), "ctfl-model 1\n");
  const size_t fp_begin = contents.find("schema_fingerprint");
  ASSERT_NE(fp_begin, std::string::npos);
  contents.erase(fp_begin, contents.find('\n', fp_begin) - fp_begin + 1);
  {
    std::ofstream out(path);
    out << contents;
  }

  const Result<LogicalNet> loaded = LoadLogicalNet(schema, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->GetParameters(), net.GetParameters());
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadRejectsGarbage) {
  const std::string path = TempPath("not_a_model.txt");
  {
    std::ofstream out(path);
    out << "something else entirely\n";
  }
  EXPECT_FALSE(LoadLogicalNet(MakeSchema(), path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadLogicalNet(MakeSchema(), TempPath("missing.txt")).ok());
}

// Model texts whose shape no LogicalNet can take are InvalidArgument, not
// an abort in a layer constructor or an allocation the file does not pay
// for. Each case replaces whole lines of a saved model, keyed by their
// first word.
void ExpectEditedModelRejected(
    const std::vector<std::pair<std::string, std::string>>& edits,
    const std::string& what) {
  const SchemaPtr schema = MakeSchema();
  LogicalNetConfig config;
  config.tau_d = 4;
  config.logic_layers = {{4, 4}};
  const std::string path = TempPath("model_edited.txt");
  ASSERT_TRUE(SaveLogicalNet(LogicalNet(schema, config), path).ok());
  std::string contents;
  {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    contents = buffer.str();
  }
  for (const auto& [key, line] : edits) {
    const size_t begin = contents.find("\n" + key + " ");
    ASSERT_NE(begin, std::string::npos) << key;
    const size_t end = contents.find('\n', begin + 1);
    contents.replace(begin + 1, end - begin - 1, line);
  }
  {
    std::ofstream out(path);
    out << contents;
  }
  const Result<LogicalNet> loaded = LoadLogicalNet(schema, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(what), std::string::npos)
      << loaded.status();
  std::remove(path.c_str());
}

TEST(SerializeTest, ZeroWidthLayerIsInvalidArgument) {
  ExpectEditedModelRejected({{"layers", "layers 1 0 0"}}, "layer widths");
}

TEST(SerializeTest, ZeroTauDIsInvalidArgument) {
  ExpectEditedModelRejected({{"tau_d", "tau_d 0"}}, "tau_d");
}

TEST(SerializeTest, LayerCountBeyondFileSizeIsInvalidArgument) {
  ExpectEditedModelRejected({{"layers", "layers 99999999999"}},
                            "malformed value");
}

// A shape and a count that agree but that the file cannot hold: 10
// encoded inputs (x: tau_d = 4 bounds each way, c: 2 categories), one
// layer of 2e9 nodes, 2e9 + 10 rules, so 2e10 + 2 (2e9 + 10) + 2 params.
TEST(SerializeTest, ParamCountBeyondFileSizeIsInvalidArgument) {
  ExpectEditedModelRejected({{"layers", "layers 1 1000000000 1000000000"},
                             {"params", "params 24000000022"}},
                            "params count exceeds the file");
}

TEST(SerializeTest, ExportRulesTextIsReadable) {
  const SchemaPtr schema = MakeSchema();
  LogicalNetConfig config;
  config.tau_d = 4;
  config.logic_layers = {{6, 6}};
  config.seed = 3;
  LogicalNet net(schema, config);
  const Dataset train = RandomData(schema, 300, 4);
  TrainConfig tc;
  tc.epochs = 10;
  tc.learning_rate = 0.05;
  TrainGrafted(net, train, tc);

  const std::string path = TempPath("rules.txt");
  ASSERT_TRUE(ExportRulesText(net, path, /*min_weight=*/1e-4).ok());
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("CTFL rule export"), std::string::npos);
  EXPECT_NE(contents.find("x >"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ctfl
