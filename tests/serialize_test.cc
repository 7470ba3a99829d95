#include "ctfl/nn/serialize.h"

#include <cstdio>
#include <fstream>

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
