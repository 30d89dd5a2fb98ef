#include "obs/analysis/baseline.h"

#include <string>

#include <gtest/gtest.h>

#include "json_lint.h"

namespace mitos::obs::analysis {
namespace {

using obs_testing::JsonLint;

BaselineFile MakeBaseline() {
  BaselineFile file;
  file.figure = "fig9";
  BaselineEntry a;
  a.key = "fig9/0/Mitos (not pipelined)/4m";
  a.engine = "Mitos (not pipelined)";
  a.machines = 4;
  a.total_seconds = 162.581409;
  a.decomposition = {{"compute", 162.25899}, {"barrier-wait", 0.0394}};
  BaselineEntry b;
  b.key = "fig9/1/Mitos/4m";
  b.engine = "Mitos";
  b.machines = 4;
  b.total_seconds = 97.430815;
  b.decomposition = {{"compute", 97.16973}, {"launch", 0.26}};
  file.entries = {a, b};
  return file;
}

TEST(BaselineTest, JsonRoundTripIsLossless) {
  BaselineFile file = MakeBaseline();
  std::string json = file.ToJson();
  std::string error;
  ASSERT_TRUE(JsonLint::IsValid(json, &error)) << error << "\n" << json;

  auto parsed = BaselineFile::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->figure, "fig9");
  ASSERT_EQ(parsed->entries.size(), 2u);
  EXPECT_EQ(parsed->entries[0].key, file.entries[0].key);
  EXPECT_EQ(parsed->entries[0].engine, file.entries[0].engine);
  EXPECT_EQ(parsed->entries[0].machines, 4);
  EXPECT_DOUBLE_EQ(parsed->entries[0].total_seconds, 162.581409);
  EXPECT_DOUBLE_EQ(parsed->entries[0].decomposition.at("barrier-wait"),
                   0.0394);
  // Re-serialization is byte-identical (the committed-baseline property).
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST(BaselineTest, ParseRejectsGarbage) {
  EXPECT_FALSE(BaselineFile::Parse("not json").ok());
  EXPECT_FALSE(BaselineFile::Parse("[1,2,3]").ok());
  EXPECT_FALSE(BaselineFile::Load("/nonexistent/BENCH_x.json").ok());
}

TEST(BaselineTest, CompareFlagsRegressionBeyondThreshold) {
  BaselineFile base = MakeBaseline();
  BaselineFile current = base;
  // Inject a 15% virtual-time regression into the second run.
  current.entries[1].total_seconds *= 1.15;

  BaselineDiff diff = Compare(base, current, 0.10);
  EXPECT_TRUE(diff.failed());
  EXPECT_EQ(diff.regressions, 1);
  ASSERT_EQ(diff.rows.size(), 2u);
  EXPECT_FALSE(diff.rows[0].regression);
  EXPECT_TRUE(diff.rows[1].regression);
  EXPECT_NEAR(diff.rows[1].ratio, 1.15, 1e-9);
  EXPECT_NE(diff.ToString().find("REGRESSED"), std::string::npos);
}

TEST(BaselineTest, CompareToleratesChangesBelowThreshold) {
  BaselineFile base = MakeBaseline();
  BaselineFile current = base;
  current.entries[0].total_seconds *= 1.05;  // +5% < 10% threshold
  current.entries[1].total_seconds *= 0.97;

  BaselineDiff diff = Compare(base, current, 0.10);
  EXPECT_FALSE(diff.failed());
  EXPECT_EQ(diff.regressions, 0);
  EXPECT_EQ(diff.improvements, 0);
}

TEST(BaselineTest, CompareCountsImprovementsAndMembershipChanges) {
  BaselineFile base = MakeBaseline();
  BaselineFile current = base;
  current.entries[1].total_seconds *= 0.5;  // big improvement
  BaselineEntry extra;
  extra.key = "fig9/2/Mitos/8m";
  extra.total_seconds = 50;
  current.entries.push_back(extra);

  BaselineDiff diff = Compare(base, current, 0.10);
  EXPECT_FALSE(diff.failed());
  EXPECT_EQ(diff.improvements, 1);
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0], "fig9/2/Mitos/8m");

  // A run that disappears from the bench is a failure.
  BaselineFile shrunk = base;
  shrunk.entries.pop_back();
  BaselineDiff missing = Compare(base, shrunk, 0.10);
  EXPECT_TRUE(missing.failed());
  ASSERT_EQ(missing.missing.size(), 1u);
  EXPECT_EQ(missing.missing[0], "fig9/1/Mitos/4m");
}

}  // namespace
}  // namespace mitos::obs::analysis
