#include "histogram/algorithm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "data/dataset.h"
#include "histogram/builder.h"

namespace wavemr {
namespace {

void ExpectInvalidMentioning(const Status& s, const std::string& field) {
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find(field), std::string::npos)
      << "message does not name '" << field << "': " << s.message();
}

TEST(BuildOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(BuildOptions().Validate().ok());
}

TEST(BuildOptionsTest, ZeroKIsLegalEmptySynopsis) {
  // k = 0 must stay valid: the edge-case suite relies on it building an
  // empty histogram.
  BuildOptions options;
  options.k = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(BuildOptionsTest, RejectsNonPositiveOrNonFiniteEpsilon) {
  BuildOptions options;
  options.epsilon = 0.0;
  ExpectInvalidMentioning(options.Validate(), "epsilon");
  options.epsilon = -0.5;
  ExpectInvalidMentioning(options.Validate(), "epsilon");
  options.epsilon = std::numeric_limits<double>::quiet_NaN();
  ExpectInvalidMentioning(options.Validate(), "epsilon");
  options.epsilon = std::numeric_limits<double>::infinity();
  ExpectInvalidMentioning(options.Validate(), "epsilon");
}

TEST(BuildOptionsTest, RejectsNegativeThreads) {
  BuildOptions options;
  options.threads = -1;
  ExpectInvalidMentioning(options.Validate(), "threads");
  options.threads = 0;  // 0 = one per hardware thread: valid
  EXPECT_TRUE(options.Validate().ok());
}

TEST(BuildOptionsTest, RejectsNegativeReduceTasks) {
  BuildOptions options;
  options.reduce_tasks = -3;
  ExpectInvalidMentioning(options.Validate(), "reduce_tasks");
  options.reduce_tasks = 0;  // 0 = match map threads: valid
  EXPECT_TRUE(options.Validate().ok());
}

TEST(BuildOptionsTest, RejectsZeroShuffleBuffer) {
  BuildOptions options;
  options.io.shuffle_buffer_bytes = 0;
  ExpectInvalidMentioning(options.Validate(), "shuffle_buffer_bytes");
}

TEST(BuildOptionsTest, BuildWaveletHistogramRunsValidationOnce) {
  InMemoryDataset ds({{0, 1, 2, 3}}, 4);
  BuildOptions options;
  options.threads = -1;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendV, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuildOptionsTest, SuccessfulBuildStampsAlgorithmName) {
  InMemoryDataset ds({{0, 1, 2, 3}, {3, 3, 0, 1}}, 4);
  BuildOptions options;
  options.k = 4;
  auto result = BuildWaveletHistogram(ds, AlgorithmKind::kSendCoef, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->algorithm, "Send-Coef");
}

TEST(ParseAlgorithmKindTest, AcceptsEveryCliSpelling) {
  struct Case {
    const char* spelling;
    AlgorithmKind kind;
  };
  const Case cases[] = {
      {"send-v", AlgorithmKind::kSendV},
      {"send-coef", AlgorithmKind::kSendCoef},
      {"h-wtopk", AlgorithmKind::kHWTopk},
      {"basic-s", AlgorithmKind::kBasicS},
      {"improved-s", AlgorithmKind::kImprovedS},
      {"twolevel-s", AlgorithmKind::kTwoLevelS},
      {"send-sketch", AlgorithmKind::kSendSketch},
  };
  for (const Case& c : cases) {
    auto kind = ParseAlgorithmKind(c.spelling);
    ASSERT_TRUE(kind.ok()) << c.spelling;
    EXPECT_EQ(*kind, c.kind) << c.spelling;
  }
}

TEST(ParseAlgorithmKindTest, RejectsUnknownNameListingChoices) {
  auto kind = ParseAlgorithmKind("wavelets-4-ever");
  ASSERT_FALSE(kind.ok());
  EXPECT_EQ(kind.status().code(), StatusCode::kInvalidArgument);
  // The error should teach the valid spellings.
  EXPECT_NE(kind.status().message().find("twolevel-s"), std::string::npos)
      << kind.status().message();
}

}  // namespace
}  // namespace wavemr
