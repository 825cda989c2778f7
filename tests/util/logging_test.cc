#include "src/util/logging.h"

#include <gtest/gtest.h>

#include "src/util/check.h"

namespace dz {
namespace {

class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = GlobalLogLevel(); }
  void TearDown() override { GlobalLogLevel() = saved_; }
  LogLevel saved_ = LogLevel::kInfo;
};

TEST_F(LoggingTest, LevelNames) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarning), "WARN");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "ERROR");
}

TEST_F(LoggingTest, SuppressedBelowThreshold) {
  GlobalLogLevel() = LogLevel::kError;
  ::testing::internal::CaptureStderr();
  DZ_LOG(kInfo) << "should not appear";
  DZ_LOG(kError) << "should appear";
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("should not appear"), std::string::npos);
  EXPECT_NE(err.find("should appear"), std::string::npos);
}

TEST_F(LoggingTest, MessageIncludesFileTag) {
  GlobalLogLevel() = LogLevel::kDebug;
  ::testing::internal::CaptureStderr();
  DZ_LOG(kWarning) << "tagged";
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("logging_test.cc"), std::string::npos);
  EXPECT_NE(err.find("[WARN"), std::string::npos);
}

TEST_F(LoggingTest, OffSilencesEverything) {
  GlobalLogLevel() = LogLevel::kOff;
  ::testing::internal::CaptureStderr();
  DZ_LOG(kError) << "silent";
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(CheckDeathTest, FailedCheckAborts) {
  EXPECT_DEATH(DZ_CHECK(1 == 2), "DZ_CHECK failed");
  EXPECT_DEATH(DZ_CHECK_EQ(3, 4), "3 vs 4");
  EXPECT_DEATH(DZ_CHECK_LT(5, 5), "DZ_CHECK failed");
}

TEST(CheckTest, PassingChecksAreSilent) {
  DZ_CHECK(true);
  DZ_CHECK_EQ(1, 1);
  DZ_CHECK_LE(1, 2);
  DZ_CHECK_GE(2, 2);
  DZ_CHECK_NE(1, 2);
  DZ_CHECK_GT(3, 2);
  SUCCEED();
}

}  // namespace
}  // namespace dz
