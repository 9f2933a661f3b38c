// The spill I/O vocabulary in isolation: option validation, the transient
// errno table, and the typed error's message.
#include <gtest/gtest.h>

#include <cerrno>
#include <string>

#include "core/io.h"

namespace wavemr {
namespace {

// ---------------------------------------------------------------------------
// IoOptions::Validate: same message style as BuildOptions::Validate.
// ---------------------------------------------------------------------------

TEST(IoOptionsTest, DefaultsValidate) {
  EXPECT_TRUE(IoOptions().Validate().ok());
}

TEST(IoOptionsTest, RetryBudgetBounds) {
  IoOptions options;
  options.retry.max_attempts = 0;
  auto st = options.Validate();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("IoOptions.retry.max_attempts"),
            std::string::npos);
  options.retry.max_attempts = 1;
  options.retry.backoff_initial_us = -5;
  EXPECT_FALSE(options.Validate().ok());
  options.retry.backoff_initial_us = 0;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(IoRetryPolicyTest, TransientTableIsExactlyTheDocumentedFour) {
  EXPECT_TRUE(IoRetryPolicy::IsTransient(EINTR));
  EXPECT_TRUE(IoRetryPolicy::IsTransient(EAGAIN));
  EXPECT_TRUE(IoRetryPolicy::IsTransient(ENOSPC));
  EXPECT_TRUE(IoRetryPolicy::IsTransient(ENOBUFS));
  EXPECT_FALSE(IoRetryPolicy::IsTransient(EIO));
  EXPECT_FALSE(IoRetryPolicy::IsTransient(EBADF));
  EXPECT_FALSE(IoRetryPolicy::IsTransient(0));
}

// ---------------------------------------------------------------------------
// IoResult
// ---------------------------------------------------------------------------

TEST(IoResultTest, ToStringCarriesOpErrnoAndDetail) {
  IoResult r;
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.ToString(), "ok");
  r.op = IoResult::Op::kChecksum;
  r.detail = "block 3 of /tmp/run-0";
  const std::string s = r.ToString();
  EXPECT_NE(s.find("spill checksum error"), std::string::npos) << s;
  EXPECT_NE(s.find("block 3"), std::string::npos) << s;
  EXPECT_FALSE(r.ToStatus().ok());
}

}  // namespace
}  // namespace wavemr
