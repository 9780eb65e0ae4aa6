// Unit tests for the bounded-retry helper (common/retry.h): transient
// classification, exponential backoff shape and jitter bounds.

#include "authidx/common/retry.h"

#include <gtest/gtest.h>


#include "authidx/common/random.h"
#include "authidx/common/status.h"

namespace authidx {
namespace {

TEST(IsTransientErrorTest, ClassifiesCodes) {
  EXPECT_TRUE(IsTransientError(Status::IOError("disk blip")));
  EXPECT_TRUE(IsTransientError(Status::ResourceExhausted("pressure")));
  EXPECT_FALSE(IsTransientError(Status::OK()));
  EXPECT_FALSE(IsTransientError(Status::Corruption("bad crc")));
  EXPECT_FALSE(IsTransientError(Status::InvalidArgument("bad arg")));
  EXPECT_FALSE(IsTransientError(Status::NotFound("gone")));
  EXPECT_FALSE(IsTransientError(Status::FailedPrecondition("closed")));
}

TEST(RetryBackoffTest, DoublesAndSaturatesWithoutJitter) {
  RetryPolicy policy;
  policy.base_delay_us = 100;
  policy.max_delay_us = 1000;
  policy.jitter = 0.0;
  EXPECT_EQ(RetryBackoffDelayUs(policy, 1, nullptr), 100u);
  EXPECT_EQ(RetryBackoffDelayUs(policy, 2, nullptr), 200u);
  EXPECT_EQ(RetryBackoffDelayUs(policy, 3, nullptr), 400u);
  EXPECT_EQ(RetryBackoffDelayUs(policy, 4, nullptr), 800u);
  EXPECT_EQ(RetryBackoffDelayUs(policy, 5, nullptr), 1000u);  // Saturated.
  EXPECT_EQ(RetryBackoffDelayUs(policy, 60, nullptr), 1000u);
  EXPECT_EQ(RetryBackoffDelayUs(policy, 100, nullptr), 1000u);  // No UB shift.
}

TEST(RetryBackoffTest, JitterStaysInsideEqualJitterWindow) {
  RetryPolicy policy;
  policy.base_delay_us = 1000;
  policy.max_delay_us = 100000;
  policy.jitter = 0.5;
  Random rng(42);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    uint64_t full = RetryBackoffDelayUs(
        [&] {
          RetryPolicy unjittered = policy;
          unjittered.jitter = 0.0;
          return unjittered;
        }(),
        attempt, nullptr);
    for (int trial = 0; trial < 100; ++trial) {
      uint64_t delay = RetryBackoffDelayUs(policy, attempt, &rng);
      EXPECT_GE(delay, full / 2);
      EXPECT_LE(delay, full);
    }
  }
}

}  // namespace
}  // namespace authidx
