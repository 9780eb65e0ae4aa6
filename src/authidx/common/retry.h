#ifndef AUTHIDX_COMMON_RETRY_H_
#define AUTHIDX_COMMON_RETRY_H_

#include <cstdint>

#include "authidx/common/random.h"
#include "authidx/common/status.h"

namespace authidx {

/// True when `status` describes a failure worth retrying: the operation
/// might succeed if simply re-run (I/O hiccup, resource pressure).
/// Corruption, invalid input, and violated preconditions are permanent —
/// retrying them would loop on a deterministic failure or, worse, paper
/// over damaged data.
bool IsTransientError(const Status& status);

/// Bounded exponential-backoff retry policy (the client's and the
/// replication follower's). Defaults are tuned for tests (short
/// delays); production embedders raise the delays to real I/O scales.
struct RetryPolicy {
  /// Total tries including the first; 1 disables retrying.
  int max_attempts = 3;
  /// Backoff before the first retry, doubled per subsequent retry.
  uint64_t base_delay_us = 100;
  /// Upper bound the exponential backoff saturates at.
  uint64_t max_delay_us = 10000;
  /// Fraction of each delay that is randomized away ("equal jitter"):
  /// the actual sleep is uniform in [delay*(1-jitter), delay]. Clamped
  /// to [0, 1].
  double jitter = 0.5;
};

/// Backoff for the retry following failed attempt `attempt` (1-based):
/// min(base << (attempt-1), max), jittered per `policy.jitter` using
/// `rng` (deterministic for a fixed seed).
uint64_t RetryBackoffDelayUs(const RetryPolicy& policy, int attempt,
                             Random* rng);

}  // namespace authidx

#endif  // AUTHIDX_COMMON_RETRY_H_
