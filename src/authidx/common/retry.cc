#include "authidx/common/retry.h"

#include <algorithm>

namespace authidx {

bool IsTransientError(const Status& status) {
  // IOError: the device/filesystem may recover (EIO blips, ENOSPC after
  // log rotation, NFS hiccups). ResourceExhausted: pressure that can
  // drain. Everything else is deterministic and must not be retried.
  return status.IsIOError() || status.IsResourceExhausted();
}

uint64_t RetryBackoffDelayUs(const RetryPolicy& policy, int attempt,
                             Random* rng) {
  int shift = std::max(attempt - 1, 0);
  // Saturate the exponential instead of shifting past 63 bits.
  uint64_t delay = policy.max_delay_us;
  if (shift < 63) {
    uint64_t scaled = policy.base_delay_us << shift;
    bool overflowed = policy.base_delay_us != 0 &&
                      (scaled >> shift) != policy.base_delay_us;
    if (!overflowed) {
      delay = std::min(scaled, policy.max_delay_us);
    }
  }
  double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  if (jitter <= 0.0 || delay == 0 || rng == nullptr) {
    return delay;
  }
  // "Equal jitter": keep (1-jitter) of the delay, randomize the rest so
  // simultaneous retriers spread out instead of thundering together.
  uint64_t window = static_cast<uint64_t>(static_cast<double>(delay) * jitter);
  return delay - (window > 0 ? rng->Uniform(window + 1) : 0);
}

}  // namespace authidx
