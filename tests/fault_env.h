#ifndef AUTHIDX_TESTS_FAULT_ENV_H_
#define AUTHIDX_TESTS_FAULT_ENV_H_

// Systematic fault-injection Env for storage robustness tests (see
// docs/ROBUSTNESS.md).
//
// FaultEnv decorates a real Env and counts every write-path operation
// the engine issues — file creation, append, flush, sync, close, atomic
// replace, remove, rename, mkdir — in one global sequence. A *fault
// plan* then picks which of those ops fail:
//
//   FailFrom(k)              op k and everything after it fails (a disk
//                            that dies and stays dead — the model the
//                            crash-consistency sweep uses)
//   FailAllFromNow()         FailFrom(current op index)
//   FailOnceAt(k)            only op k fails (a transient blip; the
//                            engine's retry should absorb it)
//   FailWithProbability(p,s) each op independently fails with
//                            probability p (deterministic for seed s)
//   StopFailing()            clears the plan, keeps the counters
//
// With set_torn_writes(true), a failing Append writes a prefix of the
// data to the underlying file — flushed and synced, like a device that
// tore the final sector — before reporting the error. A failing
// WriteStringToFileSync never touches the destination, matching the
// temp-file+rename implementation it stands in for.
//
// Read-path operations always pass through: the harness tests write
// durability and the read-only degradation contract, so reads must keep
// working while writes fail.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "authidx/common/env.h"
#include "authidx/common/random.h"

namespace authidx::tests {

class FaultEnv final : public Env {
 public:
  explicit FaultEnv(Env* base = nullptr)
      : base_(base != nullptr ? base : Env::Default()) {}

  // --- fault plan ---
  // All plan state is guarded by one mutex: writers on several threads
  // consult the plan concurrently, and the op counter must stay a
  // single global sequence.
  void FailFrom(uint64_t k) {
    std::lock_guard<std::mutex> lock(mu_);
    mode_ = Mode::kFailFrom;
    target_ = k;
  }
  void FailAllFromNow() {
    std::lock_guard<std::mutex> lock(mu_);
    mode_ = Mode::kFailFrom;
    target_ = write_ops_;
  }
  void FailOnceAt(uint64_t k) {
    std::lock_guard<std::mutex> lock(mu_);
    mode_ = Mode::kFailOnce;
    target_ = k;
  }
  void FailWithProbability(double p, uint64_t seed) {
    std::lock_guard<std::mutex> lock(mu_);
    mode_ = Mode::kProbabilistic;
    probability_ = p;
    rng_ = Random(seed);
  }
  void StopFailing() {
    std::lock_guard<std::mutex> lock(mu_);
    mode_ = Mode::kNone;
    fail_removes_ = false;
  }
  void set_torn_writes(bool torn) {
    std::lock_guard<std::mutex> lock(mu_);
    torn_writes_ = torn;
  }
  /// Orthogonal to the plan: every RemoveFile fails (tests best-effort
  /// GC in isolation while all other ops keep succeeding).
  void set_fail_removes(bool fail) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_removes_ = fail;
  }

  /// Write-path ops observed so far (the index space FailFrom/FailOnceAt
  /// select from).
  uint64_t write_ops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return write_ops_;
  }
  /// Ops that were made to fail.
  uint64_t faults_injected() const {
    std::lock_guard<std::mutex> lock(mu_);
    return faults_;
  }

  // --- Env ---
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    if (NextOpFails()) {
      return Status::IOError("injected open failure: " + path);
    }
    AUTHIDX_ASSIGN_OR_RETURN(auto base, base_->NewWritableFile(path));
    return std::unique_ptr<WritableFile>(
        std::make_unique<FaultyWritableFile>(std::move(base), this));
  }
  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    return base_->NewRandomAccessFile(path);
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  Status WriteStringToFileSync(const std::string& path,
                               std::string_view data) override {
    if (NextOpFails()) {
      // The real implementation is temp-file + sync + rename, so a torn
      // write tears the temp file and the destination stays intact.
      return Status::IOError("injected atomic-write failure: " + path);
    }
    return base_->WriteStringToFileSync(path, data);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    return base_->ListDir(dir);
  }
  Status RemoveFile(const std::string& path) override {
    bool planned = NextOpFails();
    bool forced = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      forced = fail_removes_;
      if (!planned && forced) {
        ++faults_;
      }
    }
    if (planned || forced) {
      return Status::IOError("injected remove failure: " + path);
    }
    return base_->RemoveFile(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    if (NextOpFails()) {
      return Status::IOError("injected rename failure: " + from);
    }
    return base_->RenameFile(from, to);
  }
  Status CreateDirIfMissing(const std::string& dir) override {
    if (NextOpFails()) {
      return Status::IOError("injected mkdir failure: " + dir);
    }
    return base_->CreateDirIfMissing(dir);
  }
  Result<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }

 private:
  enum class Mode { kNone, kFailFrom, kFailOnce, kProbabilistic };

  class FaultyWritableFile final : public WritableFile {
   public:
    FaultyWritableFile(std::unique_ptr<WritableFile> base, FaultEnv* env)
        : base_(std::move(base)), env_(env) {}

    Status Append(std::string_view data) override {
      if (env_->NextOpFails()) {
        if (env_->torn_writes() && !data.empty()) {
          // Half the payload reaches the platter before the device
          // dies; recovery must detect and discard the torn record.
          base_->Append(data.substr(0, data.size() / 2)).IgnoreError();
          base_->Flush().IgnoreError();
          base_->Sync().IgnoreError();
        }
        return Status::IOError("injected append failure");
      }
      return base_->Append(data);
    }
    Status Flush() override {
      if (env_->NextOpFails()) {
        return Status::IOError("injected flush failure");
      }
      return base_->Flush();
    }
    Status Sync() override {
      if (env_->NextOpFails()) {
        return Status::IOError("injected sync failure");
      }
      return base_->Sync();
    }
    Status Close() override {
      if (env_->NextOpFails()) {
        // Still close the descriptor: a failed close leaks nothing, it
        // just reports that buffered bytes may not have made it.
        base_->Close().IgnoreError();
        return Status::IOError("injected close failure");
      }
      return base_->Close();
    }

   private:
    std::unique_ptr<WritableFile> base_;
    FaultEnv* env_;
  };

  bool torn_writes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return torn_writes_;
  }

  // One global decision point: assigns the op its index and consults
  // the plan.
  bool NextOpFails() {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t index = write_ops_++;
    bool fail = false;
    switch (mode_) {
      case Mode::kNone:
        break;
      case Mode::kFailFrom:
        fail = index >= target_;
        break;
      case Mode::kFailOnce:
        fail = index == target_;
        break;
      case Mode::kProbabilistic:
        fail = rng_.NextDouble() < probability_;
        break;
    }
    if (fail) {
      ++faults_;
    }
    return fail;
  }

  Env* base_;
  mutable std::mutex mu_;
  Mode mode_ = Mode::kNone;
  uint64_t target_ = 0;
  double probability_ = 0.0;
  Random rng_{0};
  bool torn_writes_ = false;
  bool fail_removes_ = false;
  uint64_t write_ops_ = 0;
  uint64_t faults_ = 0;
};

}  // namespace authidx::tests

#endif  // AUTHIDX_TESTS_FAULT_ENV_H_
