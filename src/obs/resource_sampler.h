// Per-process resource telemetry for the campaign orchestrator.
//
// The orchestrator is the only process with a stable view of every shard
// worker (it forked them), so resource sampling lives HERE, not in the
// shards: a hung or wedged shard cannot report its own memory use, and the
// whole point of the telemetry is to explain exactly those shards (DESIGN.md
// decision 16). sampleProcessResources reads /proc/<pid>/{stat,statm,io} —
// RSS/vsize, utime/stime, cumulative read/write bytes — and degrades
// gracefully where /proc is absent (non-Linux) or a field is unreadable
// (/proc/<pid>/io needs the reader to own the process, which the orchestrator
// does; other readers see ioAvailable = false).
//
// ResourceSampler adds the per-pid cadence and CPU% derivation: each tracked
// pid is sampled immediately when first seen (so even a sub-interval campaign
// records a baseline for every shard) and then once per `intervalMillis`;
// cpuPermille is the utime+stime delta over the wall-clock delta between
// consecutive samples of the same pid (0 on the baseline sample, 1000 = one
// full core). State for pids that stop being offered (shard exited) is
// dropped, so a recycled OS pid never inherits a stale CPU baseline.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ppn {

/// One point-in-time resource reading of a live process.
struct ResourceSample {
  std::int64_t pid = 0;
  std::uint64_t rssBytes = 0;    ///< resident set (statm, pages * page size)
  std::uint64_t vsizeBytes = 0;  ///< virtual size (statm)
  std::uint64_t utimeMillis = 0; ///< cumulative user CPU (stat, ticks -> ms)
  std::uint64_t stimeMillis = 0; ///< cumulative system CPU
  std::uint64_t readBytes = 0;   ///< cumulative storage reads (io)
  std::uint64_t writeBytes = 0;  ///< cumulative storage writes (io)
  bool ioAvailable = false;      ///< /proc/<pid>/io was readable
  /// CPU usage since the previous sample of this pid, in permille of one
  /// core (derived by ResourceSampler; 0 when sampled standalone).
  std::uint32_t cpuPermille = 0;
};

/// Reads /proc/<pid>/{stat,statm,io}. nullopt when the process does not
/// exist, is a zombie (exited, not yet reaped — its memory is reclaimed and
/// every gauge would read 0), exits between the stat and statm reads (statm
/// then reads RSS 0), or /proc is unavailable (the caller treats all of
/// these as "shard already exited", never as an error).
std::optional<ResourceSample> sampleProcessResources(std::int64_t pid);

class ResourceSampler {
 public:
  using Clock = std::chrono::steady_clock;

  /// `intervalMillis` = 0 disables sampling entirely (sample() returns
  /// nothing and touches no /proc file).
  explicit ResourceSampler(std::uint64_t intervalMillis)
      : intervalMillis_(intervalMillis) {}

  std::uint64_t intervalMillis() const { return intervalMillis_; }

  /// Samples every offered (tag, pid) whose per-pid interval has elapsed
  /// (immediately for a pid never seen before). `tag` is an opaque caller
  /// label carried back with the sample (the orchestrator passes the shard
  /// index). Tracking state for pids absent from `pids` is forgotten.
  std::vector<std::pair<std::uint32_t, ResourceSample>> sample(
      const std::vector<std::pair<std::uint32_t, std::int64_t>>& pids,
      Clock::time_point now = Clock::now());

 private:
  struct PidState {
    Clock::time_point lastSampleAt{};
    std::uint64_t lastCpuMillis = 0;
  };

  const std::uint64_t intervalMillis_;
  std::unordered_map<std::int64_t, PidState> tracked_;
};

}  // namespace ppn
