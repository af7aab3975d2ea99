#include "obs/resource_sampler.h"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ppn {

namespace {

/// Ticks-per-second and page size are process-wide constants; cache them.
std::uint64_t clockTicksPerSec() {
#if defined(_SC_CLK_TCK)
  static const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? static_cast<std::uint64_t>(ticks) : 100;
#else
  return 100;
#endif
}

std::uint64_t pageSizeBytes() {
#if defined(_SC_PAGESIZE)
  static const long page = sysconf(_SC_PAGESIZE);
  return page > 0 ? static_cast<std::uint64_t>(page) : 4096;
#else
  return 4096;
#endif
}

bool readWhole(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return !out.empty();
}

}  // namespace

std::optional<ResourceSample> sampleProcessResources(std::int64_t pid) {
  const std::string base = "/proc/" + std::to_string(pid);
  std::string stat;
  if (!readWhole(base + "/stat", stat)) return std::nullopt;

  // /proc/<pid>/stat: "pid (comm) state ppid ..." — comm may contain spaces
  // and parentheses, so fields are counted from the LAST ')'.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream fields(stat.substr(close + 1));
  // After ')' the next field is #3 (state); utime/stime are fields 14/15.
  std::string state;
  fields >> state;
  // A zombie is a dead shard awaiting its waitpid: its memory is already
  // reclaimed (rss reads 0), so a sample would be noise, not telemetry.
  if (state == "Z") return std::nullopt;
  std::uint64_t utimeTicks = 0, stimeTicks = 0;
  for (int field = 4; field <= 15 && fields; ++field) {
    if (field == 14) {
      fields >> utimeTicks;
    } else if (field == 15) {
      fields >> stimeTicks;
    } else {
      std::string skip;
      fields >> skip;
    }
  }
  if (!fields) return std::nullopt;

  ResourceSample sample;
  sample.pid = pid;
  const std::uint64_t ticks = clockTicksPerSec();
  sample.utimeMillis = utimeTicks * 1000 / ticks;
  sample.stimeMillis = stimeTicks * 1000 / ticks;

  // The process can exit between the stat read above and this one; its
  // statm then reads RSS 0 (or is gone). A live process always has resident
  // pages, so such a sample is dropped like a zombie's.
  std::string statm;
  if (!readWhole(base + "/statm", statm)) return std::nullopt;
  {
    std::istringstream mem(statm);
    std::uint64_t vsizePages = 0, rssPages = 0;
    if (!(mem >> vsizePages >> rssPages) || rssPages == 0) return std::nullopt;
    sample.vsizeBytes = vsizePages * pageSizeBytes();
    sample.rssBytes = rssPages * pageSizeBytes();
  }

  std::string io;
  if (readWhole(base + "/io", io)) {
    std::istringstream lines(io);
    std::string line;
    bool sawRead = false, sawWrite = false;
    while (std::getline(lines, line)) {
      std::istringstream kv(line);
      std::string key;
      std::uint64_t value = 0;
      if (!(kv >> key >> value)) continue;
      if (key == "read_bytes:") {
        sample.readBytes = value;
        sawRead = true;
      } else if (key == "write_bytes:") {
        sample.writeBytes = value;
        sawWrite = true;
      }
    }
    sample.ioAvailable = sawRead && sawWrite;
  }
  return sample;
}

std::vector<std::pair<std::uint32_t, ResourceSample>> ResourceSampler::sample(
    const std::vector<std::pair<std::uint32_t, std::int64_t>>& pids,
    Clock::time_point now) {
  std::vector<std::pair<std::uint32_t, ResourceSample>> out;
  if (intervalMillis_ == 0) {
    tracked_.clear();
    return out;
  }
  // Forget pids no longer offered, so a recycled pid starts from a fresh
  // baseline instead of inheriting the dead shard's CPU counters.
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    const std::int64_t pid = it->first;
    const bool offered =
        std::any_of(pids.begin(), pids.end(),
                    [pid](const auto& p) { return p.second == pid; });
    it = offered ? std::next(it) : tracked_.erase(it);
  }
  for (const auto& [tag, pid] : pids) {
    const auto it = tracked_.find(pid);
    if (it != tracked_.end()) {
      const auto sinceLast = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 now - it->second.lastSampleAt)
                                 .count();
      if (sinceLast >= 0 &&
          static_cast<std::uint64_t>(sinceLast) < intervalMillis_) {
        continue;
      }
    }
    auto sampled = sampleProcessResources(pid);
    if (!sampled.has_value()) {
      tracked_.erase(pid);  // exited between the poll and the /proc read
      continue;
    }
    const std::uint64_t cpuMillis = sampled->utimeMillis + sampled->stimeMillis;
    if (it != tracked_.end()) {
      const double wallMillis =
          std::chrono::duration<double, std::milli>(now -
                                                    it->second.lastSampleAt)
              .count();
      const std::uint64_t cpuDelta =
          cpuMillis >= it->second.lastCpuMillis
              ? cpuMillis - it->second.lastCpuMillis
              : 0;
      if (wallMillis > 0.0) {
        sampled->cpuPermille = static_cast<std::uint32_t>(
            1000.0 * static_cast<double>(cpuDelta) / wallMillis + 0.5);
      }
    }
    tracked_[pid] = PidState{now, cpuMillis};
    out.emplace_back(tag, *sampled);
  }
  return out;
}

}  // namespace ppn
