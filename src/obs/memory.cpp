#include "obs/memory.h"

#include <fstream>

#include "util/json.h"

namespace ppn {

const char* memoryComponentName(MemoryComponent c) {
  switch (c) {
    case MemoryComponent::kConfigs:
      return "configs";
    case MemoryComponent::kAdjacency:
      return "adjacency";
    case MemoryComponent::kDedup:
      return "dedup";
    case MemoryComponent::kFrontier:
      return "frontier";
    case MemoryComponent::kCodec:
      return "codec";
  }
  return "?";
}

void MemoryStatsCollector::onMemorySample(const MemorySampleEvent& e) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] =
      rows_.try_emplace(e.exploreId, Row{e, e.totalBytes});
  if (inserted) return;
  Row& row = it->second;
  row.last = e;
  if (e.totalBytes > row.peakTotalBytes) row.peakTotalBytes = e.totalBytes;
}

std::uint64_t MemoryStatsCollector::explorations() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

std::uint64_t MemoryStatsCollector::peakTotalBytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t peak = 0;
  for (const auto& [id, row] : rows_) {
    if (row.peakTotalBytes > peak) peak = row.peakTotalBytes;
  }
  return peak;
}

std::optional<MemorySampleEvent> MemoryStatsCollector::lastSample(
    std::uint64_t exploreId) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = rows_.find(exploreId);
  if (it == rows_.end()) return std::nullopt;
  return it->second.last;
}

bool MemoryStatsCollector::writeJson(const std::string& path) const {
  JsonWriter w;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    w.beginObject();
    w.key("kind").value("ppn-memory-stats");
    w.key("explorations").value(static_cast<std::uint64_t>(rows_.size()));
    std::uint64_t peak = 0;
    for (const auto& [id, row] : rows_) {
      if (row.peakTotalBytes > peak) peak = row.peakTotalBytes;
    }
    w.key("peak_total_bytes").value(peak);
    w.key("rows").beginArray();
    for (const auto& [id, row] : rows_) {
      w.beginObject();
      w.key("explore").value(id);
      w.key("configs_bytes").value(row.last.configsBytes);
      w.key("adjacency_bytes").value(row.last.adjacencyBytes);
      w.key("dedup_bytes").value(row.last.dedupBytes);
      w.key("frontier_bytes").value(row.last.frontierBytes);
      w.key("codec_bytes").value(row.last.codecBytes);
      w.key("total_bytes").value(row.last.totalBytes);
      w.key("high_water_bytes").value(row.last.highWaterBytes);
      w.key("spill_bytes").value(row.last.spillBytes);
      w.key("spill_runs").value(row.last.spillRuns);
      w.key("peak_total_bytes").value(row.peakTotalBytes);
      w.key("done").value(row.last.done);
      w.endObject();
    }
    w.endArray();
    w.endObject();
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

}  // namespace ppn
