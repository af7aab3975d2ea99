#include "analysis/spill_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "analysis/compressed_graph.h"
#include "obs/memory.h"

namespace ppn::detail {
namespace {

constexpr char kMagic[8] = {'P', 'P', 'N', 'S', 'P', 'I', 'L', '1'};
constexpr std::uint64_t kHeaderBytes = 24;
constexpr std::uint64_t kRecordBytes = 12;
// Merge/flush I/O granularity, in records.
constexpr std::uint64_t kChunkRecords = 4096;

// Process-wide counter so concurrent explorations in one process never
// collide on run file names.
std::atomic<std::uint64_t> gRunCounter{0};

const std::array<std::uint32_t, 256>& crcTable() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// pwrite/pread may be interrupted by a signal before transferring anything
// (EINTR); that is retried. Any other failure, or a call that transfers 0
// bytes, is an error: a 0-byte pread means the run file is shorter than its
// header says.
void writeAll(int fd, const void* bytes, std::uint64_t n, std::uint64_t at) {
  const auto* p = static_cast<const std::uint8_t*>(bytes);
  while (n > 0) {
    const ssize_t w = ::pwrite(fd, p, n, static_cast<off_t>(at));
    if (w < 0 && errno == EINTR) continue;
    if (w < 0) {
      throw std::runtime_error(std::string("spill run write failed: ") +
                               std::strerror(errno));
    }
    if (w == 0) throw std::runtime_error("spill run write made no progress");
    p += w;
    at += static_cast<std::uint64_t>(w);
    n -= static_cast<std::uint64_t>(w);
  }
}

void readAll(int fd, void* bytes, std::uint64_t n, std::uint64_t at) {
  auto* p = static_cast<std::uint8_t*>(bytes);
  while (n > 0) {
    const ssize_t r = ::pread(fd, p, n, static_cast<off_t>(at));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) {
      throw std::runtime_error(std::string("spill run read failed: ") +
                               std::strerror(errno));
    }
    if (r == 0) throw std::runtime_error("spill run short read");
    p += r;
    at += static_cast<std::uint64_t>(r);
    n -= static_cast<std::uint64_t>(r);
  }
}

void packRecord(std::uint8_t* out, const SpillEntry& e) {
  std::memcpy(out, &e.fp, 8);
  std::memcpy(out + 8, &e.id, 4);
}

SpillEntry unpackRecord(const std::uint8_t* in) {
  SpillEntry e;
  std::memcpy(&e.fp, in, 8);
  std::memcpy(&e.id, in + 8, 4);
  return e;
}

void writeHeader(int fd, std::uint64_t entryCount, std::uint32_t crc) {
  std::uint8_t header[kHeaderBytes];
  std::memcpy(header, kMagic, 8);
  std::memcpy(header + 8, &entryCount, 8);
  std::memcpy(header + 16, &crc, 4);
  std::memset(header + 20, 0, 4);
  writeAll(fd, header, kHeaderBytes, 0);
}

}  // namespace

std::uint32_t crc32(const void* bytes, std::uint64_t n, std::uint32_t seed) {
  const auto& table = crcTable();
  const auto* p = static_cast<const std::uint8_t*>(bytes);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::uint64_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

SpillRunSet::~SpillRunSet() {
  for (Run& run : runs_) closeRun(run);
}

std::uint64_t SpillRunSet::diskBytes() const {
  std::uint64_t total = 0;
  for (const Run& run : runs_) {
    total += kHeaderBytes + run.entryCount * kRecordBytes;
  }
  return total;
}

std::string SpillRunSet::runPath() {
  if (dir_.empty()) {
    dir_ = std::filesystem::temp_directory_path().string();
  } else {
    std::filesystem::create_directories(dir_);
  }
  const std::uint64_t seq = gRunCounter.fetch_add(1);
  return dir_ + "/ppn-spill-" + std::to_string(::getpid()) + "-" +
         std::to_string(seq) + ".run";
}

void SpillRunSet::closeRun(Run& run) {
  if (run.fd >= 0) {
    ::close(run.fd);
    ::unlink(run.path.c_str());
    run.fd = -1;
  }
}

void SpillRunSet::writeRun(const std::vector<SpillEntry>& entries) {
  Run run;
  run.path = runPath();
  run.fd = ::open(run.path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  if (run.fd < 0) throw std::runtime_error("cannot create spill run " + run.path);
  run.entryCount = entries.size();
  run.sampleFps.reserve((entries.size() + kProbeStride - 1) / kProbeStride);

  std::vector<std::uint8_t> payload(entries.size() * kRecordBytes);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    packRecord(payload.data() + i * kRecordBytes, entries[i]);
    if (i % kProbeStride == 0) run.sampleFps.push_back(entries[i].fp);
  }
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  writeHeader(run.fd, run.entryCount, crc);
  writeAll(run.fd, payload.data(), payload.size(), kHeaderBytes);
  runs_.push_back(std::move(run));
}

void SpillRunSet::compact() {
  if (runs_.size() < 2) return;

  // Streaming k-way merge: one bounded read buffer per input run, CRC
  // recomputed over each input as it streams and checked against its header.
  struct Stream {
    const Run* run;
    std::uint64_t next = 0;  // next record index
    std::uint64_t bufStart = 0;
    std::uint64_t bufCount = 0;
    std::uint32_t crc = 0;
    std::vector<std::uint8_t> buf;
    SpillEntry head;
  };
  auto fill = [](Stream& s) {
    if (s.next >= s.run->entryCount) return false;
    if (s.next >= s.bufStart + s.bufCount) {
      s.bufStart = s.next;
      s.bufCount = std::min(kChunkRecords, s.run->entryCount - s.next);
      s.buf.resize(s.bufCount * kRecordBytes);
      readAll(s.run->fd, s.buf.data(), s.buf.size(),
              kHeaderBytes + s.bufStart * kRecordBytes);
      // CRC streams over the payload exactly once, in order.
      s.crc = crc32(s.buf.data(), s.buf.size(), s.crc);
    }
    s.head = unpackRecord(s.buf.data() + (s.next - s.bufStart) * kRecordBytes);
    return true;
  };

  std::vector<Stream> streams;
  streams.reserve(runs_.size());
  std::uint64_t total = 0;
  for (const Run& run : runs_) {
    Stream s;
    s.run = &run;
    total += run.entryCount;
    streams.push_back(std::move(s));
  }

  Run merged;
  merged.path = runPath();
  merged.fd = ::open(merged.path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
  if (merged.fd < 0) {
    throw std::runtime_error("cannot create spill run " + merged.path);
  }
  merged.entryCount = total;
  merged.sampleFps.reserve((total + kProbeStride - 1) / kProbeStride);

  std::vector<std::uint8_t> outBuf;
  outBuf.reserve(kChunkRecords * kRecordBytes);
  std::uint64_t written = 0;
  std::uint64_t outAt = kHeaderBytes;
  std::uint32_t outCrc = 0;
  auto flushOut = [&] {
    if (outBuf.empty()) return;
    outCrc = crc32(outBuf.data(), outBuf.size(), outCrc);
    writeAll(merged.fd, outBuf.data(), outBuf.size(), outAt);
    outAt += outBuf.size();
    outBuf.clear();
  };

  // Prime the streams, dropping exhausted (empty) runs.
  std::vector<Stream*> live;
  for (Stream& s : streams) {
    if (fill(s)) live.push_back(&s);
  }
  while (!live.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < live.size(); ++i) {
      const SpillEntry& a = live[i]->head;
      const SpillEntry& b = live[best]->head;
      if (a.fp < b.fp || (a.fp == b.fp && a.id < b.id)) best = i;
    }
    Stream& s = *live[best];
    if (written % kProbeStride == 0) merged.sampleFps.push_back(s.head.fp);
    outBuf.resize(outBuf.size() + kRecordBytes);
    packRecord(outBuf.data() + outBuf.size() - kRecordBytes, s.head);
    ++written;
    if (outBuf.size() >= kChunkRecords * kRecordBytes) flushOut();
    ++s.next;
    if (!fill(s)) live.erase(live.begin() + static_cast<std::ptrdiff_t>(best));
  }
  flushOut();
  writeHeader(merged.fd, merged.entryCount, outCrc);

  // Verify every fully-streamed input against its stored CRC before
  // dropping it: a corrupt run must fail loudly, not dedup wrongly.
  for (Stream& s : streams) {
    std::uint32_t stored = 0;
    std::uint8_t crcBytes[4];
    readAll(s.run->fd, crcBytes, 4, 16);
    std::memcpy(&stored, crcBytes, 4);
    if (stored != s.crc) {
      ::close(merged.fd);
      ::unlink(merged.path.c_str());
      throw std::runtime_error("spill run CRC mismatch: " + s.run->path);
    }
  }
  for (Run& run : runs_) closeRun(run);
  runs_.clear();
  runs_.push_back(std::move(merged));
}

void SpillRunSet::candidates(std::uint64_t fp,
                             std::vector<std::uint32_t>& out) const {
  out.clear();
  std::uint8_t buf[kProbeStride * kRecordBytes];
  for (const Run& run : runs_) {
    if (run.entryCount == 0 || run.sampleFps.empty()) continue;
    if (fp < run.sampleFps.front()) continue;
    // Start one block before the first sample >= fp: a run of equal
    // fingerprints can begin mid-block and span many blocks, so scan
    // forward until a record exceeds fp or the run ends.
    const auto it = std::lower_bound(run.sampleFps.begin(),
                                     run.sampleFps.end(), fp);
    const std::uint64_t block =
        it == run.sampleFps.begin()
            ? 0
            : static_cast<std::uint64_t>(it - run.sampleFps.begin()) - 1;
    std::uint64_t rec = block * kProbeStride;
    bool done = false;
    while (!done && rec < run.entryCount) {
      const std::uint64_t n = std::min<std::uint64_t>(kProbeStride,
                                                      run.entryCount - rec);
      readAll(run.fd, buf, n * kRecordBytes, kHeaderBytes + rec * kRecordBytes);
      for (std::uint64_t i = 0; i < n; ++i) {
        const SpillEntry e = unpackRecord(buf + i * kRecordBytes);
        if (e.fp > fp) {
          done = true;
          break;
        }
        if (e.fp == fp) out.push_back(e.id);
      }
      rec += n;
    }
  }
}

std::optional<SpillPolicy::Action> SpillPolicy::maybeFlush(
    std::uint32_t interned) {
  if (threshold_ == 0) return std::nullopt;
  const std::uint32_t ram = interned - flushed_;
  if (ram == 0) return std::nullopt;
  if (FpTable::modeledBytesFor(ram) <= threshold_) return std::nullopt;
  Action action;
  action.from = flushed_;
  action.to = interned;
  runEntryCounts_.push_back(ram);
  flushed_ = interned;
  if (runEntryCounts_.size() > kMaxRuns) {
    action.compact = true;
    std::uint64_t total = 0;
    for (const std::uint64_t c : runEntryCounts_) total += c;
    runEntryCounts_.assign(1, total);
  }
  return action;
}

std::uint64_t SpillPolicy::dedupModelBytes(std::uint32_t interned) const {
  std::uint64_t total = FpTable::modeledBytesFor(interned - flushed_);
  for (const std::uint64_t c : runEntryCounts_) {
    const std::uint64_t samples = (c + SpillRunSet::kProbeStride - 1) /
                                  SpillRunSet::kProbeStride;
    total += paddedAllocBytes(samples * 8);
  }
  return total;
}

std::uint64_t SpillPolicy::spillDiskBytes() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : runEntryCounts_) total += 24 + c * 12;
  return total;
}

}  // namespace ppn::detail
