// Compressed ConfigGraph storage (DESIGN decision 19).
//
// The explicit representation costs 330-430 bytes per node (BENCH_explore
// _memory.json): a heap std::vector<StateId> per configuration, a
// std::vector<Edge> per adjacency list and an unordered_map node per dedup
// entry. The three stores in this header replace all of it:
//
//  * ConfigStore   — packed configurations (packed_config.h byte images,
//    fixed width W) delta-coded against their id-predecessor: BFS neighbours
//    share long byte prefixes/suffixes under the canonical ordering, so most
//    nodes cost a 2-byte (prefix, suffix) varint header plus a few changed
//    middle bytes. Every kSampleStride-th node is stored raw with its blob
//    offset in a sample index, so random access decodes at most
//    kSampleStride - 1 deltas.
//  * EdgeStreamStore — per-node edge lists as self-delimiting varint
//    streams: a byte-length header (for skip-scans from the sampled index),
//    an edge count, then per edge one flags byte, a zigzag-varint target
//    delta (seeded with the source id) and, for concrete graphs, the
//    initiator/responder pair. Pair labels are not stored: they are a pure
//    function of (initiator, responder, numParticipants).
//  * FpTable       — the RAM tier of the two-tier dedup table: open-addressed
//    (fingerprint, id) slots with NO stored key bytes. A fingerprint hit is
//    confirmed by decoding the candidate id from the ConfigStore and
//    comparing bytes, so 64-bit collisions cost a probe, never a wrong id.
//
// All three grow through ByteBuf, whose capacity is pinned to
// grownCapacity(size), so the PR 18 malloc-chunk model prices them exactly:
// modeledBytes() of a store equals the padded bytes of its real allocations.
// Everything is engine-agnostic and const-thread-safe: the parallel
// explorer's workers decode concurrently between level barriers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/packed_config.h"
#include "core/configuration.h"
#include "obs/memory.h"

namespace ppn::detail {

// ---------------------------------------------------------------------------
// Varint primitives (LEB128; zigzag for signed deltas).

inline void appendVarint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

inline std::uint64_t readVarint(const std::uint8_t* p, std::uint64_t& pos) {
  std::uint64_t v = 0;
  std::uint32_t shift = 0;
  for (;;) {
    const std::uint8_t b = p[pos++];
    v |= std::uint64_t{b & 0x7fu} << shift;
    if ((b & 0x80u) == 0) return v;
    shift += 7;
  }
}

/// Writes v's varint at `out` (room for 10 bytes) and returns its length.
inline std::uint32_t writeVarint(std::uint8_t* out, std::uint64_t v) {
  std::uint32_t n = 0;
  while (v >= 0x80) {
    out[n++] = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  out[n++] = static_cast<std::uint8_t>(v);
  return n;
}

inline std::uint32_t varintSize(std::uint64_t v) {
  std::uint32_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

inline std::uint64_t zigzagEncode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t zigzagDecode(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

// ---------------------------------------------------------------------------
// ByteBuf: append-only byte buffer whose capacity is exactly
// grownCapacity(size), so paddedAllocBytes(capacity) is both the modeled AND
// the real allocation (the malloc request is the capacity itself).

class ByteBuf {
 public:
  void append(const void* bytes, std::uint64_t n) {
    ensure(size_ + n);
    std::memcpy(data_.get() + size_, bytes, n);
    size_ += n;
  }
  void appendU64(std::uint64_t v) { append(&v, sizeof(v)); }
  std::uint64_t u64At(std::uint64_t index) const {
    std::uint64_t v;
    std::memcpy(&v, data_.get() + index * sizeof(v), sizeof(v));
    return v;
  }
  const std::uint8_t* data() const { return data_.get(); }
  std::uint64_t size() const { return size_; }
  std::uint64_t modeledBytes() const { return paddedAllocBytes(cap_); }
  /// Modeled bytes of a ByteBuf holding `size` bytes — the closed form the
  /// parallel cut replay prices future states with.
  static std::uint64_t modeledBytesFor(std::uint64_t size) {
    return size == 0 ? 0 : paddedAllocBytes(grownCapacity(size));
  }

 private:
  void ensure(std::uint64_t need) {
    if (need <= cap_) return;
    const std::uint64_t newCap = grownCapacity(need);
    std::unique_ptr<std::uint8_t[]> grown(new std::uint8_t[newCap]);
    if (size_ != 0) std::memcpy(grown.get(), data_.get(), size_);
    data_ = std::move(grown);
    cap_ = newCap;
  }

  std::unique_ptr<std::uint8_t[]> data_;
  std::uint64_t size_ = 0;
  std::uint64_t cap_ = 0;
};

// ---------------------------------------------------------------------------
// ConfigStore: delta-coded fixed-width records with a sampled raw index.

class ConfigStore {
 public:
  /// Raw records (delta-chain restarts) every this many nodes: random access
  /// decodes at most kSampleStride - 1 deltas after one sample lookup.
  static constexpr std::uint32_t kSampleStride = 32;

  void init(std::uint32_t widthBytes) {
    width_ = widthBytes;
    tail_.assign(width_, 0);
  }
  std::uint32_t width() const { return width_; }
  std::uint32_t count() const { return count_; }
  std::uint64_t blobBytes() const { return blob_.size(); }

  /// Appends the packed image of node id == count(). `bytes` must hold
  /// width() bytes.
  void append(const std::uint8_t* bytes) {
    if (count_ % kSampleStride == 0) {
      samples_.appendU64(blob_.size());
      blob_.append(bytes, width_);
    } else {
      appendDelta(tail_.data(), bytes);
    }
    std::memcpy(tail_.data(), bytes, width_);
    ++count_;
  }

  /// Decodes node `id` into `out` (width() bytes). Thread-safe: const and
  /// touches no mutable state.
  void decode(std::uint32_t id, std::uint8_t* out) const {
    const std::uint32_t s = id / kSampleStride;
    std::uint64_t pos = samples_.u64At(s);
    const std::uint8_t* blob = blob_.data();
    std::memcpy(out, blob + pos, width_);
    pos += width_;
    for (std::uint32_t j = s * kSampleStride + 1; j <= id; ++j) {
      applyDelta(blob, pos, out, width_);
    }
  }

  /// Sequential reader: at(id) is O(1 delta) when ids ascend by one (the BFS
  /// expansion order), falling back to a sampled decode on any other jump.
  /// Holds no pointers into the blob, so interleaved append() calls are fine.
  /// The decoded record lives in a PackedConfig, inline up to
  /// PackedConfig::kInlineBytes, so a cursor is pinned in place (no copy or
  /// move) and a narrow one never touches the heap.
  class Cursor {
   public:
    Cursor() = default;
    explicit Cursor(const ConfigStore& store) { reset(store); }
    Cursor(const Cursor&) = delete;
    Cursor& operator=(const Cursor&) = delete;

    /// Rebinds to `store` (the serial explorer keeps one cursor per thread
    /// across explorations).
    void reset(const ConfigStore& store) {
      store_ = &store;
      buf_ = record_.allocate(store.width());
      have_ = false;
    }

    const std::uint8_t* at(std::uint32_t id) {
      if (have_ && id == cur_) return buf_;
      if (have_ && id == cur_ + 1 && id % kSampleStride != 0 &&
          id < store_->count_) {
        store_->applyDelta(store_->blob_.data(), pos_, buf_, store_->width_);
        cur_ = id;
        return buf_;
      }
      // Restart from the sample at or below id, then walk forward.
      const std::uint32_t s = id / kSampleStride;
      pos_ = store_->samples_.u64At(s);
      std::memcpy(buf_, store_->blob_.data() + pos_, store_->width_);
      pos_ += store_->width_;
      for (std::uint32_t j = s * kSampleStride + 1; j <= id; ++j) {
        store_->applyDelta(store_->blob_.data(), pos_, buf_, store_->width_);
      }
      cur_ = id;
      have_ = true;
      return buf_;
    }

   private:
    const ConfigStore* store_ = nullptr;
    PackedConfig record_;
    std::uint8_t* buf_ = nullptr;
    std::uint64_t pos_ = 0;
    std::uint32_t cur_ = 0;
    bool have_ = false;
  };

  /// Dry-run encoder: prices the append sequence of future nodes without
  /// touching the store (the parallel cut replay walks one of these over the
  /// level's pending entries in stream order).
  class SizeSim {
   public:
    SizeSim(std::uint32_t count, std::uint64_t blobBytes,
            std::vector<std::uint8_t> tail)
        : count_(count), blobBytes_(blobBytes), tail_(std::move(tail)) {}

    /// Returns the blob growth of appending `bytes`, and advances.
    std::uint64_t append(const std::uint8_t* bytes) {
      const auto width = static_cast<std::uint32_t>(tail_.size());
      std::uint64_t added;
      if (count_ % kSampleStride == 0) {
        added = width;
      } else {
        added = deltaSize(tail_.data(), bytes, width);
      }
      std::memcpy(tail_.data(), bytes, width);
      ++count_;
      blobBytes_ += added;
      return added;
    }
    std::uint64_t blobBytes() const { return blobBytes_; }

   private:
    std::uint32_t count_;
    std::uint64_t blobBytes_;
    std::vector<std::uint8_t> tail_;
  };

  SizeSim sizeSim() const { return SizeSim(count_, blob_.size(), tail_); }

  std::uint64_t modeledBytes() const {
    return blob_.modeledBytes() + samples_.modeledBytes();
  }
  /// Closed form of modeledBytes() at `count` nodes whose blob holds
  /// `blobBytes` — engine-invariant, used by the parallel cut replay.
  static std::uint64_t modeledBytesAt(std::uint64_t count,
                                      std::uint64_t blobBytes) {
    const std::uint64_t sampleBytes =
        (count + kSampleStride - 1) / kSampleStride * 8;
    return ByteBuf::modeledBytesFor(blobBytes) +
           ByteBuf::modeledBytesFor(sampleBytes);
  }

 private:
  /// Appends the delta record of `next` against `prev`: varint(shared
  /// prefix), varint(shared suffix), raw middle.
  void appendDelta(const std::uint8_t* prev, const std::uint8_t* next) {
    const std::uint32_t width = width_;
    std::uint32_t prefix = 0;
    while (prefix < width && prev[prefix] == next[prefix]) ++prefix;
    std::uint32_t suffix = 0;
    while (suffix < width - prefix &&
           prev[width - 1 - suffix] == next[width - 1 - suffix]) {
      ++suffix;
    }
    std::uint8_t header[20];
    std::uint32_t len = writeVarint(header, prefix);
    len += writeVarint(header + len, suffix);
    blob_.append(header, len);
    blob_.append(next + prefix, width - prefix - suffix);
  }

  static std::uint64_t deltaSize(const std::uint8_t* prev,
                                 const std::uint8_t* next,
                                 std::uint32_t width) {
    std::uint32_t prefix = 0;
    while (prefix < width && prev[prefix] == next[prefix]) ++prefix;
    std::uint32_t suffix = 0;
    while (suffix < width - prefix &&
           prev[width - 1 - suffix] == next[width - 1 - suffix]) {
      ++suffix;
    }
    return std::uint64_t{varintSize(prefix)} + varintSize(suffix) +
           (width - prefix - suffix);
  }

  /// Applies the delta record at `pos` onto `buf` in place; advances pos.
  void applyDelta(const std::uint8_t* blob, std::uint64_t& pos,
                  std::uint8_t* buf, std::uint32_t width) const {
    const auto prefix = static_cast<std::uint32_t>(readVarint(blob, pos));
    const auto suffix = static_cast<std::uint32_t>(readVarint(blob, pos));
    const std::uint32_t mid = width - prefix - suffix;
    std::memcpy(buf + prefix, blob + pos, mid);
    pos += mid;
  }

  std::uint32_t width_ = 0;
  std::uint32_t count_ = 0;
  ByteBuf blob_;
  ByteBuf samples_;                  // blob offset of every kSampleStride-th node
  std::vector<std::uint8_t> tail_;   // raw bytes of the last appended node
};

// ---------------------------------------------------------------------------
// EdgeStreamStore: per-node self-delimiting varint edge streams.

/// The wire form of one edge, label-free (labels are recomputed from the
/// oriented pair; canonical graphs carry none).
struct RawEdge {
  std::uint32_t to = 0;
  std::uint8_t flags = 0;  // bit0 changed, bit1 changedMobile, bit2 changedName
  std::uint16_t initiator = 0;
  std::uint16_t responder = 0;
};

class EdgeStreamStore {
 public:
  /// Stream-offset samples every this many nodes; a lookup skip-scans at
  /// most kSampleStride - 1 byte-length headers.
  static constexpr std::uint32_t kSampleStride = 16;

  void init(bool concrete) { concrete_ = concrete; }
  bool concrete() const { return concrete_; }
  std::uint32_t streamCount() const { return streams_; }
  std::uint64_t blobBytes() const { return blob_.size(); }

  /// Encodes the body of node `nodeId`'s stream: varint edge count, then per
  /// edge flags / zigzag target delta (seeded with nodeId) / concrete
  /// initiator+responder. `get(k)` returns the k-th RawEdge.
  template <class Get>
  static void encodeBody(std::vector<std::uint8_t>& out, std::uint32_t nodeId,
                         std::uint32_t count, bool concrete, Get&& get) {
    out.clear();
    appendVarint(out, count);
    std::int64_t prev = nodeId;
    for (std::uint32_t k = 0; k < count; ++k) {
      const RawEdge e = get(k);
      out.push_back(e.flags);
      appendVarint(out, zigzagEncode(std::int64_t{e.to} - prev));
      prev = e.to;
      if (concrete) {
        appendVarint(out, e.initiator);
        appendVarint(out, e.responder);
      }
    }
  }

  /// Appends the pre-encoded body of node `nodeId`; streams must be appended
  /// in ascending id order starting at 0 (the BFS expansion order).
  void appendStream(std::uint32_t nodeId, const std::vector<std::uint8_t>& body) {
    (void)nodeId;  // == streams_ by the append-in-expansion-order contract
    if (streams_ % kSampleStride == 0) samples_.appendU64(blob_.size());
    std::uint8_t header[10];
    blob_.append(header, writeVarint(header, body.size()));
    blob_.append(body.data(), body.size());
    ++streams_;
  }

  /// Blob growth of appending a body of `bodyBytes` bytes (the byte-length
  /// header plus the body) — for the parallel cut replay.
  static std::uint64_t streamBlobBytes(std::uint64_t bodyBytes) {
    return varintSize(bodyBytes) + bodyBytes;
  }

  /// Visits node `id`'s edges as fn(const RawEdge&). Nodes never expanded
  /// (id >= streamCount(), the truncated frontier) have no edges.
  template <class Fn>
  void forEachEdgeRaw(std::uint32_t id, Fn&& fn) const {
    if (id >= streams_) return;
    std::uint64_t pos = bodyStart(id);
    const std::uint8_t* blob = blob_.data();
    const auto count = static_cast<std::uint32_t>(readVarint(blob, pos));
    std::int64_t prev = id;
    for (std::uint32_t k = 0; k < count; ++k) {
      RawEdge e;
      e.flags = blob[pos++];
      prev += zigzagDecode(readVarint(blob, pos));
      e.to = static_cast<std::uint32_t>(prev);
      if (concrete_) {
        e.initiator = static_cast<std::uint16_t>(readVarint(blob, pos));
        e.responder = static_cast<std::uint16_t>(readVarint(blob, pos));
      }
      fn(e);
    }
  }

  std::size_t edgeCount(std::uint32_t id) const {
    if (id >= streams_) return 0;
    std::uint64_t pos = bodyStart(id);
    return readVarint(blob_.data(), pos);
  }

  std::uint64_t modeledBytes() const {
    return blob_.modeledBytes() + samples_.modeledBytes();
  }
  static std::uint64_t modeledBytesAt(std::uint64_t streams,
                                      std::uint64_t blobBytes) {
    const std::uint64_t sampleBytes =
        (streams + kSampleStride - 1) / kSampleStride * 8;
    return ByteBuf::modeledBytesFor(blobBytes) +
           ByteBuf::modeledBytesFor(sampleBytes);
  }

 private:
  std::uint64_t bodyStart(std::uint32_t id) const {
    std::uint64_t pos = samples_.u64At(id / kSampleStride);
    const std::uint8_t* blob = blob_.data();
    for (std::uint32_t j = (id / kSampleStride) * kSampleStride; j < id; ++j) {
      pos += readVarint(blob, pos);  // skip a whole stream by its byte length
    }
    readVarint(blob, pos);  // this stream's byte length
    return pos;
  }

  bool concrete_ = false;
  std::uint32_t streams_ = 0;
  ByteBuf blob_;
  ByteBuf samples_;
};

// ---------------------------------------------------------------------------
// FpTable: RAM tier of the two-tier dedup table.

class FpTable {
 public:
  /// Reserved id marking an empty slot; interned node ids never reach it.
  static constexpr std::uint32_t kEmptySlot = 0xffffffffu;

  std::uint64_t size() const { return count_; }

  /// Capacity rule: twice the grown power of two (load factor <= 0.5), with
  /// a small floor. A pure function of the entry count, so serial and
  /// parallel runs price the table identically whatever their physical
  /// sharding.
  static std::uint64_t capacityFor(std::uint64_t entries) {
    if (entries == 0) return 0;
    const std::uint64_t cap = 2 * grownCapacity(entries);
    return cap < 16 ? 16 : cap;
  }
  static std::uint64_t modeledBytesFor(std::uint64_t entries) {
    const std::uint64_t cap = capacityFor(entries);
    if (cap == 0) return 0;
    return paddedAllocBytes(cap * sizeof(std::uint64_t)) +
           paddedAllocBytes(cap * sizeof(std::uint32_t));
  }

  /// Slot arrays up to this capacity (tables of at most 512 entries)
  /// survive reset(); clearing them costs at most a 4 KiB fill, far less
  /// than regrowing them from empty.
  static constexpr std::uint64_t kRetainSlots = 1024;

  /// Empties the table for reuse by the next exploration: small slot arrays
  /// are kept with their ids cleared, larger ones are released so that one
  /// big graph does not pin its table. Probe results do not depend on the
  /// capacity, so a reused table interns exactly like a fresh one, and the
  /// ledger prices capacityFor(entries) either way.
  void reset() {
    count_ = 0;
    if (cap_ <= kRetainSlots) {
      std::fill(ids_.begin(), ids_.end(), kEmptySlot);
    } else {
      releaseSlots();
    }
  }

  void insert(std::uint64_t fp, std::uint32_t id) {
    const std::uint64_t need = capacityFor(count_ + 1);
    if (need > cap_) rehash(need);
    place(fp, id);
    ++count_;
  }

  /// Probes every slot whose fingerprint matches until `verify(id)` accepts
  /// one — collisions are resolved by the caller against the ConfigStore.
  template <class Verify>
  std::optional<std::uint32_t> find(std::uint64_t fp, Verify&& verify) const {
    if (cap_ == 0) return std::nullopt;
    const std::uint64_t mask = cap_ - 1;
    for (std::uint64_t i = fp & mask;; i = (i + 1) & mask) {
      if (ids_[i] == kEmptySlot) return std::nullopt;
      if (fps_[i] == fp && verify(ids_[i])) return ids_[i];
    }
  }

  /// Drains every entry into `out` (unsorted) and resets to an empty table —
  /// the serial spill flush.
  void drain(std::vector<std::pair<std::uint64_t, std::uint32_t>>& out) {
    for (std::uint64_t i = 0; i < cap_; ++i) {
      if (ids_[i] != kEmptySlot) out.emplace_back(fps_[i], ids_[i]);
    }
    releaseSlots();
    count_ = 0;
  }

  /// Drains only ids in [lo, hi) into `out` and rebuilds the table with the
  /// survivors — the parallel shards' share of a replayed flush.
  void drainRange(std::uint32_t lo, std::uint32_t hi,
                  std::vector<std::pair<std::uint64_t, std::uint32_t>>& out) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> keep;
    for (std::uint64_t i = 0; i < cap_; ++i) {
      if (ids_[i] == kEmptySlot) continue;
      if (ids_[i] >= lo && ids_[i] < hi) {
        out.emplace_back(fps_[i], ids_[i]);
      } else {
        keep.emplace_back(fps_[i], ids_[i]);
      }
    }
    releaseSlots();
    count_ = 0;
    for (const auto& [fp, id] : keep) insert(fp, id);
  }

 private:
  void releaseSlots() {
    fps_.clear();
    fps_.shrink_to_fit();
    ids_.clear();
    ids_.shrink_to_fit();
    cap_ = 0;
  }

  void place(std::uint64_t fp, std::uint32_t id) {
    const std::uint64_t mask = cap_ - 1;
    std::uint64_t i = fp & mask;
    while (ids_[i] != kEmptySlot) i = (i + 1) & mask;
    fps_[i] = fp;
    ids_[i] = id;
  }

  void rehash(std::uint64_t newCap) {
    std::vector<std::uint64_t> oldFps = std::move(fps_);
    std::vector<std::uint32_t> oldIds = std::move(ids_);
    const std::uint64_t oldCap = cap_;
    fps_.assign(newCap, 0);
    ids_.assign(newCap, kEmptySlot);
    cap_ = newCap;
    for (std::uint64_t i = 0; i < oldCap; ++i) {
      if (oldIds[i] != kEmptySlot) place(oldFps[i], oldIds[i]);
    }
  }

  std::vector<std::uint64_t> fps_;
  std::vector<std::uint32_t> ids_;
  std::uint64_t cap_ = 0;
  std::uint64_t count_ = 0;
};

// ---------------------------------------------------------------------------
// CompressedGraph: the storage a compressed-mode exploration leaves behind,
// embedded in ConfigGraph. Holds the codec (reconstructed without the
// Protocol) so decoding outlives the exploration.

class CompressedGraph {
 public:
  bool engaged() const { return codec_.has_value(); }

  void init(const PackedCodec& codec, bool concrete) {
    codec_ = codec;
    configs_.init(codec.packedBytes());
    edges_.init(concrete);
  }

  std::uint32_t nodeCount() const { return configs_.count(); }

  /// Decodes node `id`. The packed bytes go through a PackedConfig, which
  /// holds them inline up to PackedConfig::kInlineBytes.
  Configuration config(std::uint32_t id) const {
    PackedConfig buf;
    std::uint8_t* bytes = buf.allocate(configs_.width());
    configs_.decode(id, bytes);
    return codec_->unpackBytes(bytes);
  }

  ConfigStore& configStore() { return configs_; }
  const ConfigStore& configStore() const { return configs_; }
  EdgeStreamStore& edgeStore() { return edges_; }
  const EdgeStreamStore& edgeStore() const { return edges_; }
  const PackedCodec& codec() const { return *codec_; }

  /// Modeled retained footprint of the compressed graph (configs + edges).
  std::uint64_t modeledBytes() const {
    return configs_.modeledBytes() + edges_.modeledBytes();
  }

 private:
  std::optional<PackedCodec> codec_;
  ConfigStore configs_;
  EdgeStreamStore edges_;
};

}  // namespace ppn::detail
