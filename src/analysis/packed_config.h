// Compact packed encoding of configurations for exploration dedup tables.
//
// The explorers intern millions of configurations; keying the visited map by
// `Configuration` costs a heap-allocated std::vector<StateId> per node plus a
// re-hash of the vector on every probe. A PackedConfig flattens the
// configuration into a fixed-width byte buffer (small-buffer inline for the
// common tiny case) with the FNV-1a hash precomputed at pack time, so map
// probes are one hash load plus one memcmp.
//
// Two forms (PackedCodec::Form):
//  * kConcrete  — one little-endian state value per mobile agent, in agent
//    order (width: the smallest of 1/2/4 bytes that fits the protocol's
//    state space);
//  * kCanonical — the occupancy histogram: one count per mobile state (width:
//    the smallest of 1/2/4 bytes that fits the population size). The encoder
//    requires the canonical (sorted) form and run-length-scans it.
// Either form is injective on its domain, followed by an optional leader
// block (presence byte + 8-byte value) when the protocol has a leader, so
// packed equality coincides with Configuration equality.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>

#include "core/configuration.h"
#include "core/protocol.h"

namespace ppn {

/// Flat byte buffer with precomputed hash. Buffers up to kInlineBytes live
/// inside the object; larger ones fall back to the heap.
class PackedConfig {
 public:
  static constexpr std::uint32_t kInlineBytes = 24;

  PackedConfig() = default;

  PackedConfig(PackedConfig&& other) noexcept { moveFrom(other); }
  PackedConfig& operator=(PackedConfig&& other) noexcept {
    if (this != &other) moveFrom(other);
    return *this;
  }
  PackedConfig(const PackedConfig& other) { copyFrom(other); }
  PackedConfig& operator=(const PackedConfig& other) {
    if (this != &other) copyFrom(other);
    return *this;
  }

  /// Resizes to `bytes` and returns the writable buffer. The caller fills it
  /// and then calls finalizeHash().
  std::uint8_t* allocate(std::uint32_t bytes) {
    size_ = bytes;
    if (bytes > kInlineBytes) {
      heap_ = std::make_unique<std::uint8_t[]>(bytes);
      return heap_.get();
    }
    heap_.reset();
    return inline_.data();
  }

  /// FNV-1a over the buffer; must be called once after filling.
  void finalizeHash() {
    std::uint64_t h = 14695981039346656037ull;
    const std::uint8_t* p = data();
    for (std::uint32_t i = 0; i < size_; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
    hash_ = h;
  }

  const std::uint8_t* data() const {
    return size_ > kInlineBytes ? heap_.get() : inline_.data();
  }
  std::uint32_t size() const { return size_; }
  std::uint64_t hash() const { return hash_; }

  friend bool operator==(const PackedConfig& a, const PackedConfig& b) {
    return a.hash_ == b.hash_ && a.size_ == b.size_ &&
           std::memcmp(a.data(), b.data(), a.size_) == 0;
  }

 private:
  void moveFrom(PackedConfig& other) noexcept {
    hash_ = other.hash_;
    size_ = other.size_;
    inline_ = other.inline_;
    heap_ = std::move(other.heap_);
    other.size_ = 0;
    other.hash_ = 0;
  }
  void copyFrom(const PackedConfig& other) {
    hash_ = other.hash_;
    size_ = other.size_;
    if (size_ > kInlineBytes) {
      heap_ = std::make_unique<std::uint8_t[]>(size_);
      std::memcpy(heap_.get(), other.heap_.get(), size_);
    } else {
      heap_.reset();
      inline_ = other.inline_;
    }
  }

  std::uint64_t hash_ = 0;
  std::uint32_t size_ = 0;
  std::array<std::uint8_t, kInlineBytes> inline_{};
  std::unique_ptr<std::uint8_t[]> heap_;
};

struct PackedConfigHash {
  std::size_t operator()(const PackedConfig& p) const {
    return static_cast<std::size_t>(p.hash());
  }
};

/// Stateless per-exploration codec: fixes the form and the element widths
/// once so pack/unpack are branch-light. Safe to share across threads.
class PackedCodec {
 public:
  enum class Form { kConcrete, kCanonical };

  PackedCodec(Form form, const Protocol& proto, std::uint32_t numMobile)
      : PackedCodec(form, proto.numMobileStates(), proto.hasLeader(),
                    numMobile) {}

  /// Protocol-free form: everything the codec needs is the state count, the
  /// leader flag and the population size, so a codec stored inside a
  /// CompressedGraph can outlive the Protocol that built it.
  PackedCodec(Form form, StateId numStates, bool hasLeader,
              std::uint32_t numMobile)
      : form_(form),
        numMobile_(numMobile),
        numStates_(numStates),
        hasLeader_(hasLeader) {
    const std::uint64_t maxValue =
        form == Form::kConcrete
            ? (numStates_ == 0 ? 0 : std::uint64_t{numStates_} - 1)
            : std::uint64_t{numMobile_};
    elemWidth_ = maxValue <= 0xff ? 1u : maxValue <= 0xffff ? 2u : 4u;
    elemCount_ = form == Form::kConcrete ? numMobile_ : numStates_;
    packedBytes_ = elemCount_ * elemWidth_ + (hasLeader_ ? 9u : 0u);
  }

  std::uint32_t packedBytes() const { return packedBytes_; }

  /// Precondition for kCanonical: `c.mobile` is sorted (canonicalized).
  PackedConfig pack(const Configuration& c) const {
    PackedConfig p;
    std::uint8_t* out = p.allocate(packedBytes_);
    if (form_ == Form::kConcrete) {
      for (const StateId s : c.mobile) {
        writeLE(out, s, elemWidth_);
        out += elemWidth_;
      }
    } else {
      std::uint32_t idx = 0;
      for (StateId s = 0; s < numStates_; ++s) {
        std::uint32_t count = 0;
        while (idx < c.mobile.size() && c.mobile[idx] == s) {
          ++count;
          ++idx;
        }
        writeLE(out, count, elemWidth_);
        out += elemWidth_;
      }
    }
    if (hasLeader_) {
      *out++ = c.leader.has_value() ? 1 : 0;
      const std::uint64_t v = c.leader.value_or(0);
      for (int b = 0; b < 8; ++b) out[b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
    p.finalizeHash();
    return p;
  }

  Configuration unpack(const PackedConfig& p) const {
    return unpackBytes(p.data());
  }

  /// Decodes a raw packedBytes()-wide buffer (e.g. straight out of a
  /// compressed config store, no PackedConfig wrapper).
  Configuration unpackBytes(const std::uint8_t* in) const {
    Configuration c;
    unpackInto(in, c);
    return c;
  }

  /// unpackBytes into an existing configuration, reusing its mobile
  /// vector's capacity: the hot loops decode every expanded node into one
  /// per-thread buffer instead of allocating a fresh configuration.
  void unpackInto(const std::uint8_t* in, Configuration& c) const {
    c.mobile.clear();
    c.mobile.reserve(numMobile_);
    if (form_ == Form::kConcrete) {
      for (std::uint32_t i = 0; i < numMobile_; ++i) {
        c.mobile.push_back(static_cast<StateId>(readLE(in, elemWidth_)));
        in += elemWidth_;
      }
    } else {
      for (StateId s = 0; s < numStates_; ++s) {
        const std::uint32_t count =
            static_cast<std::uint32_t>(readLE(in, elemWidth_));
        in += elemWidth_;
        for (std::uint32_t k = 0; k < count; ++k) c.mobile.push_back(s);
      }
    }
    c.leader.reset();
    if (hasLeader_) {
      const bool present = *in++ != 0;
      std::uint64_t v = 0;
      for (int b = 0; b < 8; ++b) v |= std::uint64_t{in[b]} << (8 * b);
      if (present) c.leader = v;
    }
  }

 private:
  static void writeLE(std::uint8_t* out, std::uint64_t v, std::uint32_t width) {
    for (std::uint32_t b = 0; b < width; ++b) {
      out[b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
  static std::uint64_t readLE(const std::uint8_t* in, std::uint32_t width) {
    std::uint64_t v = 0;
    for (std::uint32_t b = 0; b < width; ++b) v |= std::uint64_t{in[b]} << (8 * b);
    return v;
  }

  Form form_;
  std::uint32_t numMobile_;
  StateId numStates_;
  bool hasLeader_;
  std::uint32_t elemWidth_ = 1;
  std::uint32_t elemCount_ = 0;
  std::uint32_t packedBytes_ = 0;
};

}  // namespace ppn
