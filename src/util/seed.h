// Seed derivation shared by every batch driver.
//
// Three derivation schemes exist in this repo, and each used to be re-spelled
// at its call sites (runBatch workers, fault campaigns, campaign unit
// expansion, the exact-vs-simulated bench). The batch engine (sim/batch_engine.h)
// would have added a fourth copy, so the schemes live here once:
//
//  * splitRunRngs — one child generator per run, split sequentially from a
//    single master. The only source of randomness a run sees is its own
//    child, so batch results are bit-identical for every thread count and
//    every execution backend (runBatch workers, the batch engine's pool,
//    campaign shards). runBatch, runCampaign, and BatchEngine::submit all derive
//    per-run inputs through this function — that sharing IS the determinism
//    contract between them.
//  * drawRunSeeds — one raw 64-bit seed per run, drawn sequentially
//    (exact_vs_simulated rows, where the start configuration is fixed and
//    only the scheduler stream varies per run).
//  * Fnv1a — stable coordinate hashing for pre-drawn cell/unit seeds
//    (certify cellSeed, campaign manifest expansion): platform-independent
//    and independent of sweep execution order, never std::hash.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace ppn {

/// FNV-1a accumulator over 64-bit lanes. `base` perturbs the offset basis so
/// independent sweeps sharing coordinates decorrelate. Strings are mixed
/// byte-wise (one lane per byte), matching the historical certify cellSeed.
class Fnv1a {
 public:
  explicit constexpr Fnv1a(std::uint64_t base = 0) noexcept
      : h_(1469598103934665603ULL ^ base) {}

  constexpr Fnv1a& mix(std::uint64_t v) noexcept {
    h_ ^= v;
    h_ *= 1099511628211ULL;
    return *this;
  }

  constexpr Fnv1a& mix(std::string_view s) noexcept {
    for (const char c : s) mix(static_cast<unsigned char>(c));
    return *this;
  }

  constexpr std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_;
};

/// Pre-splits one independent child generator per run from `seed`,
/// sequentially, before any run executes. Index r of the result is the ONLY
/// generator run r may consume; how runs are then scheduled (threads, lanes,
/// processes) cannot change any outcome.
inline std::vector<Rng> splitRunRngs(std::uint64_t seed, std::uint32_t runs) {
  Rng master(seed);
  std::vector<Rng> rngs;
  rngs.reserve(runs);
  for (std::uint32_t r = 0; r < runs; ++r) rngs.push_back(master.split());
  return rngs;
}

/// Draws one raw seed per run, sequentially (for runs whose only per-run
/// randomness is a scheduler stream seeded with the value).
inline std::vector<std::uint64_t> drawRunSeeds(std::uint64_t seed,
                                               std::uint32_t runs) {
  Rng master(seed);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(runs);
  for (std::uint32_t r = 0; r < runs; ++r) seeds.push_back(master.next());
  return seeds;
}

}  // namespace ppn
