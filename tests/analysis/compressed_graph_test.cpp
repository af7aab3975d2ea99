// Unit coverage for the compressed ConfigGraph stores (DESIGN decision 19):
//  * PackedCodec element-width boundaries — state counts and population
//    sizes of 255/256/65535/65536 cross the 1/2/4-byte encodings, and
//    zero-occupancy histogram entries round-trip;
//  * ConfigStore delta coding — decode() and the sequential Cursor agree
//    with the appended images across sample-stride boundaries;
//  * EdgeStreamStore varint streams — flags, targets and oriented pairs
//    round-trip, unexpanded nodes have no edges;
//  * FpTable — fingerprint collisions are resolved by caller verification,
//    never by trusting the 64-bit fingerprint, and drain/drainRange preserve
//    membership;
//  * SpillRunSet — sorted-run probes find every id for a fingerprint (also
//    when equal fingerprints straddle probe-block boundaries), compaction
//    merges runs, and a corrupted run fails its CRC check loudly;
//  * SpillPolicy — the flush schedule is a pure function of the interned
//    count, so two identical histories yield identical byte models.
#include "analysis/compressed_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "analysis/spill_store.h"

namespace ppn::detail {
namespace {

// ---------------------------------------------------------------------------
// PackedCodec boundaries.

TEST(PackedCodecBoundary, ConcreteWidthCrossesByteBoundaries) {
  // Concrete form: width is chosen from the largest state value, numStates-1.
  const struct {
    StateId numStates;
    std::uint32_t expectWidth;
  } cases[] = {{255, 1}, {256, 1}, {257, 2}, {65535, 2}, {65536, 2}, {65537, 4}};
  for (const auto& tc : cases) {
    const PackedCodec codec(PackedCodec::Form::kConcrete, tc.numStates,
                            /*hasLeader=*/false, /*numMobile=*/3);
    EXPECT_EQ(codec.packedBytes(), 3 * tc.expectWidth)
        << "numStates=" << tc.numStates;
    Configuration c;
    c.mobile = {0, tc.numStates - 1, tc.numStates / 2};
    const PackedConfig p = codec.pack(c);
    EXPECT_EQ(codec.unpackBytes(p.data()), c) << "numStates=" << tc.numStates;
  }
}

TEST(PackedCodecBoundary, CanonicalCountWidthCrossesByteBoundaries) {
  // Canonical form: width is chosen from the population size (max count).
  const struct {
    std::uint32_t numMobile;
    std::uint32_t expectWidth;
  } cases[] = {{255, 1}, {256, 2}, {65535, 2}, {65536, 4}};
  for (const auto& tc : cases) {
    const PackedCodec codec(PackedCodec::Form::kCanonical, /*numStates=*/3,
                            /*hasLeader=*/false, tc.numMobile);
    EXPECT_EQ(codec.packedBytes(), 3 * tc.expectWidth)
        << "numMobile=" << tc.numMobile;
    // Everyone in state 1: counts (0, numMobile, 0) — the boundary count
    // value itself plus two zero-occupancy entries.
    Configuration c;
    c.mobile.assign(tc.numMobile, 1);
    const PackedConfig p = codec.pack(c);
    EXPECT_EQ(codec.unpackBytes(p.data()), c) << "numMobile=" << tc.numMobile;
  }
}

TEST(PackedCodecBoundary, ZeroOccupancyHistogramRoundTrips) {
  const PackedCodec codec(PackedCodec::Form::kCanonical, /*numStates=*/5,
                          /*hasLeader=*/true, /*numMobile=*/3);
  // States 1 and 3 occupied, 0/2/4 empty; leader present and absent.
  for (const bool leader : {false, true}) {
    Configuration c;
    c.mobile = {1, 1, 3};
    if (leader) c.leader = 7;
    const PackedConfig p = codec.pack(c);
    EXPECT_EQ(codec.unpackBytes(p.data()), c);
  }
  // The all-zero histogram (empty population) is a valid image too.
  Configuration empty;
  const PackedConfig p = codec.pack(empty);
  EXPECT_EQ(codec.unpackBytes(p.data()), empty);
}

// ---------------------------------------------------------------------------
// ConfigStore.

std::vector<std::vector<std::uint8_t>> randomImages(std::uint32_t n,
                                                    std::uint32_t width,
                                                    std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::vector<std::uint8_t>> images(n);
  std::vector<std::uint8_t> prev(width, 0);
  for (auto& img : images) {
    img = prev;
    // Mutate a couple of bytes so consecutive records share prefix/suffix —
    // the case the delta coder is built for — with occasional full rewrites.
    const std::uint32_t mutations = 1 + static_cast<std::uint32_t>(rng() % 3);
    for (std::uint32_t m = 0; m < mutations; ++m) {
      img[rng() % width] = static_cast<std::uint8_t>(rng());
    }
    if (rng() % 16 == 0) {
      for (auto& b : img) b = static_cast<std::uint8_t>(rng());
    }
    prev = img;
  }
  return images;
}

TEST(ConfigStore, DecodeMatchesAppendAcrossSampleBoundaries) {
  constexpr std::uint32_t kWidth = 11;
  // 3 full sample strides plus a partial one.
  const auto images = randomImages(3 * ConfigStore::kSampleStride + 7, kWidth, 42);
  ConfigStore store;
  store.init(kWidth);
  for (const auto& img : images) store.append(img.data());
  ASSERT_EQ(store.count(), images.size());

  std::vector<std::uint8_t> buf(kWidth);
  for (std::uint32_t id = 0; id < store.count(); ++id) {
    store.decode(id, buf.data());
    EXPECT_EQ(std::memcmp(buf.data(), images[id].data(), kWidth), 0)
        << "node " << id;
  }
}

TEST(ConfigStore, CursorSequentialAndRandomAccessAgree) {
  constexpr std::uint32_t kWidth = 8;
  const auto images = randomImages(100, kWidth, 7);
  ConfigStore store;
  store.init(kWidth);
  for (const auto& img : images) store.append(img.data());

  ConfigStore::Cursor cursor(store);
  // Sequential sweep (the BFS expansion pattern).
  for (std::uint32_t id = 0; id < store.count(); ++id) {
    EXPECT_EQ(std::memcmp(cursor.at(id), images[id].data(), kWidth), 0);
  }
  // Random jumps, including re-reads of the current position.
  std::mt19937 rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto id = static_cast<std::uint32_t>(rng() % store.count());
    EXPECT_EQ(std::memcmp(cursor.at(id), images[id].data(), kWidth), 0);
  }
}

TEST(ConfigStore, CursorSurvivesInterleavedAppends) {
  constexpr std::uint32_t kWidth = 4;
  const auto images = randomImages(80, kWidth, 11);
  ConfigStore store;
  store.init(kWidth);
  ConfigStore::Cursor cursor(store);
  // BFS interleaving: expand node id while later nodes are being appended.
  store.append(images[0].data());
  for (std::uint32_t id = 0; id + 1 < images.size(); ++id) {
    EXPECT_EQ(std::memcmp(cursor.at(id), images[id].data(), kWidth), 0);
    store.append(images[id + 1].data());
  }
}

TEST(ConfigStore, SizeSimPredictsRealBlobGrowth) {
  constexpr std::uint32_t kWidth = 9;
  const auto images = randomImages(70, kWidth, 23);
  ConfigStore store;
  store.init(kWidth);
  for (std::uint32_t i = 0; i < 40; ++i) store.append(images[i].data());

  ConfigStore::SizeSim sim = store.sizeSim();
  for (std::uint32_t i = 40; i < images.size(); ++i) sim.append(images[i].data());
  for (std::uint32_t i = 40; i < images.size(); ++i) store.append(images[i].data());
  EXPECT_EQ(sim.blobBytes(), store.blobBytes());
  EXPECT_EQ(ConfigStore::modeledBytesAt(store.count(), store.blobBytes()),
            store.modeledBytes());
}

// ---------------------------------------------------------------------------
// EdgeStreamStore.

TEST(EdgeStreamStore, ConcreteRoundTripWithSkipScan) {
  EdgeStreamStore store;
  store.init(/*concrete=*/true);
  std::mt19937 rng(5);
  std::vector<std::vector<RawEdge>> perNode(2 * EdgeStreamStore::kSampleStride + 3);
  std::vector<std::uint8_t> body;
  for (std::uint32_t id = 0; id < perNode.size(); ++id) {
    auto& edges = perNode[id];
    const auto count = static_cast<std::uint32_t>(rng() % 5);  // empties too
    for (std::uint32_t k = 0; k < count; ++k) {
      RawEdge e;
      e.to = static_cast<std::uint32_t>(rng() % (perNode.size() + 40));
      e.flags = static_cast<std::uint8_t>(rng() % 8);
      e.initiator = static_cast<std::uint16_t>(rng() % 7);
      e.responder = static_cast<std::uint16_t>(rng() % 7);
      edges.push_back(e);
    }
    EdgeStreamStore::encodeBody(body, id, count, /*concrete=*/true,
                                [&](std::uint32_t k) { return edges[k]; });
    store.appendStream(id, body);
  }

  for (std::uint32_t id = 0; id < perNode.size(); ++id) {
    EXPECT_EQ(store.edgeCount(id), perNode[id].size()) << "node " << id;
    std::size_t k = 0;
    store.forEachEdgeRaw(id, [&](const RawEdge& e) {
      ASSERT_LT(k, perNode[id].size());
      EXPECT_EQ(e.to, perNode[id][k].to) << "node " << id << " edge " << k;
      EXPECT_EQ(e.flags, perNode[id][k].flags);
      EXPECT_EQ(e.initiator, perNode[id][k].initiator);
      EXPECT_EQ(e.responder, perNode[id][k].responder);
      ++k;
    });
    EXPECT_EQ(k, perNode[id].size());
  }
  // Nodes beyond the expanded prefix (the truncated frontier) have no edges.
  EXPECT_EQ(store.edgeCount(static_cast<std::uint32_t>(perNode.size())), 0u);
  store.forEachEdgeRaw(static_cast<std::uint32_t>(perNode.size()),
                       [](const RawEdge&) { FAIL(); });
}

TEST(EdgeStreamStore, CanonicalFormOmitsOrientedPairs) {
  EdgeStreamStore store;
  store.init(/*concrete=*/false);
  std::vector<std::uint8_t> body;
  const RawEdge edge{/*to=*/3, /*flags=*/1, /*initiator=*/0, /*responder=*/0};
  EdgeStreamStore::encodeBody(body, 0, 1, /*concrete=*/false,
                              [&](std::uint32_t) { return edge; });
  store.appendStream(0, body);
  store.forEachEdgeRaw(0, [&](const RawEdge& e) {
    EXPECT_EQ(e.to, 3u);
    EXPECT_EQ(e.flags, 1);
  });
  EXPECT_EQ(EdgeStreamStore::streamBlobBytes(body.size()),
            1 + body.size());  // 1-byte length header for tiny bodies
}

// ---------------------------------------------------------------------------
// FpTable.

TEST(FpTable, CollidingFingerprintsAreResolvedByVerification) {
  FpTable table;
  constexpr std::uint64_t kFp = 0xdeadbeefcafef00dull;
  table.insert(kFp, 1);
  table.insert(kFp, 2);  // same fingerprint, different node
  // The caller's verify() decides which colliding id is the match.
  const auto first = table.find(kFp, [](std::uint32_t id) { return id == 1; });
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 1u);
  const auto second = table.find(kFp, [](std::uint32_t id) { return id == 2; });
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 2u);
  // A fingerprint hit whose bytes don't verify is NOT a match.
  EXPECT_FALSE(table.find(kFp, [](std::uint32_t) { return false; }).has_value());
  EXPECT_FALSE(table.find(kFp + 1, [](std::uint32_t) { return true; }).has_value());
}

TEST(FpTable, SurvivesRehashAndDrainsEveryEntry) {
  FpTable table;
  constexpr std::uint32_t kN = 1000;
  for (std::uint32_t i = 0; i < kN; ++i) {
    table.insert(i * 0x9e3779b97f4a7c15ull, i);
  }
  EXPECT_EQ(table.size(), kN);
  for (std::uint32_t i = 0; i < kN; ++i) {
    const auto hit = table.find(i * 0x9e3779b97f4a7c15ull,
                                [](std::uint32_t) { return true; });
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, i);
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> drained;
  table.drain(drained);
  EXPECT_EQ(drained.size(), kN);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(FpTable::modeledBytesFor(0), 0u);
}

TEST(FpTable, DrainRangeKeepsSurvivors) {
  FpTable table;
  for (std::uint32_t i = 0; i < 100; ++i) table.insert(i * 7919, i);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> drained;
  table.drainRange(0, 60, drained);
  EXPECT_EQ(drained.size(), 60u);
  EXPECT_EQ(table.size(), 40u);
  for (std::uint32_t i = 60; i < 100; ++i) {
    EXPECT_TRUE(
        table.find(i * 7919, [&](std::uint32_t id) { return id == i; })
            .has_value());
  }
  EXPECT_FALSE(
      table.find(0, [](std::uint32_t) { return true; }).has_value());
}

// ---------------------------------------------------------------------------
// SpillRunSet + SpillPolicy.

std::filesystem::path freshSpillDir(const char* tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("ppn-spill-test-") + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(SpillRunSet, ProbesFindEveryIdIncludingEqualFpAcrossBlocks) {
  const auto dir = freshSpillDir("probe");
  SpillRunSet runs(dir.string());
  // One fingerprint repeated across several probe blocks, plus neighbours.
  std::vector<SpillEntry> entries;
  constexpr std::uint64_t kHot = 500;
  const std::uint32_t hotCount = 3 * SpillRunSet::kProbeStride + 5;
  for (std::uint32_t i = 0; i < hotCount; ++i) {
    entries.push_back(SpillEntry{kHot, i});
  }
  entries.push_back(SpillEntry{kHot - 1, 9001});
  entries.push_back(SpillEntry{kHot + 1, 9002});
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    return a.fp != b.fp ? a.fp < b.fp : a.id < b.id;
  });
  runs.writeRun(entries);

  std::vector<std::uint32_t> out;
  runs.candidates(kHot, out);
  ASSERT_EQ(out.size(), hotCount);
  for (std::uint32_t i = 0; i < hotCount; ++i) EXPECT_EQ(out[i], i);
  runs.candidates(kHot - 1, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 9001u);
  runs.candidates(kHot + 2, out);  // absent fingerprint
  EXPECT_TRUE(out.empty());
  runs.candidates(0, out);  // below the run's minimum
  EXPECT_TRUE(out.empty());
  std::filesystem::remove_all(dir);
}

TEST(SpillRunSet, CompactMergesRunsAndKeepsAllCandidates) {
  const auto dir = freshSpillDir("compact");
  SpillRunSet runs(dir.string());
  // Three runs with interleaved fingerprints, duplicates across runs.
  for (std::uint32_t r = 0; r < 3; ++r) {
    std::vector<SpillEntry> entries;
    for (std::uint32_t i = 0; i < 200; ++i) {
      entries.push_back(SpillEntry{std::uint64_t{i} * 3 + r, r * 1000 + i});
    }
    entries.push_back(SpillEntry{77, r * 1000 + 777});  // shared fp
    std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
      return a.fp != b.fp ? a.fp < b.fp : a.id < b.id;
    });
    runs.writeRun(entries);
  }
  EXPECT_EQ(runs.runCount(), 3u);
  const std::uint64_t bytesBefore = runs.diskBytes();
  runs.compact();
  EXPECT_EQ(runs.runCount(), 1u);
  EXPECT_EQ(runs.diskBytes(), bytesBefore - 2 * 24);  // two headers saved

  std::vector<std::uint32_t> out;
  runs.candidates(77, out);
  // fp 77 appears in every run as i-derived entries too: r=0 i=... 77%3==2 ->
  // run r matches 77 iff (77 - r) % 3 == 0, i.e. r == 2 (i=25), plus the
  // three shared 777 entries.
  std::vector<std::uint32_t> expected{777, 1777, 2025 /*r=2,i=25*/, 2777};
  std::sort(out.begin(), out.end());
  EXPECT_EQ(out, expected);
  std::filesystem::remove_all(dir);
}

TEST(SpillRunSet, CompactRejectsCorruptedRun) {
  const auto dir = freshSpillDir("crc");
  SpillRunSet runs(dir.string());
  for (std::uint32_t r = 0; r < 2; ++r) {
    std::vector<SpillEntry> entries;
    for (std::uint32_t i = 0; i < 50; ++i) {
      entries.push_back(SpillEntry{i, i});
    }
    runs.writeRun(entries);
  }
  // Flip one payload byte in one run file behind the reader's back.
  bool corrupted = false;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    std::fstream file(f.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(24 + 5);
    char b;
    file.get(b);
    file.seekp(24 + 5);
    file.put(static_cast<char>(b ^ 0x40));
    corrupted = true;
    break;
  }
  ASSERT_TRUE(corrupted);
  EXPECT_THROW(runs.compact(), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(SpillRunSet, TruncatedRunIsAShortRead) {
  const auto dir = freshSpillDir("short");
  SpillRunSet runs(dir.string());
  std::vector<SpillEntry> entries;
  for (std::uint32_t i = 0; i < 50; ++i) entries.push_back(SpillEntry{i, i});
  runs.writeRun(entries);
  // Cut the payload after 10 records behind the reader's back: a probe for
  // a later record reaches end of file, which is an error, not a miss.
  bool truncated = false;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    std::filesystem::resize_file(f.path(), 24 + 10 * 12);
    truncated = true;
  }
  ASSERT_TRUE(truncated);
  std::vector<std::uint32_t> out;
  try {
    runs.candidates(40, out);
    ADD_FAILURE() << "probe past the end of a truncated run did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("short read"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(SpillPolicy, FlushScheduleIsAPureFunctionOfInternedCount) {
  SpillPolicy a(4096), b(4096);
  std::vector<std::uint32_t> flushPointsA, flushPointsB;
  for (std::uint32_t n = 1; n <= 5000; ++n) {
    if (a.maybeFlush(n).has_value()) flushPointsA.push_back(n);
    if (b.maybeFlush(n).has_value()) flushPointsB.push_back(n);
    ASSERT_EQ(a.dedupModelBytes(n), b.dedupModelBytes(n)) << "n=" << n;
  }
  EXPECT_EQ(flushPointsA, flushPointsB);
  EXPECT_FALSE(flushPointsA.empty());
  // The RAM-tier model never exceeds the threshold right after a flush
  // decision point.
  EXPECT_EQ(a.flushedEntries(), flushPointsA.back());
}

TEST(SpillPolicy, ZeroThresholdNeverFlushes) {
  SpillPolicy policy(0);
  EXPECT_FALSE(policy.enabled());
  for (std::uint32_t n = 1; n <= 10000; n += 97) {
    EXPECT_FALSE(policy.maybeFlush(n).has_value());
  }
  EXPECT_EQ(policy.spillDiskBytes(), 0u);
  EXPECT_EQ(policy.dedupModelBytes(10000), FpTable::modeledBytesFor(10000));
}

TEST(SpillPolicy, TinyThresholdProducesManyRunsThenCompacts) {
  SpillPolicy policy(1);  // any non-empty table exceeds 1 byte
  bool sawCompact = false;
  std::uint64_t flushes = 0;
  for (std::uint32_t n = 1; n <= 100; ++n) {
    const auto action = policy.maybeFlush(n);
    if (action.has_value()) {
      ++flushes;
      sawCompact |= action->compact;
      EXPECT_LE(policy.runCount(), SpillPolicy::kMaxRuns + 1);
    }
  }
  EXPECT_EQ(flushes, 100u);  // every intern flushes at threshold 1
  EXPECT_TRUE(sawCompact);
  EXPECT_EQ(policy.spillDiskBytes(), policy.runCount() * 24 + 100 * 12);
}

}  // namespace
}  // namespace ppn::detail
