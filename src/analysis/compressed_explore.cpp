// Serial BFS over the compressed graph representation (DESIGN decision 19).
//
// Same exploration as explore.cpp's explicit loops — identical candidate
// enumeration, identical intern order, identical truncation discipline — but
// interning goes through the two-tier fingerprint table (RAM FpTable +
// sorted-run spill files) and the graph lands in the delta-coded
// ConfigStore / EdgeStreamStore instead of materialized vectors. This loop
// is the reference the parallel compressed engine must match bit-for-bit.
#include <algorithm>
#include <cstring>
#include <ranges>
#include <utility>
#include <vector>

#include "analysis/explore.h"
#include "analysis/explore_impl.h"
#include "analysis/packed_config.h"
#include "analysis/spill_store.h"

namespace ppn::detail {

void flushTableToRun(FpTable& table, SpillRunSet& runs,
                     const SpillPolicy::Action& action) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> drained;
  table.drain(drained);
  std::sort(drained.begin(), drained.end());
  std::vector<SpillEntry> entries;
  entries.reserve(drained.size());
  for (const auto& [fp, id] : drained) entries.push_back(SpillEntry{fp, id});
  runs.writeRun(entries);
  if (action.compact) runs.compact();
}

namespace {

/// Per-thread working memory of the serial compressed loop, reused across
/// explorations so that a search's thousands of tiny explorations allocate
/// only what the returned graph owns (DESIGN.md decision 19). The dedup
/// table and key cache are emptied when an exploration ends and every other
/// member is overwritten before it is read, so no state carries from one
/// exploration into the next. The dedup table grows with the graph until
/// FpTable::reset() releases it past FpTable::kRetainSlots, the key cache
/// stops at kKeyCacheBytes, and the other buffers are bounded by one node's
/// out-degree. None of it is charged to the
/// MemoryLedger, which models the exploration's graph, dedup table and
/// frontier, not this reusable buffer.
struct SerialScratch {
  static constexpr std::size_t kKeyCacheBytes = 16 * 1024;

  FpTable table;
  std::vector<std::pair<PackedConfig, EdgeMeta>> cands;
  std::vector<RawEdge> rawEdges;
  std::vector<std::uint8_t> body;
  std::vector<std::uint8_t> verifyBuf;
  /// Packed bytes of the first nodes, in id order, up to kKeyCacheBytes: a
  /// fingerprint hit on one of them is verified by memcmp instead of a walk
  /// of up to ConfigStore::kSampleStride - 1 deltas.
  std::vector<std::uint8_t> keys;
  std::vector<std::uint32_t> runCands;
  ConfigStore::Cursor cursor;
  Configuration current;
  Configuration next;
  Configuration next2;
  bool busy = false;
};

/// Hands out the calling thread's scratch, or a private one when it is
/// already in use (an observer callback that explores re-enters the loop).
/// Empties the dedup table and key cache on release, also when the
/// exploration throws.
class ScratchLease {
 public:
  ScratchLease() : s_(tls().busy ? own_ : tls()) { s_.busy = true; }
  ~ScratchLease() {
    s_.table.reset();
    s_.keys.clear();
    s_.busy = false;
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  SerialScratch& get() { return s_; }

 private:
  static SerialScratch& tls() {
    thread_local SerialScratch scratch;
    return scratch;
  }

  SerialScratch own_;
  SerialScratch& s_;
};

}  // namespace

ConfigGraph exploreSerialCompressed(const Protocol& proto,
                                    const std::vector<Configuration>& initials,
                                    const ExploreOptions& options,
                                    bool canonical) {
  ConfigGraph g;
  const std::uint32_t n = initials.front().numMobile();
  const std::uint32_t m = n + (proto.hasLeader() ? 1u : 0u);
  g.numParticipants = m;
  const PhaseScope phase(options.observer, options.exploreId, "explore");
  const PackedCodec codec(canonical ? PackedCodec::Form::kCanonical
                                    : PackedCodec::Form::kConcrete,
                          proto, n);
  g.packed.init(codec, /*concrete=*/!canonical);
  ConfigStore& store = g.packed.configStore();
  EdgeStreamStore& estore = g.packed.edgeStore();
  ExploreTracker tracker(options.observer, options.exploreId, g, codec, n);

  ScratchLease lease;
  SerialScratch& s = lease.get();
  FpTable& table = s.table;
  SpillPolicy policy(options.spillBytes);
  SpillRunSet runs(options.spillDir);
  const std::uint32_t width = codec.packedBytes();
  s.verifyBuf.resize(width);

  // Probe order: RAM table, then spill runs (they cover disjoint id ranges).
  // A fingerprint match is confirmed by decoding the candidate's bytes.
  const auto matches = [&](std::uint32_t candId, const PackedConfig& key) {
    const std::uint8_t* bytes = s.verifyBuf.data();
    if ((std::size_t{candId} + 1) * width <= s.keys.size()) {
      bytes = s.keys.data() + std::size_t{candId} * width;
    } else {
      store.decode(candId, s.verifyBuf.data());
    }
    return std::memcmp(bytes, key.data(), width) == 0;
  };
  // Returns (id, isNew). A new node's id is store.count() at interning, and
  // pops take ids in interning order, so the BFS frontier is always the id
  // range [head, store.count()) and needs no container of its own.
  const auto intern = [&](const PackedConfig& key) {
    if (const auto hit = table.find(
            key.hash(), [&](std::uint32_t id) { return matches(id, key); })) {
      return std::pair<std::uint32_t, bool>{*hit, false};
    }
    if (runs.runCount() > 0) {
      runs.candidates(key.hash(), s.runCands);
      for (const std::uint32_t id : s.runCands) {
        if (matches(id, key)) return std::pair<std::uint32_t, bool>{id, false};
      }
    }
    const std::uint32_t id = store.count();
    store.append(key.data());
    table.insert(key.hash(), id);
    if (s.keys.size() == std::size_t{id} * width &&
        s.keys.size() + width <= SerialScratch::kKeyCacheBytes) {
      s.keys.insert(s.keys.end(), key.data(), key.data() + width);
    }
    return std::pair<std::uint32_t, bool>{id, true};
  };
  const auto syncComponents = [&] {
    tracker.setCompressedComponents(store.modeledBytes(), estore.modeledBytes(),
                                    policy.dedupModelBytes(store.count()));
    tracker.setSpillState(policy.spillDiskBytes(), policy.runCount());
  };

  for (const auto& c : initials) {
    assignConfig(s.next, c);
    if (canonical) std::sort(s.next.mobile.begin(), s.next.mobile.end());
    intern(codec.pack(s.next));
  }
  syncComponents();

  std::uint32_t head = 0;
  const auto frontierSize = [&] { return std::size_t{store.count() - head}; };
  s.cursor.reset(store);
  while (head < store.count()) {
    // Spill maintenance precedes the budget check: flushing is exactly what
    // lets a tight maxBytes budget complete instead of truncating.
    if (const auto action = policy.maybeFlush(store.count())) {
      const SectionTimer timer(tracker, ExploreTracker::Section::kIo);
      flushTableToRun(table, runs, *action);
    }
    syncComponents();
    tracker.checkpoint(frontierSize());
    const bool overNodes = g.size() > options.maxNodes;
    const bool overBytes =
        options.maxBytes != 0 && tracker.totalBytes() > options.maxBytes;
    if (overNodes || overBytes) {
      g.truncated = true;
      g.truncatedByBudget = overBytes && !overNodes;
      tracker.recordTruncation(options.maxNodes, options.maxBytes,
                               g.truncatedByBudget,
                               std::views::iota(head, store.count()));
      break;
    }
    const std::uint32_t id = head++;
    tracker.recordExpansion(frontierSize());
    // Sequential decode: BFS pops ascend by one, so the cursor applies a
    // single delta per pop.
    codec.unpackInto(s.cursor.at(id), s.current);

    {
      const SectionTimer timer(tracker, ExploreTracker::Section::kExpand);
      s.cands.clear();
      const auto keep = [&](const Configuration& next, const EdgeMeta& meta) {
        s.cands.emplace_back(codec.pack(next), meta);
      };
      if (canonical) {
        forEachCanonicalSuccessor(proto, s.current, n, s.next, s.next2, keep);
      } else {
        forEachConcreteSuccessor(proto, s.current, m, options.topology, s.next,
                                 s.next2, keep);
      }
    }
    s.rawEdges.clear();
    {
      const SectionTimer timer(tracker, ExploreTracker::Section::kDedup);
      for (const auto& [key, meta] : s.cands) {
        const auto [to, isNew] = intern(key);
        tracker.recordEdge(!isNew);
        RawEdge raw;
        raw.to = to;
        raw.flags = static_cast<std::uint8_t>((meta.changed ? 1 : 0) |
                                              (meta.changedMobile ? 2 : 0) |
                                              (meta.changedName ? 4 : 0));
        raw.initiator = meta.initiator;
        raw.responder = meta.responder;
        s.rawEdges.push_back(raw);
      }
    }
    {
      const SectionTimer timer(tracker, ExploreTracker::Section::kAppend);
      EdgeStreamStore::encodeBody(
          s.body, id, static_cast<std::uint32_t>(s.rawEdges.size()),
          !canonical, [&](std::uint32_t k) { return s.rawEdges[k]; });
      estore.appendStream(id, s.body);
    }
  }
  syncComponents();
  tracker.finish(frontierSize());
  return g;
}

}  // namespace ppn::detail
