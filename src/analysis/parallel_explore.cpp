// Level-synchronous parallel BFS over the configuration graph, bit-identical
// to the serial explorers for any thread count (DESIGN.md, decision 14).
//
// Why bit-identity is achievable at all: the serial loop pops a FIFO queue
// and assigns ids at intern time, so its expansion order IS ascending node-id
// order and the global candidate stream is ordered by (expanding position p,
// per-node enumeration index k). Any scheme that reconstitutes that stream
// order at a level barrier reproduces the exact serial intern order — node
// ids, edge targets, edge order, dedup counts and the truncation cut all
// follow. Concretely, each level runs four phases:
//
//   1. expand (parallel)    — workers take static contiguous blocks of the
//      level, enumerate successors via the shared enumerators, pack each one
//      (packed_config.h) and bucket its (p, k) index by hash shard. Static
//      blocks keep every shard's bucket lists concatenable in stream order.
//   2. dedup (parallel)     — shards are claimed atomically; each of the 64
//      shards is owned by exactly one worker per level (no locks), which
//      replays its bucket entries in stream order against the shard's map.
//      First-ever occurrences get a placeholder slot; every candidate
//      records (shard, slot) for later id resolution.
//   3. merge (serial)       — new entries from all shards are ordered by
//      stream position and assigned ids g.size(), g.size()+1, ... — the
//      serial intern order. The serial per-pop maxNodes check is replayed
//      exactly: the cut position p* is the first level position at which the
//      simulated node count exceeds the cap; entries born at p >= p* are
//      discarded (a suffix of every shard's pending list) and the remaining
//      frontier is reconstructed as the serial FIFO would have held it.
//   4. edges (parallel)     — adjacency lists of the expanded (p < p*) level
//      nodes are filled independently (distinct vectors, race-free),
//      resolving targets through the now-final shard slots.
//
// Observer events are emitted only by the merge thread, so one exploration's
// progress stream stays globally monotone even at threads > 1.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analysis/explore_impl.h"
#include "analysis/packed_config.h"

namespace ppn::detail {

namespace {

constexpr std::uint32_t kShards = 64;
constexpr std::uint32_t kUnassigned = 0xffffffffu;

/// Reusable fork-join pool: run(job) executes job(w) for w in [0, threads)
/// — worker 0 is the calling thread — and returns when all invocations
/// finished, rethrowing the first worker exception. The mutex/condvar
/// handshake at each barrier gives the happens-before edges the phase
/// structure relies on.
class LevelPool {
 public:
  explicit LevelPool(std::uint32_t threads) : threads_(threads) {
    for (std::uint32_t w = 1; w < threads_; ++w) {
      workers_.emplace_back([this, w] { workerLoop(w); });
    }
  }

  ~LevelPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void run(const std::function<void(std::uint32_t)>& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      pending_ = threads_ - 1;
      ++generation_;
    }
    cv_.notify_all();
    runGuarded(job, 0);
    std::unique_lock<std::mutex> lock(mu_);
    doneCv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    if (error_ != nullptr) {
      std::exception_ptr e = error_;
      error_ = nullptr;
      std::rethrow_exception(e);
    }
  }

 private:
  void runGuarded(const std::function<void(std::uint32_t)>& job,
                  std::uint32_t w) {
    try {
      job(w);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (error_ == nullptr) error_ = std::current_exception();
    }
  }

  void workerLoop(std::uint32_t w) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::uint32_t)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
        seen = generation_;
        if (stop_) return;
        job = job_;
      }
      if (job != nullptr) runGuarded(*job, w);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--pending_ == 0) doneCv_.notify_all();
      }
    }
  }

  std::uint32_t threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable doneCv_;
  const std::function<void(std::uint32_t)>* job_ = nullptr;
  std::uint32_t pending_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::exception_ptr error_;
};

/// One enumerated successor, between expansion and edge construction.
struct Cand {
  PackedConfig key;           // moved into the shard map on first occurrence
  std::uint32_t slotRef = 0;  // index into its shard's slot table (phase 2)
  std::uint8_t shard = 0;
  bool dedupHit = false;  // key was already interned (matches serial counts)
  /// Compressed mode only: slotRef already IS the final node id (the target
  /// was found in a prior-level fingerprint table or a spill run, so no slot
  /// indirection is needed).
  bool finalId = false;
  EdgeMeta meta;
};

/// (level position, candidate index) — the global stream order key.
struct PK {
  std::uint32_t p;
  std::uint32_t k;
};

/// A configuration first seen this level, pending id assignment.
struct NewEntry {
  std::uint64_t pos;  // (p << 32) | k of the first occurrence
  std::uint32_t slotRef;
  std::uint8_t shard;
  const PackedConfig* key;  // stable: points into the shard map node
};

struct Shard {
  std::unordered_map<PackedConfig, std::uint32_t, PackedConfigHash> map;
  std::vector<std::uint32_t> slots;  // slotRef -> final node id
  std::vector<NewEntry> pending;     // this level's insertions, stream order
  /// Per-entry dedup/codec charges this shard accrued (DESIGN decision 18).
  /// Touched only by the shard's phase-2 owner and the merge thread; folded
  /// in fixed shard order into the tracker after every merge.
  MemoryLedger ledger;
};

/// Per-shard state of the compressed-mode dedup (phase 2). `map` holds only
/// THIS level's first occurrences (cross-level dedup goes through the
/// fingerprint table), `slots` maps this level's slotRefs to their
/// provisionally assigned ids, and `fpTable` is the shard's slice of the
/// two-tier RAM table (ids from completed levels, minus spilled ranges).
struct CShard {
  std::unordered_map<PackedConfig, std::uint32_t, PackedConfigHash> map;
  std::vector<std::uint32_t> slots;
  std::vector<NewEntry> pending;
  FpTable fpTable;
};

/// Compressed-storage variant of the level-synchronous engine. The phase
/// structure is identical to the explicit engine below; what changes is the
/// landing representation (delta stores instead of vectors), the dedup tier
/// (fingerprint tables + spill runs instead of one map per shard) and the
/// phase-3 replay, which additionally advances a COPY of the spill policy so
/// flush decisions — pure functions of the interned count — happen at the
/// exact serial pop positions. Flushes decided mid-replay are materialized
/// only after the level commits (on the truncation path the files would be
/// unobservable, so only the modeled state is taken).
ConfigGraph exploreParallelCompressed(const Protocol& proto,
                                      const std::vector<Configuration>& initials,
                                      const ExploreOptions& options,
                                      bool canonical) {
  ConfigGraph g;
  const std::uint32_t n = initials.front().numMobile();
  const std::uint32_t m = n + (proto.hasLeader() ? 1u : 0u);
  g.numParticipants = m;
  const std::uint32_t K = resolveThreads(options.threads);
  const PackedCodec codec(canonical ? PackedCodec::Form::kCanonical
                                    : PackedCodec::Form::kConcrete,
                          proto, n);
  const PhaseScope phase(options.observer, options.exploreId, "explore");
  g.packed.init(codec, /*concrete=*/!canonical);
  ConfigStore& store = g.packed.configStore();
  EdgeStreamStore& estore = g.packed.edgeStore();
  ExploreTracker tracker(options.observer, options.exploreId, g, codec, n);

  std::vector<CShard> shards(kShards);
  SpillPolicy policy(options.spillBytes);
  SpillRunSet runs(options.spillDir);
  const std::uint32_t width = codec.packedBytes();

  const auto syncComponents = [&] {
    tracker.setCompressedComponents(store.modeledBytes(), estore.modeledBytes(),
                                    policy.dedupModelBytes(store.count()));
    tracker.setSpillState(policy.spillDiskBytes(), policy.runCount());
  };
  // Drains the flushed id range out of every shard's table slice into one
  // sorted run — the committed form of one SpillPolicy::Action.
  const auto materializeFlush = [&](const SpillPolicy::Action& action) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> drained;
    for (CShard& sh : shards) {
      sh.fpTable.drainRange(action.from, action.to, drained);
    }
    std::sort(drained.begin(), drained.end());
    std::vector<SpillEntry> entries;
    entries.reserve(drained.size());
    for (const auto& [fp, id] : drained) entries.push_back(SpillEntry{fp, id});
    runs.writeRun(entries);
    if (action.compact) runs.compact();
  };
  // Merge-thread section timing (wall-clock, exempt from bit-identity).
  const auto timed = [&](ExploreTracker::Section section, auto&& fn) {
    if (!tracker.timing()) {
      fn();
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    tracker.addSectionSeconds(
        section, std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  };

  std::vector<std::uint32_t> frontier;
  {
    std::vector<std::uint8_t> verifyBuf(width);
    for (const auto& initial : initials) {
      const Configuration c = canonical ? initial.canonicalized() : initial;
      const PackedConfig key = codec.pack(c);
      CShard& sh = shards[key.hash() % kShards];
      const auto hit = sh.fpTable.find(key.hash(), [&](std::uint32_t id) {
        store.decode(id, verifyBuf.data());
        return std::memcmp(verifyBuf.data(), key.data(), width) == 0;
      });
      if (hit) continue;
      const std::uint32_t id = store.count();
      store.append(key.data());
      sh.fpTable.insert(key.hash(), id);
      frontier.push_back(id);
    }
  }
  syncComponents();

  LevelPool pool(K);
  std::vector<std::vector<Cand>> candBuf;
  std::vector<std::vector<std::uint8_t>> bodyBuf;
  std::vector<std::array<std::vector<PK>, kShards>> buckets(K);
  std::atomic<std::uint32_t> shardCursor{0};

  while (!frontier.empty()) {
    // Level entry replays the serial top-of-pop for p = 0: spill
    // maintenance first (flushing is what lets a tight budget survive),
    // then the cap checks against the synced components.
    if (const auto action = policy.maybeFlush(store.count())) {
      timed(ExploreTracker::Section::kIo, [&] { materializeFlush(*action); });
    }
    syncComponents();
    tracker.checkpoint(frontier.size());
    {
      const bool overNodes = g.size() > options.maxNodes;
      const bool overBytes =
          options.maxBytes != 0 && tracker.totalBytes() > options.maxBytes;
      if (overNodes || overBytes) {
        g.truncated = true;
        g.truncatedByBudget = overBytes && !overNodes;
        tracker.recordTruncation(options.maxNodes, options.maxBytes,
                                 g.truncatedByBudget, frontier);
        break;
      }
    }
    const std::uint32_t L = static_cast<std::uint32_t>(frontier.size());
    if (candBuf.size() < L) candBuf.resize(L);
    if (bodyBuf.size() < L) bodyBuf.resize(L);

    // Phase 1: expand + bucket. Workers decode their contiguous frontier
    // block through a sequential cursor (frontier ids ascend by one).
    timed(ExploreTracker::Section::kExpand, [&] {
      pool.run([&](std::uint32_t w) {
        const std::uint32_t lo =
            static_cast<std::uint32_t>(std::uint64_t{L} * w / K);
        const std::uint32_t hi =
            static_cast<std::uint32_t>(std::uint64_t{L} * (w + 1) / K);
        auto& myBuckets = buckets[w];
        for (auto& b : myBuckets) b.clear();
        ConfigStore::Cursor cursor(store);
        Configuration current;
        Configuration next;
        Configuration next2;
        for (std::uint32_t p = lo; p < hi; ++p) {
          auto& cands = candBuf[p];
          cands.clear();
          codec.unpackInto(cursor.at(frontier[p]), current);
          auto sink = [&](const Configuration& succ, const EdgeMeta& meta) {
            Cand c;
            c.key = codec.pack(succ);
            c.shard = static_cast<std::uint8_t>(c.key.hash() % kShards);
            c.meta = meta;
            cands.push_back(std::move(c));
          };
          if (canonical) {
            forEachCanonicalSuccessor(proto, current, n, next, next2, sink);
          } else {
            forEachConcreteSuccessor(proto, current, m, options.topology, next,
                                     next2, sink);
          }
          for (std::uint32_t k = 0; k < cands.size(); ++k) {
            myBuckets[cands[k].shard].push_back(PK{p, k});
          }
        }
      });
    });

    // Phase 2: per-shard dedup against pending map, fingerprint table and
    // spill runs (three disjoint id sets). Verification decodes the const
    // store; run probes are pread-only — both thread-safe.
    shardCursor.store(0, std::memory_order_relaxed);
    timed(ExploreTracker::Section::kDedup, [&] {
      pool.run([&](std::uint32_t) {
        std::vector<std::uint8_t> verifyBuf(width);
        std::vector<std::uint32_t> runCands;
        const auto matches = [&](std::uint32_t candId, const PackedConfig& key) {
          store.decode(candId, verifyBuf.data());
          return std::memcmp(verifyBuf.data(), key.data(), width) == 0;
        };
        for (;;) {
          const std::uint32_t s =
              shardCursor.fetch_add(1, std::memory_order_relaxed);
          if (s >= kShards) break;
          CShard& sh = shards[s];
          for (std::uint32_t w = 0; w < K; ++w) {
            for (const PK pk : buckets[w][s]) {
              Cand& c = candBuf[pk.p][pk.k];
              if (const auto pit = sh.map.find(c.key); pit != sh.map.end()) {
                c.slotRef = pit->second;
                c.dedupHit = true;
                c.finalId = false;
                continue;
              }
              if (const auto hit = sh.fpTable.find(
                      c.key.hash(),
                      [&](std::uint32_t id) { return matches(id, c.key); })) {
                c.slotRef = *hit;
                c.dedupHit = true;
                c.finalId = true;
                continue;
              }
              if (runs.runCount() > 0) {
                runs.candidates(c.key.hash(), runCands);
                bool found = false;
                for (const std::uint32_t id : runCands) {
                  if (matches(id, c.key)) {
                    c.slotRef = id;
                    c.dedupHit = true;
                    c.finalId = true;
                    found = true;
                    break;
                  }
                }
                if (found) continue;
              }
              const auto slotRef = static_cast<std::uint32_t>(sh.pending.size());
              const auto [it, inserted] = sh.map.try_emplace(std::move(c.key), slotRef);
              sh.pending.push_back(
                  NewEntry{(std::uint64_t{pk.p} << 32) | pk.k, slotRef,
                           static_cast<std::uint8_t>(s), &it->first});
              c.slotRef = slotRef;
              c.dedupHit = false;
              c.finalId = false;
            }
          }
        }
      });
    });

    // Phase 3 (serial): replay the serial per-pop state. Provisional ids are
    // assigned to ALL pending entries up front — every edge of a surviving
    // pop references an entry whose first occurrence precedes the cut, so
    // the surviving prefix of ids is stable under suffix rollback — then the
    // walk prices configs (SizeSim), edge streams (lazily encoded here) and
    // the spill-policy copy at every pop.
    std::uint64_t totalNew = 0;
    for (const CShard& sh : shards) totalNew += sh.pending.size();
    std::vector<std::uint32_t> newFrom(L, 0);
    for (const CShard& sh : shards) {
      for (const NewEntry& e : sh.pending) ++newFrom[e.pos >> 32];
    }
    std::vector<const NewEntry*> order;
    order.reserve(static_cast<std::size_t>(totalNew));
    for (const CShard& sh : shards) {
      for (const NewEntry& e : sh.pending) order.push_back(&e);
    }
    std::sort(order.begin(), order.end(),
              [](const NewEntry* a, const NewEntry* b) { return a->pos < b->pos; });

    const std::uint32_t levelStartNodes = store.count();
    const std::uint64_t levelStartBlob = store.blobBytes();
    const std::uint32_t levelStartStreams = estore.streamCount();
    const std::uint64_t levelStartEdgeBlob = estore.blobBytes();
    for (CShard& sh : shards) sh.slots.resize(sh.pending.size());
    std::vector<std::uint64_t> cumCfg(static_cast<std::size_t>(totalNew) + 1, 0);
    {
      ConfigStore::SizeSim sim = store.sizeSim();
      for (std::size_t i = 0; i < order.size(); ++i) {
        const NewEntry* e = order[i];
        shards[e->shard].slots[e->slotRef] =
            levelStartNodes + static_cast<std::uint32_t>(i);
        cumCfg[i + 1] = cumCfg[i] + sim.append(e->key->data());
      }
    }
    const auto resolveTarget = [&](const Cand& c) {
      return c.finalId ? c.slotRef : shards[c.shard].slots[c.slotRef];
    };

    SpillPolicy replayPolicy = policy;
    std::vector<SpillPolicy::Action> actions;
    std::uint32_t cut = L;
    bool cutByBudget = false;
    std::uint64_t newNodes = 0;
    {
      std::uint64_t edgeBlob = 0;
      for (std::uint32_t p = 0; p < L; ++p) {
        const std::uint64_t k = levelStartNodes + newNodes;
        if (const auto action =
                replayPolicy.maybeFlush(static_cast<std::uint32_t>(k))) {
          actions.push_back(*action);
        }
        const std::uint64_t dedupModel =
            replayPolicy.dedupModelBytes(static_cast<std::uint32_t>(k));
        const std::uint64_t frontierEntries = (L - p) + newNodes;
        const std::uint64_t total =
            ConfigStore::modeledBytesAt(k, levelStartBlob + cumCfg[newNodes]) +
            EdgeStreamStore::modeledBytesAt(levelStartStreams + p,
                                            levelStartEdgeBlob + edgeBlob) +
            dedupModel + frontierEntries * sizeof(std::uint32_t);
        tracker.noteReplayState(total, frontierEntries);
        tracker.noteReplayDedup(dedupModel);
        const bool overNodes = k > options.maxNodes;
        const bool overBytes =
            options.maxBytes != 0 && total > options.maxBytes;
        if (overNodes || overBytes) {
          cut = p;
          cutByBudget = overBytes && !overNodes;
          break;
        }
        EdgeStreamStore::encodeBody(
            bodyBuf[p], frontier[p],
            static_cast<std::uint32_t>(candBuf[p].size()), !canonical,
            [&](std::uint32_t k2) {
              const Cand& c = candBuf[p][k2];
              RawEdge raw;
              raw.to = resolveTarget(c);
              raw.flags = static_cast<std::uint8_t>(
                  (c.meta.changed ? 1 : 0) | (c.meta.changedMobile ? 2 : 0) |
                  (c.meta.changedName ? 4 : 0));
              raw.initiator = c.meta.initiator;
              raw.responder = c.meta.responder;
              return raw;
            });
        edgeBlob += EdgeStreamStore::streamBlobBytes(bodyBuf[p].size());
        newNodes += newFrom[p];
      }
    }
    if (cut < L) {
      // Entries first discovered at or after the cut were never interned
      // serially; they are a suffix of every shard's pending list AND of
      // `order`, so the surviving prefix keeps its provisional ids.
      for (CShard& sh : shards) {
        while (!sh.pending.empty() && (sh.pending.back().pos >> 32) >= cut) {
          sh.map.erase(sh.map.find(*sh.pending.back().key));
          sh.pending.pop_back();
        }
      }
    }

    // Commit the surviving prefix: configs in stream order, then (phase 4,
    // serial by nature — the stores are append-only) the pre-encoded edge
    // streams of the expanded pops.
    std::vector<std::uint32_t> nextFrontier;
    nextFrontier.reserve(static_cast<std::size_t>(newNodes));
    std::uint64_t levelEdges = 0;
    std::uint64_t levelDedup = 0;
    timed(ExploreTracker::Section::kAppend, [&] {
      for (std::size_t i = 0; i < static_cast<std::size_t>(newNodes); ++i) {
        const NewEntry* e = order[i];
        const std::uint32_t id = store.count();
        store.append(e->key->data());
        if (cut == L) shards[e->shard].fpTable.insert(e->key->hash(), id);
        nextFrontier.push_back(id);
      }
      for (std::uint32_t p = 0; p < cut; ++p) {
        estore.appendStream(frontier[p], bodyBuf[p]);
        levelEdges += candBuf[p].size();
        for (const Cand& c : candBuf[p]) {
          if (c.dedupHit) ++levelDedup;
        }
      }
    });
    for (CShard& sh : shards) {
      sh.map.clear();
      sh.pending.clear();
      sh.slots.clear();
    }

    if (cut < L) {
      // Modeled spill state at the cut comes from the replayed policy; the
      // flush files themselves are unobservable past this point and are not
      // written.
      policy = replayPolicy;
      g.truncated = true;
      g.truncatedByBudget = cutByBudget;
      syncComponents();
      std::vector<std::uint32_t> rest(frontier.begin() + cut, frontier.end());
      rest.insert(rest.end(), nextFrontier.begin(), nextFrontier.end());
      tracker.recordLevel(cut, levelEdges, levelDedup, rest.size());
      tracker.checkpoint(rest.size());
      tracker.recordTruncation(options.maxNodes, options.maxBytes, cutByBudget,
                               rest);
      frontier = std::move(rest);
      break;
    }

    // Commit the mid-level flush decisions in replay order, then adopt the
    // replayed policy state.
    if (!actions.empty()) {
      timed(ExploreTracker::Section::kIo, [&] {
        for (const SpillPolicy::Action& action : actions) {
          materializeFlush(action);
        }
      });
    }
    policy = replayPolicy;
    syncComponents();
    tracker.recordLevel(L, levelEdges, levelDedup, nextFrontier.size());
    frontier = std::move(nextFrontier);
  }

  syncComponents();
  tracker.finish(frontier.size());
  return g;
}

}  // namespace

ConfigGraph exploreParallelImpl(const Protocol& proto,
                                const std::vector<Configuration>& initials,
                                const ExploreOptions& options, bool canonical) {
  if (options.storage == GraphStorage::kCompressed) {
    return exploreParallelCompressed(proto, initials, options, canonical);
  }
  ConfigGraph g;
  const std::uint32_t n = initials.front().numMobile();
  const std::uint32_t m = n + (proto.hasLeader() ? 1u : 0u);
  g.numParticipants = m;
  const std::uint32_t K = resolveThreads(options.threads);
  const PackedCodec codec(canonical ? PackedCodec::Form::kCanonical
                                    : PackedCodec::Form::kConcrete,
                          proto, n);

  const PhaseScope phase(options.observer, options.exploreId, "explore");
  ExploreTracker tracker(options.observer, options.exploreId, g, codec, n);
  const std::uint64_t dedupEntry = ExploreTracker::dedupEntryBytes();
  const std::uint64_t codecSpill = tracker.codecSpillBytes();

  std::vector<Shard> shards(kShards);
  // Folds the per-shard ledgers (fixed shard order) into the tracker's
  // node-derived components; bit-identical to the serial per-intern accrual.
  const auto refoldShards = [&] {
    MemoryLedger fold;
    for (const Shard& sh : shards) fold.merge(sh.ledger);
    tracker.applyShardFold(g.configs.size(), fold);
  };
  std::vector<std::uint32_t> frontier;
  for (const auto& initial : initials) {
    const Configuration c = canonical ? initial.canonicalized() : initial;
    PackedConfig key = codec.pack(c);
    Shard& sh = shards[key.hash() % kShards];
    const auto [it, inserted] = sh.map.try_emplace(
        std::move(key), static_cast<std::uint32_t>(sh.slots.size()));
    if (inserted) {
      sh.slots.push_back(static_cast<std::uint32_t>(g.configs.size()));
      frontier.push_back(static_cast<std::uint32_t>(g.configs.size()));
      g.configs.push_back(c);
      g.adj.emplace_back();
      sh.ledger.add(MemoryComponent::kDedup, dedupEntry);
      sh.ledger.add(MemoryComponent::kCodec, codecSpill);
    }
  }
  refoldShards();

  LevelPool pool(K);
  std::vector<std::vector<Cand>> candBuf;
  // buckets[w][s]: stream-ordered (p, k) indices worker w produced for shard
  // s. Concatenating w = 0..K-1 restores stream order because phase 1 blocks
  // are contiguous and ascending in p.
  std::vector<std::array<std::vector<PK>, kShards>> buckets(K);
  std::atomic<std::uint32_t> shardCursor{0};
  std::atomic<std::uint32_t> nodeCursor{0};
  std::atomic<std::uint64_t> edgeCount{0};
  std::atomic<std::uint64_t> dedupCount{0};

  while (!frontier.empty()) {
    // The serial loop re-checks both caps before every pop, so a cap already
    // exceeded at level entry truncates with the whole frontier unexpanded.
    // (This duplicates the phase-3 replay's p = 0 step — same state, same
    // verdict — to skip the expand/dedup phases entirely.)
    tracker.checkpoint(frontier.size());
    {
      const bool overNodes = g.size() > options.maxNodes;
      const bool overBytes =
          options.maxBytes != 0 && tracker.totalBytes() > options.maxBytes;
      if (overNodes || overBytes) {
        g.truncated = true;
        g.truncatedByBudget = overBytes && !overNodes;
        tracker.recordTruncation(options.maxNodes, options.maxBytes,
                                 g.truncatedByBudget, frontier);
        break;
      }
    }
    const std::uint32_t L = static_cast<std::uint32_t>(frontier.size());
    if (candBuf.size() < L) candBuf.resize(L);

    // Phase 1: expand + bucket.
    pool.run([&](std::uint32_t w) {
      const std::uint32_t lo =
          static_cast<std::uint32_t>(std::uint64_t{L} * w / K);
      const std::uint32_t hi =
          static_cast<std::uint32_t>(std::uint64_t{L} * (w + 1) / K);
      auto& myBuckets = buckets[w];
      for (auto& b : myBuckets) b.clear();
      Configuration next;
      Configuration next2;
      for (std::uint32_t p = lo; p < hi; ++p) {
        auto& cands = candBuf[p];
        cands.clear();
        const Configuration& current = g.configs[frontier[p]];
        auto sink = [&](const Configuration& succ, const EdgeMeta& meta) {
          Cand c;
          c.key = codec.pack(succ);
          c.shard = static_cast<std::uint8_t>(c.key.hash() % kShards);
          c.meta = meta;
          cands.push_back(std::move(c));
        };
        if (canonical) {
          forEachCanonicalSuccessor(proto, current, n, next, next2, sink);
        } else {
          forEachConcreteSuccessor(proto, current, m, options.topology, next,
                                   next2, sink);
        }
        for (std::uint32_t k = 0; k < cands.size(); ++k) {
          myBuckets[cands[k].shard].push_back(PK{p, k});
        }
      }
    });

    // Phase 2: per-shard dedup (each shard owned by one worker this level).
    shardCursor.store(0, std::memory_order_relaxed);
    pool.run([&](std::uint32_t) {
      for (;;) {
        const std::uint32_t s =
            shardCursor.fetch_add(1, std::memory_order_relaxed);
        if (s >= kShards) break;
        Shard& sh = shards[s];
        for (std::uint32_t w = 0; w < K; ++w) {
          for (const PK pk : buckets[w][s]) {
            Cand& c = candBuf[pk.p][pk.k];
            const auto [it, inserted] = sh.map.try_emplace(
                std::move(c.key), static_cast<std::uint32_t>(sh.slots.size()));
            if (inserted) {
              sh.slots.push_back(kUnassigned);
              sh.pending.push_back(
                  NewEntry{(std::uint64_t{pk.p} << 32) | pk.k, it->second,
                           static_cast<std::uint8_t>(s), &it->first});
              sh.ledger.add(MemoryComponent::kDedup, dedupEntry);
              sh.ledger.add(MemoryComponent::kCodec, codecSpill);
            }
            c.slotRef = it->second;
            c.dedupHit = !inserted;
          }
        }
      }
    });

    // Phase 3 (serial): replay the serial per-pop state — node count, modeled
    // bytes, frontier size — then assign ids in stream order (the serial
    // intern order). The replay runs even when no cap can fire so the
    // ledger's high-water marks are engine-invariant (DESIGN decision 18).
    std::uint64_t totalNew = 0;
    for (const Shard& sh : shards) totalNew += sh.pending.size();
    std::vector<std::uint32_t> newFrom(L, 0);
    for (const Shard& sh : shards) {
      for (const NewEntry& e : sh.pending) ++newFrom[e.pos >> 32];
    }

    const std::uint64_t levelStartNodes = g.size();
    const std::uint64_t adjStart = tracker.adjacencyBytes();
    std::uint32_t cut = L;  // number of level nodes that get expanded
    bool cutByBudget = false;
    {
      std::uint64_t newNodes = 0;
      std::uint64_t adjPrefix = 0;
      for (std::uint32_t p = 0; p < L; ++p) {
        const std::uint64_t k = levelStartNodes + newNodes;
        const std::uint64_t frontierEntries = (L - p) + newNodes;
        const std::uint64_t total =
            tracker.nodeDependentBytes(k) + adjStart + adjPrefix +
            frontierEntries * sizeof(std::uint32_t);
        tracker.noteReplayState(total, frontierEntries);
        const bool overNodes = k > options.maxNodes;
        const bool overBytes =
            options.maxBytes != 0 && total > options.maxBytes;
        if (overNodes || overBytes) {
          cut = p;
          cutByBudget = overBytes && !overNodes;
          break;
        }
        adjPrefix += paddedAllocBytes(std::uint64_t{candBuf[p].size()} *
                                      sizeof(Edge));
        newNodes += newFrom[p];
      }
    }
    if (cut < L) {
      // Serial exploration stops before expanding position `cut`; nodes
      // first discovered at or after it were never interned. They form a
      // suffix of every shard's stream-ordered pending list.
      for (Shard& sh : shards) {
        while (!sh.pending.empty() && (sh.pending.back().pos >> 32) >= cut) {
          sh.map.erase(sh.map.find(*sh.pending.back().key));
          sh.slots.pop_back();
          sh.pending.pop_back();
          sh.ledger.sub(MemoryComponent::kDedup, dedupEntry);
          sh.ledger.sub(MemoryComponent::kCodec, codecSpill);
        }
      }
    }

    std::vector<const NewEntry*> order;
    order.reserve(static_cast<std::size_t>(totalNew));
    for (const Shard& sh : shards) {
      for (const NewEntry& e : sh.pending) order.push_back(&e);
    }
    std::sort(order.begin(), order.end(),
              [](const NewEntry* a, const NewEntry* b) { return a->pos < b->pos; });

    std::vector<std::uint32_t> nextFrontier;
    nextFrontier.reserve(order.size());
    for (const NewEntry* e : order) {
      const std::uint32_t id = static_cast<std::uint32_t>(g.configs.size());
      shards[e->shard].slots[e->slotRef] = id;
      g.configs.push_back(codec.unpack(*e->key));
      g.adj.emplace_back();
      nextFrontier.push_back(id);
    }
    for (Shard& sh : shards) sh.pending.clear();
    refoldShards();
    // Adjacency charges for the expanded prefix, in serial order (the model
    // depends only on per-node edge counts, known since phase 1).
    for (std::uint32_t p = 0; p < cut; ++p) {
      tracker.recordNodeExpanded(candBuf[p].size());
    }

    // Phase 4: build adjacency for the expanded prefix of the level.
    nodeCursor.store(0, std::memory_order_relaxed);
    edgeCount.store(0, std::memory_order_relaxed);
    dedupCount.store(0, std::memory_order_relaxed);
    pool.run([&](std::uint32_t) {
      std::uint64_t localEdges = 0;
      std::uint64_t localDedup = 0;
      for (;;) {
        const std::uint32_t p =
            nodeCursor.fetch_add(1, std::memory_order_relaxed);
        if (p >= cut) break;
        const auto& cands = candBuf[p];
        auto& adj = g.adj[frontier[p]];
        adj.reserve(cands.size());
        for (const Cand& c : cands) {
          adj.push_back(Edge{shards[c.shard].slots[c.slotRef], c.meta.label,
                             c.meta.initiator, c.meta.responder, c.meta.changed,
                             c.meta.changedMobile, c.meta.changedName});
          ++localEdges;
          if (c.dedupHit) ++localDedup;
        }
      }
      edgeCount.fetch_add(localEdges, std::memory_order_relaxed);
      dedupCount.fetch_add(localDedup, std::memory_order_relaxed);
    });

    if (cut < L) {
      g.truncated = true;
      g.truncatedByBudget = cutByBudget;
      // The serial FIFO at the cap: the unexpanded level tail, then the new
      // nodes discovered by the expanded prefix, in discovery (= id) order.
      std::vector<std::uint32_t> rest(frontier.begin() + cut, frontier.end());
      rest.insert(rest.end(), nextFrontier.begin(), nextFrontier.end());
      tracker.recordLevel(cut, edgeCount.load(), dedupCount.load(),
                          rest.size());
      // Match the serial top-of-loop state at the cut before reporting it.
      tracker.checkpoint(rest.size());
      tracker.recordTruncation(options.maxNodes, options.maxBytes, cutByBudget,
                               rest);
      frontier = std::move(rest);
      break;
    }

    tracker.recordLevel(L, edgeCount.load(), dedupCount.load(),
                        nextFrontier.size());
    frontier = std::move(nextFrontier);
  }

  tracker.finish(frontier.size());
  return g;
}

}  // namespace ppn::detail
