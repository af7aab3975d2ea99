#include "analysis/protocol_search.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "analysis/explore_impl.h"
#include "analysis/global_checker.h"
#include "analysis/initial_sets.h"
#include "analysis/weak_checker.h"
#include "obs/concurrent_observer.h"

namespace ppn {

TabularProtocol::TabularProtocol(StateId q, std::vector<MobilePair> table,
                                 bool symmetric)
    : q_(q), table_(std::move(table)), symmetric_(symmetric) {
  if (table_.size() != static_cast<std::size_t>(q) * q) {
    throw std::invalid_argument("TabularProtocol: table size mismatch");
  }
}

std::string TabularProtocol::name() const {
  return std::string(symmetric_ ? "tabular-symmetric(" : "tabular(") +
         std::to_string(q_) + " states)";
}

namespace {

std::uint64_t ipow(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t r = 1;
  for (std::uint64_t i = 0; i < exp; ++i) {
    if (r > UINT64_MAX / base) {
      throw std::overflow_error("protocol space too large to enumerate");
    }
    r *= base;
  }
  return r;
}

std::vector<MobilePair> decodeSymmetricTable(StateId q, std::uint64_t index) {
  std::vector<MobilePair> table(static_cast<std::size_t>(q) * q);
  // Diagonal: digit base q per state.
  for (StateId s = 0; s < q; ++s) {
    const auto d = static_cast<StateId>(index % q);
    index /= q;
    table[s * q + s] = MobilePair{d, d};
  }
  // Off-diagonal: digit base q^2 per unordered pair (a < b).
  const std::uint64_t base = static_cast<std::uint64_t>(q) * q;
  for (StateId a = 0; a < q; ++a) {
    for (StateId b = a + 1; b < q; ++b) {
      const std::uint64_t digit = index % base;
      index /= base;
      const auto pa = static_cast<StateId>(digit / q);
      const auto pb = static_cast<StateId>(digit % q);
      table[a * q + b] = MobilePair{pa, pb};
      table[b * q + a] = MobilePair{pb, pa};  // symmetry
    }
  }
  return table;
}

/// Inverse of decodeSymmetricTable: the same digits, most significant first.
std::uint64_t encodeSymmetricTable(StateId q,
                                   const std::vector<MobilePair>& table) {
  const std::uint64_t base = static_cast<std::uint64_t>(q) * q;
  std::uint64_t index = 0;
  for (StateId a = q; a-- > 0;) {
    for (StateId b = q; b-- > a + 1;) {
      const MobilePair& p = table[a * q + b];
      index = index * base + static_cast<std::uint64_t>(p.initiator) * q +
              p.responder;
    }
  }
  for (StateId s = q; s-- > 0;) {
    index = index * q + table[s * q + s].initiator;
  }
  return index;
}

std::vector<MobilePair> decodeAnyTable(StateId q, std::uint64_t index) {
  const std::uint64_t base = static_cast<std::uint64_t>(q) * q;
  std::vector<MobilePair> table(static_cast<std::size_t>(q) * q);
  for (auto& cell : table) {
    const std::uint64_t digit = index % base;
    index /= base;
    cell = MobilePair{static_cast<StateId>(digit / q),
                      static_cast<StateId>(digit % q)};
  }
  return table;
}

/// Inverse of decodeAnyTable.
std::uint64_t encodeAnyTable(StateId q, const std::vector<MobilePair>& table) {
  const std::uint64_t base = static_cast<std::uint64_t>(q) * q;
  std::uint64_t index = 0;
  for (auto cell = table.rbegin(); cell != table.rend(); ++cell) {
    index = index * base + static_cast<std::uint64_t>(cell->initiator) * q +
            cell->responder;
  }
  return index;
}

}  // namespace

std::uint64_t symmetricProtocolCount(StateId q) {
  // Q choices for each diagonal rule (s,s)->(d,d); Q^2 choices for each
  // unordered off-diagonal pair's rule (the mirrored rule is implied).
  const std::uint64_t offDiagPairs = static_cast<std::uint64_t>(q) * (q - 1) / 2;
  return ipow(q, q) * ipow(static_cast<std::uint64_t>(q) * q, offDiagPairs);
}

TabularProtocol decodeSymmetricProtocol(StateId q, std::uint64_t index) {
  return TabularProtocol(q, decodeSymmetricTable(q, index),
                         /*symmetric=*/true);
}

std::uint64_t allProtocolCount(StateId q) {
  const std::uint64_t cells = static_cast<std::uint64_t>(q) * q;
  return ipow(cells, cells);
}

TabularProtocol decodeAnyProtocol(StateId q, std::uint64_t index) {
  return TabularProtocol(q, decodeAnyTable(q, index), /*symmetric=*/false);
}

RelabelingGroup::RelabelingGroup(StateId q, bool symmetricSpace,
                                 bool trivial)
    : q_(q), symmetricSpace_(symmetricSpace) {
  if (trivial) return;
  std::vector<StateId> perm(q);
  std::iota(perm.begin(), perm.end(), StateId{0});
  // Every non-identity permutation (the identity maps idx to itself).
  while (std::next_permutation(perm.begin(), perm.end())) {
    perms_.push_back(perm);
  }
}

bool RelabelingGroup::canonicalOrbit(
    std::uint64_t idx, std::vector<std::uint64_t>& members) const {
  members.assign(1, idx);
  if (perms_.empty()) return true;
  const std::vector<MobilePair> table = symmetricSpace_
                                            ? decodeSymmetricTable(q_, idx)
                                            : decodeAnyTable(q_, idx);
  std::vector<MobilePair> relabeled(table.size());
  for (const std::vector<StateId>& perm : perms_) {
    // delta'(perm a, perm b) = perm(delta(a, b)): the same protocol with
    // state s renamed perm[s]. A symmetric table stays symmetric.
    for (StateId a = 0; a < q_; ++a) {
      for (StateId b = 0; b < q_; ++b) {
        const MobilePair& out = table[a * q_ + b];
        relabeled[perm[a] * q_ + perm[b]] =
            MobilePair{perm[out.initiator], perm[out.responder]};
      }
    }
    const std::uint64_t image = symmetricSpace_
                                    ? encodeSymmetricTable(q_, relabeled)
                                    : encodeAnyTable(q_, relabeled);
    if (image < idx) return false;
    members.push_back(image);
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  return true;
}

namespace {

/// Tri-state per-candidate verdict: truncated explorations decide nothing.
enum class CandidateVerdict { kSolves, kFails, kUnknown };

/// Decides one candidate protocol. Its inner checker invocations get the
/// explore ids firstExploreId + slot, slot being the uniform initial state
/// (always 0 for the single self-stabilizing exploration).
CandidateVerdict evaluateCandidate(
    StateId q, std::uint32_t n, Fairness fairness, bool symmetricSpace,
    bool selfStabilizing,
    const std::function<Problem(const Protocol&)>& problemFor,
    std::uint64_t idx, const SearchOptions& options,
    ExploreObserver* observer, std::uint64_t firstExploreId) {
  const TabularProtocol proto = symmetricSpace ? decodeSymmetricProtocol(q, idx)
                                               : decodeAnyProtocol(q, idx);
  const Problem problem = problemFor(proto);

  auto solvesFrom = [&](const std::vector<Configuration>& initials,
                        StateId slot) {
    ExploreOptions exploreOptions;
    exploreOptions.maxNodes = options.maxNodes;
    exploreOptions.maxBytes = options.maxBytes;
    exploreOptions.storage = options.storage;
    exploreOptions.spillBytes = options.spillBytes;
    exploreOptions.spillDir = options.spillDir;
    exploreOptions.observer = observer;
    exploreOptions.exploreId = firstExploreId + slot;
    if (fairness == Fairness::kGlobal) {
      const GlobalVerdict v =
          checkGlobalFairness(proto, problem, initials, exploreOptions);
      if (!v.explored) return CandidateVerdict::kUnknown;
      return v.solves ? CandidateVerdict::kSolves : CandidateVerdict::kFails;
    }
    const WeakVerdict v =
        checkWeakFairness(proto, problem, initials, exploreOptions);
    if (!v.explored) return CandidateVerdict::kUnknown;
    return v.solves ? CandidateVerdict::kSolves : CandidateVerdict::kFails;
  };

  CandidateVerdict verdict = CandidateVerdict::kFails;
  if (selfStabilizing) {
    verdict = solvesFrom(fairness == Fairness::kGlobal
                             ? allCanonicalConfigurations(proto, n)
                             : allConcreteConfigurations(proto, n),
                         0);
  } else {
    // The designer may pick any single uniform initialization. Any
    // truncated initialization leaves the candidate unknown unless a later
    // initialization proves it a solver.
    for (StateId s = 0; s < q && verdict != CandidateVerdict::kSolves; ++s) {
      Configuration c;
      c.mobile.assign(n, s);
      const CandidateVerdict v = solvesFrom({c}, s);
      if (v == CandidateVerdict::kSolves ||
          (v == CandidateVerdict::kUnknown &&
           verdict == CandidateVerdict::kFails)) {
        verdict = v;
      }
    }
  }
  return verdict;
}

/// The one search loop behind every public entry point. `labelInvariant`
/// says the problem's verdict is constant on relabeling orbits; the search
/// then checks one canonical representative per orbit (DESIGN decision 20).
SearchOutcome runSearch(
    StateId q, std::uint32_t n, Fairness fairness, bool symmetricSpace,
    bool selfStabilizing,
    const std::function<Problem(const Protocol&)>& problemFor,
    const SearchOptions& options, bool labelInvariant) {
  const std::uint64_t total =
      symmetricSpace ? symmetricProtocolCount(q) : allProtocolCount(q);
  // Explore ids are (searchId << 32) | (idx * slots + slot + 1): unique,
  // ascending in candidate order, and independent of the thread count.
  const std::uint64_t slots =
      selfStabilizing ? 1 : std::max<std::uint64_t>(q, 1);
  if (total > UINT32_MAX / slots) {
    throw std::overflow_error(
        "protocol space too large for 32-bit exploration ids");
  }
  // Compressed byte counts depend on the labels, so budget truncation is
  // not orbit-invariant: a byte budget checks every candidate.
  const RelabelingGroup group(q, symmetricSpace,
                              /*trivial=*/!labelInvariant ||
                                  options.maxBytes > 0);
  const std::uint32_t requested = detail::resolveThreads(options.threads);
  const std::uint32_t K = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(requested, std::max<std::uint64_t>(total, 1)));
  const std::uint64_t searchId = options.searchId;

  // Workers feed the observer through one serializing fan-in; a serial
  // search hands it the caller's observer directly.
  SerializedExploreObserver serializedStorage(options.observer);
  ExploreObserver* observer = options.observer == nullptr || K <= 1
                                  ? options.observer
                                  : &serializedStorage;
  const PhaseScope searchPhase(observer, searchId, "search");
  const auto start = std::chrono::steady_clock::now();

  // Workers claim candidate indices from an atomic cursor and skip every
  // non-canonical one; results are aggregated under one mutex, weighted by
  // orbit size. solverIndices keeps the smallest solver indices, not the
  // first completions, so the outcome is the same for any thread count.
  std::atomic<std::uint64_t> cursor{0};
  std::mutex mu;  // guards outcome, progress emission, firstError
  SearchOutcome outcome;
  std::exception_ptr firstError;

  auto emitProgressLocked = [&](bool done) {
    if (observer == nullptr) return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    SearchProgressEvent e;
    e.searchId = searchId;
    e.examined = outcome.examined;
    e.total = total;
    e.solvers = outcome.solvers;
    e.unknown = outcome.unknown;
    e.candidatesPerSec =
        elapsed > 0.0 ? static_cast<double>(outcome.examined) / elapsed : 0.0;
    e.elapsedMillis = elapsed * 1e3;
    e.done = done;
    observer->onSearchProgress(e);
  };

  auto worker = [&]() {
    try {
      std::vector<std::uint64_t> members;
      for (;;) {
        const std::uint64_t idx =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (idx >= total) break;
        if (!group.canonicalOrbit(idx, members)) continue;
        const CandidateVerdict verdict = evaluateCandidate(
            q, n, fairness, symmetricSpace, selfStabilizing, problemFor, idx,
            options, observer, (searchId << 32) | (idx * slots + 1));
        const std::uint64_t weight = members.size();
        const std::lock_guard<std::mutex> lock(mu);
        const std::uint64_t before = outcome.examined;
        outcome.examined += weight;
        if (verdict == CandidateVerdict::kSolves) {
          outcome.solvers += weight;
          auto& indices = outcome.solverIndices;
          indices.insert(indices.end(), members.begin(), members.end());
          std::sort(indices.begin(), indices.end());
          if (indices.size() > 8) indices.resize(8);
        } else if (verdict == CandidateVerdict::kUnknown) {
          outcome.unknown += weight;
        }
        if (before / kSearchProgressStride !=
            outcome.examined / kSearchProgressStride) {
          emitProgressLocked(false);
        }
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mu);
      if (firstError == nullptr) firstError = std::current_exception();
      cursor.store(total, std::memory_order_relaxed);  // drain remaining work
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(K - 1);
  for (std::uint32_t w = 1; w < K; ++w) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  if (firstError != nullptr) std::rethrow_exception(firstError);

  emitProgressLocked(true);
  return outcome;
}

Problem namingFor(const Protocol& p) { return namingProblem(p); }

}  // namespace

SearchOutcome searchProblem(
    StateId q, std::uint32_t n, Fairness fairness, bool symmetricSpace,
    bool selfStabilizing,
    const std::function<Problem(const Protocol&)>& problemFor,
    const SearchOptions& options) {
  // An arbitrary problemFor need not be label-invariant: no quotient.
  return runSearch(q, n, fairness, symmetricSpace, selfStabilizing,
                   problemFor, options, /*labelInvariant=*/false);
}

SearchOutcome searchProblem(
    StateId q, std::uint32_t n, Fairness fairness, bool symmetricSpace,
    bool selfStabilizing,
    const std::function<Problem(const Protocol&)>& problemFor,
    ExploreObserver* observer, std::uint64_t searchId) {
  SearchOptions options;
  options.observer = observer;
  options.searchId = searchId;
  return searchProblem(q, n, fairness, symmetricSpace, selfStabilizing,
                       problemFor, options);
}

SearchOutcome searchUniformNaming(StateId q, std::uint32_t n, Fairness fairness,
                                  bool symmetricSpace,
                                  ExploreObserver* observer,
                                  std::uint64_t searchId) {
  SearchOptions options;
  options.observer = observer;
  options.searchId = searchId;
  return searchUniformNaming(q, n, fairness, symmetricSpace, options);
}

SearchOutcome searchUniformNaming(StateId q, std::uint32_t n, Fairness fairness,
                                  bool symmetricSpace,
                                  const SearchOptions& options) {
  return runSearch(q, n, fairness, symmetricSpace, /*selfStabilizing=*/false,
                   namingFor, options, /*labelInvariant=*/true);
}

SearchOutcome searchSelfStabilizingNaming(StateId q, std::uint32_t n,
                                          Fairness fairness,
                                          bool symmetricSpace,
                                          ExploreObserver* observer,
                                          std::uint64_t searchId) {
  SearchOptions options;
  options.observer = observer;
  options.searchId = searchId;
  return searchSelfStabilizingNaming(q, n, fairness, symmetricSpace, options);
}

SearchOutcome searchSelfStabilizingNaming(StateId q, std::uint32_t n,
                                          Fairness fairness,
                                          bool symmetricSpace,
                                          const SearchOptions& options) {
  return runSearch(q, n, fairness, symmetricSpace, /*selfStabilizing=*/true,
                   namingFor, options, /*labelInvariant=*/true);
}

}  // namespace ppn
