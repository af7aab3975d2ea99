// Exhaustive search over the space of all deterministic leaderless protocols
// with a given number of states — brute-force confirmation of the paper's
// lower bounds at small P:
//
//  * Proposition 2: no SYMMETRIC P-state protocol names a population of
//    N = P agents (under weak or global fairness, any uniform
//    initialization) — the search reports zero solvers over the full
//    symmetric space.
//  * Proposition 12 (positive control): the ASYMMETRIC space at P = 2 does
//    contain solvers (e.g. (s,s) -> (s, s+1 mod P)), so the search machinery
//    itself demonstrably can find solutions where they exist.
//
// The space of symmetric protocols with Q states has Q^Q * Q^(Q(Q-1))
// members (Q=2: 16, Q=3: 19683); the full deterministic space has
// (Q^2)^(Q^2) members (Q=2: 256). Larger Q is out of reach by design — the
// bounds are uniform in P, the search is a non-vacuous sanity check.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/explore.h"
#include "analysis/problem.h"
#include "core/protocol.h"
#include "obs/explore_observer.h"

namespace ppn {

/// A protocol given by explicit transition tables.
class TabularProtocol final : public Protocol {
 public:
  /// `table[a * q + b]` is delta(a, b). `symmetric` must match the table
  /// (verified in debug by verifySymmetric()).
  TabularProtocol(StateId q, std::vector<MobilePair> table, bool symmetric);

  std::string name() const override;
  StateId numMobileStates() const override { return q_; }
  bool isSymmetric() const override { return symmetric_; }
  MobilePair mobileDelta(StateId initiator, StateId responder) const override {
    return table_[initiator * q_ + responder];
  }

 private:
  StateId q_;
  std::vector<MobilePair> table_;
  bool symmetric_;
};

/// Number of symmetric deterministic protocols with q states.
std::uint64_t symmetricProtocolCount(StateId q);

/// Decodes the index-th symmetric protocol (0 <= index < count).
TabularProtocol decodeSymmetricProtocol(StateId q, std::uint64_t index);

/// Number of all deterministic protocols with q states: (q^2)^(q^2).
std::uint64_t allProtocolCount(StateId q);

/// Decodes the index-th protocol of the full deterministic space.
TabularProtocol decodeAnyProtocol(StateId q, std::uint64_t index);

/// The group of state relabelings acting on a candidate space: S_q (every
/// permutation of the q mobile states) or the trivial group. Relabeling
/// protocol delta by a permutation pi gives delta'(pi a, pi b) =
/// pi(delta(a, b)), which stays in the same space (symmetric or not).
class RelabelingGroup {
 public:
  /// `trivial` gives the one-element group: every orbit is a singleton.
  RelabelingGroup(StateId q, bool symmetricSpace, bool trivial);

  /// True iff `idx` is the smallest candidate index in its orbit. Then
  /// `members` holds the orbit's distinct indices, sorted ascending (so
  /// members.front() == idx and members.size() is the orbit size). For a
  /// non-canonical idx `members` is left unspecified.
  bool canonicalOrbit(std::uint64_t idx,
                      std::vector<std::uint64_t>& members) const;

 private:
  StateId q_;
  bool symmetricSpace_;
  std::vector<std::vector<StateId>> perms_;  ///< the non-identity elements
};

enum class Fairness { kWeak, kGlobal };

/// All counts are in candidates (orbit members), whether or not the search
/// model-checked each member or only its orbit's representative.
struct SearchOutcome {
  std::uint64_t examined = 0;
  std::uint64_t solvers = 0;
  /// Candidates whose verdict came from a truncated exploration: neither
  /// solver nor non-solver. A lower-bound claim ("zero solvers") is only
  /// conclusive when this is zero too.
  std::uint64_t unknown = 0;
  /// The smallest solving candidate indices (<= 8, ascending), for
  /// inspection.
  std::vector<std::uint64_t> solverIndices;
};

/// How often searches report progress: one SearchProgressEvent each time
/// `examined` crosses a multiple of this stride (plus a final done=true event
/// per search). A quotiented search advances `examined` by whole orbits, so
/// the events need not land on exact multiples.
constexpr std::uint64_t kSearchProgressStride = 256;

/// Knobs for the exhaustive searches.
struct SearchOptions {
  /// Node cap for every per-candidate exploration.
  std::size_t maxNodes = 4'000'000;
  /// Byte budget for every per-candidate exploration (ExploreOptions.
  /// maxBytes; 0 disables). A budget-truncated exploration leaves the
  /// candidate `unknown`, exactly like a node-cap truncation.
  std::uint64_t maxBytes = 0;
  /// Graph representation for the inner explorations (ExploreOptions::
  /// storage); compressed by default, like exploreConcrete itself.
  GraphStorage storage = GraphStorage::kCompressed;
  /// Dedup-table spill threshold and run directory, forwarded verbatim to
  /// ExploreOptions::spillBytes / spillDir (0 = never spill).
  std::uint64_t spillBytes = 0;
  std::string spillDir;
  /// Worker threads dispatching CANDIDATES (the inner explorations stay
  /// serial — candidate-level parallelism dominates for these workloads).
  /// 1 = the calling thread only; 0 = hardware concurrency. The outcome is
  /// deterministic for any value: counts are exact and solverIndices holds
  /// the smallest candidate indices, not the first completions. At
  /// threads > 1 the observer is fed through a SerializedExploreObserver
  /// (obs/concurrent_observer.h), so it need not be thread-safe itself, and
  /// `problemFor` must be safe to call concurrently (the naming/counting
  /// problem factories are).
  std::uint32_t threads = 1;
  ExploreObserver* observer = nullptr;
  std::uint64_t searchId = 0;
};

/// Generic search: counts the protocols in the chosen space that solve an
/// arbitrary configuration-level problem. `problemFor` builds the problem
/// statement for each candidate (most problems ignore the protocol and
/// capture only the predicate; naming needs the protocol's name semantics).
/// With `selfStabilizing` the protocol must solve from EVERY configuration;
/// otherwise from SOME uniform initialization of the designer's choice.
/// `problemFor` need not be invariant under relabeling the states, so this
/// search model-checks every candidate (the trivial relabeling group).
///
/// A non-null `observer` receives a "search"-phase pair tagged with
/// `searchId`, a SearchProgressEvent whenever `examined` crosses a multiple
/// of kSearchProgressStride plus a final done=true event, and is forwarded
/// into every per-candidate checker invocation. Those inner explorations get
/// exploreIds (searchId << 32) | seq with seq = idx * slots + slot + 1, where
/// idx is the candidate index, slots is q (one per uniform initial state;
/// 1 when self-stabilizing) and slot the initial state tried (0 when
/// self-stabilizing). The ids are unique, ascending in serial order and the
/// same at every thread count, so one JSONL stream carrying several searches
/// stays attributable. A space whose seq cannot fit in 32 bits throws
/// std::overflow_error.
SearchOutcome searchProblem(
    StateId q, std::uint32_t n, Fairness fairness, bool symmetricSpace,
    bool selfStabilizing,
    const std::function<Problem(const Protocol&)>& problemFor,
    ExploreObserver* observer = nullptr, std::uint64_t searchId = 0);

/// Options form (see SearchOptions for the threading contract).
SearchOutcome searchProblem(
    StateId q, std::uint32_t n, Fairness fairness, bool symmetricSpace,
    bool selfStabilizing,
    const std::function<Problem(const Protocol&)>& problemFor,
    const SearchOptions& options);

/// For every protocol in the chosen space, asks: does there EXIST a uniform
/// initialization (all agents in the same state, the designer's choice) from
/// which the protocol solves naming for a population of `n` agents under
/// `fairness`? Counts the protocols for which the answer is yes.
///
/// The verdict is constant on each S_q relabeling orbit (DESIGN decision
/// 20), so the naming searches model-check only the orbit's smallest index
/// and weight it by the orbit size: `examined`, `solvers` and `unknown` count
/// orbit members, and solver orbits are expanded back into solverIndices.
/// With options.maxBytes > 0 they check every candidate instead, because
/// byte-budget truncation depends on the labels.
SearchOutcome searchUniformNaming(StateId q, std::uint32_t n, Fairness fairness,
                                  bool symmetricSpace,
                                  ExploreObserver* observer = nullptr,
                                  std::uint64_t searchId = 0);

SearchOutcome searchUniformNaming(StateId q, std::uint32_t n, Fairness fairness,
                                  bool symmetricSpace,
                                  const SearchOptions& options);

/// Like searchUniformNaming but quantifying over ARBITRARY initialization
/// (self-stabilizing naming): the protocol must solve from every
/// configuration. Quotiented by relabeling exactly as searchUniformNaming.
SearchOutcome searchSelfStabilizingNaming(StateId q, std::uint32_t n,
                                          Fairness fairness,
                                          bool symmetricSpace,
                                          ExploreObserver* observer = nullptr,
                                          std::uint64_t searchId = 0);

SearchOutcome searchSelfStabilizingNaming(StateId q, std::uint32_t n,
                                          Fairness fairness,
                                          bool symmetricSpace,
                                          const SearchOptions& options);

}  // namespace ppn
