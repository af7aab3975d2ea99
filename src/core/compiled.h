// Compiled transition tables: the virtual-free fast path of the simulator.
//
// A Protocol is a finite deterministic transition system, so its entire
// mobile-mobile delta can be flattened once into a dense Q x Q table (and,
// when the leader state space is enumerable and closed, an L x Q leader
// table). After this one-time compilation the hot simulation loop touches no
// virtual dispatch at all: a transition is one table load, and the engine's
// silence question reduces to an O(1) counter test backed by the precomputed
// null-transition bitmaps (see Engine's incremental tracker in engine.h).
//
// Correctness contract: every accessor reproduces the virtual Protocol
// byte-for-byte (mobileDelta / leaderDelta / nameOf / isValidName); the
// interpreted path remains the reference oracle and the differential tests
// in tests/core/compiled_test.cpp enforce bit-identical RunOutcomes.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/protocol.h"
#include "core/types.h"

namespace ppn {

class CompiledProtocol {
 public:
  /// Largest |Q| worth compiling: the Q x Q table stays a few MB and L2/L3
  /// resident. Registry protocols top out in the hundreds of states.
  static constexpr StateId kMaxStates = 2048;

  /// Largest L x Q leader table (entries) worth materializing; above this the
  /// leader falls back to virtual dispatch (mobile-mobile interactions — the
  /// 1 - 2/(N+1) majority — stay compiled either way).
  static constexpr std::size_t kMaxLeaderEntries = std::size_t{1} << 22;

  /// Returned by leaderIndexOf for leader states outside the compiled set.
  static constexpr std::uint32_t kNoLeaderIndex = 0xffffffffu;

  /// Cheap pre-check: Q in [1, kMaxStates]. Compilation itself additionally
  /// requires the delta to be closed over 0..Q-1 (throws otherwise).
  static bool compilable(const Protocol& proto);

  /// Compiles `proto`, which must outlive this object. Performs the Q^2
  /// virtual calls once; throws std::invalid_argument when !compilable or the
  /// mobile delta leaves 0..Q-1 (the same condition verifyClosed reports).
  explicit CompiledProtocol(const Protocol& proto);

  const Protocol& protocol() const { return *proto_; }
  StateId numStates() const { return q_; }

  // --- hot-path accessors (table loads only) ------------------------------

  MobilePair mobileDelta(StateId a, StateId b) const {
    return mobile_[static_cast<std::size_t>(a) * q_ + b];
  }

  /// delta(a, b) == (a, b): the interaction would change nothing.
  bool mobileNull(StateId a, StateId b) const {
    const std::size_t bit = static_cast<std::size_t>(a) * q_ + b;
    return (nullMM_[bit >> 6] >> (bit & 63)) & 1u;
  }

  /// delta(s, s) != (s, s): two agents sharing state s can still change.
  bool diagActive(StateId s) const {
    return (diagActive_[s >> 6] >> (s & 63)) & 1u;
  }

  /// Bit row for the incremental silence tracker: bit t of row s is set iff
  /// t != s and delta(s,t) or delta(t,s) is non-null — i.e. the unordered
  /// state pair {s, t} keeps the configuration live. Bit s itself is always
  /// clear (the diagonal is diagActive). Rows are wordsPerRow() words long.
  const std::uint64_t* activeRow(StateId s) const {
    return activeRows_.data() + static_cast<std::size_t>(s) * words_;
  }
  std::size_t wordsPerRow() const { return words_; }

  StateId nameOf(StateId s) const { return names_[s]; }
  bool isValidName(StateId s) const {
    return (validNames_[s >> 6] >> (s & 63)) & 1u;
  }

  // --- leader fast path ----------------------------------------------------

  /// True when the leader delta was materialized: the protocol has a leader,
  /// allLeaderStates() is enumerable, the table fits kMaxLeaderEntries and
  /// the enumerated set is closed under leaderDelta. When false, leader
  /// interactions use virtual dispatch (still exact).
  bool leaderCompiled() const { return leaderCompiled_; }

  /// Dense index of a leader state, or kNoLeaderIndex when it is outside the
  /// compiled set (e.g. after fault injection of an un-enumerated state).
  std::uint32_t leaderIndexOf(LeaderStateId leader) const {
    const auto it = leaderIndex_.find(leader);
    return it == leaderIndex_.end() ? kNoLeaderIndex : it->second;
  }

  LeaderStateId leaderIdAt(std::uint32_t index) const {
    return leaderIds_[index];
  }

  /// Table entry: successor leader by dense index (no hash on the hot path)
  /// plus the agent's successor state.
  struct LeaderEntry {
    std::uint32_t nextLeader;
    StateId mobile;
  };

  const LeaderEntry& leaderDelta(std::uint32_t leaderIndex, StateId mobile) const {
    return leader_[static_cast<std::size_t>(leaderIndex) * q_ + mobile];
  }

  /// leaderDelta(l, s) == (l, s): the leader interaction would change nothing
  /// (not even the leader's own state).
  bool leaderNull(std::uint32_t leaderIndex, StateId mobile) const {
    const std::size_t bit = static_cast<std::size_t>(leaderIndex) * q_ + mobile;
    return (nullLM_[bit >> 6] >> (bit & 63)) & 1u;
  }

 private:
  const Protocol* proto_;
  StateId q_;
  std::size_t words_;  ///< 64-bit words per Q-bit row

  std::vector<MobilePair> mobile_;      ///< Q x Q successor pairs
  std::vector<std::uint64_t> nullMM_;   ///< Q x Q null-transition bitmap
  std::vector<std::uint64_t> diagActive_;
  std::vector<std::uint64_t> activeRows_;  ///< Q rows x words_ (pair liveness)
  std::vector<StateId> names_;
  std::vector<std::uint64_t> validNames_;

  bool leaderCompiled_ = false;
  std::vector<LeaderStateId> leaderIds_;  ///< dense index -> encoded state
  std::unordered_map<LeaderStateId, std::uint32_t> leaderIndex_;
  std::vector<LeaderEntry> leader_;    ///< L x Q successors
  std::vector<std::uint64_t> nullLM_;  ///< L x Q null bitmap
};

}  // namespace ppn
