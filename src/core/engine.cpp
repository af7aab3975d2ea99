#include "core/engine.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/compiled.h"

namespace ppn {

namespace {

/// Collects the distinct mobile states present in `config` together with
/// multiplicities, as (state, count) pairs. O(N log N)-free: uses a histogram
/// when Q is small, which it always is here.
std::vector<std::pair<StateId, std::uint32_t>> presentStates(
    const Protocol& proto, const Configuration& config) {
  std::vector<std::uint32_t> hist = config.histogram(proto.numMobileStates());
  std::vector<std::pair<StateId, std::uint32_t>> present;
  for (StateId s = 0; s < hist.size(); ++s) {
    if (hist[s] > 0) present.emplace_back(s, hist[s]);
  }
  return present;
}

/// Shared skeleton of the three quiescence notions: enumerates every ordered
/// transition applicable among the present mobile states (the diagonal only
/// when a state has multiplicity >= 2) and the leader against every present
/// state, and reports whether all of them satisfy the given predicates.
/// `mobileOk(s, t, r)` judges delta(s, t) = r; `leaderOk(s, r)` judges
/// leaderDelta(leader, s) = r.
template <typename MobileOk, typename LeaderOk>
bool quiescentUnder(const Protocol& proto, const Configuration& config,
                    MobileOk mobileOk, LeaderOk leaderOk) {
  const auto present = presentStates(proto, config);
  for (std::size_t i = 0; i < present.size(); ++i) {
    const auto [s, count] = present[i];
    if (count >= 2 && !mobileOk(s, s, proto.mobileDelta(s, s))) return false;
    for (std::size_t j = i + 1; j < present.size(); ++j) {
      const StateId t = present[j].first;
      if (!mobileOk(s, t, proto.mobileDelta(s, t))) return false;
      if (!mobileOk(t, s, proto.mobileDelta(t, s))) return false;
    }
  }
  if (config.leader.has_value()) {
    for (const auto& [s, count] : present) {
      (void)count;
      if (!leaderOk(s, proto.leaderDelta(*config.leader, s))) return false;
    }
  }
  return true;
}

/// States are validated once, at Engine construction / resetTo, so the hot
/// path can index unchecked (see the satellite contract in engine.h).
void validateStates(const Protocol& proto, const Configuration& config) {
  const StateId q = proto.numMobileStates();
  for (const StateId s : config.mobile) {
    if (s >= q) {
      throw std::logic_error("configuration state " + std::to_string(s) +
                             " outside the state space of '" + proto.name() +
                             "'");
    }
  }
}

}  // namespace

bool applyInteraction(const Protocol& proto, Configuration& config,
                      Interaction interaction) {
  const std::uint32_t n = config.numMobile();
  const std::uint32_t leaderIdx = n;
  if (interaction.initiator == interaction.responder) {
    throw std::logic_error("interaction requires two distinct participants");
  }
  if (interaction.initiator > leaderIdx || interaction.responder > leaderIdx) {
    throw std::logic_error("participant index out of range");
  }

  const bool initiatorIsLeader = interaction.initiator == leaderIdx;
  const bool responderIsLeader = interaction.responder == leaderIdx;
  if ((initiatorIsLeader || responderIsLeader) && !config.leader.has_value()) {
    throw std::logic_error("leader interaction scheduled without a leader");
  }

  if (initiatorIsLeader || responderIsLeader) {
    // The leader-mobile rule is orientation-free: the leader is
    // distinguishable, so which side "initiated" carries no information.
    const AgentId agent =
        initiatorIsLeader ? interaction.responder : interaction.initiator;
    const StateId before = config.mobile[agent];
    const LeaderStateId leaderBefore = *config.leader;
    const LeaderResult r = proto.leaderDelta(leaderBefore, before);
    config.mobile[agent] = r.mobile;
    config.leader = r.leader;
    return r.mobile != before || r.leader != leaderBefore;
  }

  const StateId a = config.mobile[interaction.initiator];
  const StateId b = config.mobile[interaction.responder];
  const MobilePair r = proto.mobileDelta(a, b);
  config.mobile[interaction.initiator] = r.initiator;
  config.mobile[interaction.responder] = r.responder;
  return r.initiator != a || r.responder != b;
}

bool isSilent(const Protocol& proto, const Configuration& config) {
  const LeaderStateId leader =
      config.leader.has_value() ? *config.leader : LeaderStateId{0};
  return quiescentUnder(
      proto, config,
      [](StateId s, StateId t, const MobilePair& r) {
        return r.initiator == s && r.responder == t;
      },
      [leader](StateId s, const LeaderResult& r) {
        return r.mobile == s && r.leader == leader;
      });
}

bool isMobileSilent(const Protocol& proto, const Configuration& config) {
  return quiescentUnder(
      proto, config,
      [](StateId s, StateId t, const MobilePair& r) {
        return r.initiator == s && r.responder == t;
      },
      [](StateId s, const LeaderResult& r) {
        return r.mobile == s;  // leader-only changes tolerated
      });
}

bool isNameQuiescent(const Protocol& proto, const Configuration& config) {
  auto nameKept = [&proto](StateId before, StateId after) {
    return proto.nameOf(before) == proto.nameOf(after);
  };
  return quiescentUnder(
      proto, config,
      [&nameKept](StateId s, StateId t, const MobilePair& r) {
        return nameKept(s, r.initiator) && nameKept(t, r.responder);
      },
      [&nameKept](StateId s, const LeaderResult& r) {
        return nameKept(s, r.mobile);
      });
}

bool isNamed(const Protocol& proto, const Configuration& config) {
  std::vector<StateId> names;
  names.reserve(config.mobile.size());
  for (const StateId s : config.mobile) {
    if (!proto.isValidName(s)) return false;
    names.push_back(proto.nameOf(s));
  }
  std::sort(names.begin(), names.end());
  return std::adjacent_find(names.begin(), names.end()) == names.end();
}

bool isNamingSolved(const Protocol& proto, const Configuration& config) {
  return isNamed(proto, config) && isNameQuiescent(proto, config);
}

Configuration uniformConfiguration(const Protocol& proto,
                                   std::uint32_t numMobile) {
  const auto init = proto.uniformMobileInit();
  if (!init.has_value()) {
    throw std::logic_error("protocol '" + proto.name() +
                           "' defines no uniform mobile initialization");
  }
  Configuration c;
  c.mobile.assign(numMobile, *init);
  if (proto.hasLeader()) {
    const auto leaderInit = proto.initialLeaderState();
    if (!leaderInit.has_value()) {
      throw std::logic_error("protocol '" + proto.name() +
                             "' has a non-initialized leader; uniform "
                             "configuration is underdetermined");
    }
    c.leader = *leaderInit;
  }
  return c;
}

Configuration arbitraryConfiguration(const Protocol& proto,
                                     std::uint32_t numMobile, Rng& rng) {
  Configuration c;
  c.mobile.resize(numMobile);
  for (auto& s : c.mobile) {
    s = static_cast<StateId>(rng.below(proto.numMobileStates()));
  }
  if (proto.hasLeader()) {
    if (const auto leaderInit = proto.initialLeaderState();
        leaderInit.has_value()) {
      c.leader = *leaderInit;
    } else {
      const auto all = proto.allLeaderStates();
      if (all.empty()) {
        throw std::logic_error("protocol '" + proto.name() +
                               "' cannot enumerate leader states for "
                               "arbitrary initialization");
      }
      c.leader = all[rng.below(all.size())];
    }
  }
  return c;
}

Engine::Engine(const Protocol& proto, Configuration start)
    : proto_(&proto), config_(std::move(start)) {
  if (proto_->hasLeader() != config_.leader.has_value()) {
    throw std::logic_error(
        "configuration leader presence does not match protocol '" +
        proto_->name() + "'");
  }
  validateStates(proto, config_);
}

void Engine::attachCompiled(const CompiledProtocol* compiled) {
  if (compiled != nullptr && &compiled->protocol() != proto_) {
    throw std::logic_error(
        "attachCompiled: table was compiled for a different protocol");
  }
  compiled_ = compiled;
  if (compiled_ != nullptr) {
    rebuildTracker();
  } else {
    hist_.clear();
    present_.clear();
    activePairs_ = 0;
  }
}

bool Engine::step(Interaction interaction) {
  const bool changed = compiled_ != nullptr
                           ? stepCompiled(interaction)
                           : applyInteraction(*proto_, config_, interaction);
  ++interactions_;
  if (changed) {
    ++nonNull_;
    lastChangeAt_ = interactions_;
  }
  return changed;
}

void Engine::runBurst(Scheduler& sched, std::uint64_t n) {
  if (compiled_ == nullptr) {
    for (std::uint64_t i = 0; i < n; ++i) step(sched.next());
    return;
  }
  // The compiled kernel: scheduler pairs are pulled in blocks (one virtual
  // fill() per block instead of one next() per interaction) and each
  // interaction is table lookups plus the O(1) tracker updates. Counter
  // updates are batched; lastChangeAt_ matches step()-by-step execution.
  constexpr std::size_t kBlock = 1024;
  if (burstBuf_.size() < kBlock) burstBuf_.resize(kBlock);
  std::uint64_t done = 0;
  std::uint64_t nonNull = 0;
  std::uint64_t lastChange = 0;  // 1-based offset of the last change
  while (done < n) {
    const std::size_t block =
        static_cast<std::size_t>(std::min<std::uint64_t>(kBlock, n - done));
    sched.fill(burstBuf_.data(), block);
    for (std::size_t i = 0; i < block; ++i) {
      if (stepCompiled(burstBuf_[i])) {
        ++nonNull;
        lastChange = done + i + 1;
      }
    }
    done += block;
  }
  if (nonNull > 0) {
    nonNull_ += nonNull;
    lastChangeAt_ = interactions_ + lastChange;
  }
  interactions_ += n;
}

bool Engine::stepCompiled(Interaction interaction) {
  const std::uint32_t leaderPos = config_.numMobile();
  if (interaction.initiator == interaction.responder) {
    throw std::logic_error("interaction requires two distinct participants");
  }
  if (interaction.initiator > leaderPos || interaction.responder > leaderPos) {
    throw std::logic_error("participant index out of range");
  }
  const bool initiatorIsLeader = interaction.initiator == leaderPos;
  const bool responderIsLeader = interaction.responder == leaderPos;
  if (initiatorIsLeader || responderIsLeader) {
    if (!config_.leader.has_value()) {
      throw std::logic_error("leader interaction scheduled without a leader");
    }
    const AgentId agent =
        initiatorIsLeader ? interaction.responder : interaction.initiator;
    const StateId before = config_.mobile[agent];
    const LeaderStateId leaderBefore = *config_.leader;
    LeaderResult r;
    if (leaderIdx_ != CompiledProtocol::kNoLeaderIndex) {
      const CompiledProtocol::LeaderEntry& e =
          compiled_->leaderDelta(leaderIdx_, before);
      r = LeaderResult{compiled_->leaderIdAt(e.nextLeader), e.mobile};
      leaderIdx_ = e.nextLeader;
    } else {
      // Outside the compiled leader set (un-enumerable space or an injected
      // state): virtual dispatch, then try to re-enter the table.
      r = proto_->leaderDelta(leaderBefore, before);
      if (compiled_->leaderCompiled()) {
        leaderIdx_ = compiled_->leaderIndexOf(r.leader);
      }
    }
    config_.mobile[agent] = r.mobile;
    config_.leader = r.leader;
    if (r.mobile != before) {
      trackerRemove(before);
      trackerAdd(r.mobile);
    }
    return r.mobile != before || r.leader != leaderBefore;
  }

  const StateId a = config_.mobile[interaction.initiator];
  const StateId b = config_.mobile[interaction.responder];
  const MobilePair r = compiled_->mobileDelta(a, b);
  if (r.initiator == a && r.responder == b) return false;
  config_.mobile[interaction.initiator] = r.initiator;
  config_.mobile[interaction.responder] = r.responder;
  trackerRemove(a);
  trackerRemove(b);
  trackerAdd(r.initiator);
  trackerAdd(r.responder);
  return true;
}

std::uint64_t Engine::trackerActiveWith(StateId s) const {
  // Number of live pairs {s, t} with t present: the compiled row has bit t
  // set iff the unordered pair can still change the configuration. Bit s is
  // clear in its own row, so the order of presence updates cannot skew this.
  const std::uint64_t* row = compiled_->activeRow(s);
  std::uint64_t count = 0;
  for (std::size_t w = 0; w < present_.size(); ++w) {
    count += static_cast<std::uint64_t>(std::popcount(row[w] & present_[w]));
  }
  return count;
}

void Engine::trackerAdd(StateId s) {
  const std::uint32_t c = ++hist_[s];
  if (c == 1) {
    present_[s >> 6] |= std::uint64_t{1} << (s & 63);
    activePairs_ += trackerActiveWith(s);
  } else if (c == 2 && compiled_->diagActive(s)) {
    ++activePairs_;
  }
}

void Engine::trackerRemove(StateId s) {
  const std::uint32_t c = --hist_[s];
  if (c == 0) {
    present_[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    activePairs_ -= trackerActiveWith(s);
  } else if (c == 1 && compiled_->diagActive(s)) {
    --activePairs_;
  }
}

void Engine::rebuildTracker() {
  hist_.assign(compiled_->numStates(), 0);
  present_.assign(compiled_->wordsPerRow(), 0);
  activePairs_ = 0;
  for (const StateId s : config_.mobile) trackerAdd(s);
  refreshLeaderIndex();
}

void Engine::refreshLeaderIndex() {
  leaderIdx_ = CompiledProtocol::kNoLeaderIndex;
  if (compiled_ != nullptr && compiled_->leaderCompiled() &&
      config_.leader.has_value()) {
    leaderIdx_ = compiled_->leaderIndexOf(*config_.leader);
  }
}

bool Engine::fastSilent() const {
  if (activePairs_ != 0) return false;
  if (!config_.leader.has_value()) return true;
  // Leader rows are not tracked incrementally (the leader state changes on
  // leader interactions only, and silence is polled, not streamed): scan the
  // present states against the compiled null row — or the virtual delta when
  // the leader state is outside the compiled set.
  const StateId q = static_cast<StateId>(hist_.size());
  if (leaderIdx_ != CompiledProtocol::kNoLeaderIndex) {
    for (StateId s = 0; s < q; ++s) {
      if (hist_[s] != 0 && !compiled_->leaderNull(leaderIdx_, s)) return false;
    }
    return true;
  }
  for (StateId s = 0; s < q; ++s) {
    if (hist_[s] == 0) continue;
    const LeaderResult r = proto_->leaderDelta(*config_.leader, s);
    if (r.mobile != s || r.leader != *config_.leader) return false;
  }
  return true;
}

bool Engine::silent() const {
  return compiled_ != nullptr ? fastSilent() : isSilent(*proto_, config_);
}

void Engine::corruptMobile(AgentId agent, StateId state) {
  if (agent >= config_.numMobile()) {
    throw std::logic_error("corruptMobile: agent index out of range");
  }
  if (state >= proto_->numMobileStates()) {
    throw std::logic_error("corruptMobile: state outside the state space");
  }
  const StateId before = config_.mobile[agent];
  config_.mobile[agent] = state;
  if (compiled_ != nullptr && state != before) {
    trackerRemove(before);
    trackerAdd(state);
  }
  lastChangeAt_ = interactions_;
  if (observer_ != nullptr) {
    observer_->onFaultInjected(FaultInjectedEvent{
        observerRunId_, interactions_, FaultTarget::kMobile, agent});
  }
}

void Engine::corruptLeader(LeaderStateId state) {
  if (!config_.leader.has_value()) {
    throw std::logic_error("corruptLeader on a leaderless configuration");
  }
  config_.leader = state;
  refreshLeaderIndex();
  lastChangeAt_ = interactions_;
  if (observer_ != nullptr) {
    observer_->onFaultInjected(FaultInjectedEvent{
        observerRunId_, interactions_, FaultTarget::kLeader, 0});
  }
}

void Engine::resetTo(Configuration start) {
  if (proto_->hasLeader() != start.leader.has_value()) {
    throw std::logic_error("resetTo: leader presence mismatch");
  }
  validateStates(*proto_, start);
  config_ = std::move(start);
  interactions_ = 0;
  nonNull_ = 0;
  lastChangeAt_ = 0;
  if (compiled_ != nullptr) rebuildTracker();
}

}  // namespace ppn
