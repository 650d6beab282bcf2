#include "mc/repl_model.h"

#include <algorithm>
#include <array>
#include <sstream>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "mc/parallel_bfs.h"

namespace zenith::mc {

namespace {

// Packed replica-set state: ~16 bytes, trivially copyable — the engine
// moves millions of these through per-worker frontiers.
struct RState {
  std::array<std::uint8_t, kMaxReplReplicas> log{};  // durable length
  std::uint8_t alive = 0;  // bitmask; crashed replicas keep their logs
  std::int8_t leader = 0;  // -1 = no serving leader (awaiting election)
  std::uint8_t applied = 0;     // committed prefix applied to the NIB
  std::uint8_t appends_left = 0;
  std::uint8_t kills_left = 0;
};

struct RAction {
  enum class Kind : std::uint8_t {
    kAppend,
    kReplicate,
    kCommit,
    kKillLeader,
    kElect,
  };
  Kind kind = Kind::kAppend;
  std::uint8_t subject = 0;  // follower / winner, by kind

  std::string label() const {
    switch (kind) {
      case Kind::kAppend:
        return "append";
      case Kind::kReplicate:
        return "replicate(" + std::to_string(int(subject)) + ")";
      case Kind::kCommit:
        return "commit";
      case Kind::kKillLeader:
        return "kill-leader";
      case Kind::kElect:
        return "elect(" + std::to_string(int(subject)) + ")";
    }
    return "?";
  }
};

int quorum(int n) { return n / 2 + 1; }

bool is_alive(const RState& s, int r) {
  return (s.alive >> r) & 1;
}

/// The largest log index a quorum of replicas durably holds (dead replicas
/// count: their disks survive the crash, mirroring Replica::log in the
/// simulator living through kill/revive).
int quorum_held(const RState& s, int replicas) {
  std::array<std::uint8_t, kMaxReplReplicas> sorted = s.log;
  std::sort(sorted.begin(), sorted.begin() + replicas,
            std::greater<std::uint8_t>());
  return sorted[static_cast<std::size_t>(quorum(replicas)) - 1];
}

// Leader completeness: a serving leader's durable log contains every
// NIB-applied entry. This is the property quorum commit + up-to-date
// election preserves, and exactly what commit-before-quorum breaks.
bool violated(const RState& s) {
  return s.leader >= 0 && is_alive(s, s.leader) &&
         s.log[static_cast<std::size_t>(s.leader)] < s.applied;
}

std::string violation_message(const RState& s) {
  std::ostringstream msg;
  msg << "leader completeness violated: elected leader " << int(s.leader)
      << " holds " << int(s.log[static_cast<std::size_t>(s.leader)])
      << " entries but " << int(s.applied) << " are applied to the NIB";
  return msg.str();
}

/// Enumerates every transition of `s` in the model's canonical BFS order
/// (append, replicate ascending, commit, kill-leader, elect) — shared by
/// the exploration adapter and the replay oracle so they cannot drift.
/// `fn(action, next)` returns false to stop the enumeration.
template <typename Fn>
void for_each_transition(const ReplModelConfig& config, const RState& s,
                         Fn&& fn) {
  const bool leader_up = s.leader >= 0 && is_alive(s, s.leader);

  // append: client submission reaches the serving leader's log; with the
  // bug it is applied immediately, before replication.
  if (leader_up && s.appends_left > 0) {
    RState next = s;
    ++next.log[static_cast<std::size_t>(next.leader)];
    --next.appends_left;
    if (config.bug_commit_before_quorum) {
      next.applied = next.log[static_cast<std::size_t>(next.leader)];
    }
    if (!fn(RAction{RAction::Kind::kAppend, 0}, next)) return;
  }
  if (leader_up) {
    const int leader_log = s.log[static_cast<std::size_t>(s.leader)];
    // replicate(f): a follower catches up to the leader's log — the whole
    // remainder in one step, or one entry per step (one transition per
    // replication RPC) under stepwise_replication.
    for (int f = 0; f < config.replicas; ++f) {
      std::size_t fi = static_cast<std::size_t>(f);
      if (f == s.leader || !is_alive(s, f) || s.log[fi] >= leader_log) {
        continue;
      }
      RState next = s;
      if (config.stepwise_replication) {
        ++next.log[fi];
      } else {
        next.log[fi] = static_cast<std::uint8_t>(leader_log);
      }
      if (!fn(RAction{RAction::Kind::kReplicate,
                      static_cast<std::uint8_t>(f)},
              next)) {
        return;
      }
    }
    // commit: apply the quorum-held prefix.
    if (quorum_held(s, config.replicas) > s.applied) {
      RState next = s;
      next.applied =
          static_cast<std::uint8_t>(quorum_held(next, config.replicas));
      if (!fn(RAction{RAction::Kind::kCommit, 0}, next)) return;
    }
    // kill-leader: the serving leader crashes (durable log survives).
    if (s.kills_left > 0) {
      RState next = s;
      next.alive = static_cast<std::uint8_t>(
          next.alive & ~(1u << next.leader));
      next.leader = -1;
      --next.kills_left;
      if (!fn(RAction{RAction::Kind::kKillLeader, 0}, next)) return;
    }
  } else if (s.leader < 0) {
    // elect: among the live replicas (requires a quorum of them, matching
    // Shard::maybe_elect) the most up-to-date wins; live logs longer than
    // the winner's would hold uncommitted entries the new leader
    // overwrites, so they truncate to the winner's length.
    int live = 0;
    int winner = -1;
    for (int r = 0; r < config.replicas; ++r) {
      std::size_t ri = static_cast<std::size_t>(r);
      if (!is_alive(s, r)) continue;
      ++live;
      if (winner < 0 || s.log[ri] > s.log[static_cast<std::size_t>(winner)]) {
        winner = r;
      }
    }
    if (live >= quorum(config.replicas) && winner >= 0) {
      RState next = s;
      next.leader = static_cast<std::int8_t>(winner);
      const std::uint8_t winner_log =
          next.log[static_cast<std::size_t>(winner)];
      for (int r = 0; r < config.replicas; ++r) {
        std::size_t ri = static_cast<std::size_t>(r);
        if (is_alive(next, r) && next.log[ri] > winner_log) {
          next.log[ri] = winner_log;
        }
      }
      if (!fn(RAction{RAction::Kind::kElect, static_cast<std::uint8_t>(winner)},
              next)) {
        return;
      }
    }
  }
}

RState initial_state(const ReplModelConfig& config) {
  RState init;
  init.alive =
      static_cast<std::uint8_t>((1u << config.replicas) - 1u);
  init.appends_left = static_cast<std::uint8_t>(config.max_appends);
  init.kills_left = static_cast<std::uint8_t>(config.max_kills);
  return init;
}

struct ReplAdapter {
  using State = RState;
  using Action = RAction;

  const ReplModelConfig* config;

  State initial() const { return initial_state(*config); }

  std::pair<std::uint64_t, std::uint64_t> fingerprint(const State& s) const {
    std::array<std::uint8_t, kMaxReplReplicas + 5> bytes;
    std::size_t len = 0;
    for (int r = 0; r < config->replicas; ++r) {
      bytes[len++] = s.log[static_cast<std::size_t>(r)];
    }
    bytes[len++] = s.alive;
    bytes[len++] = static_cast<std::uint8_t>(s.leader);
    bytes[len++] = s.applied;
    bytes[len++] = s.appends_left;
    bytes[len++] = s.kills_left;
    std::span<const std::uint8_t> span(bytes.data(), len);
    return {fnv1a(span, 0xcbf29ce484222325ull),
            fnv1a(span, 0x9e3779b97f4a7c15ull)};
  }

  std::string visit(const State&, bool&) const { return {}; }

  template <typename Sink>
  std::string expand(const State& s, Sink& sink) const {
    for_each_transition(*config, s, [&](const RAction& action, RState next) {
      std::string violation;
      if (violated(next)) violation = violation_message(next);
      return sink.transition(action, std::move(next), violation);
    });
    return {};
  }
};

}  // namespace

ReplModelResult check_repl_model(const ReplModelConfig& config) {
  ParallelBfsOptions bfs;
  bfs.max_states = config.max_states;
  bfs.time_limit_seconds = config.time_limit_seconds;
  bfs.record_traces = true;
  bfs.threads = config.threads;
  bfs.disk_store_path = config.disk_store_path;

  ReplAdapter adapter{&config};
  ParallelBfsResult<RAction> bfs_result = parallel_bfs(adapter, bfs);

  ReplModelResult result;
  result.violation_found = !bfs_result.ok;
  result.states_explored = bfs_result.distinct_states;
  result.violation = std::move(bfs_result.violation);
  result.capped = bfs_result.capped;
  result.transitions = bfs_result.transitions;
  result.diameter = bfs_result.diameter;
  result.seconds = bfs_result.seconds;
  result.threads_used = bfs_result.threads_used;
  std::ostringstream joined;
  for (std::size_t i = 0; i < bfs_result.trace.size(); ++i) {
    if (i > 0) joined << " -> ";
    joined << bfs_result.trace[i].label();
  }
  result.counterexample = joined.str();
  return result;
}

std::string replay_repl_counterexample(const ReplModelConfig& config,
                                       const std::string& counterexample) {
  std::vector<std::string> tokens;
  std::size_t at = 0;
  while (at <= counterexample.size()) {
    std::size_t sep = counterexample.find(" -> ", at);
    if (sep == std::string::npos) {
      if (at < counterexample.size()) {
        tokens.push_back(counterexample.substr(at));
      }
      break;
    }
    tokens.push_back(counterexample.substr(at, sep - at));
    at = sep + 4;
  }

  RState state = initial_state(config);
  for (const std::string& token : tokens) {
    bool found = false;
    RState after;
    for_each_transition(config, state,
                        [&](const RAction& action, RState next) {
                          if (action.label() == token) {
                            found = true;
                            after = next;
                            return false;
                          }
                          return true;
                        });
    if (!found) return {};  // not executable here: the trace proves nothing
    state = after;
  }
  if (violated(state)) return violation_message(state);
  return {};
}

}  // namespace zenith::mc
