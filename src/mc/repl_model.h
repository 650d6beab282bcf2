// Explicit-state model of one replicated-log shard (src/repl).
//
// The implementation's shard protocol is a lease-based Raft variant; this
// model strips it to the abstract replica set the safety argument is about:
// per-replica durable log lengths, a committed (NIB-applied) prefix, a
// serving leader, and crash/election transitions. Bounded BFS over all
// interleavings of {append, replicate, commit, kill-leader, elect} checks
// leader completeness — an elected leader's log must contain every entry
// already applied to the NIB. The commit-before-quorum bug knob (the same
// defect ReplConfig::bug_commit_before_quorum injects into the simulator)
// makes the model apply entries no quorum holds; the checker then finds the
// three-action counterexample (append, kill-leader, elect) that the chaos
// harness rediscovers at full scale and ddmin-shrinks.
//
// Since PR 9 the exploration runs on the shared work-stealing parallel BFS
// engine (parallel_bfs.h): states are packed (replica log lengths + an
// alive bitmask, ~16 bytes), the seen-set is the sharded fingerprint store,
// and `ReplModelConfig::threads` scales the search. The
// `stepwise_replication` knob models replication one entry per RPC instead
// of whole-log catch-up — the fidelity-increasing refinement that blows the
// space into the tens of millions of states for the Table 4 headline run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace zenith::mc {

inline constexpr int kMaxReplReplicas = 7;

struct ReplModelConfig {
  int replicas = 3;
  /// Client submissions available to the exploration (log grows this far).
  int max_appends = 2;
  /// Leader crashes available (each enables one election).
  int max_kills = 1;
  /// Inject the commit-before-quorum defect: an append is applied to the
  /// NIB immediately, before any follower holds it.
  bool bug_commit_before_quorum = false;
  /// Replicate one entry per step (one transition per replication RPC)
  /// instead of whole-log catch-up. Finer-grained interleavings — a much
  /// larger state space at the same bounds.
  bool stepwise_replication = false;

  // -- exploration knobs (PR 9) -----------------------------------------------
  /// Worker threads. 1 = serial (deterministic counterexample), 0 =
  /// default_bench_threads().
  std::size_t threads = 1;
  std::size_t max_states = 50'000'000;
  double time_limit_seconds = 300.0;
  /// Spill directory for the seen-set (see ShardedFingerprintSet).
  std::string disk_store_path;
};

struct ReplModelResult {
  bool violation_found = false;
  /// Distinct states discovered (pre-PR-9 this counted expanded states;
  /// the engine's BFS discovers every state it expands, so on complete
  /// verification runs the two agree).
  std::size_t states_explored = 0;
  /// First violated property, empty when none.
  std::string violation;
  /// " -> "-joined action sequence reaching the violating state (a minimal
  /// counterexample: BFS explores by depth).
  std::string counterexample;

  // -- engine statistics (PR 9) -----------------------------------------------
  bool capped = false;
  std::size_t transitions = 0;
  std::size_t diameter = 0;
  double seconds = 0.0;
  std::size_t threads_used = 1;
};

/// Exhaustively explores the bounded model and checks leader completeness
/// at every reachable state.
ReplModelResult check_repl_model(const ReplModelConfig& config);

/// Replays a " -> "-joined counterexample string against the model's
/// transition relation; returns the violation the final state exhibits, or
/// "" when the sequence is not executable / reaches no violating state.
/// This is the replay oracle for the counterexample-determinism tests: a
/// trace the parallel checker reports must reproduce under the model's own
/// apply semantics.
std::string replay_repl_counterexample(const ReplModelConfig& config,
                                       const std::string& counterexample);

}  // namespace zenith::mc
