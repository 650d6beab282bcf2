// Abstraction layer for model–implementation conformance.
//
// The lockstep checker compares the running implementation against the
// formal-model substitute not state-for-state (the implementation carries
// timers, channels and observability the model elides) but through an
// abstraction function: a digest of exactly the state the NADIR spec talks
// about — per-switch OP status multisets, the controller's routing view
// R_c, switch health, DAG certification and the current target. Two
// executions conform when their abstracted states agree at every
// quiescence point.
//
// check_quiescent() is the model side made executable: each invariant is a
// property every reachable quiescent model state satisfies (verified by the
// explicit-state checker over the small scenarios), restated over the
// implementation's NIB. A violation therefore IS a divergence — the
// implementation reached a quiescent state the model cannot reach.
#pragma once

#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "dag/op.h"
#include "harness/experiment.h"

namespace zenith::mc {

/// One switch's abstracted view: how many OPs target it in each lifecycle
/// status, what the controller believes about its health, whether the
/// fabric actually has it alive, and the size of R_c restricted to it.
struct AbstractSwitch {
  std::array<std::uint32_t, kNumOpStatuses> status_counts{};
  SwitchHealth health = SwitchHealth::kUp;
  bool fabric_alive = true;
  std::uint32_t view_size = 0;
};

/// One replica of a shard's replicated log, abstracted to what the
/// replication safety argument quantifies over: how far its durable log
/// reaches and how much of it is committed/applied.
struct AbstractReplica {
  bool alive = true;
  bool partitioned = false;
  std::uint64_t log_end = 0;
  std::uint64_t commit_index = 0;
  std::uint64_t applied_index = 0;
};

/// One shard's abstract replica set: leader epoch, the committed-log prefix
/// (length + content digest), and each replica's indices. This is the
/// "abstract replica set" the lockstep harness diffs when the replicated
/// commit path diverges from the model.
struct AbstractShard {
  std::uint64_t epoch = 0;
  std::uint64_t leader = 0;
  std::uint64_t committed_prefix = 0;       // entries applied to the NIB
  std::uint64_t committed_digest = 0;       // FNV over the applied entries
  std::vector<AbstractReplica> replicas;
};

/// The abstracted controller state at one quiescence point. Everything the
/// spec's invariants quantify over, nothing else — wall-clock, queue
/// occupancy and observability state are deliberately absent so that
/// model and implementation digests are comparable.
struct AbstractState {
  std::vector<AbstractSwitch> switches;  // indexed by SwitchId value
  std::vector<std::uint64_t> certified_dags;  // sorted
  std::uint64_t current_dag = 0;  // 0 = none
  std::uint32_t down_links = 0;
  /// Empty on an unreplicated controller; folded into the digest only when
  /// populated so pre-replication digests are unchanged.
  std::vector<AbstractShard> shards;

  /// FNV-1a over the canonical serialization.
  std::uint64_t digest() const;
};

/// Builds the abstraction of the experiment's current state. `submitted`
/// lists the DAG ids the run has submitted so far (the NIB's certification
/// flags are per-id; the caller knows the id universe).
AbstractState abstract_state(Experiment& exp,
                             const std::vector<DagId>& submitted);

/// What the checker may assume about the run's fault history. The model's
/// invariants are fault-conditional (an OP may be FAILED_SW only if its
/// switch was ever down); callers that replayed a known schedule record it
/// here, callers hooking an arbitrary campaign set `assume_any`.
struct FaultHistory {
  std::set<std::uint32_t> ever_down;  // SwitchId values that failed at least once
  bool ofc_disrupted = false;         // any OFC/component crash occurred
  /// True = fault history unknown; skip invariants conditioned on it.
  bool assume_any = false;
};

/// Checks the model's quiescent-state invariants over the implementation.
/// Call only at quiescence (schedule exhausted, transients recovered, the
/// convergence probe satisfied); mid-run the transitional statuses are
/// legitimately populated. Returns one message per violated invariant.
std::vector<std::string> check_quiescent(Experiment& exp, DagId last_dag,
                                         const FaultHistory& history);

}  // namespace zenith::mc
