// Replicated control plane (ROADMAP item 1): a small deterministic
// replication log underneath the OFC's NIB commit path.
//
// Switches are statically partitioned into shards; each shard is served by a
// replica set (leader + standbys) that totally orders the shard's ACK
// transactions in a quorum-replicated log. The protocol is Raft-shaped but
// deliberately small — exactly the slice the availability argument needs:
//
//  * leader lease with epoch numbers: followers expect a heartbeat within
//    `lease_duration`; a silent leader (killed, partitioned, or wedged) loses
//    its lease and the most up-to-date reachable standby is elected at
//    epoch+1. The up-to-date vote rule (candidate log >= voter log) is what
//    guarantees the new leader holds every quorum-committed entry.
//  * log append/commit replication: the leader appends an entry per ACK
//    transaction, replicates it to followers over the simulator bus (fixed
//    per-hop delay — every schedule is seeded and replayable), and commits
//    once a majority holds it (cumulative match-index acknowledgements).
//    Only the acting leader applies committed entries to the real NIB, in
//    index order, behind a shard-level applied watermark that survives
//    takeovers (the NIB itself is the watermark's durable twin).
//  * snapshot install for lagging replicas: a revived replica whose log
//    trails the leader's committed prefix by more than
//    `snapshot_lag_threshold` receives a compacted snapshot (base index +
//    suffix) instead of an entry-by-entry catch-up.
//
// Failure injection (kill the leader, partition it from its peers, stall its
// heartbeats) is exposed as first-class methods so chaos schedules can drive
// unplanned failover; the §3.3-style replication invariants (R1-R4 below)
// are checked by the campaign oracle across every handoff.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "dag/op.h"
#include "sim/simulator.h"

namespace zenith::repl {

struct ReplConfig {
  /// 0 disables replication entirely (the single-instance pipeline is
  /// byte-identical to the pre-replication build; nothing is constructed,
  /// nothing is scheduled).
  std::size_t num_shards = 0;
  std::size_t replicas_per_shard = 3;
  /// Leader heartbeat / catch-up cadence (one shard tick per period).
  SimTime heartbeat_period = millis(10);
  /// A follower whose last heartbeat is older than this elects a new leader.
  SimTime lease_duration = millis(60);
  /// One-way replica-to-replica message delay on the simulator bus.
  SimTime replication_hop = millis(1);
  /// A follower trailing the leader's committed prefix by more than this
  /// many entries is caught up with a snapshot instead of an entry stream.
  std::size_t snapshot_lag_threshold = 8;
  /// Delay between winning an election and re-enqueueing the shard's SENT
  /// OPs (gives re-driven in-log commits a chance to land first; must
  /// comfortably exceed one replication round trip).
  SimTime takeover_requeue_delay = millis(4);
  /// Deliberate replication defect (chaos acceptance knob): the leader
  /// commits and applies an entry the moment it appends it, before any
  /// follower acknowledges. Killing or partitioning the leader then loses
  /// committed state — violating R2, which the oracle must catch.
  bool bug_commit_before_quorum = false;
};

/// One replicated log entry: the OPs of one ACK transaction against one
/// switch (the unit Nib::commit_ack_batch commits atomically).
struct LogEntry {
  std::uint64_t index = 0;  // 1-based, contiguous per shard
  std::uint64_t epoch = 0;  // epoch the entry was first appended under
  SwitchId sw;
  std::vector<Op> ops;
};

/// One replica's durable state. The log survives a kill (disk); only
/// leadership and lease bookkeeping are volatile.
struct Replica {
  bool alive = true;
  /// Isolated from its peers (replica-to-replica traffic drops both ways);
  /// the OFC-side submit path is colocated with the leader and unaffected.
  bool partitioned = false;
  std::uint64_t epoch = 0;
  /// Compacted prefix: the log holds entries (snapshot_index, log_end].
  std::uint64_t snapshot_index = 0;
  std::vector<LogEntry> log;
  std::uint64_t commit_index = 0;
  std::uint64_t applied_index = 0;  // follower-local durable apply watermark
  SimTime lease_expiry = 0;

  std::uint64_t log_end() const {
    return log.empty() ? snapshot_index : log.back().index;
  }
};

struct ShardCounters {
  std::uint64_t appends = 0;
  std::uint64_t commits = 0;            // entries applied to the NIB
  std::uint64_t elections = 0;
  std::uint64_t snapshots_installed = 0;
  std::uint64_t acks_dropped_no_leader = 0;
  std::uint64_t stale_messages = 0;     // old-epoch traffic rejected
};

class ReplicatedControlPlane;

/// One shard's replica set. Owned by ReplicatedControlPlane; exposed const
/// for the abstraction layer and the invariant oracle.
class Shard {
 public:
  Shard(Simulator* sim, const ReplConfig& config, std::size_t id);

  std::size_t id() const { return id_; }
  std::uint64_t epoch() const { return epoch_; }
  int leader() const { return leader_; }
  bool heartbeats_stalled() const { return stalled_; }
  std::uint64_t applied_to_nib() const { return applied_to_nib_; }
  const std::vector<Replica>& replicas() const { return replicas_; }
  const std::vector<LogEntry>& applied_log() const { return applied_log_; }
  const ShardCounters& counters() const { return counters_; }
  const std::vector<std::pair<std::uint64_t, int>>& election_history() const {
    return election_history_;
  }

  /// Replication invariants, checked by the campaign oracle:
  ///  R1 — applied entries form the contiguous sequence 1..applied_to_nib
  ///       (no entry applied twice, none skipped);
  ///  R2 — every applied entry is held, content-identical, by a quorum of
  ///       replica logs (commit-before-quorum + leader loss breaks this);
  ///  R3 — election epochs are strictly increasing, one leader per epoch;
  ///  R4 — at quiescence every live un-partitioned replica has converged to
  ///       the leader's log/commit, and the leader's commit equals the
  ///       applied watermark (checked only when a live leader exists —
  ///       orphaned ddmin faults may leave a shard legally quorum-less).
  std::vector<std::string> check_invariants(bool at_quiescence) const;

  /// True when no further replication progress is pending: either the shard
  /// cannot serve (no live un-partitioned leader, or quorum unreachable — a
  /// state only the chaos injections create and their paired recoveries
  /// clear), or the reachable replica set has fully converged on the
  /// leader's log and everything committed reached the NIB. Quiescence
  /// probes (campaign oracle, lockstep phases) wait for this before
  /// evaluating R4, so heartbeat-paced follower lag never reads as a
  /// violation.
  bool settled() const;

  /// Folds this shard's abstract state (epoch, leadership, committed-log
  /// prefix, per-replica applied indexes) into an FNV-1a digest.
  std::uint64_t digest() const;

 private:
  friend class ReplicatedControlPlane;

  struct CatchupPayload {
    bool snapshot = false;
    std::uint64_t snapshot_index = 0;  // snapshot install base
    std::uint64_t base = 0;            // entry stream: append after this
    std::vector<LogEntry> entries;
  };

  bool leader_serving() const;
  Replica& leader_replica() { return replicas_[static_cast<std::size_t>(leader_)]; }
  const LogEntry* entry_at(const Replica& r, std::uint64_t index) const;

  void submit(SwitchId sw, std::vector<Op> ops);
  void tick();
  void send_heartbeats();
  void send_catchups();
  void maybe_elect();
  void become_leader(std::size_t winner, const char* reason);
  void deliver_append(std::size_t from, std::size_t to, LogEntry entry,
                      std::uint64_t epoch);
  void deliver_catchup(std::size_t from, std::size_t to, CatchupPayload payload,
                       std::uint64_t epoch, std::uint64_t leader_commit);
  void deliver_heartbeat(std::size_t from, std::size_t to, std::uint64_t epoch,
                         std::uint64_t leader_commit);
  void deliver_ack(std::size_t from, std::uint64_t match, std::uint64_t epoch);
  void advance_commit();
  void apply_committed();
  bool link_up(std::size_t a, std::size_t b) const;

  // chaos injections (routed through ReplicatedControlPlane)
  void kill_leader();
  void revive_all();
  void partition_leader();
  void heal_all();

  Simulator* sim_;
  const ReplConfig& config_;
  std::size_t id_;
  std::vector<Replica> replicas_;
  int leader_ = 0;
  std::uint64_t epoch_ = 1;
  bool stalled_ = false;
  /// Confirmed replication progress per replica under the current epoch
  /// (Raft match-index); reset at every election and re-driven by catch-up.
  std::vector<std::uint64_t> match_;
  /// Shard-level NIB apply watermark: survives leader changes, preventing a
  /// new leader from re-applying entries its predecessor already committed.
  std::uint64_t applied_to_nib_ = 0;
  /// The NIB-side apply journal (what was actually committed, in order) —
  /// the ground truth R1/R2 compare replica logs against.
  std::vector<LogEntry> applied_log_;
  std::vector<std::pair<std::uint64_t, int>> election_history_;
  ShardCounters counters_;

  std::function<void(const LogEntry&)> apply_;
  std::function<void(std::uint64_t epoch, const char* reason)> on_takeover_;
  std::function<void(const std::string&, const std::string&)> event_hook_;
};

/// The replica sets for all shards plus the static switch partition. Owned
/// by ZenithController when CoreConfig::repl.num_shards > 0.
class ReplicatedControlPlane {
 public:
  ReplicatedControlPlane(Simulator* sim, ReplConfig config);

  ReplicatedControlPlane(const ReplicatedControlPlane&) = delete;
  ReplicatedControlPlane& operator=(const ReplicatedControlPlane&) = delete;

  const ReplConfig& config() const { return config_; }
  std::size_t num_shards() const { return shards_.size(); }
  Shard& shard(std::size_t i) { return *shards_.at(i); }
  const Shard& shard(std::size_t i) const { return *shards_.at(i); }

  /// Static partition of switches by id (stable 64-bit mix, same family as
  /// CoreContext::shard_of, independent modulus).
  std::size_t shard_of(SwitchId sw) const;

  /// NIB apply path: called (leader-side only) for each committed entry in
  /// log order. The controller filters stale ops (status != SENT) and runs
  /// the real Nib::commit_ack_batch transaction.
  void set_apply(std::function<void(std::size_t shard, const LogEntry&)> fn);
  /// Fired when a shard's leadership changes hands (election or a revived
  /// leader resuming): the controller re-enqueues the shard's SENT OPs,
  /// exactly-once, via the crash-mid-batch machinery.
  void set_on_takeover(
      std::function<void(std::size_t shard, std::uint64_t epoch,
                         const char* reason)>
          fn);
  /// Optional observability tap (event track "repl").
  void set_event_hook(
      std::function<void(const std::string&, const std::string&)> hook);

  /// Schedules the periodic shard ticks. Call once, before the run.
  void start();

  /// Routes one ACK transaction into the owning shard's log. Returns false
  /// (and drops the ACK — the takeover requeue repairs the OPs) when the
  /// shard has no live leader.
  bool submit_ack(SwitchId sw, std::vector<Op> ops);

  // ---- chaos injections ------------------------------------------------------
  void kill_shard_leader(std::size_t shard);
  void revive_shard(std::size_t shard);
  void partition_shard_leader(std::size_t shard);
  void heal_shard(std::size_t shard);
  void stall_heartbeats(std::size_t shard);
  void resume_heartbeats(std::size_t shard);

  // ---- oracle ----------------------------------------------------------------
  /// Union of every shard's R1-R4 violations, messages prefixed "shard k:".
  std::vector<std::string> check_invariants(bool at_quiescence) const;
  /// Every shard settled (see Shard::settled).
  bool settled() const;
  /// Combined abstract-replica-set digest over all shards.
  std::uint64_t digest() const;

 private:
  void tick_all();

  Simulator* sim_;
  ReplConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace zenith::repl
