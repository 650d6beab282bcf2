#include "repl/repl.h"

#include <algorithm>
#include <sstream>

namespace zenith::repl {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xffu;
    hash *= kFnvPrime;
  }
  return hash;
}

std::size_t quorum_of(std::size_t replicas) { return replicas / 2 + 1; }

bool same_payload(const LogEntry& a, const LogEntry& b) {
  if (a.index != b.index || a.sw != b.sw || a.ops.size() != b.ops.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].id != b.ops[i].id) return false;
  }
  return true;
}

}  // namespace

// ---- Shard ------------------------------------------------------------------

Shard::Shard(Simulator* sim, const ReplConfig& config, std::size_t id)
    : sim_(sim), config_(config), id_(id) {
  std::size_t n = std::max<std::size_t>(1, config_.replicas_per_shard);
  replicas_.resize(n);
  match_.assign(n, 0);
  // Replica 0 starts as leader of epoch 1 with a fresh lease everywhere.
  for (Replica& r : replicas_) {
    r.epoch = 1;
    r.lease_expiry = sim_->now() + config_.lease_duration;
  }
}

bool Shard::leader_serving() const {
  return leader_ >= 0 &&
         static_cast<std::size_t>(leader_) < replicas_.size() &&
         replicas_[static_cast<std::size_t>(leader_)].alive;
}

const LogEntry* Shard::entry_at(const Replica& r, std::uint64_t index) const {
  if (index <= r.snapshot_index || index > r.log_end()) return nullptr;
  const LogEntry& entry = r.log[static_cast<std::size_t>(
      index - r.snapshot_index - 1)];
  return &entry;
}

bool Shard::link_up(std::size_t a, std::size_t b) const {
  const Replica& ra = replicas_[a];
  const Replica& rb = replicas_[b];
  return ra.alive && rb.alive && !ra.partitioned && !rb.partitioned;
}

void Shard::submit(SwitchId sw, std::vector<Op> ops) {
  if (!leader_serving()) {
    // No live leader to accept the ACK: it is lost with the dead instance's
    // sockets. The takeover requeue re-drives the affected OPs (still SENT).
    ++counters_.acks_dropped_no_leader;
    if (event_hook_) {
      event_hook_("ack-dropped",
                  "shard=" + std::to_string(id_) + " sw=" +
                      std::to_string(sw.value()) + " no live leader");
    }
    return;
  }
  Replica& leader = leader_replica();
  LogEntry entry;
  entry.index = leader.log_end() + 1;
  entry.epoch = epoch_;
  entry.sw = sw;
  entry.ops = std::move(ops);
  leader.log.push_back(entry);
  ++counters_.appends;
  match_[static_cast<std::size_t>(leader_)] = leader.log_end();
  if (config_.bug_commit_before_quorum) {
    // Deliberate defect: commit (and apply to the NIB) the moment the entry
    // hits the leader's log, before any follower holds a copy. Losing the
    // leader now loses committed state — R2's violation.
    leader.commit_index = std::max(leader.commit_index, entry.index);
    apply_committed();
  }
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (static_cast<int>(i) == leader_) continue;
    sim_->schedule(config_.replication_hop,
                   [this, from = static_cast<std::size_t>(leader_), to = i,
                    entry, epoch = epoch_] {
                     deliver_append(from, to, entry, epoch);
                   });
  }
  advance_commit();  // replicas_per_shard == 1 commits on append
}

void Shard::tick() {
  if (leader_serving() && !stalled_) {
    send_heartbeats();
    send_catchups();
  }
  maybe_elect();
}

void Shard::send_heartbeats() {
  const Replica& leader = leader_replica();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (static_cast<int>(i) == leader_) continue;
    sim_->schedule(config_.replication_hop,
                   [this, from = static_cast<std::size_t>(leader_), to = i,
                    epoch = epoch_, commit = leader.commit_index] {
                     deliver_heartbeat(from, to, epoch, commit);
                   });
  }
}

void Shard::send_catchups() {
  Replica& leader = leader_replica();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (static_cast<int>(i) == leader_) continue;
    const Replica& r = replicas_[i];
    if (!r.alive || r.partitioned) continue;
    if (r.epoch == epoch_ && match_[i] >= leader.log_end()) continue;
    CatchupPayload payload;
    std::uint64_t base = std::min(r.commit_index, leader.log_end());
    std::uint64_t lag = leader.commit_index > r.log_end()
                            ? leader.commit_index - r.log_end()
                            : 0;
    if (base < leader.snapshot_index || lag > config_.snapshot_lag_threshold) {
      // Too far behind for an entry stream (or the entries are compacted
      // away on the leader): install a snapshot of the committed prefix and
      // ship the uncommitted suffix alongside.
      payload.snapshot = true;
      payload.snapshot_index = leader.commit_index;
      for (const LogEntry& entry : leader.log) {
        if (entry.index > leader.commit_index) payload.entries.push_back(entry);
      }
    } else {
      payload.base = base;
      for (const LogEntry& entry : leader.log) {
        if (entry.index > base) payload.entries.push_back(entry);
      }
    }
    sim_->schedule(config_.replication_hop,
                   [this, from = static_cast<std::size_t>(leader_), to = i,
                    payload = std::move(payload), epoch = epoch_,
                    commit = leader.commit_index]() mutable {
                     deliver_catchup(from, to, std::move(payload), epoch,
                                     commit);
                   });
  }
}

void Shard::maybe_elect() {
  if (replicas_.size() <= 1) return;
  const SimTime now = sim_->now();
  bool expired = false;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (static_cast<int>(i) == leader_) continue;
    const Replica& r = replicas_[i];
    if (r.alive && !r.partitioned && now >= r.lease_expiry) {
      expired = true;
      break;
    }
  }
  if (!expired) return;

  // A follower's lease ran out: the leader is dead, partitioned or wedged
  // (or a partition just healed and no heartbeat has landed yet). Elect the
  // most up-to-date reachable replica — the up-to-date rule guarantees the
  // winner holds every quorum-committed entry. A wedged (stalled) leader is
  // not a candidate: its process cannot campaign.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const Replica& r = replicas_[i];
    if (!r.alive || r.partitioned) continue;
    if (static_cast<int>(i) == leader_ && stalled_) continue;
    candidates.push_back(i);
  }
  if (candidates.size() < quorum_of(replicas_.size())) return;  // retry later
  std::size_t winner = candidates.front();
  for (std::size_t i : candidates) {
    if (replicas_[i].log_end() > replicas_[winner].log_end()) winner = i;
  }
  become_leader(winner, "election");
}

void Shard::become_leader(std::size_t winner, const char* reason) {
  ++epoch_;
  leader_ = static_cast<int>(winner);
  stalled_ = false;  // leadership moved to (or restarted on) a live process
  const SimTime now = sim_->now();
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Replica& r = replicas_[i];
    match_[i] = 0;
    if (!r.alive || r.partitioned) continue;  // will re-join via catch-up
    r.epoch = epoch_;
    r.lease_expiry = now + config_.lease_duration;
  }
  match_[winner] = replicas_[winner].log_end();
  ++counters_.elections;
  election_history_.emplace_back(epoch_, leader_);
  if (event_hook_) {
    event_hook_("leader-change",
                "shard=" + std::to_string(id_) + " epoch=" +
                    std::to_string(epoch_) + " leader=r" +
                    std::to_string(winner) + " reason=" + reason);
  }
  // Exactly-once re-enqueue: ACKs lost with the old leader (dropped at
  // submit, or appended but never committed and later truncated) leave their
  // OPs in SENT. After the new leader has had one replication round trip to
  // re-drive and commit its inherited suffix, the controller re-issues
  // whatever is still SENT on this shard's switches.
  sim_->schedule(config_.takeover_requeue_delay,
                 [this, epoch = epoch_, reason] {
                   if (epoch == epoch_ && on_takeover_) {
                     on_takeover_(epoch, reason);
                   }
                 });
}

void Shard::deliver_append(std::size_t from, std::size_t to, LogEntry entry,
                           std::uint64_t epoch) {
  if (epoch != epoch_) {
    ++counters_.stale_messages;
    return;
  }
  if (!link_up(from, to)) return;
  Replica& r = replicas_[to];
  if (entry.index == r.log_end() + 1) {
    r.log.push_back(std::move(entry));
    r.epoch = epoch_;
  } else if (entry.index <= r.log_end()) {
    const LogEntry* held = entry_at(r, entry.index);
    if (held != nullptr && held->epoch != entry.epoch) {
      // Conflicting uncommitted suffix from a previous epoch: truncate back
      // to the committed prefix; the leader's catch-up rebuilds the rest.
      while (!r.log.empty() && r.log.back().index > r.commit_index) {
        r.log.pop_back();
      }
    }
    // else: duplicate of an entry we already hold — ack as usual.
  }
  // else: a gap (an earlier append was lost); catch-up will fill it. Ack the
  // cumulative position either way.
  sim_->schedule(config_.replication_hop,
                 [this, from = to, match = r.log_end(), epoch] {
                   deliver_ack(from, match, epoch);
                 });
}

void Shard::deliver_catchup(std::size_t from, std::size_t to,
                            CatchupPayload payload, std::uint64_t epoch,
                            std::uint64_t leader_commit) {
  if (epoch != epoch_) {
    ++counters_.stale_messages;
    return;
  }
  if (!link_up(from, to)) return;
  Replica& r = replicas_[to];
  if (payload.snapshot) {
    r.snapshot_index = payload.snapshot_index;
    r.log = std::move(payload.entries);
    r.commit_index = payload.snapshot_index;
    r.applied_index = payload.snapshot_index;
    ++counters_.snapshots_installed;
    if (event_hook_) {
      event_hook_("snapshot-install",
                  "shard=" + std::to_string(id_) + " replica=r" +
                      std::to_string(to) + " base=" +
                      std::to_string(payload.snapshot_index));
    }
  } else {
    // Overwrite everything above the committed base with the leader's
    // entries (committed prefixes never conflict; the uncommitted suffix may
    // and loses to the leader's copy).
    while (!r.log.empty() && r.log.back().index > payload.base) {
      r.log.pop_back();
    }
    for (LogEntry& entry : payload.entries) {
      if (entry.index == r.log_end() + 1) r.log.push_back(std::move(entry));
    }
  }
  r.epoch = epoch_;
  std::uint64_t commit = std::min(leader_commit, r.log_end());
  if (commit > r.commit_index) {
    r.commit_index = commit;
    r.applied_index = commit;
  }
  sim_->schedule(config_.replication_hop,
                 [this, from = to, match = r.log_end(), epoch] {
                   deliver_ack(from, match, epoch);
                 });
}

void Shard::deliver_heartbeat(std::size_t from, std::size_t to,
                              std::uint64_t epoch,
                              std::uint64_t leader_commit) {
  if (epoch != epoch_) {
    ++counters_.stale_messages;
    return;
  }
  if (!link_up(from, to)) return;
  Replica& r = replicas_[to];
  r.lease_expiry = sim_->now() + config_.lease_duration;
  r.epoch = epoch_;
  std::uint64_t commit = std::min(leader_commit, r.log_end());
  if (commit > r.commit_index) {
    r.commit_index = commit;
    r.applied_index = commit;
  }
}

void Shard::deliver_ack(std::size_t from, std::uint64_t match,
                        std::uint64_t epoch) {
  if (epoch != epoch_) {
    ++counters_.stale_messages;
    return;
  }
  if (!leader_serving()) return;
  if (!link_up(from, static_cast<std::size_t>(leader_))) return;
  if (match > match_[from]) match_[from] = match;
  advance_commit();
}

void Shard::advance_commit() {
  if (!leader_serving()) return;
  Replica& leader = leader_replica();
  std::vector<std::uint64_t> sorted = match_;
  std::sort(sorted.begin(), sorted.end(), std::greater<std::uint64_t>());
  std::uint64_t quorum_match = sorted[quorum_of(replicas_.size()) - 1];
  std::uint64_t commit = std::min(quorum_match, leader.log_end());
  if (commit > leader.commit_index) {
    leader.commit_index = commit;
    leader.applied_index = commit;
    apply_committed();
  }
}

void Shard::apply_committed() {
  if (!leader_serving()) return;
  Replica& leader = leader_replica();
  leader.applied_index = leader.commit_index;
  while (applied_to_nib_ < leader.commit_index) {
    const LogEntry* entry = entry_at(leader, applied_to_nib_ + 1);
    if (entry == nullptr) break;  // compacted below the watermark: impossible
                                  // by construction, defensively do nothing
    applied_log_.push_back(*entry);
    ++applied_to_nib_;
    ++counters_.commits;
    if (apply_) apply_(*entry);
  }
}

void Shard::kill_leader() {
  if (!leader_serving()) return;
  leader_replica().alive = false;
  if (event_hook_) {
    event_hook_("leader-killed", "shard=" + std::to_string(id_) + " r" +
                                     std::to_string(leader_) + " epoch=" +
                                     std::to_string(epoch_));
  }
}

void Shard::revive_all() {
  bool leader_revived = false;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    Replica& r = replicas_[i];
    if (r.alive) continue;
    r.alive = true;
    r.lease_expiry = sim_->now() + config_.lease_duration;
    if (static_cast<int>(i) == leader_) leader_revived = true;
  }
  if (leader_revived) {
    // The leader came back before anyone was elected in its place (lease
    // still running, or no quorum without it). It resumes leadership as a
    // restarted process: new epoch — stale pre-crash traffic must not count
    // toward quorum — and a takeover requeue for the ACKs dropped while it
    // was down.
    become_leader(static_cast<std::size_t>(leader_), "revive");
  }
}

void Shard::partition_leader() {
  if (leader_ < 0 || !replicas_[static_cast<std::size_t>(leader_)].alive) {
    return;
  }
  replicas_[static_cast<std::size_t>(leader_)].partitioned = true;
  if (event_hook_) {
    event_hook_("leader-partitioned",
                "shard=" + std::to_string(id_) + " r" +
                    std::to_string(leader_) + " epoch=" +
                    std::to_string(epoch_));
  }
}

void Shard::heal_all() {
  for (Replica& r : replicas_) r.partitioned = false;
}

std::vector<std::string> Shard::check_invariants(bool at_quiescence) const {
  std::vector<std::string> violations;
  const std::string prefix = "shard " + std::to_string(id_) + ": ";
  const std::size_t quorum = quorum_of(replicas_.size());

  // R1 — the applied sequence is contiguous and applied exactly once.
  if (applied_log_.size() != applied_to_nib_) {
    violations.push_back(prefix + "applied journal size " +
                         std::to_string(applied_log_.size()) +
                         " != watermark " + std::to_string(applied_to_nib_));
  }
  for (std::size_t k = 0; k < applied_log_.size(); ++k) {
    if (applied_log_[k].index != k + 1) {
      violations.push_back(prefix + "applied entry #" + std::to_string(k) +
                           " has index " +
                           std::to_string(applied_log_[k].index) +
                           " (R1: contiguous exactly-once apply)");
      break;
    }
  }

  // R2 — every NIB-applied entry is durably held by a quorum of replica
  // logs, content-identical. Commit-before-quorum plus a lost leader leaves
  // applied entries nowhere: the defect this invariant exists to catch.
  for (const LogEntry& applied : applied_log_) {
    std::size_t holders = 0;
    for (const Replica& r : replicas_) {
      if (applied.index <= r.snapshot_index) {
        ++holders;  // compacted into a leader-committed snapshot
        continue;
      }
      const LogEntry* held = entry_at(r, applied.index);
      if (held != nullptr && same_payload(*held, applied)) ++holders;
    }
    if (holders < quorum) {
      violations.push_back(
          prefix + "applied entry " + std::to_string(applied.index) + " (sw" +
          std::to_string(applied.sw.value()) + ", " +
          std::to_string(applied.ops.size()) + " ops) held by only " +
          std::to_string(holders) + "/" + std::to_string(quorum) +
          " replica logs (R2: committed implies quorum-durable)");
    }
  }

  // R3 — epochs only move forward, one leader per epoch.
  std::uint64_t previous_epoch = 1;
  for (const auto& [epoch, leader] : election_history_) {
    if (epoch <= previous_epoch) {
      violations.push_back(prefix + "election to epoch " +
                           std::to_string(epoch) + " did not advance past " +
                           std::to_string(previous_epoch) +
                           " (R3: strictly increasing epochs)");
    }
    previous_epoch = epoch;
  }

  // R4 — quiescent convergence: the reachable replica set agrees with the
  // leader, and the leader's committed log is exactly what reached the NIB.
  // Skipped when no live un-partitioned leader exists (a shrunk schedule may
  // legally orphan kills past quorum loss; the campaign's own eventual-
  // consistency oracle reports that as non-convergence).
  if (at_quiescence && leader_serving() &&
      !replicas_[static_cast<std::size_t>(leader_)].partitioned) {
    const Replica& leader = replicas_[static_cast<std::size_t>(leader_)];
    std::size_t reachable = 0;
    for (const Replica& r : replicas_) {
      if (r.alive && !r.partitioned) ++reachable;
    }
    if (reachable >= quorum) {
      if (leader.commit_index != leader.log_end() ||
          applied_to_nib_ != leader.commit_index) {
        violations.push_back(
            prefix + "leader log_end=" + std::to_string(leader.log_end()) +
            " commit=" + std::to_string(leader.commit_index) + " applied=" +
            std::to_string(applied_to_nib_) +
            " not converged (R4: quiescent logs drain to the NIB)");
      }
      for (std::size_t i = 0; i < replicas_.size(); ++i) {
        const Replica& r = replicas_[i];
        if (!r.alive || r.partitioned) continue;
        if (r.epoch != epoch_ || r.log_end() != leader.log_end() ||
            r.commit_index != leader.commit_index) {
          violations.push_back(
              prefix + "replica r" + std::to_string(i) + " (epoch " +
              std::to_string(r.epoch) + ", log_end " +
              std::to_string(r.log_end()) + ", commit " +
              std::to_string(r.commit_index) +
              ") diverged from leader at quiescence (R4)");
        }
      }
    }
  }
  return violations;
}

bool Shard::settled() const {
  if (!leader_serving()) return true;
  const Replica& leader = replicas_[static_cast<std::size_t>(leader_)];
  if (leader.partitioned) return true;
  std::size_t reachable = 0;
  for (const Replica& r : replicas_) {
    if (r.alive && !r.partitioned) ++reachable;
  }
  if (reachable < quorum_of(replicas_.size())) return true;
  if (leader.commit_index != leader.log_end() ||
      applied_to_nib_ != leader.commit_index) {
    return false;
  }
  for (const Replica& r : replicas_) {
    if (!r.alive || r.partitioned) continue;
    if (r.epoch != epoch_ || r.log_end() != leader.log_end() ||
        r.commit_index != leader.commit_index) {
      return false;
    }
  }
  return true;
}

std::uint64_t Shard::digest() const {
  std::uint64_t hash = kFnvOffset;
  hash = fnv1a(hash, id_);
  hash = fnv1a(hash, epoch_);
  hash = fnv1a(hash, static_cast<std::uint64_t>(leader_ + 1));
  hash = fnv1a(hash, stalled_ ? 1 : 0);
  hash = fnv1a(hash, applied_to_nib_);
  for (const LogEntry& entry : applied_log_) {
    hash = fnv1a(hash, entry.index);
    hash = fnv1a(hash, entry.epoch);
    hash = fnv1a(hash, entry.sw.value());
    hash = fnv1a(hash, entry.ops.size());
    for (const Op& op : entry.ops) hash = fnv1a(hash, op.id.value());
  }
  hash = fnv1a(hash, replicas_.size());
  for (const Replica& r : replicas_) {
    hash = fnv1a(hash, r.alive ? 1 : 0);
    hash = fnv1a(hash, r.partitioned ? 1 : 0);
    hash = fnv1a(hash, r.epoch);
    hash = fnv1a(hash, r.snapshot_index);
    hash = fnv1a(hash, r.log_end());
    hash = fnv1a(hash, r.commit_index);
    hash = fnv1a(hash, r.applied_index);
  }
  hash = fnv1a(hash, counters_.elections);
  hash = fnv1a(hash, counters_.snapshots_installed);
  return hash;
}

// ---- ReplicatedControlPlane -------------------------------------------------

ReplicatedControlPlane::ReplicatedControlPlane(Simulator* sim,
                                               ReplConfig config)
    : sim_(sim), config_(std::move(config)) {
  for (std::size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(sim_, config_, i));
  }
}

std::size_t ReplicatedControlPlane::shard_of(SwitchId sw) const {
  std::uint64_t x =
      static_cast<std::uint64_t>(sw.value()) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % std::max<std::size_t>(1, num_shards()));
}

void ReplicatedControlPlane::set_apply(
    std::function<void(std::size_t, const LogEntry&)> fn) {
  for (auto& shard : shards_) {
    shard->apply_ = [fn, id = shard->id()](const LogEntry& entry) {
      fn(id, entry);
    };
  }
}

void ReplicatedControlPlane::set_on_takeover(
    std::function<void(std::size_t, std::uint64_t, const char*)> fn) {
  for (auto& shard : shards_) {
    shard->on_takeover_ = [fn, id = shard->id()](std::uint64_t epoch,
                                                 const char* reason) {
      fn(id, epoch, reason);
    };
  }
}

void ReplicatedControlPlane::set_event_hook(
    std::function<void(const std::string&, const std::string&)> hook) {
  for (auto& shard : shards_) shard->event_hook_ = hook;
}

void ReplicatedControlPlane::start() {
  if (shards_.empty()) return;
  sim_->schedule(config_.heartbeat_period, [this] { tick_all(); });
}

void ReplicatedControlPlane::tick_all() {
  for (auto& shard : shards_) shard->tick();
  sim_->schedule(config_.heartbeat_period, [this] { tick_all(); });
}

bool ReplicatedControlPlane::submit_ack(SwitchId sw, std::vector<Op> ops) {
  Shard& shard = *shards_.at(shard_of(sw));
  bool had_leader = shard.leader_serving();
  shard.submit(sw, std::move(ops));
  return had_leader;
}

void ReplicatedControlPlane::kill_shard_leader(std::size_t shard) {
  if (shard < shards_.size()) shards_[shard]->kill_leader();
}

void ReplicatedControlPlane::revive_shard(std::size_t shard) {
  if (shard < shards_.size()) shards_[shard]->revive_all();
}

void ReplicatedControlPlane::partition_shard_leader(std::size_t shard) {
  if (shard < shards_.size()) shards_[shard]->partition_leader();
}

void ReplicatedControlPlane::heal_shard(std::size_t shard) {
  if (shard < shards_.size()) shards_[shard]->heal_all();
}

void ReplicatedControlPlane::stall_heartbeats(std::size_t shard) {
  if (shard < shards_.size()) shards_[shard]->stalled_ = true;
}

void ReplicatedControlPlane::resume_heartbeats(std::size_t shard) {
  if (shard < shards_.size()) shards_[shard]->stalled_ = false;
}

std::vector<std::string> ReplicatedControlPlane::check_invariants(
    bool at_quiescence) const {
  std::vector<std::string> violations;
  for (const auto& shard : shards_) {
    for (std::string& v : shard->check_invariants(at_quiescence)) {
      violations.push_back(std::move(v));
    }
  }
  return violations;
}

bool ReplicatedControlPlane::settled() const {
  for (const auto& shard : shards_) {
    if (!shard->settled()) return false;
  }
  return true;
}

std::uint64_t ReplicatedControlPlane::digest() const {
  std::uint64_t hash = kFnvOffset;
  hash = fnv1a(hash, shards_.size());
  for (const auto& shard : shards_) hash = fnv1a(hash, shard->digest());
  return hash;
}

}  // namespace zenith::repl
