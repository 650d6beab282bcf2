#include "mc/abstraction.h"

#include <algorithm>
#include <sstream>

namespace zenith::mc {

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

}  // namespace

std::uint64_t AbstractState::digest() const {
  std::uint64_t hash = kFnvOffset;
  hash = fnv1a(hash, switches.size());
  for (const AbstractSwitch& sw : switches) {
    for (std::uint32_t count : sw.status_counts) hash = fnv1a(hash, count);
    hash = fnv1a(hash, static_cast<std::uint64_t>(sw.health));
    hash = fnv1a(hash, sw.fabric_alive ? 1 : 0);
    hash = fnv1a(hash, sw.view_size);
  }
  hash = fnv1a(hash, certified_dags.size());
  for (std::uint64_t id : certified_dags) hash = fnv1a(hash, id);
  hash = fnv1a(hash, current_dag);
  hash = fnv1a(hash, down_links);
  // Folded only when replication is on: digests of pre-replication runs are
  // byte-identical to what they were before shards existed.
  if (!shards.empty()) {
    hash = fnv1a(hash, shards.size());
    for (const AbstractShard& shard : shards) {
      hash = fnv1a(hash, shard.epoch);
      hash = fnv1a(hash, shard.leader);
      hash = fnv1a(hash, shard.committed_prefix);
      hash = fnv1a(hash, shard.committed_digest);
      hash = fnv1a(hash, shard.replicas.size());
      for (const AbstractReplica& r : shard.replicas) {
        hash = fnv1a(hash, r.alive ? 1 : 0);
        hash = fnv1a(hash, r.partitioned ? 1 : 0);
        hash = fnv1a(hash, r.log_end);
        hash = fnv1a(hash, r.commit_index);
        hash = fnv1a(hash, r.applied_index);
      }
    }
  }
  return hash;
}

AbstractState abstract_state(Experiment& exp,
                             const std::vector<DagId>& submitted) {
  AbstractState state;
  Nib& nib = exp.nib();

  for (SwitchId sw : nib.switches()) {
    std::size_t index = sw.value();
    if (state.switches.size() <= index) state.switches.resize(index + 1);
    AbstractSwitch& abs = state.switches[index];
    for (std::size_t s = 0; s < kNumOpStatuses; ++s) {
      OpStatus status = static_cast<OpStatus>(s);
      abs.status_counts[s] =
          static_cast<std::uint32_t>(nib.ops_on_switch(sw, status).size());
    }
    abs.health = nib.switch_health(sw);
    abs.fabric_alive = exp.fabric().alive(sw);
    abs.view_size =
        static_cast<std::uint32_t>(nib.view_installed(sw).size());
  }

  for (DagId id : submitted) {
    if (nib.dag_is_done(id)) state.certified_dags.push_back(id.value());
  }
  std::sort(state.certified_dags.begin(), state.certified_dags.end());
  state.certified_dags.erase(
      std::unique(state.certified_dags.begin(), state.certified_dags.end()),
      state.certified_dags.end());

  state.current_dag = nib.current_dag() ? nib.current_dag()->value() : 0;
  state.down_links = static_cast<std::uint32_t>(nib.down_links().size());

  if (const repl::ReplicatedControlPlane* repl = exp.controller().repl()) {
    for (std::size_t i = 0; i < repl->num_shards(); ++i) {
      const repl::Shard& shard = repl->shard(i);
      AbstractShard abs;
      abs.epoch = shard.epoch();
      abs.leader = shard.leader();
      abs.committed_prefix = shard.applied_to_nib();
      std::uint64_t digest = kFnvOffset;
      for (const repl::LogEntry& entry : shard.applied_log()) {
        digest = fnv1a(digest, entry.index);
        digest = fnv1a(digest, entry.sw.value());
        digest = fnv1a(digest, entry.ops.size());
        for (const Op& op : entry.ops) digest = fnv1a(digest, op.id.value());
      }
      abs.committed_digest = digest;
      for (const repl::Replica& r : shard.replicas()) {
        AbstractReplica abs_r;
        abs_r.alive = r.alive;
        abs_r.partitioned = r.partitioned;
        abs_r.log_end = r.log_end();
        abs_r.commit_index = r.commit_index;
        abs_r.applied_index = r.applied_index;
        abs.replicas.push_back(abs_r);
      }
      state.shards.push_back(std::move(abs));
    }
  }
  return state;
}

std::vector<std::string> check_quiescent(Experiment& exp, DagId last_dag,
                                         const FaultHistory& history) {
  std::vector<std::string> violations;
  Nib& nib = exp.nib();

  // (1) No transitional statuses survive quiescence. The model's quiescent
  // states (empty queues, no held OPs) have every OP in {NONE, SENT, DONE,
  // FAILED_SW}; SCHEDULED or IN_FLIGHT here means work was silently dropped
  // — exactly what the pop-before-process crash bug produces.
  for (OpStatus stuck : {OpStatus::kScheduled, OpStatus::kInFlight}) {
    for (OpId id : nib.ops_with_status(stuck)) {
      std::ostringstream msg;
      msg << "op" << id.value() << " stuck " << to_string(stuck)
          << " at quiescence (model: transitional statuses drain)";
      violations.push_back(msg.str());
    }
  }

  // (2) SENT with a healthy, alive target is a lost ACK the model cannot
  // produce: every model execution delivers the ACK of a surviving switch.
  // CLEAR_TCAM/DUMP_TABLE are control OPs whose replies route through the
  // cleanup/reconciliation paths, not the DONE transition.
  for (OpId id : nib.ops_with_status(OpStatus::kSent)) {
    const Op& op = nib.op(id);
    if (op.type == OpType::kClearTcam || op.type == OpType::kDumpTable) {
      continue;
    }
    if (nib.switch_up(op.sw) && exp.fabric().alive(op.sw)) {
      std::ostringstream msg;
      msg << "op" << id.value() << " SENT to healthy sw" << op.sw.value()
          << " never acked (model: surviving switches ack every send)";
      violations.push_back(msg.str());
    }
  }

  // (3) FAILED_SW requires the switch to actually have been down at some
  // point — the model only marks an OP failed when the worker observes
  // NIB health != UP, which requires a real failure event.
  if (!history.assume_any) {
    for (OpId id : nib.ops_with_status(OpStatus::kFailedSwitch)) {
      const Op& op = nib.op(id);
      if (!history.ever_down.count(op.sw.value())) {
        std::ostringstream msg;
        msg << "op" << id.value() << " FAILED_SW on sw" << op.sw.value()
            << " which never failed (model: failure status requires a "
               "failure)";
        violations.push_back(msg.str());
      }
    }
  }

  // (4) R_c only contains committed work: view membership without DONE
  // status means the view was edited outside an ACK transaction.
  for (SwitchId sw : nib.switches()) {
    for (OpId id : nib.view_installed(sw)) {
      if (nib.op_status(id) != OpStatus::kDone) {
        std::ostringstream msg;
        msg << "view(sw" << sw.value() << ") contains op" << id.value()
            << " with status " << to_string(nib.op_status(id))
            << " (model: view edits commit with the DONE transition)";
        violations.push_back(msg.str());
      }
    }
  }

  // (5) Condition ③ at quiescence: R_c equals ground truth on healthy
  // switches. The campaign's own oracle checks this for the last DAG;
  // repeated here network-wide because the model's invariant is
  // unconditional.
  ConsistencyReport report = exp.checker().check(std::nullopt);
  if (!report.view_consistent) {
    std::string detail =
        report.diffs.empty() ? "(no diff detail)" : report.diffs.front();
    violations.push_back("routing view diverges from ground truth: " +
                         detail);
  }

  // (6) Condition ② liveness at quiescence: when every switch the target
  // DAG touches survived, the DAG must have certified.
  if (nib.has_dag(last_dag)) {
    bool all_alive = true;
    for (SwitchId sw : nib.dag(last_dag).touched_switches()) {
      if (!exp.fabric().alive(sw)) {
        all_alive = false;
        break;
      }
    }
    if (all_alive && !nib.dag_is_done(last_dag)) {
      std::ostringstream msg;
      msg << "dag" << last_dag.value()
          << " touches only live switches yet never certified";
      violations.push_back(msg.str());
    }
  }

  // (7) Replicated commit path: the shard-log safety invariants (R1–R4)
  // must hold at quiescence. These are the abstract-replica-set properties
  // the model's log is defined by — contiguous applied prefix, quorum
  // durability of every applied entry, monotone epochs, replica
  // convergence under a serving leader.
  if (auto* repl = exp.controller().repl(); repl != nullptr) {
    for (std::string& violation :
         repl->check_invariants(/*at_quiescence=*/true)) {
      violations.push_back("replication: " + std::move(violation));
    }
  }

  return violations;
}

}  // namespace zenith::mc
