#include "nib/nib.h"

#include <algorithm>
#include <cassert>

namespace zenith {

const std::unordered_set<OpId> Nib::kEmptyView;

const char* to_string(SwitchHealth h) {
  switch (h) {
    case SwitchHealth::kUp: return "UP";
    case SwitchHealth::kDown: return "DOWN";
    case SwitchHealth::kRecovering: return "RECOVERING";
  }
  return "?";
}

void Nib::configure_sharding(std::size_t shards) {
  assert(ops_.empty() && switch_health_.empty() &&
         "configure_sharding on a populated NIB");
  shards_ = std::max<std::size_t>(1, shards);
  by_status_.assign(shards_, StatusIndex{});
}

void Nib::set_shard_queue(std::size_t shard, EventSink queue) {
  assert(shard < shards_);
  if (shard_queues_.size() < shards_) shard_queues_.resize(shards_, nullptr);
  shard_queues_[shard] = queue;
}

void Nib::publish(const NibEvent& event) {
  for (EventSink sink : sinks_) sink->push(event);
  if (shard_queues_.empty()) return;
  std::size_t shard = 0;
  switch (event.type) {
    case NibEvent::Type::kOpStatusChanged:
    case NibEvent::Type::kSwitchHealthChanged:
      shard = shard_of(event.sw);
      break;
    default:
      break;  // non-switch-keyed events route to shard 0
  }
  shard_queues_[shard]->push(event);
}

void Nib::index_insert(OpId id, SwitchId sw, OpStatus status) {
  auto slot = static_cast<std::size_t>(status);
  by_status_[shard_of(sw)][slot].insert(id);
  by_switch_status_[sw][slot].insert(id);
}

void Nib::index_erase(OpId id, SwitchId sw, OpStatus status) {
  auto slot = static_cast<std::size_t>(status);
  by_status_[shard_of(sw)][slot].erase(id);
  auto it = by_switch_status_.find(sw);
  if (it != by_switch_status_.end()) it->second[slot].erase(id);
}

void Nib::put_op(const Op& op) {
  assert(op.id.valid());
  auto [it, inserted] = ops_.emplace(op.id, op);
  if (inserted) {
    op_status_[op.id] = OpStatus::kNone;
    index_insert(op.id, op.sw, OpStatus::kNone);
    ++write_count_;
  } else {
    assert(it->second == op && "op id reused with different payload");
  }
}

OpStatus Nib::op_status(OpId id) const {
  auto it = op_status_.find(id);
  return it == op_status_.end() ? OpStatus::kNone : it->second;
}

void Nib::set_op_status(OpId id, OpStatus status) {
  assert(ops_.count(id) && "status write for unregistered op");
  OpStatus& slot = op_status_[id];
  ++write_count_;
  if (slot == status) return;
  SwitchId sw = ops_.at(id).sw;
  index_erase(id, sw, slot);
  index_insert(id, sw, status);
  slot = status;
  NibEvent event;
  event.type = NibEvent::Type::kOpStatusChanged;
  event.op = id;
  event.op_status = status;
  event.sw = sw;
  publish(event);
}

std::vector<OpId> Nib::ops_on_switch(SwitchId sw, StatusMask filter) const {
  std::vector<OpId> out;
  auto it = by_switch_status_.find(sw);
  if (it == by_switch_status_.end()) return out;
  for (std::size_t s = 0; s < kNumOpStatuses; ++s) {
    if (!filter.contains(static_cast<OpStatus>(s))) continue;
    const std::set<OpId>& ids = it->second[s];
    out.insert(out.end(), ids.begin(), ids.end());
  }
  // Each per-status run is already ordered; merge them into the id-sorted
  // order the scan-based implementation produced (ids are unique, so the
  // result is byte-identical).
  std::sort(out.begin(), out.end());
  return out;
}

void Nib::preload_op(const Op& op, OpStatus status, bool in_view) {
  auto [it, inserted] = ops_.emplace(op.id, op);
  if (!inserted) index_erase(op.id, it->second.sw, op_status_[op.id]);
  op_status_[op.id] = status;
  index_insert(op.id, it->second.sw, status);
  if (in_view) view_[op.sw].insert(op.id);
  ++write_count_;
}

std::size_t Nib::commit_ack_batch(SwitchId sw, const std::vector<Op>& ops) {
  // One transaction, one published event: the per-OP writes below go through
  // the same index/view mutations as set_op_status but defer notification,
  // so a 16-OP batch ACK costs the event-routing pipeline (NIB Event Handler
  // -> Sequencer wakeups) one service step instead of sixteen. Without this
  // the per-OP kOpStatusChanged stream re-serializes exactly the traffic
  // batching removed from the Monitoring Server.
  std::size_t committed = 0;
  NibEvent event;
  event.type = NibEvent::Type::kOpStatusChanged;
  event.op_status = OpStatus::kDone;
  event.sw = sw;
  for (const Op& op : ops) {
    if (!ops_.count(op.id)) continue;  // orphan element; the caller counts it
    ++write_count_;
    OpStatus& slot = op_status_.find(op.id)->second;
    if (slot != OpStatus::kDone) {
      index_erase(op.id, sw, slot);
      index_insert(op.id, sw, OpStatus::kDone);
      slot = OpStatus::kDone;
    }
    switch (op.type) {
      case OpType::kInstallRule:
        view_add_installed(sw, op.id);
        break;
      case OpType::kDeleteRule:
        view_remove_installed(sw, op.delete_target);
        break;
      case OpType::kClearTcam:
      case OpType::kDumpTable:
        assert(false && "batches carry install/delete OPs only");
        break;
    }
    event.op = op.id;
    event.batch.push_back(op.id);
    ++committed;
  }
  if (committed > 0) publish(event);
  return committed;
}

std::vector<OpId> Nib::ops_with_status(OpStatus status) const {
  const auto slot = static_cast<std::size_t>(status);
  if (by_status_.size() == 1) {
    const std::set<OpId>& ids = by_status_[0][slot];
    return std::vector<OpId>(ids.begin(), ids.end());
  }
  std::vector<OpId> out;
  for (const StatusIndex& index : by_status_) {
    out.insert(out.end(), index[slot].begin(), index[slot].end());
  }
  // Per-shard runs are id-sorted; merge into the global id order the
  // unsharded index produced.
  std::sort(out.begin(), out.end());
  return out;
}

void Nib::register_switch(SwitchId sw) {
  if (switch_health_.emplace(sw, SwitchHealth::kUp).second) {
    switches_cache_stale_ = true;
  }
  view_.emplace(sw, std::unordered_set<OpId>{});
  ++write_count_;
}

SwitchHealth Nib::switch_health(SwitchId sw) const {
  auto it = switch_health_.find(sw);
  assert(it != switch_health_.end() && "unregistered switch");
  return it->second;
}

void Nib::set_switch_health(SwitchId sw, SwitchHealth health) {
  auto it = switch_health_.find(sw);
  assert(it != switch_health_.end() && "unregistered switch");
  ++write_count_;
  if (it->second == health) return;
  bool was_up = it->second == SwitchHealth::kUp;
  it->second = health;
  bool is_up = health == SwitchHealth::kUp;
  if (was_up != is_up) {
    NibEvent event;
    event.type = NibEvent::Type::kSwitchHealthChanged;
    event.sw = sw;
    event.sw_up = is_up;
    publish(event);
  }
}

void Nib::set_link_up(LinkId link, bool up) {
  ++write_count_;
  bool was_up = !down_links_.count(link);
  if (was_up == up) return;
  if (up) {
    down_links_.erase(link);
  } else {
    down_links_.insert(link);
  }
  NibEvent event;
  event.type = NibEvent::Type::kTopologyChanged;
  event.link = link;
  event.link_up = up;
  publish(event);
}

const std::vector<SwitchId>& Nib::switches() const {
  if (switches_cache_stale_) {
    switches_cache_.clear();
    switches_cache_.reserve(switch_health_.size());
    for (const auto& [sw, _] : switch_health_) switches_cache_.push_back(sw);
    std::sort(switches_cache_.begin(), switches_cache_.end());
    switches_cache_stale_ = false;
  }
  return switches_cache_;
}

void Nib::view_add_installed(SwitchId sw, OpId op) {
  view_[sw].insert(op);
  ++write_count_;
}

void Nib::view_remove_installed(SwitchId sw, OpId op) {
  auto it = view_.find(sw);
  if (it != view_.end()) it->second.erase(op);
  ++write_count_;
}

void Nib::view_clear_switch(SwitchId sw) {
  auto it = view_.find(sw);
  if (it != view_.end()) it->second.clear();
  ++write_count_;
}

const std::unordered_set<OpId>& Nib::view_installed(SwitchId sw) const {
  auto it = view_.find(sw);
  return it == view_.end() ? kEmptyView : it->second;
}

void Nib::put_dag(Dag dag) {
  DagId id = dag.id();
  assert(id.valid());
  for (const Op* op : dag.all_ops()) put_op(*op);
  dags_[id] = std::move(dag);
  ++write_count_;
}

void Nib::remove_dag(DagId id) {
  dags_.erase(id);
  ++write_count_;
  if (current_dag_ == id) current_dag_.reset();
}

void Nib::publish_dag_done(DagId id) {
  NibEvent event;
  event.type = NibEvent::Type::kDagDone;
  event.dag = id;
  publish(event);
}

void Nib::mark_dag_done(DagId id) {
  done_dags_.insert(id);
  ++write_count_;
}

void Nib::clear_dag_done(DagId id) {
  done_dags_.erase(id);
  ++write_count_;
}

void Nib::publish_dag_accepted(DagId id) {
  NibEvent event;
  event.type = NibEvent::Type::kDagAccepted;
  event.dag = id;
  publish(event);
}

void Nib::set_worker_state(WorkerId worker, std::optional<OpId> op) {
  ++write_count_;
  if (op.has_value()) {
    // §B safety: "no two workers can work on the same task at the same
    // time". Consistent sharding makes this structural; the NIB asserts it
    // anyway so a future regression cannot slip by silently.
    for (const auto& [other, held] : worker_state_) {
      assert((other == worker || held != *op) &&
             "concurrency violation: two workers hold the same OP");
      (void)other;
      (void)held;
    }
    worker_state_[worker] = *op;
  } else {
    worker_state_.erase(worker);
  }
}

std::optional<OpId> Nib::worker_state(WorkerId worker) const {
  auto it = worker_state_.find(worker);
  if (it == worker_state_.end()) return std::nullopt;
  return it->second;
}

std::uint64_t Nib::state_fingerprint() const {
  // FNV-1a over a canonical (sorted) serialization. Every section is
  // prefixed with a distinct tag so an empty section cannot alias into its
  // neighbour's encoding.
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };

  mix(0x4f505354u);  // OP statuses, sorted by id
  std::vector<OpId> op_ids;
  op_ids.reserve(ops_.size());
  for (const auto& [id, _] : ops_) op_ids.push_back(id);
  std::sort(op_ids.begin(), op_ids.end());
  for (OpId id : op_ids) {
    mix(id.value());
    mix(static_cast<std::uint64_t>(op_status_.at(id)));
  }

  mix(0x53574854u);  // switch health + view R_c, sorted by switch id
  for (SwitchId sw : switches()) {
    mix(sw.value());
    mix(static_cast<std::uint64_t>(switch_health_.at(sw)));
    std::vector<OpId> installed(view_installed(sw).begin(),
                                view_installed(sw).end());
    std::sort(installed.begin(), installed.end());
    mix(installed.size());
    for (OpId id : installed) mix(id.value());
  }

  mix(0x4c4e4b53u);  // down links, sorted
  std::vector<LinkId> links(down_links_.begin(), down_links_.end());
  std::sort(links.begin(), links.end());
  for (LinkId link : links) mix(link.value());

  mix(0x44414753u);  // DAG bookkeeping, sorted by id
  std::vector<DagId> dag_ids;
  dag_ids.reserve(dags_.size());
  for (const auto& [id, _] : dags_) dag_ids.push_back(id);
  std::sort(dag_ids.begin(), dag_ids.end());
  for (DagId id : dag_ids) mix(id.value());
  // Done certificates outlive remove_dag, so they get their own sorted list.
  std::vector<DagId> done_ids(done_dags_.begin(), done_dags_.end());
  std::sort(done_ids.begin(), done_ids.end());
  for (DagId id : done_ids) mix(id.value());
  mix(current_dag_ ? current_dag_->value() : ~0ull);

  mix(0x574b5253u);  // worker in-progress slots, sorted by worker id
  std::vector<std::pair<WorkerId, OpId>> slots(worker_state_.begin(),
                                               worker_state_.end());
  std::sort(slots.begin(), slots.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [worker, op] : slots) {
    mix(worker.value());
    mix(op.value());
  }

  return h;
}

std::uint64_t Nib::shard_fingerprint(std::size_t shard,
                                     std::size_t shards) const {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };

  mix(0x53484152u);  // shard slice header: (shard, shards)
  mix(shard);
  mix(shards);

  mix(0x4f505354u);  // this shard's OP statuses, sorted by id
  std::vector<OpId> op_ids;
  for (const auto& [id, op] : ops_) {
    if (shard_slot(op.sw, shards) == shard) op_ids.push_back(id);
  }
  std::sort(op_ids.begin(), op_ids.end());
  for (OpId id : op_ids) {
    mix(id.value());
    mix(static_cast<std::uint64_t>(op_status_.at(id)));
  }

  mix(0x53574854u);  // this shard's switches: health + view R_c
  for (SwitchId sw : switches()) {
    if (shard_slot(sw, shards) != shard) continue;
    mix(sw.value());
    mix(static_cast<std::uint64_t>(switch_health_.at(sw)));
    std::vector<OpId> installed(view_installed(sw).begin(),
                                view_installed(sw).end());
    std::sort(installed.begin(), installed.end());
    mix(installed.size());
    for (OpId id : installed) mix(id.value());
  }

  if (shard == 0) {
    // Shard 0 additionally owns the non-switch-keyed state, mirroring the
    // event-routing rule (non-switch events go to shard 0's queue).
    mix(0x4c4e4b53u);
    std::vector<LinkId> links(down_links_.begin(), down_links_.end());
    std::sort(links.begin(), links.end());
    for (LinkId link : links) mix(link.value());

    mix(0x44414753u);
    std::vector<DagId> dag_ids;
    dag_ids.reserve(dags_.size());
    for (const auto& [id, _] : dags_) dag_ids.push_back(id);
    std::sort(dag_ids.begin(), dag_ids.end());
    for (DagId id : dag_ids) mix(id.value());
    std::vector<DagId> done_ids(done_dags_.begin(), done_dags_.end());
    std::sort(done_ids.begin(), done_ids.end());
    for (DagId id : done_ids) mix(id.value());
    mix(current_dag_ ? current_dag_->value() : ~0ull);

    mix(0x574b5253u);
    std::vector<std::pair<WorkerId, OpId>> slots(worker_state_.begin(),
                                                 worker_state_.end());
    std::sort(slots.begin(), slots.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [worker, op] : slots) {
      mix(worker.value());
      mix(op.value());
    }
  }
  return h;
}

std::uint64_t Nib::folded_shard_fingerprint(std::size_t shards) const {
  if (shards == 0) shards = shards_;
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffull;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t s = 0; s < shards; ++s) mix(shard_fingerprint(s, shards));
  return h;
}

}  // namespace zenith
