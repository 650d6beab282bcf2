#include "mc/pipeline_model.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "common/hash.h"

namespace zenith::mc {

namespace {
template <typename T>
bool queue_push(T* queue, std::uint8_t& len, T msg) {
  if (len >= kQueueCap) return false;
  queue[len++] = msg;
  return true;
}

template <typename T>
T queue_pop(T* queue, std::uint8_t& len) {
  assert(len > 0);
  T head = queue[0];
  for (int i = 1; i < len; ++i) queue[i - 1] = queue[i];
  --len;
  return head;
}

bool is_clear_msg(Msg msg) { return msg >= kClearBase && msg != kNoOp; }
int clear_switch_of(Msg msg) { return msg - kClearBase; }
bool is_batch_msg(Msg msg) {
  return (msg & kBatchFlag) != 0 && msg < kClearBase;
}
int batch_switch_of(Msg msg) { return (msg >> 10) & 0x1f; }
std::uint16_t batch_mask_of(Msg msg) { return msg & 0x03ff; }
Msg make_batch_msg(int sw, std::uint16_t mask) {
  return static_cast<Msg>(kBatchFlag | (sw << 10) | mask);
}
}  // namespace

ModelConfig ModelConfig::table4_instance() {
  // DAG A: op0 (sw0) -> op1 (sw1). Switch 0 fails; the app installs DAG B:
  // op2 (sw1) -> op3 (sw1) plus a deletion of op1 — 5 OPs total.
  ModelConfig config;
  config.num_switches = 2;
  config.num_workers = 2;
  config.max_switch_failures = 1;
  config.allow_recovery = true;
  config.complete_failure = true;
  config.failing_switch = 0;
  ModelOp op0{.sw = 0, .preds = {}, .dag = 0};
  ModelOp op1{.sw = 1, .preds = {0}, .dag = 0};
  ModelOp op2{.sw = 1, .preds = {}, .dag = 1};
  ModelOp op3{.sw = 1, .preds = {2}, .dag = 1};
  ModelOp del4{.sw = 1,
               .is_delete = true,
               .delete_target = 1,
               .preds = {2, 3},
               .dag = 1};
  config.ops = {op0, op1, op2, op3, del4};
  return config;
}

ModelConfig ModelConfig::table4_measurement_instance() {
  ModelConfig config;
  config.num_switches = 3;
  config.num_workers = 2;
  config.max_switch_failures = 2;
  config.allow_recovery = true;
  config.complete_failure = true;
  config.failing_switch = -1;  // any switch
  // DAG A: op0 (sw0) -> op1 (sw1) -> op2 (sw2).
  ModelOp op0{.sw = 0, .preds = {}, .dag = 0};
  ModelOp op1{.sw = 1, .preds = {0}, .dag = 0};
  ModelOp op2{.sw = 2, .preds = {1}, .dag = 0};
  // DAG B: two parallel chains on sw1/sw2 plus deletions of A's survivors.
  ModelOp op3{.sw = 1, .preds = {}, .dag = 1};
  ModelOp op4{.sw = 2, .preds = {3}, .dag = 1};
  ModelOp op5{.sw = 2, .preds = {}, .dag = 1};
  ModelOp op6{.sw = 1, .preds = {5}, .dag = 1};
  ModelOp del7{.sw = 1,
               .is_delete = true,
               .delete_target = 1,
               .preds = {4, 6},
               .dag = 1};
  ModelOp del8{.sw = 2,
               .is_delete = true,
               .delete_target = 2,
               .preds = {4, 6},
               .dag = 1};
  config.ops = {op0, op1, op2, op3, op4, op5, op6, del7, del8};
  return config;
}

ModelConfig ModelConfig::tiny_instance() {
  ModelConfig config;
  config.num_switches = 2;
  config.num_workers = 1;
  config.max_switch_failures = 0;
  ModelOp op0{.sw = 0, .preds = {}, .dag = 0};
  ModelOp op1{.sw = 1, .preds = {0}, .dag = 0};
  config.ops = {op0, op1};
  return config;
}

ModelConfig ModelConfig::transient_recovery_instance() {
  // §G: sw0 fails transiently; after the failure/recovery cycle the app's
  // replacement DAG installs a fresh OP on the recovered switch.
  ModelConfig config;
  config.num_switches = 2;
  config.num_workers = 2;
  config.max_switch_failures = 1;
  config.allow_recovery = true;
  config.complete_failure = true;
  config.failing_switch = 0;
  ModelOp op0{.sw = 0, .preds = {}, .dag = 0};
  ModelOp op1{.sw = 1, .preds = {0}, .dag = 0};
  ModelOp op2{.sw = 0, .preds = {}, .dag = 1};  // new rule on recovered sw
  ModelOp del3{.sw = 1,
               .is_delete = true,
               .delete_target = 1,
               .preds = {2},
               .dag = 1};
  config.ops = {op0, op1, op2, del3};
  return config;
}

std::pair<std::uint64_t, std::uint64_t> State::fingerprint(
    bool symmetry) const {
  // Workers are interchangeable: canonicalize by sorting their
  // (msg, phase) tuples. (§3.7 symmetry reduction.) Only the worker slots
  // differ between the raw and canonical forms, so the state itself is
  // never copied — the sorted slots are serialized in place of the raw
  // ones below.
  std::array<std::pair<Msg, std::uint8_t>, kMaxWorkers> slots;
  for (int w = 0; w < kMaxWorkers; ++w) {
    slots[w] = {worker_msg[w], worker_phase[w]};
  }
  if (symmetry) std::sort(slots.begin(), slots.end());

  // Field-by-field serialization: hashing the raw struct would include
  // indeterminate padding bytes and split identical states. The buffer is
  // stack-allocated — this runs once per generated state, so a heap
  // allocation here dominates the checker's flat profile (PR 9).
  std::array<std::uint8_t, 320> bytes;
  std::size_t len = 0;
  auto put8 = [&](std::uint8_t v) { bytes[len++] = v; };
  auto put16 = [&](std::uint16_t v) {
    bytes[len++] = static_cast<std::uint8_t>(v & 0xff);
    bytes[len++] = static_cast<std::uint8_t>(v >> 8);
  };
  put8(current_dag);
  for (auto v : op_status) put8(v);
  put8(op_queue_len);
  for (int i = 0; i < op_queue_len; ++i) put16(op_queue[i]);
  for (int w = 0; w < kMaxWorkers; ++w) {
    put16(slots[w].first);
    put8(slots[w].second);
  }
  for (int sw = 0; sw < kMaxSwitches; ++sw) {
    put8(sw_up[sw]);
    put8(nib_health[sw]);
    put16(sw_table[sw]);
    put16(nib_view[sw]);
    put8(sw_inq_len[sw]);
    for (int i = 0; i < sw_inq_len[sw]; ++i) put16(sw_inq[sw][i]);
    put8(sw_outq_len[sw]);
    for (int i = 0; i < sw_outq_len[sw]; ++i) {
      put16(sw_outq[sw][i]);
    }
  }
  put8(ack_queue_len);
  for (int i = 0; i < ack_queue_len; ++i) put16(ack_queue[i]);
  put8(topo_queue_len);
  for (int i = 0; i < topo_queue_len; ++i) put8(topo_queue[i]);
  put8(cleanup_queue_len);
  for (int i = 0; i < cleanup_queue_len; ++i) {
    put8(cleanup_queue[i]);
  }
  put16(installed_once);
  put8(failures_used);
  put8(worker_crashes_used);
  put8(app_switched);
  put8(pending_reset);
  std::span<const std::uint8_t> span(bytes.data(), len);
  return {fnv1a(span, 0xcbf29ce484222325ull),
          fnv1a(span, 0x9e3779b97f4a7c15ull)};
}

std::string Action::label() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kSeqSchedule: out << "Sequencer.ScheduleOP(op" << int(subject) << ")"; break;
    case Kind::kSeqBatchPass: out << "Sequencer.SchedulePass"; break;
    case Kind::kWorkerTake: out << "WorkerPool.Take(w" << int(subject) << ")"; break;
    case Kind::kWorkerRecord: out << "WorkerPool.RecordNIB(w" << int(subject) << ")"; break;
    case Kind::kWorkerAct: out << "WorkerPool.ForwardOP(w" << int(subject) << ")"; break;
    case Kind::kSwitchProcess: out << "AbstractSW.PerformOP(sw" << int(subject) << ")"; break;
    case Kind::kSwitchEmitAck: out << "AbstractSW.AckOP(sw" << int(subject) << ")"; break;
    case Kind::kMonitoring: out << "MonitoringServer.ProcessACK"; break;
    case Kind::kTopoEvent: out << "TopoEventHandler.HealthEvent"; break;
    case Kind::kCleanupAck: out << "TopoEventHandler.CleanupACK"; break;
    case Kind::kDeferredReset: out << "TopoEventHandler.DeferredReset(sw" << int(subject) << ")"; break;
    case Kind::kSwitchFail: out << "SwitchFailure(sw" << int(subject) << ")"; break;
    case Kind::kSwitchRecover: out << "SwitchRecovery(sw" << int(subject) << ")"; break;
    case Kind::kWorkerCrash: out << "WorkerCrash(w" << int(subject) << ")"; break;
    case Kind::kAppSwitchDag: out << "AbstractApp.ReplaceDAG"; break;
  }
  return out.str();
}

PipelineModel::PipelineModel(ModelConfig config) : config_(std::move(config)) {
  // Op indices, switch ids and delete targets become bit positions in the
  // 16-bit table/view masks; an out-of-range one would shift past the mask.
  auto reject = [](const std::string& why) {
    throw std::invalid_argument("PipelineModel: " + why);
  };
  if (config_.num_switches > kMaxSwitches) reject("num_switches > kMaxSwitches");
  if (config_.num_workers > kMaxWorkers) reject("num_workers > kMaxWorkers");
  if (config_.batch_size < 1) reject("batch_size must be >= 1");
  const std::size_t n = config_.ops.size();
  if (n > static_cast<std::size_t>(kMaxOps)) {
    reject(std::to_string(n) + " ops exceed kMaxOps");
  }
  for (std::size_t i = 0; i < n; ++i) {
    const ModelOp& op = config_.ops[i];
    const std::string at = "op " + std::to_string(i) + ": ";
    if (op.sw >= config_.num_switches) reject(at + "sw >= num_switches");
    if (op.is_delete && op.delete_target >= n) {
      reject(at + "delete_target names no op in the table");
    }
    for (std::uint8_t pred : op.preds) {
      if (pred >= n) reject(at + "predecessor names no op in the table");
    }
  }
}

State PipelineModel::initial_state() const {
  State s;
  s.worker_msg.fill(kNoOp);
  for (int i = 0; i < config_.num_switches; ++i) {
    s.sw_up[i] = 1;
    s.nib_health[i] = static_cast<std::uint8_t>(MHealth::kUp);
  }
  return s;
}

bool PipelineModel::op_in_current_dag(const State& s, int op) const {
  return config_.ops[op].dag == s.current_dag;
}

bool PipelineModel::preds_done(const State& s, int op) const {
  for (std::uint8_t p : config_.ops[op].preds) {
    if (static_cast<MOpStatus>(s.op_status[p]) != MOpStatus::kDone) {
      return false;
    }
  }
  return true;
}

bool PipelineModel::op_schedulable(const State& s, int op) const {
  // P2's predicate, verbatim: in the current DAG, not yet tracked, all
  // predecessors DONE, and the target switch healthy in the NIB.
  if (!op_in_current_dag(s, op)) return false;
  if (static_cast<MOpStatus>(s.op_status[op]) != MOpStatus::kNone) {
    return false;
  }
  if (!preds_done(s, op)) return false;
  return static_cast<MHealth>(s.nib_health[config_.ops[op].sw]) ==
         MHealth::kUp;
}

int PipelineModel::msg_switch(Msg msg) const {
  if (is_clear_msg(msg)) return clear_switch_of(msg);
  if (is_batch_msg(msg)) return batch_switch_of(msg);
  return config_.ops[msg].sw;
}

void PipelineModel::mark_batch_status(State& s, Msg msg,
                                      MOpStatus status) const {
  std::uint16_t mask = batch_mask_of(msg);
  for (int op = 0; op < static_cast<int>(config_.ops.size()); ++op) {
    if (mask & (1u << op)) {
      s.op_status[op] = static_cast<std::uint8_t>(status);
    }
  }
}

std::vector<Action> PipelineModel::raw_enabled(const State& s) const {
  std::vector<Action> out;
  using K = Action::Kind;

  if (config_.batch_size <= 1) {
    // Sequencer, classic pipeline: one transition per schedulable OP
    // (P2's predicate, verbatim).
    for (int op = 0; op < static_cast<int>(config_.ops.size()); ++op) {
      if (!op_schedulable(s, op)) continue;
      if (s.op_queue_len >= kQueueCap) continue;
      out.push_back({K::kSeqSchedule, static_cast<std::uint8_t>(op)});
    }
  } else {
    // Batched pipeline: one service step of the sequencer runs the whole
    // coalescing scan atomically (the implementation does the same inside
    // a single simulator event).
    bool any = false;
    for (int op = 0; op < static_cast<int>(config_.ops.size()); ++op) {
      if (op_schedulable(s, op)) {
        any = true;
        break;
      }
    }
    if (any && s.op_queue_len < kQueueCap) {
      out.push_back({K::kSeqBatchPass, 0});
    }
  }

  // Worker pool: an idle worker may take the queue head unless another
  // worker already holds a message for the same switch (per-switch
  // serialization, P4).
  if (s.op_queue_len > 0) {
    int head_sw = msg_switch(s.op_queue[0]);
    bool switch_held = false;
    for (int w = 0; w < config_.num_workers; ++w) {
      if (s.worker_msg[w] == kNoOp) continue;
      if (msg_switch(s.worker_msg[w]) == head_sw) switch_held = true;
    }
    if (!switch_held) {
      for (int w = 0; w < config_.num_workers; ++w) {
        if (s.worker_msg[w] != kNoOp) continue;
        out.push_back({K::kWorkerTake, static_cast<std::uint8_t>(w)});
        if (config_.opt_symmetry) break;  // deterministic lowest-id choice
      }
    }
  }
  // Worker phases (fine-grained; POR merges them into Take).
  if (!config_.opt_por) {
    for (int w = 0; w < config_.num_workers; ++w) {
      if (s.worker_msg[w] == kNoOp) continue;
      if (s.worker_phase[w] == 0) {
        out.push_back({K::kWorkerRecord, static_cast<std::uint8_t>(w)});
      } else {
        out.push_back({K::kWorkerAct, static_cast<std::uint8_t>(w)});
      }
    }
  }

  // Switches.
  for (int sw = 0; sw < config_.num_switches; ++sw) {
    if (s.sw_up[sw] && s.sw_inq_len[sw] > 0 && s.ack_queue_len < kQueueCap) {
      out.push_back({K::kSwitchProcess, static_cast<std::uint8_t>(sw)});
    }
    if (!config_.opt_compositional && s.sw_outq_len[sw] > 0 &&
        s.ack_queue_len < kQueueCap) {
      out.push_back({K::kSwitchEmitAck, static_cast<std::uint8_t>(sw)});
    }
  }

  // Monitoring server.
  if (s.ack_queue_len > 0) out.push_back({K::kMonitoring, 0});
  // Topo event handler.
  if (s.topo_queue_len > 0) out.push_back({K::kTopoEvent, 0});
  if (s.cleanup_queue_len > 0) out.push_back({K::kCleanupAck, 0});
  for (int sw = 0; sw < config_.num_switches; ++sw) {
    if (s.pending_reset & (1u << sw)) {
      out.push_back({K::kDeferredReset, static_cast<std::uint8_t>(sw)});
    }
  }

  // AbstractApp: reacts once to the failure by replacing DAG A with DAG B.
  if (s.current_dag == 0 && !s.app_switched && s.failures_used > 0) {
    bool has_dag_b = std::any_of(config_.ops.begin(), config_.ops.end(),
                                 [](const ModelOp& op) { return op.dag == 1; });
    if (has_dag_b) out.push_back({K::kAppSwitchDag, 0});
  }

  // CP-partial: crash a worker holding a message (crashing an idle worker
  // is a no-op under NIB-backed state, so only the interesting case is
  // explored).
  if (s.worker_crashes_used < config_.max_worker_crashes) {
    for (int w = 0; w < config_.num_workers; ++w) {
      if (s.worker_msg[w] != kNoOp && s.op_queue_len < kQueueCap) {
        out.push_back({K::kWorkerCrash, static_cast<std::uint8_t>(w)});
      }
    }
  }

  // Failure injection (unfair processes: exploring them is optional).
  for (int sw = 0; sw < config_.num_switches; ++sw) {
    if (s.sw_up[sw] && s.failures_used < config_.max_switch_failures &&
        (config_.failing_switch < 0 || config_.failing_switch == sw) &&
        s.topo_queue_len < kQueueCap) {
      out.push_back({K::kSwitchFail, static_cast<std::uint8_t>(sw)});
    }
    if (!s.sw_up[sw] && config_.allow_recovery &&
        s.topo_queue_len < kQueueCap) {
      out.push_back({K::kSwitchRecover, static_cast<std::uint8_t>(sw)});
    }
  }
  return out;
}

bool PipelineModel::action_is_local(const Action& a) const {
  // Local (invisible) actions touch only one component's private state and
  // commute with everything else: worker phase transitions and ACK
  // emission. Scheduling, switch processing, NIB writes and failures are
  // globally visible.
  using K = Action::Kind;
  return a.kind == K::kWorkerRecord || a.kind == K::kSwitchEmitAck;
}

std::vector<Action> PipelineModel::enabled_actions(const State& s) const {
  std::vector<Action> actions = raw_enabled(s);
  if (config_.opt_por) {
    // Ample set of size one: when an invisible action is enabled, explore
    // only the first (they commute; any order reaches the same states).
    for (const Action& a : actions) {
      if (action_is_local(a)) return {a};
    }
  }
  return actions;
}

std::string PipelineModel::deliver_to_switch(State& s, int sw,
                                             Msg msg) const {
  if (!queue_push(s.sw_inq[sw].data(), s.sw_inq_len[sw], msg)) {
    return "";  // bounded-queue back-pressure: drop silently would be wrong;
                // caller guards on capacity
  }
  return "";
}

std::string PipelineModel::apply_on_switch(State& s, int sw,
                                           Msg msg) const {
  if (is_clear_msg(msg)) {
    s.sw_table[sw] = 0;
    return "";
  }
  if (is_batch_msg(msg)) {
    // A batch is applied OP by OP in ascending index order — the coalescing
    // scan order. DAG predecessors are never co-batched with successors
    // (readiness requires the predecessor already DONE), so intra-batch
    // order cannot violate ①.
    std::uint16_t mask = batch_mask_of(msg);
    for (int op = 0; op < static_cast<int>(config_.ops.size()); ++op) {
      if (!(mask & (1u << op))) continue;
      std::string violation = apply_on_switch(s, sw, static_cast<Msg>(op));
      if (!violation.empty()) return violation;
    }
    return "";
  }
  const ModelOp& op = config_.ops[msg];
  if (op.is_delete) {
    s.sw_table[sw] &= static_cast<std::uint16_t>(~(1u << op.delete_target));
    return "";
  }
  // Safety ① (CorrectDAGOrder): every predecessor must have been installed
  // at least once before this OP's first install.
  if (!(s.installed_once & (1u << msg))) {
    for (std::uint8_t p : op.preds) {
      if (config_.ops[p].is_delete) continue;
      if (!(s.installed_once & (1u << p))) {
        return "CorrectDAGOrder violated: op" + std::to_string(msg) +
               " installed before op" + std::to_string(p);
      }
    }
  } else if (s.sw_table[sw] & (1u << msg)) {
    // §B: unnecessary duplicate install — the OP is already present.
    return "§B violated: duplicate install of op" + std::to_string(msg) +
           " already present on sw" + std::to_string(sw);
  }
  s.sw_table[sw] |= static_cast<std::uint16_t>(1u << msg);
  s.installed_once |= static_cast<std::uint16_t>(1u << msg);
  return "";
}

void PipelineModel::enqueue_ack(State& s, int sw, Msg msg) const {
  if (config_.opt_compositional) {
    queue_push(s.ack_queue.data(), s.ack_queue_len, msg);
  } else {
    queue_push(s.sw_outq[sw].data(), s.sw_outq_len[sw], msg);
  }
}

void PipelineModel::process_ack(State& s, Msg msg) const {
  if (is_clear_msg(msg)) {
    int sw = clear_switch_of(msg);
    s.nib_view[sw] = 0;
    queue_push(s.cleanup_queue.data(), s.cleanup_queue_len,
               static_cast<std::uint8_t>(sw));
    return;
  }
  if (is_batch_msg(msg)) {
    // Batch-ACK commit: ONE transition commits every OP of the batch — the
    // implementation's Nib::commit_ack_batch single transaction.
    std::uint16_t mask = batch_mask_of(msg);
    for (int op = 0; op < static_cast<int>(config_.ops.size()); ++op) {
      if (mask & (1u << op)) process_ack(s, static_cast<Msg>(op));
    }
    return;
  }
  const ModelOp& op = config_.ops[msg];
  s.op_status[msg] = static_cast<std::uint8_t>(MOpStatus::kDone);
  if (op.is_delete) {
    s.nib_view[op.sw] &= static_cast<std::uint16_t>(~(1u << op.delete_target));
  } else {
    s.nib_view[op.sw] |= static_cast<std::uint16_t>(1u << msg);
  }
}

void PipelineModel::reset_switch_ops(State& s, int sw) const {
  for (int op = 0; op < static_cast<int>(config_.ops.size()); ++op) {
    if (config_.ops[op].sw != sw) continue;
    auto status = static_cast<MOpStatus>(s.op_status[op]);
    if (status == MOpStatus::kSent || status == MOpStatus::kDone ||
        status == MOpStatus::kFailedSw) {
      s.op_status[op] = static_cast<std::uint8_t>(MOpStatus::kNone);
    }
  }
  s.nib_view[sw] = 0;
}

std::string PipelineModel::apply(State& s, const Action& a) const {
  using K = Action::Kind;
  switch (a.kind) {
    case K::kSeqSchedule: {
      s.op_status[a.subject] =
          static_cast<std::uint8_t>(MOpStatus::kScheduled);
      queue_push(s.op_queue.data(), s.op_queue_len,
                 static_cast<Msg>(a.subject));
      return "";
    }
    case K::kSeqBatchPass: {
      // One atomic coalescing pass, mirroring Sequencer::schedule_ready_ops:
      // scan OPs in index order, mark each ready OP SCHEDULED at scan time,
      // coalesce per switch (first-appearance flush order), flush inline
      // when a chunk reaches batch_size, then flush the remainders at scan
      // end. Singleton chunks travel as the classic per-OP message (the
      // implementation forwards those through the non-batch path).
      std::array<std::uint16_t, kMaxSwitches> pending{};
      std::array<std::uint8_t, kMaxSwitches> pending_count{};
      std::array<std::uint8_t, kMaxSwitches> flush_order{};
      std::uint8_t flush_order_len = 0;
      bool aborted = false;
      auto flush = [&](int sw) {
        if (pending_count[sw] == 0 || aborted) return;
        Msg msg = pending_count[sw] == 1
                      ? static_cast<Msg>(
                            std::countr_zero<std::uint16_t>(pending[sw]))
                      : make_batch_msg(sw, pending[sw]);
        if (!queue_push(s.op_queue.data(), s.op_queue_len, msg)) {
          // Bounded-queue back-pressure: unmark this chunk and stop the
          // pass; the action stays enabled and re-runs once space frees up.
          for (int op = 0; op < static_cast<int>(config_.ops.size()); ++op) {
            if (pending[sw] & (1u << op)) {
              s.op_status[op] = static_cast<std::uint8_t>(MOpStatus::kNone);
            }
          }
          aborted = true;
        }
        pending[sw] = 0;
        pending_count[sw] = 0;
      };
      for (int op = 0;
           op < static_cast<int>(config_.ops.size()) && !aborted; ++op) {
        if (!op_schedulable(s, op)) continue;
        int sw = config_.ops[op].sw;
        s.op_status[op] = static_cast<std::uint8_t>(MOpStatus::kScheduled);
        if (pending_count[sw] == 0) {
          flush_order[flush_order_len++] = static_cast<std::uint8_t>(sw);
        }
        pending[sw] |= static_cast<std::uint16_t>(1u << op);
        ++pending_count[sw];
        if (pending_count[sw] >= config_.batch_size) flush(sw);
      }
      for (int i = 0; i < flush_order_len && !aborted; ++i) {
        flush(flush_order[i]);
      }
      if (aborted) {
        // Unmark any chunks left un-flushed when the queue filled up.
        for (int sw = 0; sw < config_.num_switches; ++sw) {
          for (int op = 0; op < static_cast<int>(config_.ops.size()); ++op) {
            if (pending[sw] & (1u << op)) {
              s.op_status[op] = static_cast<std::uint8_t>(MOpStatus::kNone);
            }
          }
        }
      }
      return "";
    }
    case K::kWorkerTake: {
      int w = a.subject;
      Msg msg = queue_pop(s.op_queue.data(), s.op_queue_len);
      if (!config_.opt_por) {
        s.worker_msg[w] = msg;
        s.worker_phase[w] = 0;
        return "";
      }
      // POR macro-step: take + record + act as one atomic transition (the
      // merged steps commute with every other component).
      if (is_clear_msg(msg)) {
        return deliver_to_switch(s, clear_switch_of(msg), msg);
      }
      int sw = msg_switch(msg);
      if (static_cast<MHealth>(s.nib_health[sw]) != MHealth::kUp) {
        // UpdateNIBFail: the whole message (an OP, or every OP of a batch)
        // is marked FAILED_SWITCH and dropped.
        if (is_batch_msg(msg)) {
          mark_batch_status(s, msg, MOpStatus::kFailedSw);
        } else {
          s.op_status[msg] =
              static_cast<std::uint8_t>(MOpStatus::kFailedSw);
        }
        return "";
      }
      if (is_batch_msg(msg)) {
        mark_batch_status(s, msg, MOpStatus::kSent);
      } else {
        s.op_status[msg] = static_cast<std::uint8_t>(MOpStatus::kSent);
      }
      return deliver_to_switch(s, sw, msg);
    }
    case K::kWorkerRecord: {
      int w = a.subject;
      Msg msg = s.worker_msg[w];
      if (is_clear_msg(msg)) {
        s.worker_phase[w] = 1;  // CLEAR is health-exempt (P7 exception)
        return "";
      }
      int sw = msg_switch(msg);
      if (static_cast<MHealth>(s.nib_health[sw]) != MHealth::kUp) {
        if (is_batch_msg(msg)) {
          mark_batch_status(s, msg, MOpStatus::kFailedSw);
        } else {
          s.op_status[msg] = static_cast<std::uint8_t>(MOpStatus::kFailedSw);
        }
        s.worker_msg[w] = kNoOp;  // UpdateNIBFail, done with this message
        return "";
      }
      if (!config_.bugs.send_before_record) {
        if (is_batch_msg(msg)) {
          mark_batch_status(s, msg, MOpStatus::kSent);
        } else {
          s.op_status[msg] = static_cast<std::uint8_t>(MOpStatus::kSent);
        }
      }
      s.worker_phase[w] = 1;
      return "";
    }
    case K::kWorkerAct: {
      int w = a.subject;
      Msg msg = s.worker_msg[w];
      s.worker_msg[w] = kNoOp;
      s.worker_phase[w] = 0;
      if (is_clear_msg(msg)) {
        return deliver_to_switch(s, clear_switch_of(msg), msg);
      }
      if (config_.bugs.send_before_record) {
        // Listing 1 ordering: the NIB learns "sent" only now.
        if (is_batch_msg(msg)) {
          mark_batch_status(s, msg, MOpStatus::kSent);
        } else {
          s.op_status[msg] = static_cast<std::uint8_t>(MOpStatus::kSent);
        }
      }
      return deliver_to_switch(s, msg_switch(msg), msg);
    }
    case K::kSwitchProcess: {
      int sw = a.subject;
      Msg msg = queue_pop(s.sw_inq[sw].data(), s.sw_inq_len[sw]);
      std::string violation = apply_on_switch(s, sw, msg);
      if (!violation.empty()) return violation;
      // A batch is acknowledged as ONE batch-ACK (kBatchAck), not per OP.
      enqueue_ack(s, sw, msg);
      return "";
    }
    case K::kSwitchEmitAck: {
      int sw = a.subject;
      Msg msg = queue_pop(s.sw_outq[sw].data(), s.sw_outq_len[sw]);
      queue_push(s.ack_queue.data(), s.ack_queue_len, msg);
      return "";
    }
    case K::kMonitoring: {
      Msg msg = queue_pop(s.ack_queue.data(), s.ack_queue_len);
      process_ack(s, msg);
      return "";
    }
    case K::kTopoEvent: {
      std::uint8_t event = queue_pop(s.topo_queue.data(), s.topo_queue_len);
      int sw = event & 0x0f;
      bool up = (event & 0x10) != 0;
      if (!up) {
        s.nib_health[sw] = static_cast<std::uint8_t>(MHealth::kDown);
        return "";
      }
      if (static_cast<MHealth>(s.nib_health[sw]) == MHealth::kUp) return "";
      // kDown: begin recovery. kRecovering: the previous CLEAR may have
      // died with a repeated failure — re-issue (duplicates are absorbed by
      // the stale-ACK guard in kCleanupAck).
      if (config_.bugs.skip_recovery_cleanup) {
        s.nib_health[sw] = static_cast<std::uint8_t>(MHealth::kUp);
        return "";
      }
      s.nib_health[sw] = static_cast<std::uint8_t>(MHealth::kRecovering);
      Msg clear = static_cast<Msg>(kClearBase + sw);
      if (config_.bugs.direct_clear_tcam) {
        return deliver_to_switch(s, sw, clear);  // bypasses the Worker Pool
      }
      queue_push(s.op_queue.data(), s.op_queue_len, clear);
      return "";
    }
    case K::kCleanupAck: {
      int sw = queue_pop(s.cleanup_queue.data(), s.cleanup_queue_len);
      if (static_cast<MHealth>(s.nib_health[sw]) != MHealth::kRecovering) {
        return "";  // stale
      }
      if (config_.bugs.mark_up_before_reset) {
        s.nib_health[sw] = static_cast<std::uint8_t>(MHealth::kUp);
        s.pending_reset |= static_cast<std::uint8_t>(1u << sw);
        return "";
      }
      reset_switch_ops(s, sw);
      s.nib_health[sw] = static_cast<std::uint8_t>(MHealth::kUp);
      return "";
    }
    case K::kDeferredReset: {
      int sw = a.subject;
      s.pending_reset &= static_cast<std::uint8_t>(~(1u << sw));
      reset_switch_ops(s, sw);
      return "";
    }
    case K::kSwitchFail: {
      int sw = a.subject;
      s.sw_up[sw] = 0;
      ++s.failures_used;
      if (config_.complete_failure) {
        s.sw_table[sw] = 0;
        s.sw_inq_len[sw] = 0;
        s.sw_outq_len[sw] = 0;
      } else {
        s.sw_inq_len[sw] = 0;  // partial: TCAM kept, requests lost
      }
      queue_push(s.topo_queue.data(), s.topo_queue_len,
                 static_cast<std::uint8_t>(sw));
      return "";
    }
    case K::kSwitchRecover: {
      int sw = a.subject;
      s.sw_up[sw] = 1;
      queue_push(s.topo_queue.data(), s.topo_queue_len,
                 static_cast<std::uint8_t>(sw | 0x10));
      return "";
    }
    case K::kWorkerCrash: {
      int w = a.subject;
      Msg msg = s.worker_msg[w];
      s.worker_msg[w] = kNoOp;
      s.worker_phase[w] = 0;
      ++s.worker_crashes_used;
      if (!config_.bugs.pop_before_process && msg != kNoOp) {
        // Crash-safe discipline (AckQueueRead/AckQueuePop): the item was
        // never acknowledged off the queue, so the restarted worker (or a
        // sibling) re-reads it. Modeled as a front re-insert. A held BATCH
        // re-enqueues whole — exactly-once for every OP in it.
        for (int i = s.op_queue_len; i > 0; --i) {
          s.op_queue[i] = s.op_queue[i - 1];
        }
        s.op_queue[0] = msg;
        ++s.op_queue_len;
      }
      // With the pop-before-process bug the in-progress item dies with the
      // worker's locals — the §3.9 "event processing" error. At batch_size
      // > 1 the whole held batch is lost.
      return "";
    }
    case K::kAppSwitchDag: {
      s.current_dag = 1;
      s.app_switched = 1;
      return "";
    }
  }
  return "";
}

bool PipelineModel::quiescent(const State& s) const {
  for (const Action& a : raw_enabled(s)) {
    if (!a.is_failure()) return false;
  }
  return true;
}

std::string PipelineModel::check_quiescent_consistency(const State& s) const {
  // ③ CorrectRoutingState: the controller's view matches every healthy
  // switch.
  for (int sw = 0; sw < config_.num_switches; ++sw) {
    if (!s.sw_up[sw]) continue;
    if (s.nib_view[sw] != s.sw_table[sw]) {
      std::ostringstream out;
      out << "CorrectRoutingState violated on sw" << sw << ": view="
          << s.nib_view[sw] << " table=" << s.sw_table[sw];
      return out.str();
    }
  }
  // An OP is "blocked" when it, or any transitive predecessor, targets a
  // switch that is dead (or not UP in the NIB). Such OPs are excused from
  // condition ②: the DAG cannot finish and "the applications must change
  // the DAG" (§F Remark) — not a controller fault.
  auto healthy = [&](int sw) {
    return s.sw_up[sw] &&
           static_cast<MHealth>(s.nib_health[sw]) == MHealth::kUp;
  };
  std::array<int, kMaxOps> blocked_memo;
  blocked_memo.fill(-1);
  auto blocked = [&](auto&& self, int op) -> bool {
    if (blocked_memo[op] >= 0) return blocked_memo[op] != 0;
    blocked_memo[op] = 0;  // break (impossible) cycles conservatively
    bool result = !healthy(config_.ops[op].sw);
    if (!result) {
      for (std::uint8_t p : config_.ops[op].preds) {
        if (self(self, p)) {
          result = true;
          break;
        }
      }
    }
    blocked_memo[op] = result ? 1 : 0;
    return result;
  };
  // ② CorrectDAGInstalled for the current DAG.
  for (int op = 0; op < static_cast<int>(config_.ops.size()); ++op) {
    if (!op_in_current_dag(s, op)) continue;
    const ModelOp& model_op = config_.ops[op];
    if (blocked(blocked, op)) continue;
    if (model_op.is_delete) {
      if (s.sw_table[model_op.sw] & (1u << model_op.delete_target)) {
        return "CorrectDAGInstalled violated: delete op" +
               std::to_string(op) + " not effective at quiescence";
      }
    } else if (!(s.sw_table[model_op.sw] & (1u << op))) {
      return "CorrectDAGInstalled violated: op" + std::to_string(op) +
             " never installed at quiescence";
    }
  }
  return "";
}

}  // namespace zenith::mc
