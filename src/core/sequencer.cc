#include "core/sequencer.h"

#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "obs/obs.h"

namespace zenith {

Sequencer::Sequencer(CoreContext* ctx, std::size_t index)
    : Component(ctx->sim, "sequencer" + std::to_string(index),
                ctx->config.sequencer_service),
      ctx_(ctx),
      index_(index) {
  ctx_->sequencer_wakeups.at(index)->set_wake_callback([this] { kick(); });
}

bool Sequencer::owns_current_dag() const {
  auto current = ctx_->nib->current_dag();
  return current.has_value() && ctx_->sequencer_of(*current) == index_;
}

bool Sequencer::try_step() {
  // Transport backpressure, one stage upstream of the workers: while the
  // socket sender sits above its high watermark there is no point coalescing
  // new dispatch waves — they would only deepen the stalled queues. State is
  // all in the NIB (OPs stay kNone), so resuming is a plain rescan when the
  // transport's drain callback kicks us. Never taken on the sim bus.
  if (!ctx_->transport->writable()) return false;
  // Drain wake hints; all truth lives in the NIB.
  NadirFifo<NibEvent>& wakeups = *ctx_->sequencer_wakeups.at(index_);
  bool had_events = !wakeups.empty();
  while (!wakeups.empty()) wakeups.pop();

  if (!owns_current_dag()) return had_events;
  Nib& nib = *ctx_->nib;
  const Dag& dag = nib.dag(*nib.current_dag());

  std::size_t scheduled = schedule_ready_ops(dag);

  if (dag_complete(dag) && !nib.dag_is_done(dag.id())) {
    // The controller certifies in the NIB that the data plane converged to
    // this DAG (§6 "Metrics" — this is the convergence endpoint).
    nib.mark_dag_done(dag.id());
    nib.publish_dag_done(dag.id());
    if (ctx_->observability != nullptr) {
      ctx_->observability->dag_certified(dag.id());
    }
    ZLOG_DEBUG("dag%u certified done", dag.id().value());
    return true;
  }
  return had_events || scheduled > 0;
}

std::size_t Sequencer::schedule_ready_ops(const Dag& dag) {
  Nib& nib = *ctx_->nib;
  const std::size_t batch_size =
      ctx_->config.batch_size == 0 ? 1 : ctx_->config.batch_size;
  std::size_t scheduled = 0;
  // Per-switch pending batch of this scan, flushed when full and again at
  // scan end in first-seen switch order. At batch_size=1 every OP flushes
  // inline at the point the unbatched code pushed it, so the queue contents
  // (as a flat OP sequence) are byte-identical to the pre-batching pipeline
  // and the scan-end sweep never finds leftovers.
  std::unordered_map<std::uint32_t, OpBatch> pending;
  std::vector<std::uint32_t> flush_order;
  auto flush = [this](OpBatch& b) {
    if (b.ops.empty()) return;
    SwitchId sw = b.sw;
    ctx_->op_queue_for(sw).push(OpBatch{sw, std::move(b.ops)});
    b.ops.clear();
  };
  for (OpId id : dag.op_ids()) {
    if (nib.op_status(id) != OpStatus::kNone) continue;
    bool ready = true;
    for (OpId pred : dag.predecessors(id)) {
      if (nib.op_status(pred) != OpStatus::kDone) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;
    const Op& op = nib.op(id);
    if (nib.switch_health(op.sw) != SwitchHealth::kUp) continue;  // P7 gate
    nib.set_op_status(id, OpStatus::kScheduled);
    if (ctx_->observability != nullptr) {
      ctx_->observability->op_scheduled(id, dag.id(), op.sw, name());
    }
    OpBatch& batch = pending[op.sw.value()];
    if (batch.ops.empty()) {
      batch.sw = op.sw;
      flush_order.push_back(op.sw.value());
      // Pooled id buffers (PR 8): acquire a recycled vector instead of
      // growing a fresh one; the worker releases it after dispatch.
      if (batch.ops.capacity() == 0) batch.ops = ctx_->batch_arena.acquire();
    }
    batch.ops.push_back(id);
    // A switch that refills after a flush lands in flush_order again; the
    // scan-end sweep tolerates that because flush() skips empty batches.
    if (batch.ops.size() >= batch_size) flush(batch);
    ++scheduled;
  }
  for (std::uint32_t sw : flush_order) flush(pending[sw]);
  return scheduled;
}

bool Sequencer::dag_complete(const Dag& dag) const {
  for (OpId id : dag.op_ids()) {
    if (ctx_->nib->op_status(id) != OpStatus::kDone) return false;
  }
  return true;
}

void Sequencer::on_restart() {
  // Nothing to rebuild: the rescan in try_step derives everything from the
  // NIB. (This is the paper's "state recording and crash recovery" fix —
  // the initial buggy design cached scheduling progress locally.)
}

}  // namespace zenith
