#include "core/commit_pump.h"

#include <string>

#include "obs/obs.h"

namespace zenith {

CommitPump::CommitPump(CoreContext* ctx)
    : Component(ctx->sim, "commit_pump", ctx->config.monitoring_service),
      ctx_(ctx) {
  for (const auto& queue : ctx_->commit_queues) {
    queue->set_wake_callback([this] { kick(); });
  }
}

bool CommitPump::try_step() {
  bool any = false;
  for (const auto& queue : ctx_->commit_queues) any = any || !queue->empty();
  if (!any) return false;

  for (const auto& queue : ctx_->commit_queues) {
    while (!queue->empty()) {
      apply(queue->peek());
      queue->ack_pop();
    }
  }
  return true;
}

void CommitPump::apply(const CommitJob& job) {
  Nib& nib = *ctx_->nib;
  std::size_t stale = 0;
  fresh_.clear();
  for (const Op& op : job.ops) {
    // Same freshness rule as the replicated log's apply path: an ACK can
    // outlive its OP's SENT state (takeover requeue, recovery reset); only
    // OPs still SENT commit, the level-triggered pipeline re-drives the rest.
    if (nib.has_op(op.id) && nib.op_status(op.id) == OpStatus::kSent) {
      fresh_.push_back(op);
    } else {
      ++stale;
    }
  }
  const std::size_t committed = nib.commit_ack_batch(job.sw, fresh_);

  obs::Observability* o = ctx_->observability;
  if (o == nullptr) return;
  for (std::size_t i = 0; i < stale; ++i) o->count("commit_stale_ops");
  for (const Op& op : fresh_) {
    o->op_stage(op.id, name(), "op-ack",
                "sw=" + std::to_string(job.sw.value()));
    o->op_closed(op.id, name(), "done");
  }
  if (committed > 0) o->batch_committed(job.sw, committed);
}

}  // namespace zenith
