#include "core/topo_event_handler.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "obs/obs.h"

namespace zenith {

TopoEventHandler::TopoEventHandler(CoreContext* ctx)
    : Component(ctx->sim, "topo_handler", ctx->config.topo_handler_service),
      ctx_(ctx) {
  ctx_->topo_event_queue.set_wake_callback([this] { kick(); });
  ctx_->cleanup_reply_queue.set_wake_callback([this] { kick(); });
}

bool TopoEventHandler::try_step() {
  if (process_health_event()) return true;
  if (process_cleanup_reply()) return true;
  return process_deferred_reset();
}

bool TopoEventHandler::process_health_event() {
  NadirFifo<SwitchHealthEvent>& queue = ctx_->topo_event_queue;
  if (queue.empty()) return false;
  SwitchHealthEvent event = queue.peek();
  if (event.type == SwitchHealthEvent::Type::kFailure) {
    handle_failure(event.sw);
  } else {
    handle_recovery(event.sw);
  }
  queue.ack_pop();
  return true;
}

void TopoEventHandler::handle_failure(SwitchId sw) {
  Nib& nib = *ctx_->nib;
  if (nib.switch_health(sw) == SwitchHealth::kDown) return;  // duplicate
  // P8(1): record the failure immediately. P7: do NOT touch the states of
  // affected OPs — at this point the controller cannot know which in-flight
  // OPs made it, and guessing is the §3.9 "ambiguous state machine" bug.
  nib.set_switch_health(sw, SwitchHealth::kDown);
  if (ctx_->observability != nullptr) {
    ctx_->observability->event(name(), "switch-down",
                               "sw=" + std::to_string(sw.value()));
  }
  ZLOG_DEBUG("sw%u marked DOWN", sw.value());
}

void TopoEventHandler::handle_recovery(SwitchId sw) {
  Nib& nib = *ctx_->nib;
  if (nib.switch_health(sw) != SwitchHealth::kDown) return;  // duplicate/spurious

  if (ctx_->observability != nullptr) ctx_->observability->recovery_started(sw);

  if (ctx_->config.bugs.skip_recovery_cleanup) {
    // PR-style optimistic recovery: believe the NIB, skip cleanup. Any
    // state the switch lost (or hidden state it kept) is now inconsistent
    // until some reconciliation pass notices.
    nib.set_switch_health(sw, SwitchHealth::kUp);
    if (ctx_->observability != nullptr) {
      ctx_->observability->recovery_finished(sw, "optimistic");
    }
    return;
  }

  nib.set_switch_health(sw, SwitchHealth::kRecovering);
  issue_cleanup(sw);
}

void TopoEventHandler::issue_cleanup(SwitchId sw) {
  Nib& nib = *ctx_->nib;
  Op cleanup;
  cleanup.id = ctx_->op_ids->next();
  cleanup.sw = sw;
  cleanup.type = ctx_->config.directed_reconciliation ? OpType::kDumpTable
                                                      : OpType::kClearTcam;
  nib.put_op(cleanup);
  nib.set_op_status(cleanup.id, OpStatus::kScheduled);
  if (ctx_->observability != nullptr) {
    // Cleanup OPs have no DAG; their lifecycle span hangs off the recovery.
    ctx_->observability->op_scheduled(cleanup.id, DagId::invalid(), sw,
                                      name());
  }

  if (ctx_->config.bugs.direct_clear_tcam) {
    // Bug: bypass the Worker Pool. The CLEAR races any OP the pool already
    // queued for this switch (violates P6's reliance on P4 ordering).
    SwitchRequest request;
    request.op = cleanup;
    request.xid = cleanup.id.value();
    request.type = cleanup.type == OpType::kClearTcam
                       ? SwitchRequest::Type::kClearTcam
                       : SwitchRequest::Type::kDumpTable;
    nib.set_op_status(cleanup.id, OpStatus::kSent);
    if (ctx_->observability != nullptr) {
      ctx_->observability->op_stage(cleanup.id, name(), "op-send",
                                    "direct=1 sw=" +
                                        std::to_string(sw.value()));
    }
    ctx_->transport->send(sw, request);
    return;
  }
  // Figure A.5 step 3: the cleanup request goes onto the OP queue and
  // traverses the Worker Pool like any other OP.
  ctx_->enqueue_op(sw, cleanup.id);
}

bool TopoEventHandler::newer_cleanup_pending(SwitchId sw, OpId acked) const {
  Nib& nib = *ctx_->nib;
  for (OpId id : nib.ops_on_switch(
           sw, {OpStatus::kScheduled, OpStatus::kInFlight, OpStatus::kSent})) {
    const Op& op = nib.op(id);
    if ((op.type == OpType::kClearTcam || op.type == OpType::kDumpTable) &&
        id > acked) {
      return true;
    }
  }
  return false;
}

bool TopoEventHandler::process_cleanup_reply() {
  NadirFifo<SwitchReply>& queue = ctx_->cleanup_reply_queue;
  if (queue.empty()) return false;
  SwitchReply reply = queue.peek();
  SwitchId sw = reply.sw;
  Nib& nib = *ctx_->nib;

  // Only finalize for the most recent cleanup: if the switch failed again
  // and a newer cleanup is outstanding, this ACK is stale.
  if (nib.switch_health(sw) == SwitchHealth::kRecovering &&
      !newer_cleanup_pending(sw, reply.op.id)) {
    if (reply.type == SwitchReply::Type::kDumpReply) {
      apply_directed_diff(reply);
      nib.set_op_status(reply.op.id, OpStatus::kDone);
      if (ctx_->observability != nullptr) {
        ctx_->observability->op_closed(reply.op.id, name(), "done");
      }
      nib.set_switch_health(sw, SwitchHealth::kUp);
      if (ctx_->observability != nullptr) {
        ctx_->observability->recovery_finished(sw, "directed-diff");
      }
    } else {
      finalize_recovery(sw);
    }
  }
  queue.ack_pop();
  return true;
}

void TopoEventHandler::finalize_recovery(SwitchId sw) {
  Nib& nib = *ctx_->nib;
  if (ctx_->config.bugs.mark_up_before_reset) {
    // Figure A.8 bug: the switch becomes schedulable *before* its OP states
    // are reset. The reset is a slow scan ("Topo Event Handler was
    // computing all the necessary changes") that lands much later, so a
    // freshly installed OP's DONE can be wiped — the NIB then claims the
    // rule is absent while the switch has it: a hidden entry.
    nib.set_switch_health(sw, SwitchHealth::kUp);
    if (ctx_->observability != nullptr) {
      ctx_->observability->recovery_finished(sw, "up-before-reset");
    }
    SimTime due = sim()->now() + ctx_->config.bugs.deferred_reset_delay;
    deferred_resets_.emplace_back(sw, due);
    sim()->schedule_at(due, [this] { kick(); });
    return;
  }
  // Correct order (§G fix): first reset OP states, then mark UP.
  reset_switch_ops(sw);
  nib.set_switch_health(sw, SwitchHealth::kUp);
  if (ctx_->observability != nullptr) {
    ctx_->observability->recovery_finished(sw, "reset-then-up");
  }
  ZLOG_DEBUG("sw%u recovery finalized", sw.value());
}

bool TopoEventHandler::process_deferred_reset() {
  for (std::size_t i = 0; i < deferred_resets_.size(); ++i) {
    auto [sw, due] = deferred_resets_[i];
    if (sim()->now() < due) continue;
    deferred_resets_.erase(deferred_resets_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    reset_switch_ops(sw);
    return true;
  }
  return false;
}

void TopoEventHandler::reset_switch_ops(SwitchId sw) {
  Nib& nib = *ctx_->nib;
  // The TCAM is empty (CLEAR ACKed). Everything the controller believed
  // about this switch is void: Sent/InFlight OPs died with the failure,
  // DONE OPs were wiped, FailedSwitch OPs may now be retried. OPs still in
  // the SCHEDULED state stay — they sit behind the CLEAR in the worker
  // queue and will be (re)delivered to the now-empty switch.
  for (OpId id : nib.ops_on_switch(sw, {OpStatus::kInFlight, OpStatus::kSent,
                                        OpStatus::kDone,
                                        OpStatus::kFailedSwitch})) {
    const Op& op = nib.op(id);
    if (op.type == OpType::kClearTcam || op.type == OpType::kDumpTable) {
      continue;  // cleanup OPs keep their history
    }
    nib.set_op_status(id, OpStatus::kNone);
    if (ctx_->observability != nullptr) {
      // Still-open spans (e.g. SENT ops that died with the switch) end here;
      // the sequencer's rescan opens a fresh span when it re-schedules.
      ctx_->observability->op_closed(id, name(), "reset");
    }
  }
  nib.view_clear_switch(sw);
}

void TopoEventHandler::apply_directed_diff(const SwitchReply& dump) {
  // ZENITH-DR: reconcile exactly one switch from its dumped table.
  Nib& nib = *ctx_->nib;
  SwitchId sw = dump.sw;
  std::vector<OpId> dumped;
  dumped.reserve(dump.table.size());
  for (const DumpedEntry& e : dump.table) dumped.push_back(e.installed_by);
  std::sort(dumped.begin(), dumped.end());
  auto present = [&](OpId id) {
    return std::binary_search(dumped.begin(), dumped.end(), id);
  };

  // (a) Entries the switch kept: adopt ones the NIB knows (ACK may have been
  //     lost), delete alien/stale ones through the normal pipeline.
  for (OpId id : dumped) {
    if (nib.has_op(id)) {
      OpStatus status = nib.op_status(id);
      if (status != OpStatus::kDone) {
        nib.set_op_status(id, OpStatus::kDone);
        if (ctx_->observability != nullptr) {
          // The dump proves the install landed even though the ACK was lost.
          ctx_->observability->op_closed(id, name(), "adopted");
        }
      }
      nib.view_add_installed(sw, id);
    } else {
      // Rule installed by nobody we know (e.g. a previous controller
      // incarnation): remove it.
      Op del;
      del.id = ctx_->op_ids->next();
      del.type = OpType::kDeleteRule;
      del.sw = sw;
      del.delete_target = id;
      nib.put_op(del);
      nib.set_op_status(del.id, OpStatus::kScheduled);
      if (ctx_->observability != nullptr) {
        ctx_->observability->op_scheduled(del.id, DagId::invalid(), sw,
                                          name());
      }
      ctx_->enqueue_op(sw, del.id);
    }
  }
  // (b) OPs the NIB believed present/in-flight that the dump disproves.
  for (OpId id : nib.ops_on_switch(sw, {OpStatus::kInFlight, OpStatus::kSent,
                                        OpStatus::kDone,
                                        OpStatus::kFailedSwitch})) {
    const Op& op = nib.op(id);
    if (op.type != OpType::kInstallRule) {
      if (op.type == OpType::kDeleteRule &&
          nib.op_status(id) != OpStatus::kDone) {
        // A lost delete: its target either vanished with the failure or is
        // in the dump; either way re-evaluate from scratch.
        nib.set_op_status(id, present(op.delete_target) ? OpStatus::kNone
                                                        : OpStatus::kDone);
      }
      continue;
    }
    if (!present(id)) {
      nib.set_op_status(id, OpStatus::kNone);
      nib.view_remove_installed(sw, id);
      if (ctx_->observability != nullptr) {
        ctx_->observability->op_closed(id, name(), "reset");
      }
    }
  }
}

void TopoEventHandler::on_crash() { deferred_resets_.clear(); }

void TopoEventHandler::on_restart() {
  // Re-derive recovery progress from the NIB: for every switch stuck in
  // RECOVERING, either a cleanup OP is still outstanding (nothing to do —
  // its ACK will arrive), its ACK was consumed by the monitoring server but
  // our volatile cleanup queue died with us (finalize now), or the cleanup
  // itself was lost (re-issue).
  Nib& nib = *ctx_->nib;
  for (SwitchId sw : nib.switches()) {
    if (nib.switch_health(sw) != SwitchHealth::kRecovering) continue;
    bool outstanding = false;
    bool completed = false;
    for (OpId id : nib.ops_on_switch(
             sw, {OpStatus::kScheduled, OpStatus::kInFlight, OpStatus::kSent,
                  OpStatus::kDone})) {
      const Op& op = nib.op(id);
      if (op.type != OpType::kClearTcam && op.type != OpType::kDumpTable) {
        continue;
      }
      if (nib.op_status(id) == OpStatus::kDone) {
        completed = true;
      } else {
        outstanding = true;
      }
    }
    if (outstanding) continue;
    if (completed && !ctx_->config.directed_reconciliation) {
      finalize_recovery(sw);
    } else {
      // DR dumps are request/response; a consumed dump without finalize
      // must be re-read. NR with no cleanup ever issued: issue one.
      issue_cleanup(sw);
    }
  }
}

}  // namespace zenith
