#include "core/monitoring_server.h"

#include "common/logging.h"
#include "obs/obs.h"

namespace zenith {

MonitoringServer::MonitoringServer(CoreContext* ctx)
    : Component(ctx->sim, "monitoring", ctx->config.monitoring_service),
      ctx_(ctx) {
  ctx_->transport->replies().set_wake_callback([this] { kick(); });
  ctx_->transport->health_events().set_wake_callback([this] { kick(); });
  ctx_->transport->link_events().set_wake_callback([this] { kick(); });
}

MonitoringServer::MonitoringServer(CoreContext* ctx, std::size_t shard)
    // Validation/forward half only: the NIB commit this step performed in
    // the classic shape is charged by the CommitPump per batched
    // transaction (see CoreConfig::monitoring_forward_service).
    : Component(ctx->sim, "monitoring" + std::to_string(shard),
                ctx->config.monitoring_forward_service),
      ctx_(ctx),
      shard_(shard) {
  // The Reply Router owns the transport wake callbacks; this instance wakes
  // on its demuxed per-shard queues.
  ctx_->shard_replies[shard]->set_wake_callback([this] { kick(); });
  ctx_->shard_health[shard]->set_wake_callback([this] { kick(); });
  ctx_->shard_links[shard]->set_wake_callback([this] { kick(); });
}

NadirFifo<SwitchReply>& MonitoringServer::reply_queue() {
  return shard_ == kUnsharded ? ctx_->transport->replies()
                              : *ctx_->shard_replies[shard_];
}

NadirFifo<SwitchHealthEvent>& MonitoringServer::health_queue() {
  return shard_ == kUnsharded ? ctx_->transport->health_events()
                              : *ctx_->shard_health[shard_];
}

NadirFifo<LinkHealthEvent>& MonitoringServer::link_queue() {
  return shard_ == kUnsharded ? ctx_->transport->link_events()
                              : *ctx_->shard_links[shard_];
}

bool MonitoringServer::try_step() {
  // Health events first: a failure notification should not queue behind a
  // burst of ACKs (the spec models them as separate processes).
  if (process_health_event()) return true;
  // Link/port transitions update the NIB's topology state directly (the
  // Topo Event Handler owns only switch-level health, whose transitions
  // gate OP scheduling).
  NadirFifo<LinkHealthEvent>& links = link_queue();
  if (!links.empty()) {
    LinkHealthEvent event = links.peek();
    ctx_->nib->set_link_up(event.link, event.up);
    links.ack_pop();
    return true;
  }
  return process_reply();
}

bool MonitoringServer::process_health_event() {
  NadirFifo<SwitchHealthEvent>& events = health_queue();
  if (events.empty()) return false;
  SwitchHealthEvent event = events.peek();
  // Forward to the Topo Event Handler's queue; it owns all health-state
  // transitions in the NIB (P8: a single writer for switch health).
  ctx_->topo_event_queue.push(event);
  events.ack_pop();
  return true;
}

bool MonitoringServer::process_reply() {
  NadirFifo<SwitchReply>& replies = reply_queue();
  if (replies.empty()) return false;
  SwitchReply reply = replies.peek();
  Nib& nib = *ctx_->nib;

  switch (reply.type) {
    case SwitchReply::Type::kAck: {
      const Op& op = reply.op;
      if (!nib.has_op(op.id)) {
        // ACK for an OP this controller incarnation never registered (e.g.
        // state installed by a previous master). Reconciliation owns such
        // entries; recording a status for them would fabricate intent.
        if (ctx_->observability != nullptr) {
          ctx_->observability->count("orphan_acks");
        }
        break;
      }
      if (ctx_->repl != nullptr && (op.type == OpType::kInstallRule ||
                                    op.type == OpType::kDeleteRule)) {
        // Replicated commit path: the ACK becomes a shard-log entry; the NIB
        // transaction (and the op-closed span) happens when the shard leader
        // applies the committed entry. ClearTcam/dump replies stay on the
        // direct path — they drive the recovery state machine, not R_c.
        ctx_->repl->submit_ack(reply.sw, {op});
        if (ctx_->observability != nullptr) {
          ctx_->observability->count("repl_log_submits");
        }
        break;
      }
      if (shard_ != kUnsharded && (op.type == OpType::kInstallRule ||
                                   op.type == OpType::kDeleteRule)) {
        // Sharded commit path: the NIB transaction (and the op-closed
        // observability) happens when the CommitPump applies the job.
        // ClearTcam/dump replies stay inline — they drive the recovery
        // state machine and are rare.
        ctx_->commit_queues[shard_]->push(CommitJob{reply.sw, {op}});
        break;
      }
      bool committed = false;
      switch (op.type) {
        case OpType::kInstallRule:
          // P3: always record the ACK.
          nib.set_op_status(op.id, OpStatus::kDone);
          nib.view_add_installed(reply.sw, op.id);
          committed = true;
          break;
        case OpType::kDeleteRule:
          nib.set_op_status(op.id, OpStatus::kDone);
          nib.view_remove_installed(reply.sw, op.delete_target);
          committed = true;
          break;
        case OpType::kClearTcam:
          nib.set_op_status(op.id, OpStatus::kDone);
          nib.view_clear_switch(reply.sw);
          committed = true;
          // The Topo Event Handler finalizes the recovery (reset OPs, mark
          // UP) — Figure A.5 steps 6-8.
          ctx_->cleanup_reply_queue.push(reply);
          break;
        case OpType::kDumpTable:
          break;  // dumps arrive as kDumpReply, not kAck
      }
      if (committed && ctx_->observability != nullptr) {
        // ACK observed and NIB commit recorded: this closes the OP's causal
        // lifecycle span opened at scheduling time.
        ctx_->observability->op_stage(
            op.id, name(), "op-ack", "sw=" + std::to_string(reply.sw.value()));
        ctx_->observability->op_closed(op.id, name(), "done");
        ctx_->observability->batch_committed(reply.sw, 1);
      }
      break;
    }
    case SwitchReply::Type::kBatchAck: {
      // One reply closes a whole dispatch batch: the per-reply service step
      // is amortized over batch.size() OPs, and the NIB commits them as a
      // single transaction. This amortization is the batching throughput
      // win bench_soak measures.
      std::vector<Op> known;
      known.reserve(reply.batch.size());
      for (const Op& op : reply.batch) {
        if (nib.has_op(op.id)) {
          known.push_back(op);
        } else if (ctx_->observability != nullptr) {
          // Same orphan rule as kAck: reconciliation owns entries a previous
          // master installed.
          ctx_->observability->count("orphan_acks");
        }
      }
      if (ctx_->repl != nullptr) {
        // Same routing as the singleton kAck: the whole batch becomes one
        // log entry, committed as one NIB transaction at log-apply time.
        if (!known.empty()) ctx_->repl->submit_ack(reply.sw, known);
        if (ctx_->observability != nullptr) {
          ctx_->observability->count("repl_log_submits");
        }
        break;
      }
      if (shard_ != kUnsharded) {
        if (!known.empty()) {
          ctx_->commit_queues[shard_]->push(CommitJob{reply.sw, std::move(known)});
        }
        break;
      }
      nib.commit_ack_batch(reply.sw, known);
      if (ctx_->observability != nullptr) {
        for (const Op& op : known) {
          ctx_->observability->op_stage(
              op.id, name(), "op-ack",
              "sw=" + std::to_string(reply.sw.value()));
          ctx_->observability->op_closed(op.id, name(), "done");
        }
        // Report what was COMMITTED, not the wire size: orphan entries were
        // filtered out above (counted as orphan_acks), and an all-orphan
        // batch commits nothing — matching the kAck path, which reports
        // batch_committed(sw, 1) only when the single OP actually commits.
        if (!known.empty()) {
          ctx_->observability->batch_committed(reply.sw, known.size());
        }
      }
      break;
    }
    case SwitchReply::Type::kDumpReply:
      if (reply.xid & kReconciliationXidFlag) {
        // Periodic-reconciliation dump (PR baseline).
        ctx_->reconciler_reply_queue.push(reply);
      } else {
        // Directed-reconciliation read — the Topo Event Handler diffs it.
        ctx_->cleanup_reply_queue.push(reply);
      }
      break;
    case SwitchReply::Type::kRoleAck:
      ctx_->role_reply_queue.push(reply);
      break;
  }
  replies.ack_pop();
  return true;
}

void MonitoringServer::on_restart() {
  // Keepalive re-establishment: after an OFC outage the monitoring server
  // re-learns every switch's liveness and synthesizes the events the dead
  // instance missed. Without this, a failure event lost with the old
  // instance would leave the NIB permanently stale.
  Nib& nib = *ctx_->nib;
  for (SwitchId sw : nib.switches()) {
    // Sharded instances re-sync only the switches they own — the peers
    // cover theirs, so the union is exactly the classic single-instance
    // resync without duplicate synthesized events.
    if (shard_ != kUnsharded && ctx_->nib_shard_of(sw) != shard_) continue;
    bool actually_up = ctx_->transport->switch_alive(sw);
    SwitchHealth recorded = nib.switch_health(sw);
    if (!actually_up && recorded != SwitchHealth::kDown) {
      SwitchHealthEvent event;
      event.type = SwitchHealthEvent::Type::kFailure;
      event.sw = sw;
      ctx_->topo_event_queue.push(event);
    } else if (actually_up && recorded == SwitchHealth::kDown) {
      SwitchHealthEvent event;
      event.type = SwitchHealthEvent::Type::kRecovery;
      event.sw = sw;
      ctx_->topo_event_queue.push(event);
    }
  }
}

}  // namespace zenith
