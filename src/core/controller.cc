#include "core/controller.h"

#include <unordered_map>

#include "common/logging.h"
#include "net/sim_transport.h"
#include "obs/obs.h"

namespace zenith {

ZenithController::ZenithController(Simulator* sim, Fabric* fabric,
                                   CoreConfig config) {
  ctx_.fabric = fabric;
  owned_transport_ = std::make_unique<net::SimBusTransport>(fabric);
  ctx_.transport = owned_transport_.get();
  construct(sim, std::move(config));
}

ZenithController::ZenithController(Simulator* sim, net::Transport* transport,
                                   CoreConfig config) {
  ctx_.transport = transport;
  construct(sim, std::move(config));
  // A stalled socket sender resumes the pipeline stages it gated: workers
  // first (they hold the head-of-queue batches), then the sequencers (they
  // stopped coalescing new dispatch waves).
  transport->set_resume_callback([this] {
    worker_pool_->kick_all();
    for (auto& s : sequencers_) s->kick();
  });
}

void ZenithController::construct(Simulator* sim, CoreConfig config) {
  ctx_.sim = sim;
  ctx_.nib = &nib_;
  ctx_.config = config;
  ctx_.op_ids = &op_ids_;

  for (std::size_t i = 0; i < config.num_workers; ++i) {
    ctx_.op_queues.push_back(std::make_unique<NadirFifo<OpBatch>>());
  }
  for (std::size_t i = 0; i < config.num_sequencers; ++i) {
    ctx_.sequencer_wakeups.push_back(std::make_unique<NadirFifo<NibEvent>>());
  }

  if (config.sharded()) {
    // Sharded wiring (PR 8): the NIB partitions its OP rows and secondary
    // indexes by switch shard and publishes each shard's events onto a
    // dedicated queue instead of the single nib_event_queue.
    nib_.configure_sharding(config.nib_shards);
    for (std::size_t s = 0; s < config.nib_shards; ++s) {
      ctx_.shard_event_queues.push_back(
          std::make_unique<NadirFifo<NibEvent>>());
      nib_.set_shard_queue(s, ctx_.shard_event_queues[s].get());
      ctx_.shard_replies.push_back(std::make_unique<NadirFifo<SwitchReply>>());
      ctx_.shard_health.push_back(
          std::make_unique<NadirFifo<SwitchHealthEvent>>());
      ctx_.shard_links.push_back(
          std::make_unique<NadirFifo<LinkHealthEvent>>());
      ctx_.commit_queues.push_back(std::make_unique<NadirFifo<CommitJob>>());
    }
  } else {
    nib_.subscribe(&ctx_.nib_event_queue);
  }

  dag_scheduler_ = std::make_unique<DagScheduler>(&ctx_);
  for (std::size_t i = 0; i < config.num_sequencers; ++i) {
    sequencers_.push_back(std::make_unique<Sequencer>(&ctx_, i));
  }
  if (config.sharded()) {
    for (std::size_t s = 0; s < config.nib_shards; ++s) {
      nib_event_handlers_.push_back(
          std::make_unique<NibEventHandler>(&ctx_, s));
    }
  } else {
    nib_event_handler_ = std::make_unique<NibEventHandler>(&ctx_);
  }
  worker_pool_ = std::make_unique<WorkerPool>(&ctx_);
  if (config.sharded()) {
    reply_router_ = std::make_unique<ReplyRouter>(&ctx_);
    for (std::size_t s = 0; s < config.nib_shards; ++s) {
      monitors_.push_back(std::make_unique<MonitoringServer>(&ctx_, s));
    }
    commit_pump_ = std::make_unique<CommitPump>(&ctx_);
  } else {
    monitoring_ = std::make_unique<MonitoringServer>(&ctx_);
  }
  topo_handler_ = std::make_unique<TopoEventHandler>(&ctx_);
  failover_ = std::make_unique<FailoverManager>(&ctx_);
  ctx_.kick_workers = [this] { worker_pool_->kick_all(); };
  watchdog_ = std::make_unique<Watchdog>(&ctx_);
  for (Component* c : components()) watchdog_->watch(c);
  if (config.repl.num_shards > 0) wire_replication();
}

void ZenithController::wire_replication() {
  repl_ = std::make_unique<repl::ReplicatedControlPlane>(ctx_.sim,
                                                         ctx_.config.repl);
  ctx_.repl = repl_.get();
  // NIB apply path: only the acting shard leader applies committed entries,
  // in log order. An entry can legally outlive its OP's freshness — the
  // switch may have failed and had the OP reset to NONE, or a takeover may
  // have requeued it (SCHEDULED) while the first ACK sat uncommitted — so
  // only OPs still SENT commit; stale ones are skipped (the level-triggered
  // pipeline re-drives them), and DONE duplicates are naturally idempotent.
  repl_->set_apply([this](std::size_t, const repl::LogEntry& entry) {
    std::vector<Op> fresh;
    fresh.reserve(entry.ops.size());
    for (const Op& op : entry.ops) {
      if (nib_.has_op(op.id) && nib_.op_status(op.id) == OpStatus::kSent) {
        fresh.push_back(op);
      } else if (ctx_.observability != nullptr) {
        ctx_.observability->count("repl_stale_log_ops");
      }
    }
    nib_.commit_ack_batch(entry.sw, fresh);
    if (ctx_.observability != nullptr) {
      for (const Op& op : fresh) {
        ctx_.observability->op_stage(
            op.id, "repl", "op-ack",
            "sw=" + std::to_string(entry.sw.value()));
        ctx_.observability->op_closed(op.id, "repl", "done");
      }
      if (!fresh.empty()) {
        ctx_.observability->batch_committed(entry.sw, fresh.size());
      }
    }
  });
  // Unplanned failover: the new (or revived) leader re-enqueues the shard's
  // SENT OPs exactly once — the same machinery the OFC standby takeover
  // uses, scoped to the switches this shard owns.
  repl_->set_on_takeover(
      [this](std::size_t shard, std::uint64_t epoch, const char* reason) {
        ZLOG_DEBUG("repl takeover: shard %zu epoch %llu (%s)", shard,
                   static_cast<unsigned long long>(epoch), reason);
        if (ctx_.observability != nullptr) {
          ctx_.observability->event(
              "controller", "repl-takeover",
              "shard=" + std::to_string(shard) + " epoch=" +
                  std::to_string(epoch) + " reason=" + reason);
        }
        requeue_sent_ops(
            [this, shard](SwitchId sw) { return repl_->shard_of(sw) == shard; },
            "repl-takeover");
      });
  repl_->set_event_hook(
      [this](const std::string& what, const std::string& detail) {
        if (ctx_.observability != nullptr) {
          ctx_.observability->event("repl", what, detail);
        }
      });
}

void ZenithController::start() {
  for (std::uint32_t i = 0; i < ctx_.transport->switch_count(); ++i) {
    nib_.register_switch(SwitchId(i));
  }
  watchdog_->start();
  if (repl_ != nullptr) repl_->start();
}

void ZenithController::set_observability(obs::Observability* o) {
  ctx_.observability = o;
  for (Component* c : components()) c->set_observability(o);
}

void ZenithController::submit_dag(Dag dag) {
  if (ctx_.observability != nullptr) ctx_.observability->dag_submitted(dag.id());
  DagRequest request;
  request.type = DagRequest::Type::kInstall;
  request.dag = std::move(dag);
  ctx_.dag_request_queue.push(std::move(request));
}

void ZenithController::delete_dag(DagId id) {
  DagRequest request;
  request.type = DagRequest::Type::kDelete;
  request.dag_id = id;
  ctx_.dag_request_queue.push(std::move(request));
}

void ZenithController::register_app_sink(NadirFifo<NibEvent>* sink) {
  // Sharded mode: every handler forwards the app-relevant events of its own
  // shard, so registering with all of them reproduces the classic stream
  // (each event is routed to exactly one shard, so no duplicates).
  if (nib_event_handler_ != nullptr) {
    nib_event_handler_->register_app_sink(sink);
  }
  for (auto& h : nib_event_handlers_) h->register_app_sink(sink);
}

std::vector<Component*> ZenithController::components() {
  std::vector<Component*> out;
  out.push_back(dag_scheduler_.get());
  for (auto& s : sequencers_) out.push_back(s.get());
  if (nib_event_handler_ != nullptr) out.push_back(nib_event_handler_.get());
  for (auto& h : nib_event_handlers_) out.push_back(h.get());
  for (Component* w : worker_pool_->components()) out.push_back(w);
  if (monitoring_ != nullptr) {
    out.push_back(monitoring_.get());
  } else {
    out.push_back(reply_router_.get());
    for (auto& m : monitors_) out.push_back(m.get());
    out.push_back(commit_pump_.get());
  }
  out.push_back(topo_handler_.get());
  out.push_back(failover_.get());
  return out;
}

Component* ZenithController::component(const std::string& name) {
  for (Component* c : components()) {
    if (c->name() == name) return c;
  }
  return nullptr;
}

void ZenithController::crash_component(const std::string& name) {
  Component* c = component(name);
  if (c != nullptr) c->crash();
}

void ZenithController::crash_ofc() {
  ZLOG_DEBUG("complete OFC failure injected");
  if (ctx_.observability != nullptr) {
    ctx_.observability->event("controller", "ofc-crash");
  }
  // Every OFC component dies and is held for the standby instance.
  for (Component* c : ofc_components()) {
    c->crash();
    c->set_held(true);
  }
  // Volatile OFC queues and controller-side sockets die with the instance.
  // Dropping *in-flight* replies (not just the queued ones) matters: an ACK
  // still on the wire belongs to the dead instance's sockets, and letting it
  // reach the standby would commit an OP the takeover is about to requeue —
  // the requeued copy then gets processed a second time (a DONE->SENT flap;
  // see OfcCrashMidBatchRequeuesExactlyOnce). The planned non-drain failover
  // models the same socket loss the same way.
  ctx_.topo_event_queue.clear();
  ctx_.cleanup_reply_queue.clear();
  ctx_.role_reply_queue.clear();
  ctx_.transport->drop_all_in_flight_replies();
  ctx_.transport->health_events().clear();
  // The demuxed per-shard queues and the ACK-commit jobs are just as
  // volatile as the instance's sockets — an ACK parked in either belongs to
  // the dead instance, and the takeover requeue regenerates that work. The
  // per-shard NIB-event queues are NOT cleared: they mirror nib_event_queue,
  // which is NIB-resident state and survives instance failures.
  for (auto& q : ctx_.shard_replies) q->clear();
  for (auto& q : ctx_.shard_health) q->clear();
  for (auto& q : ctx_.shard_links) q->clear();
  for (auto& q : ctx_.commit_queues) q->clear();
  ctx_.workers_paused = false;
  ctx_.sim->schedule(ctx_.config.failover_takeover_delay,
                     [this] { ofc_takeover(); });
}

std::vector<Component*> ZenithController::ofc_components() {
  std::vector<Component*> ofc = worker_pool_->components();
  if (monitoring_ != nullptr) {
    ofc.push_back(monitoring_.get());
  } else {
    ofc.push_back(reply_router_.get());
    for (auto& m : monitors_) ofc.push_back(m.get());
    ofc.push_back(commit_pump_.get());
  }
  ofc.push_back(topo_handler_.get());
  ofc.push_back(failover_.get());
  return ofc;
}

void ZenithController::ofc_takeover() {
  ZLOG_DEBUG("standby OFC instance taking over");
  if (ctx_.observability != nullptr) {
    ctx_.observability->event("controller", "ofc-takeover");
  }
  // The standby's sockets are established *now*: replies the switches
  // emitted during the outage window (ACKs for requests that were still on
  // the wire when the old instance died) were addressed to the dead
  // instance and never reach this one. Without this second drop they would
  // commit OPs this takeover is about to requeue — the same ghost-ACK race
  // the crash-time drop closes for replies already in flight back then.
  ctx_.transport->drop_all_in_flight_replies();
  for (Component* c : ofc_components()) {
    c->set_held(false);
    c->restart();  // MonitoringServer::on_restart re-syncs switch health
  }
  // OPs whose ACK was lost with the old instance sit in SENT forever unless
  // re-issued; installs and deletes are idempotent by OP id, so the new
  // instance re-sends all of them (§B's sanctioned duplicate case).
  requeue_sent_ops(nullptr, "ofc-takeover");
}

void ZenithController::requeue_sent_ops(
    const std::function<bool(SwitchId)>& owned, const char* reason) {
  // Each OP is re-enqueued exactly once, re-coalesced into per-switch
  // batches of at most batch_size so the retry traffic keeps the dispatch
  // shape of the run (ops_with_status returns ids sorted, preserving
  // per-switch order).
  const std::size_t batch_size =
      ctx_.config.batch_size == 0 ? 1 : ctx_.config.batch_size;
  std::unordered_map<std::uint32_t, OpBatch> pending;
  std::vector<std::uint32_t> flush_order;
  auto flush = [this](OpBatch& b) {
    if (b.ops.empty()) return;
    SwitchId sw = b.sw;
    ctx_.op_queue_for(sw).push(OpBatch{sw, std::move(b.ops)});
    b.ops.clear();
  };
  const std::string detail = std::string("reason=") + reason;
  for (OpId id : nib_.ops_with_status(OpStatus::kSent)) {
    const Op& op = nib_.op(id);
    if (owned && !owned(op.sw)) continue;
    nib_.set_op_status(id, OpStatus::kScheduled);
    if (ctx_.observability != nullptr) {
      ctx_.observability->op_stage(id, "controller", "op-requeue", detail);
    }
    OpBatch& batch = pending[op.sw.value()];
    if (batch.ops.empty()) {
      batch.sw = op.sw;
      flush_order.push_back(op.sw.value());
      // Pooled id buffers: the worker releases them back to the arena after
      // dispatch, same as the sequencer's steady-state batches.
      if (batch.ops.capacity() == 0) batch.ops = ctx_.batch_arena.acquire();
    }
    batch.ops.push_back(id);
    if (batch.ops.size() >= batch_size) flush(batch);
  }
  for (std::uint32_t sw : flush_order) flush(pending[sw]);
}

void ZenithController::crash_de() {
  ZLOG_DEBUG("complete DE failure injected");
  if (ctx_.observability != nullptr) {
    ctx_.observability->event("controller", "de-crash");
  }
  std::vector<Component*> de;
  de.push_back(dag_scheduler_.get());
  for (auto& s : sequencers_) de.push_back(s.get());
  if (nib_event_handler_ != nullptr) de.push_back(nib_event_handler_.get());
  for (auto& h : nib_event_handlers_) de.push_back(h.get());
  for (Component* c : de) {
    c->crash();
    c->set_held(true);
  }
  // The per-shard NIB-event queues, like nib_event_queue itself, are
  // NIB-resident and survive the DE instance — the revived handlers resume
  // draining them.
  for (auto& wakeup : ctx_.sequencer_wakeups) wakeup->clear();
  ctx_.sim->schedule(ctx_.config.failover_takeover_delay,
                     [this] { de_takeover(); });
}

void ZenithController::de_takeover() {
  ZLOG_DEBUG("standby DE instance taking over");
  if (ctx_.observability != nullptr) {
    ctx_.observability->event("controller", "de-takeover");
  }
  std::vector<Component*> de;
  de.push_back(dag_scheduler_.get());
  for (auto& s : sequencers_) de.push_back(s.get());
  if (nib_event_handler_ != nullptr) de.push_back(nib_event_handler_.get());
  for (auto& h : nib_event_handlers_) de.push_back(h.get());
  for (Component* c : de) {
    c->set_held(false);
    c->restart();
  }
}

void ZenithController::planned_ofc_failover(
    std::function<void(SimTime)> on_done, bool drain_first) {
  failover_->request_planned_failover(drain_first, std::move(on_done));
}

}  // namespace zenith
