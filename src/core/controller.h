// ZenithController: assembles ZENITH-core (Figure 6).
//
// Ownership: the controller owns the NIB, the shared context (queues), and
// every component. The Fabric (data plane) and Simulator are owned by the
// experiment, since baselines share them.
//
// The same class also hosts the failure-injection surface used throughout
// §6: partial component crashes (Watchdog-recovered), complete OFC/DE
// microservice failures (standby takeover), and planned OFC failover.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/commit_pump.h"
#include "core/context.h"
#include "core/dag_scheduler.h"
#include "core/failover.h"
#include "core/monitoring_server.h"
#include "core/nib_event_handler.h"
#include "core/reply_router.h"
#include "core/sequencer.h"
#include "core/topo_event_handler.h"
#include "core/watchdog.h"
#include "core/worker_pool.h"

namespace zenith {

class ZenithController {
 public:
  /// Classic wiring: controller and data plane share one simulator; the
  /// controller owns a SimBusTransport shim over `fabric`. Byte-identical to
  /// the pre-transport-seam pipeline.
  ZenithController(Simulator* sim, Fabric* fabric, CoreConfig config = {});
  /// Transport wiring: messages cross `transport` (e.g. a SocketTransport in
  /// zenith_controllerd); there is no local Fabric. `sim` still drives the
  /// component service model and must be pumped by the caller.
  ZenithController(Simulator* sim, net::Transport* transport,
                   CoreConfig config = {});

  ZenithController(const ZenithController&) = delete;
  ZenithController& operator=(const ZenithController&) = delete;

  /// Registers all switches in the NIB and starts the Watchdog. Call once
  /// before the simulation runs.
  void start();

  Nib& nib() { return nib_; }
  const Nib& nib() const { return nib_; }
  CoreContext& context() { return ctx_; }
  OpIdAllocator& op_ids() { return op_ids_; }

  /// Attaches (or detaches, with null) an observability bundle to the
  /// context and every component.
  void set_observability(obs::Observability* o);

  // ---- application API -------------------------------------------------------

  /// Submits a DAG (FIFOPut onto the DAG request queue, Listing 4 line 33).
  void submit_dag(Dag dag);
  void delete_dag(DagId id);
  void register_app_sink(NadirFifo<NibEvent>* sink);

  // ---- failure injection -------------------------------------------------------

  std::vector<Component*> components();
  Component* component(const std::string& name);
  /// Partial CP failure: kill one component; the Watchdog revives it.
  void crash_component(const std::string& name);

  /// Complete OFC microservice failure: all OFC components die, their
  /// volatile queues and the controller-side sockets are lost; a standby
  /// instance takes over after config.failover_takeover_delay.
  void crash_ofc();
  /// Complete DE microservice failure, same pattern.
  void crash_de();

  /// Planned OFC failover (Figure 15).
  void planned_ofc_failover(std::function<void(SimTime)> on_done,
                            bool drain_first = true);

  Watchdog& watchdog() { return *watchdog_; }
  FailoverManager& failover_manager() { return *failover_; }
  /// The replicated control plane, or null when CoreConfig::repl disables it
  /// (num_shards == 0).
  repl::ReplicatedControlPlane* repl() { return repl_.get(); }
  const repl::ReplicatedControlPlane* repl() const { return repl_.get(); }

 private:
  void construct(Simulator* sim, CoreConfig config);
  /// The components that die together in a complete OFC microservice
  /// failure: the worker pool plus the ACK/health path (the single
  /// Monitoring Server, or — sharded — the Reply Router, the per-shard
  /// monitoring instances and the Commit Pump), the Topo Event Handler and
  /// the failover manager.
  std::vector<Component*> ofc_components();
  void ofc_takeover();
  void de_takeover();
  /// Re-enqueues every SENT OP accepted by `owned` (null = all) exactly
  /// once, re-coalesced into per-switch batches — the §B sanctioned-
  /// duplicate recovery shared by the OFC standby takeover (all switches)
  /// and per-shard replicated-leader takeover (that shard's switches).
  void requeue_sent_ops(const std::function<bool(SwitchId)>& owned,
                        const char* reason);
  void wire_replication();

  Nib nib_;
  OpIdAllocator op_ids_;
  CoreContext ctx_;
  /// Owned only by the (sim, fabric) constructor; the transport constructor
  /// borrows the caller's backend.
  std::unique_ptr<net::Transport> owned_transport_;
  std::unique_ptr<repl::ReplicatedControlPlane> repl_;

  std::unique_ptr<DagScheduler> dag_scheduler_;
  std::vector<std::unique_ptr<Sequencer>> sequencers_;
  /// Exactly one of the two handler shapes is populated: the single
  /// instance when nib_shards <= 1 (classic wiring, byte-identical to the
  /// pre-sharding pipeline) or one instance per NIB shard otherwise.
  std::unique_ptr<NibEventHandler> nib_event_handler_;
  std::vector<std::unique_ptr<NibEventHandler>> nib_event_handlers_;
  std::unique_ptr<WorkerPool> worker_pool_;
  /// Same duality for the ACK path: the single Monitoring Server, or the
  /// Reply Router + per-shard monitoring instances + Commit Pump pipeline.
  std::unique_ptr<MonitoringServer> monitoring_;
  std::unique_ptr<ReplyRouter> reply_router_;
  std::vector<std::unique_ptr<MonitoringServer>> monitors_;
  std::unique_ptr<CommitPump> commit_pump_;
  std::unique_ptr<TopoEventHandler> topo_handler_;
  std::unique_ptr<FailoverManager> failover_;
  std::unique_ptr<Watchdog> watchdog_;
};

}  // namespace zenith
