// Shared state wiring for controller components.
//
// Queue placement mirrors the paper's architecture (Table 1, Figure 6):
// queues that cross microservice boundaries live in the NIB and are
// persistent (OPQueueNIB, the DAG request queue, the NIB event queue);
// queues internal to one microservice are volatile and die with it
// (Sequencer wake queue inside the DE; Topo Event Handler queues inside the
// OFC). The fabric's reply/health streams model network sockets into the
// OFC.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "core/arena.h"
#include "dag/compiler.h"
#include "dag/dag.h"
#include "dataplane/fabric.h"
#include "net/transport.h"
#include "nib/nib.h"
#include "repl/repl.h"
#include "sim/fifo.h"
#include "sim/simulator.h"

namespace zenith::obs {
class Observability;
}

namespace zenith {

/// App -> DAG Scheduler requests.
struct DagRequest {
  enum class Type : std::uint8_t { kInstall, kDelete };
  Type type = Type::kInstall;
  Dag dag;       // kInstall
  DagId dag_id;  // kDelete
};

/// Deliberate specification-bug switches (§3.9 taxonomy; DESIGN.md §6).
/// All false in a correct ZENITH build. The PR baseline and the trace
/// generators turn individual knobs on to reproduce historical bugs.
struct SpecBugs {
  /// Listing 1: perform the action before recording it in the NIB.
  bool send_before_record = false;
  /// Dequeue events before fully processing them (event loss on crash).
  bool pop_before_process = false;
  /// Figure A.8 / §G: on recovery, mark the switch UP before resetting the
  /// states of its OPs; the reset scan lands `deferred_reset_delay` later
  /// (the Topo Event Handler "computing all the necessary changes" while
  /// the rest of the controller races ahead).
  bool mark_up_before_reset = false;
  SimTime deferred_reset_delay = millis(50);
  /// Skip the CLEAR_TCAM/reset pipeline entirely on switch recovery (PR's
  /// optimistic recovery; inconsistencies are left for reconciliation).
  bool skip_recovery_cleanup = false;
  /// Bypass the Worker Pool and send CLEAR_TCAM directly from the Topo
  /// Event Handler (races with in-flight OPs, violates P6).
  bool direct_clear_tcam = false;
  /// The ODL "incident 2" race (§1.1): when a DAG arrives while the
  /// previous one is still installing, the two scheduling threads race on
  /// the NIB and the later thread's state wins — OPs of the new DAG that
  /// collide with in-flight work get recorded as installed without ever
  /// being sent. The application then believes the correct routes are in
  /// place even though they are not (resolved only by reconciliation).
  bool overlap_nib_race = false;
};

struct CoreConfig {
  std::size_t num_workers = 4;
  std::size_t num_sequencers = 2;
  /// OP batching (the PR-4 throughput lever): the Sequencer coalesces the
  /// ready OPs of one scheduling pass into per-switch batches of at most
  /// this many OPs; a Worker forwards a whole batch as one message and the
  /// switch ACKs it with one batch-ACK that the Monitoring Server commits
  /// in a single indexed NIB transaction. 1 (the default) reproduces the
  /// unbatched pipeline byte-for-byte: every batch is a singleton, pushed
  /// inline in scan order, and singleton batches travel as the classic
  /// per-OP SwitchRequest/SwitchReply.
  ///
  /// Determinism contract across batch sizes (asserted by property_test's
  /// BatchEquivalence sweep): on equal seeds and a failure-free run,
  /// batch_size ∈ {1,4,16,64} produce a byte-identical final NIB state
  /// (Nib::state_fingerprint — statuses, view, health, DAG bookkeeping;
  /// write_count excluded, it is accounting) for any workload, and
  /// additionally an identical per-switch OP delivery order whenever
  /// same-switch concurrent OPs become ready in the same sequencer pass —
  /// guaranteed for the root OPs of a freshly registered DAG, but NOT for
  /// downstream-dependent waves (at batch_size=1 each predecessor ACK lands
  /// at its own jittered instant, spreading readiness across passes; a
  /// batch ACK commits them together). Batching
  /// deliberately changes *simulated timing* — one batch-ACK amortizes the
  /// Monitoring Server's per-reply service step, which is the honest
  /// throughput win bench_soak measures — so timing-sensitive artifacts
  /// (chaos verdict_digest, trace/metrics fingerprints) are only golden at
  /// the default batch_size=1.
  std::size_t batch_size = 1;
  /// Per-step service time of each component type.
  SimTime worker_service = micros(30);
  SimTime sequencer_service = micros(40);
  SimTime monitoring_service = micros(20);
  SimTime topo_handler_service = micros(40);
  SimTime scheduler_service = micros(50);
  SimTime nib_event_service = micros(15);
  /// Watchdog scan period (detects and restarts dead components).
  SimTime watchdog_period = millis(100);
  /// Extra delay for a standby microservice instance to take over.
  SimTime failover_takeover_delay = millis(200);
  /// Planned failover: re-issue role-change requests to switches that have
  /// not acked after this long (role ACKs ride the reply stream and can be
  /// lost to a burst reply drop; without the retry the handoff hangs).
  SimTime role_ack_retry = millis(150);
  /// Replicated control plane (src/repl): num_shards == 0 (the default)
  /// disables replication entirely — nothing constructed, byte-identical
  /// single-instance pipeline. With shards, the install/delete ACK commit
  /// path routes through each shard's replicated log and unplanned leader
  /// failover re-enqueues SENT OPs exactly once.
  repl::ReplConfig repl;
  /// Directed reconciliation (ZENITH-DR, §3.9): on switch recovery, dump
  /// and diff instead of wiping the TCAM.
  bool directed_reconciliation = false;
  /// Sharded hot path (PR 8). 0 or 1 (the default) keeps the classic
  /// single-pipeline wiring byte-identical: one NIB Event Handler draining
  /// the subscribe()-queue, one Monitoring Server on the transport streams,
  /// ACKs committed inline. >= 2 partitions the NIB by switch into that
  /// many shards, each with its own event queue + NIB Event Handler +
  /// Monitoring Server instance, a Reply Router demuxing the transport
  /// streams per shard, and a CommitPump applying per-shard ACK-commit jobs
  /// from per-shard commit queues. Simulated-time throughput scales
  /// with the shard count because the per-shard service steps overlap in
  /// sim time; final NIB state is fingerprint-equal to the unsharded run
  /// on chaos-free workloads (sharded_nib_test, bench_soak's equivalence
  /// probe).
  std::size_t nib_shards = 0;
  /// Sharded mode: NIB events one handler instance routes per service step
  /// (the batch amortizes the per-step service charge that saturated the
  /// single unsharded handler).
  std::size_t nib_event_batch = 16;
  /// Sharded mode: transport messages the Reply Router demuxes per step.
  std::size_t reply_route_batch = 16;
  /// Service time of one Reply Router step. Cheap by design: routing is a
  /// hash + queue push, no NIB access.
  SimTime reply_route_service = micros(2);
  /// Service time of one sharded Monitoring Server step. The classic 20us
  /// monitoring_service models ACK validation *plus* the inline NIB commit
  /// transaction; in sharded mode the commit half moves to the CommitPump
  /// (which charges its own service per batched transaction), so the
  /// per-shard monitor charges only the validation/forward half here.
  /// Charging the full 20us again would double-count the commit work the
  /// pump already pays for.
  SimTime monitoring_forward_service = micros(10);
  bool sharded() const { return nib_shards >= 2; }
  SpecBugs bugs;
};

/// One OPQueueNIB element: the OPs of one per-switch dispatch unit, in
/// per-switch FIFO order. At batch_size=1 every element is a singleton.
/// Controller-issued OPs (CLEAR_TCAM, DR dumps, takeover requeues) are
/// always pushed as their own batches, never mixed into DAG batches.
struct OpBatch {
  SwitchId sw;
  std::vector<OpId> ops;
};

/// One ACK-commit unit of the sharded pipeline: the acked install/delete
/// OPs of one switch, flowing from that shard's Monitoring Server instance
/// through the shard's commit queue to the CommitPump.
struct CommitJob {
  SwitchId sw;
  std::vector<Op> ops;
};

struct CoreContext {
  Simulator* sim = nullptr;
  Nib* nib = nullptr;
  /// The simulated data plane, when this controller runs on the simulator
  /// bus; null under a socket transport (zenith_controllerd has no local
  /// switches). Pipeline components never touch it — they speak through
  /// `transport` — but the experiment harness and tests still reach the
  /// simulated switches here.
  Fabric* fabric = nullptr;
  /// The southbound message seam (never null once the controller is
  /// constructed): SimBusTransport over `fabric`, or a SocketTransport.
  net::Transport* transport = nullptr;
  CoreConfig config;
  OpIdAllocator* op_ids = nullptr;
  /// Optional observability bundle; null = uninstrumented. Components hold
  /// their own copy of this pointer (set_observability), but pipeline code
  /// that only has the context reaches it here.
  obs::Observability* observability = nullptr;
  /// Replicated commit path; null when config.repl.num_shards == 0 (the
  /// Monitoring Server then commits ACKs directly, the pre-replication way).
  repl::ReplicatedControlPlane* repl = nullptr;

  // -- NIB-resident (persistent) queues --------------------------------------
  NadirFifo<DagRequest> dag_request_queue;          // apps -> DAG Scheduler
  std::vector<std::unique_ptr<NadirFifo<OpBatch>>> op_queues;  // OPQueueNIB shards
  NadirFifo<NibEvent> nib_event_queue;              // NIB -> DE event handler

  // -- DE-internal (volatile) ---------------------------------------------------
  std::vector<std::unique_ptr<NadirFifo<NibEvent>>> sequencer_wakeups;

  // -- sharded hot path (PR 8; empty when config.nib_shards <= 1) --------------
  /// Per-shard NIB event queues (NIB-resident, like nib_event_queue: they
  /// survive DE crashes). The NIB publishes, the shard's NIB Event Handler
  /// drains.
  std::vector<std::unique_ptr<NadirFifo<NibEvent>>> shard_event_queues;
  /// Per-shard demuxed transport streams (OFC-volatile, like the transport
  /// queues they mirror): the Reply Router routes switch replies and health
  /// events to the owning shard's Monitoring Server instance. Link events
  /// are not switch-keyed; they all route to shard 0.
  std::vector<std::unique_ptr<NadirFifo<SwitchReply>>> shard_replies;
  std::vector<std::unique_ptr<NadirFifo<SwitchHealthEvent>>> shard_health;
  std::vector<std::unique_ptr<NadirFifo<LinkHealthEvent>>> shard_links;
  /// Per-shard ACK-commit job queues into the CommitPump (OFC-volatile:
  /// dropped on OFC crash, regenerated by the takeover requeue).
  std::vector<std::unique_ptr<NadirFifo<CommitJob>>> commit_queues;
  /// Recycled OpBatch id buffers (all modes; steady state allocates zero
  /// vectors per batch).
  OpBatchArena batch_arena;

  // -- OFC-internal (volatile) --------------------------------------------------
  NadirFifo<SwitchHealthEvent> topo_event_queue;
  NadirFifo<SwitchReply> cleanup_reply_queue;  // CLEAR_TCAM acks + DR dumps
  NadirFifo<SwitchReply> role_reply_queue;     // failover role acks
  NadirFifo<SwitchReply> reconciler_reply_queue;  // PR periodic dumps

  /// While a PR reconciliation batch is applying its NIB transaction, other
  /// components' NIB-touching steps stall until this time (Figure 4b's
  /// serialized-NIB-update bottleneck; zero for ZENITH, which never runs
  /// periodic reconciliation).
  SimTime nib_locked_until = 0;

  /// Set during planned OFC failover: workers stop emitting new OPs so the
  /// ACK stream can drain before the role handoff (Zenith's hitless drain;
  /// the PR baseline skips this and loses in-flight ACKs).
  bool workers_paused = false;
  /// Current OFC master instance number (bumped by failover).
  int ofc_master_instance = 0;
  /// Wakes every worker (set by the controller); the failover manager uses
  /// it when resuming the pool after a drain.
  std::function<void()> kick_workers;

  /// Worker shard that owns a switch: consistent sharding (P4). The switch
  /// id goes through a stable 64-bit mix (splitmix64 finalizer) before the
  /// modulus so that structured id layouts (fat-tree pods are id-contiguous)
  /// spread evenly over the pool instead of aliasing onto a few workers.
  /// The mix is a fixed function of the id alone — no process state — so
  /// shard ownership is identical across runs, platforms and restarts.
  std::size_t shard_of(SwitchId sw) const {
    std::uint64_t x = static_cast<std::uint64_t>(sw.value()) +
                      0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<std::size_t>(x % config.num_workers);
  }
  NadirFifo<OpBatch>& op_queue_for(SwitchId sw) {
    return *op_queues.at(shard_of(sw));
  }
  /// Pushes one OP as its own batch (the non-sequencer entry points: cleanup
  /// OPs, directed-reconciliation deletes, takeover requeues, PR re-issues).
  /// The id buffer comes from the arena; the Worker recycles it on ack.
  void enqueue_op(SwitchId sw, OpId id) {
    std::vector<OpId> ops = batch_arena.acquire();
    ops.push_back(id);
    op_queue_for(sw).push(OpBatch{sw, std::move(ops)});
  }
  std::size_t sequencer_of(DagId dag) const {
    return dag.value() % config.num_sequencers;
  }
  /// NIB shard that owns a switch (the same stable mix as shard_of, modulo
  /// nib_shards). Always 0 in unsharded mode.
  std::size_t nib_shard_of(SwitchId sw) const {
    return Nib::shard_slot(sw, config.nib_shards);
  }
};

}  // namespace zenith
