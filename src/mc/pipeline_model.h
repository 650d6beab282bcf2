// The explicit-state specification model of the ZENITH-core pipeline.
//
// This is the reproduction's stand-in for the paper's TLA+ specification +
// TLC (§3.4-§3.7): a compact state machine covering Sequencer, Worker Pool,
// AbstractSW, Monitoring Server, Topo Event Handler and an AbstractApp,
// under switch failures (all three modes) and the §3.9 bug knobs. The
// checker (checker.h) enumerates its state space.
//
// The three scaling optimizations of §3.7 are model *configurations*, all
// sound in the same sense as the paper's:
//  * fine_grained (the "None" baseline): worker processing is split into
//    its constituent record/act steps and switches expose separate ingress
//    processing and egress (ACK) steps — the full interleaving space;
//  * symmetry: workers draw from one shared OP queue (the spec-level pool
//    of identical workers) and states are canonicalized by sorting worker
//    slots, collapsing permutations (§3.7 "Symmetry reduction");
//  * compositional: the switch is over-approximated by a single
//    deliver+apply+ACK transition (§3.7 "Compositional verification");
//  * por: commuting local steps are merged into atomic macro-steps and,
//    when an invisible (component-local) transition is enabled, only the
//    first one is expanded — an ample-set of size one (§3.7 "Partial order
//    reduction").
//
// Batched dispatch (the PR-4 pipeline, CoreConfig::batch_size) is modeled
// by ModelConfig::batch_size: at 1 the model is the classic per-OP pipeline
// (one nondeterministic Sequencer.ScheduleOP transition per ready OP); at
// >1 one atomic Sequencer.SchedulePass coalesces every currently-ready OP
// into per-switch batch messages of at most batch_size OPs — mirroring the
// implementation, where one sequencer service step runs the whole
// coalescing scan inside a single simulator event. A batch travels the
// worker -> switch -> ACK -> Monitoring Server path as ONE message: the
// switch applies its OPs in order and emits one batch-ACK, the Monitoring
// Server commits that ACK as a single transaction (one transition), and a
// worker crash mid-batch re-enqueues the WHOLE held batch exactly once
// (front re-insert), unless the pop_before_process bug is enabled — then
// the entire batch dies with the worker's locals.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/context.h"  // SpecBugs

namespace zenith::mc {

// Model capacities. Small by design: TLC-style checking explores instances.
inline constexpr int kMaxOps = 10;
inline constexpr int kMaxSwitches = 3;
inline constexpr int kMaxWorkers = 2;
inline constexpr int kQueueCap = 12;

/// One OP of the static op table.
struct ModelOp {
  std::uint8_t sw = 0;
  bool is_delete = false;
  std::uint8_t delete_target = 0xff;
  /// Predecessor op indices within the same DAG.
  std::vector<std::uint8_t> preds;
  /// Which DAG this op belongs to: 0 = A, 1 = B.
  std::uint8_t dag = 0;
};

struct ModelConfig {
  int num_switches = 2;
  int num_workers = 2;
  std::vector<ModelOp> ops;  // static op table (both DAGs)

  /// Per-switch dispatch batch size (CoreConfig::batch_size). 1 = the
  /// classic per-OP pipeline, byte-identical state space to the pre-batching
  /// model; >1 enables the batched Sequencer pass and batch messages.
  int batch_size = 1;

  /// Failure budget: how many switch failures the checker may inject.
  int max_switch_failures = 1;
  bool allow_recovery = true;
  /// CP-partial budget (Table 3): worker crashes the checker may inject.
  /// The Watchdog restart is implicit (the worker keeps serving); what a
  /// crash tests is the fate of the in-progress work item.
  int max_worker_crashes = 0;
  /// Complete (state-losing) vs partial failures.
  bool complete_failure = true;
  /// Which switch may fail (-1 = any).
  int failing_switch = -1;

  // -- optimizations (§3.7) ---------------------------------------------------
  bool opt_symmetry = false;
  bool opt_compositional = false;
  bool opt_por = false;

  // -- §3.9 bug knobs (for counterexample generation) --------------------------
  SpecBugs bugs;

  /// Builds the Table 4 instance: "a single switch failure that causes a
  /// transition from a DAG of size 2 to a DAG of size at most 3 (involving
  /// up to 5 OPs)".
  static ModelConfig table4_instance();
  /// A larger instance for the Table 4 measurement run: three switches, two
  /// failure injections anywhere, a 3-OP DAG A replaced by a 4-OP DAG B
  /// plus deletions (9 OPs total). This is what makes the unoptimized
  /// exploration blow up, mirroring the paper's instance where "None"
  /// exceeds memory.
  static ModelConfig table4_measurement_instance();
  /// A minimal 2-op chain on one switch, no failures (smoke checking).
  static ModelConfig tiny_instance();
  /// The §G instance: transient failure + recovery + new OP on the
  /// recovered switch.
  static ModelConfig transient_recovery_instance();
};

/// Message encoding on queues (16-bit):
///   0..kMaxOps-1                 one OP (the batch_size=1 wire format, and
///                                singleton batches at batch_size>1 — the
///                                implementation sends those as the classic
///                                per-OP request too);
///   kBatchFlag | sw<<10 | mask   a per-switch batch: the OPs whose indices
///                                are set in the low-10-bit mask, applied in
///                                ascending index order (the coalescing scan
///                                order — DAG preds are never co-batched
///                                with their successors, readiness requires
///                                the pred already DONE);
///   kClearBase + sw              CLEAR_TCAM for sw;
///   kNoOp                        idle marker.
using Msg = std::uint16_t;
inline constexpr Msg kBatchFlag = 0x8000;
inline constexpr Msg kClearBase = 0xe000;
inline constexpr Msg kNoOp = 0xffff;

/// OP lifecycle in the model's NIB.
enum class MOpStatus : std::uint8_t {
  kNone,
  kScheduled,
  kSent,
  kDone,
  kFailedSw,
};

enum class MHealth : std::uint8_t { kUp, kDown, kRecovering };

/// Packed model state. Fixed layout so hashing/canonicalization is cheap.
struct State {
  std::uint8_t current_dag = 0;
  std::array<std::uint8_t, kMaxOps> op_status{};        // MOpStatus
  std::array<Msg, kQueueCap> op_queue{};                // shared pool queue
  std::uint8_t op_queue_len = 0;
  // Per-worker: the message being processed (kNoOp = idle) and its phase
  // (0 = just taken, 1 = recorded/ready-to-act) — fine-grained mode only.
  std::array<Msg, kMaxWorkers> worker_msg{};
  std::array<std::uint8_t, kMaxWorkers> worker_phase{};
  std::array<std::uint8_t, kMaxSwitches> sw_up{};        // bool
  std::array<std::uint8_t, kMaxSwitches> nib_health{};   // MHealth
  std::array<std::uint16_t, kMaxSwitches> sw_table{};    // op bitmask
  std::array<std::array<Msg, kQueueCap>, kMaxSwitches> sw_inq{};
  std::array<std::uint8_t, kMaxSwitches> sw_inq_len{};
  std::array<std::array<Msg, kQueueCap>, kMaxSwitches> sw_outq{};
  std::array<std::uint8_t, kMaxSwitches> sw_outq_len{};
  std::array<Msg, kQueueCap> ack_queue{};                // at monitoring
  std::uint8_t ack_queue_len = 0;
  std::array<std::uint8_t, kQueueCap> topo_queue{};      // health events
  std::uint8_t topo_queue_len = 0;
  std::array<std::uint8_t, kQueueCap> cleanup_queue{};   // clear ACKs
  std::uint8_t cleanup_queue_len = 0;
  std::uint16_t nib_view[kMaxSwitches] = {};             // op bitmask
  std::uint16_t installed_once = 0;                      // op bitmask
  std::uint8_t failures_used = 0;
  std::uint8_t worker_crashes_used = 0;
  std::uint8_t app_switched = 0;        // app replaced DAG A with B
  std::uint8_t pending_reset = 0;       // bitmask: deferred resets (bug)

  bool operator==(const State&) const = default;

  /// Canonical 128-bit fingerprint (after symmetry canonicalization when
  /// enabled).
  std::pair<std::uint64_t, std::uint64_t> fingerprint(
      bool symmetry) const;
};

/// A transition of the model: identifier + human-readable label.
struct Action {
  enum class Kind : std::uint8_t {
    kSeqSchedule,
    kSeqBatchPass,
    kWorkerTake,
    kWorkerRecord,
    kWorkerAct,
    kSwitchProcess,
    kSwitchEmitAck,
    kMonitoring,
    kTopoEvent,
    kCleanupAck,
    kDeferredReset,
    kSwitchFail,
    kSwitchRecover,
    kWorkerCrash,
    kAppSwitchDag,
  };
  Kind kind;
  std::uint8_t subject = 0;  // op index / worker / switch, by kind
  std::string label() const;
  /// True when this is a failure-injection transition (unfair process: the
  /// checker may always choose not to run it; quiescence ignores it).
  bool is_failure() const {
    return kind == Kind::kSwitchFail || kind == Kind::kSwitchRecover ||
           kind == Kind::kWorkerCrash;
  }
};

/// The model: enumerates enabled actions and applies them.
class PipelineModel {
 public:
  /// Throws std::invalid_argument on an op table the packed state cannot
  /// represent (see the constructor).
  explicit PipelineModel(ModelConfig config);

  const ModelConfig& config() const { return config_; }

  State initial_state() const;

  /// All enabled actions in `s` (after POR filtering when enabled).
  std::vector<Action> enabled_actions(const State& s) const;

  /// Applies `a` to `s`; returns a violation message ("" if none). DAG-order
  /// safety (condition ①) is checked at install time.
  std::string apply(State& s, const Action& a) const;

  /// True when no non-failure action is enabled.
  bool quiescent(const State& s) const;

  /// Consistency at quiescence (conditions ② and ③ on the instance):
  /// returns "" or a violation description.
  std::string check_quiescent_consistency(const State& s) const;

 private:
  std::vector<Action> raw_enabled(const State& s) const;
  bool action_is_local(const Action& a) const;
  int shard_unused(int sw) const { return sw % config_.num_workers; }
  bool op_in_current_dag(const State& s, int op) const;
  bool preds_done(const State& s, int op) const;
  bool op_schedulable(const State& s, int op) const;
  int msg_switch(Msg msg) const;
  std::string deliver_to_switch(State& s, int sw, Msg msg) const;
  std::string apply_on_switch(State& s, int sw, Msg msg) const;
  void enqueue_ack(State& s, int sw, Msg msg) const;
  void process_ack(State& s, Msg msg) const;
  void reset_switch_ops(State& s, int sw) const;
  void mark_batch_status(State& s, Msg msg, MOpStatus status) const;

  ModelConfig config_;
};

}  // namespace zenith::mc
