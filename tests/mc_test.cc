// Model-checker tests: the correct spec model passes under every
// optimization configuration; the optimizations shrink the state space
// monotonically (Table 4's shape); the §3.9 bug knobs produce violations
// with counterexample traces (Figure A.6 feedstock).
#include <gtest/gtest.h>

#include <stdexcept>

#include "mc/checker.h"
#include "mc/parallel_bfs.h"
#include "mc/pipeline_model.h"
#include "mc/repl_model.h"

namespace zenith::mc {
namespace {

CheckerOptions quick_options() {
  CheckerOptions options;
  options.max_states = 2'000'000;
  options.time_limit_seconds = 60.0;
  return options;
}

TEST(McTiny, NoFailureInstanceVerifies) {
  ModelConfig config = ModelConfig::tiny_instance();
  config.opt_por = true;
  CheckResult result = check(PipelineModel(config), quick_options());
  EXPECT_TRUE(result.ok) << result.violation;
  EXPECT_FALSE(result.capped);
  EXPECT_GT(result.distinct_states, 1u);
  EXPECT_GT(result.quiescent_states, 0u);
}

TEST(McTiny, FineGrainedExploresMoreStatesThanPor) {
  ModelConfig fine = ModelConfig::tiny_instance();
  ModelConfig por = ModelConfig::tiny_instance();
  por.opt_por = true;
  CheckResult fine_result = check(PipelineModel(fine), quick_options());
  CheckResult por_result = check(PipelineModel(por), quick_options());
  ASSERT_TRUE(fine_result.ok) << fine_result.violation;
  ASSERT_TRUE(por_result.ok) << por_result.violation;
  EXPECT_GT(fine_result.distinct_states, por_result.distinct_states);
}

TEST(McTable4, CorrectModelVerifiesWithAllOptimizations) {
  ModelConfig config = ModelConfig::table4_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = true;
  CheckResult result = check(PipelineModel(config), quick_options());
  EXPECT_TRUE(result.ok) << result.violation;
  EXPECT_FALSE(result.capped) << "fully-optimized run must exhaust";
  EXPECT_GT(result.diameter, 10u);
}

TEST(McTable4, OptimizationLadderShrinksStateSpace) {
  auto run = [](bool sym, bool com, bool por) {
    ModelConfig config = ModelConfig::table4_instance();
    config.opt_symmetry = sym;
    config.opt_compositional = com;
    config.opt_por = por;
    CheckerOptions options;
    options.max_states = 3'000'000;
    options.time_limit_seconds = 120.0;
    return check(PipelineModel(config), options);
  };
  CheckResult sym = run(true, false, false);
  CheckResult sym_com = run(true, true, false);
  CheckResult all = run(true, true, true);
  ASSERT_TRUE(all.ok) << all.violation;
  ASSERT_TRUE(sym_com.ok || sym_com.capped) << sym_com.violation;
  ASSERT_TRUE(sym.ok || sym.capped) << sym.violation;
  // Monotone collapse (Table 4): each optimization prunes further.
  EXPECT_GT(sym.distinct_states, sym_com.distinct_states);
  EXPECT_GT(sym_com.distinct_states, all.distinct_states);
  if (!sym.capped && !all.capped) {
    EXPECT_GE(sym.diameter, all.diameter);
  }
}

TEST(McTable4, TransientRecoveryInstanceVerifies) {
  ModelConfig config = ModelConfig::transient_recovery_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = true;
  CheckResult result = check(PipelineModel(config), quick_options());
  EXPECT_TRUE(result.ok) << result.violation;
}

TEST(McBugs, MarkUpBeforeResetViolates) {
  ModelConfig config = ModelConfig::transient_recovery_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = true;
  config.bugs.mark_up_before_reset = true;
  CheckerOptions options = quick_options();
  options.record_traces = true;
  CheckResult result = check(PipelineModel(config), options);
  ASSERT_FALSE(result.ok) << "§G bug must be caught by the checker";
  EXPECT_FALSE(result.trace.empty());
  // The counterexample must include the failure/recovery cycle.
  bool saw_recovery = false;
  for (const TraceEvent& event : result.trace) {
    if (event.action.kind == Action::Kind::kSwitchRecover) {
      saw_recovery = true;
    }
  }
  EXPECT_TRUE(saw_recovery);
}

TEST(McBugs, SkipRecoveryCleanupViolates) {
  ModelConfig config = ModelConfig::table4_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = true;
  config.bugs.skip_recovery_cleanup = true;
  CheckerOptions options = quick_options();
  options.record_traces = true;
  CheckResult result = check(PipelineModel(config), options);
  ASSERT_FALSE(result.ok);
  EXPECT_NE(result.violation.find("CorrectRoutingState"), std::string::npos)
      << result.violation;
}

TEST(McBugs, DirectClearTcamViolates) {
  // The CLEAR-vs-in-flight-OP race lives *between* the worker's record and
  // act steps, so it needs the fine-grained worker (POR's merge is exactly
  // what the verified design's P4/P6 justify — and with the bug those
  // assumptions do not hold). A partial failure keeps the held OP relevant.
  ModelConfig config = ModelConfig::transient_recovery_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = false;
  config.complete_failure = false;
  config.bugs.direct_clear_tcam = true;
  CheckerOptions options = quick_options();
  options.record_traces = true;
  CheckResult result = check(PipelineModel(config), options);
  ASSERT_FALSE(result.ok);
  // The same configuration WITHOUT the bug is clean.
  config.bugs.direct_clear_tcam = false;
  CheckResult clean = check(PipelineModel(config), quick_options());
  EXPECT_TRUE(clean.ok) << clean.violation;
}

// §3.7 claims the optimizations are sound: "if the specification after
// applying these techniques is correct, the initial specification is
// correct too". Empirical check: the optimized and unoptimized checkers
// agree on the verdict for every correct configuration, and symmetry/
// compositional reduction still catch every bug the unoptimized model
// catches. (POR is excluded for the two bugs that live between merged
// steps — merging is exactly what those bugs violate; see
// DirectClearTcamViolates above.)
TEST(McSoundness, OptimizationsPreserveVerdicts) {
  struct Case {
    const char* name;
    mc::ModelConfig (*make)();
    void (*bug)(SpecBugs&);
    bool expect_ok;
  };
  const Case cases[] = {
      {"correct-table4", ModelConfig::table4_instance,
       [](SpecBugs&) {}, true},
      {"correct-transient", ModelConfig::transient_recovery_instance,
       [](SpecBugs&) {}, true},
      {"mark-up-bug", ModelConfig::transient_recovery_instance,
       [](SpecBugs& b) { b.mark_up_before_reset = true; }, false},
      {"skip-cleanup-bug", ModelConfig::table4_instance,
       [](SpecBugs& b) { b.skip_recovery_cleanup = true; }, false},
  };
  for (const Case& c : cases) {
    for (bool optimized : {false, true}) {
      mc::ModelConfig config = c.make();
      c.bug(config.bugs);
      config.opt_symmetry = optimized;
      config.opt_compositional = optimized;
      config.opt_por = optimized;
      CheckResult result = check(PipelineModel(config), quick_options());
      ASSERT_FALSE(result.capped) << c.name;
      EXPECT_EQ(result.ok, c.expect_ok)
          << c.name << " optimized=" << optimized << ": " << result.violation;
    }
  }
}

TEST(McSoundness, SymmetryCanonicalizationMergesWorkerPermutations) {
  // Two states differing only by which worker holds which message must
  // fingerprint identically under symmetry and differently without it.
  PipelineModel model(ModelConfig::table4_instance());
  State a = model.initial_state();
  a.worker_msg[0] = 3;
  a.worker_phase[0] = 1;
  State b = model.initial_state();
  b.worker_msg[1] = 3;
  b.worker_phase[1] = 1;
  EXPECT_EQ(a.fingerprint(true), b.fingerprint(true));
  EXPECT_NE(a.fingerprint(false), b.fingerprint(false));
}

TEST(McSoundness, FingerprintIgnoresGarbageBeyondQueueLength)
{
  PipelineModel model(ModelConfig::tiny_instance());
  State a = model.initial_state();
  State b = model.initial_state();
  b.op_queue[3] = 0x5a;  // beyond op_queue_len: semantically identical
  EXPECT_EQ(a.fingerprint(false), b.fingerprint(false));
}

TEST(McWorkerCrash, CrashSafeDisciplineSurvivesCrashes) {
  // CP-partial (Table 3): worker crashes mid-item. With the verified
  // read-head/ack-pop discipline the item survives; the model must verify.
  // (Crash windows live between worker steps, so fine-grained mode.)
  ModelConfig config = ModelConfig::table4_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = false;
  config.max_worker_crashes = 1;
  CheckResult result = check(PipelineModel(config), quick_options());
  EXPECT_TRUE(result.ok) << result.violation;
  EXPECT_FALSE(result.capped);
}

TEST(McWorkerCrash, PopBeforeProcessLosesWorkUnderCrash) {
  ModelConfig config = ModelConfig::table4_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = false;
  config.max_worker_crashes = 1;
  config.max_switch_failures = 0;  // isolate the CP failure
  config.bugs.pop_before_process = true;
  CheckerOptions options = quick_options();
  options.record_traces = true;
  CheckResult result = check(PipelineModel(config), options);
  ASSERT_FALSE(result.ok)
      << "a crash between dequeue and process must lose the OP";
  EXPECT_NE(result.violation.find("never installed"), std::string::npos)
      << result.violation;
  // The counterexample includes the crash.
  bool saw_crash = false;
  for (const TraceEvent& event : result.trace) {
    saw_crash |= event.action.kind == Action::Kind::kWorkerCrash;
  }
  EXPECT_TRUE(saw_crash);
}

TEST(McWorkerCrash, SwitchAndWorkerFailuresCompose) {
  // Concurrent failures (Table 3 last row): switch failure during CP churn.
  ModelConfig config = ModelConfig::table4_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = false;
  config.max_worker_crashes = 1;
  config.max_switch_failures = 1;
  CheckerOptions options = quick_options();
  options.max_states = 4'000'000;
  CheckResult result = check(PipelineModel(config), options);
  EXPECT_TRUE(result.ok) << result.violation;
}

// PR 4 brought batched dispatch (CoreConfig::batch_size) into the
// implementation; ModelConfig::batch_size brings the spec model back into
// conformance: an atomic coalescing Sequencer pass, per-switch batch
// messages, ONE batch-ACK committed as a single Monitoring transition, and
// whole-batch re-enqueue on worker crash.
TEST(McBatching, BatchedModelVerifiesAcrossBatchSizes) {
  for (auto make : {ModelConfig::table4_instance,
                    ModelConfig::transient_recovery_instance}) {
    for (int bs : {2, 4}) {
      ModelConfig config = make();
      config.batch_size = bs;
      config.opt_symmetry = true;
      config.opt_compositional = true;
      config.opt_por = true;
      CheckResult result = check(PipelineModel(config), quick_options());
      EXPECT_TRUE(result.ok)
          << "batch_size=" << bs << ": " << result.violation;
      EXPECT_FALSE(result.capped);
    }
  }
}

TEST(McBatching, BatchSizeOneMatchesClassicStateSpace) {
  // batch_size=1 must be byte-identical to the pre-batching pipeline: the
  // per-OP Sequencer transitions are kept verbatim (no SchedulePass).
  ModelConfig classic = ModelConfig::table4_instance();
  classic.opt_symmetry = true;
  classic.opt_compositional = true;
  classic.opt_por = true;
  ModelConfig bs1 = classic;
  bs1.batch_size = 1;
  CheckResult a = check(PipelineModel(classic), quick_options());
  CheckResult b = check(PipelineModel(bs1), quick_options());
  ASSERT_TRUE(a.ok) << a.violation;
  ASSERT_TRUE(b.ok) << b.violation;
  EXPECT_EQ(a.distinct_states, b.distinct_states);
  EXPECT_EQ(a.diameter, b.diameter);
}

TEST(McBatching, BatchingShrinksSchedulingInterleavings) {
  // The atomic coalescing pass replaces up-to-kMaxOps interleaved per-OP
  // schedule transitions with one macro-step, so the batched state space
  // cannot exceed the classic one on the same instance.
  ModelConfig classic = ModelConfig::table4_instance();
  classic.opt_symmetry = true;
  classic.opt_compositional = true;
  classic.opt_por = true;
  ModelConfig batched = classic;
  batched.batch_size = 4;
  CheckResult a = check(PipelineModel(classic), quick_options());
  CheckResult b = check(PipelineModel(batched), quick_options());
  ASSERT_TRUE(a.ok) << a.violation;
  ASSERT_TRUE(b.ok) << b.violation;
  EXPECT_LE(b.distinct_states, a.distinct_states);
}

TEST(McBatching, CrashMidBatchSurvivesWithCrashSafeDiscipline) {
  // A worker crash while it holds a BATCH must re-enqueue the whole batch
  // exactly once (the PR 4 ghost-ACK fix, now in the spec too).
  ModelConfig config = ModelConfig::table4_instance();
  config.batch_size = 4;
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = false;  // crash windows live between worker steps
  config.max_worker_crashes = 1;
  CheckResult result = check(PipelineModel(config), quick_options());
  EXPECT_TRUE(result.ok) << result.violation;
  EXPECT_FALSE(result.capped);
}

TEST(McBatching, PopBeforeProcessLosesWholeBatchUnderCrash) {
  ModelConfig config = ModelConfig::table4_instance();
  config.batch_size = 4;
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = false;
  config.max_worker_crashes = 1;
  config.max_switch_failures = 0;  // isolate the CP failure
  config.bugs.pop_before_process = true;
  CheckerOptions options = quick_options();
  options.record_traces = true;
  CheckResult result = check(PipelineModel(config), options);
  ASSERT_FALSE(result.ok)
      << "a crash between dequeue and process must lose the whole batch";
  EXPECT_NE(result.violation.find("never installed"), std::string::npos)
      << result.violation;
}

TEST(McBatching, BatchAckCommitsAsOneTransaction) {
  // Hand-built state: a 2-OP batch-ACK sits at the Monitoring Server. ONE
  // kMonitoring transition must commit both OPs (status + view) — the
  // model-level image of Nib::commit_ack_batch's single transaction.
  ModelConfig config = ModelConfig::table4_instance();
  config.batch_size = 4;
  PipelineModel model(config);
  State s = model.initial_state();
  // op2 and op3 both live on sw1 (DAG B); pretend they were batched,
  // applied on the switch, and the batch-ACK is queued.
  s.current_dag = 1;
  s.app_switched = 1;
  s.failures_used = 1;
  s.sw_up[0] = 0;
  s.nib_health[0] = 1;  // MHealth::kDown
  s.op_status[2] = static_cast<std::uint8_t>(MOpStatus::kSent);
  s.op_status[3] = static_cast<std::uint8_t>(MOpStatus::kSent);
  s.sw_table[1] = (1u << 2) | (1u << 3);
  s.installed_once = (1u << 2) | (1u << 3);
  s.ack_queue[0] = static_cast<Msg>(kBatchFlag | (1u << 10) | (1u << 2) |
                                    (1u << 3));
  s.ack_queue_len = 1;
  Action monitoring{Action::Kind::kMonitoring, 0};
  ASSERT_EQ(model.apply(s, monitoring), "");
  EXPECT_EQ(static_cast<MOpStatus>(s.op_status[2]), MOpStatus::kDone);
  EXPECT_EQ(static_cast<MOpStatus>(s.op_status[3]), MOpStatus::kDone);
  EXPECT_EQ(s.nib_view[1], (1u << 2) | (1u << 3));
  EXPECT_EQ(s.ack_queue_len, 0);
}

TEST(McParametrized, CorrectModelHoldsAcrossFailureModes) {
  struct Case {
    bool complete;
    bool recovery;
    int budget;
  };
  for (const Case& c : std::initializer_list<Case>{
           {true, true, 1}, {true, false, 1}, {false, true, 1},
           {true, true, 2}}) {
    ModelConfig config = ModelConfig::table4_instance();
    config.complete_failure = c.complete;
    config.allow_recovery = c.recovery;
    config.max_switch_failures = c.budget;
    config.failing_switch = -1;  // any switch may fail
    config.opt_symmetry = true;
    config.opt_compositional = true;
    config.opt_por = true;
    CheckResult result = check(PipelineModel(config), quick_options());
    EXPECT_TRUE(result.ok)
        << "complete=" << c.complete << " recovery=" << c.recovery
        << " budget=" << c.budget << ": " << result.violation;
  }
}

TEST(McReplModel, CorrectProtocolVerifiesExhaustively) {
  // The abstract replica-set model (the formal twin of src/repl's shard
  // protocol): with the correct commit rule, no reachable interleaving of
  // appends, replication, commits, leader kills and elections elects a
  // leader missing a NIB-applied entry.
  ReplModelConfig config;
  config.max_appends = 3;
  config.max_kills = 1;
  ReplModelResult result = check_repl_model(config);
  EXPECT_FALSE(result.violation_found) << result.violation << "\nvia: "
                                       << result.counterexample;
  EXPECT_GT(result.states_explored, 10u);
}

TEST(McReplModel, FiveReplicaInstanceAlsoVerifies) {
  ReplModelConfig config;
  config.replicas = 5;
  config.max_appends = 2;
  config.max_kills = 2;
  ReplModelResult result = check_repl_model(config);
  EXPECT_FALSE(result.violation_found) << result.violation;
  EXPECT_GT(result.states_explored, 100u);
}

TEST(McReplModel, CommitBeforeQuorumYieldsMinimalCounterexample) {
  // The same defect knob the simulator's ReplConfig carries: committing on
  // append means a kill + election reaches a leader whose log lacks applied
  // entries. BFS finds the canonical three-action counterexample.
  ReplModelConfig config;
  config.max_appends = 1;
  config.max_kills = 1;
  config.bug_commit_before_quorum = true;
  ReplModelResult result = check_repl_model(config);
  ASSERT_TRUE(result.violation_found);
  EXPECT_NE(result.violation.find("leader"), std::string::npos)
      << result.violation;
  EXPECT_EQ(result.counterexample.rfind("append -> kill-leader -> elect", 0),
            0u)
      << result.counterexample;
}

// ---------------------------------------------------------------------------
// PR 9: the parallel exploration engine.
//
// The determinism contract under test (see checker.h):
//  * clean uncapped runs: distinct_states / transitions / quiescent_states /
//    diameter are EXACT at every thread count (level-synchronous BFS);
//  * capped runs: the capped flag and the ok verdict agree across thread
//    counts; distinct_states is only bounded (>= max_states);
//  * violating runs: the ok verdict agrees; the specific trace may differ
//    past threads=1 but must replay to a real violation.

TEST(McParallel, CleanRunsAgreeExactlyAcrossThreadCounts) {
  struct Cell {
    const char* name;
    ModelConfig config;
  };
  std::vector<Cell> cells;
  cells.push_back({"tiny-fine", ModelConfig::tiny_instance()});
  {
    ModelConfig config = ModelConfig::tiny_instance();
    config.opt_por = true;
    cells.push_back({"tiny-por", config});
  }
  {
    ModelConfig config = ModelConfig::table4_instance();
    config.opt_symmetry = true;
    config.opt_compositional = true;
    config.opt_por = true;
    cells.push_back({"table4-sym-com-por", config});
  }
  {
    ModelConfig config = ModelConfig::transient_recovery_instance();
    config.opt_symmetry = true;
    config.opt_compositional = true;
    config.opt_por = true;
    cells.push_back({"transient-recovery", config});
  }
  {
    ModelConfig config = ModelConfig::table4_instance();
    config.opt_symmetry = true;
    config.opt_compositional = true;
    config.opt_por = true;
    config.batch_size = 2;
    cells.push_back({"table4-batch2", config});
  }

  for (const Cell& cell : cells) {
    PipelineModel model(cell.config);
    CheckerOptions options = quick_options();
    options.threads = 1;
    CheckResult serial = check(model, options);
    ASSERT_TRUE(serial.ok) << cell.name << ": " << serial.violation;
    ASSERT_FALSE(serial.capped) << cell.name;
    for (std::size_t threads : {2u, 4u, 8u}) {
      options.threads = threads;
      CheckResult parallel = check(model, options);
      EXPECT_TRUE(parallel.ok) << cell.name << " t=" << threads;
      EXPECT_FALSE(parallel.capped) << cell.name << " t=" << threads;
      EXPECT_EQ(parallel.distinct_states, serial.distinct_states)
          << cell.name << " t=" << threads;
      EXPECT_EQ(parallel.transitions, serial.transitions)
          << cell.name << " t=" << threads;
      EXPECT_EQ(parallel.quiescent_states, serial.quiescent_states)
          << cell.name << " t=" << threads;
      EXPECT_EQ(parallel.diameter, serial.diameter)
          << cell.name << " t=" << threads;
      EXPECT_EQ(parallel.threads_used, threads);
    }
  }
}

TEST(McParallel, ReplModelAgreesExactlyAcrossThreadCounts) {
  struct Cell {
    const char* name;
    ReplModelConfig config;
  };
  std::vector<Cell> cells;
  {
    ReplModelConfig config;
    config.max_appends = 3;
    config.max_kills = 1;
    cells.push_back({"r3-a3-k1", config});
  }
  {
    ReplModelConfig config;
    config.replicas = 5;
    config.max_appends = 2;
    config.max_kills = 2;
    cells.push_back({"r5-a2-k2", config});
  }
  {
    ReplModelConfig config;
    config.replicas = 5;
    config.max_appends = 4;
    config.max_kills = 1;
    config.stepwise_replication = true;
    cells.push_back({"r5-a4-k1-stepwise", config});
  }

  for (const Cell& cell : cells) {
    ReplModelConfig config = cell.config;
    config.threads = 1;
    ReplModelResult serial = check_repl_model(config);
    ASSERT_FALSE(serial.violation_found) << cell.name << ": "
                                         << serial.violation;
    ASSERT_FALSE(serial.capped) << cell.name;
    for (std::size_t threads : {2u, 4u, 8u}) {
      config.threads = threads;
      ReplModelResult parallel = check_repl_model(config);
      EXPECT_FALSE(parallel.violation_found) << cell.name << " t=" << threads;
      EXPECT_FALSE(parallel.capped) << cell.name << " t=" << threads;
      EXPECT_EQ(parallel.states_explored, serial.states_explored)
          << cell.name << " t=" << threads;
      EXPECT_EQ(parallel.transitions, serial.transitions)
          << cell.name << " t=" << threads;
      EXPECT_EQ(parallel.diameter, serial.diameter)
          << cell.name << " t=" << threads;
    }
  }
}

TEST(McParallel, CappedRunsAgreeOnVerdictAndCappedFlag) {
  // Caps stop the search mid-level, so only the verdict and the capped flag
  // are exact across thread counts; distinct_states is bounded below by the
  // cap (the stopping worker saw distinct >= max_states) and may overshoot
  // by in-flight expansions. transitions/diameter are not compared at all.
  ModelConfig config = ModelConfig::table4_measurement_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = true;
  CheckerOptions options;
  options.max_states = 20'000;
  options.time_limit_seconds = 60.0;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    options.threads = threads;
    CheckResult result = check(PipelineModel(config), options);
    EXPECT_TRUE(result.ok) << "t=" << threads << ": " << result.violation;
    EXPECT_TRUE(result.capped) << "t=" << threads;
    EXPECT_GE(result.distinct_states, options.max_states) << "t=" << threads;
  }
}

TEST(McParallel, ViolationVerdictAgreesAcrossThreadCounts) {
  ModelConfig config = ModelConfig::table4_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = false;
  config.max_worker_crashes = 1;
  config.max_switch_failures = 0;
  config.bugs.pop_before_process = true;
  PipelineModel model(config);
  CheckerOptions options = quick_options();
  options.record_traces = true;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    options.threads = threads;
    CheckResult result = check(model, options);
    ASSERT_FALSE(result.ok) << "t=" << threads;
    EXPECT_FALSE(result.capped) << "t=" << threads;
    // Whatever trace this thread count found must replay to a violation
    // under the model's own apply semantics.
    EXPECT_FALSE(replay_trace(model, result.trace).empty())
        << "t=" << threads << " trace does not reproduce";
  }
}

TEST(McParallel, DiskBackedSeenSetMatchesInMemory) {
  ModelConfig config = ModelConfig::table4_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = true;
  PipelineModel model(config);
  CheckerOptions options = quick_options();
  CheckResult in_memory = check(model, options);
  ASSERT_TRUE(in_memory.ok) << in_memory.violation;

  options.disk_store_path = ::testing::TempDir();
  for (std::size_t threads : {1u, 4u}) {
    options.threads = threads;
    CheckResult spilled = check(model, options);
    EXPECT_TRUE(spilled.ok) << spilled.violation;
    EXPECT_EQ(spilled.distinct_states, in_memory.distinct_states)
        << "t=" << threads;
    EXPECT_EQ(spilled.transitions, in_memory.transitions) << "t=" << threads;
    EXPECT_EQ(spilled.diameter, in_memory.diameter) << "t=" << threads;
  }
}

// PR 9 counterexample determinism: parallel-found violations must replay
// and ddmin-shrink just like serial ones.

TEST(McCounterexample, PopBeforeProcessTraceReplaysAndShrinks) {
  ModelConfig config = ModelConfig::table4_instance();
  config.opt_symmetry = true;
  config.opt_compositional = true;
  config.opt_por = false;
  config.max_worker_crashes = 1;
  config.max_switch_failures = 0;
  config.bugs.pop_before_process = true;
  PipelineModel model(config);
  CheckerOptions options = quick_options();
  options.record_traces = true;

  options.threads = 1;
  CheckResult serial = check(model, options);
  ASSERT_FALSE(serial.ok);
  // The serial trace replays to exactly the violation the checker reported.
  EXPECT_EQ(replay_trace(model, serial.trace), serial.violation);
  std::vector<TraceEvent> serial_shrunk = shrink_trace(model, serial.trace);
  EXPECT_LE(serial_shrunk.size(), 15u);
  EXPECT_FALSE(replay_trace(model, serial_shrunk).empty());

  // A parallel run may claim a different first violation, but its trace
  // must still replay and shrink to the same <=15-event bound.
  options.threads = 4;
  CheckResult parallel = check(model, options);
  ASSERT_FALSE(parallel.ok);
  std::string replayed = replay_trace(model, parallel.trace);
  EXPECT_FALSE(replayed.empty()) << "parallel trace does not reproduce";
  std::vector<TraceEvent> parallel_shrunk =
      shrink_trace(model, parallel.trace);
  EXPECT_LE(parallel_shrunk.size(), 15u);
  EXPECT_FALSE(replay_trace(model, parallel_shrunk).empty());
}

TEST(McCounterexample, CommitBeforeQuorumReplaysAcrossThreadCounts) {
  ReplModelConfig config;
  config.max_appends = 1;
  config.max_kills = 1;
  config.bug_commit_before_quorum = true;
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    config.threads = threads;
    ReplModelResult result = check_repl_model(config);
    ASSERT_TRUE(result.violation_found) << "t=" << threads;
    std::string replayed =
        replay_repl_counterexample(config, result.counterexample);
    EXPECT_FALSE(replayed.empty())
        << "t=" << threads << " '" << result.counterexample
        << "' does not reproduce";
  }
  // threads=1 keeps the exact canonical counterexample.
  config.threads = 1;
  ReplModelResult serial = check_repl_model(config);
  EXPECT_EQ(serial.counterexample, "append -> kill-leader -> elect(1)");
  EXPECT_EQ(replay_repl_counterexample(config, serial.counterexample),
            serial.violation);
}

// PR 9 satellite: the initial state IS visited like any other state — it is
// popped (depth 0) before expansion, so a violating initial terminal state
// is reported with an empty trace, and a healthy terminal initial state is
// counted as quiescent. (Verified against the pre-PR-9 serial checker,
// which had the same pop-time semantics; these tests pin it down.)

// Engine-level regression: a model whose INITIAL state already violates at
// visit time must be reported (ok=false, empty trace) — the root is not
// silently expanded past. The counting toy walks 0..9 with a violation
// planted at `bad`.
struct CountingToyModel {
  using State = int;
  using Action = int;
  int limit = 10;
  int bad = -1;  // visit-violating state, -1 = none

  State initial() const { return 0; }
  std::pair<std::uint64_t, std::uint64_t> fingerprint(const State& s) const {
    return {static_cast<std::uint64_t>(s) + 1, 0};
  }
  std::string visit(const State& s, bool& quiescent) const {
    if (s == limit - 1) quiescent = true;
    if (s == bad) return "toy violation at " + std::to_string(s);
    return {};
  }
  template <typename Sink>
  std::string expand(const State& s, Sink& sink) const {
    if (s + 1 < limit) sink.transition(s, s + 1);
    return {};
  }
};

TEST(McInitialState, ViolatingInitialStateIsReportedWithEmptyTrace) {
  CountingToyModel model;
  model.bad = 0;
  for (std::size_t threads : {1u, 4u}) {
    ParallelBfsOptions options;
    options.record_traces = true;
    options.threads = threads;
    ParallelBfsResult<int> result = parallel_bfs(model, options);
    EXPECT_FALSE(result.ok) << "t=" << threads;
    EXPECT_EQ(result.violation, "toy violation at 0") << "t=" << threads;
    EXPECT_TRUE(result.trace.empty()) << "t=" << threads;
    EXPECT_EQ(result.distinct_states, 1u) << "t=" << threads;
    EXPECT_EQ(result.transitions, 0u) << "t=" << threads;
  }
}

TEST(McInitialState, ToyChainCountsExactlyAtEveryThreadCount) {
  CountingToyModel model;
  for (std::size_t threads : {1u, 2u, 8u}) {
    ParallelBfsOptions options;
    options.threads = threads;
    ParallelBfsResult<int> result = parallel_bfs(model, options);
    EXPECT_TRUE(result.ok);
    EXPECT_EQ(result.distinct_states, 10u) << "t=" << threads;
    EXPECT_EQ(result.transitions, 9u) << "t=" << threads;
    EXPECT_EQ(result.quiescent_states, 1u) << "t=" << threads;
    EXPECT_EQ(result.diameter, 9u) << "t=" << threads;
  }
}

TEST(McInitialState, TerminalInitialStateIsQuiescenceCheckedAndCounted) {
  // No ops: the initial state is terminal. It must be counted (1 distinct,
  // 1 quiescent, diameter 0) and consistency-checked (vacuously ok).
  ModelConfig config;
  config.num_switches = 1;
  config.num_workers = 1;
  config.max_switch_failures = 0;
  config.ops = {};
  for (std::size_t threads : {1u, 4u}) {
    CheckerOptions options = quick_options();
    options.threads = threads;
    CheckResult result = check(PipelineModel(config), options);
    EXPECT_TRUE(result.ok) << result.violation;
    EXPECT_EQ(result.distinct_states, 1u) << "t=" << threads;
    EXPECT_EQ(result.quiescent_states, 1u) << "t=" << threads;
    EXPECT_EQ(result.diameter, 0u) << "t=" << threads;
    EXPECT_EQ(result.transitions, 0u) << "t=" << threads;
  }
}

TEST(McPipelineModel, RejectsOpTablesTheStateCannotRepresent) {
  // Op indices, switch ids and delete targets are bit positions in the
  // model's 16-bit masks; the constructor refuses any that fall outside
  // the table instead of shifting past the mask at exploration time.
  auto build = [](std::vector<ModelOp> ops) {
    ModelConfig config = ModelConfig::tiny_instance();  // 2 switches
    config.ops = std::move(ops);
    PipelineModel model(std::move(config));
  };
  auto remove = [](std::uint8_t target) {
    ModelOp op;
    op.is_delete = true;
    op.delete_target = target;
    return op;
  };
  ModelOp install;
  ModelOp off_fabric;
  off_fabric.sw = 2;
  ModelOp dangling_pred;
  dangling_pred.preds = {5};

  // The default delete_target (0xff) names no op.
  EXPECT_THROW(build({install, remove(ModelOp{}.delete_target)}),
               std::invalid_argument);
  EXPECT_THROW(build({install, remove(2)}), std::invalid_argument);
  EXPECT_THROW(build({install, off_fabric}), std::invalid_argument);
  EXPECT_THROW(build({install, dangling_pred}), std::invalid_argument);
  EXPECT_THROW(build(std::vector<ModelOp>(kMaxOps + 1)),
               std::invalid_argument);
  EXPECT_NO_THROW(build({install, remove(0)}));
  EXPECT_NO_THROW(build(std::vector<ModelOp>(kMaxOps)));
}

}  // namespace
}  // namespace zenith::mc
