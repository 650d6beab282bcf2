// Application tests: drain/undrain (runtime + NADIR spec conformance), TE,
// planned failover, and AbstractApp.
#include <gtest/gtest.h>

#include "apps/abstract_app.h"
#include "apps/app_specs.h"
#include "apps/drain_app.h"
#include "apps/drain_spec.h"
#include "apps/failover_app.h"
#include "apps/generated_drain_app.h"
#include "apps/te_app.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "mc/abstraction.h"
#include "mc/nadir_explorer.h"
#include "nadir/interpreter.h"
#include "topo/generators.h"

namespace zenith::apps {
namespace {

ExperimentConfig zenith_config(std::uint64_t seed = 7) {
  ExperimentConfig config;
  config.seed = seed;
  config.kind = ControllerKind::kZenithNR;
  return config;
}

DrainRequest diamond_drain_request(Experiment& exp, Workload& workload) {
  DrainRequest request;
  request.topology = gen::figure2_diamond();
  for (const Demand& d : workload.demands()) {
    request.flows.push_back(d.flow);
  }
  request.ops = workload.all_flow_ops();
  // Current path: A -> B -> D.
  request.paths = {{SwitchId(0), SwitchId(1), SwitchId(3)}};
  request.node_to_drain = SwitchId(1);
  (void)exp;
  return request;
}

TEST(DrainAppTest, HitlessDrainMovesTrafficOffSwitch) {
  Experiment exp(gen::figure2_diamond(), zenith_config());
  exp.start();
  Workload workload(&exp, 3);
  Dag initial = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(3)}});
  ASSERT_TRUE(exp.install_and_wait(std::move(initial), seconds(10)).has_value());

  DrainApp app(&exp.controller());
  app.submit(diamond_drain_request(exp, workload));
  auto drained = exp.run_until(
      [&] { return exp.fabric().at(SwitchId(1)).table_size() == 0; },
      seconds(20));
  ASSERT_TRUE(drained.has_value()) << "switch B still carries rules";
  EXPECT_EQ(app.drains_completed(), 1u);
  // Traffic flows via C now.
  EXPECT_TRUE(exp.fabric().at(SwitchId(2)).lookup(SwitchId(3)).has_value());
  EXPECT_TRUE(exp.order_checker().ok());
}

TEST(DrainAppTest, RefusesDisconnectingDrain) {
  // Draining the only transit node of a chain would disconnect endpoints.
  Experiment exp(gen::linear(3), zenith_config(11));
  exp.start();
  Workload workload(&exp, 5);
  Dag initial = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(2)}});
  ASSERT_TRUE(exp.install_and_wait(std::move(initial), seconds(10)).has_value());

  DrainApp app(&exp.controller());
  DrainRequest request;
  request.topology = gen::linear(3);
  request.paths = {{SwitchId(0), SwitchId(1), SwitchId(2)}};
  request.flows = {FlowId(1)};
  request.ops = workload.all_flow_ops();
  request.node_to_drain = SwitchId(1);
  app.submit(std::move(request));
  exp.run_for(seconds(1));
  EXPECT_EQ(app.drains_completed(), 0u);
  EXPECT_EQ(app.drains_rejected(), 1u);
  // The network is untouched.
  EXPECT_GT(exp.fabric().at(SwitchId(1)).table_size(), 0u);
}

TEST(DrainAppTest, CapacityFractionInvariant) {
  // compute_drain_dag refuses when too much capacity is already drained.
  DrainRequest request;
  request.topology = gen::fat_tree(4);
  request.node_to_drain = SwitchId(0);
  OpIdAllocator ids;
  auto result = compute_drain_dag(request, DagId(1), ids,
                                  /*max_capacity_fraction=*/0.25,
                                  /*switches_drained_so_far=*/5);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, Error::Code::kFailedPrecondition);
}

TEST(DrainAppTest, UndrainRestoresShortestPaths) {
  Experiment exp(gen::figure2_diamond(), zenith_config(13));
  exp.start();
  Workload workload(&exp, 3);
  Dag initial = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(3)}});
  ASSERT_TRUE(exp.install_and_wait(std::move(initial), seconds(10)).has_value());

  DrainApp app(&exp.controller());
  app.submit(diamond_drain_request(exp, workload));
  ASSERT_TRUE(exp.run_until(
                     [&] { return app.drains_completed() == 1; }, seconds(10))
                  .has_value());
  exp.run_for(seconds(2));

  // Undrain: restore B to service; paths recompute over the full topology.
  DrainRequest undrain;
  undrain.topology = gen::figure2_diamond();
  undrain.paths = app.current_paths();
  undrain.flows = app.current_flows();
  undrain.ops = app.current_ops();
  undrain.node_to_drain = SwitchId(1);
  undrain.undrain = true;
  app.submit(std::move(undrain));
  auto restored = exp.run_until(
      [&] { return exp.fabric().at(SwitchId(1)).table_size() > 0; },
      seconds(20));
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(app.drained().empty());
}

TEST(DrainSpecTest, SpecProducesSameDagShapeAsRuntimeApp) {
  // Conformance: interpret the NADIR drain spec to quiescence and compare
  // the produced DAG against the hand-written compute_drain_dag.
  DrainSpecScenario scenario;  // diamond, drain node 1, path 0-1-3
  nadir::Spec spec = build_drain_spec(scenario);
  auto env = spec.make_initial_env();
  ASSERT_TRUE(env.ok());
  nadir::Interpreter::run_to_quiescence(spec, env.value());
  ASSERT_TRUE(spec.check_types(env.value()).ok());
  EXPECT_TRUE(drain_submitted(env.value()));
  EXPECT_EQ(check_no_traffic_via_drained(env.value(), scenario.node_to_drain),
            "");

  // Runtime equivalent.
  DrainRequest request;
  request.topology = gen::figure2_diamond();
  request.paths = {{SwitchId(0), SwitchId(1), SwitchId(3)}};
  request.flows = {FlowId(1)};
  OpIdAllocator seed_ids;
  CompiledPath old_path = compile_single_path(
      {SwitchId(0), SwitchId(1), SwitchId(3)}, FlowId(1), 1, seed_ids);
  request.ops = old_path.ops;
  request.node_to_drain = SwitchId(1);
  OpIdAllocator ids;
  auto result = compute_drain_dag(request, DagId(1), ids);
  ASSERT_TRUE(result.ok());

  // Same structure: 2 new installs (0->2, 2->3) + 2 deletions.
  const nadir::Value& queue = env.value().globals.at("InstalledDags");
  EXPECT_EQ(queue.size(), 1u);
  std::size_t spec_installs = 0;
  const auto& drainer = env.value().procs.at("drainer");
  const nadir::Value& dag = drainer.locals.at("drainedDAG");
  ASSERT_FALSE(dag.is_nil());
  std::size_t spec_deletes = 0;
  for (const nadir::Value& op : dag.field("v").as_set()) {
    if (op.field("op").as_int() < 0) {
      ++spec_deletes;
    } else {
      ++spec_installs;
    }
  }
  EXPECT_EQ(spec_installs, result.value().new_ops.size());
  EXPECT_EQ(spec_deletes, request.ops.size());
}

TEST(DrainSpecTest, IndependentVerificationAgainstAbstractCore) {
  DrainSpecScenario scenario;
  nadir::Spec spec = build_drain_spec(scenario);
  mc::NadirCheckerOptions options;
  options.invariant = [&](const nadir::Env& env) {
    return check_no_traffic_via_drained(env, scenario.node_to_drain);
  };
  options.quiescence = [](const nadir::Env& env) {
    return drain_submitted(env) ? "" : "drainer never submitted a DAG";
  };
  mc::NadirCheckResult result = mc::explore(spec, options);
  EXPECT_TRUE(result.ok) << result.violation;
  EXPECT_FALSE(result.capped);
  EXPECT_GT(result.distinct_states, 2u);
}

TEST(TeAppTest, RepairsAroundFailedSwitch) {
  Topology topo = gen::b4();
  Experiment exp(topo, zenith_config(17));
  exp.start();
  TrafficModel telemetry(&exp.fabric());
  TrafficEngineeringApp te(&exp.controller(), &exp.topology(), &telemetry);
  std::vector<Demand> demands{{FlowId(1), SwitchId(0), SwitchId(8), 5.0}};
  DagId initial = te.install_initial_paths(demands);
  ASSERT_TRUE(initial.valid());
  auto converged = exp.run_until(
      [&] { return exp.checker().converged(initial); }, seconds(20));
  ASSERT_TRUE(converged.has_value());

  // Fail a transit switch on the flow's path.
  Resolution before = telemetry.resolve(demands[0]);
  ASSERT_EQ(before.outcome, DeliveryOutcome::kDelivered);
  SwitchId victim = before.path[1];
  exp.fabric().inject_failure(victim, FailureMode::kCompletePermanent);
  auto repaired = exp.run_until(
      [&] {
        Resolution now = telemetry.resolve(demands[0]);
        return now.outcome == DeliveryOutcome::kDelivered;
      },
      seconds(30));
  ASSERT_TRUE(repaired.has_value());
  EXPECT_GE(te.repair_dags(), 1u);
}

TEST(GeneratedDrainAppTest, SpecDrivenDrainMatchesHandWrittenApp) {
  // The NADIR-generated app (interpreted verified spec) must produce the
  // same drained data plane as the hand-written DrainApp.
  Experiment exp(gen::figure2_diamond(), zenith_config(31));
  exp.start();
  Workload workload(&exp, 37);
  Dag initial = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(3)}});
  ASSERT_TRUE(exp.install_and_wait(std::move(initial), seconds(10)).has_value());

  GeneratedDrainApp app(&exp.controller());
  DrainRequest request;
  request.topology = gen::figure2_diamond();
  request.paths = {{SwitchId(0), SwitchId(1), SwitchId(3)}};
  request.flows = {FlowId(1)};
  request.ops = workload.all_flow_ops();
  request.node_to_drain = SwitchId(1);
  app.submit(request);

  auto drained = exp.run_until(
      [&] {
        return app.dags_submitted() == 1 &&
               exp.fabric().at(SwitchId(1)).table_size() == 0 &&
               exp.fabric().at(SwitchId(2)).lookup(SwitchId(3)).has_value();
      },
      seconds(20));
  ASSERT_TRUE(drained.has_value()) << "generated app did not drain B";
  EXPECT_TRUE(exp.order_checker().ok());
  // Final forwarding state identical to the hand-written app's: A->C, C->D.
  auto a_entry = exp.fabric().at(SwitchId(0)).lookup(SwitchId(3));
  ASSERT_TRUE(a_entry.has_value());
  EXPECT_EQ(a_entry->rule.next_hop, SwitchId(2));
}

TEST(GeneratedDrainAppTest, SurvivesCrashMidComputation) {
  // The runtime spec uses the crash-safe queue discipline; crashing the
  // generated app mid-request must not lose the drain.
  Experiment exp(gen::figure2_diamond(), zenith_config(41));
  exp.start();
  Workload workload(&exp, 43);
  Dag initial = workload.initial_dag_for_pairs({{SwitchId(0), SwitchId(3)}});
  ASSERT_TRUE(exp.install_and_wait(std::move(initial), seconds(10)).has_value());
  GeneratedDrainApp app(&exp.controller());
  DrainRequest request;
  request.topology = gen::figure2_diamond();
  request.paths = {{SwitchId(0), SwitchId(1), SwitchId(3)}};
  request.flows = {FlowId(1)};
  request.ops = workload.all_flow_ops();
  request.node_to_drain = SwitchId(1);
  app.submit(request);
  // Crash between the first interpreted steps, twice.
  exp.run_for(micros(200));
  app.crash();
  app.restart();
  exp.run_for(micros(350));
  app.crash();
  app.restart();
  auto drained = exp.run_until(
      [&] { return exp.fabric().at(SwitchId(1)).table_size() == 0; },
      seconds(20));
  EXPECT_TRUE(drained.has_value());
}

TEST(TeAppTest, ReroutesAroundFailedLink) {
  Experiment exp(gen::figure2_diamond(), zenith_config(29));
  exp.start();
  TrafficModel telemetry(&exp.fabric());
  TrafficEngineeringApp te(&exp.controller(), &exp.topology(), &telemetry);
  std::vector<Demand> demands{{FlowId(1), SwitchId(0), SwitchId(3), 5.0}};
  DagId initial = te.install_initial_paths(demands);
  ASSERT_TRUE(exp.run_until(
                     [&] { return exp.checker().converged_scoped(initial); },
                     seconds(20))
                  .has_value());
  // Kill the first link of the active path (A-B); both switches stay up.
  Resolution before = telemetry.resolve(demands[0]);
  ASSERT_EQ(before.outcome, DeliveryOutcome::kDelivered);
  auto link =
      exp.topology().link_between(before.path[0], before.path[1]);
  ASSERT_TRUE(link.ok());
  exp.fabric().inject_link_failure(link.value());
  auto repaired = exp.run_until(
      [&] {
        Resolution now = telemetry.resolve(demands[0]);
        return now.outcome == DeliveryOutcome::kDelivered;
      },
      seconds(30));
  ASSERT_TRUE(repaired.has_value()) << "TE never rerouted around the link";
  // The new path avoids the dead link (via C).
  Resolution after = telemetry.resolve(demands[0]);
  EXPECT_EQ(after.path[1], SwitchId(2));
  // The NIB's topology view learned the transition (T_c, Table 2).
  EXPECT_FALSE(exp.nib().link_up(link.value()));
}

TEST(FailoverAppTest, SequentialFailoversComplete) {
  Experiment exp(gen::linear(4), zenith_config(19));
  exp.start();
  FailoverApp app(&exp.controller());
  app.request_failover();
  app.request_failover();
  auto done = exp.run_until([&] { return app.completed() == 2; }, seconds(20));
  ASSERT_TRUE(done.has_value());
  for (auto [requested, completed] : app.completions()) {
    EXPECT_GT(completed, requested);
    EXPECT_LT(completed - requested, seconds(5));
  }
  // Final master role propagated.
  EXPECT_EQ(exp.fabric().at(SwitchId(0)).controller_role(), 2);
}

TEST(TeAppTest, ResplitSurvivesShardLeaderKillMidBatch) {
  // A TE re-split races an unplanned shard-leader kill while its install
  // batch is in flight, on a replicated control plane. The run must
  // converge and hold the pipeline invariants at quiescence.
  Topology topo = gen::b4();
  ExperimentConfig config = zenith_config(59);
  config.core.repl.num_shards = 2;
  Experiment exp(topo, config);
  exp.start();
  TrafficModel telemetry(&exp.fabric());
  TrafficEngineeringApp te(&exp.controller(), &exp.topology(), &telemetry);
  std::vector<Demand> demands{{FlowId(1), SwitchId(0), SwitchId(8), 5.0},
                              {FlowId(2), SwitchId(1), SwitchId(7), 5.0}};
  DagId initial = te.install_initial_paths(demands);
  ASSERT_TRUE(initial.valid());
  ASSERT_TRUE(exp.run_until([&] { return exp.checker().converged(initial); },
                            seconds(20))
                  .has_value());

  // Fail a transit switch to force the re-split, then kill a shard leader
  // while the replacement batch is mid-flight.
  Resolution before = telemetry.resolve(demands[0]);
  ASSERT_EQ(before.outcome, DeliveryOutcome::kDelivered);
  exp.fabric().inject_failure(before.path[1], FailureMode::kCompletePermanent);
  exp.run_for(millis(2));
  exp.controller().repl()->kill_shard_leader(0);
  exp.run_for(millis(40));
  exp.controller().repl()->revive_shard(0);

  auto repaired = exp.run_until(
      [&] {
        Resolution now = telemetry.resolve(demands[0]);
        return now.outcome == DeliveryOutcome::kDelivered &&
               exp.controller().repl()->settled();
      },
      seconds(40));
  ASSERT_TRUE(repaired.has_value()) << "TE never repaired under the kill";
  // Full quiescence before the oracle: every transitional status drained,
  // no un-acked SENT toward a healthy switch.
  auto quiesced = exp.run_until(
      [&] {
        if (!exp.controller().repl()->settled()) return false;
        if (!exp.nib().ops_with_status(OpStatus::kScheduled).empty()) {
          return false;
        }
        if (!exp.nib().ops_with_status(OpStatus::kInFlight).empty()) {
          return false;
        }
        for (OpId id : exp.nib().ops_with_status(OpStatus::kSent)) {
          const Op& op = exp.nib().op(id);
          if (exp.nib().switch_up(op.sw) && exp.fabric().alive(op.sw)) {
            return false;
          }
        }
        return true;
      },
      seconds(30));
  ASSERT_TRUE(quiesced.has_value()) << "pipeline never drained";

  // P1–P8 and R1–R4 via the model-conformance oracle.
  mc::FaultHistory history;
  history.assume_any = true;
  std::vector<std::string> violations =
      mc::check_quiescent(exp, initial, history);
  EXPECT_TRUE(violations.empty())
      << "first violation: " << violations.front();
  EXPECT_TRUE(exp.order_checker().ok());
}

TEST(AbstractAppTest, ReactsToFailureWithPredefinedDag) {
  Experiment exp(gen::figure2_diamond(), zenith_config(23));
  exp.start();
  AbstractApp app(&exp.controller());

  // Pre-defined DAGs (§3.6): healthy -> route via B; B down -> route via C.
  OpIdAllocator& ids = exp.op_ids();
  auto make_dag = [&](DagId id, const Path& path) {
    Dag dag(id);
    CompiledPath compiled = compile_single_path(path, FlowId(1), 1, ids);
    for (const Op& op : compiled.ops) EXPECT_TRUE(dag.add_op(op).ok());
    for (auto [a, b] : compiled.edges) EXPECT_TRUE(dag.add_edge(a, b).ok());
    return dag;
  };
  std::set<SwitchId> all{SwitchId(0), SwitchId(1), SwitchId(2), SwitchId(3)};
  std::set<SwitchId> without_b{SwitchId(0), SwitchId(2), SwitchId(3)};
  app.add_dag_for(all, make_dag(DagId(501),
                                {SwitchId(0), SwitchId(1), SwitchId(3)}));
  app.add_dag_for(without_b, make_dag(DagId(502),
                                      {SwitchId(0), SwitchId(2), SwitchId(3)}));
  app.bootstrap();
  auto installed = exp.run_until(
      [&] { return exp.checker().converged(DagId(501)); }, seconds(20));
  ASSERT_TRUE(installed.has_value());

  exp.fabric().inject_failure(SwitchId(1), FailureMode::kCompletePermanent);
  auto reacted = exp.run_until(
      [&] { return exp.checker().converged(DagId(502)); }, seconds(30));
  ASSERT_TRUE(reacted.has_value());
  EXPECT_EQ(app.dags_installed(), 2u);
  // §3.6 guarantee: no routing state of the deleted DAG survives.
  EXPECT_FALSE(exp.fabric().at(SwitchId(0)).lookup(SwitchId(3))->rule.next_hop ==
               SwitchId(1));
}

}  // namespace
}  // namespace zenith::apps
