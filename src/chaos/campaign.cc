#include "chaos/campaign.h"

#include <functional>
#include <sstream>

#include "common/logging.h"
#include "common/rng.h"
#include "harness/workload.h"
#include "obs/obs.h"
#include "to/orchestrator.h"
#include "topo/generators.h"

namespace zenith::chaos {

namespace {

constexpr std::uint64_t kWorkloadSalt = 0x5EEDF00D5EEDF00Dull;
constexpr std::uint64_t kTakeoverDelaySalt = 0x7A6E0FE2DE1A75A1ull;

std::uint64_t fnv1a(std::uint64_t hash, const std::string& text) {
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Stats label for an injection step (kAllow steps are not faults).
std::string step_label(const to::TraceStep& step) {
  using Type = to::TraceStep::Type;
  switch (step.type) {
    case Type::kSwitchFail:
      switch (step.mode) {
        case FailureMode::kCompletePermanent:
          return "switch-fail(permanent)";
        case FailureMode::kPartialTransient:
          return "switch-fail(partial)";
        case FailureMode::kCompleteTransient:
          return "switch-fail(complete)";
      }
      return "switch-fail";
    case Type::kSwitchRecover: return "switch-recover";
    case Type::kLinkFail: return "link-fail";
    case Type::kLinkRecover: return "link-recover";
    case Type::kCrashComponent: return "component-crash";
    case Type::kCrashOfc: return "ofc-crash";
    case Type::kCrashDe: return "de-crash";
    case Type::kDropReplies: return "reply-burst-loss";
    case Type::kReplKillLeader: return "repl-kill-leader";
    case Type::kReplRevive: return "repl-revive";
    case Type::kReplPartitionLeader: return "repl-partition-leader";
    case Type::kReplHeal: return "repl-heal";
    case Type::kReplLeaseStall: return "repl-lease-stall";
    case Type::kReplLeaseResume: return "repl-lease-resume";
    case Type::kAllow: return "allow";
  }
  return "?";
}

/// Installed by mc::enable_campaign_lockstep_oracle(); intentionally a plain
/// process global — campaigns are configured per-run, the oracle is a
/// link-time capability.
LockstepOracle g_lockstep_oracle;

}  // namespace

void set_campaign_lockstep_oracle(LockstepOracle oracle) {
  g_lockstep_oracle = std::move(oracle);
}

bool campaign_lockstep_oracle_installed() {
  return static_cast<bool>(g_lockstep_oracle);
}

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kDiamond: return "diamond";
    case TopologyKind::kLinear: return "linear";
    case TopologyKind::kRing: return "ring";
    case TopologyKind::kB4: return "b4";
    case TopologyKind::kFatTree: return "fat-tree";
    case TopologyKind::kKdlLike: return "kdl";
    case TopologyKind::kRandomConnected: return "random-connected";
  }
  return "?";
}

Topology make_topology(const CampaignConfig& config) {
  switch (config.topology) {
    case TopologyKind::kDiamond: return gen::figure2_diamond();
    case TopologyKind::kLinear: return gen::linear(config.topology_size);
    case TopologyKind::kRing: return gen::ring(config.topology_size);
    case TopologyKind::kB4: return gen::b4();
    case TopologyKind::kFatTree: return gen::fat_tree(config.topology_size);
    case TopologyKind::kKdlLike:
      return gen::kdl_like(config.topology_size, config.seed);
    case TopologyKind::kRandomConnected:
      return gen::random_connected(config.topology_size,
                                   config.topology_size / 4, config.seed);
  }
  return gen::figure2_diamond();
}

std::uint64_t CampaignResult::verdict_digest() const {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  hash = fnv1a(hash, ok ? "ok" : "violation");
  for (const std::string& violation : violations) hash = fnv1a(hash, violation);
  std::ostringstream tail;
  tail << schedule_fingerprint << "|" << trace_fingerprint << "|"
       << metrics_fingerprint << "|" << stats.faults_injected << "|"
       << stats.dags_submitted << "|" << stats.dags_certified << "|"
       << stats.installs_observed << "|" << stats.sim_events_executed;
  return fnv1a(hash, tail.str());
}

std::string CampaignResult::summary() const {
  std::ostringstream out;
  out << (ok ? "OK" : "VIOLATION") << " faults=" << stats.faults_injected
      << " dags=" << stats.dags_certified << "/" << stats.dags_submitted
      << " installs=" << stats.installs_observed;
  if (!violations.empty()) out << " :: " << violations.front();
  return out.str();
}

to::Trace schedule_to_trace(const ChaosSchedule& schedule, std::string name,
                            std::string violation) {
  to::Trace trace;
  trace.name = std::move(name);
  trace.violation = std::move(violation);
  SimTime previous = 0;
  for (const ChaosEvent& event : schedule.events) {
    to::TraceStep step;
    step.delay = event.at - previous;
    previous = event.at;
    switch (event.kind) {
      case FaultKind::kSwitchFail:
        step.type = to::TraceStep::Type::kSwitchFail;
        step.sw = event.sw;
        step.mode = event.mode;
        break;
      case FaultKind::kSwitchRecover:
        step.type = to::TraceStep::Type::kSwitchRecover;
        step.sw = event.sw;
        break;
      case FaultKind::kLinkFail:
        step.type = to::TraceStep::Type::kLinkFail;
        step.link = event.link;
        break;
      case FaultKind::kLinkRecover:
        step.type = to::TraceStep::Type::kLinkRecover;
        step.link = event.link;
        break;
      case FaultKind::kComponentCrash:
        step.type = to::TraceStep::Type::kCrashComponent;
        step.component = event.component;
        break;
      case FaultKind::kOfcCrash:
        step.type = to::TraceStep::Type::kCrashOfc;
        break;
      case FaultKind::kDeCrash:
        step.type = to::TraceStep::Type::kCrashDe;
        break;
      case FaultKind::kReplyBurstLoss:
        step.type = to::TraceStep::Type::kDropReplies;
        break;
      case FaultKind::kReplKillLeader:
        step.type = to::TraceStep::Type::kReplKillLeader;
        step.shard = event.shard;
        break;
      case FaultKind::kReplRevive:
        step.type = to::TraceStep::Type::kReplRevive;
        step.shard = event.shard;
        break;
      case FaultKind::kReplPartitionLeader:
        step.type = to::TraceStep::Type::kReplPartitionLeader;
        step.shard = event.shard;
        break;
      case FaultKind::kReplHeal:
        step.type = to::TraceStep::Type::kReplHeal;
        step.shard = event.shard;
        break;
      case FaultKind::kReplLeaseStall:
        step.type = to::TraceStep::Type::kReplLeaseStall;
        step.shard = event.shard;
        break;
      case FaultKind::kReplLeaseResume:
        step.type = to::TraceStep::Type::kReplLeaseResume;
        step.shard = event.shard;
        break;
    }
    trace.steps.push_back(std::move(step));
  }
  return trace;
}

ChaosCampaign::ChaosCampaign(CampaignConfig config)
    : config_(std::move(config)) {}

CampaignResult ChaosCampaign::run() {
  Topology topo = make_topology(config_);
  schedule_ =
      generate_schedule(topo, config_.core, config_.schedule, config_.seed);
  return run(schedule_);
}

CampaignResult ChaosCampaign::run(const ChaosSchedule& schedule) {
  std::ostringstream name;
  name << "chaos/" << to_string(config_.topology) << "/seed"
       << config_.seed;
  CampaignResult result = replay(schedule_to_trace(schedule, name.str(), ""));
  result.schedule_fingerprint = schedule.fingerprint();
  return result;
}

CampaignResult ChaosCampaign::replay(const to::Trace& trace) {
  return replay(trace, nullptr);
}

CampaignResult ChaosCampaign::replay(const to::Trace& trace,
                                     obs::Observability* external) {
  CampaignResult result;
  result.schedule_fingerprint = fnv1a(0xcbf29ce484222325ull, trace.to_string());
  CampaignStats& stats = result.stats;

  // A campaign carries its own flight recorder sized for a full run's causal
  // tail; an external bundle (bench trace export) replaces it wholesale.
  obs::Observability local_obs(/*recorder_capacity=*/512);
  obs::Observability& o = external != nullptr ? *external : local_obs;

  ExperimentConfig experiment_config;
  experiment_config.seed = config_.seed;
  experiment_config.kind = config_.controller;
  experiment_config.core = config_.core;
  if (config_.randomize_takeover_delay) {
    // Pure function of the seed: the perturbed delay is part of the run's
    // identity, so equal seeds still fingerprint identically.
    Rng delay_rng(config_.seed ^ kTakeoverDelaySalt);
    experiment_config.core.failover_takeover_delay = static_cast<SimTime>(
        delay_rng.uniform(static_cast<double>(config_.takeover_delay_min),
                          static_cast<double>(config_.takeover_delay_max)));
  }
  Experiment exp(make_topology(config_), experiment_config);
  exp.attach_observability(&o);
  exp.start();
  Workload workload(&exp, config_.seed ^ kWorkloadSalt);

  std::vector<DagId> submitted;
  Dag initial = workload.initial_dag(config_.initial_flows);
  DagId last_dag = initial.id();
  submitted.push_back(last_dag);
  ++stats.dags_submitted;
  if (!exp.install_and_wait(std::move(initial), seconds(10)).has_value()) {
    result.violations.push_back(
        "initial DAG failed to converge before any fault was injected");
  }

  // Continuous hidden-entry watch (§G): an OP whose NIB record transitions
  // to NONE while its rule sits installed on a healthy, NIB-believed-UP
  // switch. The window can be microseconds (the level-triggered sequencer
  // self-heals by re-installing), hence the event-stream hook rather than a
  // polling probe.
  NadirFifo<NibEvent> hidden_probe;
  bool hidden_seen = false;
  std::string hidden_detail;
  // Recorder tail frozen at the instant a violation is first observed;
  // without this the dump would show end-of-run traffic, not the causal
  // window around the bug.
  std::string violation_dump;
  const bool watch_hidden =
      config_.check_hidden_entries && !is_pr_variant(config_.controller);
  if (watch_hidden) {
    hidden_probe.set_wake_callback([&] {
      while (!hidden_probe.empty()) {
        NibEvent event = hidden_probe.pop();
        if (hidden_seen ||
            event.type != NibEvent::Type::kOpStatusChanged ||
            event.op_status != OpStatus::kNone) {
          continue;
        }
        if (exp.fabric().alive(event.sw) &&
            exp.nib().switch_health(event.sw) == SwitchHealth::kUp &&
            exp.fabric().at(event.sw).has_entry(event.op)) {
          hidden_seen = true;
          std::ostringstream detail;
          detail << "hidden entry: op" << event.op.value()
                 << " reset to NONE at t=" << to_seconds(exp.sim().now())
                 << "s while installed on healthy sw" << event.sw.value();
          hidden_detail = detail.str();
          o.event("oracle", "violation", hidden_detail);
          violation_dump = o.recorder().dump();
        }
      }
    });
    exp.nib().subscribe(&hidden_probe);
  }

  // Live workload: a fresh update DAG every update_period until the fault
  // horizon ends, racing the injections.
  const SimTime traffic_until = exp.sim().now() + config_.schedule.horizon;
  // Self-rescheduling pump; the function object outlives every scheduled
  // copy (all simulator events die with `exp`, declared earlier).
  std::function<void()> pump;
  pump = [&] {
    if (exp.sim().now() > traffic_until) return;
    if (auto update = workload.next_update_dag()) {
      last_dag = update->id();
      submitted.push_back(last_dag);
      ++stats.dags_submitted;
      exp.order_checker().register_dag(*update);
      exp.controller().submit_dag(std::move(*update));
    }
    exp.sim().schedule(config_.update_period, pump);
  };
  exp.sim().schedule(config_.update_period, pump);

  // Drive the fault schedule through the Trace Orchestrator (ungated:
  // components run freely, the trace contributes only timed injections).
  to::TraceOrchestrator orchestrator(&exp, /*gate_components=*/false);
  orchestrator.replay(trace);
  for (const to::TraceStep& step : trace.steps) {
    if (step.type == to::TraceStep::Type::kAllow) continue;
    ++stats.faults_injected;
    ++stats.faults_by_kind[step_label(step)];
    o.count("chaos_faults", {{"kind", step_label(step)}});
  }

  // Let the horizon play out (replay stops at the last step's timestamp).
  if (exp.sim().now() < traffic_until) {
    exp.run_for(traffic_until - exp.sim().now());
  }

  // Quiescence oracle. Superseded DAGs legitimately never certify (DAG
  // admission replaces the current DAG and drops its un-sent OPs), so
  // certification is demanded of the last-submitted DAG only; the
  // view/table comparison covers the whole network. A DAG touching a
  // permanently-dead switch can never certify (P7 keeps its OPs unsent) —
  // the oracle then falls back to the network-wide comparison alone.
  auto touches_dead_switch = [&](DagId id) {
    if (!exp.nib().has_dag(id)) return false;
    for (SwitchId sw : exp.nib().dag(id).touched_switches()) {
      if (!exp.fabric().alive(sw)) return true;
    }
    return false;
  };
  auto quiescent = [&] {
    // Replication must settle first: follower commit indexes lag the leader
    // by a heartbeat, and declaring quiescence mid-catchup would turn that
    // lag into a spurious R4 violation in the sweep below.
    if (auto* repl = exp.controller().repl();
        repl != nullptr && !repl->settled()) {
      return false;
    }
    if (touches_dead_switch(last_dag)) {
      return exp.checker().check(std::nullopt).view_consistent;
    }
    return exp.checker().converged(last_dag);
  };
  auto settled = exp.run_until(quiescent, config_.settle_timeout);
  if (settled.has_value()) {
    stats.quiescence_latency = *settled;
  } else {
    ConsistencyReport report = exp.checker().check(last_dag);
    std::ostringstream msg;
    msg << "eventual consistency violated: ";
    if (!exp.nib().dag_is_done(last_dag) && !touches_dead_switch(last_dag)) {
      msg << "dag" << last_dag.value() << " never certified";
    } else if (!report.diffs.empty()) {
      msg << report.diffs.front();
    } else {
      msg << "quiescence not reached within settle timeout";
    }
    result.violations.push_back(msg.str());
  }

  // Final oracle sweep.
  for (const std::string& violation : exp.order_checker().violations()) {
    result.violations.push_back(violation);
  }
  if (hidden_seen) result.violations.push_back(hidden_detail);
  if (watch_hidden && exp.checker().hidden_entry_signature()) {
    result.violations.push_back(
        "hidden entry persists at quiescence (installed rule with NIB "
        "status NONE on a healthy switch)");
  }
  // Replication invariants (R1–R4) across every shard. The convergence
  // checks (R4) only apply when the run actually settled — an unsettled run
  // already reports an eventual-consistency violation above.
  if (auto* repl = exp.controller().repl(); repl != nullptr) {
    for (std::string& violation :
         repl->check_invariants(/*at_quiescence=*/settled.has_value())) {
      result.violations.push_back("repl: " + std::move(violation));
    }
  }

  for (DagId id : submitted) {
    if (exp.nib().dag_is_done(id)) ++stats.dags_certified;
  }
  // Optional model-conformance oracle: compares the quiesced implementation
  // state against what the formal-model substitute permits. Requesting it
  // without installing the hook is a configuration bug, reported loudly
  // rather than silently skipped.
  if (config_.lockstep) {
    if (g_lockstep_oracle) {
      for (std::string& violation : g_lockstep_oracle(exp, last_dag)) {
        result.violations.push_back("lockstep: " + std::move(violation));
      }
    } else {
      result.violations.push_back(
          "lockstep oracle requested but not installed; call "
          "mc::enable_campaign_lockstep_oracle() first");
    }
  }

  stats.installs_observed = exp.order_checker().installs_observed();
  stats.sim_events_executed = exp.sim().executed_events();
  result.ok = result.violations.empty();

  // Determinism contract: same seed => byte-identical trace + snapshot.
  result.trace_fingerprint = o.tracer().fingerprint();
  result.metrics_fingerprint = o.snapshot().fingerprint();
  if (!result.ok) {
    // The oracle flagged a violation: dump the causal tail automatically so
    // the reproducer ships with "what happened right before". Prefer the
    // tail frozen at the first online detection over the end-of-run state.
    result.flight_recorder_dump =
        violation_dump.empty() ? o.recorder().dump() : violation_dump;
  }
  // The bundle's clock references `exp`, which dies with this frame; freeze
  // it at the final SimTime for callers that keep the bundle around.
  o.set_clock([t = exp.sim().now()] { return t; });
  return result;
}

}  // namespace zenith::chaos
