// ChaosCampaign: one seeded randomized-fault run with a live workload and
// an invariant oracle.
//
// From a single RNG seed the campaign derives everything: the topology
// (when seed-parameterized), the fault schedule, the workload's DAG update
// stream and every simulated delay — so a campaign is a pure function of
// (config, seed) and two runs with equal seeds produce identical schedules
// and identical verdicts. Execution is driven through the Trace
// Orchestrator (ungated), which is also how shrunk reproducers replay: the
// discovery path and the regression path share one engine.
//
// The oracle checks the paper's correctness conditions (§3.3) over the run:
//  * CorrectDAGOrder   — DagOrderChecker, online, over every submitted DAG;
//  * no hidden entries — the §G signature, watched continuously on the NIB
//                        event stream (the window can be microseconds);
//  * eventual consistency — at quiescence (all transient faults recovered,
//    schedule exhausted, settle time granted) the last-submitted DAG must
//    be certified in the NIB, ground truth must agree, and the full
//    NIB-view/switch-table comparison must be clean.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/schedule.h"
#include "harness/experiment.h"
#include "to/trace.h"

namespace zenith::obs {
class Observability;
}

namespace zenith::chaos {

enum class TopologyKind : std::uint8_t {
  kDiamond,   // the Figure 2 four-switch example
  kLinear,
  kRing,
  kB4,        // 12-site WAN
  kFatTree,   // topology_size is k (must be even)
  kKdlLike,   // sparse WAN, seed-parameterized
  kRandomConnected,  // spanning tree + n/4 extra edges, seed-parameterized
};

const char* to_string(TopologyKind kind);

struct CampaignConfig {
  std::uint64_t seed = 1;
  TopologyKind topology = TopologyKind::kKdlLike;
  /// Node count (kLinear/kRing/kKdlLike) or k (kFatTree); ignored otherwise.
  std::size_t topology_size = 20;
  ControllerKind controller = ControllerKind::kZenithNR;
  CoreConfig core;  // bug knobs for deliberate-defect hunts live here
  ChaosScheduleConfig schedule;
  /// Workload: initial flow count and the live DAG-update cadence.
  std::size_t initial_flows = 6;
  SimTime update_period = millis(250);
  /// Extra time after the schedule's horizon for the controller to reach
  /// quiescence before the oracle declares an eventual-consistency
  /// violation.
  SimTime settle_timeout = seconds(30);
  /// The hidden-entry probe presumes ZENITH recovery semantics; PR-style
  /// baselines leave hidden entries by design between reconciliations.
  bool check_hidden_entries = true;
  /// Perturb core.failover_takeover_delay with a seed-derived draw from
  /// [takeover_delay_min, takeover_delay_max] before the run: chaos then
  /// explores takeover-timing races, while the draw being a pure function of
  /// the seed keeps equal-seed runs byte-identical (the determinism
  /// fingerprints still match).
  bool randomize_takeover_delay = false;
  SimTime takeover_delay_min = millis(20);
  SimTime takeover_delay_max = millis(400);
  /// Run the model-conformance oracle at quiescence in addition to the
  /// campaign's own invariants. The oracle itself lives in the lockstep
  /// library (src/mc) — a layer above this one — so it is injected via
  /// set_campaign_lockstep_oracle(); call mc::enable_campaign_lockstep_oracle()
  /// once per process before enabling this flag.
  bool lockstep = false;
};

struct CampaignStats {
  std::size_t faults_injected = 0;
  std::map<std::string, std::size_t> faults_by_kind;
  std::size_t dags_submitted = 0;
  std::size_t dags_certified = 0;
  std::size_t installs_observed = 0;
  std::size_t sim_events_executed = 0;
  SimTime quiescence_latency = 0;  // horizon end -> oracle satisfied
};

struct CampaignResult {
  bool ok = true;
  std::vector<std::string> violations;
  CampaignStats stats;
  std::uint64_t schedule_fingerprint = 0;
  /// FNV-1a over every causal span the run recorded (ids, timestamps,
  /// parents, labels). Identical seeds must yield identical values — this is
  /// the byte-identical-trace determinism contract.
  std::uint64_t trace_fingerprint = 0;
  /// Same contract for the end-of-run metrics snapshot.
  std::uint64_t metrics_fingerprint = 0;
  /// Flight-recorder tail, captured only when the oracle flagged a
  /// violation; travels with the ddmin-shrunk reproducer
  /// (ShrinkResult::minimal_result) as the causal history of the failure.
  std::string flight_recorder_dump;
  /// Stable digest of (fingerprints, verdict, violation list): the value the
  /// determinism test compares across re-runs.
  std::uint64_t verdict_digest() const;
  std::string summary() const;
};

Topology make_topology(const CampaignConfig& config);

class ChaosCampaign {
 public:
  explicit ChaosCampaign(CampaignConfig config);

  /// Generates this seed's schedule and runs it.
  CampaignResult run();

  /// Runs an explicit schedule (the shrinker's entry point).
  CampaignResult run(const ChaosSchedule& schedule);

  /// Replays a reproducer trace (only injection steps are meaningful) under
  /// the same workload and oracle as a generated campaign.
  CampaignResult replay(const to::Trace& trace);

  /// Same, but reporting into a caller-supplied observability bundle instead
  /// of the campaign's own (the bench binaries use this to export Chrome
  /// traces of a run). The bundle's clock is left frozen at the run's final
  /// SimTime on return. With null, a campaign-local bundle is used — that is
  /// what fills the result's fingerprints and flight-recorder dump.
  CampaignResult replay(const to::Trace& trace, obs::Observability* external);

  /// The schedule run() generated (valid after run()).
  const ChaosSchedule& schedule() const { return schedule_; }

  const CampaignConfig& config() const { return config_; }

 private:
  CampaignConfig config_;
  ChaosSchedule schedule_;
};

/// Renders a schedule as a reproducer trace: one injection step per event,
/// inter-event gaps preserved in TraceStep::delay.
to::Trace schedule_to_trace(const ChaosSchedule& schedule, std::string name,
                            std::string violation);

/// Process-wide conformance hook. The chaos library cannot link against the
/// lockstep checker (mc depends on chaos, not vice versa), so the oracle is
/// injected as a function: given the quiesced experiment and the last
/// submitted DAG, return conformance violations (empty = conformant). The
/// campaign prefixes each returned message with "lockstep: ". Passing an
/// empty function uninstalls the hook.
using LockstepOracle =
    std::function<std::vector<std::string>(Experiment&, DagId last_dag)>;
void set_campaign_lockstep_oracle(LockstepOracle oracle);
bool campaign_lockstep_oracle_installed();

}  // namespace zenith::chaos
