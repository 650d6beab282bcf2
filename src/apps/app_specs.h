// NADIR specifications of the other two verified applications (§4, §6.3):
// traffic engineering and OFC planned failover. Like the drain spec, each
// is verified independently of the core — TE against an AbstractCore that
// consumes its DAGs, failover against an abstract switch-role model.
#pragma once

#include "nadir/spec.h"

namespace zenith::apps {

// ---- Traffic engineering -----------------------------------------------------

struct TeSpecScenario {
  std::size_t nodes = 4;
  std::vector<std::pair<int, int>> edges{{0, 1}, {1, 3}, {0, 2}, {2, 3}};
  /// Flow endpoints (src, dst).
  std::vector<std::pair<int, int>> flows{{0, 3}};
  /// Network events the model checker will deliver, in order: switch ids
  /// that fail (the TE app must reroute around each).
  std::vector<int> failure_events{1};
};

/// TE app process + AbstractCore. The app consumes network events from
/// "NetworkEvents", recomputes paths over the surviving topology, and
/// submits replacement DAGs to "DAGEventQueue".
nadir::Spec build_te_spec(const TeSpecScenario& scenario);

/// Invariant: no DAG submitted after a failure event routes through a
/// failed switch. "" when it holds.
std::string check_te_avoids_failed(const nadir::Env& env,
                                   const TeSpecScenario& scenario);

/// Progress: one DAG per processed failure event at quiescence.
bool te_all_events_handled(const nadir::Env& env,
                           const TeSpecScenario& scenario);

// ---- Planned OFC failover -----------------------------------------------------

struct FailoverSpecScenario {
  int switches = 3;
  /// OPs in flight toward the old instance when the request arrives.
  int in_flight_ops = 2;
};

/// Failover manager process (drain -> role change -> done), an ACK-drainer
/// process standing in for the Monitoring Server, and a role-change applier.
nadir::Spec build_failover_spec(const FailoverSpecScenario& scenario);

/// Safety invariant (the hitless property): the role change never starts
/// while OPs are still in flight toward the old master. "" when it holds.
std::string check_failover_drained(const nadir::Env& env);

/// Progress: at quiescence every switch follows the new master.
bool failover_completed(const nadir::Env& env,
                        const FailoverSpecScenario& scenario);

}  // namespace zenith::apps
