#include "apps/app_specs.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace zenith::apps {

using nadir::FieldMap;
using nadir::Spec;
using nadir::StepContext;
using nadir::Type;
using nadir::Value;
using nadir::ValueVec;

namespace {

Value int_seq(const std::vector<int>& xs) {
  ValueVec items;
  items.reserve(xs.size());
  for (int x : xs) items.push_back(Value::integer(x));
  return Value::seq(std::move(items));
}

std::vector<std::vector<int>> bfs_paths(
    const std::set<int>& nodes, const std::set<std::pair<int, int>>& edges,
    const std::vector<std::pair<int, int>>& pairs) {
  std::map<int, std::vector<int>> adjacency;
  for (auto [a, b] : edges) {
    if (!nodes.count(a) || !nodes.count(b)) continue;
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }
  for (auto& [_, ns] : adjacency) std::sort(ns.begin(), ns.end());
  std::vector<std::vector<int>> out;
  for (auto [src, dst] : pairs) {
    if (!nodes.count(src) || !nodes.count(dst)) continue;
    std::map<int, int> parent;
    std::deque<int> frontier{src};
    parent[src] = src;
    while (!frontier.empty()) {
      int cur = frontier.front();
      frontier.pop_front();
      if (cur == dst) break;
      for (int next : adjacency[cur]) {
        if (!parent.count(next)) {
          parent[next] = cur;
          frontier.push_back(next);
        }
      }
    }
    if (!parent.count(dst)) continue;
    std::vector<int> path{dst};
    int hop = dst;
    while (hop != src) {
      hop = parent[hop];
      path.push_back(hop);
    }
    std::reverse(path.begin(), path.end());
    out.push_back(std::move(path));
  }
  return out;
}

}  // namespace

// ---- TE spec -------------------------------------------------------------------

nadir::Spec build_te_spec(const TeSpecScenario& scenario) {
  Spec spec("TrafficEngineeringApp");

  auto op_type = Type::record({{"op", Type::integer()},
                               {"sw", Type::integer()},
                               {"nh", Type::integer()},
                               {"dst", Type::integer()},
                               {"priority", Type::integer()}});
  auto dag_type = Type::record({{"id", Type::integer()},
                                {"v", Type::set(op_type)},
                                {"e", Type::set(Type::seq(Type::integer()))}});

  ValueVec events;
  for (int sw : scenario.failure_events) {
    events.push_back(Value::integer(sw));
  }
  spec.global("DAGEventQueue", Type::seq(dag_type), Value::seq({}), true);
  spec.global("NetworkEvents", Type::seq(Type::integer()),
              Value::seq(std::move(events)), true);
  spec.global("DownSwitches", Type::set(Type::integer()), Value::set({}),
              true);
  spec.global("InstalledDags", Type::set(Type::integer()), Value::set({}),
              true);

  // Capture the static scenario by value in the step closures (in PlusCal
  // these are CONSTANTS of the module).
  auto nodes_of = [scenario] {
    std::set<int> nodes;
    for (std::size_t i = 0; i < scenario.nodes; ++i) {
      nodes.insert(static_cast<int>(i));
    }
    return nodes;
  };
  auto edges_of = [scenario] {
    std::set<std::pair<int, int>> edges(scenario.edges.begin(),
                                        scenario.edges.end());
    return edges;
  };

  nadir::Process te("TEApp");
  te.local("nextDagId", Type::integer(), Value::integer(1));
  te.local("opIndex", Type::integer(), Value::integer(100));
  te.step(nadir::Step{
      "TELoop",
      {"NetworkEvents", "DownSwitches", "DAGEventQueue"},
      {"NetworkEvents", "DownSwitches", "DAGEventQueue"},
      [scenario, nodes_of, edges_of](StepContext& ctx) {
        Value event = ctx.fifo_get("NetworkEvents");
        if (ctx.blocked()) return;
        int failed = static_cast<int>(event.as_int());
        Value down = ctx.global("DownSwitches").set_insert(event);
        ctx.set_global("DownSwitches", down);
        // Recompute every flow's path over the surviving topology and
        // submit one replacement DAG.
        std::set<int> nodes = nodes_of();
        for (const Value& d : down.as_set()) {
          nodes.erase(static_cast<int>(d.as_int()));
        }
        std::set<std::pair<int, int>> edges = edges_of();
        (void)failed;
        std::vector<std::pair<int, int>> pairs;
        for (auto [src, dst] : scenario.flows) {
          if (nodes.count(src) && nodes.count(dst)) pairs.emplace_back(src, dst);
        }
        ValueVec ops;
        ValueVec dag_edges;
        std::int64_t op_index = ctx.local("opIndex").as_int();
        for (const auto& path : bfs_paths(nodes, edges, pairs)) {
          std::vector<std::int64_t> ids;
          for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            std::int64_t id = op_index++;
            ids.push_back(id);
            ops.push_back(Value::record(
                FieldMap{{"op", Value::integer(id)},
                         {"sw", Value::integer(path[i])},
                         {"nh", Value::integer(path[i + 1])},
                         {"dst", Value::integer(path.back())},
                         {"priority", Value::integer(2)}}));
          }
          for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
            dag_edges.push_back(int_seq({static_cast<int>(ids[i + 1]),
                                         static_cast<int>(ids[i])}));
          }
        }
        Value dag = Value::record(
            FieldMap{{"id", ctx.local("nextDagId")},
                     {"v", Value::set(std::move(ops))},
                     {"e", Value::set(std::move(dag_edges))}});
        // §3.6 semantics: the app deletes the (now invalid) pending DAG and
        // installs the one consistent with the updated topology — a queued
        // DAG that predates this event is withdrawn, not left to install.
        ctx.set_global("DAGEventQueue", Value::seq({std::move(dag)}));
        ctx.set_local("nextDagId",
                      Value::integer(ctx.local("nextDagId").as_int() + 1));
        ctx.set_local("opIndex", Value::integer(op_index));
        ctx.jump("TELoop");
      }});
  spec.process(std::move(te));

  nadir::Process abstract_core("AbstractCore");
  abstract_core.step(nadir::Step{
      "CoreLoop",
      {"DAGEventQueue", "InstalledDags"},
      {"DAGEventQueue", "InstalledDags"},
      [](StepContext& ctx) {
        Value dag = ctx.fifo_get("DAGEventQueue");
        if (ctx.blocked()) return;
        ctx.set_global("InstalledDags",
                       ctx.global("InstalledDags").set_insert(dag.field("id")));
        ctx.jump("CoreLoop");
      }});
  spec.process(std::move(abstract_core));
  return spec;
}

std::string check_te_avoids_failed(const nadir::Env& env,
                                   const TeSpecScenario& scenario) {
  (void)scenario;
  const Value& down = env.globals.at("DownSwitches");
  const Value& queue = env.globals.at("DAGEventQueue");
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const Value& dag = queue.at(i);
    for (const Value& op : dag.field("v").as_set()) {
      if (down.set_contains(op.field("sw")) ||
          down.set_contains(op.field("nh"))) {
        return "TE DAG " + std::to_string(dag.field("id").as_int()) +
               " routes via a failed switch";
      }
    }
  }
  return "";
}

bool te_all_events_handled(const nadir::Env& env,
                           const TeSpecScenario& scenario) {
  return env.globals.at("InstalledDags").size() >=
         scenario.failure_events.size();
}

// ---- Failover spec ---------------------------------------------------------------

nadir::Spec build_failover_spec(const FailoverSpecScenario& scenario) {
  Spec spec("PlannedFailoverApp");

  ValueVec in_flight;
  for (int i = 0; i < scenario.in_flight_ops; ++i) {
    in_flight.push_back(Value::integer(i + 1));
  }
  ValueVec roles;
  for (int sw = 0; sw < scenario.switches; ++sw) {
    roles.push_back(Value::integer(0));  // roles[sw] = master instance
  }
  auto phase_type = Type::enumeration({"IDLE", "DRAINING", "ROLE_CHANGE"});

  spec.global("FailoverRequests", Type::seq(Type::integer()),
              Value::seq({Value::integer(1)}), true);
  spec.global("Phase", phase_type, Value::string("IDLE"), true);
  spec.global("InFlightOps", Type::set(Type::integer()),
              Value::set(std::move(in_flight)), true);
  spec.global("SwitchRoles", Type::seq(Type::integer()),
              Value::seq(std::move(roles)), true);
  spec.global("Master", Type::integer(), Value::integer(0), true);
  spec.global("Target", Type::integer(), Value::integer(0), true);

  nadir::Process manager("FailoverManager");
  manager.step(nadir::Step{
      "AwaitRequest",
      {"FailoverRequests", "Phase", "Target"},
      {"FailoverRequests", "Phase", "Target"},
      [](StepContext& ctx) {
        Value request = ctx.fifo_get("FailoverRequests");
        if (ctx.blocked()) return;
        ctx.set_global("Target", request);
        ctx.set_global("Phase", Value::string("DRAINING"));
      }});
  manager.step(nadir::Step{
      "Drain",
      {"InFlightOps", "Phase"},
      {"Phase"},
      [](StepContext& ctx) {
        // The verified behaviour: wait for every in-flight ACK before
        // moving the role (P3 processing + the Figure 15 drain).
        ctx.await(ctx.global("InFlightOps").size() == 0);
        if (ctx.blocked()) return;
        ctx.set_global("Phase", Value::string("ROLE_CHANGE"));
      }});
  manager.step(nadir::Step{
      "RoleChange",
      {"SwitchRoles", "Target", "Phase", "Master"},
      {"SwitchRoles", "Phase", "Master"},
      [](StepContext& ctx) {
        // Move one switch per step (each role change is its own message).
        const Value& roles = ctx.global("SwitchRoles");
        const Value& target = ctx.global("Target");
        for (std::size_t sw = 0; sw < roles.size(); ++sw) {
          if (roles.at(sw).as_int() != target.as_int()) {
            ValueVec updated = roles.as_seq();
            updated[sw] = target;
            ctx.set_global("SwitchRoles", Value::seq(std::move(updated)));
            ctx.jump("RoleChange");
            return;
          }
        }
        ctx.set_global("Master", target);
        ctx.set_global("Phase", Value::string("IDLE"));
        ctx.jump("AwaitRequest");
      }});
  spec.process(std::move(manager));

  // Monitoring Server stand-in: processes one in-flight ACK per step.
  nadir::Process drainer("AckDrainer");
  drainer.step(nadir::Step{
      "ProcessAck",
      {"InFlightOps"},
      {"InFlightOps"},
      [](StepContext& ctx) {
        const Value& ops = ctx.global("InFlightOps");
        ctx.await(ops.size() > 0);
        if (ctx.blocked()) return;
        ctx.set_global("InFlightOps", ops.set_erase(nadir::choose(ops)));
        ctx.jump("ProcessAck");
      }});
  spec.process(std::move(drainer));
  return spec;
}

std::string check_failover_drained(const nadir::Env& env) {
  const Value& phase = env.globals.at("Phase");
  if (phase.as_string() == "ROLE_CHANGE" &&
      env.globals.at("InFlightOps").size() > 0) {
    return "role change started with ACKs still in flight (not hitless)";
  }
  return "";
}

bool failover_completed(const nadir::Env& env,
                        const FailoverSpecScenario& scenario) {
  if (env.globals.at("Master").as_int() != 1) return false;
  const Value& roles = env.globals.at("SwitchRoles");
  for (int sw = 0; sw < scenario.switches; ++sw) {
    if (roles.at(static_cast<std::size_t>(sw)).as_int() != 1) return false;
  }
  return true;
}

}  // namespace zenith::apps
