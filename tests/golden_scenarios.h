// The golden-fingerprint regression corpus: one place that defines WHICH
// runs are pinned, shared by the generator binary (golden_gen) and the
// conformance diff test, so the two can never drift apart.
//
// Everything here is a timing-inclusive digest of a fully deterministic
// run, pinned at batch_size=1 unless the name says otherwise (the
// determinism contract in CoreConfig::batch_size: timing-sensitive
// artifacts are golden only at the batch size they were recorded at).
// Regenerate with scripts/update_golden.sh after any INTENDED behaviour
// change; an unintended diff is a regression in pipeline determinism or
// semantics and should be treated like a failing invariant.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "chaos/campaign.h"
#include "harness/soak.h"
#include "mc/lockstep.h"
#include "topo/generators.h"

namespace zenith::golden {

/// Small failure-free soak cell on fat_tree(4). Deterministic in
/// (seed, batch_size); the golden corpus pins the 4-group x 8-flow shape,
/// the batch-equivalence property sweep reuses it with its own shapes.
inline SoakResult run_soak_cell(std::size_t batch_size,
                                DeliveryOrderRecorder* recorder,
                                std::uint64_t seed = 9,
                                std::size_t groups = 4,
                                std::size_t flows_per_group = 8,
                                std::size_t target_ops = 2000) {
  ExperimentConfig config;
  config.seed = 16 + seed;
  config.kind = ControllerKind::kZenithNR;
  config.core.batch_size = batch_size;
  config.poll_interval = millis(2);
  config.scoped_convergence = true;
  Experiment exp(gen::fat_tree(4), config);
  if (recorder != nullptr) recorder->attach(exp.fabric());
  exp.start();

  SoakConfig soak_config;
  soak_config.seed = seed;
  soak_config.groups = groups;
  soak_config.flows_per_group = flows_per_group;
  soak_config.target_ops = target_ops;
  soak_config.chaos = false;
  gen::FatTreeIndex index = gen::fat_tree_index(4);
  for (std::size_t i = index.edge_begin; i < index.edge_end; ++i) {
    soak_config.endpoints.push_back(SwitchId(static_cast<std::uint32_t>(i)));
  }
  SoakWorkload workload(&exp, soak_config);
  return workload.run();
}

/// The PR-3 chaos determinism grid: {kdl_like(16), b4, fat_tree(4)} x
/// seeds 1..4, default (batch_size=1) core.
inline chaos::CampaignConfig chaos_cell_config(chaos::TopologyKind topology,
                                               std::size_t size,
                                               std::uint64_t seed) {
  chaos::CampaignConfig config;
  config.topology = topology;
  config.topology_size = size;
  config.seed = seed;
  config.schedule.horizon = seconds(4);
  config.schedule.fault_count = 10;
  config.initial_flows = 4;
  return config;
}

/// Replicated-control-plane chaos cell: the chaos grid shape with two
/// shards of three replicas each and the replication fault classes
/// (kill-leader, partition-leader, lease-stall) mixed into the schedule.
/// The pinned verdict digest covers the R1-R4 oracle sweep and the
/// schedule/trace/metrics fingerprints across unplanned leader failovers.
inline chaos::CampaignConfig repl_cell_config(chaos::TopologyKind topology,
                                              std::size_t size,
                                              std::uint64_t seed) {
  chaos::CampaignConfig config = chaos_cell_config(topology, size, seed);
  config.core.repl.num_shards = 2;
  config.schedule.fault_count = 12;
  config.schedule.weights.repl_kill_leader = 0.18;
  config.schedule.weights.repl_partition_leader = 0.12;
  config.schedule.weights.repl_lease_stall = 0.08;
  return config;
}

/// The lockstep conformance grid cell (mirrors the zenith_lockstep runner's
/// defaults): a 3-second, 8-fault schedule sliced into 3 quiescence phases.
/// The golden corpus pins the per-phase abstraction digests via
/// LockstepReport::report_digest().
inline mc::LockstepConfig lockstep_cell_config(chaos::TopologyKind topology,
                                               std::size_t size,
                                               std::size_t batch_size,
                                               std::uint64_t seed) {
  mc::LockstepConfig config;
  config.campaign.topology = topology;
  config.campaign.topology_size = size;
  config.campaign.seed = seed;
  config.campaign.core.batch_size = batch_size;
  config.campaign.schedule.horizon = seconds(3);
  config.campaign.schedule.fault_count = 8;
  config.campaign.initial_flows = 4;
  config.phases = 3;
  config.check_model = false;  // the model verdict is not a run digest
  return config;
}

inline std::map<std::string, std::uint64_t> compute_fingerprints() {
  std::map<std::string, std::uint64_t> out;

  for (std::size_t bs : {std::size_t{1}, std::size_t{16}}) {
    DeliveryOrderRecorder recorder;
    SoakResult result = run_soak_cell(bs, &recorder);
    std::string prefix = "soak_fattree4_bs" + std::to_string(bs);
    out[prefix + ".nib"] = result.nib_fingerprint;
    out[prefix + ".delivery"] = recorder.fingerprint();
  }

  struct Cell {
    chaos::TopologyKind kind;
    std::size_t size;
    const char* name;
  };
  const Cell cells[] = {
      {chaos::TopologyKind::kKdlLike, 16, "kdl16"},
      {chaos::TopologyKind::kB4, 0, "b4"},
      {chaos::TopologyKind::kFatTree, 4, "fattree4"},
  };
  for (const Cell& cell : cells) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      chaos::ChaosCampaign campaign(
          chaos_cell_config(cell.kind, cell.size, seed));
      out["chaos_" + std::string(cell.name) + "_s" + std::to_string(seed) +
          ".verdict"] = campaign.run().verdict_digest();
    }
  }

  // Replicated control plane: the same chaos grid with 2 shards x 3
  // replicas and replication faults in the mix, pinned for two seeds per
  // topology (the full 3x3 grid runs in repl_test; the corpus pins a
  // representative slice).
  for (const Cell& cell : cells) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      chaos::ChaosCampaign campaign(
          repl_cell_config(cell.kind, cell.size, seed));
      out["repl_" + std::string(cell.name) + "_s" + std::to_string(seed) +
          ".verdict"] = campaign.run().verdict_digest();
    }
  }

  // Lockstep conformance grid: per-phase abstraction digests pinned at the
  // batching extremes (bs=1 classic, bs=16 coalescing).
  for (const Cell& cell : cells) {
    for (std::size_t bs : {std::size_t{1}, std::size_t{16}}) {
      mc::LockstepChecker checker(
          lockstep_cell_config(cell.kind, cell.size, bs, /*seed=*/1));
      out["lockstep_" + std::string(cell.name) + "_bs" + std::to_string(bs) +
          ".report"] = checker.run().report_digest();
    }
  }
  return out;
}

}  // namespace zenith::golden
