// The golden model-checking cells (PR 9): ~8 small, fast instances whose
// exact state counts, transition counts and diameters are committed to
// tests/golden/MC_CELLS.json and diffed live by conformance_test. The
// parallel BFS engine promises these numbers are thread-count-invariant on
// clean runs — any drift here means state-space semantic drift (the class
// of bug a parallel rewrite most likely introduces), or an intended model
// change that must be regenerated via scripts/update_golden.sh and
// reviewed.
//
// Shared by mc_golden_gen (the regenerator) and conformance_test (the live
// diff) so the cell definitions cannot drift apart.
#pragma once

#include <cstdio>
#include <map>
#include <string>

#include "mc/checker.h"
#include "mc/pipeline_model.h"
#include "mc/repl_model.h"

namespace zenith::golden {

/// Runs every golden MC cell at the given worker count and formats the
/// exact exploration statistics. `threads` must not change the output —
/// conformance_test exploits exactly that.
inline std::map<std::string, std::string> compute_mc_cells(
    std::size_t threads) {
  std::map<std::string, std::string> out;

  auto format_pipeline = [](const mc::CheckResult& result) {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "states=%zu transitions=%zu quiescent=%zu diameter=%zu",
                  result.distinct_states, result.transitions,
                  result.quiescent_states, result.diameter);
    return std::string(buffer);
  };
  auto run_pipeline = [&](const std::string& name,
                          const mc::ModelConfig& config) {
    mc::CheckerOptions options;
    options.max_states = 2'000'000;
    options.time_limit_seconds = 120.0;
    options.threads = threads;
    mc::CheckResult result = mc::check(mc::PipelineModel(config), options);
    out[name] = result.ok && !result.capped
                    ? format_pipeline(result)
                    : "NOT-CLEAN: " + result.violation;
  };

  {
    mc::ModelConfig config = mc::ModelConfig::tiny_instance();
    run_pipeline("mc/tiny-fine", config);
    config.opt_por = true;
    run_pipeline("mc/tiny-por", config);
  }
  {
    mc::ModelConfig config = mc::ModelConfig::table4_instance();
    config.opt_symmetry = true;
    run_pipeline("mc/table4-sym", config);
    config.opt_compositional = true;
    config.opt_por = true;
    run_pipeline("mc/table4-sym-com-por", config);
  }
  {
    mc::ModelConfig config = mc::ModelConfig::transient_recovery_instance();
    config.opt_symmetry = true;
    config.opt_compositional = true;
    config.opt_por = true;
    run_pipeline("mc/transient-recovery-sym-com-por", config);
    config.batch_size = 4;
    run_pipeline("mc/transient-recovery-batch4-sym-com-por", config);
  }

  auto run_repl = [&](const std::string& name, mc::ReplModelConfig config) {
    config.threads = threads;
    mc::ReplModelResult result = mc::check_repl_model(config);
    if (result.violation_found || result.capped) {
      out[name] = "NOT-CLEAN: " + result.violation;
      return;
    }
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  "states=%zu transitions=%zu diameter=%zu",
                  result.states_explored, result.transitions,
                  result.diameter);
    out[name] = buffer;
  };
  {
    mc::ReplModelConfig config;
    config.max_appends = 3;
    config.max_kills = 1;
    run_repl("mc/repl-r3-a3-k1", config);
  }
  {
    mc::ReplModelConfig config;
    config.replicas = 5;
    config.max_appends = 4;
    config.max_kills = 1;
    config.stepwise_replication = true;
    run_repl("mc/repl-r5-a4-k1-stepwise", config);
  }

  return out;
}

}  // namespace zenith::golden
