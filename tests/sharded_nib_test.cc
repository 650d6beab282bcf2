// Sharded-NIB equivalence (PR 8).
//
// Two layers of evidence that nib_shards changes throughput, never outcomes:
//  * randomized index churn applied identically to a sharded NIB, an
//    unsharded mirror, and a plain-map oracle — every secondary-index query
//    and both fingerprint forms must agree at every checkpoint;
//  * full pipeline runs (the soak workload, chaos off so OpId streams are
//    comparable) across nib_shards in {0, 2, 4, 8} — final NIB fingerprints
//    and op counts must be byte-identical to the classic wiring.
// The chaos-on case asserts only cleanliness (0 invariant violations):
// CLEAR_TCAM recovery consumes OpIds, so cross-arm fingerprints are not
// comparable once chaos timing differs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <map>
#include <vector>

#include "common/rng.h"
#include "harness/soak.h"
#include "nib/nib.h"
#include "topo/generators.h"

namespace zenith {
namespace {

TEST(ShardSlot, StableAndDegenerateAtOneShard) {
  for (std::uint32_t sw = 0; sw < 64; ++sw) {
    EXPECT_EQ(Nib::shard_slot(SwitchId(sw), 0), 0u);
    EXPECT_EQ(Nib::shard_slot(SwitchId(sw), 1), 0u);
    for (std::size_t shards : {2u, 4u, 8u}) {
      std::size_t slot = Nib::shard_slot(SwitchId(sw), shards);
      EXPECT_LT(slot, shards);
      EXPECT_EQ(slot, Nib::shard_slot(SwitchId(sw), shards));  // pure
    }
  }
}

Op make_install(std::uint32_t id, std::uint32_t sw) {
  Op op;
  op.id = OpId(id);
  op.type = OpType::kInstallRule;
  op.sw = SwitchId(sw);
  op.rule.flow = FlowId(id);
  op.rule.sw = SwitchId(sw);
  op.rule.dst = SwitchId(sw + 1);
  op.rule.next_hop = SwitchId(sw + 1);
  return op;
}

// Randomized churn: puts, status flips, health flips, view edits — applied
// in lockstep to a sharded NIB and an unsharded mirror, checked against a
// plain std::map oracle and against each other.
TEST(ShardedNib, RandomChurnMatchesOracleAcrossShardCounts) {
  constexpr std::uint32_t kSwitches = 32;
  constexpr std::size_t kSteps = 6000;
  constexpr OpStatus kStatuses[] = {OpStatus::kNone,   OpStatus::kScheduled,
                                    OpStatus::kInFlight, OpStatus::kSent,
                                    OpStatus::kDone,   OpStatus::kFailedSwitch};

  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    Nib sharded;
    sharded.configure_sharding(shards);
    Nib mirror;  // classic single-index layout
    std::map<std::uint32_t, std::pair<std::uint32_t, OpStatus>> oracle;

    Rng rng(0xC0FFEE ^ shards);
    for (std::uint32_t sw = 0; sw < kSwitches; ++sw) {
      sharded.register_switch(SwitchId(sw));
      mirror.register_switch(SwitchId(sw));
    }

    std::uint32_t next_id = 1;
    for (std::size_t step = 0; step < kSteps; ++step) {
      const std::uint64_t roll = rng.next_below(100);
      if (roll < 40 || oracle.empty()) {
        const std::uint32_t sw =
            static_cast<std::uint32_t>(rng.next_below(kSwitches));
        Op op = make_install(next_id++, sw);
        sharded.put_op(op);
        mirror.put_op(op);
        oracle[op.id.value()] = {sw, OpStatus::kNone};
      } else if (roll < 85) {
        auto it = oracle.begin();
        std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
        OpStatus status =
            kStatuses[rng.next_below(std::size(kStatuses))];
        sharded.set_op_status(OpId(it->first), status);
        mirror.set_op_status(OpId(it->first), status);
        it->second.second = status;
      } else if (roll < 92) {
        auto it = oracle.begin();
        std::advance(it, static_cast<long>(rng.next_below(oracle.size())));
        const SwitchId sw(it->second.first);
        if (rng.next_below(2) == 0) {
          sharded.view_add_installed(sw, OpId(it->first));
          mirror.view_add_installed(sw, OpId(it->first));
        } else {
          sharded.view_remove_installed(sw, OpId(it->first));
          mirror.view_remove_installed(sw, OpId(it->first));
        }
      } else {
        const SwitchId sw(
            static_cast<std::uint32_t>(rng.next_below(kSwitches)));
        SwitchHealth health = rng.next_below(2) == 0 ? SwitchHealth::kUp
                                                     : SwitchHealth::kDown;
        sharded.set_switch_health(sw, health);
        mirror.set_switch_health(sw, health);
      }

      if (step % 500 != 499 && step + 1 != kSteps) continue;

      // Checkpoint: every query form agrees with the oracle and the mirror.
      for (OpStatus status : kStatuses) {
        std::vector<OpId> want;
        for (const auto& [id, entry] : oracle) {
          if (entry.second == status) want.push_back(OpId(id));
        }
        EXPECT_EQ(sharded.ops_with_status(status), want)
            << "shards=" << shards << " status=" << to_string(status);
        EXPECT_EQ(mirror.ops_with_status(status), want);
      }
      for (std::uint32_t sw = 0; sw < kSwitches; sw += 5) {
        StatusMask mask = {OpStatus::kSent, OpStatus::kDone};
        std::vector<OpId> want;
        for (const auto& [id, entry] : oracle) {
          if (entry.first == sw && mask.contains(entry.second)) {
            want.push_back(OpId(id));
          }
        }
        EXPECT_EQ(sharded.ops_on_switch(SwitchId(sw), mask), want);
        EXPECT_EQ(mirror.ops_on_switch(SwitchId(sw), mask), want);
      }
      EXPECT_EQ(sharded.state_fingerprint(), mirror.state_fingerprint());
      EXPECT_EQ(sharded.folded_shard_fingerprint(),
                mirror.folded_shard_fingerprint(shards))
          << "shards=" << shards;
      EXPECT_EQ(sharded.write_count(), mirror.write_count());
    }
  }
}

// The shard fingerprint is a pure read-side partition: for any shard count,
// the fold over the shard digests commits to the same state regardless of
// how the NIB itself is configured.
TEST(ShardedNib, FoldedFingerprintIsConfigurationIndependent) {
  Nib a;  // unsharded
  Nib b;
  b.configure_sharding(4);
  for (std::uint32_t sw = 0; sw < 16; ++sw) {
    a.register_switch(SwitchId(sw));
    b.register_switch(SwitchId(sw));
  }
  for (std::uint32_t i = 1; i <= 200; ++i) {
    Op op = make_install(i, i % 16);
    a.put_op(op);
    b.put_op(op);
    a.set_op_status(op.id, OpStatus::kDone);
    b.set_op_status(op.id, OpStatus::kDone);
  }
  EXPECT_EQ(a.state_fingerprint(), b.state_fingerprint());
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(a.folded_shard_fingerprint(shards),
              b.folded_shard_fingerprint(shards));
  }
  // And the shards really partition: each op's digest lands in exactly one
  // shard (changing one op changes exactly one shard_fingerprint slot).
  std::vector<std::uint64_t> before;
  for (std::size_t s = 0; s < 4; ++s) before.push_back(b.shard_fingerprint(s, 4));
  b.set_op_status(OpId(7), OpStatus::kSent);
  std::size_t changed = 0;
  for (std::size_t s = 0; s < 4; ++s) {
    if (b.shard_fingerprint(s, 4) != before[s]) ++changed;
  }
  EXPECT_EQ(changed, 1u);
}

// Event routing: a switch-keyed event lands in its owning shard's queue
// only, a non-switch-keyed one in shard 0's, and a subscribe() sink holds
// each event before the shard queue's wake fires.
TEST(ShardedNib, PublishRoutesToOwningShardQueue) {
  constexpr std::size_t kShards = 4;
  Nib nib;
  nib.configure_sharding(kShards);
  NadirFifo<NibEvent> sink;
  nib.subscribe(&sink);
  std::vector<NadirFifo<NibEvent>> queues(kShards);
  std::size_t wakes = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    queues[s].set_wake_callback([&, s] {
      ++wakes;
      ASSERT_FALSE(sink.empty());
      EXPECT_EQ(std::prev(sink.end())->sw, std::prev(queues[s].end())->sw);
    });
    nib.set_shard_queue(s, &queues[s]);
  }
  for (std::uint32_t sw = 0; sw < 16; ++sw) nib.register_switch(SwitchId(sw));

  for (std::uint32_t sw = 0; sw < 16; ++sw) {
    const std::size_t owner = nib.shard_of(SwitchId(sw));
    std::vector<std::size_t> before;
    for (const auto& q : queues) before.push_back(q.size());
    nib.set_switch_health(SwitchId(sw), SwitchHealth::kDown);
    for (std::size_t s = 0; s < kShards; ++s) {
      EXPECT_EQ(queues[s].size(), before[s] + (s == owner ? 1 : 0))
          << "sw=" << sw << " shard=" << s;
    }
    EXPECT_EQ(std::prev(queues[owner].end())->sw, SwitchId(sw));
  }
  const std::size_t shard0 = queues[0].size();
  nib.set_link_up(LinkId(3), false);
  EXPECT_EQ(queues[0].size(), shard0 + 1);
  EXPECT_EQ(std::prev(queues[0].end())->type,
            NibEvent::Type::kTopologyChanged);

  std::size_t routed = 0;
  for (const auto& q : queues) routed += q.size();
  EXPECT_EQ(sink.size(), routed);  // the tap sees each event exactly once
  EXPECT_EQ(wakes, kShards);       // one empty -> non-empty edge per shard
}

// ---- full-pipeline equivalence -------------------------------------------

std::size_t soak_ops_budget() {
  const char* env = std::getenv("ZENITH_SOAK_OPS");
  if (env != nullptr && *env != '\0') {
    long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 3000;  // a handful of rounds; tier-1 stays flat
}

struct PipelineRun {
  SoakResult soak;
  std::uint64_t folded_fingerprint = 0;
};

PipelineRun run_pipeline(std::size_t nib_shards, bool chaos) {
  ExperimentConfig config;
  config.seed = 23;
  config.kind = ControllerKind::kZenithNR;
  config.core.batch_size = 16;
  config.core.nib_shards = nib_shards;
  config.poll_interval = millis(2);
  config.scoped_convergence = true;

  std::size_t k = 4;
  Experiment exp(gen::fat_tree(k), config);
  exp.start();

  SoakConfig soak_config;
  soak_config.seed = 71;
  soak_config.groups = 4;
  soak_config.flows_per_group = 8;
  soak_config.target_ops = soak_ops_budget();
  soak_config.chaos = chaos;
  soak_config.deep_check_every = 8;
  gen::FatTreeIndex index = gen::fat_tree_index(k);
  for (std::size_t i = index.edge_begin; i < index.edge_end; ++i) {
    soak_config.endpoints.push_back(SwitchId(static_cast<std::uint32_t>(i)));
  }

  SoakWorkload workload(&exp, soak_config);
  PipelineRun run;
  run.soak = workload.run();
  run.folded_fingerprint = exp.nib().folded_shard_fingerprint(4);
  return run;
}

TEST(ShardedPipeline, MatchesUnshardedFingerprintChaosOff) {
  PipelineRun classic = run_pipeline(/*nib_shards=*/0, /*chaos=*/false);
  PipelineRun sharded = run_pipeline(/*nib_shards=*/4, /*chaos=*/false);
  ASSERT_EQ(classic.soak.invariant_violations, 0u);
  ASSERT_EQ(sharded.soak.invariant_violations, 0u);
  EXPECT_EQ(sharded.soak.ops_completed, classic.soak.ops_completed);
  EXPECT_EQ(sharded.soak.nib_fingerprint, classic.soak.nib_fingerprint);
  EXPECT_EQ(sharded.folded_fingerprint, classic.folded_fingerprint);
}

TEST(ShardedPipeline, ShardCountDoesNotChangeOutcome) {
  PipelineRun two = run_pipeline(2, /*chaos=*/false);
  PipelineRun eight = run_pipeline(8, /*chaos=*/false);
  ASSERT_EQ(two.soak.invariant_violations, 0u);
  ASSERT_EQ(eight.soak.invariant_violations, 0u);
  EXPECT_EQ(two.soak.ops_completed, eight.soak.ops_completed);
  EXPECT_EQ(two.soak.nib_fingerprint, eight.soak.nib_fingerprint);
}

TEST(ShardedPipeline, ChaosSoakStaysClean) {
  PipelineRun run = run_pipeline(4, /*chaos=*/true);
  EXPECT_GE(run.soak.ops_completed, soak_ops_budget());
  EXPECT_EQ(run.soak.timeouts, 0u);
  EXPECT_EQ(run.soak.invariant_violations, 0u);
  EXPECT_TRUE(run.soak.order_ok);
}

}  // namespace
}  // namespace zenith
