#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/fifo.h"
#include "sim/simulator.h"

namespace zenith {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(micros(30), [&] { order.push_back(3); });
  sim.schedule(micros(10), [&] { order.push_back(1); });
  sim.schedule(micros(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), micros(30));
}

TEST(Simulator, FifoAmongSimultaneousEvents) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(micros(10), [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.schedule(micros(10), [&] { fired = true; });
  handle.cancel();
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireIsHarmless) {
  Simulator sim;
  int fires = 0;
  auto handle = sim.schedule(micros(10), [&] { ++fires; });
  sim.run();
  EXPECT_EQ(fires, 1);
  handle.cancel();  // the event already executed; must not corrupt anything
  sim.schedule(micros(5), [&] { ++fires; });
  sim.run();
  EXPECT_EQ(fires, 2);
}

TEST(Simulator, DoubleCancelIsIdempotent) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.schedule(micros(10), [&] { fired = true; });
  handle.cancel();
  handle.cancel();
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelFromWithinCallback) {
  // An event cancelling a later one from inside its own callback — the
  // pattern timeouts use (the response's arrival cancels the timer).
  Simulator sim;
  bool timer_fired = false;
  Simulator::EventHandle timer =
      sim.schedule(micros(20), [&] { timer_fired = true; });
  sim.schedule(micros(10), [&] { timer.cancel(); });
  sim.run();
  EXPECT_FALSE(timer_fired);
  EXPECT_EQ(sim.now(), micros(20));  // the cancelled slot still advances time
}

TEST(Simulator, CancelRaceAtSameTimestamp) {
  // Two events at the same instant, the first cancelling the second: FIFO
  // order among simultaneous events makes the cancellation win.
  Simulator sim;
  bool second_fired = false;
  Simulator::EventHandle second;
  sim.schedule(micros(10), [&] { second.cancel(); });
  second = sim.schedule(micros(10), [&] { second_fired = true; });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(Simulator, SelfCancelInsideOwnCallbackIsHarmless) {
  Simulator sim;
  int fires = 0;
  Simulator::EventHandle handle;
  handle = sim.schedule(micros(10), [&] {
    ++fires;
    handle.cancel();  // cancelling the very event being executed
  });
  sim.run();
  EXPECT_EQ(fires, 1);
}

TEST(Simulator, DefaultHandleIsInvalidAndCancelSafe) {
  Simulator::EventHandle handle;
  EXPECT_FALSE(handle.valid());
  handle.cancel();  // no-op, no crash
}

TEST(Simulator, SlabReusesSlotsInsteadOfGrowing) {
  // Sequential schedule/run cycles recycle the same pooled record: the slab
  // high-water mark tracks peak concurrency, not total event volume.
  Simulator sim;
  int fires = 0;
  for (int i = 0; i < 1000; ++i) {
    sim.schedule(micros(1), [&] { ++fires; });
    sim.run();
  }
  EXPECT_EQ(fires, 1000);
  EXPECT_EQ(sim.slab_size(), 1u);

  // Peak concurrency grows the slab once; further churn reuses it.
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 64; ++i) {
      sim.schedule(micros(i), [&] { ++fires; });
    }
    sim.run();
  }
  EXPECT_EQ(fires, 1000 + 5 * 64);
  EXPECT_EQ(sim.slab_size(), 64u);
}

TEST(Simulator, StaleHandleCancelAfterSlotReuseIsNoOp) {
  // A fired event's slot is recycled by the next schedule; the old handle's
  // generation no longer matches, so cancelling it must not touch the new
  // event (the cancel-after-generation-bump contract).
  Simulator sim;
  bool first_fired = false;
  bool second_fired = false;
  auto first = sim.schedule(micros(10), [&] { first_fired = true; });
  sim.run();
  EXPECT_TRUE(first_fired);
  auto second = sim.schedule(micros(10), [&] { second_fired = true; });
  first.cancel();  // stale: slot was re-acquired by `second`
  sim.run();
  EXPECT_TRUE(second_fired);
  EXPECT_TRUE(second.valid());
}

TEST(Simulator, CancelledSlotIsRecycledImmediately) {
  // cancel() releases the pooled record right away (not at pop time), so a
  // cancel-heavy workload cannot grow the slab.
  Simulator sim;
  for (int i = 0; i < 100; ++i) {
    auto handle = sim.schedule(micros(10), [] {});
    handle.cancel();
  }
  EXPECT_EQ(sim.slab_size(), 1u);
  EXPECT_EQ(sim.run(), 0u);  // all stale queue entries skipped
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.now(), micros(10));  // stale entries still advance the clock
}

TEST(Simulator, SeededRunsFingerprintIdentically) {
  // The slab kernel preserves the determinism contract: two simulators fed
  // the same seeded event pattern (including cancellations) execute the
  // same events in the same order at the same timestamps.
  auto trace_of = [](std::uint64_t seed) {
    Simulator sim;
    Rng rng(seed);
    std::vector<std::pair<SimTime, int>> trace;
    std::vector<Simulator::EventHandle> handles;
    for (int i = 0; i < 500; ++i) {
      SimTime when = micros(static_cast<std::int64_t>(rng.next_below(1000)));
      handles.push_back(sim.schedule(when, [&trace, &sim, i] {
        trace.emplace_back(sim.now(), i);
      }));
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (rng.next_below(3) == 0) handles[i].cancel();
    }
    sim.run();
    return trace;
  };
  EXPECT_EQ(trace_of(42), trace_of(42));
  EXPECT_NE(trace_of(42), trace_of(43));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.schedule(micros(10), [&] { ++count; });
  sim.schedule(micros(100), [&] { ++count; });
  sim.run_until(micros(50));
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), micros(50));
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, NestedSchedulingFromCallbacks) {
  Simulator sim;
  std::vector<SimTime> times;
  sim.schedule(micros(10), [&] {
    times.push_back(sim.now());
    sim.schedule(micros(5), [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 15}));
}

TEST(DelayedChannelTest, DeliversAfterDelay) {
  Simulator sim;
  DelayedChannel<int> channel(&sim, Rng(1), DelayModel{millis(1), 0});
  channel.send(42);
  EXPECT_TRUE(channel.sink().empty());
  sim.run();
  ASSERT_EQ(channel.sink().size(), 1u);
  EXPECT_EQ(sim.now(), millis(1));
}

TEST(DelayedChannelTest, PreservesFifoDespiteJitter) {
  Simulator sim;
  DelayedChannel<int> channel(&sim, Rng(7), DelayModel{millis(1), millis(5)});
  for (int i = 0; i < 50; ++i) channel.send(i);
  sim.run();
  int expected = 0;
  while (!channel.sink().empty()) {
    EXPECT_EQ(channel.sink().pop(), expected++);
  }
  EXPECT_EQ(expected, 50);
}

TEST(DelayedChannelTest, DropInFlightLosesUndelivered) {
  Simulator sim;
  DelayedChannel<int> channel(&sim, Rng(3), DelayModel{millis(10), 0});
  channel.send(1);
  sim.run_until(millis(5));
  channel.drop_in_flight();
  channel.send(2);  // post-drop traffic still flows
  sim.run();
  ASSERT_EQ(channel.sink().size(), 1u);
  EXPECT_EQ(channel.sink().pop(), 2);
}

}  // namespace
}  // namespace zenith
