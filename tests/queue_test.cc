// NadirFifo, the one queue type every controller stage uses: the classic
// NIB event queue, the per-shard NIB-event and commit queues of the sharded
// hot path, OPQueueNIB and the transport streams.
#include <gtest/gtest.h>

#include "sim/fifo.h"

namespace zenith {
namespace {

TEST(NadirFifoTest, FifoAcrossInterleavedPushPop) {
  NadirFifo<int> fifo;
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 100; ++round) {
    fifo.push(next_in++);
    fifo.push(next_in++);
    fifo.push(next_in++);
    EXPECT_EQ(fifo.pop(), next_out++);
    EXPECT_EQ(fifo.pop(), next_out++);
  }
  EXPECT_EQ(fifo.size(), 100u);  // unbounded: no push is ever refused
  while (!fifo.empty()) EXPECT_EQ(fifo.pop(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(NadirFifoTest, WakeFiresOnEmptyToNonEmptyOnly) {
  NadirFifo<int> fifo;
  int wakes = 0;
  fifo.set_wake_callback([&] { ++wakes; });
  fifo.push(1);
  fifo.push(2);
  EXPECT_EQ(wakes, 1);
  (void)fifo.pop();
  (void)fifo.pop();
  fifo.push(3);
  EXPECT_EQ(wakes, 2);
}

TEST(NadirFifoTest, PeekAckPopDiscipline) {
  NadirFifo<int> fifo;
  fifo.push(1);
  fifo.push(2);
  EXPECT_EQ(fifo.peek(), 1);
  EXPECT_EQ(fifo.peek(), 1);  // peek does not consume
  fifo.ack_pop();
  EXPECT_EQ(fifo.peek(), 2);
  EXPECT_EQ(fifo.size(), 1u);
}

// An OFC crash clears the volatile commit and reply queues; the next push
// must wake the consumer again or the stage would sleep forever.
TEST(NadirFifoTest, ClearDropsEverythingAndRearmsWake) {
  NadirFifo<int> fifo;
  int wakes = 0;
  fifo.set_wake_callback([&] { ++wakes; });
  for (int i = 0; i < 10; ++i) fifo.push(i);
  fifo.clear();
  EXPECT_TRUE(fifo.empty());
  fifo.push(42);
  EXPECT_EQ(wakes, 2);
  EXPECT_EQ(fifo.pop(), 42);
}

}  // namespace
}  // namespace zenith
