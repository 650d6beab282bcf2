// The DE NIB Event Handler (Table 1): "produces/consumes events for/from
// the NIB and is familiar with NIB semantics".
//
// Unsharded (the classic wiring): one instance drains the NIB's persistent
// event queue and fans every event out to all Sequencer wake queues and to
// registered application sinks. Sequencers treat the events purely as wake
// hints and re-derive truth from the NIB, so losing the volatile wake
// queues on a DE failure is harmless — the restart rescan covers it.
//
// Sharded (PR 8): one instance per NIB shard drains that shard's event
// queue, up to nib_event_batch events per service step, and routes
// selectively — scheduling-relevant events (commits, resets, health, DAG
// admission) wake the sequencer that owns the affected DAG instead of
// broadcasting every status blip to every sequencer. The unsharded profile
// showed the single handler saturated (one 15µs step per event) and the
// sequencers burning 40µs wake-drain steps on kScheduled/kSent echoes of
// their own writes; the batch drain and the wake filter remove both.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "core/component.h"
#include "core/context.h"

namespace zenith {

class NibEventHandler : public Component {
 public:
  /// Classic single instance draining ctx->nib_event_queue.
  explicit NibEventHandler(CoreContext* ctx);
  /// Sharded instance ("nib_event_handler<shard>") draining
  /// ctx->shard_event_queues[shard].
  NibEventHandler(CoreContext* ctx, std::size_t shard);

  /// Registers an application's event sink; the app sees switch-health and
  /// DAG lifecycle events (§3.6: "the controller correctly notifies
  /// applications of data plane events"). In sharded mode the controller
  /// registers the sink with every instance; each event still reaches the
  /// sink exactly once because each event lives in exactly one queue.
  void register_app_sink(NadirFifo<NibEvent>* sink);

 protected:
  bool try_step() override;

 private:
  static constexpr std::size_t kUnsharded =
      std::numeric_limits<std::size_t>::max();

  void route_sharded(const NibEvent& event);

  CoreContext* ctx_;
  std::size_t shard_ = kUnsharded;
  std::vector<NadirFifo<NibEvent>*> app_sinks_;
};

}  // namespace zenith
