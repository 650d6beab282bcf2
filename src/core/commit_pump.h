// The CommitPump (PR 8, sharded mode only): applies per-shard ACK-commit
// jobs as batched NIB transactions.
//
// Each service step drains EVERY CommitJob queued at step time from the
// per-shard commit queues and applies them in ascending shard order, FIFO
// within each shard. Draining the backlog under a single service charge is
// the same amortization commit_ack_batch models for a batch-ACK — the pump
// is one batched NIB transaction per shard per step, which is what keeps
// the ACK-commit stage off the critical path at high load.
//
// Stale filtering: between the Monitoring Server enqueuing a job and the
// pump applying it, a takeover can requeue the op (SENT -> SCHEDULED) or a
// recovery reset can re-arm it. Only ops still SENT commit — the same
// filter the replicated log applies at log-apply time. Jobs survive a pump
// component crash (the queues live in the context and a step is atomic in
// simulated time); an OFC crash clears them, and the takeover requeue of
// SENT OPs regenerates the lost ACK work exactly once.
#pragma once

#include <vector>

#include "core/component.h"
#include "core/context.h"

namespace zenith {

class CommitPump : public Component {
 public:
  explicit CommitPump(CoreContext* ctx);

 protected:
  bool try_step() override;

 private:
  void apply(const CommitJob& job);

  CoreContext* ctx_;
  std::vector<Op> fresh_;  // scratch, reused across jobs
};

}  // namespace zenith
