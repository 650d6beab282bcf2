// The OFC Monitoring Server (Table 1): terminates switch channels, collects
// ACKs and health events, and updates the NIB.
//
// Verified-spec behaviours preserved:
//  * P3: every ACK updates the NIB — an install ACK marks the OP DONE and
//    adds it to the controller's routing view (R_c) no matter what state the
//    OP was in (stale-state races are resolved by the recovery pipeline's
//    ordering, not by dropping ACKs);
//  * P4(2): ACKs from one switch are processed in arrival order (the fabric
//    guarantees per-switch FIFO delivery, this component processes FIFO);
//  * routing: CLEAR_TCAM ACKs and directed-reconciliation dumps are
//    forwarded to the Topo Event Handler, role ACKs to the failover
//    manager, and raw health events to the Topo Event Handler.
//
// Sharded mode (PR 8): one instance per NIB shard ("monitoring<shard>")
// consumes the per-shard queues the Reply Router demuxes from the transport
// streams, and the install/delete ACK commit becomes a CommitJob pushed to
// the shard's commit queue — the CommitPump applies the jobs and performs
// the NIB transaction + op-closed observability there. Everything else
// (orphan filtering, repl routing, CLEAR_TCAM inline commit, dump/role
// forwarding) is unchanged.
#pragma once

#include <cstddef>
#include <limits>

#include "core/component.h"
#include "core/context.h"

namespace zenith {

class MonitoringServer : public Component {
 public:
  /// Classic single instance on the raw transport streams.
  explicit MonitoringServer(CoreContext* ctx);
  /// Sharded instance on ctx->shard_{replies,health,links}[shard].
  MonitoringServer(CoreContext* ctx, std::size_t shard);

 protected:
  bool try_step() override;
  void on_restart() override;

 private:
  static constexpr std::size_t kUnsharded =
      std::numeric_limits<std::size_t>::max();

  bool process_reply();
  bool process_health_event();
  NadirFifo<SwitchReply>& reply_queue();
  NadirFifo<SwitchHealthEvent>& health_queue();
  NadirFifo<LinkHealthEvent>& link_queue();

  CoreContext* ctx_;
  std::size_t shard_ = kUnsharded;
};

}  // namespace zenith
