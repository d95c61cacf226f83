// Block formation — TxPool intake to bounded consensus payloads.
//
// The block pipeline's first stage (DESIGN.md §10): clients submit token
// operations into a TxPool, and the shared Cutter (exec/cutter.h) drains
// the pool into BOUNDED blocks under the size/deadline cut rule — a full
// pool cuts at once, a periodic deadline tick flushes a partial fill,
// and an empty pool yields NO block (deadline ticks are free while the
// system idles).
//
// A Block is then ONE consensus value: the total-order broadcast
// (atbcast/total_order.h) decides it into a single slot, so the whole
// block commits atomically or not at all — there is no partially
// committed block, and a duplicated/relearned decision re-delivers the
// same slot, which the broadcast's (origin, nonce) dedup already
// suppresses.  Each replica then replays the committed block through the
// parallel executor (exec/replay_engine.h).
//
// Ops inside a block keep their pool submission order — that order is the
// sequential execution the replay's wave schedule is proven equivalent to
// (DESIGN.md §9), so "one block" and "its ops one slot at a time" commit
// the same history content, just amortized over one consensus instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "atomic/ledger.h"

namespace tokensync {

/// Block-formation knobs (plus the broadcast-side pipelining depth the
/// block replica forwards to TotalOrderBcast).
struct BlockConfig {
  /// Size cut: a block never carries more than this many operations
  /// (0 counts as 1, like every lane's cut).
  std::size_t max_ops = 8;
  /// Deadline cut period, in simulated time units — drivers schedule an
  /// on_deadline() tick this often (the cutter itself is tickless).
  std::uint64_t deadline = 25;
  /// TotalOrderBcast pipelining window: how many cut blocks a replica
  /// keeps in flight at distinct consensus slots (total_order.h).
  std::size_t pipeline_window = 1;
};

/// One consensus payload: a bounded run of pooled operations, in pool
/// submission order.  Equality-comparable because it travels as a Paxos
/// value inside TobCmd.
template <ConcurrentTokenSpec S>
struct Block {
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;

  std::vector<BatchOp> ops;

  std::size_t size() const noexcept { return ops.size(); }
  bool empty() const noexcept { return ops.empty(); }

  /// Full-payload relay cost: a length prefix plus every (signed) op.
  std::uint64_t wire_size() const {
    std::uint64_t bytes = 8;
    for (const BatchOp& b : ops) bytes += wire_size_of(b);
    return bytes;
  }

  friend bool operator==(const Block&, const Block&) = default;
};

}  // namespace tokensync
