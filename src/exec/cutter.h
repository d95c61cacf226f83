// Cutter<Spec> — the one size/deadline cut rule behind every intake lane
// (DESIGN.md §10): blocks (net/block_replica.h), multi-proposer
// sub-blocks (net/multi_proposer.h) and both hybrid lanes
// (net/hybrid_replica.h).
//
//   * size cut     — cut_if_full(): the pool holds max_ops pending
//                    operations (checked after every submit);
//   * deadline cut — cut(): whatever is pending, up to max_ops, whatever
//                    the fill, so no op waits more than one deadline for
//                    its cut;
//   * an empty pool cuts nothing — deadline ticks are free while idle.
//
// max_ops = 0 is clamped to 1: every cut carries at least one op.  The
// cutter holds no operations of its own — the pool is the only buffer —
// so a cut is deterministic given the pool content (and thus given the
// event order of the deterministic SimNet run driving the submissions).
// A cut is the drained run of tagged ops in pool submission order; each
// lane wraps it into its own payload (a block, an origin-stamped
// sub-block, an ERB batch, a consensus command).  The deadline timer is
// the lane's: the cutter itself is tickless.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "atomic/ledger.h"
#include "exec/txpool.h"

namespace tokensync {

template <ConcurrentTokenSpec S>
class Cutter {
 public:
  using Run = std::vector<typename TxPool<S>::Tagged>;

  Cutter(TxPool<S>& pool, std::size_t max_ops)
      : pool_(pool), max_ops_(std::max<std::size_t>(max_ops, 1)) {}

  /// Size cut: the next max_ops ops iff that many are pending; an empty
  /// run otherwise (partial fills wait for the deadline).
  Run cut_if_full() {
    if (pool_.pending() < max_ops_) return {};
    ++cuts_;
    return pool_.drain_tagged(max_ops_);
  }

  /// Deadline cut: whatever is pending, up to max_ops; an empty pool
  /// yields an empty run and counts as an empty cut.
  Run cut() {
    Run run = pool_.drain_tagged(max_ops_);
    ++(run.empty() ? empty_cuts_ : cuts_);
    return run;
  }

  /// Non-empty runs cut so far (size and deadline cuts alike).
  std::size_t cuts() const noexcept { return cuts_; }
  /// Deadline cuts that found an empty pool.
  std::size_t empty_cuts() const noexcept { return empty_cuts_; }

 private:
  TxPool<S>& pool_;
  std::size_t max_ops_;
  std::size_t cuts_ = 0;
  std::size_t empty_cuts_ = 0;
};

}  // namespace tokensync
