// Sub-blocks — the multi-proposer pipeline's dissemination unit
// (DESIGN.md §16, the ISSUE 10 tentpole).
//
// The single-proposer block pipeline (exec/block.h) fuses two jobs into
// one consensus value: DISSEMINATING a batch of operations and ORDERING
// it.  The multi-proposer pipeline splits them.  Every replica cuts its
// pooled intake (the shared Cutter, exec/cutter.h) into sub-blocks —
// origin-stamped, origin-sequenced runs of TaggedOps — and publishes them to its peers immediately, on its own
// lane, concurrently with everyone else's.  Consensus then orders only
// thin references:
//
//     SubBlockRef{origin, sub_seq, block_id, op_count}     (~16 bytes)
//
// and a committed slot's value is a VECTOR of such references — a cut
// through the grown-so-far DAG of published sub-blocks.  On commit, the
// replica flattens the referenced sub-blocks in canonical
// (origin, sub_seq) order into ONE block and replays it through the
// planner (exec/replay_engine.h), so the committed history is the same
// pure function of the committed reference sequence on every replica —
// byte-identical across replicas, replay thread counts and fault
// profiles by construction.
//
// Identity: a sub-block's id is make_op_id(origin, sub_seq) — the same
// 8-byte hash space the compact relay uses for ops (common/wire.h), so
// the shared RecoverOnMiss helper (net/recover_on_miss.h) fetches
// missing sub-blocks with the machinery that already fetches missing
// ops.  Ids key disjoint maps (sub-block store vs. op store), so an
// accidental hash collision between the spaces is harmless.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/wire.h"

namespace tokensync {

/// A thin consensus reference to one published sub-block: ~16 wire
/// bytes ordering op_count operations (vs. their full signed payloads).
struct SubBlockRef {
  ProcessId origin = 0;
  std::uint32_t sub_seq = 0;   ///< per-origin cut number, 1-based
  OpId block_id = 0;           ///< make_op_id(origin, sub_seq)
  std::uint32_t op_count = 0;  ///< ops the sub-block carries (accounting)

  /// origin + sub_seq + id + op_count, packed.
  std::uint64_t wire_size() const { return 16; }

  friend bool operator==(const SubBlockRef&, const SubBlockRef&) = default;
};

/// Canonical DAG-cut order: (origin, sub_seq) lexicographic.  Proposers
/// EMIT references in this order (the uncommitted registry is a map
/// keyed by it, so no sort happens anywhere), and the commit-time
/// flatten follows the committed value's order — one rule, applied
/// once, at the source.
inline bool canonical_before(const SubBlockRef& a, const SubBlockRef& b) {
  return a.origin != b.origin ? a.origin < b.origin : a.sub_seq < b.sub_seq;
}

/// One published sub-block: the origin's cut, with each op's relay
/// identity (the applied-id dedup filter's keys).  `B` is the ledger
/// BatchOp it carries.
template <typename B>
struct SubBlock {
  ProcessId origin = 0;
  std::uint32_t sub_seq = 0;  ///< 1-based; 0 = never cut
  std::vector<TaggedOp<B>> ops;

  OpId id() const { return make_op_id(origin, sub_seq); }

  SubBlockRef ref() const {
    return SubBlockRef{origin, sub_seq, id(),
                       static_cast<std::uint32_t>(ops.size())};
  }

  /// origin + sub_seq + length prefix + every (signed) tagged op.
  std::uint64_t wire_size() const {
    std::uint64_t bytes = 16;
    for (const TaggedOp<B>& t : ops) bytes += t.wire_size();
    return bytes;
  }

  friend bool operator==(const SubBlock&, const SubBlock&) = default;
};

}  // namespace tokensync
