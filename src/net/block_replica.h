// BlockReplicaNode — batched total-order replication with deterministic
// parallel replay (the block pipeline, DESIGN.md §10) and a compact
// relay lane (DESIGN.md §12).
//
// One replica =
//
//   TxPool  --cut-->  Cutter  --propose-->  TotalOrderBcast
//   (intake,          (size/           (one Paxos slot per
//    OpId index)       deadline)        BLOCK, not per op)
//                             --commit---->  reconstruct + replay
//                                            (ReplayEngine waves)
//
// Clients call submit(caller, op): the op enters the pool, and a full
// pool cuts a block immediately (size cut).  The driver ticks
// on_deadline() every BlockConfig::deadline time units so a partial fill
// never waits forever (deadline cut; an empty pool cuts nothing).  Cut
// blocks ride the Paxos-backed total-order broadcast — a block is ONE
// consensus value, so it commits atomically or not at all, and
// duplicated delivery of its decision cannot double-apply (slot dedup in
// the broadcast).  Every replica replays each committed block through
// its own ReplayEngine; because replay is outcome-deterministic in the
// worker thread count, replicas running 1, 2 and 8 replay threads hold
// byte-identical committed histories from the same seed — the block
// pipeline's acceptance criterion.
//
// Relay modes (net/compact_relay.h):
//   * kFull    — the consensus value carries the whole block payload
//                (the pre-ISSUE-6 baseline);
//   * kCompact — the proposer announces the cut block's (id, op) pairs
//                over the auxiliary relay lane once, and the consensus
//                value carries only {block_id, proposer, vector<OpId>}.
//                On commit each replica reconstructs the block from its
//                TxPool index and relay store; misses trigger the
//                kGetOps recover-on-miss round-trip.  Committed blocks
//                apply strictly in slot order — a block whose ops are
//                still in flight PARKS (and parks every later slot), so
//                reconstruction can delay the local apply but never
//                change committed content or order: histories are
//                byte-identical across relay modes.
//
// The consensus lane and the relay lane share ONE SimNet through the
// LaneMux; relay traffic is auxiliary-class (second Rng/tie-break
// stream, common/wire.h), so the consensus schedule does not depend on
// the relay mode at all — that is the mode-invariance argument.
//
// Interface-compatible with ReplicaNode for the scenario audits
// (history / submitted / all_settled / commit_latencies / log), with
// op-granular accounting on top: submitted() counts OPERATIONS (the unit
// the settlement audit cares about), blocks_submitted() the consensus
// payloads they were batched into.  The log / history / latency
// plumbing lives once in ReplicaCore (net/replica_core.h).
// Recovery (DESIGN.md §13, the ISSUE 7 tentpole): behind RecoveryConfig
// the node cuts a Snapshot<S> at every interval-th slot boundary,
// gossips durable-snapshot marks, truncates the consensus log below the
// all-replica mark floor, and — as a rejoiner (recover = true) — boots
// from a peer's snapshot plus the retained log suffix instead of slot 0.
// All of that traffic rides the auxiliary recovery lane, so a run where
// nobody rejoins commits a byte-identical history whether snapshotting/
// pruning are on or off.  The node also keeps the set of OpIds its
// history has APPLIED and filters committed blocks against it — the
// deterministic double-submit guard: an op resubmitted (at any replica)
// after its original committed can land in a second block, but every
// replica drops that second occurrence at the same slot, so it applies
// exactly once everywhere.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "atbcast/total_order.h"
#include "atomic/ledger.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/wire.h"
#include "exec/block.h"
#include "exec/cutter.h"
#include "exec/replay_engine.h"
#include "exec/snapshot.h"
#include "exec/txpool.h"
#include "net/compact_relay.h"
#include "net/lane_mux.h"
#include "net/recovery.h"
#include "net/replica_core.h"

namespace tokensync {

/// The consensus value of the block pipeline: either a full block
/// payload (RelayMode::kFull) or its compact reference
/// {block_id, proposer, ids} (RelayMode::kCompact).  One C++ type for
/// both modes, so the Paxos/TOB machinery — and therefore the primary
/// event schedule — is identical; only the wire SIZE differs.
template <ConcurrentTokenSpec S>
struct BlockValue {
  bool compact = false;
  Block<S> full;               ///< kFull payload; empty when compact
  std::uint64_t block_id = 0;  ///< kCompact: recovery correlation
  ProcessId proposer = 0;      ///< kCompact: whom to ask first on a miss
  /// The ordered op identities — in BOTH modes (the applied-id dedup
  /// filter needs them); kCompact additionally uses them as the payload
  /// references.
  std::vector<OpId> ids;

  /// Compact: block_id + proposer + length prefix + 8 bytes per id.
  /// Full: the signed payload itself — the ids do NOT add wire bytes in
  /// full mode, because an op's identity is derivable from the signed
  /// per-op envelope the payload already carries (kOpAuthBytes covers
  /// the origin/sequence fields the OpId hashes).  (The TobCmd/PaxosMsg
  /// wrappers add their own bytes on top — this is what per-slot
  /// proposal bytes measure.)
  std::uint64_t wire_size() const {
    return compact ? 8 + 4 + 8 + 8 * ids.size() : wire_size_of(full);
  }

  friend bool operator==(const BlockValue&, const BlockValue&) = default;
};

/// The block pipeline's multiplexed wire type: lane 0 carries the
/// consensus (Paxos) traffic, lane 1 the relay recovery lane, lane 2
/// the snapshot recovery lane (both auxiliary-class).
template <ConcurrentTokenSpec S>
using BlockLaneMsg =
    LaneMsg<PaxosMsg<TobCmd<BlockValue<S>>>,
            RelayMsg<typename ConcurrentLedger<S>::BatchOp>, RecoveryMsg<S>>;

/// `BaseNet` is the net the three lanes multiplex onto — a SimNet
/// carrying BlockLaneMsg<S> by default, or a per-group facade
/// (net/shard_group.h's GroupNet) when several whole block runtimes
/// partition one cluster into replica groups.
template <ConcurrentTokenSpec S, typename BaseNet = SimNet<BlockLaneMsg<S>>>
class BlockReplicaNode {
 public:
  using Op = typename S::Op;
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;
  using Value = BlockValue<S>;
  using Mux = BasicLaneMux<BaseNet, PaxosMsg<TobCmd<Value>>,
                           RelayMsg<BatchOp>, RecoveryMsg<S>>;
  using Net = BaseNet;
  using Tob = TotalOrderBcast<Value, typename Mux::NetA>;
  using Relay = RelayEndpoint<BatchOp, typename Mux::NetB>;
  using Recovery = RecoveryEndpoint<S, typename Mux::template LaneT<2>>;
  using Snap = Snapshot<S>;
  using Entry = ReplicaCore::Entry;

  BlockReplicaNode(Net& net, ProcessId self,
                   const typename S::SeqState& initial, BlockConfig bcfg,
                   ExecOptions eopts, RelayMode relay_mode = RelayMode::kFull,
                   RecoveryConfig rcfg = {})
      : net_(net), self_(self), relay_mode_(relay_mode), rcfg_(rcfg),
        eopts_(eopts),
        engine_(std::make_unique<ReplayEngine<S>>(initial, eopts)),
        cutter_(pool_, bcfg.max_ops), mux_(net, self),
        tob_(mux_.lane_a(), self,
             [this](std::uint64_t slot, ProcessId origin, std::uint64_t nonce,
                    const Value& v) { on_commit(slot, origin, nonce, v); },
             /*retry_delay=*/40, bcfg.pipeline_window),
        relay_(mux_.lane_b(), self, [this] { try_apply(); }),
        recovery_(mux_.template lane<2>(), self,
                  [this] { return tob_.delivered_count(); },
                  [this](bool has, const std::vector<std::uint8_t>& bytes,
                         std::uint64_t frontier) {
                    on_snap_reply(has, bytes, frontier);
                  }) {
    pool_.set_origin(self);
    // A kPruned redirect means the retained log no longer reaches back
    // to where we are: only a (newer) snapshot can.  Live replicas never
    // receive one (recovery.h's floor argument), so this only fires on a
    // rejoiner whose fetch is still in flight.
    tob_.set_on_pruned([this](InstanceId slot) {
      if (recovering_) recovery_.begin(slot + 1);
    });
    if (rcfg_.recover) {
      recovering_ = true;
      recovery_.begin(0);
    }
  }

  /// Client intake: pools the op; a full pool cuts a block immediately.
  /// While recovering, intake pools but never cuts — a rejoiner must not
  /// propose mid-catch-up (its pooled tail rides the first post-recovery
  /// cut).
  void submit(ProcessId caller, Op op) {
    pool_.submit(caller, std::move(op));
    ++ops_submitted_;
    maybe_cut();
  }

  /// Client intake under a caller-supplied identity (a client retrying
  /// through a restarted replica re-uses its original OpId).  Returns
  /// false — pooling nothing — when the id is already APPLIED by the
  /// committed history or already known to the pool: the double-submit
  /// guard's intake half (the apply-time filter is the cross-replica
  /// half).
  bool submit_tagged(OpId id, ProcessId caller, Op op) {
    if (applied_ids_.contains(id)) return false;
    if (!pool_.submit_tagged(id, caller, std::move(op))) return false;
    ++ops_submitted_;
    maybe_cut();
    return true;
  }

  /// Deadline tick (drivers schedule this every BlockConfig::deadline):
  /// flushes a partial fill; a no-op on an empty pool (or mid-recovery).
  void on_deadline() {
    if (recovering_) return;
    propose(cutter_.cut());
  }

  /// Anti-entropy probe (TotalOrderBcast::sync).
  void sync() { tob_.sync(); }

  // --- the scenario-audit interface (mirrors ReplicaNode) ---

  /// Operations submitted here (the settlement audit's unit).
  std::size_t submitted() const noexcept { return ops_submitted_; }
  /// All pooled ops were cut, all cut blocks committed here, and every
  /// committed block has been reconstructed and applied.
  bool all_settled() const {
    return pool_.pending() == 0 && tob_.all_settled() && parked_.empty();
  }
  std::string history() const { return core_.history(); }
  /// History suffix from `slot` on — a snapshot-installed rejoiner's
  /// full history is compared against a correct replica's suffix from
  /// the install boundary (ReplicaCore::history_from).
  std::string history_from(std::uint64_t slot) const {
    return core_.history_from(slot);
  }
  const std::vector<Entry>& log() const noexcept { return core_.log(); }
  /// Per-BLOCK commit latencies (submit of the block -> local apply; in
  /// compact mode this includes any recover-on-miss wait).
  const std::vector<std::uint64_t>& commit_latencies() const noexcept {
    return core_.commit_latencies();
  }

  // --- block-granular accounting ---

  const ReplayEngine<S>& engine() const noexcept { return *engine_; }
  std::size_t blocks_submitted() const noexcept { return core_.submitted(); }
  std::size_t blocks_committed() const noexcept { return core_.log().size(); }
  std::size_t ops_committed() const noexcept { return engine_->ops_applied(); }

  // --- relay accounting / test hooks ---

  RelayMode relay_mode() const noexcept { return relay_mode_; }
  const Relay& relay() const noexcept { return relay_; }
  /// Consensus-value bytes of the slots committed here (numerator of the
  /// per-slot proposal bytes metric).
  std::uint64_t proposal_bytes() const noexcept { return proposal_bytes_; }
  /// Test hook: suppress announcements so every peer misses every op and
  /// reconstruction must go through kGetOps.
  void set_announce_enabled(bool enabled) {
    relay_.set_announce_enabled(enabled);
  }

  /// Post-apply hook: invoked after each committed block is applied to
  /// the local engine (slot = the block's consensus slot).  The shard
  /// router's 2PC driver hangs off this to react to replicated state
  /// transitions; reactions may re-enter submit() on this or sibling
  /// nodes (apply never recurses — it only runs on commit delivery).
  void set_on_apply(std::function<void(std::uint64_t slot)> fn) {
    on_apply_ = std::move(fn);
  }

  // --- recovery accounting / test hooks (DESIGN.md §13) ---

  const RecoveryConfig& recovery_config() const noexcept { return rcfg_; }
  Recovery& recovery() noexcept { return recovery_; }
  const Recovery& recovery() const noexcept { return recovery_; }
  /// Still replaying toward the catch-up frontier (rejoiner only).
  bool recovering() const noexcept { return recovering_; }
  /// Boundary of the snapshot this rejoiner installed (0 = none: it
  /// replayed the whole retained log from slot 0).
  std::uint64_t install_slot() const noexcept { return install_slot_; }
  /// Content hash of the installed snapshot (0 = none) — the audit
  /// compares it against a correct replica's retained hash at the same
  /// boundary.
  std::uint64_t installed_snapshot_hash() const noexcept {
    return installed_hash_;
  }
  /// Ops applied while recovering (snapshot install excluded — that is
  /// what the snapshot SAVED replaying).
  std::uint64_t catchup_ops() const noexcept { return catchup_ops_; }
  /// Serialized size of the newest snapshot cut or installed here.
  std::uint64_t snapshot_bytes() const noexcept { return snapshot_bytes_; }
  std::size_t snapshots_cut() const noexcept { return snapshots_cut_; }
  std::uint64_t pruned_slots() const noexcept { return tob_.pruned_slots(); }
  std::size_t retained_slots() const noexcept {
    return tob_.retained_slots();
  }
  std::uint64_t retained_log_bytes() const {
    return tob_.retained_log_bytes();
  }

 private:
  void maybe_cut() {
    if (recovering_) return;
    propose(cutter_.cut_if_full());
  }

  /// Wraps a cut into the block's consensus value and broadcasts it; an
  /// empty run (nothing was cut) proposes nothing.
  void propose(typename Cutter<S>::Run run) {
    if (run.empty()) return;
    Value v;
    v.ids.reserve(run.size());  // both modes: the applied-id filter's keys
    for (const auto& t : run) v.ids.push_back(t.id);
    if (relay_mode_ == RelayMode::kCompact) {
      v.compact = true;
      // Block ids share the OpId hash but key a disjoint map (recovery
      // correlation, never the op store), so an accidental collision
      // with an op id is harmless.
      v.block_id = make_op_id(self_, blocks_proposed_++);
      v.proposer = self_;
      relay_.announce(run);
    } else {
      v.full.ops.reserve(run.size());
      for (auto& t : run) v.full.ops.push_back(std::move(t.op));
    }
    core_.note_submission();
    const std::uint64_t nonce = tob_.broadcast(std::move(v));
    core_.start_latency(nonce, net_.now());
  }

  void on_commit(std::uint64_t slot, ProcessId origin, std::uint64_t nonce,
                 const Value& v) {
    parked_.push_back(Parked{slot, origin, nonce, v});
    try_apply();
  }

  /// Applies parked blocks strictly in commit (slot) order; the head
  /// blocks the tail, so a reconstruction stall delays applies without
  /// reordering them.  Each block is filtered against the applied-id set
  /// before replay (the double-submit guard's cross-replica half): the
  /// set is a pure function of the committed prefix (plus, on a
  /// rejoiner, the installed snapshot's applied_ids), so every replica
  /// drops the same occurrences and the rendered history stays
  /// byte-identical.
  void try_apply() {
    while (!parked_.empty()) {
      Parked& h = parked_.front();
      std::vector<OpId> missing;
      std::optional<Block<S>> blk = reconstruct(h.value, missing);
      if (!blk) {
        relay_.fetch(h.value.block_id, h.value.proposer, std::move(missing),
                     h.value.ids);
        return;
      }
      relay_.cancel(h.value.block_id);
      proposal_bytes_ += wire_size_of(h.value);
      const std::uint64_t slot = h.slot;
      const ProcessId origin = h.origin;
      const std::uint64_t nonce = h.nonce;
      TS_EXPECTS(h.value.ids.size() == blk->ops.size());
      Block<S> fresh;
      fresh.ops.reserve(blk->ops.size());
      for (std::size_t i = 0; i < blk->ops.size(); ++i) {
        if (applied_ids_.insert(h.value.ids[i]).second) {
          fresh.ops.push_back(std::move(blk->ops[i]));
        }
      }
      if (recovering_) catchup_ops_ += fresh.ops.size();
      core_.append(slot, origin, net_.now(), engine_->apply(fresh));
      if (origin == self_) core_.finish_latency(nonce, net_.now());
      parked_.pop_front();
      if (rcfg_.snapshot_interval > 0 &&
          (slot + 1) % rcfg_.snapshot_interval == 0) {
        cut_snapshot(slot + 1);
      }
      if (on_apply_) on_apply_(slot);
    }
    if (recovering_ && have_target_ &&
        tob_.delivered_count() >= target_frontier_) {
      finish_recovery();
    }
  }

  /// Freezes the replica's image at `boundary` (slots [0, boundary) are
  /// applied), retains it, gossips the durable mark, and — with pruning
  /// on — truncates the consensus log below the all-replica mark floor.
  void cut_snapshot(std::uint64_t boundary) {
    Snap snap;
    snap.next_slot = boundary;
    snap.state = engine_->ledger().snapshot();
    snap.origin_frontier = tob_.origin_frontiers();
    snap.applied_ids.assign(applied_ids_.begin(), applied_ids_.end());
    std::sort(snap.applied_ids.begin(), snap.applied_ids.end());
    snap.pool_residue = pool_.peek_tagged();
    snapshot_bytes_ = snap.serialize().size();
    recovery_.store().add(std::move(snap));
    ++snapshots_cut_;
    recovery_.mark(boundary);
    if (rcfg_.prune) tob_.truncate_below(recovery_.prune_floor());
  }

  /// A kSnapReply arrived.  Install-if-virgin: the snapshot is adopted
  /// only while this node has applied NOTHING yet (empty log, nothing
  /// parked, delivery frontier at or below the snapshot boundary) and it
  /// is strictly newer than anything installed before — which makes
  /// duplicate replies no-ops and lets a stale first install (the
  /// rejoin-with-stale-snapshot variant) be superseded by a fresher one
  /// as long as no suffix slot has been replayed on top of it.  The
  /// reply's frontier (max-merged across replies) is the catch-up
  /// target; reaching it ends recovery.  A peer's pool residue is its
  /// LOCAL annex and is deliberately not adopted.
  void on_snap_reply(bool has, const std::vector<std::uint8_t>& bytes,
                     std::uint64_t frontier) {
    if (!recovering_) {
      recovery_.done();
      return;
    }
    if (has) {
      Snap snap = Snap::deserialize(bytes);
      const bool virgin = core_.log().empty() && parked_.empty() &&
                          tob_.delivered_count() <= snap.next_slot &&
                          snap.next_slot > install_slot_;
      if (virgin) {
        engine_ = std::make_unique<ReplayEngine<S>>(snap.state, eopts_);
        applied_ids_.clear();
        applied_ids_.insert(snap.applied_ids.begin(),
                            snap.applied_ids.end());
        install_slot_ = snap.next_slot;
        installed_hash_ = snap.content_hash();
        snapshot_bytes_ = bytes.size();
        recovery_.store().add(snap);
        // Mark the install boundary: it holds the prune floor at or
        // below our position until we are caught up (and tells peers we
        // can serve this snapshot onward).
        recovery_.mark(snap.next_slot);
        tob_.advance_to(snap.next_slot, snap.origin_frontier);
      }
    }
    target_frontier_ =
        std::max({target_frontier_, frontier, tob_.delivered_count()});
    have_target_ = true;
    if (tob_.delivered_count() >= target_frontier_) {
      finish_recovery();
    } else {
      tob_.sync();  // walk the retained log suffix
    }
  }

  void finish_recovery() {
    recovering_ = false;
    recovery_.done();
    // Intake pooled during catch-up: cut it now if already a full block
    // (partial fills ride the next deadline tick).
    propose(cutter_.cut_if_full());
  }

  /// Rebuilds the committed block: trivial for full values; for compact
  /// values, each id resolves from the local TxPool index or the relay
  /// store.  Unresolved ids land in `missing`.
  std::optional<Block<S>> reconstruct(const Value& v,
                                      std::vector<OpId>& missing) {
    if (!v.compact) return v.full;
    Block<S> blk;
    blk.ops.reserve(v.ids.size());
    for (OpId id : v.ids) {
      const BatchOp* op = pool_.lookup(id);
      if (!op) op = relay_.find(id);
      if (!op) {
        missing.push_back(id);
        continue;
      }
      blk.ops.push_back(*op);
    }
    if (!missing.empty()) return std::nullopt;
    return blk;
  }

  struct Parked {
    std::uint64_t slot = 0;
    ProcessId origin = 0;
    std::uint64_t nonce = 0;
    Value value;
  };

  Net& net_;
  ProcessId self_;
  RelayMode relay_mode_;
  RecoveryConfig rcfg_;
  ExecOptions eopts_;  // kept to rebuild the engine on snapshot install
  TxPool<S> pool_;
  std::unique_ptr<ReplayEngine<S>> engine_;
  Cutter<S> cutter_;
  Mux mux_;
  Tob tob_;
  Relay relay_;
  Recovery recovery_;
  ReplicaCore core_;
  std::function<void(std::uint64_t)> on_apply_;
  std::deque<Parked> parked_;
  std::size_t ops_submitted_ = 0;
  std::uint64_t blocks_proposed_ = 0;
  std::uint64_t proposal_bytes_ = 0;
  /// OpIds the committed history has applied (snapshot-seeded on a
  /// rejoiner) — the apply-time dedup filter's key set.
  std::unordered_set<OpId> applied_ids_;
  bool recovering_ = false;
  bool have_target_ = false;
  std::uint64_t target_frontier_ = 0;
  std::uint64_t catchup_ops_ = 0;
  std::uint64_t snapshot_bytes_ = 0;
  std::uint64_t install_slot_ = 0;
  std::uint64_t installed_hash_ = 0;
  std::size_t snapshots_cut_ = 0;
};

}  // namespace tokensync
