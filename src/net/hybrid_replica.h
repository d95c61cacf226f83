// HybridReplicaNode — synchronization-tiered replication: a
// consensus-free ERB fast lane for CN = 1 operations next to the Paxos
// consensus lane, merged into one deterministic committed history
// (DESIGN.md §11; the ISSUE 5 tentpole), with the ISSUE 6 bytes-on-wire
// levers on both lanes.
//
// The paper's point is that "pay for consensus" is per-OPERATION, not
// per-object: owner-signed transfers (consensus number 1) need only
// per-sender FIFO reliable broadcast, while approve/transferFrom races
// need genuine consensus.  This runtime routes each submitted operation
// by SyncTraits<S> (objects/sync_class.h):
//
//   fast lane  — caller == submitting replica AND classify() == kFast:
//                the op rides the eager reliable broadcast (bcast/erb.h),
//                consuming ZERO consensus slots;
//   slow lane  — everything else: the op rides the Paxos-backed
//                total-order broadcast (atbcast/total_order.h), and its
//                consensus value carries a FRONTIER — the proposer's
//                per-origin ERB delivery cut.
//
// All lanes share ONE SimNet through the LaneMux (net/lane_mux.h), so
// the whole fault matrix (loss, duplication, partition+heal, minority
// crash) hits them at once.
//
// THE MERGE RULE (what makes the two-lane history deterministic):
// committed consensus slots are barriers.  When slot s (value v, frontier
// F) commits, a replica first waits until its ERB streams reach F, then
// applies — as ONE block through the ReplayEngine — the epoch
//
//   [ all delivered-but-unapplied fast ops with seq < F[origin],
//     in canonical (origin, seq) order ]  ++  [ v's operations ]
//
// and appends the block's rendering as the slot's log entry.  Because F
// is part of the DECIDED value, every replica cuts the identical epoch
// at the identical point; because the epoch is a ReplayEngine block, the
// ConflictPlanner orders conflicting σ-footprints inside it and the
// result is byte-identical for any replay worker count (the merge
// barrier literally reuses the planner).  Fast ops beyond every decided
// frontier apply in one terminal epoch at finalize() — for a
// pure-transfer run (zero consensus slots) the entire history is that
// canonical terminal epoch, a pure function of the submitted operations,
// independent of replicas, fault profile and replay parallelism.
//
// Both lanes pool their intake in a TxPool and cut it with the shared
// Cutter (exec/cutter.h) — one size/deadline rule, each lane with its
// own size and a one-shot erb_deadline timer.  The slow lane's cut is a
// SUB-BLOCK (DESIGN.md §16): slow_subblock_ops consensus-class ops ride
// one SlowCmd proposal; the default 1 makes every op a one-op
// sub-block.
//
// ISSUE 6 — the bytes levers (DESIGN.md §12):
//
//   * ERB BATCHING (HybridConfig::erb_batch / erb_deadline).  The fast
//     lane broadcasts one FastBatch per size/deadline cut instead of one
//     message per op — the §10 cut rule transplanted onto the O(n²)
//     flood.  A batch is one wire message carrying ONE client signature
//     (same origin, one signer), so the per-broadcast header, the n² ack
//     traffic and the kOpAuthBytes all amortize over the batch.  ERB
//     sequence numbers, the frontier vector and the merge cursors become
//     BATCH-granular; each batch unrolls in submission order inside its
//     epoch, so per-origin FIFO and the origin-major canonical order are
//     untouched.  The deadline cut is a node-local one-shot callback
//     (armed when the lane's pool becomes non-empty), so no op waits
//     more than erb_deadline for its cut; an empty pool's tick
//     broadcasts nothing.
//   * COMPACT SLOW LANE (HybridConfig::relay_mode).  Under
//     RelayMode::kCompact a slow command's consensus value carries only
//     {frontier, OpIds}: the proposer announces the full (signed)
//     payloads once on the auxiliary relay lane (net/compact_relay.h),
//     every phase of every Paxos slot ships the 8-byte references, and
//     a replica that committed the slot without the payloads recovers
//     them with the kGetOps round-trip.  Relay traffic is auxiliary-class
//     (second Rng/tie-break stream), so the primary schedule — ERB and
//     Paxos alike — is bit-identical across relay modes; recovery can
//     only delay a barrier's local APPLY (the barrier queue parks),
//     never change committed content or order: histories are
//     byte-identical between kFull and kCompact.
//
// Liveness of the barrier rests on ERB agreement (crash-stop model): a
// frontier only references fast batches its proposer DELIVERED, and if
// any correct node delivered an ERB message every correct node
// eventually does.  The one theoretical gap — a proposer that delivers
// its own fast batch, wins a slot referencing it, then crashes before
// any send survives link loss — needs crash + loss in one run, which
// the fault matrix (and the crash-stop model's fair-lossy assumption
// with retransmission until ack) does not produce.
//
// ISSUE 9 — the Byzantine fast lane (DESIGN.md §15):
// `HybridConfig::fast_lane` swaps the CN-1 lane's broadcast primitive.
// Under FastLane::kBracha the fast lane rides Bracha reliable broadcast
// (bcast/bracha.h): same FIFO frontier surface, same merge rule, but a
// slot delivers only behind a 2f+1 READY quorum, so up to f < n/3 LYING
// replicas cannot split what correct replicas deliver.  The one
// behavioral difference the runtime absorbs: Bracha does NOT deliver
// the local copy synchronously inside broadcast() (ERB does), so the
// batch counter advances at the cut, not at delivery, and a fast op's
// commit latency includes the quorum round-trips.
//
// RESPEND DEFENSE on top of it: when the Bracha lane catches an origin
// signing two payloads for one (origin, seq) — a client double-spending
// the same intake slot — the node (a) records the canonical
// ConflictProof, (b) quarantines the origin in QuarantineSyncTraits so
// every later fast-lane submission it makes here escalates to the
// consensus lane, and (c) relays the proof over a dedicated
// auxiliary-class ERB lane (lane 4) so replicas that never saw both
// payloads on the wire — detection evidence can route past a node —
// still install the identical proof.  The proof lane is aux-class like
// the compact relay: it cannot perturb the primary schedule, so a run
// with an equivocator commits the byte-identical history of the same
// run without one — equivocation changes the PROOF ledger, never the
// token ledger, and at most one branch (the majority SEND, by quorum
// intersection) ever commits anywhere.
//
// Fast-lane semantics: an op's response is computed at its canonical
// merge position (the spec's Δ, same as every other runtime — an
// underfunded transfer returns FALSE deterministically everywhere).
// Commit latency for fast ops is submit -> local ERB delivery OF ITS
// BATCH: delivery fixes the batch's canonical position irrevocably,
// which is the fast lane's commit point — so batching trades per-op
// latency (up to the cut wait) for bytes, and the benchmarks report
// both sides of that trade.  Slow-op latency is submit -> barrier apply
// (including any compact-relay recovery wait).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "atbcast/total_order.h"
#include "atomic/ledger.h"
#include "bcast/bracha.h"
#include "bcast/erb.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/wire.h"
#include "exec/block.h"
#include "exec/cutter.h"
#include "exec/exec_specs.h"
#include "exec/replay_engine.h"
#include "exec/snapshot.h"
#include "net/compact_relay.h"
#include "net/lane_mux.h"
#include "net/replica_core.h"
#include "net/simnet.h"
#include "objects/sync_class.h"

namespace tokensync {

/// Conflict-proof relay traffic is auxiliary-class (common/wire.h): like
/// compact-relay recovery, proof gossip must not perturb the primary
/// schedule — histories have to stay byte-identical with and without an
/// equivocator in the run.
template <typename P>
struct is_aux_wire<ErbMsg<ConflictProof<P>>> : std::true_type {};

/// Hybrid runtime knobs (the lane split itself is SyncTraits-driven).
struct HybridConfig {
  /// Slow-lane relay policy: full payloads in every Paxos phase, or
  /// op-ID references with recover-on-miss (history-invariant).
  RelayMode relay_mode = RelayMode::kFull;
  /// Fast-lane size cut: own fast ops per ERB broadcast.  1 = the
  /// op-per-message baseline (no deadline callback is ever armed); 0
  /// counts as 1, like every lane's cut.
  std::size_t erb_batch = 1;
  /// Fast-lane deadline cut period (simulated time): a partial batch
  /// never waits longer than this for its broadcast.
  std::uint64_t erb_deadline = 25;
  /// Route EVERY operation through the consensus lane (SyncTraits
  /// ignored) — the all-Paxos baseline the benchmarks compare the lane
  /// split against (same script, same network, zero fast commits).
  bool force_consensus = false;
  /// Slow-lane size cut (DESIGN.md §16): consensus-class ops pooled
  /// into one SUB-BLOCK per SlowCmd proposal, amortizing the Paxos slot
  /// and the frontier vector over the batch.  1 = one op per slot (no
  /// deadline callback is ever armed); a partial sub-block never waits
  /// longer than `erb_deadline` for its cut.
  std::size_t slow_subblock_ops = 1;
  /// Which broadcast primitive backs the fast lane: crash-tolerant ERB
  /// (default) or Byzantine-tolerant Bracha with equivocation detection
  /// (DESIGN.md §15).
  FastLane fast_lane = FastLane::kErb;
};

template <ConcurrentTokenSpec S>
class HybridReplicaNode {
 public:
  using Op = typename S::Op;
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;

  /// Fast-lane payload: one same-origin run of owner-signed operations
  /// (the submitting replica speaks for exactly one account, so a batch
  /// has one caller and ONE signature).
  struct FastBatch {
    ProcessId caller = 0;
    std::vector<Op> ops;

    /// caller + length prefix + payloads + one shared signature.
    std::uint64_t wire_size() const {
      std::uint64_t bytes = 4 + 8 + kOpAuthBytes;
      for (const Op& op : ops) bytes += wire_size_of(op);
      return bytes;
    }

    friend bool operator==(const FastBatch&, const FastBatch&) = default;
    /// Total order (requires Op<=>): Bracha keys its per-slot quorum
    /// maps by payload and canonicalizes ConflictProof branches by it.
    friend auto operator<=>(const FastBatch&, const FastBatch&) = default;
  };

  /// Slow-lane payload: one cut sub-block of consensus-class ops plus
  /// the proposer's ERB delivery frontier — the merge barrier's cut
  /// (file comment).  Each op keeps its own caller and signature (unlike
  /// a FastBatch, the run spans callers).  Under compact relay the ops
  /// stay home (announced on the relay lane) and only their 8-byte ids
  /// travel; the frontier is the barrier semantics itself and always
  /// rides in the decided value.
  struct SlowCmd {
    std::vector<std::uint64_t> frontier;
    std::vector<BatchOp> batch;   ///< full relay: the payloads
    std::vector<OpId> batch_ids;  ///< compact relay: their ids only

    bool compact() const noexcept { return !batch_ids.empty(); }
    std::size_t size() const noexcept {
      return batch.size() + batch_ids.size();
    }

    /// Frontier + length prefix + payloads (or 8-byte ids).
    std::uint64_t wire_size() const {
      std::uint64_t bytes = 8 + 8 * frontier.size() + 8;
      if (compact()) return bytes + 8 * batch_ids.size();
      for (const BatchOp& b : batch) bytes += b.wire_size();
      return bytes;
    }

    friend bool operator==(const SlowCmd&, const SlowCmd&) = default;
  };

  using FastMsg = ErbMsg<FastBatch>;
  using SlowMsg = PaxosMsg<TobCmd<SlowCmd>>;
  using Proof = ConflictProof<FastBatch>;
  /// Lanes 0-2 are the ISSUE 5/6 stack; lane 3 is the Bracha fast lane
  /// (active instead of lane 0 under FastLane::kBracha) and lane 4 the
  /// aux-class conflict-proof relay — all five over ONE SimNet.
  using Mux = LaneMux<FastMsg, SlowMsg, RelayMsg<BatchOp>,
                      BrachaMsg<FastBatch>, ErbMsg<Proof>>;
  using Net = typename Mux::Net;
  using Erb = ErbNode<FastBatch, typename Mux::template LaneT<0>>;
  using Tob = TotalOrderBcast<SlowCmd, typename Mux::template LaneT<1>>;
  using Relay = RelayEndpoint<BatchOp, typename Mux::template LaneT<2>>;
  using Bracha = BrachaNode<FastBatch, typename Mux::template LaneT<3>>;
  using ProofRelay = ErbNode<Proof, typename Mux::template LaneT<4>>;
  using Entry = ReplicaCore::Entry;

  HybridReplicaNode(Net& net, ProcessId self,
                    const typename S::SeqState& initial, ExecOptions eopts,
                    HybridConfig hcfg = {}, std::uint64_t retry_delay = 40)
      : net_(net), self_(self), cfg_(hcfg), mux_(net, self),
        fast_(cfg_.erb_batch), slow_(cfg_.slow_subblock_ops),
        engine_(std::make_unique<ReplayEngine<S>>(initial, eopts)),
        delivered_(net.num_nodes(), 0), applied_(net.num_nodes(), 0),
        buf_(net.num_nodes()),
        erb_(mux_.template lane<0>(), self,
             [this](ProcessId origin, std::uint64_t seq, const FastBatch& b) {
               on_fast_deliver(origin, seq, b);
             }),
        tob_(mux_.template lane<1>(), self,
             [this](std::uint64_t slot, ProcessId origin, std::uint64_t,
                    const SlowCmd& c) { on_slow_commit(slot, origin, c); },
             retry_delay),
        relay_(mux_.template lane<2>(), self, [this] { try_apply(); }),
        bracha_(mux_.template lane<3>(), self,
                /*f=*/(net.num_nodes() - 1) / 3,
                [this](ProcessId origin, std::uint64_t seq,
                       const FastBatch& b) { on_fast_deliver(origin, seq, b); },
                [this](const Proof& proof) { on_conflict(proof); }),
        proof_relay_(mux_.template lane<4>(), self,
                     [this](ProcessId, std::uint64_t, const Proof& proof) {
                       install_proof(proof);
                     }) {
    slow_.pool.set_origin(self);  // relay ids must be cluster-unique
  }

  HybridReplicaNode(const HybridReplicaNode&) = delete;
  HybridReplicaNode& operator=(const HybridReplicaNode&) = delete;

  /// Client intake: classifies and routes.  The fast lane additionally
  /// requires caller == self — this replica must SPEAK FOR the caller's
  /// account, because per-sender FIFO only orders one broadcaster's
  /// stream (objects/sync_class.h).
  void submit(ProcessId caller, Op op) {
    core_.note_submission();
    // QuarantineSyncTraits wraps the static classifier: an origin with
    // an installed ConflictProof has lost fast-lane privileges here.
    const bool fast =
        !cfg_.force_consensus && caller == self_ &&
        quarantine_.classify(caller, op) == SyncClass::kFast;
    // The op's latency window opens now.  A fast op's closes when its
    // BATCH is delivered locally (the fast lane's commit point), a slow
    // op's at its barrier apply — so the cut wait is part of the
    // measured cost of batching on both lanes.
    if (fast) {
      core_.start_latency(fast_key(fast_.pool.submitted()), net_.now());
      intake(fast_, caller, std::move(op), &HybridReplicaNode::flush_fast);
    } else {
      core_.start_latency(slow_key(slow_.pool.submitted()), net_.now());
      intake(slow_, caller, std::move(op), &HybridReplicaNode::flush_slow);
    }
  }

  /// Anti-entropy probe (slow lane; the ERB's periodic retransmission IS
  /// the fast lane's anti-entropy).
  void sync() { tob_.sync(); }

  /// Applies the terminal epoch: every delivered-but-unapplied fast op,
  /// in canonical (origin, seq) order, as one block.  Harnesses call
  /// this once per correct replica after draining to convergence; a
  /// crashed replica never finalizes (its history stays a prefix).
  /// Idempotent — an empty terminal epoch appends nothing.
  void finalize() {
    Blk blk = cut_epoch(delivered_);
    if (blk.empty()) return;
    fast_lane_ops_ += blk.size();
    // Label: one past the highest consensus slot this replica applied
    // (slots that dedup'd away leave gaps, so slot COUNT could collide
    // with a real slot number), origin 0 — both replica-independent, so
    // the terminal entry renders identically everywhere.
    const std::uint64_t label =
        core_.log().empty() ? 0 : core_.log().back().slot + 1;
    core_.append(label, /*origin=*/0, net_.now(), engine_->apply(blk));
  }

  // --- the scenario-audit interface (ReplicaCore surface) ---

  std::size_t submitted() const noexcept { return core_.submitted(); }
  std::string history() const { return core_.history(); }
  const std::vector<Entry>& log() const noexcept { return core_.log(); }
  const std::vector<std::uint64_t>& commit_latencies() const noexcept {
    return core_.commit_latencies();
  }
  /// Every submission of THIS replica reached its commit point here:
  /// slow-lane payloads all decided and applied (no parked barrier —
  /// which also certifies every compact payload was recovered), no fast
  /// op still waiting for its cut, and every own fast batch applied
  /// (which implies finalize() ran if any fast op was submitted).
  bool all_settled() const {
    return tob_.all_settled() && barrier_queue_.empty() &&
           fast_.pool.pending() == 0 && slow_.pool.pending() == 0 &&
           applied_[self_] == fast_.cutter.cuts();
  }

  // --- lane accounting ---

  const ReplayEngine<S>& engine() const noexcept { return *engine_; }
  /// Consensus slots committed here (each = one barrier block).
  std::size_t consensus_slots() const noexcept { return slots_committed_; }
  /// Fast-lane ops applied here (inside barrier epochs + terminal epoch).
  std::size_t fast_lane_ops() const noexcept { return fast_lane_ops_; }
  std::size_t fast_submitted() const { return fast_.pool.submitted(); }
  /// Fast batches this replica broadcast (ops / batches = the achieved
  /// amortization the E19 sweep reports).
  std::size_t fast_batches() const noexcept { return fast_.cutter.cuts(); }

  // --- Byzantine-tier accounting (DESIGN.md §15) ---

  /// Installed conflict proofs, keyed by (origin, seq).  Canonical form
  /// means the acceptance check "every correct replica holds the
  /// identical proof" is literal map equality across replicas.
  const std::map<std::pair<ProcessId, std::uint64_t>, Proof>&
  conflict_proofs() const noexcept {
    return proofs_;
  }
  bool is_quarantined(ProcessId origin) const {
    return quarantine_.is_quarantined(origin);
  }
  std::size_t num_quarantined() const {
    return quarantine_.num_quarantined();
  }
  /// Fast batches applied here whose slot had a conflict proof — the
  /// surviving branches of detected double-spends (one per proof when
  /// conservation holds).
  std::size_t equivocation_commits() const noexcept {
    return equivocation_commits_;
  }

  // --- relay accounting / test hooks ---

  RelayMode relay_mode() const noexcept { return cfg_.relay_mode; }
  const Relay& relay() const noexcept { return relay_; }
  /// Consensus-value bytes of the slots committed here.
  std::uint64_t proposal_bytes() const noexcept { return proposal_bytes_; }

  /// The replica's image after finalize(), as a Snapshot<S> (exec/
  /// snapshot.h): the boundary is one past the last applied barrier
  /// label, the frontier is the per-origin ERB batch frontier, and the
  /// applied-id / pool-residue fields are empty (the hybrid lanes have
  /// no block-replica intake identity).  Two correct replicas that
  /// converged and finalized hold snapshots with EQUAL content hashes —
  /// the hash-based state-agreement check the recovery tests reuse
  /// across runtimes.
  Snapshot<S> terminal_snapshot() const {
    Snapshot<S> snap;
    snap.next_slot =
        core_.log().empty() ? 0 : core_.log().back().slot + 1;
    snap.state = engine_->ledger().snapshot();
    snap.origin_frontier = applied_;
    return snap;
  }
  /// Test hook: suppress relay announcements so every peer's barrier
  /// must recover its payload through kGetOps.
  void set_announce_enabled(bool enabled) {
    relay_.set_announce_enabled(enabled);
  }

 private:
  using Blk = Block<S>;
  using Run = typename Cutter<S>::Run;

  /// One intake lane: its pool, the shared cut rule over it, and its
  /// one-shot deadline flag.  Pinned: the cutter and the deadline
  /// callback hold its address.
  struct Intake {
    explicit Intake(std::size_t max_ops) : cutter(pool, max_ops) {}
    Intake(const Intake&) = delete;
    Intake& operator=(const Intake&) = delete;

    TxPool<S> pool;
    Cutter<S> cutter;
    bool deadline_armed = false;
  };

  struct PendingBarrier {
    std::uint64_t slot = 0;
    ProcessId origin = 0;
    SlowCmd cmd;
  };

  // Latency keys: per-lane intake indices, lane-tagged so the two lanes
  // cannot collide in the shared ReplicaCore map.
  static std::uint64_t fast_key(std::uint64_t i) { return i * 2 + 1; }
  static std::uint64_t slow_key(std::uint64_t i) { return i * 2; }

  /// Pools `op` on `lane` and applies the cut rule: a full pool hands
  /// its run to `flush` now; otherwise a one-shot deadline, armed when
  /// the first op pools, flushes whatever is pending when it fires.  A
  /// size cut may empty the pool first — the tick then cuts nothing.
  void intake(Intake& lane, ProcessId caller, Op op,
              void (HybridReplicaNode::*flush)(Run)) {
    lane.pool.submit(caller, std::move(op));
    if (Run run = lane.cutter.cut_if_full(); !run.empty()) {
      (this->*flush)(std::move(run));
    } else if (!lane.deadline_armed) {
      lane.deadline_armed = true;
      net_.call_at(self_, cfg_.erb_deadline, [this, &lane, flush] {
        lane.deadline_armed = false;
        if (Run run = lane.cutter.cut(); !run.empty()) {
          (this->*flush)(std::move(run));
        }
      });
    }
  }

  /// Fast-lane cut: broadcast the run as one FastBatch on the
  /// configured lane.  The batch count (the cutter's) advances at the
  /// cut, not at delivery: ERB delivers the local copy synchronously
  /// inside broadcast(), Bracha only behind the 2f+1 READY quorum —
  /// counting at the cut keeps all_settled() meaning the same thing on
  /// both lanes ("every own batch reached its commit point").  The ops'
  /// latency windows still close at local delivery.
  void flush_fast(Run run) {
    FastBatch b;
    b.caller = self_;
    b.ops.reserve(run.size());
    for (auto& t : run) b.ops.push_back(std::move(t.op.op));
    const std::uint64_t seq = cfg_.fast_lane == FastLane::kBracha
                                  ? bracha_.broadcast(std::move(b))
                                  : erb_.broadcast(std::move(b));
    TS_ASSERT(seq == fast_.cutter.cuts() - 1);
  }

  /// Slow-lane cut: the run becomes ONE SlowCmd sub-block.  The
  /// frontier is read HERE — the barrier cut reflects the proposer's
  /// delivery state at proposal time.  Under compact relay every op is
  /// announced individually (each carries its own signature) under its
  /// pool id, and the decided value ships only the id vector.  No
  /// per-proposal latency window: the ops' windows are already open
  /// (submit) and close one by one at the barrier apply.
  void flush_slow(Run run) {
    SlowCmd c;
    c.frontier = delivered_;
    if (cfg_.relay_mode == RelayMode::kCompact) {
      c.batch_ids.reserve(run.size());
      for (const auto& t : run) c.batch_ids.push_back(t.id);
      relay_.announce(run);
    } else {
      c.batch.reserve(run.size());
      for (auto& t : run) c.batch.push_back(std::move(t.op));
    }
    tob_.broadcast(std::move(c));
  }

  void on_fast_deliver(ProcessId origin, std::uint64_t seq,
                       const FastBatch& b) {
    TS_ASSERT(seq == delivered_[origin]);  // per-sender FIFO, both lanes
    ++delivered_[origin];
    if (origin == self_) {
      for (std::size_t i = 0; i < b.ops.size(); ++i) {
        core_.finish_latency(fast_key(fast_ops_finished_++), net_.now());
      }
    }
    buf_[origin].push_back(b);
    try_apply();  // a parked barrier may now have its frontier
  }

  /// Local detection: the Bracha lane saw two origin-signed payloads
  /// for one slot.  Install (first detection wins; the proof is
  /// canonical so every detector builds the same record) and relay it
  /// on the aux proof lane — ERB's eager re-broadcast + retransmission
  /// makes the proof reach every correct replica even when the raw
  /// equivocation evidence didn't.
  void on_conflict(const Proof& proof) {
    if (install_proof(proof)) proof_relay_.broadcast(proof);
  }

  /// Idempotent proof intake (local detection or proof relay):
  /// remembers the proof and quarantines the origin.
  bool install_proof(const Proof& proof) {
    const auto key = std::pair{proof.origin, proof.seq};
    if (!proofs_.emplace(key, proof).second) return false;
    quarantine_.quarantine(proof.origin);
    return true;
  }

  void on_slow_commit(std::uint64_t slot, ProcessId origin,
                      const SlowCmd& c) {
    TS_ASSERT(c.frontier.size() == delivered_.size());
    barrier_queue_.push_back(PendingBarrier{slot, origin, c});
    try_apply();
  }

  /// Applies every head barrier whose frontier the ERB streams have
  /// reached AND whose payload is at hand, in slot order (TotalOrderBcast
  /// delivers contiguously, and a parked head blocks everything behind
  /// it — total order is preserved through the merge).
  void try_apply() {
    while (!barrier_queue_.empty()) {
      const PendingBarrier& head = barrier_queue_.front();
      for (ProcessId o = 0; o < delivered_.size(); ++o) {
        if (delivered_[o] < head.cmd.frontier[o]) return;  // park: frontier
      }
      // Compact sub-blocks fetch under their first op's id (unique: every
      // op id rides exactly one sub-block).
      const SlowCmd& cmd = head.cmd;
      if (cmd.compact()) {
        std::vector<OpId> missing;
        for (const OpId id : cmd.batch_ids) {
          if (!relay_.find(id)) missing.push_back(id);
        }
        if (!missing.empty()) {  // park: payloads in flight
          relay_.fetch(cmd.batch_ids.front(), head.origin, missing,
                       cmd.batch_ids);
          return;
        }
        relay_.cancel(cmd.batch_ids.front());
      }
      // The sub-block unrolls in submission order inside the barrier
      // epoch — one engine apply for fast cut + whole sub-block.
      Blk blk = cut_epoch(cmd.frontier);
      fast_lane_ops_ += blk.size();
      for (const OpId id : cmd.batch_ids) blk.ops.push_back(*relay_.find(id));
      blk.ops.insert(blk.ops.end(), cmd.batch.begin(), cmd.batch.end());
      proposal_bytes_ += wire_size_of(cmd);
      core_.append(head.slot, head.origin, net_.now(), engine_->apply(blk));
      ++slots_committed_;
      if (head.origin == self_) {
        // Own sub-blocks commit in nonce order (TotalOrderBcast proposes
        // pending nonces sequentially), so the ops' windows close in the
        // same order they opened.
        for (std::size_t i = 0; i < cmd.size(); ++i) {
          core_.finish_latency(slow_key(slow_ops_finished_++), net_.now());
        }
      }
      barrier_queue_.pop_front();
    }
  }

  /// Drains the fast buffers up to `frontier` (per origin, in BATCHES; a
  /// frontier older than what a previous barrier already consumed drains
  /// nothing — epochs only move forward) in canonical (origin, seq)
  /// order, unrolling each batch's ops in submission order.
  Blk cut_epoch(const std::vector<std::uint64_t>& frontier) {
    Blk blk;
    for (ProcessId o = 0; o < buf_.size(); ++o) {
      const std::uint64_t upto =
          std::min<std::uint64_t>(frontier[o], delivered_[o]);
      while (applied_[o] < upto) {
        FastBatch& b = buf_[o].front();
        // A batch whose slot carries a ConflictProof is the SURVIVING
        // branch of a detected double-spend (agreement delivered the
        // same single branch everywhere) — count it so reports can pin
        // "exactly one branch committed".
        if (proofs_.contains(std::pair{o, applied_[o]})) {
          ++equivocation_commits_;
        }
        for (Op& op : b.ops) {
          blk.ops.push_back(BatchOp{b.caller, std::move(op)});
        }
        buf_[o].pop_front();
        ++applied_[o];
      }
    }
    return blk;
  }

  Net& net_;
  ProcessId self_;
  HybridConfig cfg_;
  Mux mux_;
  Intake fast_;  ///< own fast ops awaiting their cut
  Intake slow_;  ///< own consensus-class ops awaiting their cut
  std::unique_ptr<ReplayEngine<S>> engine_;  // pinned (replay_engine.h)
  std::vector<std::uint64_t> delivered_;  ///< per-origin ERB frontier (batches)
  std::vector<std::uint64_t> applied_;    ///< per-origin merge cursor (batches)
  std::vector<std::deque<FastBatch>> buf_;  ///< delivered, unapplied
  Erb erb_;
  Tob tob_;
  Relay relay_;
  Bracha bracha_;
  ProofRelay proof_relay_;
  QuarantineSyncTraits<S> quarantine_;
  std::map<std::pair<ProcessId, std::uint64_t>, Proof> proofs_;
  std::size_t equivocation_commits_ = 0;
  std::deque<PendingBarrier> barrier_queue_;
  ReplicaCore core_;
  std::size_t fast_ops_finished_ = 0;  ///< fast latency keys closed
  std::size_t slow_ops_finished_ = 0;  ///< slow latency keys closed
  std::size_t fast_lane_ops_ = 0;
  std::size_t slots_committed_ = 0;
  std::uint64_t proposal_bytes_ = 0;
};

}  // namespace tokensync
