// MultiProposerNode — the leaderless multi-proposer pipeline
// (DESIGN.md §16, the ISSUE 10 tentpole).
//
// The single-proposer block pipeline (net/block_replica.h) serializes
// proposal bandwidth: one replica's block rides each Paxos slot, so the
// whole cluster's intake funnels through whoever wins the duel, and
// commit latency spikes the moment that proposer's links turn lossy.
// This runtime splits dissemination from ordering:
//
//   * every replica cuts its pooled intake into SUB-BLOCKS
//     (exec/subblock.h) and PUBLISHES them to its peers immediately, on
//     its own lane, concurrently with everyone else's — dissemination
//     bandwidth scales with the number of active origins;
//   * consensus orders only thin references: a slot value is
//     {proposer, vector<SubBlockRef>} — the proposer's cut through the
//     DAG of published-but-uncommitted sub-blocks (~16 bytes per
//     sub-block, the §12 compact-relay idea one level up);
//   * on commit, the replica flattens the referenced sub-blocks in the
//     value's canonical (origin, sub_seq) order into ONE block and
//     replays it through the planner — the committed history is a pure
//     function of the committed reference sequence, byte-identical
//     across replicas, replay thread counts and fault profiles.
//
// Proposer pacing (the fewer-slots mechanism): replicas 0..P-1 are
// proposers.  After each commit the "primary" rotates
// (delivered_count % P); the primary's proposal timer fires after a
// short base delay, rank-r backups after base + r*stagger (stagger ≈
// one consensus round-trip).  A timer only fires a proposal while
// uncovered references exist and no own proposal is outstanding, so in
// a fault-free run ONE covering proposal per consensus RTT retires
// every origin's sub-blocks regardless of P — total slots track the
// intake SPAN, which shrinks ~1/P when P replicas ingest concurrently.
// Under loss or a crashed primary the next rank's timer covers the cut
// after one stagger instead of waiting out a single proposer's Paxos
// retry backoff — that is the p99 win at P > 1.
//
// Exactly-once: two racing proposers may reference the SAME sub-block
// in adjacent slots (both saw it uncovered).  Commit-time dedup is
// two-layered and deterministic, because both filters are pure
// functions of the committed prefix: a sub-block reference already
// applied is dropped (counted in dup_refs_dropped); inside fresh
// sub-blocks, each op id is filtered through the applied-id set (the
// §10 double-submit guard at sub-block granularity — an op pooled and
// cut at two origins still applies exactly once).
//
// Recover-on-miss: a committed reference whose sub-block has not
// arrived (lost publish, partition) parks the slot — strictly
// head-of-line, like §12 — and fetches it with the shared RecoverOnMiss
// loop (net/recover_on_miss.h): value's proposer first, rotation,
// short fallback to the full reference list.  Publishes are also
// re-sent by their origin on deadline ticks while unreferenced
// (partition healing), so every published sub-block is eventually
// either referenced or recoverable.
//
// The sub-block lane is PRIMARY-class (not auxiliary): it is
// load-bearing — which references a proposal carries legitimately
// depends on publish arrival order — so it shares the primary Rng/
// tie-break stream.  Determinism per (config, seed) is untouched; the
// P = 1 run is simply a different schedule than the §10 pipeline's.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "atbcast/total_order.h"
#include "atomic/ledger.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/wire.h"
#include "exec/cutter.h"
#include "exec/replay_engine.h"
#include "exec/subblock.h"
#include "exec/txpool.h"
#include "net/lane_mux.h"
#include "net/recover_on_miss.h"
#include "net/replica_core.h"

namespace tokensync {

/// The multi-proposer consensus value: a proposer's cut through the
/// uncommitted sub-block DAG, references only.  Spec-independent — the
/// payloads it orders live in the sub-block lane.
struct MpValue {
  ProcessId proposer = 0;
  std::vector<SubBlockRef> refs;  ///< canonical (origin, sub_seq) order

  /// proposer + length prefix + ~16 bytes per reference.
  std::uint64_t wire_size() const { return 4 + 8 + 16 * refs.size(); }

  friend bool operator==(const MpValue&, const MpValue&) = default;
};

/// Sub-block lane wire message; `B` is the ledger BatchOp carried.
/// PRIMARY-class (no is_aux_wire specialization) — see the file
/// comment.
template <typename B>
struct SubBlockMsg {
  enum class Type : std::uint8_t {
    kPublish,  ///< origin -> peers: a freshly cut sub-block, eagerly
    kGetSubs,  ///< replica -> peer: sub-block ids I am missing
    kSubs,     ///< peer -> replica: the requested sub-blocks it has
  };

  Type type = Type::kPublish;
  std::uint64_t key = 0;          ///< kGetSubs/kSubs fetch correlation
  std::vector<OpId> ids;          ///< kGetSubs: requested sub-block ids
  std::vector<SubBlock<B>> subs;  ///< kPublish/kSubs payloads

  std::uint64_t wire_size() const {
    std::uint64_t bytes = kWireHeaderBytes + 8 + 8 * ids.size();
    for (const SubBlock<B>& s : subs) bytes += s.wire_size();
    return bytes;
  }
};

/// One replica's sub-block exchange: the id-keyed store fed by local
/// cuts and publishes, the kPublish/kGetSubs/kSubs protocol, and the
/// shared recover-on-miss fetch loop.  `NetT` is the sub-block lane's
/// facade (LaneNet over the shared SimNet).
template <typename B, typename NetT>
class SubBlockExchange {
 public:
  using Msg = SubBlockMsg<B>;
  using Sub = SubBlock<B>;
  /// Invoked once per sub-block that arrives from the NETWORK (publish
  /// or kSubs reply) and is new to the store — the node registers its
  /// reference and retries parked applies.
  using OnStore = std::function<void(const Sub&)>;

  SubBlockExchange(NetT& net, ProcessId self, OnStore on_store,
                   std::uint64_t retry_delay = 40, int fallback_after = 3)
      : net_(net), self_(self), on_store_(std::move(on_store)),
        recover_(net, self,
                 /*have=*/[this](OpId id) { return store_.contains(id); },
                 /*send=*/
                 [this](ProcessId target, std::uint64_t key,
                        const std::vector<OpId>& ids) {
                   Msg m;
                   m.type = Msg::Type::kGetSubs;
                   m.key = key;
                   m.ids = ids;
                   net_.send(self_, target, m);
                 },
                 retry_delay, fallback_after) {
    net_.set_handler(self_, [this](ProcessId from, const Msg& m) {
      on_message(from, m);
    });
    net_.set_timer_handler(self_,
                           [this](std::uint64_t) { recover_.on_timer(); });
  }

  /// Origin intake: remember an own cut (serves kGetSubs and our own
  /// commits).  Publishing is a separate step so the forced-miss test
  /// hook can suppress it without losing the local copy.
  void add_local(const Sub& s) { store_.emplace(s.id(), s); }

  /// Eager dissemination (and deadline-tick re-publish) of an own
  /// sub-block to every peer.
  void publish(const Sub& s) {
    if (!publish_enabled_) return;  // test hook: force universal misses
    Msg m;
    m.type = Msg::Type::kPublish;
    m.subs.push_back(s);
    for (ProcessId p = 0; p < net_.num_nodes(); ++p) {
      if (p != self_) net_.send(self_, p, m);
    }
  }

  /// O(1) store lookup; nullptr when this replica has never seen `id`.
  const Sub* find(OpId id) const {
    const auto it = store_.find(id);
    return it == store_.end() ? nullptr : &it->second;
  }

  /// Recover-on-miss entry points (net/recover_on_miss.h); `key` is the
  /// parked consensus slot.
  void fetch(std::uint64_t key, ProcessId proposer,
             std::vector<OpId> missing, std::vector<OpId> all) {
    recover_.fetch(key, proposer, std::move(missing), std::move(all));
  }
  void cancel(std::uint64_t key) { recover_.cancel(key); }
  bool idle() const noexcept { return recover_.idle(); }

  std::uint64_t miss_recoveries() const noexcept {
    return recover_.miss_recoveries();
  }
  std::uint64_t get_subs_sent() const noexcept {
    return recover_.requests_sent();
  }
  std::uint64_t fallbacks() const noexcept { return recover_.fallbacks(); }

  /// Test hook: with publishing off, every peer misses every sub-block
  /// and ALL reconstruction goes through the kGetSubs round-trip.
  void set_publish_enabled(bool enabled) { publish_enabled_ = enabled; }
  bool publish_enabled() const noexcept { return publish_enabled_; }

 private:
  void on_message(ProcessId from, const Msg& m) {
    switch (m.type) {
      case Msg::Type::kPublish:
      case Msg::Type::kSubs:
        for (const Sub& s : m.subs) {
          if (store_.emplace(s.id(), s).second && on_store_) on_store_(s);
        }
        return;
      case Msg::Type::kGetSubs: {
        Msg reply;
        reply.type = Msg::Type::kSubs;
        reply.key = m.key;
        for (OpId id : m.ids) {
          if (const auto it = store_.find(id); it != store_.end()) {
            reply.subs.push_back(it->second);
          }
        }
        // A partial reply still makes progress; an empty one would only
        // add chatter — the requester's rotation finds a better peer.
        if (!reply.subs.empty()) net_.send(self_, from, reply);
        return;
      }
    }
  }

  NetT& net_;
  ProcessId self_;
  OnStore on_store_;
  bool publish_enabled_ = true;
  std::unordered_map<OpId, Sub> store_;
  RecoverOnMiss<NetT> recover_;  // after store_: its Have reads store_
};

/// Multi-proposer pipeline knobs.
struct MultiProposerConfig {
  /// Replicas 0..num_proposers-1 propose reference cuts (clamped to
  /// [1, n]); every replica still cuts and publishes sub-blocks.
  std::size_t num_proposers = 1;
  /// Sub-block size cut (ops per sub-block; the dissemination batch).
  std::size_t subblock_max_ops = 4;
  /// Deadline-cut tick period — drivers schedule on_deadline() this
  /// often (flushes partial fills, re-publishes unreferenced cuts).
  std::uint64_t deadline = 25;
  /// Proposal pacing: the rotating primary fires base after waking,
  /// rank-r backups after base + r*stagger — a short rank spacing, so
  /// once takeover is warranted the next backup steps in fast.
  std::uint64_t propose_base = 4;
  std::uint64_t propose_stagger = 15;
  /// Backup deferral window: a non-primary holds its proposal while a
  /// commit landed within the last this-many ticks (consensus is live
  /// under some proposer — dueling it only adds duplicate slots).  ≈
  /// one decide cycle, so takeover begins exactly when the primary's
  /// in-flight proposal is overdue.  Decoupled from propose_stagger:
  /// the WINDOW must cover a whole decide, the rank SPACING must not —
  /// coupling them either serializes takeover (long stagger: the tail
  /// op waits out rank·stagger) or invites contention chaos (short
  /// window: backups duel every in-flight decide under loss).
  std::uint64_t propose_backup_after = 45;
  /// Re-publish an own sub-block while unreferenced, at most once per
  /// this many ticks (heals lost publishes and partitions; ≈ two
  /// consensus round-trips so the fault-free path never re-sends).
  std::uint64_t republish_after = 80;
  /// TotalOrderBcast re-propose backoff for this runtime's proposals.
  /// Deliberately ABOVE propose_backup_after: when a proposal stalls
  /// (lost round under loss), re-covering its references through the
  /// rotation takeover is cheaper and faster than the origin hammering
  /// its own retry — so the origin retries lazily and the backup path
  /// is the effective recovery.  P = 1 has no backups and pays the full
  /// backoff on every stall; that asymmetry is the leaderless tail win
  /// the E27 bench measures.
  std::uint64_t retry_delay = 60;
};

/// The multi-proposer pipeline's multiplexed wire type: lane 0 the
/// consensus (Paxos) traffic over reference values, lane 1 the
/// sub-block dissemination + recovery lane.
template <ConcurrentTokenSpec S>
using MpLaneMsg =
    LaneMsg<PaxosMsg<TobCmd<MpValue>>,
            SubBlockMsg<typename ConcurrentLedger<S>::BatchOp>>;

template <ConcurrentTokenSpec S, typename BaseNet = SimNet<MpLaneMsg<S>>>
class MultiProposerNode {
 public:
  using Op = typename S::Op;
  using BatchOp = typename ConcurrentLedger<S>::BatchOp;
  using Value = MpValue;
  using Mux = BasicLaneMux<BaseNet, PaxosMsg<TobCmd<Value>>,
                           SubBlockMsg<BatchOp>>;
  using Net = BaseNet;
  using Tob = TotalOrderBcast<Value, typename Mux::NetA>;
  using Exchange = SubBlockExchange<BatchOp, typename Mux::NetB>;
  using Sub = SubBlock<BatchOp>;
  using Entry = ReplicaCore::Entry;

  MultiProposerNode(Net& net, ProcessId self,
                    const typename S::SeqState& initial,
                    MultiProposerConfig cfg, ExecOptions eopts)
      : net_(net), self_(self), cfg_(cfg),
        num_proposers_(std::clamp<std::size_t>(cfg.num_proposers, 1,
                                               net.num_nodes())),
        engine_(std::make_unique<ReplayEngine<S>>(initial, eopts)),
        cutter_(pool_, cfg.subblock_max_ops), mux_(net, self),
        tob_(mux_.lane_a(), self,
             [this](std::uint64_t slot, ProcessId origin, std::uint64_t nonce,
                    const Value& v) { on_commit(slot, origin, nonce, v); },
             cfg.retry_delay),
        exchange_(mux_.lane_b(), self, [this](const Sub& s) {
          on_subblock(s);
        }) {
    pool_.set_origin(self);
    // Re-proposals carry the CURRENT cut: committed references drop
    // out, freshly published ones ride along (total_order.h).  This is
    // an optimization, not the correctness line — a proposal launched
    // before the covering commit's decision ARRIVES still carries stale
    // references, and the commit-time dedup drops them.
    tob_.set_refresh([this](Value& v) {
      if (refresh_enabled_) v.refs = collect_uncovered();
    });
  }

  /// Client intake: pools the op; a full pool cuts a sub-block
  /// immediately (size cut) and publishes it.
  void submit(ProcessId caller, Op op) {
    const OpId id = pool_.submit(caller, std::move(op));
    ++ops_submitted_;
    core_.start_latency(id, net_.now());
    adopt_own(cutter_.cut_if_full());
  }

  /// Deadline tick (drivers schedule this every cfg.deadline): flushes
  /// a partial fill, re-publishes own sub-blocks still unreferenced
  /// (bounded by republish_after), and re-checks the proposal pacing.
  void on_deadline() {
    adopt_own(cutter_.cut());
    republish_pending();
    maybe_arm_propose();
  }

  /// Anti-entropy probe (TotalOrderBcast::sync) plus the re-publish
  /// sweep and a pacing nudge: drain rounds run after the deadline ticks
  /// end, and a partition healed late must still get the minority's
  /// sub-blocks republished, referenced and committed.
  void sync() {
    tob_.sync();
    republish_pending();
    maybe_arm_propose();
  }

  /// Test hook: immediately broadcast a covering proposal, bypassing
  /// the pacing timers and the outstanding-proposal gate — the
  /// racing-proposer dedup tests fire two of these at the same tick.
  void propose_now() {
    Value v;
    v.proposer = self_;
    v.refs = collect_uncovered();
    if (v.refs.empty()) return;
    proposal_outstanding_ = true;
    core_.note_submission();
    tob_.broadcast(std::move(v));
  }

  // --- the scenario-audit interface (mirrors BlockReplicaNode) ---

  /// Operations submitted here (the settlement audit's unit).
  std::size_t submitted() const noexcept { return ops_submitted_; }
  /// All pooled ops were cut, every own sub-block was committed (via
  /// anyone's reference), and every committed slot has been applied.
  bool all_settled() const {
    return pool_.pending() == 0 && own_pending_.empty() &&
           tob_.all_settled() && parked_.empty();
  }
  std::string history() const { return core_.history(); }
  const std::vector<Entry>& log() const noexcept { return core_.log(); }
  /// Per-OP commit latencies (submit -> local apply of the slot whose
  /// sub-block carried the op; includes pool wait and any
  /// recover-on-miss delay).
  const std::vector<std::uint64_t>& commit_latencies() const noexcept {
    return core_.commit_latencies();
  }

  // --- accounting ---

  const ReplayEngine<S>& engine() const noexcept { return *engine_; }
  std::size_t num_proposers() const noexcept { return num_proposers_; }
  bool is_proposer() const noexcept { return self_ < num_proposers_; }
  std::size_t slots_committed() const noexcept { return core_.log().size(); }
  std::size_t ops_committed() const noexcept { return engine_->ops_applied(); }
  /// Reference proposals this node broadcast.
  std::size_t proposals_sent() const noexcept { return core_.submitted(); }
  /// Consensus-value bytes of the slots committed here.
  std::uint64_t proposal_bytes() const noexcept { return proposal_bytes_; }
  /// Fresh sub-block references applied across all committed slots
  /// (numerator of the subblocks_per_slot metric).
  std::uint64_t subblocks_applied() const noexcept {
    return subblocks_applied_;
  }
  /// Duplicate sub-block REFERENCES dropped at commit (racing
  /// proposers; deterministic — a pure function of the committed
  /// reference sequence).
  std::uint64_t dup_refs_dropped() const noexcept { return dup_refs_dropped_; }
  /// Duplicate OPS dropped inside fresh sub-blocks (an op pooled and
  /// cut at two origins; the §10 applied-id guard at sub-block
  /// granularity).
  std::uint64_t dup_ops_dropped() const noexcept { return dup_ops_dropped_; }

  const Exchange& exchange() const noexcept { return exchange_; }
  /// Test hook: suppress publishing so every peer misses every
  /// sub-block and reconstruction must go through kGetSubs.
  void set_publish_enabled(bool enabled) {
    exchange_.set_publish_enabled(enabled);
  }
  /// Test hook: freeze re-proposal refreshing, so a proposal launched
  /// before a covering commit keeps its (now stale) references — the
  /// in-flight-decision race the commit-time dedup guard exists for,
  /// forced deterministically instead of waiting for lossy-link luck.
  void set_refresh_enabled(bool enabled) { refresh_enabled_ = enabled; }

 private:
  /// A fresh own cut becomes the next origin-sequenced sub-block
  /// (sub_seq = the cutter's 1-based cut count): store, register its
  /// reference, track it until committed, publish eagerly, wake the
  /// pacing.  An empty run (nothing was cut) adopts nothing.
  void adopt_own(typename Cutter<S>::Run run) {
    if (run.empty()) return;
    Sub s;
    s.origin = self_;
    s.sub_seq = static_cast<std::uint32_t>(cutter_.cuts());
    s.ops = std::move(run);
    exchange_.add_local(s);
    known_refs_.emplace(std::make_pair(s.origin, s.sub_seq), s.ref());
    own_pending_.emplace(s.id(), net_.now() + cfg_.republish_after);
    exchange_.publish(s);
    maybe_arm_propose();
  }

  /// A peer's sub-block arrived (publish or fetch reply): register its
  /// reference, retry the parked head, wake the pacing.
  void on_subblock(const Sub& s) {
    known_refs_.emplace(std::make_pair(s.origin, s.sub_seq), s.ref());
    try_apply();
    maybe_arm_propose();
  }

  /// Known-but-uncommitted references, in canonical (origin, sub_seq)
  /// order by construction (known_refs_ is keyed by it — no sort).
  std::vector<SubBlockRef> collect_uncovered() const {
    std::vector<SubBlockRef> refs;
    for (const auto& [key, ref] : known_refs_) {
      if (!known_committed_.contains(ref.block_id)) refs.push_back(ref);
    }
    return refs;
  }

  bool has_uncovered() const {
    for (const auto& [key, ref] : known_refs_) {
      if (!known_committed_.contains(ref.block_id)) return true;
    }
    return false;
  }

  /// Re-publishes own sub-blocks still unreferenced by any delivered
  /// slot, at most once per republish_after ticks each (heals lost
  /// publishes and partitions; see MultiProposerConfig).
  void republish_pending() {
    for (auto& [id, next_at] : own_pending_) {
      if (known_committed_.contains(id) || net_.now() < next_at) continue;
      next_at = net_.now() + cfg_.republish_after;
      if (const Sub* s = exchange_.find(id)) exchange_.publish(*s);
    }
  }

  /// Rank of this proposer in the current rotation round: 0 = primary
  /// (delivered_count % P), r = r-th backup.
  std::uint64_t propose_delay() const {
    const std::size_t p = num_proposers_;
    const std::size_t primary = tob_.delivered_count() % p;
    const std::size_t rank = (self_ + p - primary) % p;
    return cfg_.propose_base + rank * cfg_.propose_stagger;
  }

  bool is_current_primary() const {
    return self_ == tob_.delivered_count() % num_proposers_;
  }

  /// Arms the pacing timer when this replica might need to propose: a
  /// proposer, uncovered references exist, nothing of ours in flight.
  /// Earliest-wins: a desired fire time sooner than the pending timer's
  /// supersedes it (the generation check retires the stale one) — a
  /// commit that rotates the primary onto us must not wait out a timer
  /// armed back when we were a far backup — while a LATER desired time
  /// never postpones a pending timer, so a steady publish stream cannot
  /// push the fire time forever.
  void maybe_arm_propose() {
    if (!is_proposer() || proposal_outstanding_ || !has_uncovered()) return;
    const std::uint64_t at = net_.now() + propose_delay();
    if (propose_timer_pending_ && at >= propose_timer_at_) return;
    propose_timer_pending_ = true;
    propose_timer_at_ = at;
    const std::uint64_t gen = ++propose_gen_;
    net_.call_at(self_, propose_delay(),
                 [this, gen] { on_propose_timer(gen); });
  }

  void on_propose_timer(std::uint64_t gen) {
    if (gen != propose_gen_) return;  // superseded by a sooner arm
    propose_timer_pending_ = false;
    if (proposal_outstanding_) return;  // own delivery re-arms
    if (!has_uncovered()) return;
    // Backup deferral (the fewer-slots half of the pacing): a commit
    // within the last backup window proves consensus is live under
    // some proposer — a non-primary firing now would only duel it and
    // add a redundant, mostly-duplicate slot.  Defer one rank delay;
    // the primary itself always proposes (it IS the live stream), and
    // once commits stop flowing for a window, anyone covers.
    if (!is_current_primary() &&
        net_.now() < last_commit_time_ + cfg_.propose_backup_after) {
      maybe_arm_propose();
      return;
    }
    propose_now();
  }

  void on_commit(std::uint64_t slot, ProcessId origin, std::uint64_t nonce,
                 const Value& v) {
    (void)nonce;
    for (const SubBlockRef& r : v.refs) {
      known_committed_.insert(r.block_id);
    }
    last_commit_time_ = net_.now();
    if (origin == self_) proposal_outstanding_ = false;
    parked_.push_back(Parked{slot, origin, v});
    try_apply();
    maybe_arm_propose();
  }

  /// Applies parked slots strictly in commit order; the head blocks the
  /// tail, so a fetch stall delays applies without reordering them.
  /// The flatten follows the committed value's reference order (the
  /// proposer emitted it canonically), and both dedup filters are pure
  /// functions of the committed prefix — every replica drops the same
  /// references and ops at the same slots.
  void try_apply() {
    while (!parked_.empty()) {
      Parked& h = parked_.front();
      std::vector<OpId> missing;
      std::vector<OpId> all;
      for (const SubBlockRef& r : h.value.refs) {
        all.push_back(r.block_id);
        // A duplicate reference needs no payload — it will be dropped.
        if (applied_subs_.contains(r.block_id)) continue;
        if (!exchange_.find(r.block_id)) missing.push_back(r.block_id);
      }
      if (!missing.empty()) {
        exchange_.fetch(h.slot, h.value.proposer, std::move(missing),
                        std::move(all));
        return;
      }
      exchange_.cancel(h.slot);
      proposal_bytes_ += wire_size_of(h.value);
      Block<S> merged;
      std::vector<OpId> fresh_ops;
      for (const SubBlockRef& r : h.value.refs) {
        if (!applied_subs_.insert(r.block_id).second) {
          ++dup_refs_dropped_;
          continue;
        }
        ++subblocks_applied_;
        own_pending_.erase(r.block_id);
        const Sub* s = exchange_.find(r.block_id);
        TS_EXPECTS(s != nullptr);
        for (const TaggedOp<BatchOp>& t : s->ops) {
          if (applied_ids_.insert(t.id).second) {
            merged.ops.push_back(t.op);
            fresh_ops.push_back(t.id);
          } else {
            ++dup_ops_dropped_;
          }
        }
      }
      core_.append(h.slot, h.origin, net_.now(), engine_->apply(merged));
      for (OpId id : fresh_ops) core_.finish_latency(id, net_.now());
      parked_.pop_front();
    }
  }

  struct Parked {
    std::uint64_t slot = 0;
    ProcessId origin = 0;
    Value value;
  };

  Net& net_;
  ProcessId self_;
  MultiProposerConfig cfg_;
  std::size_t num_proposers_;
  TxPool<S> pool_;
  std::unique_ptr<ReplayEngine<S>> engine_;
  Cutter<S> cutter_;
  Mux mux_;
  Tob tob_;
  Exchange exchange_;
  ReplicaCore core_;
  std::deque<Parked> parked_;
  /// References with a LOCAL payload, canonical order — the proposal
  /// candidate set.
  std::map<std::pair<ProcessId, std::uint32_t>, SubBlockRef> known_refs_;
  /// Sub-block ids referenced by any DELIVERED slot (including parked
  /// ones) — the proposal/re-publish "already ordered" filter.  Local
  /// knowledge only; the committed-prefix filters below are what
  /// determinism rests on.
  std::unordered_set<OpId> known_committed_;
  /// Sub-block ids APPLIED by the committed prefix (dup-reference
  /// filter) and op ids applied (dup-op filter).
  std::unordered_set<OpId> applied_subs_;
  std::unordered_set<OpId> applied_ids_;
  /// Own cut sub-blocks not yet committed -> earliest re-publish time
  /// (ordered map: the re-publish sweep iterates it).
  std::map<OpId, std::uint64_t> own_pending_;
  bool proposal_outstanding_ = false;
  bool refresh_enabled_ = true;
  bool propose_timer_pending_ = false;
  std::uint64_t propose_timer_at_ = 0;
  std::uint64_t propose_gen_ = 0;
  std::uint64_t last_commit_time_ = 0;
  std::size_t ops_submitted_ = 0;
  std::uint64_t proposal_bytes_ = 0;
  std::uint64_t subblocks_applied_ = 0;
  std::uint64_t dup_refs_dropped_ = 0;
  std::uint64_t dup_ops_dropped_ = 0;
};

}  // namespace tokensync
