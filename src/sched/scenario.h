// Scenario driver — named distributed workloads × fault profiles over the
// deterministic SimNet, with agreement + conservation checking.
//
// A scenario is a pure function of (workload, fault profile, seed): it
// builds a replica cluster (ReplicaNode state machines, DynTokenNode, or
// the broadcast asset transfer), arms a fault schedule (link loss,
// duplication, a partition that heals, a minority crash), drives a
// deterministic client script through SimNet::call_at, drains the network
// to convergence, and audits the committed histories:
//
//   agreement     — every correct replica's committed history is
//                   byte-identical; a crashed replica's history is a
//                   prefix of the survivors' (per account for dyntoken);
//   conservation  — token supply equals the initial supply on every
//                   replica (ERC721: every token has exactly one valid
//                   owner);
//   settlement    — every operation submitted by a correct replica
//                   committed.
//
// Determinism is inherited from SimNet: two runs of the same scenario
// with the same seed produce byte-identical ScenarioReports (including
// the committed history and the network statistics) — the property
// tests/scenario_test.cc asserts and bench/bench_simnet.cc relies on for
// reproducible measurements.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "net/compact_relay.h"
#include "net/replica.h"
#include "net/simnet.h"
#include "objects/sync_class.h"
#include "objects/token_race.h"

namespace tokensync {

/// The fault schedules a scenario can run under.  All of them are driven
/// by the one seeded Rng (loss, duplication, delays) or by net-level
/// control events at fixed simulated times (partition, heal, crash), so
/// each profile is as reproducible as the fault-free run.
enum class FaultProfile : std::uint8_t {
  kNone,           ///< reliable links, uniform delays
  kLossyLinks,     ///< 15% independent message loss
  kLossyDup,       ///< 10% loss + 20% duplication (idempotence stress)
  kPartitionHeal,  ///< majority/minority split at t=35, healed at t=700
  kMinorityCrash,  ///< floor((n-1)/2) replicas crash-stop at t=45
  /// One replica crashes at t=45 (lossy_dup links underneath) and
  /// REJOINS at FaultTiming::rejoin_at: the harness rebuilds it with
  /// RecoveryConfig::recover set, so it boots from a fetched snapshot
  /// plus the retained log suffix (net/recovery.h; DESIGN.md §13).
  /// Block-pipeline workloads only — the rejoiner counts as CORRECT
  /// (correct_mask is all-true) and is audited against the reference
  /// replica's history SUFFIX from its install boundary.  Not in
  /// all_fault_profiles(): the matrix tests iterate that list over
  /// every workload, and only the block runtime can rejoin.
  kCrashRejoin,
  /// ISSUE 9 (Byzantine tier): links are RELIABLE, but
  /// `num_equivocators` replicas fork their Bracha fast-lane SENDs at
  /// the network layer (SimNet::set_equivocator) — one victim receives
  /// a conflicting payload for the same (origin, seq).  The respend
  /// defense (DESIGN.md §15) must detect it, assemble identical
  /// ConflictProofs everywhere, quarantine the origin, and commit at
  /// most one branch.  kErc20RespendStorm only; not in
  /// all_fault_profiles() (the other workloads have no Bracha lane to
  /// equivocate on).  Note the equivocator knobs ALSO compose with the
  /// crash/loss profiles — the respend-storm tests run
  /// num_equivocators = 1 under every profile in all_fault_profiles();
  /// this profile is the clean-links "pure Byzantine" point.
  kByzantineEquivocate,
};

/// The named workloads.  The first five (ISSUE 2) are distributed: a
/// replica cluster over SimNet, where the fault axis is live.  The next
/// two (ISSUE 3) are HARDWARE workloads: they drive the commutativity-
/// aware parallel executor (src/exec/) over a ConcurrentLedger — no
/// network exists, so every fault profile runs them identically (the
/// axis is inert) and the audits compare thread counts instead of
/// replicas: the same batch must produce byte-identical ledger state on
/// 1, 2 and 8 threads, equal to the sequential specification's.
/// The last two (ISSUE 4) are BLOCK-PIPELINE workloads: distributed like
/// the first five (live fault axis — blocks must survive drop,
/// duplication, partition+heal, minority crash), but each consensus slot
/// carries a whole block that every replica replays through its parallel
/// ReplayEngine; `replay_threads` picks the per-replica worker count,
/// and same seed + same BlockConfig must produce byte-identical
/// committed histories for 1, 2 and 8 replay threads.
/// The final two (ISSUE 5) are HYBRID workloads over the
/// synchronization-tiered runtime (net/hybrid_replica.h): CN = 1
/// owner-signed transfers ride the consensus-free ERB fast lane while
/// CN > 1 operations ride Paxos slots, merged deterministically at
/// committed-slot barriers.  erc20_fastlane_storm is pure transfers —
/// it must commit with ZERO consensus slots and a committed history
/// that is byte-identical across replicas, fault profiles AND replay
/// thread counts; mixed_sync_tiers exercises both lanes at once (its
/// history is a pure per-profile function of the seed, like every other
/// distributed workload).
enum class Workload : std::uint8_t {
  kErc20TransferStorm,   ///< replicated ERC20: transfer storm + allowance races
  kErc721MintTradeRace,  ///< replicated ERC721: treasury mints, spenders race
  kErc777ApproveBurn,    ///< replicated ERC777: operator churn + burn contention
  kDynTokenReconfig,     ///< dyntoken: issuer reconfigures spender groups
  kAtBcastPayments,      ///< consensus-free asset transfer over reliable bcast
  kErc20ParallelStorm,   ///< executor: commuting ERC20 storm across waves
  kMixedCommuteEscalate, ///< executor: ERC721 fast path + escalated admin ops
  kErc20BlockStorm,      ///< block pipeline: batched ERC20 storm, parallel replay
  kMixedBlockEscalate,   ///< block pipeline: ERC721 blocks with escalation lanes
  kErc20FastlaneStorm,   ///< hybrid: pure owner-signed transfers, zero slots
  kMixedSyncTiers,       ///< hybrid: fast-lane transfers + consensus races
  /// Sharded (ISSUE 8, net/shard_group.h): the account space is
  /// partitioned across `num_groups` replica groups — each a full block
  /// pipeline over its slice of the one shared SimNet — and a
  /// zipfian-skewed client script mixes intra-shard transfers (one
  /// group's consensus, where throughput scales with the group count)
  /// with `cross_pct`% cross-shard transfers (the 2PC prepare / commit /
  /// ack protocol riding BOTH groups' consensus) and a few hot-account
  /// migrations (the CN > 1 ownership barrier).  Audits add global
  /// conservation ACROSS groups (Σ owned balances + nothing in flight)
  /// and exactly-one-owner per account.  num_groups = 1 degenerates to a
  /// plain block-pipeline run (all intra, no migrations), which is how
  /// the workload rides the standard fault matrix.
  kErc20ZipfianShards,
  /// Byzantine tier (ISSUE 9): the fastlane-storm script on the
  /// Bracha (BRB) fast lane, plus `num_equivocators` replicas whose
  /// single extra transfer is FORKED in flight — same (origin, seq),
  /// different recipient — the classic respend.  Zero consensus slots
  /// from the workload itself; the audit additionally demands that
  /// every correct replica holds the byte-identical ConflictProof set,
  /// quarantines the same origins, and commits at most one branch of
  /// each conflicting pair (conservation then holds automatically).
  kErc20RespendStorm,
  /// Multi-proposer (ISSUE 10, net/multi_proposer.h): the leaderless
  /// pipeline — every replica cuts and publishes sub-blocks on its own
  /// lane, consensus orders only thin reference vectors, and commits
  /// flatten the referenced DAG cut deterministically.  The script
  /// submits a FIXED total ERC20 op count round-robin across the
  /// `num_proposers` proposer replicas at a fixed per-replica cadence,
  /// so the intake SPAN (and with it the covering-proposal slot count)
  /// shrinks ~1/P — the E26 scaling claim.  Like kErc20RespendStorm,
  /// not in all_workloads(): the generic matrix runs P = 1 semantics
  /// via the block pipeline already; the P axis has its own matrix in
  /// tests/multi_proposer_test.cc.
  kErc20MultiproposerStorm,
};

const char* to_string(FaultProfile f);
const char* to_string(Workload w);
const std::vector<FaultProfile>& all_fault_profiles();
const std::vector<Workload>& all_workloads();

/// Scenario parameters.  `intensity` scales the client script (roughly
/// operations per replica); everything else about the script is a fixed
/// deterministic function of (workload, intensity).
struct ScenarioConfig {
  Workload workload = Workload::kErc20TransferStorm;
  FaultProfile fault = FaultProfile::kNone;
  std::uint64_t seed = 1;
  std::size_t num_replicas = 4;
  std::size_t intensity = 6;

  // Block-pipeline knobs (used by the kErc20BlockStorm /
  // kMixedBlockEscalate workloads only; see exec/block.h).  The committed
  // history is a pure function of (workload, fault, seed, intensity,
  // block knobs) and INDEPENDENT of replay_threads — the determinism
  // criterion tests/block_pipeline_test.cc asserts.
  std::size_t replay_threads = 1;      ///< ReplayEngine workers per replica
  std::size_t block_max_ops = 8;       ///< size cut (ops per block; 0 = 1)
  std::uint64_t block_deadline = 25;   ///< deadline-cut tick period
  std::size_t block_window = 1;        ///< TOB pipelining depth per replica

  /// Hybrid workloads only: route EVERY operation through the consensus
  /// lane (SyncTraits ignored) — the all-Paxos baseline the hybrid
  /// benchmarks measure the lane split against (net/hybrid_replica.h).
  bool hybrid_force_consensus = false;

  /// Block-pipeline and hybrid workloads: how consensus values travel —
  /// full payloads (the baseline) or op-ID references with
  /// recover-on-miss (net/compact_relay.h).  The committed history is
  /// INVARIANT to this knob (the ISSUE 6 acceptance criterion); only the
  /// bytes on the wire change.
  RelayMode relay_mode = RelayMode::kFull;
  /// Hybrid workloads: ERB fast-lane batch size — same-origin fast ops
  /// per broadcast (the fast lane's Cutter size cut, exec/cutter.h; its
  /// deadline cut is HybridConfig::erb_deadline at its default, not
  /// block_deadline).  History-invariant like relay_mode; amortizes the
  /// per-broadcast header + signature bytes.
  std::size_t erb_batch = 1;
  /// Hybrid workloads: slow-lane sub-block size — consensus-class ops
  /// cut into ONE SlowCmd proposal (net/hybrid_replica.h; the same
  /// Cutter rule on the consensus lane).  1 = one-op sub-blocks, one
  /// command per slot.  >1 changes slot COMPOSITION (fewer, fatter
  /// barriers), so unlike relay_mode it is not history-invariant — but
  /// the result is still a deterministic function of (seed, fault,
  /// knobs).
  std::size_t slow_subblock_ops = 1;

  // Recovery knobs (ISSUE 7; block-pipeline workloads only — see
  // net/recovery.h).  All recovery traffic is auxiliary-class, so in a
  // run where nobody rejoins the committed history is INVARIANT to
  // snapshot_interval and prune — the snapshot-invariance criterion.
  std::uint64_t snapshot_interval = 0;  ///< cut every this many slots; 0 = off
  bool prune = false;  ///< truncate the log below the all-replica mark floor
  /// kCrashRejoin only: the first peer the rejoiner asks serves nothing
  /// newer than the FIRST snapshot boundary, forcing a stale install
  /// that the recovery path must supersede (the stale-snapshot variant).
  bool rejoin_stale = false;

  // Sharding knobs (ISSUE 8; kErc20ZipfianShards only — see
  // net/shard_group.h).  The committed per-group histories are a pure
  // function of (seed, these knobs) and independent of replay_threads.
  std::uint32_t num_groups = 1;   ///< replica groups the accounts split over
  std::uint32_t cross_pct = 30;   ///< % of transfers that cross groups (G>1)
  std::size_t shard_accounts = 16;  ///< account-space size for the workload

  // Byzantine-tier knobs (ISSUE 9; hybrid workloads — see
  // net/hybrid_replica.h and DESIGN.md §15).
  /// Which broadcast primitive carries the CN = 1 fast lane: the
  /// crash-tolerant ERB (default, ISSUE 5) or Bracha BRB, which
  /// tolerates f = floor((n-1)/3) BYZANTINE replicas at ~3x the
  /// message bill.  The committed history of a crash-only run is
  /// INVARIANT to this knob (lane-invariance, E24); only Bracha
  /// additionally detects equivocation.
  FastLane fast_lane = FastLane::kErb;
  /// kErc20RespendStorm + kBracha only: how many replicas (the
  /// HIGHEST ids, so they overlap kMinorityCrash's crash set and the
  /// Byzantine + crashed count stays within f) fork their one extra
  /// fast-lane SEND at the network layer.
  std::size_t num_equivocators = 0;
  /// Probability gate (percent) on the fork: an equivocator's eligible
  /// SEND is forked iff a per-seq deterministic hash lands below this.
  std::uint32_t equivocate_pct = 100;

  // Multi-proposer knobs (ISSUE 10; kErc20MultiproposerStorm only — see
  // net/multi_proposer.h).  The committed history is a pure function of
  // (seed, fault, these knobs) and independent of replay_threads.
  /// Replicas 0..num_proposers-1 broadcast reference proposals (clamped
  /// to [1, num_replicas]); every replica publishes sub-blocks.
  std::size_t num_proposers = 1;
  /// Ops per sub-block (the dissemination batch's size cut).
  std::size_t subblock_max_ops = 4;
};

/// Simulated-time commit-latency summary (submit -> local commit on the
/// submitting replica), merged over all correct replicas.  For block
/// workloads the unit is the BLOCK and the clock starts at the block's
/// CUT: an op's wait in the TxPool before its block is cut (up to one
/// block_deadline period) is not included — compare block-lane
/// percentiles against the batch-size-1 baseline with that bias in mind
/// (EXPERIMENTS.md E15).
struct LatencySummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t max = 0;
};

/// The audited outcome of one scenario run.  Byte-identical across runs
/// with the same ScenarioConfig.
struct ScenarioReport {
  std::string workload;
  std::string fault;
  std::uint64_t seed = 0;
  std::size_t replicas = 0;

  std::size_t submitted = 0;    ///< ops submitted by correct replicas
  std::size_t committed = 0;    ///< committed entries on the reference replica
  /// Consensus slots behind `committed` on the reference replica: equals
  /// `committed` for one-command-per-slot workloads; for the block
  /// pipeline it is the number of committed BLOCKS (committed/slots is
  /// the per-slot amortization the batch-size sweep measures); for the
  /// hybrid workloads it counts only the CONSENSUS-lane commits — zero
  /// for a pure fast-lane run, the ISSUE 5 acceptance criterion.
  std::size_t slots = 0;
  /// Hybrid workloads: operations that committed through the
  /// consensus-free ERB fast lane on the reference replica (the
  /// fast_lane_ops / consensus_slots split the lane benchmarks report);
  /// 0 for every other workload.
  std::size_t fast_lane_ops = 0;
  std::uint64_t sim_time = 0;   ///< simulated time at quiescence (audit incl.)
  /// Committed ops per 1000 simulated time units, measured through the
  /// reference replica's LAST local commit.  For fault-free runs this is
  /// the workload span (the audit's sync rounds add no commits); under
  /// faults the span extends to wherever the final decisions were
  /// recovered, so it reflects what the replica actually experienced.
  double commits_per_ktime = 0;
  LatencySummary latency;
  NetStats net;
  /// Consensus-value bytes behind the reference replica's committed
  /// slots (block + hybrid consensus lanes; 0 elsewhere).  With
  /// relay_mode = kCompact this shrinks while `slots` and the history
  /// stay fixed — the per-slot proposal-bytes drop E18 measures.
  std::uint64_t proposal_bytes = 0;
  /// Compact relay only: blocks/commands that entered the kGetOps
  /// recover-on-miss round-trip, summed over correct replicas.
  std::uint64_t miss_recoveries = 0;

  // Recovery counters (snapshotting / crash_rejoin runs; 0 elsewhere).
  std::uint64_t snapshot_bytes = 0;  ///< newest snapshot size (reference)
  std::uint64_t catchup_ops = 0;     ///< ops the rejoiner replayed post-install
  std::uint64_t pruned_slots = 0;    ///< slots truncated on the reference
  std::uint64_t retained_log_bytes = 0;  ///< decided bytes still held (ref)

  // Sharding counters (kErc20ZipfianShards; groups = 1, rest 0 elsewhere).
  // `slots` sums over groups there; group_slots_max is the BUSIEST
  // group's slot count — the per-group consensus bill the sharding
  // benchmark compares against the 1-group baseline (each group decides
  // only its own slice, so the max falls as groups absorb the skew).
  std::size_t groups = 1;
  std::size_t group_slots_max = 0;      ///< committed slots, busiest group
  std::size_t cross_shard_ops = 0;      ///< 2PC transfers fully committed
  std::size_t cross_shard_aborts = 0;   ///< 2PC transfers refunded (abort path)
  std::size_t migrations = 0;           ///< account migrations retired

  // Byzantine counters (hybrid workloads on the Bracha lane; 0
  // elsewhere).  All three are read off the REFERENCE replica after the
  // cross-replica proof-agreement audit, so a nonzero count certifies
  // every correct replica holds the same proofs.
  std::size_t conflict_proofs = 0;      ///< distinct equivocations proven
  std::size_t quarantined_origins = 0;  ///< origins stripped of the fast lane
  std::size_t equivocation_commits = 0; ///< proven-conflicting slots committed
                                        ///< (exactly one branch each)

  // Multi-proposer counters (kErc20MultiproposerStorm; 0 elsewhere).
  /// Fresh sub-block references applied per committed slot on the
  /// reference replica — the DAG-cut width (how much concurrent intake
  /// each consensus decision retires; rises with num_proposers while
  /// `slots` falls).
  double subblocks_per_slot = 0;
  /// Duplicate sub-block references dropped at commit on the reference
  /// replica (racing proposers covering the same cut) — nonzero proves
  /// the exactly-once guard ran; identical on every correct replica.
  std::uint64_t dup_refs_dropped = 0;

  bool agreement = false;
  bool conservation = false;
  bool settled = false;
  std::vector<std::string> violations;

  std::string history;          ///< reference replica's committed history
  std::uint64_t history_digest = 0;

  bool ok() const {
    return agreement && conservation && settled && violations.empty();
  }
  std::string summary() const;
};

/// Runs one scenario to convergence and audits it.  Deterministic.
ScenarioReport run_scenario(const ScenarioConfig& cfg);

// ---------------------------------------------------------------------------
// Harness building blocks (shared by run_scenario, the templated race
// scenario below, bench_simnet and the examples).
// ---------------------------------------------------------------------------

/// Control-event timing of the built-in fault schedules.
struct FaultTiming {
  std::uint64_t partition_at = 35;
  std::uint64_t heal_at = 700;
  std::uint64_t crash_at = 45;
  /// kCrashRejoin: when the crashed replica is rebuilt and restarted.
  /// Deliberately LATE relative to the workload script: under the
  /// profile's lossy links the survivors' commits (and their snapshot
  /// cuts) take hundreds of ticks, and the rejoiner must come back to a
  /// cluster that has genuinely moved on — a frontier > 0 and, with
  /// snapshotting enabled, an installable boundary — or the catch-up
  /// protocol would be exercised only vacuously.
  std::uint64_t rejoin_at = 900;
};

/// Replicas that stay correct under `f` (the last floor((n-1)/2) ids
/// crash in kMinorityCrash; everyone is correct otherwise).
std::vector<bool> correct_mask(std::size_t n, FaultProfile f);

/// The seeded NetConfig for a profile (loss/duplication knobs).
NetConfig make_net_config(FaultProfile f, std::uint64_t seed);

/// Arms the control-event half of a profile on `net` (partition + heal,
/// or the minority crash); kNone/kLossy*/kLossyDup need no control events.
/// kCrashRejoin is deliberately NOT armed here: its crash + rebuild +
/// restart needs the harness (the rejoining NODE must be reconstructed
/// with RecoveryConfig::recover, which a net-level event cannot do), so
/// the block harness owns that schedule.
template <typename Msg>
void arm_fault_schedule(SimNet<Msg>& net, FaultProfile f,
                        FaultTiming t = FaultTiming{}) {
  const std::size_t n = net.num_nodes();
  if (f == FaultProfile::kPartitionHeal) {
    const std::size_t majority = n - (n - 1) / 2;
    std::vector<std::vector<ProcessId>> groups(2);
    for (ProcessId p = 0; p < n; ++p) {
      groups[p < majority ? 0 : 1].push_back(p);
    }
    net.schedule(t.partition_at, [&net, groups] { net.partition(groups); });
    net.schedule(t.heal_at, [&net] { net.heal(); });
  } else if (f == FaultProfile::kMinorityCrash) {
    // The crash set is whatever correct_mask declares incorrect, so the
    // schedule and the audits can never drift apart.
    const std::vector<bool> correct = correct_mask(n, f);
    net.schedule(t.crash_at, [&net, correct] {
      for (ProcessId p = 0; p < correct.size(); ++p) {
        if (!correct[p]) net.crash(p);
      }
    });
  }
}

/// Runs the net to quiescence, then a fixed number of anti-entropy rounds
/// (`sync_all` + drain) so replicas that missed decision disseminations
/// converge.  The round count is fixed — not until-settled — because a
/// replica can be unsettled for reasons syncing never fixes (its peers
/// genuinely never decided), and a fixed schedule keeps the run a pure
/// function of the seed.
template <typename Net>
void drain_to_convergence(Net& net, const std::function<void()>& sync_all,
                          std::size_t budget = 4'000'000, int rounds = 10) {
  net.run(budget);
  for (int r = 0; r < rounds; ++r) {
    if (sync_all) sync_all();
    net.run(budget);
  }
}

/// Merges per-replica commit latencies into the summary percentiles.
LatencySummary summarize_latencies(std::vector<std::uint64_t> all);

/// FNV-style digest of the canonical history string.
std::uint64_t digest_history(const std::string& h);

/// The lowest-id correct replica — the audit's reference for history
/// comparisons.  At least one replica is always correct (crash profiles
/// keep a majority).
inline std::size_t reference_replica(const std::vector<bool>& correct) {
  std::size_t r = 0;
  while (r < correct.size() && !correct[r]) ++r;
  TS_ASSERT(r < correct.size());
  return r;
}

/// Fills the config/trace part every scenario report shares: identity,
/// network stats, canonical history + digest, commit throughput, and the
/// audit flags initialized to "clean" (the caller's audit loop then
/// clears whichever invariant fails).
/// `last_commit` is the reference replica's last commit time — the span
/// throughput is measured over (0 falls back to sim_time).
inline void fill_report_skeleton(ScenarioReport& rep, std::string workload,
                                 FaultProfile fault, std::uint64_t seed,
                                 std::size_t replicas,
                                 std::uint64_t sim_time, const NetStats& net,
                                 std::string history, std::size_t committed,
                                 std::uint64_t last_commit = 0) {
  rep.workload = std::move(workload);
  rep.fault = to_string(fault);
  rep.seed = seed;
  rep.replicas = replicas;
  rep.sim_time = sim_time;
  rep.net = net;
  rep.history = std::move(history);
  rep.history_digest = digest_history(rep.history);
  rep.committed = committed;
  rep.slots = committed;  // block workloads overwrite with their block count
  const std::uint64_t span = last_commit > 0 ? last_commit : sim_time;
  if (span > 0) {
    rep.commits_per_ktime = 1000.0 * static_cast<double>(committed) /
                            static_cast<double>(span);
  }
  rep.agreement = true;
  rep.conservation = true;
  rep.settled = true;
}

/// The audit every ReplicaNode cluster shares: correct replicas must be
/// settled and byte-identical to the reference history (their latencies
/// merge into the summary); crashed replicas must hold a prefix of it.
/// Workload-specific invariants (conservation, race validity) stay with
/// the caller.
template <typename Node>
void audit_replica_cluster(ScenarioReport& rep,
                           const std::vector<std::unique_ptr<Node>>& nodes,
                           const std::vector<bool>& correct) {
  std::vector<std::uint64_t> lats;
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    const std::string h = nodes[p]->history();
    if (correct[p]) {
      rep.submitted += nodes[p]->submitted();
      if (!nodes[p]->all_settled()) {
        rep.settled = false;
        rep.violations.push_back("replica " + std::to_string(p) +
                                 " has unsettled submissions");
      }
      if (h != rep.history) {
        rep.agreement = false;
        rep.violations.push_back("replica " + std::to_string(p) +
                                 " history diverges");
      }
      const auto& l = nodes[p]->commit_latencies();
      lats.insert(lats.end(), l.begin(), l.end());
    } else if (rep.history.compare(0, h.size(), h) != 0) {
      // A crashed replica stops mid-log; what it DID commit must be a
      // prefix of the survivors' history.
      rep.agreement = false;
      rep.violations.push_back("crashed replica " + std::to_string(p) +
                               " history is not a prefix");
    }
  }
  rep.latency = summarize_latencies(std::move(lats));
}

/// The drain step every replica-cluster harness shares: run to
/// quiescence with anti-entropy probes from the correct replicas.
template <typename Net, typename Node>
void drain_cluster(Net& net, const std::vector<std::unique_ptr<Node>>& nodes,
                   const std::vector<bool>& correct) {
  drain_to_convergence(net, [&nodes, &correct] {
    for (std::size_t p = 0; p < nodes.size(); ++p) {
      if (correct[p]) nodes[p]->sync();
    }
  });
}

/// The deadline ticks every cut-pipeline harness shares: each replica's
/// on_deadline() every `deadline` time units (0 counts as 1), through
/// two periods past `last_submit` so every pooled op gets a cut — or
/// through `horizon`, if later.  Ticks resolve `nodes[p]` when they fire,
/// so a replica rebuilt mid-run is ticked too.
template <typename Net, typename Node>
void arm_deadline_ticks(Net& net,
                        const std::vector<std::unique_ptr<Node>>& nodes,
                        std::uint64_t deadline, std::uint64_t last_submit,
                        std::uint64_t horizon = 0) {
  const std::uint64_t period = std::max<std::uint64_t>(deadline, 1);
  horizon = std::max(horizon, last_submit + 2 * period);
  for (ProcessId p = 0; p < nodes.size(); ++p) {
    for (std::uint64_t t = period; t <= horizon; t += period) {
      net.call_at(p, t, [&nodes, p] { nodes[p]->on_deadline(); });
    }
  }
}

/// The report step every replica-cluster harness shares: skeleton from
/// the reference replica (`committed` is harness-specific — log length,
/// ops replayed, ...; slots default to `committed` and block/hybrid
/// harnesses overwrite) plus the cluster agreement/settlement audit.
template <typename Net, typename Node>
ScenarioReport cluster_report(const ScenarioConfig& cfg, const Net& net,
                              const std::vector<std::unique_ptr<Node>>& nodes,
                              const std::vector<bool>& correct,
                              std::size_t committed) {
  ScenarioReport rep;
  const std::size_t ref = reference_replica(correct);
  fill_report_skeleton(rep, to_string(cfg.workload), cfg.fault, cfg.seed,
                       cfg.num_replicas, net.now(), net.stats(),
                       nodes[ref]->history(), committed,
                       nodes[ref]->log().empty()
                           ? 0
                           : nodes[ref]->log().back().time);
  audit_replica_cluster(rep, nodes, correct);
  return rep;
}

/// The conservation step: `violation_of` renders a violation for one
/// node's replicated state (through whatever surface the harness's node
/// exposes — machine(), engine().ledger().snapshot(), ...), or nullopt
/// when the invariant holds there.
template <typename Node, typename Violation>
void audit_conservation(ScenarioReport& rep,
                        const std::vector<std::unique_ptr<Node>>& nodes,
                        const Violation& violation_of) {
  for (std::size_t p = 0; p < nodes.size(); ++p) {
    if (auto v = violation_of(*nodes[p])) {
      rep.conservation = false;
      rep.violations.push_back("replica " + std::to_string(p) + ": " + *v);
    }
  }
}

// ---------------------------------------------------------------------------
// Replicated token-race consensus, end-to-end over the network — the
// templated scenario that runs ANY TokenRaceSpec (k-AT, ERC721, ERC777)
// through ReplicaNode<RaceSM<Spec>>.
// ---------------------------------------------------------------------------

/// Runs the k-participant token race over SimNet under `fault`: replica i
/// submits write(proposal_i) then its race step; every correct replica
/// must derive the SAME decision for every participant whose race step
/// committed, and that decision must be one of the submitted proposals
/// (agreement + validity, now across a faulty network instead of a
/// shared-memory interleaving).  A crashed replica stops submitting at
/// crash time: its register write (scheduled before the crash point) can
/// still commit and appear in every history, while its race step
/// (scheduled after) is lost — so the race is decided among the
/// survivors' steps.
template <TokenRaceSpec Spec>
ScenarioReport run_token_race_scenario(std::size_t k, FaultProfile fault,
                                       std::uint64_t seed,
                                       const std::string& name,
                                       Spec spec = Spec{}) {
  using Node = ReplicaNode<RaceSM<Spec>>;
  typename Node::Net net(k, make_net_config(fault, seed));
  arm_fault_schedule(net, fault);

  std::vector<std::unique_ptr<Node>> nodes;
  for (ProcessId p = 0; p < k; ++p) {
    nodes.push_back(
        std::make_unique<Node>(net, p, RaceSM<Spec>(k, spec)));
  }
  const auto correct = correct_mask(k, fault);

  // proposal_i = 100 + i; write well before racing so the per-origin FIFO
  // of the broadcast puts every register write ahead of its race step.
  for (ProcessId p = 0; p < k; ++p) {
    Node* node = nodes[p].get();
    const Amount proposal = 100 + p;
    net.call_at(p, 5 + p, [node, proposal] {
      node->submit(RaceCmd::write(proposal));
    });
    net.call_at(p, 60 + 3 * p, [node] { node->submit(RaceCmd::race()); });
  }

  drain_cluster(net, nodes, correct);

  ScenarioReport rep;
  const std::size_t ref = reference_replica(correct);
  fill_report_skeleton(rep, name, fault, seed, k, net.now(), net.stats(),
                       nodes[ref]->history(), nodes[ref]->log().size(),
                       nodes[ref]->log().empty()
                           ? 0
                           : nodes[ref]->log().back().time);
  audit_replica_cluster(rep, nodes, correct);

  // Cross-participant agreement on the decided value, and validity.
  // (Conservation stays at the skeleton's "clean": the race state is the
  // whole object; there is nothing to conserve beyond agreement on it.)
  std::optional<Amount> decided;
  for (ProcessId i = 0; i < k; ++i) {
    const auto d = nodes[ref]->machine().decision(i);
    if (!d) continue;
    if (d->bottom) {
      rep.violations.push_back("participant " + std::to_string(i) +
                               " decided bottom");
      continue;
    }
    if (!decided) decided = d->value;
    if (*decided != d->value) {
      rep.violations.push_back("participants disagree: " +
                               std::to_string(*decided) + " vs " +
                               std::to_string(d->value));
    }
    if (d->value < 100 || d->value >= 100 + k) {
      rep.violations.push_back("decided value " + std::to_string(d->value) +
                               " was never proposed");
    }
  }
  return rep;
}

}  // namespace tokensync
