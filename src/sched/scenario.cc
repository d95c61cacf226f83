// Scenario driver implementation: the named workload scripts, the fault
// harness plumbing, and the committed-history audits.  See scenario.h for
// the model.
#include "sched/scenario.h"

#include <cstdio>
#include <numeric>
#include <type_traits>
#include <utility>

#include "atbcast/at_bcast.h"
#include "common/rng.h"
#include "dyntoken/dyntoken.h"
#include "exec/exec_specs.h"
#include "net/block_replica.h"
#include "net/hybrid_replica.h"
#include "net/multi_proposer.h"
#include "net/shard_group.h"
#include "objects/erc20.h"
#include "objects/erc721.h"
#include "objects/erc777.h"

namespace tokensync {

const char* to_string(FaultProfile f) {
  switch (f) {
    case FaultProfile::kNone: return "none";
    case FaultProfile::kLossyLinks: return "lossy";
    case FaultProfile::kLossyDup: return "lossy_dup";
    case FaultProfile::kPartitionHeal: return "partition_heal";
    case FaultProfile::kMinorityCrash: return "minority_crash";
    case FaultProfile::kCrashRejoin: return "crash_rejoin";
    case FaultProfile::kByzantineEquivocate: return "byzantine_equivocate";
  }
  return "?";
}

const char* to_string(Workload w) {
  switch (w) {
    case Workload::kErc20TransferStorm: return "erc20_transfer_storm";
    case Workload::kErc721MintTradeRace: return "erc721_mint_trade_race";
    case Workload::kErc777ApproveBurn: return "erc777_approve_burn";
    case Workload::kDynTokenReconfig: return "dyntoken_reconfig";
    case Workload::kAtBcastPayments: return "at_bcast_payments";
    case Workload::kErc20ParallelStorm: return "erc20_parallel_storm";
    case Workload::kMixedCommuteEscalate: return "mixed_commute_escalate";
    case Workload::kErc20BlockStorm: return "erc20_block_storm";
    case Workload::kMixedBlockEscalate: return "mixed_block_escalate";
    case Workload::kErc20FastlaneStorm: return "erc20_fastlane_storm";
    case Workload::kMixedSyncTiers: return "mixed_sync_tiers";
    case Workload::kErc20ZipfianShards: return "erc20_zipfian_shards";
    case Workload::kErc20RespendStorm: return "erc20_respend_storm";
    case Workload::kErc20MultiproposerStorm:
      return "erc20_multiproposer_storm";
  }
  return "?";
}

const std::vector<FaultProfile>& all_fault_profiles() {
  static const std::vector<FaultProfile> kAll = {
      FaultProfile::kNone, FaultProfile::kLossyLinks, FaultProfile::kLossyDup,
      FaultProfile::kPartitionHeal, FaultProfile::kMinorityCrash};
  return kAll;
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      Workload::kErc20TransferStorm, Workload::kErc721MintTradeRace,
      Workload::kErc777ApproveBurn, Workload::kDynTokenReconfig,
      Workload::kAtBcastPayments, Workload::kErc20ParallelStorm,
      Workload::kMixedCommuteEscalate, Workload::kErc20BlockStorm,
      Workload::kMixedBlockEscalate, Workload::kErc20FastlaneStorm,
      Workload::kMixedSyncTiers, Workload::kErc20ZipfianShards};
  return kAll;
}

std::vector<bool> correct_mask(std::size_t n, FaultProfile f) {
  std::vector<bool> correct(n, true);
  if (f == FaultProfile::kMinorityCrash) {
    const std::size_t minority = (n - 1) / 2;
    for (std::size_t i = 0; i < minority; ++i) correct[n - 1 - i] = false;
  }
  // kCrashRejoin: the crashed replica REJOINS and must fully converge,
  // so it stays in the correct set; its suffix-based agreement audit
  // lives in the block harness (scenario.h's FaultProfile comment).
  return correct;
}

NetConfig make_net_config(FaultProfile f, std::uint64_t seed) {
  NetConfig cfg{};
  cfg.seed = seed;
  cfg.min_delay = 1;
  cfg.max_delay = 12;
  switch (f) {
    case FaultProfile::kLossyLinks:
      cfg.drop_num = 15;
      break;
    case FaultProfile::kLossyDup:
    case FaultProfile::kCrashRejoin:
      // The rejoin profile keeps lossy_dup's links underneath: recovery
      // must survive drop + duplication, not just the crash itself.
      cfg.drop_num = 10;
      cfg.dup_num = 20;
      break;
    default:
      break;
  }
  return cfg;
}

LatencySummary summarize_latencies(std::vector<std::uint64_t> all) {
  LatencySummary s;
  if (all.empty()) return s;
  std::sort(all.begin(), all.end());
  s.count = all.size();
  s.mean = static_cast<double>(
               std::accumulate(all.begin(), all.end(), std::uint64_t{0})) /
           static_cast<double>(all.size());
  s.p50 = all[all.size() / 2];
  s.p99 = all[(all.size() * 99) / 100];
  s.max = all.back();
  return s;
}

std::uint64_t digest_history(const std::string& h) {
  std::uint64_t d = 14695981039346656037ull;  // FNV-1a offset basis
  for (unsigned char c : h) {
    d ^= c;
    d *= 1099511628211ull;
  }
  return d;
}

std::string ScenarioReport::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s/%s seed=%llu: %s commits=%zu slots=%zu fast=%zu "
                "time=%llu thr=%.2f/kt p50=%llu p99=%llu",
                workload.c_str(), fault.c_str(),
                static_cast<unsigned long long>(seed),
                ok() ? "OK" : "VIOLATION", committed, slots, fast_lane_ops,
                static_cast<unsigned long long>(sim_time), commits_per_ktime,
                static_cast<unsigned long long>(latency.p50),
                static_cast<unsigned long long>(latency.p99));
  return std::string(buf);
}

namespace {

// -------------------------------------------------------------------------
// Replicated-ledger harness: ReplicaNode<LedgerSM<Spec>> cluster + audit.
// -------------------------------------------------------------------------

template <typename Spec>
class LedgerHarness {
 public:
  using SM = LedgerSM<Spec>;
  using Node = ReplicaNode<SM>;

  LedgerHarness(const ScenarioConfig& cfg, typename Spec::State initial)
      : cfg_(cfg),
        net_(cfg.num_replicas, make_net_config(cfg.fault, cfg.seed)),
        correct_(correct_mask(cfg.num_replicas, cfg.fault)) {
    arm_fault_schedule(net_, cfg.fault);
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      nodes_.push_back(std::make_unique<Node>(net_, p, SM(initial)));
    }
  }

  void submit_at(ProcessId p, std::uint64_t t, typename Spec::Op op) {
    Node* node = nodes_[p].get();
    net_.call_at(p, t, [node, op] { node->submit(op); });
  }

  /// Drains, audits agreement/settlement, fills the report skeleton.
  /// `conserve` renders a violation for one node's machine state, or
  /// returns std::nullopt when the invariant holds.  (The shared tail
  /// lives in scenario.h's drain_cluster / cluster_report /
  /// audit_conservation — one implementation for all three harnesses.)
  ScenarioReport finish(
      const std::function<std::optional<std::string>(const SM&)>& conserve) {
    drain_cluster(net_, nodes_, correct_);
    const std::size_t ref = reference_replica(correct_);
    ScenarioReport rep = cluster_report(cfg_, net_, nodes_, correct_,
                                        nodes_[ref]->log().size());
    audit_conservation(rep, nodes_, [&conserve](const Node& n) {
      return conserve(n.machine());
    });
    return rep;
  }

 private:
  ScenarioConfig cfg_;
  typename Node::Net net_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> correct_;
};

// -------------------------------------------------------------------------
// Workload scripts.
// -------------------------------------------------------------------------

// ERC20 transfer storm: every replica streams payments to rotating
// destinations while an allowance ring (p approves p+1) feeds periodic
// transferFrom spends — per-account commutation in the workload, global
// total order underneath.
ScenarioReport run_erc20_transfer_storm(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 100;
  Erc20State initial(std::vector<Amount>(n, kInitial),
                     std::vector<std::vector<Amount>>(
                         n, std::vector<Amount>(n, 0)));
  LedgerHarness<Erc20Spec> h(cfg, initial);

  for (ProcessId p = 0; p < n; ++p) {
    h.submit_at(p, 4 + p,
                Erc20Op::approve(static_cast<ProcessId>((p + 1) % n), 50));
  }
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < n; ++p) {
      const std::uint64_t t = 15 + 13 * j + 3 * p;
      if (j % 3 == 2) {
        // Spender p draws on its ring allowance from p-1's account.
        h.submit_at(p, t,
                    Erc20Op::transfer_from(
                        static_cast<AccountId>((p + n - 1) % n), p, 2));
      } else {
        h.submit_at(p, t,
                    Erc20Op::transfer(
                        static_cast<AccountId>((p + 1 + j) % n),
                        1 + static_cast<Amount>(j % 3)));
      }
    }
  }

  const Amount expected = kInitial * n;
  return h.finish([expected](const LedgerSM<Erc20Spec>& sm)
                      -> std::optional<std::string> {
    if (sm.state().total_supply() == expected) return std::nullopt;
    return "supply " + std::to_string(sm.state().total_supply()) +
           " != " + std::to_string(expected);
  });
}

// ERC721 mint/trade race: the treasury (account 0) mints by transferring
// its tokens out; freshly minted tokens are then put up for a trade race
// — the owner approves two spenders and both race transferFrom, with the
// total order picking the winner (EIP-721 clears the approval on
// transfer, so the loser deterministically gets FALSE).
ScenarioReport run_erc721_mint_trade_race(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const std::size_t m = 2 * n;  // tokens, all owned by the treasury
  Erc721State initial(n, std::vector<AccountId>(m, 0));
  LedgerHarness<Erc721Spec> h(cfg, initial);

  for (std::size_t j = 0; j < m; ++j) {
    const auto dst = static_cast<AccountId>(1 + (j % (n - 1)));
    h.submit_at(0, 6 + 7 * j,
                Erc721Op::transfer_from(0, dst, static_cast<TokenId>(j)));
  }
  const std::size_t races = std::min(cfg.intensity, m);
  for (std::size_t r = 0; r < races; ++r) {
    const auto owner = static_cast<ProcessId>(1 + (r % (n - 1)));
    const auto tok = static_cast<TokenId>(r);
    const auto racer_a = static_cast<ProcessId>((owner + 1) % n);
    const auto racer_b = static_cast<ProcessId>((owner + 2) % n);
    h.submit_at(owner, 120 + 20 * r, Erc721Op::approve(racer_a, tok));
    h.submit_at(owner, 122 + 20 * r,
                Erc721Op::set_approval_for_all(racer_b, true));
    h.submit_at(racer_a, 132 + 20 * r,
                Erc721Op::transfer_from(owner, racer_a, tok));
    h.submit_at(racer_b, 133 + 20 * r,
                Erc721Op::transfer_from(owner, racer_b, tok));
  }

  return h.finish([n, m](const LedgerSM<Erc721Spec>& sm)
                      -> std::optional<std::string> {
    if (sm.state().num_tokens() != m) {
      return "token count changed: " + std::to_string(sm.state().num_tokens());
    }
    for (TokenId t = 0; t < m; ++t) {
      if (sm.state().owner_of(t) >= n) {
        return "token " + std::to_string(t) + " owned by invalid account " +
               std::to_string(sm.state().owner_of(t));
      }
    }
    return std::nullopt;
  });
}

// ERC777 approve/burn contention: the issuer authorizes two operators
// that race operatorSend against the issuer account while recipients burn
// (send to the sink account n-1); a mid-run revocation flips later sends
// of the revoked operator to FALSE — deterministically, because the
// revoke is totally ordered against the sends.
ScenarioReport run_erc777_approve_burn(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kSupply = 1000;
  Erc777State initial(n, /*deployer=*/0, kSupply);
  LedgerHarness<Erc777Spec> h(cfg, initial);

  const auto burn_sink = static_cast<AccountId>(n - 1);
  h.submit_at(0, 5, Erc777Op::authorize_operator(1));
  h.submit_at(0, 7, Erc777Op::authorize_operator(2));
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    h.submit_at(1, 15 + 11 * j, Erc777Op::operator_send(0, 1, 7));
    h.submit_at(2, 16 + 11 * j, Erc777Op::operator_send(0, 2, 7));
    h.submit_at(1, 20 + 11 * j, Erc777Op::send(burn_sink, 3));
  }
  h.submit_at(0, 90, Erc777Op::revoke_operator(1));

  return h.finish([kSupply](const LedgerSM<Erc777Spec>& sm)
                      -> std::optional<std::string> {
    if (sm.state().total_supply() == kSupply) return std::nullopt;
    return "supply " + std::to_string(sm.state().total_supply()) +
           " != " + std::to_string(kSupply);
  });
}

// -------------------------------------------------------------------------
// dyntoken issuer reconfiguration: approvals grow and shrink account 0's
// spender group mid-stream (the paper's dynamic σ_q(a)), spenders race
// inside an epoch, and a revoked spender deterministically aborts.
// -------------------------------------------------------------------------

ScenarioReport run_dyntoken_reconfig(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 50;
  DynTokenNode::Net net(n, make_net_config(cfg.fault, cfg.seed));
  arm_fault_schedule(net, cfg.fault);

  std::vector<std::unique_ptr<DynTokenNode>> nodes;
  for (ProcessId p = 0; p < n; ++p) {
    nodes.push_back(std::make_unique<DynTokenNode>(
        net, p, std::vector<Amount>(n, kInitial)));
  }
  const auto correct = correct_mask(n, cfg.fault);
  std::size_t submitted = 0;
  const auto submit_at = [&](ProcessId p, std::uint64_t t, DynOp op) {
    DynTokenNode* node = nodes[p].get();
    net.call_at(p, t, [node, op] { node->submit(op); });
    if (correct[p]) ++submitted;
  };

  // Fast-path payments from every owner (consensus-free singleton groups).
  for (ProcessId p = 0; p < n; ++p) {
    submit_at(p, 6 + p, DynOp::transfer(static_cast<AccountId>((p + 1) % n), 5));
  }
  // Epoch 1: issuer approves p1; p1 spends under the 2-member group.
  submit_at(0, 20, DynOp::approve(1, 20));
  submit_at(1, 40, DynOp::transfer_from(0, 1, 10));
  // Epoch 2: group grows to {0,1,2}; p1 and p2 race the same account.
  submit_at(0, 60, DynOp::approve(2, 15));
  submit_at(1, 80, DynOp::transfer_from(0, 3, 5));
  submit_at(2, 81, DynOp::transfer_from(0, 2, 15));
  // Epoch 3: revocation — p1's remaining allowance drops to 0, so its
  // next spend aborts identically on every replica.
  submit_at(0, 100, DynOp::approve(1, 0));
  submit_at(1, 110, DynOp::transfer_from(0, 1, 5));
  // Background fast-path load, scaled by intensity (p3.. stay quiet so
  // the minority-crash profile never needs a crashed group member).
  const std::size_t movers = std::min<std::size_t>(n, 3);
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < movers; ++p) {
      submit_at(p, 130 + 9 * j + p,
                DynOp::transfer(static_cast<AccountId>((p + 1 + j) % n), 1));
    }
  }

  drain_to_convergence(net, [&nodes, &correct] {
    for (std::size_t p = 0; p < nodes.size(); ++p) {
      if (correct[p]) nodes[p]->sync();
    }
  });

  ScenarioReport rep;
  const std::size_t ref = reference_replica(correct);
  fill_report_skeleton(rep, to_string(cfg.workload), cfg.fault, cfg.seed, n,
                       net.now(), net.stats(), nodes[ref]->history(),
                       nodes[ref]->processed_ops(),
                       nodes[ref]->last_commit_time());
  rep.submitted = submitted;
  const Amount expected = kInitial * n;
  for (std::size_t p = 0; p < n; ++p) {
    if (correct[p]) {
      if (!nodes[p]->all_submissions_settled()) {
        rep.settled = false;
        rep.violations.push_back("replica " + std::to_string(p) +
                                 " has unsettled submissions");
      }
      if (nodes[p]->history() != rep.history) {
        rep.agreement = false;
        rep.violations.push_back("replica " + std::to_string(p) +
                                 " history diverges");
      }
    } else {
      // Per-account prefix agreement: dyntoken replicas interleave
      // accounts differently, so a crashed replica is compared per
      // account log, not on the account-major rendering.
      const auto& logs = nodes[p]->account_logs();
      const auto& ref_logs = nodes[ref]->account_logs();
      for (AccountId a = 0; a < logs.size(); ++a) {
        if (logs[a].size() > ref_logs[a].size() ||
            !std::equal(logs[a].begin(), logs[a].end(),
                        ref_logs[a].begin())) {
          rep.agreement = false;
          rep.violations.push_back(
              "crashed replica " + std::to_string(p) + " account " +
              std::to_string(a) + " log is not a prefix");
        }
      }
    }
    if (nodes[p]->total_supply() != expected) {
      rep.conservation = false;
      rep.violations.push_back(
          "replica " + std::to_string(p) + ": supply " +
          std::to_string(nodes[p]->total_supply()) +
          " != " + std::to_string(expected));
    }
  }
  return rep;
}

// -------------------------------------------------------------------------
// Consensus-free asset transfer over reliable broadcast: the CN = 1 end
// of the hierarchy.  No total order exists (by design), so the committed
// "history" of this commuting workload is its converged final state.
// -------------------------------------------------------------------------

ScenarioReport run_at_bcast_payments(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 100;
  AtBcastNode::Net net(n, make_net_config(cfg.fault, cfg.seed));
  arm_fault_schedule(net, cfg.fault);

  std::vector<std::unique_ptr<AtBcastNode>> nodes;
  for (ProcessId p = 0; p < n; ++p) {
    nodes.push_back(std::make_unique<AtBcastNode>(
        net, p, std::vector<Amount>(n, kInitial)));
  }
  const auto correct = correct_mask(n, cfg.fault);
  std::size_t submitted = 0;
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < n; ++p) {
      AtBcastNode* node = nodes[p].get();
      const auto dst = static_cast<AccountId>((p + 1 + j) % n);
      const Amount v = 1 + j % 2;
      net.call_at(p, 8 + 9 * j + 2 * p,
                  [node, dst, v] { node->submit_transfer(dst, v); });
      if (correct[p]) ++submitted;
    }
  }

  // ERB's periodic retransmission IS its anti-entropy; there is no sync()
  // to call (the extra drain rounds are no-ops once the queue empties —
  // ERB writes off crashed peers via the crash oracle, so the network
  // quiesces under every profile).
  drain_to_convergence(net, /*sync_all=*/nullptr);

  const std::size_t ref = reference_replica(correct);
  std::string h = "applied=" + std::to_string(nodes[ref]->applied_count()) +
                  " balances=[";
  for (AccountId a = 0; a < n; ++a) {
    h += (a ? "," : "") + std::to_string(nodes[ref]->balance(a));
  }
  h += "]\n";
  ScenarioReport rep;
  fill_report_skeleton(rep, to_string(cfg.workload), cfg.fault, cfg.seed, n,
                       net.now(), net.stats(), std::move(h),
                       nodes[ref]->applied_count(),
                       nodes[ref]->last_applied_time());
  rep.submitted = submitted;
  const Amount expected = kInitial * n;
  for (std::size_t p = 0; p < n; ++p) {
    if (!correct[p]) continue;
    if (nodes[p]->applied_count() != nodes[ref]->applied_count() ||
        nodes[p]->balances() != nodes[ref]->balances()) {
      rep.agreement = false;
      rep.violations.push_back("replica " + std::to_string(p) +
                               " final state diverges");
    }
    if (nodes[p]->parked_count() != 0) {
      rep.settled = false;
      rep.violations.push_back("replica " + std::to_string(p) + " has " +
                               std::to_string(nodes[p]->parked_count()) +
                               " parked transfers");
    }
    Amount sum = 0;
    for (AccountId a = 0; a < n; ++a) sum += nodes[p]->balance(a);
    if (sum != expected) {
      rep.conservation = false;
      rep.violations.push_back("replica " + std::to_string(p) + ": supply " +
                               std::to_string(sum) +
                               " != " + std::to_string(expected));
    }
  }
  return rep;
}

// -------------------------------------------------------------------------
// Hardware executor workloads (ISSUE 3): the commutativity-aware
// parallel executor over a ConcurrentLedger.  No network exists here —
// the fault axis is inert (every profile runs the identical script) and
// the audits compare THREAD COUNTS instead of replicas:
//
//   agreement     — thread counts 1, 2 and 8 produce byte-identical
//                   final ledger state, all equal to the sequential
//                   specification folded over the batch;
//   conservation  — the workload's supply invariant on that final state;
//   settlement    — every thread count returned the sequential
//                   responses, one per submitted operation.
// -------------------------------------------------------------------------

template <typename LedgerSpec>
ScenarioReport run_executor_workload(
    const ScenarioConfig& cfg,
    const typename LedgerSpec::SeqState& initial,
    const std::vector<typename ConcurrentLedger<LedgerSpec>::BatchOp>& batch,
    const std::function<std::optional<std::string>(
        const typename LedgerSpec::SeqState&)>& conserve) {
  // The sequential reference: the batch folded through the pure spec.
  typename LedgerSpec::SeqState seq = initial;
  std::vector<Response> seq_responses;
  seq_responses.reserve(batch.size());
  for (const auto& b : batch) {
    auto [r, next] = LedgerSpec::SeqSpec::apply(seq, b.caller, b.op);
    seq_responses.push_back(r);
    seq = std::move(next);
  }

  ScenarioReport rep;
  BatchSchedule sched;
  std::vector<std::string> violations;
  bool agreement = true;
  bool settled = true;
  bool conservation = true;
  for (const std::size_t threads : {1, 2, 8}) {
    ConcurrentLedger<LedgerSpec> ledger(initial, /*validation_spin=*/0,
                                        /*num_shards=*/0);
    ParallelExecutor<LedgerSpec> exec(ledger, {.threads = threads});
    const ExecReport er = exec.execute(batch);
    sched = er.schedule;
    const auto snapshot = ledger.snapshot();
    if (!(snapshot == seq)) {
      agreement = false;
      violations.push_back("threads=" + std::to_string(threads) +
                           " final state diverges from sequential spec");
    }
    if (er.responses != seq_responses) {
      settled = false;
      violations.push_back("threads=" + std::to_string(threads) +
                           " responses diverge from sequential spec");
    }
    if (auto v = conserve(snapshot)) {
      conservation = false;
      violations.push_back("threads=" + std::to_string(threads) + ": " + *v);
    }
  }

  // The committed "history" of a hardware batch is its schedule plus the
  // (thread-count-invariant) final state.
  std::string history = sched.to_string() + "\n" + seq.to_string() + "\n";
  fill_report_skeleton(rep, to_string(cfg.workload), cfg.fault, cfg.seed,
                       cfg.num_replicas, /*sim_time=*/0, NetStats{},
                       std::move(history), batch.size());
  rep.submitted = batch.size();
  rep.agreement = agreement;
  rep.settled = settled;
  rep.conservation = conservation;
  rep.violations = std::move(violations);
  return rep;
}

// ERC20 parallel storm: a mostly-commuting transfer stream over 16
// accounts (the conflict graph stays wide ⇒ few waves), salted with
// allowance traffic and a rare totalSupply barrier.  A pure function of
// (seed, intensity).
ScenarioReport run_erc20_parallel_storm(const ScenarioConfig& cfg) {
  constexpr std::size_t kAccts = 16;
  const Amount kInitial = 100;
  Erc20State initial(std::vector<Amount>(kAccts, kInitial),
                     std::vector<std::vector<Amount>>(
                         kAccts, std::vector<Amount>(kAccts, 2)));
  Rng rng(cfg.seed);
  std::vector<Erc20Ledger::BatchOp> batch;
  const std::size_t ops = 60 * cfg.intensity;
  for (std::size_t i = 0; i < ops; ++i) {
    const auto caller = static_cast<ProcessId>(rng.below(kAccts));
    const auto dst = static_cast<AccountId>(rng.below(kAccts));
    const auto roll = rng.below(50);
    if (roll == 0) {
      batch.push_back({caller, Erc20Op::total_supply()});  // barrier
    } else if (roll < 5) {
      batch.push_back({caller, Erc20Op::approve(
                                   static_cast<ProcessId>(dst), 3)});
    } else if (roll < 10) {
      batch.push_back(
          {caller, Erc20Op::transfer_from(
                       static_cast<AccountId>(rng.below(kAccts)), dst, 1)});
    } else {
      batch.push_back({caller, Erc20Op::transfer(dst, 1 + rng.below(3))});
    }
  }

  const Amount expected = kInitial * kAccts;
  return run_executor_workload<Erc20LedgerSpec>(
      cfg, initial, batch,
      [expected](const Erc20State& q) -> std::optional<std::string> {
        if (q.total_supply() == expected) return std::nullopt;
        return "supply " + std::to_string(q.total_supply()) +
               " != " + std::to_string(expected);
      });
}

// Mixed commute/escalate: the ERC721 fast path (argument-footprint
// transfers, operator management) interleaved with the state-dependent-σ
// admin fragment (approve/ownerOf — escalated to the sequential lane;
// DESIGN.md §9's escalation rule, exercised end to end).
ScenarioReport run_mixed_commute_escalate(const ScenarioConfig& cfg) {
  constexpr std::size_t kAccts = 12;
  constexpr std::size_t kTokens = 30;
  std::vector<AccountId> owners(kTokens);
  for (std::size_t t = 0; t < kTokens; ++t) {
    owners[t] = static_cast<AccountId>(t % kAccts);
  }
  const Erc721State initial(kAccts, owners);
  Rng rng(cfg.seed);
  std::vector<Erc721Ledger::BatchOp> batch;
  const std::size_t ops = 50 * cfg.intensity;
  for (std::size_t i = 0; i < ops; ++i) {
    const auto caller = static_cast<ProcessId>(rng.below(kAccts));
    const auto tok = static_cast<TokenId>(rng.below(kTokens));
    const auto roll = rng.below(20);
    if (roll < 2) {  // escalates: σ = {owner_of(token)}, state-dependent
      batch.push_back({caller, Erc721Op::approve(
                                   static_cast<ProcessId>(
                                       rng.below(kAccts)),
                                   tok)});
    } else if (roll < 3) {  // escalates
      batch.push_back({caller, Erc721Op::owner_of(tok)});
    } else if (roll < 5) {  // fast path: σ = {caller}
      batch.push_back({caller, Erc721Op::set_approval_for_all(
                                   static_cast<ProcessId>(
                                       rng.below(kAccts)),
                                   rng.chance(1, 2))});
    } else {  // fast path: σ = {src, dst}
      batch.push_back(
          {caller, Erc721Op::transfer_from(
                       static_cast<AccountId>(caller),
                       static_cast<AccountId>(rng.below(kAccts)), tok)});
    }
  }

  return run_executor_workload<Erc721LedgerSpec>(
      cfg, initial, batch,
      [kAccts](const Erc721State& q) -> std::optional<std::string> {
        if (q.num_tokens() != kTokens) {
          return "token count changed: " + std::to_string(q.num_tokens());
        }
        for (TokenId t = 0; t < kTokens; ++t) {
          if (q.owner_of(t) >= kAccts) {
            return "token " + std::to_string(t) +
                   " owned by invalid account " +
                   std::to_string(q.owner_of(t));
          }
        }
        return std::nullopt;
      });
}

// -------------------------------------------------------------------------
// Block-pipeline workloads (ISSUE 4): batched total-order replication
// with deterministic parallel replay.  Distributed like the ISSUE 2
// workloads (live fault axis), but each consensus slot carries a whole
// block (exec/block.h) that every replica replays through its
// ReplayEngine (exec/replay_engine.h) with cfg.replay_threads workers.
// The committed history — block lines in slot order — must be a pure
// function of (workload, fault, seed, intensity, block knobs),
// independent of replay_threads.
// -------------------------------------------------------------------------

template <typename Spec>
class BlockHarness {
 public:
  using Node = BlockReplicaNode<Spec>;

  BlockHarness(const ScenarioConfig& cfg,
               const typename Spec::SeqState& initial)
      : cfg_(cfg), initial_(initial),
        net_(cfg.num_replicas, make_net_config(cfg.fault, cfg.seed)),
        correct_(correct_mask(cfg.num_replicas, cfg.fault)) {
    arm_fault_schedule(net_, cfg.fault);
    bcfg_.max_ops = cfg.block_max_ops;
    bcfg_.deadline = cfg.block_deadline;
    bcfg_.pipeline_window = cfg.block_window;
    eopts_ = ExecOptions{.threads = cfg.replay_threads};
    rcfg_.snapshot_interval = cfg.snapshot_interval;
    rcfg_.prune = cfg.prune;
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      nodes_.push_back(std::make_unique<Node>(net_, p, initial_, bcfg_,
                                              eopts_, cfg.relay_mode, rcfg_));
    }
    if (cfg.fault == FaultProfile::kCrashRejoin) {
      // The last replica crashes mid-run and is rebuilt as a rejoiner
      // (arm_fault_schedule deliberately leaves this profile to us —
      // net-level events cannot reconstruct a node).
      const FaultTiming t{};
      rejoiner_ = static_cast<ProcessId>(cfg.num_replicas - 1);
      const ProcessId p = *rejoiner_;
      net_.schedule(t.crash_at, [this, p] { net_.crash(p); });
      net_.schedule(t.rejoin_at, [this, p] { do_rejoin(p); });
    }
  }

  /// Schedules one client op at replica `p` (pool intake; the replica
  /// cuts and proposes blocks on its own size/deadline rule).  The
  /// callback resolves nodes_[p] at FIRE time — never capture the Node
  /// pointer: the rejoin rebuilds the node, and a callback firing after
  /// the restart must reach the NEW instance, not a dangling old one.
  void submit_at(ProcessId p, std::uint64_t t, ProcessId caller,
                 typename Spec::Op op) {
    net_.call_at(p, t,
                 [this, p, caller, op] { nodes_[p]->submit(caller, op); });
    last_submit_ = std::max(last_submit_, t);
  }

  /// Arms the deadline ticks (every replica, every block_deadline units,
  /// two periods past the last submit so every pooled op gets a cut;
  /// under kCrashRejoin the horizon additionally extends well past the
  /// rejoin so the rejoiner's post-recovery pool gets its cuts), drains
  /// to convergence, audits, fills the report.  `conserve` checks one
  /// replica's replayed ledger snapshot.
  ScenarioReport finish(
      const std::function<std::optional<std::string>(
          const typename Spec::SeqState&)>& conserve) {
    const std::uint64_t period = std::max<std::uint64_t>(cfg_.block_deadline, 1);
    arm_deadline_ticks(net_, nodes_, cfg_.block_deadline, last_submit_,
                       rejoiner_ ? FaultTiming{}.rejoin_at + 40 * period : 0);
    drain_cluster(net_, nodes_, correct_);
    const std::size_t ref = reference_replica(correct_);
    ScenarioReport rep = rejoiner_
                             ? rejoin_report(ref)
                             : cluster_report(cfg_, net_, nodes_, correct_,
                                              nodes_[ref]->ops_committed());
    rep.slots = nodes_[ref]->blocks_committed();
    rep.proposal_bytes = nodes_[ref]->proposal_bytes();
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
      if (correct_[p]) rep.miss_recoveries += nodes_[p]->relay().miss_recoveries();
    }
    rep.snapshot_bytes = nodes_[ref]->snapshot_bytes();
    rep.pruned_slots = nodes_[ref]->pruned_slots();
    rep.retained_log_bytes = nodes_[ref]->retained_log_bytes();
    if (rejoiner_) rep.catchup_ops = nodes_[*rejoiner_]->catchup_ops();
    audit_conservation(rep, nodes_, [&conserve](const Node& n) {
      return conserve(n.engine().ledger().snapshot());
    });
    return rep;
  }

 private:
  /// Tears down the crashed node and rebuilds it as a rejoiner: restart
  /// re-enables delivery (everything queued while down is gone), the new
  /// instance starts from the INITIAL state with RecoveryConfig::recover
  /// set, so its first act is fetching a snapshot + catching up the log
  /// suffix.  The old instance's un-decided proposals die with it — a
  /// crash loses volatile state by definition.
  void do_rejoin(ProcessId p) {
    net_.restart(p);
    RecoveryConfig rcfg = rcfg_;
    rcfg.recover = true;
    nodes_[p] = std::make_unique<Node>(net_, p, initial_, bcfg_, eopts_,
                                       cfg_.relay_mode, rcfg);
    if (cfg_.rejoin_stale && rcfg_.snapshot_interval > 0) {
      // Stale-snapshot variant: the first peer the rejoiner asks
      // ((p + 1) % n, recovery.h's rotation) serves nothing newer than
      // the FIRST boundary, so the first install is stale and the
      // recovery path must supersede it (via the kPruned redirect when
      // pruning outran the stale boundary, or by replaying the longer
      // suffix otherwise).
      const auto first =
          static_cast<ProcessId>((p + 1) % cfg_.num_replicas);
      nodes_[first]->recovery().set_max_served_slot(
          rcfg_.snapshot_interval);
    }
  }

  /// The kCrashRejoin audit.  The never-crashed replicas are held to the
  /// usual byte-identical agreement; the rejoiner — whose log STARTS at
  /// its snapshot install boundary — must match the reference history's
  /// SUFFIX from that boundary byte for byte, and its installed snapshot
  /// hash must equal the reference's retained hash at the same boundary
  /// (same cut of the same committed prefix ⇒ same bytes ⇒ same hash).
  ScenarioReport rejoin_report(std::size_t ref) {
    const ProcessId rj = *rejoiner_;
    ScenarioReport rep;
    fill_report_skeleton(rep, to_string(cfg_.workload), cfg_.fault,
                         cfg_.seed, cfg_.num_replicas, net_.now(),
                         net_.stats(), nodes_[ref]->history(),
                         nodes_[ref]->ops_committed(),
                         nodes_[ref]->log().empty()
                             ? 0
                             : nodes_[ref]->log().back().time);
    std::vector<std::uint64_t> lats;
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
      rep.submitted += nodes_[p]->submitted();
      const auto& l = nodes_[p]->commit_latencies();
      lats.insert(lats.end(), l.begin(), l.end());
      if (p == rj) continue;  // suffix-audited below
      if (!nodes_[p]->all_settled()) {
        rep.settled = false;
        rep.violations.push_back("replica " + std::to_string(p) +
                                 " has unsettled submissions");
      }
      if (nodes_[p]->history() != rep.history) {
        rep.agreement = false;
        rep.violations.push_back("replica " + std::to_string(p) +
                                 " history diverges");
      }
    }
    rep.latency = summarize_latencies(std::move(lats));

    const Node& r = *nodes_[rj];
    if (r.recovering() || !r.all_settled()) {
      rep.settled = false;
      rep.violations.push_back("rejoiner still recovering or unsettled");
    }
    const std::uint64_t at = r.install_slot();
    if (r.history() != nodes_[ref]->history_from(at)) {
      rep.agreement = false;
      rep.violations.push_back(
          "rejoiner history diverges from the reference suffix at slot " +
          std::to_string(at));
    }
    if (at > 0) {
      const auto want = nodes_[ref]->recovery().store().hash_at(at);
      if (!want || *want != r.installed_snapshot_hash()) {
        rep.agreement = false;
        rep.violations.push_back(
            "rejoiner snapshot hash mismatch at boundary " +
            std::to_string(at));
      }
    }
    return rep;
  }

  ScenarioConfig cfg_;
  typename Spec::SeqState initial_;  // the rejoiner restarts from this
  typename Node::Net net_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> correct_;
  BlockConfig bcfg_;
  ExecOptions eopts_;
  RecoveryConfig rcfg_;
  std::optional<ProcessId> rejoiner_;
  std::uint64_t last_submit_ = 0;
};

// ERC20 block storm: every replica pools a seeded stream of mostly
// per-account-commuting transfers, salted with allowance traffic and a
// rare totalSupply barrier (the escalation lane inside a block).  16
// accounts across 4 replicas keep the intra-block conflict graph wide,
// so the replay waves actually fan out.
ScenarioReport run_erc20_block_storm(const ScenarioConfig& cfg) {
  constexpr std::size_t kAccts = 16;
  const Amount kInitial = 100;
  Erc20State initial(std::vector<Amount>(kAccts, kInitial),
                     std::vector<std::vector<Amount>>(
                         kAccts, std::vector<Amount>(kAccts, 2)));
  BlockHarness<Erc20LedgerSpec> h(cfg, initial);

  Rng rng(cfg.seed * 977 + 13);
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      const std::uint64_t base = 10 + 17 * j + 4 * p;
      for (std::uint64_t k = 0; k < 3; ++k) {
        const auto caller = static_cast<ProcessId>(rng.below(kAccts));
        const auto dst = static_cast<AccountId>(rng.below(kAccts));
        const auto roll = rng.below(40);
        if (roll == 0) {
          h.submit_at(p, base + k, caller, Erc20Op::total_supply());
        } else if (roll < 4) {
          h.submit_at(p, base + k, caller,
                      Erc20Op::approve(static_cast<ProcessId>(dst), 2));
        } else if (roll < 8) {
          h.submit_at(p, base + k, caller,
                      Erc20Op::transfer_from(
                          static_cast<AccountId>(rng.below(kAccts)), dst, 1));
        } else {
          h.submit_at(p, base + k, caller,
                      Erc20Op::transfer(dst, 1 + rng.below(3)));
        }
      }
    }
  }

  const Amount expected = kInitial * kAccts;
  return h.finish([expected](const Erc20State& q)
                      -> std::optional<std::string> {
    if (q.total_supply() == expected) return std::nullopt;
    return "supply " + std::to_string(q.total_supply()) +
           " != " + std::to_string(expected);
  });
}

// -------------------------------------------------------------------------
// Multi-proposer workload (ISSUE 10): the leaderless pipeline
// (net/multi_proposer.h).  Every replica cuts and publishes sub-blocks
// concurrently; consensus orders thin reference vectors; commits flatten
// the referenced DAG cut deterministically.  The script submits a FIXED
// total op count round-robin across the num_proposers proposer replicas
// at a fixed PER-REPLICA cadence, so raising P shrinks the intake span
// (and with it the covering-proposal slot count) ~1/P — the E26 axis.
// -------------------------------------------------------------------------

class MultiProposerHarness {
 public:
  using Node = MultiProposerNode<Erc20LedgerSpec>;

  MultiProposerHarness(const ScenarioConfig& cfg, const Erc20State& initial)
      : cfg_(cfg),
        net_(cfg.num_replicas, make_net_config(cfg.fault, cfg.seed)),
        correct_(correct_mask(cfg.num_replicas, cfg.fault)) {
    arm_fault_schedule(net_, cfg.fault);
    MultiProposerConfig mcfg;
    mcfg.num_proposers = cfg.num_proposers;
    mcfg.subblock_max_ops = cfg.subblock_max_ops;
    mcfg.deadline = cfg.block_deadline;
    const ExecOptions eopts{.threads = cfg.replay_threads};
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      nodes_.push_back(
          std::make_unique<Node>(net_, p, initial, mcfg, eopts));
    }
  }

  void submit_at(ProcessId p, std::uint64_t t, ProcessId caller,
                 Erc20Op op) {
    Node* node = nodes_[p].get();
    net_.call_at(p, t, [node, caller, op] { node->submit(caller, op); });
    last_submit_ = std::max(last_submit_, t);
  }

  ScenarioReport finish(
      const std::function<std::optional<std::string>(const Erc20State&)>&
          conserve) {
    arm_deadline_ticks(net_, nodes_, cfg_.block_deadline, last_submit_);
    drain_cluster(net_, nodes_, correct_);
    const std::size_t ref = reference_replica(correct_);
    ScenarioReport rep = cluster_report(cfg_, net_, nodes_, correct_,
                                        nodes_[ref]->ops_committed());
    rep.slots = nodes_[ref]->slots_committed();
    rep.proposal_bytes = nodes_[ref]->proposal_bytes();
    if (rep.slots > 0) {
      rep.subblocks_per_slot =
          static_cast<double>(nodes_[ref]->subblocks_applied()) /
          static_cast<double>(rep.slots);
    }
    rep.dup_refs_dropped = nodes_[ref]->dup_refs_dropped();
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
      if (!correct_[p]) continue;
      rep.miss_recoveries += nodes_[p]->exchange().miss_recoveries();
      // The dedup counters are a pure function of the committed
      // reference sequence, so agreement extends to them.
      if (nodes_[p]->dup_refs_dropped() != rep.dup_refs_dropped) {
        rep.agreement = false;
        rep.violations.push_back("replica " + std::to_string(p) +
                                 " dup_refs_dropped diverges");
      }
    }
    audit_conservation(rep, nodes_, [&conserve](const Node& n) {
      return conserve(n.engine().ledger().snapshot());
    });
    return rep;
  }

 private:
  ScenarioConfig cfg_;
  Node::Net net_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> correct_;
  std::uint64_t last_submit_ = 0;
};

// ERC20 multi-proposer storm: the block storm's op mix (mostly
// commuting transfers, allowance traffic, a rare totalSupply barrier)
// over a FIXED total op count — intensity * 16 ops round-robin across
// the P proposer replicas, each ingesting one op per kCadence ticks.
// The per-replica rate is what a single proposer would carry at P = 1,
// so the aggregate rate grows with P and the storm span shrinks ~1/P.
// The *16 total keeps every lane's share divisible by the default
// sub-block size at P in {1, 2, 4}: each lane ends on a full size cut,
// so the P axis compares pipelines, not leftover deadline-cut waits.
ScenarioReport run_erc20_multiproposer_storm(const ScenarioConfig& cfg) {
  constexpr std::size_t kAccts = 16;
  constexpr std::uint64_t kCadence = 6;
  const Amount kInitial = 100;
  Erc20State initial(std::vector<Amount>(kAccts, kInitial),
                     std::vector<std::vector<Amount>>(
                         kAccts, std::vector<Amount>(kAccts, 2)));
  MultiProposerHarness h(cfg, initial);

  const std::size_t proposers =
      std::clamp<std::size_t>(cfg.num_proposers, 1, cfg.num_replicas);
  const std::size_t total_ops = cfg.intensity * 16;
  std::vector<std::uint64_t> next_at(proposers, 10);
  Rng rng(cfg.seed * 977 + 13);
  for (std::size_t i = 0; i < total_ops; ++i) {
    const auto p = static_cast<ProcessId>(i % proposers);
    const std::uint64_t t = next_at[p];
    next_at[p] += kCadence;
    const auto caller = static_cast<ProcessId>(rng.below(kAccts));
    const auto dst = static_cast<AccountId>(rng.below(kAccts));
    const auto roll = rng.below(40);
    if (roll == 0) {
      h.submit_at(p, t, caller, Erc20Op::total_supply());
    } else if (roll < 4) {
      h.submit_at(p, t, caller,
                  Erc20Op::approve(static_cast<ProcessId>(dst), 2));
    } else if (roll < 8) {
      h.submit_at(p, t, caller,
                  Erc20Op::transfer_from(
                      static_cast<AccountId>(rng.below(kAccts)), dst, 1));
    } else {
      h.submit_at(p, t, caller, Erc20Op::transfer(dst, 1 + rng.below(3)));
    }
  }

  const Amount expected = kInitial * kAccts;
  return h.finish([expected](const Erc20State& q)
                      -> std::optional<std::string> {
    if (q.total_supply() == expected) return std::nullopt;
    return "supply " + std::to_string(q.total_supply()) +
           " != " + std::to_string(expected);
  });
}

// Mixed block escalate: ERC721 blocks mixing the fast path
// (argument-footprint transfers, operator management) with the
// state-dependent-σ admin fragment (approve/ownerOf), which the replay
// escalates to singleton barrier waves inside each block — the
// escalation↔consensus correspondence of DESIGN.md §9.2 exercised
// through the replicated pipeline.
ScenarioReport run_mixed_block_escalate(const ScenarioConfig& cfg) {
  constexpr std::size_t kAccts = 12;
  constexpr std::size_t kTokens = 24;
  std::vector<AccountId> owners(kTokens);
  for (std::size_t t = 0; t < kTokens; ++t) {
    owners[t] = static_cast<AccountId>(t % kAccts);
  }
  const Erc721State initial(kAccts, owners);
  BlockHarness<Erc721LedgerSpec> h(cfg, initial);

  Rng rng(cfg.seed * 1181 + 29);
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      const std::uint64_t base = 12 + 19 * j + 4 * p;
      for (std::uint64_t k = 0; k < 3; ++k) {
        const auto caller = static_cast<ProcessId>(rng.below(kAccts));
        const auto tok = static_cast<TokenId>(rng.below(kTokens));
        const auto roll = rng.below(20);
        if (roll < 2) {  // escalates in replay: state-dependent σ
          h.submit_at(p, base + k, caller,
                      Erc721Op::approve(
                          static_cast<ProcessId>(rng.below(kAccts)), tok));
        } else if (roll < 3) {  // escalates
          h.submit_at(p, base + k, caller, Erc721Op::owner_of(tok));
        } else if (roll < 5) {  // fast path: σ = {caller}
          h.submit_at(p, base + k, caller,
                      Erc721Op::set_approval_for_all(
                          static_cast<ProcessId>(rng.below(kAccts)),
                          rng.chance(1, 2)));
        } else {  // fast path: σ = {src, dst}
          h.submit_at(p, base + k, caller,
                      Erc721Op::transfer_from(
                          static_cast<AccountId>(caller),
                          static_cast<AccountId>(rng.below(kAccts)), tok));
        }
      }
    }
  }

  return h.finish([](const Erc721State& q) -> std::optional<std::string> {
    if (q.num_tokens() != kTokens) {
      return "token count changed: " + std::to_string(q.num_tokens());
    }
    for (TokenId t = 0; t < kTokens; ++t) {
      if (q.owner_of(t) >= kAccts) {
        return "token " + std::to_string(t) + " owned by invalid account " +
               std::to_string(q.owner_of(t));
      }
    }
    return std::nullopt;
  });
}

// -------------------------------------------------------------------------
// Hybrid (synchronization-tiered) workloads (ISSUE 5): the
// HybridReplicaNode routes CN = 1 owner-signed transfers over the
// consensus-free ERB fast lane and CN > 1 operations through Paxos
// slots, merged deterministically at committed-slot barriers
// (net/hybrid_replica.h).  Distributed, live fault axis; replica p
// speaks for account p (the paper's one-owner-per-account model), so n
// accounts = n replicas.  After draining, every CORRECT replica
// finalizes its terminal fast epoch; a crashed replica's history stays
// a barrier-prefix of the survivors'.
// -------------------------------------------------------------------------

template <typename Spec>
class HybridHarness {
 public:
  using Node = HybridReplicaNode<Spec>;

  HybridHarness(const ScenarioConfig& cfg,
                const typename Spec::SeqState& initial)
      : cfg_(cfg),
        net_(cfg.num_replicas, make_net_config(cfg.fault, cfg.seed)),
        correct_(correct_mask(cfg.num_replicas, cfg.fault)) {
    arm_fault_schedule(net_, cfg.fault);
    HybridConfig hcfg;
    hcfg.relay_mode = cfg.relay_mode;
    hcfg.erb_batch = cfg.erb_batch;
    hcfg.force_consensus = cfg.hybrid_force_consensus;
    hcfg.slow_subblock_ops = cfg.slow_subblock_ops;
    hcfg.fast_lane = cfg.fast_lane;
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      nodes_.push_back(std::make_unique<Node>(
          net_, p, initial, ExecOptions{.threads = cfg.replay_threads},
          hcfg));
    }
    if (cfg.num_equivocators > 0) arm_equivocators();
  }

  void submit_at(ProcessId p, std::uint64_t t, ProcessId caller,
                 typename Spec::Op op) {
    Node* node = nodes_[p].get();
    net_.call_at(p, t, [node, caller, op] { node->submit(caller, op); });
  }

  ScenarioReport finish(
      const std::function<std::optional<std::string>(
          const typename Spec::SeqState&)>& conserve) {
    drain_cluster(net_, nodes_, correct_);
    // Terminal fast epoch — correct replicas only (a crashed replica
    // cannot run anything; its history stays a prefix by construction).
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
      if (correct_[p]) nodes_[p]->finalize();
    }

    const std::size_t ref = reference_replica(correct_);
    ScenarioReport rep =
        cluster_report(cfg_, net_, nodes_, correct_,
                       nodes_[ref]->engine().ops_applied());
    rep.slots = nodes_[ref]->consensus_slots();
    rep.fast_lane_ops = nodes_[ref]->fast_lane_ops();
    rep.proposal_bytes = nodes_[ref]->proposal_bytes();
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
      if (correct_[p]) rep.miss_recoveries += nodes_[p]->relay().miss_recoveries();
    }
    // Byzantine-tier counters + the proof-agreement audit (DESIGN.md
    // §15): "every correct replica detects the equivocation" is literal
    // map equality — same keys, byte-identical canonical proofs.
    rep.conflict_proofs = nodes_[ref]->conflict_proofs().size();
    rep.quarantined_origins = nodes_[ref]->num_quarantined();
    rep.equivocation_commits = nodes_[ref]->equivocation_commits();
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
      if (!correct_[p] || p == ref) continue;
      if (nodes_[p]->conflict_proofs() != nodes_[ref]->conflict_proofs()) {
        rep.agreement = false;
        rep.violations.push_back("replica " + std::to_string(p) +
                                 " conflict-proof set diverges");
      }
    }
    audit_conservation(rep, nodes_, [&conserve](const Node& n) {
      return conserve(n.engine().ledger().snapshot());
    });
    return rep;
  }

 private:
  /// Network-level equivocation (ISSUE 9): the highest-id replicas run
  /// HONEST node code, but SimNet forks their outgoing Bracha SENDs —
  /// exactly one victim receives a conflicting payload for the same
  /// (origin, seq), the classic same-funds-different-recipient respend.
  /// The fork shape is deliberate: the original payload still reaches
  /// the echo quorum through the origin plus the non-victim correct
  /// replicas, so that branch delivers under every fault profile, while
  /// the forked branch (at most one echo) can never assemble a quorum —
  /// detection fires everywhere, delivery never splits.
  void arm_equivocators() {
    if constexpr (std::is_same_v<typename Spec::Op, Erc20Op>) {
      using BMsg = BrachaMsg<typename Node::FastBatch>;
      using Msg = typename Node::Net::MsgType;
      const std::size_t n = cfg_.num_replicas;
      const std::size_t k = std::min(cfg_.num_equivocators, n);
      for (std::size_t i = 0; i < k; ++i) {
        const auto e = static_cast<ProcessId>(n - 1 - i);
        const auto victim = static_cast<ProcessId>((e + 1) % n);
        const std::uint32_t pct = cfg_.equivocate_pct;
        net_.set_equivocator(
            e, [victim, pct, n](ProcessId to,
                                const Msg& m) -> std::optional<Msg> {
              if (to != victim) return std::nullopt;
              const auto* bm = std::get_if<BMsg>(&m);
              if (!bm || bm->type != BMsg::Type::kSend) return std::nullopt;
              // Deterministic per-seq gate (no Rng: the fork must not
              // perturb the primary schedule's random streams).
              if ((bm->seq * 37 + 11) % 100 >= pct) return std::nullopt;
              if (bm->payload.ops.empty() ||
                  bm->payload.ops.front().kind != Erc20Op::Kind::kTransfer) {
                return std::nullopt;
              }
              BMsg fork = *bm;
              Erc20Op& op = fork.payload.ops.front();
              op.dst = static_cast<AccountId>((op.dst + 1) % n);
              return Msg(std::in_place_type<BMsg>, std::move(fork));
            });
      }
    }
  }

  ScenarioConfig cfg_;
  typename Node::Net net_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> correct_;
};

// ERC20 fast-lane storm: PURE owner-signed transfers — every operation
// classifies CN = 1 and rides the ERB lane, so the run must commit with
// ZERO consensus slots.  Every submission lands before t = 45 (the
// minority-crash point) so the delivered op set — and therefore the
// canonical terminal-epoch history — is identical across ALL fault
// profiles, not just across replicas and replay thread counts (the
// ISSUE 5 acceptance criterion; tests/hybrid_replica_test.cc).  Debits
// per account stay under the initial balance, so no transfer's response
// depends on the credit interleaving.
ScenarioReport run_erc20_fastlane_storm(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 100;
  Erc20State initial(std::vector<Amount>(n, kInitial),
                     std::vector<std::vector<Amount>>(
                         n, std::vector<Amount>(n, 0)));
  HybridHarness<Erc20LedgerSpec> h(cfg, initial);

  const std::size_t per_replica = 3 * cfg.intensity;
  for (ProcessId p = 0; p < n; ++p) {
    for (std::size_t j = 0; j < per_replica; ++j) {
      const std::uint64_t t = 4 + p + 2 * j;  // all < 45 for default sizes
      h.submit_at(p, t, p,
                  Erc20Op::transfer(
                      static_cast<AccountId>((p + 1 + j) % n),
                      1 + static_cast<Amount>(j % 2)));
    }
  }

  const Amount expected = kInitial * n;
  return h.finish([expected](const Erc20State& q)
                      -> std::optional<std::string> {
    if (q.total_supply() == expected) return std::nullopt;
    return "supply " + std::to_string(q.total_supply()) +
           " != " + std::to_string(expected);
  });
}

// Mixed synchronization tiers: owner-signed transfers stream over the
// fast lane while the allowance machinery — the paper's CN ≥ 2 fragment
// — rides consensus slots: an approve ring (p approves p+1), periodic
// transferFrom draws against the ring allowances, and one totalSupply
// barrier (whole-state σ — escalated inside its merge block by the
// planner, DESIGN.md §9/§11).  The committed history interleaves both
// lanes under the decided frontiers: a pure per-profile function of the
// seed, byte-identical across replicas and replay thread counts.
ScenarioReport run_mixed_sync_tiers(const ScenarioConfig& cfg) {
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 100;
  Erc20State initial(std::vector<Amount>(n, kInitial),
                     std::vector<std::vector<Amount>>(
                         n, std::vector<Amount>(n, 0)));
  HybridHarness<Erc20LedgerSpec> h(cfg, initial);

  for (ProcessId p = 0; p < n; ++p) {
    h.submit_at(p, 8 + p, p,
                Erc20Op::approve(static_cast<ProcessId>((p + 1) % n), 30));
  }
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < n; ++p) {
      const std::uint64_t t = 16 + 19 * j + 3 * p;
      // Two fast transfers per beat, one consensus draw every third.
      h.submit_at(p, t, p,
                  Erc20Op::transfer(
                      static_cast<AccountId>((p + 1 + j) % n),
                      1 + static_cast<Amount>(j % 3)));
      h.submit_at(p, t + 1, p,
                  Erc20Op::transfer(
                      static_cast<AccountId>((p + 2 + j) % n), 1));
      if (j % 3 == 2) {
        h.submit_at(p, t + 2, p,
                    Erc20Op::transfer_from(
                        static_cast<AccountId>((p + n - 1) % n), p, 2));
      }
    }
  }
  h.submit_at(0, 30 + 19 * cfg.intensity, 0, Erc20Op::total_supply());

  const Amount expected = kInitial * n;
  return h.finish([expected](const Erc20State& q)
                      -> std::optional<std::string> {
    if (q.total_supply() == expected) return std::nullopt;
    return "supply " + std::to_string(q.total_supply()) +
           " != " + std::to_string(expected);
  });
}

// ERC20 respend storm (ISSUE 9): the fastlane-storm script on the
// Byzantine fast lane, plus one designated respender.  Replicas
// 0..n-2 stream the usual owner-signed transfers; replica n-1 submits
// exactly ONE transfer at t = 4.  The submission script is deliberately
// IDENTICAL whether or not equivocators are armed: with
// num_equivocators >= 1 the harness forks the respender's SEND in
// flight (one victim sees the same funds aimed at a different
// recipient), Bracha's quorum intersection still delivers only the
// majority branch, and the run's committed history is therefore
// byte-identical to the unforked run — only the proof ledger
// (conflict_proofs / quarantined_origins / equivocation_commits)
// distinguishes them, which is exactly the acceptance criterion.  All
// submissions land before t = 45 so the delivered set (and the
// terminal-epoch history) is invariant across fault profiles too, the
// fastlane-storm property the Byzantine matrix re-asserts.
ScenarioReport run_erc20_respend_storm(const ScenarioConfig& rcfg) {
  // The pure-Byzantine profile IS this workload with clean links: it
  // implies the Bracha lane and (at least) one armed equivocator, so a
  // bare {kErc20RespendStorm, kByzantineEquivocate} config runs the
  // canonical detection scenario without further knobs.
  ScenarioConfig cfg = rcfg;
  if (cfg.fault == FaultProfile::kByzantineEquivocate) {
    cfg.fast_lane = FastLane::kBracha;
    if (cfg.num_equivocators == 0) cfg.num_equivocators = 1;
  }
  const std::size_t n = cfg.num_replicas;
  const Amount kInitial = 100;
  Erc20State initial(std::vector<Amount>(n, kInitial),
                     std::vector<std::vector<Amount>>(
                         n, std::vector<Amount>(n, 0)));
  HybridHarness<Erc20LedgerSpec> h(cfg, initial);

  const std::size_t per_replica = 3 * cfg.intensity;
  for (ProcessId p = 0; p + 1 < n; ++p) {
    for (std::size_t j = 0; j < per_replica; ++j) {
      const std::uint64_t t = 4 + p + 2 * j;  // all < 45 for default sizes
      h.submit_at(p, t, p,
                  Erc20Op::transfer(
                      static_cast<AccountId>((p + 1 + j) % n),
                      1 + static_cast<Amount>(j % 2)));
    }
  }
  // The respender's single intake slot — the (origin, seq) the forker
  // double-spends.  One op keeps the equivocation window minimal and
  // the history a pure function of the delivered set under every
  // profile (the fork changes payload CONTENT toward one victim, never
  // message count or size, so the primary schedule is untouched).
  const auto resp = static_cast<ProcessId>(n - 1);
  h.submit_at(resp, 4, resp,
              Erc20Op::transfer(static_cast<AccountId>(0), 2));

  const Amount expected = kInitial * n;
  return h.finish([expected](const Erc20State& q)
                      -> std::optional<std::string> {
    if (q.total_supply() == expected) return std::nullopt;
    return "supply " + std::to_string(q.total_supply()) +
           " != " + std::to_string(expected);
  });
}

// ---------------------------------------------------------------------------
// Sharded harness (ISSUE 8): ShardedReplicaNode clusters — N replica
// groups over one SimNet, with the 2PC / migration driver reacting to
// committed stage transitions (net/shard_group.h).
// ---------------------------------------------------------------------------

class ShardHarness {
 public:
  using Node = ShardedReplicaNode;

  explicit ShardHarness(const ScenarioConfig& cfg)
      : cfg_(cfg), net_(cfg.num_replicas, make_net_config(cfg.fault, cfg.seed)),
        correct_(correct_mask(cfg.num_replicas, cfg.fault)) {
    arm_fault_schedule(net_, cfg.fault);
    scfg_.num_groups = std::max<std::uint32_t>(cfg.num_groups, 1);
    scfg_.num_accounts = cfg.shard_accounts;
    scfg_.initial_balance = kInitialBalance;
    BlockConfig bcfg;
    bcfg.max_ops = cfg.block_max_ops;
    bcfg.deadline = cfg.block_deadline;
    bcfg.pipeline_window = cfg.block_window;
    const ExecOptions eopts{.threads = cfg.replay_threads};
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      nodes_.push_back(std::make_unique<Node>(net_, p, scfg_, bcfg, eopts,
                                              cfg.relay_mode));
    }
  }

  void transfer_at(ProcessId p, std::uint64_t t, AccountId src, AccountId dst,
                   Amount v) {
    net_.call_at(p, t, [this, p, src, dst, v] {
      nodes_[p]->submit_transfer(src, dst, v);
    });
    last_submit_ = std::max(last_submit_, t);
  }

  void migrate_at(ProcessId p, std::uint64_t t, AccountId account,
                  std::uint32_t to_group) {
    net_.call_at(p, t, [this, p, account, to_group] {
      nodes_[p]->submit_migrate(account, to_group);
    });
    last_submit_ = std::max(last_submit_, t);
  }

  ScenarioReport finish() {
    arm_deadline_ticks(net_, nodes_, cfg_.block_deadline, last_submit_);
    // The drain must CUT as well as sync: every committed 2PC stage
    // spawns follow-up submissions (driver call_at timers firing inside
    // the drain), and those pooled ops only propose on a deadline tick.
    // Ten rounds of run-to-quiescence + cut cover the longest chain
    // (prepare -> commit -> ack, or out -> in -> ack, each stage one
    // commit plus one cut) with room for lossy retransmits.
    drain_to_convergence(net_, [this] {
      for (std::size_t p = 0; p < nodes_.size(); ++p) {
        if (correct_[p]) {
          nodes_[p]->sync();
          nodes_[p]->on_deadline();
        }
      }
    });

    ScenarioReport rep;
    const std::size_t ref = reference_replica(correct_);
    fill_report_skeleton(rep, to_string(cfg_.workload), cfg_.fault, cfg_.seed,
                         cfg_.num_replicas, net_.now(), net_.stats(),
                         nodes_[ref]->history(), nodes_[ref]->ops_committed(),
                         nodes_[ref]->last_commit_time());

    // Agreement/settlement.  Correct replicas: the CONCATENATED history
    // must match byte for byte.  A crashed replica stopped mid-log in
    // every group independently, so its concatenation is not a prefix of
    // the reference's — the prefix rule applies PER GROUP instead.
    std::vector<std::uint64_t> lats;
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
      if (correct_[p]) {
        rep.submitted += nodes_[p]->submitted();
        if (!nodes_[p]->all_settled()) {
          rep.settled = false;
          rep.violations.push_back("replica " + std::to_string(p) +
                                   " has unsettled submissions");
        }
        if (nodes_[p]->history() != rep.history) {
          rep.agreement = false;
          rep.violations.push_back("replica " + std::to_string(p) +
                                   " history diverges");
        }
        const auto l = nodes_[p]->commit_latencies();
        lats.insert(lats.end(), l.begin(), l.end());
      } else {
        for (std::uint32_t g = 0; g < scfg_.num_groups; ++g) {
          const std::string h = nodes_[p]->group_history(g);
          const std::string r = nodes_[ref]->group_history(g);
          if (r.compare(0, h.size(), h) != 0) {
            rep.agreement = false;
            rep.violations.push_back("crashed replica " + std::to_string(p) +
                                     " group " + std::to_string(g) +
                                     " history is not a prefix");
          }
        }
      }
    }
    rep.latency = summarize_latencies(std::move(lats));

    // Global conservation ACROSS groups, on every correct replica: all
    // protocol records terminal (nothing in flight), every account owned
    // by exactly one group, and the owned balances sum to the initial
    // supply — a half-applied cross-shard transfer or a migration leak
    // breaks one of the three.
    const Amount expected = nodes_[ref]->expected_supply();
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
      if (!correct_[p]) continue;
      const ShardAudit a = nodes_[p]->audit();
      if (!a.quiescent) {
        rep.conservation = false;
        rep.violations.push_back("replica " + std::to_string(p) +
                                 ": transfers still in flight at quiescence");
      }
      if (!a.partitioned) {
        rep.conservation = false;
        rep.violations.push_back("replica " + std::to_string(p) +
                                 ": account ownership not a partition");
      }
      if (a.owned_total != expected) {
        rep.conservation = false;
        rep.violations.push_back(
            "replica " + std::to_string(p) + ": supply " +
            std::to_string(a.owned_total) + " != " + std::to_string(expected));
      }
    }

    const ShardAudit a = nodes_[ref]->audit();
    rep.groups = scfg_.num_groups;
    rep.slots = nodes_[ref]->slots_committed();
    rep.group_slots_max = nodes_[ref]->max_group_slots();
    rep.proposal_bytes = nodes_[ref]->proposal_bytes();
    rep.cross_shard_ops = a.cross_done;
    rep.cross_shard_aborts = a.cross_aborted;
    rep.migrations = a.migrations;
    return rep;
  }

  static constexpr Amount kInitialBalance = 100;

 private:
  ScenarioConfig cfg_;
  ShardGroupConfig scfg_;
  Node::Net net_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<bool> correct_;
  std::uint64_t last_submit_ = 0;
};

// Zipfian sharded storm: a skewed keyspace (min-of-two-uniforms pushes
// traffic toward the low accounts) split across `num_groups` groups,
// `cross_pct`% of transfers forced cross-group, plus a few migrations of
// the hottest account chasing the load.  With num_groups = 1 everything
// is intra and no migration is scheduled — the plain-matrix degenerate.
ScenarioReport run_erc20_zipfian_shards(const ScenarioConfig& cfg) {
  ShardHarness h(cfg);
  const std::size_t kAccts = cfg.shard_accounts;
  const std::uint32_t groups = std::max<std::uint32_t>(cfg.num_groups, 1);

  Rng rng(cfg.seed * 1553 + 41);
  const auto skewed = [&rng, kAccts] {
    return static_cast<AccountId>(
        std::min(rng.below(kAccts), rng.below(kAccts)));
  };
  for (std::size_t j = 0; j < cfg.intensity; ++j) {
    for (ProcessId p = 0; p < cfg.num_replicas; ++p) {
      const std::uint64_t base = 10 + 17 * j + 4 * p;
      for (std::uint64_t k = 0; k < 3; ++k) {
        const AccountId src = skewed();
        AccountId dst = static_cast<AccountId>(rng.below(kAccts));
        const bool cross =
            groups > 1 && rng.below(100) < cfg.cross_pct;
        if (cross) {
          // Nudge into a different residue class (mod-group residue is
          // the INITIAL shard map; later migrations may re-home an
          // account, which is exactly the routed-traffic case).
          if (dst % groups == src % groups) {
            dst = static_cast<AccountId>((dst + 1) % kAccts);
          }
        } else if (dst % groups != src % groups) {
          dst = static_cast<AccountId>(dst - dst % groups + src % groups);
        }
        h.transfer_at(p, base + k, src, dst,
                      1 + static_cast<Amount>(rng.below(3)));
      }
    }
  }
  if (groups > 1) {
    // The hot account (0 — the skew's mode) chases load around the
    // groups: each migration is a CN > 1 ownership barrier in both the
    // old and the new home.
    const std::size_t moves =
        std::min<std::size_t>(4, cfg.intensity / 2 + 1);
    for (std::size_t m = 0; m < moves; ++m) {
      h.migrate_at(static_cast<ProcessId>(m % cfg.num_replicas),
                   120 + 140 * m, 0,
                   static_cast<std::uint32_t>((m + 1) % groups));
    }
  }
  return h.finish();
}

}  // namespace

ScenarioReport run_scenario(const ScenarioConfig& cfg) {
  // Workload scripts hardcode participants p0..p2 (operator races,
  // dyntoken spender groups), so three replicas is the floor; the fault
  // timings are tuned for the default of four.
  TS_EXPECTS(cfg.num_replicas >= 3);
  // Only the block runtime can rejoin (scenario.h's FaultProfile doc).
  TS_EXPECTS(cfg.fault != FaultProfile::kCrashRejoin ||
             cfg.workload == Workload::kErc20BlockStorm ||
             cfg.workload == Workload::kMixedBlockEscalate);
  // Equivocators exist only where a defense does: the respend storm on
  // the Bracha fast lane (ERB trusts per-sender FIFO by design, and no
  // other workload has a fast lane to fork).  The pure-Byzantine
  // profile is the same workload with clean links.
  TS_EXPECTS(cfg.num_equivocators == 0 ||
             (cfg.workload == Workload::kErc20RespendStorm &&
              cfg.fast_lane == FastLane::kBracha));
  TS_EXPECTS(cfg.fault != FaultProfile::kByzantineEquivocate ||
             cfg.workload == Workload::kErc20RespendStorm);
  switch (cfg.workload) {
    case Workload::kErc20TransferStorm:
      return run_erc20_transfer_storm(cfg);
    case Workload::kErc721MintTradeRace:
      return run_erc721_mint_trade_race(cfg);
    case Workload::kErc777ApproveBurn:
      return run_erc777_approve_burn(cfg);
    case Workload::kDynTokenReconfig:
      return run_dyntoken_reconfig(cfg);
    case Workload::kAtBcastPayments:
      return run_at_bcast_payments(cfg);
    case Workload::kErc20ParallelStorm:
      return run_erc20_parallel_storm(cfg);
    case Workload::kMixedCommuteEscalate:
      return run_mixed_commute_escalate(cfg);
    case Workload::kErc20BlockStorm:
      return run_erc20_block_storm(cfg);
    case Workload::kMixedBlockEscalate:
      return run_mixed_block_escalate(cfg);
    case Workload::kErc20FastlaneStorm:
      return run_erc20_fastlane_storm(cfg);
    case Workload::kMixedSyncTiers:
      return run_mixed_sync_tiers(cfg);
    case Workload::kErc20ZipfianShards:
      return run_erc20_zipfian_shards(cfg);
    case Workload::kErc20RespendStorm:
      return run_erc20_respend_storm(cfg);
    case Workload::kErc20MultiproposerStorm:
      return run_erc20_multiproposer_storm(cfg);
  }
  TS_EXPECTS(false);
  return {};
}

}  // namespace tokensync
