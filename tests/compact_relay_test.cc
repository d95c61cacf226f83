// The compact-relay acceptance suite (ISSUE 6):
//   * mode invariance — for the block pipeline and the hybrid tiers,
//     RelayMode::kFull and RelayMode::kCompact produce byte-identical
//     committed histories across the whole fault × replay-thread matrix
//     (the acceptance criterion: compact relay changes BYTES, never
//     content);
//   * recover-on-miss — under lossy/partitioned links, and with
//     announcements force-disabled so EVERY reconstruction must take the
//     kGetOps round-trip, compact clusters still converge to the
//     full-mode history (the hybrid slow lane's barriers included);
//     the short-block fallback fires after the retry bound;
//   * ERB batch cuts — single-op deadline flushes, deadline ticks over
//     an empty buffer, per-origin FIFO across batch boundaries, and the
//     fastlane-storm history's invariance to the batch size;
//   * TxPool identity — O(1) OpId lookup that survives draining, and
//     double-submit dedup;
//   * wire accounting — bytes_sent respects the per-message header
//     floor, compact mode strictly shrinks bytes on the wire, and the
//     per-slot proposal bytes drop at least 5x at block size 8.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/wire.h"
#include "exec/exec_specs.h"
#include "net/block_replica.h"
#include "net/compact_relay.h"
#include "net/hybrid_replica.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

ScenarioConfig base_cfg(Workload w, FaultProfile f) {
  ScenarioConfig cfg;
  cfg.workload = w;
  cfg.fault = f;
  cfg.seed = 7;
  cfg.num_replicas = 4;
  cfg.intensity = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// Mode invariance: the acceptance criterion.  Same seed, same knobs,
// only relay_mode flips — the committed history (and every audit) must
// not move, for every fault profile and replay thread count.
// ---------------------------------------------------------------------------

TEST(CompactRelayModes, BlockHistoryInvariantAcrossFaultsAndThreads) {
  for (const FaultProfile f : all_fault_profiles()) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ScenarioConfig cfg = base_cfg(Workload::kErc20BlockStorm, f);
      cfg.replay_threads = threads;
      cfg.relay_mode = RelayMode::kFull;
      const ScenarioReport full = run_scenario(cfg);
      cfg.relay_mode = RelayMode::kCompact;
      const ScenarioReport compact = run_scenario(cfg);

      ASSERT_TRUE(full.ok()) << to_string(f) << ": " << full.summary();
      ASSERT_TRUE(compact.ok()) << to_string(f) << ": " << compact.summary();
      EXPECT_EQ(full.history, compact.history)
          << to_string(f) << " threads=" << threads;
      EXPECT_EQ(full.committed, compact.committed);
      EXPECT_EQ(full.slots, compact.slots);
    }
  }
}

TEST(CompactRelayModes, HybridHistoryInvariantAcrossFaultsAndThreads) {
  for (const FaultProfile f : all_fault_profiles()) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ScenarioConfig cfg = base_cfg(Workload::kMixedSyncTiers, f);
      cfg.replay_threads = threads;
      cfg.relay_mode = RelayMode::kFull;
      const ScenarioReport full = run_scenario(cfg);
      cfg.relay_mode = RelayMode::kCompact;
      const ScenarioReport compact = run_scenario(cfg);

      ASSERT_TRUE(full.ok()) << to_string(f) << ": " << full.summary();
      ASSERT_TRUE(compact.ok()) << to_string(f) << ": " << compact.summary();
      EXPECT_EQ(full.history, compact.history)
          << to_string(f) << " threads=" << threads;
      EXPECT_EQ(full.slots, compact.slots);
      EXPECT_EQ(full.fast_lane_ops, compact.fast_lane_ops);
    }
  }
}

// Full mode never recovers (there is nothing to miss); compact mode
// keeps its recoveries out of the committed content by construction.
TEST(CompactRelayModes, FullModeNeverEntersRecovery) {
  for (const Workload w :
       {Workload::kErc20BlockStorm, Workload::kMixedSyncTiers}) {
    ScenarioConfig cfg = base_cfg(w, FaultProfile::kLossyDup);
    const ScenarioReport rep = run_scenario(cfg);
    ASSERT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.miss_recoveries, 0u);
    EXPECT_GT(rep.proposal_bytes, 0u);
  }
}

// ---------------------------------------------------------------------------
// Recover-on-miss under real loss: lossy_dup drops announcements too, so
// compact clusters must heal through kGetOps — and still match the
// full-mode history byte for byte.
// ---------------------------------------------------------------------------

TEST(CompactRelayRecovery, HealsUnderLossyDupAndPartition) {
  for (const FaultProfile f :
       {FaultProfile::kLossyDup, FaultProfile::kPartitionHeal}) {
    ScenarioConfig cfg = base_cfg(Workload::kErc20BlockStorm, f);
    cfg.relay_mode = RelayMode::kFull;
    const ScenarioReport full = run_scenario(cfg);
    cfg.relay_mode = RelayMode::kCompact;
    const ScenarioReport compact = run_scenario(cfg);

    ASSERT_TRUE(compact.ok()) << to_string(f) << ": " << compact.summary();
    EXPECT_EQ(full.history, compact.history) << to_string(f);
  }
}

// Forced universal miss: with announcements disabled on every replica,
// no peer ever holds a foreign op when its block commits — EVERY remote
// block goes through the kGetOps round-trip — and the history must
// still match a full-mode run of the identical script.
TEST(CompactRelayRecovery, ForcedMissRecoversEveryBlock) {
  using Node = BlockReplicaNode<Erc20LedgerSpec>;
  constexpr std::size_t kAccts = 8;
  const Erc20State initial(std::vector<Amount>(kAccts, 100),
                           std::vector<std::vector<Amount>>(
                               kAccts, std::vector<Amount>(kAccts, 2)));

  const auto run = [&](RelayMode mode, bool announce) {
    typename Node::Net net(4, make_net_config(FaultProfile::kNone, 11));
    BlockConfig bcfg;
    bcfg.max_ops = 4;
    std::vector<std::unique_ptr<Node>> nodes;
    for (ProcessId p = 0; p < 4; ++p) {
      nodes.push_back(std::make_unique<Node>(net, p, initial, bcfg,
                                             ExecOptions{.threads = 1}, mode));
      nodes.back()->set_announce_enabled(announce);
    }
    for (ProcessId p = 0; p < 4; ++p) {
      Node* node = nodes[p].get();
      for (std::uint64_t j = 0; j < 6; ++j) {
        net.call_at(p, 5 + 3 * j, [node, p, j] {
          node->submit(p, Erc20Op::transfer(
                              static_cast<AccountId>((p + 1 + j) % kAccts),
                              1));
        });
      }
      for (std::uint64_t t = 25; t <= 100; t += 25) {
        net.call_at(p, t, [node] { node->on_deadline(); });
      }
    }
    const std::vector<bool> correct(4, true);
    drain_cluster(net, nodes, correct);
    return nodes;
  };

  const auto full = run(RelayMode::kFull, true);
  const auto forced = run(RelayMode::kCompact, false);

  std::uint64_t recoveries = 0;
  std::uint64_t requests = 0;
  for (ProcessId p = 0; p < 4; ++p) {
    ASSERT_TRUE(forced[p]->all_settled()) << "replica " << p;
    EXPECT_EQ(full[p]->history(), forced[p]->history()) << "replica " << p;
    recoveries += forced[p]->relay().miss_recoveries();
    requests += forced[p]->relay().get_ops_sent();
  }
  EXPECT_FALSE(full[0]->history().empty());
  // Every replica missed every one of its peers' blocks.
  EXPECT_GT(recoveries, 0u);
  EXPECT_GE(requests, recoveries);
}

// The hybrid slow lane's forced universal miss: with announcements
// disabled, every barrier a replica did not propose itself must fetch
// its sub-block through kGetOps before it applies — and the history must
// still equal the announce-on run's.  Fast-lane ops ride along so the
// barriers cut real ERB epochs.
TEST(CompactRelayRecovery, HybridForcedMissRecoversEveryBarrier) {
  using Node = HybridReplicaNode<Erc20LedgerSpec>;
  constexpr std::size_t kAccts = 4;
  constexpr std::uint64_t kSlowOps = 4;  // per replica
  const Erc20State initial(std::vector<Amount>(kAccts, 100),
                           std::vector<std::vector<Amount>>(
                               kAccts, std::vector<Amount>(kAccts, 2)));

  const auto run = [&](std::size_t subblock_ops, bool announce) {
    typename Node::Net net(4, make_net_config(FaultProfile::kNone, 13));
    HybridConfig hcfg;
    hcfg.relay_mode = RelayMode::kCompact;
    hcfg.slow_subblock_ops = subblock_ops;
    std::vector<std::unique_ptr<Node>> nodes;
    for (ProcessId p = 0; p < 4; ++p) {
      nodes.push_back(std::make_unique<Node>(
          net, p, initial, ExecOptions{.threads = 1}, hcfg));
      nodes.back()->set_announce_enabled(announce);
    }
    for (ProcessId p = 0; p < 4; ++p) {
      Node* node = nodes[p].get();
      const auto other = static_cast<ProcessId>((p + 1) % kAccts);
      for (std::uint64_t j = 0; j < kSlowOps; ++j) {
        // caller != self: consensus lane.  caller == self: fast lane.
        const auto dst = static_cast<AccountId>(j % kAccts);
        net.call_at(p, 5 + 7 * j, [node, other, dst] {
          node->submit(other, Erc20Op::transfer(dst, 1));
        });
        net.call_at(p, 8 + 7 * j, [node, p, other] {
          node->submit(p, Erc20Op::transfer(other, 1));
        });
      }
    }
    const std::vector<bool> correct(4, true);
    drain_cluster(net, nodes, correct);
    for (ProcessId p = 0; p < 4; ++p) nodes[p]->finalize();
    return nodes;
  };

  for (const std::size_t subblock_ops : {1u, 3u}) {
    const auto announced = run(subblock_ops, true);
    const auto forced = run(subblock_ops, false);
    for (ProcessId p = 0; p < 4; ++p) {
      ASSERT_TRUE(forced[p]->all_settled()) << "replica " << p;
      EXPECT_EQ(forced[p]->history(), forced[0]->history()) << "replica " << p;
      EXPECT_EQ(forced[p]->history(), announced[p]->history())
          << "replica " << p;
      EXPECT_GT(forced[p]->relay().miss_recoveries(), 0u) << "replica " << p;
      EXPECT_EQ(announced[p]->relay().miss_recoveries(), 0u)
          << "replica " << p;
      if (subblock_ops == 1) {
        // One-op sub-blocks: one slot per slow op, and every peer's slot
        // is one recovery here.
        EXPECT_EQ(forced[p]->consensus_slots(), 4 * kSlowOps);
        EXPECT_EQ(forced[p]->relay().miss_recoveries(), 3 * kSlowOps)
            << "replica " << p;
      }
    }
    EXPECT_GT(forced[0]->fast_lane_ops(), 0u);
  }
}

// The short-block fallback: a fetch whose first `fallback_after`
// requests go unanswered escalates to requesting the block's FULL id
// list, and recovery still terminates once the link comes back.
TEST(CompactRelayRecovery, ShortBlockFallbackAfterRetryBound) {
  using BOp = Erc20Ledger::BatchOp;
  using Net = SimNet<RelayMsg<BOp>>;
  Net net(2, NetConfig{.seed = 3, .min_delay = 1, .max_delay = 2});

  bool resolved = false;
  RelayEndpoint<BOp, Net> requester(
      net, 0, [&resolved] { resolved = true; });
  RelayEndpoint<BOp, Net> provider(net, 1, [] {});

  const OpId id = make_op_id(1, 0);
  provider.set_announce_enabled(false);  // store locally, tell nobody
  provider.announce({TaggedOp<BOp>{id, BOp{2, Erc20Op::transfer(3, 1)}}});

  // Black out the link until well past fallback_after (3) retries at
  // retry_delay 40: attempts at ~t=0, 40, 80, 120 all vanish.
  net.set_link_filter([](ProcessId, ProcessId, std::uint64_t now) {
    return now >= 250;
  });
  requester.fetch(/*block_id=*/77, /*proposer=*/1, {id}, {id});
  net.run();

  EXPECT_TRUE(resolved);
  ASSERT_NE(requester.find(id), nullptr);
  EXPECT_EQ(requester.find(id)->caller, 2u);
  EXPECT_GE(requester.fallbacks(), 1u);
  EXPECT_GT(requester.get_ops_sent(), 3u);
  requester.cancel(77);
  EXPECT_TRUE(requester.idle());
}

// ---------------------------------------------------------------------------
// ERB batch cuts.
// ---------------------------------------------------------------------------

// The fastlane-storm history is the canonical terminal epoch — a pure
// function of the submitted ops — so it must not move when the fast
// lane re-buckets them into batches of 2 or 8 (per-origin FIFO across
// batch boundaries, checked end to end).
TEST(ErbBatchCut, FastlaneHistoryInvariantToBatchSize) {
  ScenarioConfig cfg = base_cfg(Workload::kErc20FastlaneStorm,
                                FaultProfile::kNone);
  cfg.erb_batch = 1;
  const ScenarioReport one = run_scenario(cfg);
  ASSERT_TRUE(one.ok()) << one.summary();
  ASSERT_EQ(one.slots, 0u);

  for (const std::size_t b : {2u, 8u}) {
    cfg.erb_batch = b;
    const ScenarioReport rep = run_scenario(cfg);
    ASSERT_TRUE(rep.ok()) << "batch " << b << ": " << rep.summary();
    EXPECT_EQ(rep.slots, 0u) << "batch " << b;
    EXPECT_EQ(one.history, rep.history) << "batch " << b;
    EXPECT_EQ(one.fast_lane_ops, rep.fast_lane_ops) << "batch " << b;
    // Fewer, fatter broadcasts: batching must strictly cut messages
    // and bytes for the same committed content.
    EXPECT_LT(rep.net.sent, one.net.sent) << "batch " << b;
    EXPECT_LT(rep.net.bytes_sent, one.net.bytes_sent) << "batch " << b;
  }
}

// Direct single-node-cluster cuts: a lone op never reaches the size cut
// and must ride a deadline flush as a single-op batch; a size cut that
// empties the buffer leaves the armed deadline tick nothing to do.
TEST(ErbBatchCut, DeadlineFlushAndEmptyTick) {
  using Node = HybridReplicaNode<Erc20LedgerSpec>;
  const Erc20State initial(std::vector<Amount>(4, 100),
                           std::vector<std::vector<Amount>>(
                               4, std::vector<Amount>(4, 0)));
  typename Node::Net net(4, make_net_config(FaultProfile::kNone, 5));
  HybridConfig hcfg;
  hcfg.erb_batch = 2;
  hcfg.erb_deadline = 25;
  std::vector<std::unique_ptr<Node>> nodes;
  for (ProcessId p = 0; p < 4; ++p) {
    nodes.push_back(std::make_unique<Node>(
        net, p, initial, ExecOptions{.threads = 1}, hcfg));
  }

  // Node 0: two ops in one beat — the size cut fires on the second
  // submit, so the armed deadline tick later finds an EMPTY buffer and
  // must not broadcast a second (empty) batch.
  Node* n0 = nodes[0].get();
  net.call_at(0, 5, [n0] { n0->submit(0, Erc20Op::transfer(1, 1)); });
  net.call_at(0, 6, [n0] { n0->submit(0, Erc20Op::transfer(2, 1)); });
  // Node 1: a single op — below the size cut, so only the deadline
  // flush can broadcast it (as a single-op batch).
  Node* n1 = nodes[1].get();
  net.call_at(1, 5, [n1] { n1->submit(1, Erc20Op::transfer(0, 2)); });

  const std::vector<bool> correct(4, true);
  drain_cluster(net, nodes, correct);
  for (ProcessId p = 0; p < 4; ++p) nodes[p]->finalize();

  EXPECT_EQ(nodes[0]->fast_batches(), 1u);  // size cut only, no empty tick
  EXPECT_EQ(nodes[1]->fast_batches(), 1u);  // deadline flush, single op
  for (ProcessId p = 0; p < 4; ++p) {
    EXPECT_TRUE(nodes[p]->all_settled()) << "replica " << p;
    EXPECT_EQ(nodes[p]->history(), nodes[0]->history()) << "replica " << p;
  }
  EXPECT_EQ(nodes[0]->fast_lane_ops(), 3u);
}

// Mixed-tier runs keep every audit green at every batch size (the
// frontier is batch-granular, so the interleaving may legally differ
// between batch sizes — but each run must agree, conserve and settle,
// and stay relay-mode-invariant).
TEST(ErbBatchCut, MixedTiersAuditCleanAcrossBatchSizes) {
  for (const std::size_t b : {1u, 4u, 8u}) {
    ScenarioConfig cfg = base_cfg(Workload::kMixedSyncTiers,
                                  FaultProfile::kLossyLinks);
    cfg.erb_batch = b;
    cfg.relay_mode = RelayMode::kFull;
    const ScenarioReport full = run_scenario(cfg);
    cfg.relay_mode = RelayMode::kCompact;
    const ScenarioReport compact = run_scenario(cfg);
    ASSERT_TRUE(full.ok()) << "batch " << b << ": " << full.summary();
    ASSERT_TRUE(compact.ok()) << "batch " << b << ": " << compact.summary();
    EXPECT_EQ(full.history, compact.history) << "batch " << b;
  }
}

// ---------------------------------------------------------------------------
// TxPool identity index.
// ---------------------------------------------------------------------------

TEST(TxPoolIdentity, LookupSurvivesDrainAndDedupsResubmission) {
  Erc20TxPool pool;
  pool.set_origin(2);
  const OpId a = pool.submit(0, Erc20Op::transfer(1, 5));
  const OpId b = pool.submit(1, Erc20Op::transfer(2, 7));
  ASSERT_NE(a, b);
  EXPECT_EQ(pool.pending(), 2u);

  // Double submission of a known id is a no-op (relay idempotence).
  EXPECT_FALSE(pool.submit_tagged(a, 0, Erc20Op::transfer(1, 5)));
  EXPECT_EQ(pool.pending(), 2u);
  // A foreign id (different origin) is fresh and enqueues.
  const OpId foreign = make_op_id(3, 0);
  EXPECT_TRUE(pool.submit_tagged(foreign, 4, Erc20Op::transfer(0, 1)));
  EXPECT_EQ(pool.pending(), 3u);
  EXPECT_FALSE(pool.submit_tagged(foreign, 4, Erc20Op::transfer(0, 1)));

  const auto tagged = pool.drain_tagged(8);
  ASSERT_EQ(tagged.size(), 3u);
  EXPECT_EQ(tagged[0].id, a);
  EXPECT_EQ(pool.pending(), 0u);

  // The identity index outlives the queue: committed-block
  // reconstruction looks ops up AFTER their block was cut.
  ASSERT_NE(pool.lookup(a), nullptr);
  EXPECT_EQ(pool.lookup(a)->caller, 0u);
  ASSERT_NE(pool.lookup(foreign), nullptr);
  EXPECT_EQ(pool.lookup(foreign)->caller, 4u);
  EXPECT_EQ(pool.lookup(make_op_id(9, 9)), nullptr);
}

// ---------------------------------------------------------------------------
// Wire accounting.
// ---------------------------------------------------------------------------

TEST(WireAccounting, BytesRespectHeaderFloorAndCompactShrinks) {
  ScenarioConfig cfg = base_cfg(Workload::kErc20BlockStorm,
                                FaultProfile::kNone);
  cfg.block_max_ops = 8;
  cfg.relay_mode = RelayMode::kFull;
  const ScenarioReport full = run_scenario(cfg);
  cfg.relay_mode = RelayMode::kCompact;
  const ScenarioReport compact = run_scenario(cfg);
  ASSERT_TRUE(full.ok() && compact.ok());

  // Every message pays at least the frame/auth header.
  EXPECT_GE(full.net.bytes_sent, full.net.sent * kWireHeaderBytes);
  EXPECT_GE(compact.net.bytes_sent, compact.net.sent * kWireHeaderBytes);

  // Compact mode ships each payload ~once (announce) instead of through
  // every Paxos phase of every slot: total bytes must drop.
  EXPECT_LT(compact.net.bytes_sent, full.net.bytes_sent);

  // The per-slot proposal bytes drop at least 5x at block size 8 (the
  // acceptance bound; the id reference is ~12x smaller than 8 signed
  // ops).
  ASSERT_EQ(full.slots, compact.slots);
  EXPECT_GE(full.proposal_bytes, 5 * compact.proposal_bytes);
}

}  // namespace
}  // namespace tokensync
