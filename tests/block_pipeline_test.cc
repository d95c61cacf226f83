// The block-pipeline acceptance suite (ISSUE 4):
//   * block formation edge cases — empty pool at a deadline cut (no
//     block), single-op blocks, size-cut boundaries;
//   * replay edge cases — the empty block, the single-op block, the
//     escalation-only block (every op a singleton barrier wave);
//   * replicated determinism across PARALLELISM — for each block
//     workload × fault profile, the same seed and BlockConfig produce
//     byte-identical committed histories on replicas replaying with 1,
//     2 and 8 worker threads (the acceptance criterion);
//   * fault atomicity — blocks survive drop/duplication/partition-heal/
//     minority-crash: a block commits atomically or not at all, and
//     duplicated delivery never double-applies (committed == submitted
//     under lossy_dup).
//
// The ThreadSanitizer CI job rebuilds this binary too: the replicated
// replay sections run real thread pools inside every replica.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/cutter.h"
#include "exec/exec_specs.h"
#include "net/block_replica.h"
#include "objects/erc721.h"
#include "sched/scenario.h"

namespace tokensync {
namespace {

constexpr std::size_t kAccounts = 12;

Erc20State erc20_initial() {
  return Erc20State(std::vector<Amount>(kAccounts, 100),
                    std::vector<std::vector<Amount>>(
                        kAccounts, std::vector<Amount>(kAccounts, 3)));
}

Erc721State erc721_initial(std::size_t tokens) {
  std::vector<AccountId> owners(tokens);
  for (std::size_t t = 0; t < tokens; ++t) {
    owners[t] = static_cast<AccountId>(t % kAccounts);
  }
  return Erc721State(kAccounts, owners);
}

// ---------------------------------------------------------------------------
// Cutter: the size/deadline cut rule every intake lane shares.
// ---------------------------------------------------------------------------

TEST(Cutter, EmptyPoolDeadlineCutYieldsNoBlock) {
  Erc20TxPool pool;
  Cutter<Erc20LedgerSpec> cutter(pool, /*max_ops=*/4);
  EXPECT_TRUE(cutter.cut().empty());
  EXPECT_TRUE(cutter.cut_if_full().empty());
  EXPECT_EQ(cutter.cuts(), 0u);
  EXPECT_EQ(cutter.empty_cuts(), 1u);  // only cut() counts an empty tick
}

TEST(Cutter, SizeCutFiresExactlyAtMaxOps) {
  Erc20TxPool pool;
  Cutter<Erc20LedgerSpec> cutter(pool, /*max_ops=*/3);
  pool.submit(0, Erc20Op::transfer(1, 1));
  pool.submit(0, Erc20Op::transfer(2, 1));
  EXPECT_TRUE(cutter.cut_if_full().empty());  // partial fills wait
  pool.submit(0, Erc20Op::transfer(3, 1));
  const auto b = cutter.cut_if_full();
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(pool.pending(), 0u);
  // Ops keep pool submission order.
  EXPECT_EQ(b[0].op.op.dst, 1u);
  EXPECT_EQ(b[2].op.op.dst, 3u);
}

TEST(Cutter, DeadlineCutFlushesAPartialFill) {
  Erc20TxPool pool;
  Cutter<Erc20LedgerSpec> cutter(pool, /*max_ops=*/8);
  pool.submit(5, Erc20Op::transfer(6, 2));
  const auto b = cutter.cut();  // single-op block
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0].op.caller, 5u);
  EXPECT_EQ(cutter.cuts(), 1u);
  EXPECT_TRUE(cutter.cut().empty());
}

TEST(Cutter, DeadlineCutIsBoundedByMaxOps) {
  Erc20TxPool pool;
  Cutter<Erc20LedgerSpec> cutter(pool, /*max_ops=*/4);
  for (Amount v = 1; v <= 6; ++v) pool.submit(0, Erc20Op::transfer(1, v));
  const auto first = cutter.cut();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.size(), 4u);
  const auto second = cutter.cut();
  ASSERT_FALSE(second.empty());
  EXPECT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].op.op.value, 5u);
}

// ---------------------------------------------------------------------------
// ReplayEngine: edge-case blocks and thread-count invariance.
// ---------------------------------------------------------------------------

TEST(ReplayEngine, EmptyBlockIsANoOp) {
  ReplayEngine<Erc20LedgerSpec> engine(erc20_initial(), {.threads = 2});
  EXPECT_EQ(engine.apply(Block<Erc20LedgerSpec>{}), "block[0]");
  EXPECT_EQ(engine.ops_applied(), 0u);
  EXPECT_EQ(engine.ledger().snapshot(), erc20_initial());
}

TEST(ReplayEngine, SingleOpBlockMatchesSequentialSpec) {
  for (const std::size_t threads : {1, 2, 8}) {
    ReplayEngine<Erc20LedgerSpec> engine(erc20_initial(),
                                         {.threads = threads});
    Block<Erc20LedgerSpec> b;
    b.ops.push_back({0, Erc20Op::transfer(1, 7)});
    const std::string line = engine.apply(b);
    EXPECT_EQ(line, "block[1] p0 " + Erc20Op::transfer(1, 7).to_string() +
                        " -> TRUE {waves=1 esc=0}");
    auto [resp, seq] =
        Erc20Spec::apply(erc20_initial(), 0, Erc20Op::transfer(1, 7));
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(engine.ledger().snapshot(), seq);
  }
}

TEST(ReplayEngine, EscalationOnlyBlockIsAllBarrierWaves) {
  // Every op state-dependent-σ (ERC721 approve/ownerOf): the planner
  // must serialize the whole block as singleton barrier waves, and the
  // outcome must still be thread-count-invariant.
  Block<Erc721LedgerSpec> b;
  b.ops.push_back({0, Erc721Op::approve(3, 0)});
  b.ops.push_back({1, Erc721Op::owner_of(5)});
  b.ops.push_back({2, Erc721Op::approve(4, 2)});
  b.ops.push_back({3, Erc721Op::owner_of(7)});

  std::vector<std::string> lines;
  std::vector<Erc721State> finals;
  for (const std::size_t threads : {1, 2, 8}) {
    ReplayEngine<Erc721LedgerSpec> engine(erc721_initial(12),
                                          {.threads = threads});
    lines.push_back(engine.apply(b));
    finals.push_back(engine.ledger().snapshot());
    EXPECT_EQ(engine.waves_total(), b.size());      // one wave per op
    EXPECT_EQ(engine.escalated_total(), b.size());  // all escalated
  }
  EXPECT_EQ(lines[0], lines[1]);
  EXPECT_EQ(lines[0], lines[2]);
  EXPECT_NE(lines[0].find("{waves=4 esc=4}"), std::string::npos);
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_EQ(finals[0], finals[2]);
}

TEST(ReplayEngine, HistoryLinesByteIdenticalAcrossThreadCounts) {
  // A mixed multi-block stream: concatenated lines and final state must
  // not depend on the worker count (the per-replica half of the
  // replicated determinism criterion).
  Rng rng(71);
  std::vector<Block<Erc20LedgerSpec>> blocks;
  for (int k = 0; k < 12; ++k) {
    Block<Erc20LedgerSpec> b;
    const std::size_t n = 1 + rng.below(9);
    for (std::size_t i = 0; i < n; ++i) {
      const auto caller = static_cast<ProcessId>(rng.below(kAccounts));
      const auto dst = static_cast<AccountId>(rng.below(kAccounts));
      if (rng.below(20) == 0) {
        b.ops.push_back({caller, Erc20Op::total_supply()});
      } else {
        b.ops.push_back({caller, Erc20Op::transfer(dst, 1 + rng.below(3))});
      }
    }
    blocks.push_back(std::move(b));
  }
  std::vector<std::string> histories;
  std::vector<Erc20State> finals;
  for (const std::size_t threads : {1, 2, 8}) {
    ReplayEngine<Erc20LedgerSpec> engine(erc20_initial(),
                                         {.threads = threads});
    std::string h;
    for (const auto& b : blocks) h += engine.apply(b) + "\n";
    histories.push_back(std::move(h));
    finals.push_back(engine.ledger().snapshot());
  }
  EXPECT_EQ(histories[0], histories[1]);
  EXPECT_EQ(histories[0], histories[2]);
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_EQ(finals[0], finals[2]);
}

// ---------------------------------------------------------------------------
// Replicated block scenarios: fault matrix + determinism across replay
// parallelism (the ISSUE 4 acceptance criterion).
// ---------------------------------------------------------------------------

ScenarioConfig block_cfg(Workload w, FaultProfile f,
                         std::size_t replay_threads = 1,
                         std::uint64_t seed = 7) {
  ScenarioConfig c;
  c.workload = w;
  c.fault = f;
  c.seed = seed;
  c.num_replicas = 4;
  c.intensity = 4;
  c.replay_threads = replay_threads;
  return c;
}

void expect_ok(const ScenarioReport& rep) {
  EXPECT_TRUE(rep.agreement) << rep.summary();
  EXPECT_TRUE(rep.conservation) << rep.summary();
  EXPECT_TRUE(rep.settled) << rep.summary();
  for (const std::string& v : rep.violations) ADD_FAILURE() << v;
  EXPECT_GT(rep.committed, 0u);
  EXPECT_GT(rep.slots, 0u);
  EXPECT_LE(rep.slots, rep.committed);  // blocks amortize, never inflate
}

TEST(BlockScenario, StormSurvivesEveryFaultProfile) {
  for (FaultProfile f : all_fault_profiles()) {
    expect_ok(run_scenario(block_cfg(Workload::kErc20BlockStorm, f)));
  }
}

TEST(BlockScenario, MixedEscalateSurvivesEveryFaultProfile) {
  for (FaultProfile f : all_fault_profiles()) {
    expect_ok(run_scenario(block_cfg(Workload::kMixedBlockEscalate, f)));
  }
}

TEST(BlockScenario, DuplicatedDeliveryNeverDoubleApplies) {
  // Under lossy_dup every correct replica still commits each submitted
  // op EXACTLY once: duplicated kDecide deliveries for a block's slot
  // are absorbed by the broadcast's dedup, so committed == submitted.
  const auto rep = run_scenario(
      block_cfg(Workload::kErc20BlockStorm, FaultProfile::kLossyDup));
  expect_ok(rep);
  EXPECT_EQ(rep.committed, rep.submitted);
}

TEST(BlockScenario, BlocksActuallyBatch) {
  // With the default size-8 cut, the storm needs strictly fewer
  // consensus slots than ops — the amortization the pipeline exists for.
  const auto rep = run_scenario(
      block_cfg(Workload::kErc20BlockStorm, FaultProfile::kNone));
  expect_ok(rep);
  EXPECT_LT(rep.slots, rep.committed);
}

TEST(BlockScenario, ZeroMaxOpsCutsLikeOne) {
  // block_max_ops = 0 is clamped to 1 by the shared cut rule: no empty
  // blocks, every op commits, and the run is the size-1 run exactly.
  auto c = block_cfg(Workload::kErc20BlockStorm, FaultProfile::kNone);
  c.block_max_ops = 0;
  const auto zero = run_scenario(c);
  c.block_max_ops = 1;
  const auto one = run_scenario(c);
  EXPECT_TRUE(zero.ok()) << zero.summary();
  expect_ok(zero);
  EXPECT_EQ(zero.committed, zero.submitted);
  EXPECT_EQ(zero.history, one.history);
}

TEST(BlockScenario, PipelineWindowTwoStaysCorrect) {
  // TOB pipelining (window = 2): blocks from one replica may commit out
  // of cut order, but every audit still holds and the run is still a
  // pure function of the seed.
  auto c = block_cfg(Workload::kErc20BlockStorm, FaultProfile::kLossyLinks);
  c.block_window = 2;
  const auto a = run_scenario(c);
  const auto b = run_scenario(c);
  expect_ok(a);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.net.sent, b.net.sent);
}

TEST(BlockDeterminism, SameSeedSameBytes) {
  for (Workload w :
       {Workload::kErc20BlockStorm, Workload::kMixedBlockEscalate}) {
    const auto c = block_cfg(w, FaultProfile::kPartitionHeal);
    const auto a = run_scenario(c);
    const auto b = run_scenario(c);
    expect_ok(a);
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.history_digest, b.history_digest);
    EXPECT_EQ(a.sim_time, b.sim_time);
    EXPECT_EQ(a.net.sent, b.net.sent);
    EXPECT_EQ(a.net.dropped, b.net.dropped);
  }
}

TEST(BlockDeterminism, ByteIdenticalAcrossReplayThreads1_2_8) {
  // THE acceptance criterion: for each block workload × fault profile,
  // same seed + same BlockConfig ⇒ byte-identical committed histories
  // whether each replica replays blocks with 1, 2 or 8 worker threads.
  for (Workload w :
       {Workload::kErc20BlockStorm, Workload::kMixedBlockEscalate}) {
    for (FaultProfile f : all_fault_profiles()) {
      const auto ref = run_scenario(block_cfg(w, f, /*replay_threads=*/1));
      expect_ok(ref);
      for (const std::size_t threads : {2, 8}) {
        const auto rep = run_scenario(block_cfg(w, f, threads));
        EXPECT_EQ(rep.history, ref.history)
            << to_string(w) << "/" << to_string(f) << " threads=" << threads;
        EXPECT_EQ(rep.history_digest, ref.history_digest);
        EXPECT_EQ(rep.committed, ref.committed);
        EXPECT_EQ(rep.slots, ref.slots);
        // Replay happens inside the replicas; the network cannot see the
        // worker count either.
        EXPECT_EQ(rep.net.sent, ref.net.sent);
        EXPECT_EQ(rep.sim_time, ref.sim_time);
      }
    }
  }
}

}  // namespace
}  // namespace tokensync
