// The parallel-executor acceptance suite (ISSUE 3):
//   * equivalence — executing a batch through the wave pipeline produces
//     exactly the state AND responses of the sequential specification
//     applied in submission order, for every spec in the family;
//   * determinism — the same batch yields byte-identical ledger state
//     across thread counts 1/2/8 and shard counts (the acceptance
//     criterion);
//   * escalation — state-dependent-σ ops (ERC721 approve/ownerOf) and
//     whole-state ops (totalSupply) leave the fast path but still land
//     in the right place of the order;
//   * TxPool — FIFO intake, batch boundaries, counters.
//
// The ThreadSanitizer CI job rebuilds this binary with -fsanitize=thread:
// the multi-threaded sections double as the executor's race suite.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "exec/exec_specs.h"

namespace tokensync {
namespace {

// ---------------------------------------------------------------------------
// Deterministic workload generators (pure functions of the seed).
// ---------------------------------------------------------------------------

constexpr std::size_t kAccounts = 12;

std::vector<Erc20Ledger::BatchOp> erc20_batch(std::uint64_t seed,
                                              std::size_t ops,
                                              bool with_barriers = true) {
  Rng rng(seed);
  std::vector<Erc20Ledger::BatchOp> batch;
  for (std::size_t i = 0; i < ops; ++i) {
    const auto caller = static_cast<ProcessId>(rng.below(kAccounts));
    const auto dst = static_cast<AccountId>(rng.below(kAccounts));
    switch (rng.below(with_barriers ? 10 : 9)) {
      case 0:
        batch.push_back({caller, Erc20Op::approve(
                                     static_cast<ProcessId>(dst), 5)});
        break;
      case 1:
        batch.push_back(
            {caller, Erc20Op::transfer_from(
                         static_cast<AccountId>(rng.below(kAccounts)), dst,
                         1 + rng.below(3))});
        break;
      case 2:
        batch.push_back({caller, Erc20Op::balance_of(dst)});
        break;
      case 9:  // barrier: σ = all
        batch.push_back({caller, Erc20Op::total_supply()});
        break;
      default:
        batch.push_back({caller, Erc20Op::transfer(dst, 1 + rng.below(4))});
    }
  }
  return batch;
}

std::vector<Erc721Ledger::BatchOp> erc721_batch(std::uint64_t seed,
                                                std::size_t ops,
                                                std::size_t tokens) {
  Rng rng(seed);
  std::vector<Erc721Ledger::BatchOp> batch;
  for (std::size_t i = 0; i < ops; ++i) {
    const auto caller = static_cast<ProcessId>(rng.below(kAccounts));
    const auto tok = static_cast<TokenId>(rng.below(tokens));
    switch (rng.below(8)) {
      case 0:  // escalates: state-dependent σ
        batch.push_back({caller, Erc721Op::approve(
                                     static_cast<ProcessId>(
                                         rng.below(kAccounts)),
                                     tok)});
        break;
      case 1:  // escalates
        batch.push_back({caller, Erc721Op::owner_of(tok)});
        break;
      case 2:
        batch.push_back({caller, Erc721Op::set_approval_for_all(
                                     static_cast<ProcessId>(
                                         rng.below(kAccounts)),
                                     rng.chance(1, 2))});
        break;
      default:  // fast path: σ = {src, dst} from the arguments
        batch.push_back(
            {caller, Erc721Op::transfer_from(
                         static_cast<AccountId>(caller),
                         static_cast<AccountId>(rng.below(kAccounts)),
                         tok)});
    }
  }
  return batch;
}

std::vector<Erc777Ledger::BatchOp> erc777_batch(std::uint64_t seed,
                                                std::size_t ops) {
  Rng rng(seed);
  std::vector<Erc777Ledger::BatchOp> batch;
  for (std::size_t i = 0; i < ops; ++i) {
    const auto caller = static_cast<ProcessId>(rng.below(kAccounts));
    const auto dst = static_cast<AccountId>(rng.below(kAccounts));
    switch (rng.below(8)) {
      case 0:
        batch.push_back({caller, Erc777Op::authorize_operator(
                                     static_cast<ProcessId>(dst))});
        break;
      case 1:
        batch.push_back(
            {caller, Erc777Op::operator_send(
                         static_cast<AccountId>(rng.below(kAccounts)), dst,
                         1 + rng.below(3))});
        break;
      default:
        batch.push_back({caller, Erc777Op::send(dst, 1 + rng.below(4))});
    }
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Sequential references: the batch folded through the PURE spec.
// ---------------------------------------------------------------------------

template <typename SeqSpec, typename BatchOp>
std::pair<typename SeqSpec::State, std::vector<Response>> sequential_run(
    typename SeqSpec::State q, const std::vector<BatchOp>& batch) {
  std::vector<Response> rs;
  rs.reserve(batch.size());
  for (const auto& b : batch) {
    auto [resp, next] = SeqSpec::apply(q, b.caller, b.op);
    rs.push_back(resp);
    q = std::move(next);
  }
  return {std::move(q), std::move(rs)};
}

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

Erc777State erc777_initial() {
  Erc777State q(kAccounts, 0, 0);
  for (AccountId a = 0; a < kAccounts; ++a) q.set_balance(a, 100);
  q.set_operator(0, 1, true);
  q.set_operator(2, 3, true);
  return q;
}

// ---------------------------------------------------------------------------
// Equivalence: executor == sequential spec, state and responses.
// ---------------------------------------------------------------------------

template <typename LedgerSpec>
void expect_equivalent(const typename LedgerSpec::SeqState& initial,
                       const std::vector<typename ConcurrentLedger<
                           LedgerSpec>::BatchOp>& batch,
                       ExecOptions opts, std::size_t shards) {
  const auto [seq_state, seq_responses] =
      sequential_run<typename LedgerSpec::SeqSpec>(initial, batch);
  ConcurrentLedger<LedgerSpec> ledger(initial, /*validation_spin=*/0, shards);
  ParallelExecutor<LedgerSpec> exec(ledger, opts);
  const ExecReport rep = exec.execute(batch);
  EXPECT_EQ(ledger.snapshot(), seq_state)
      << "threads=" << opts.threads << " shards=" << shards << " "
      << rep.summary();
  EXPECT_EQ(rep.responses, seq_responses);
}

TEST(ExecEquivalence, Erc20MatchesSequentialSpec) {
  const auto batch = erc20_batch(/*seed=*/11, /*ops=*/300);
  for (const std::size_t threads : {1, 2, 4}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}, kAccounts}) {
      expect_equivalent<Erc20LedgerSpec>(erc20_initial(), batch,
                                         {.threads = threads}, shards);
    }
  }
}

TEST(ExecEquivalence, Erc721MatchesSequentialSpec) {
  const auto batch = erc721_batch(/*seed=*/13, /*ops=*/300, /*tokens=*/36);
  for (const std::size_t threads : {1, 2, 4}) {
    expect_equivalent<Erc721LedgerSpec>(erc721_initial(36), batch,
                                        {.threads = threads}, kAccounts);
  }
}

TEST(ExecEquivalence, Erc777MatchesSequentialSpec) {
  const auto batch = erc777_batch(/*seed=*/17, /*ops=*/300);
  for (const std::size_t threads : {1, 2, 4}) {
    expect_equivalent<Erc777LedgerSpec>(erc777_initial(), batch,
                                        {.threads = threads}, 4);
  }
}

// ---------------------------------------------------------------------------
// Determinism across thread counts — the acceptance criterion: same
// batch ⇒ byte-identical ledger state for threads ∈ {1, 2, 8}.
// ---------------------------------------------------------------------------

template <typename LedgerSpec>
void expect_thread_count_invariant(
    const typename LedgerSpec::SeqState& initial,
    const std::vector<typename ConcurrentLedger<LedgerSpec>::BatchOp>& batch) {
  std::vector<typename LedgerSpec::SeqState> finals;
  std::vector<std::vector<Response>> responses;
  for (const std::size_t threads : {1, 2, 8}) {
    ConcurrentLedger<LedgerSpec> ledger(initial, 0, /*num_shards=*/0);
    ParallelExecutor<LedgerSpec> exec(ledger, {.threads = threads});
    responses.push_back(exec.execute(batch).responses);
    finals.push_back(ledger.snapshot());
  }
  // Value equality of the full sequential state (every balance/owner/
  // allowance byte) and of every response.
  EXPECT_EQ(finals[0], finals[1]);
  EXPECT_EQ(finals[0], finals[2]);
  EXPECT_EQ(responses[0], responses[1]);
  EXPECT_EQ(responses[0], responses[2]);
}

TEST(ExecDeterminism, Erc20ByteIdenticalAcrossThreads1_2_8) {
  expect_thread_count_invariant<Erc20LedgerSpec>(
      erc20_initial(), erc20_batch(23, 400));
}

TEST(ExecDeterminism, Erc721ByteIdenticalAcrossThreads1_2_8) {
  expect_thread_count_invariant<Erc721LedgerSpec>(
      erc721_initial(36), erc721_batch(29, 400, 36));
}

TEST(ExecDeterminism, Erc777ByteIdenticalAcrossThreads1_2_8) {
  expect_thread_count_invariant<Erc777LedgerSpec>(
      erc777_initial(), erc777_batch(31, 400));
}

TEST(ExecDeterminism, RepeatedRunsAreIdentical) {
  const auto batch = erc20_batch(41, 300);
  ConcurrentLedger<Erc20LedgerSpec> a(erc20_initial(), 0, 0);
  ConcurrentLedger<Erc20LedgerSpec> b(erc20_initial(), 0, 0);
  ParallelExecutor<Erc20LedgerSpec> ea(a, {.threads = 8});
  ParallelExecutor<Erc20LedgerSpec> eb(b, {.threads = 8});
  const auto ra = ea.execute(batch);
  const auto rb = eb.execute(batch);
  EXPECT_EQ(a.snapshot().to_string(), b.snapshot().to_string());
  EXPECT_EQ(ra.schedule.wave, rb.schedule.wave);
}

// ---------------------------------------------------------------------------
// Escalation and schedule shape.
// ---------------------------------------------------------------------------

TEST(ExecEscalation, Erc721StateDependentOpsLeaveTheFastPath) {
  ConcurrentLedger<Erc721LedgerSpec> ledger(erc721_initial(24), 0, 0);
  std::vector<Erc721Ledger::BatchOp> batch;
  batch.push_back({0, Erc721Op::transfer_from(0, 1, 0)});
  batch.push_back({2, Erc721Op::approve(3, 12)});   // escalates
  batch.push_back({4, Erc721Op::owner_of(5)});      // escalates
  batch.push_back({6, Erc721Op::transfer_from(6, 7, 6)});
  const auto s = ConflictPlanner<Erc721LedgerSpec>::plan(ledger, batch);
  EXPECT_EQ(s.escalated, 2u);
  // The two escalated ops sit alone in their waves.
  const auto waves = s.grouped();
  EXPECT_EQ(waves[s.wave[1]].size(), 1u);
  EXPECT_EQ(waves[s.wave[2]].size(), 1u);
}

TEST(ExecEscalation, Erc20TotalSupplyIsABarrier) {
  ConcurrentLedger<Erc20LedgerSpec> ledger(erc20_initial(), 0, 0);
  std::vector<Erc20Ledger::BatchOp> batch;
  batch.push_back({0, Erc20Op::transfer(1, 5)});
  batch.push_back({2, Erc20Op::transfer(3, 5)});
  batch.push_back({4, Erc20Op::total_supply()});
  batch.push_back({5, Erc20Op::transfer(6, 5)});
  const auto s = ConflictPlanner<Erc20LedgerSpec>::plan(ledger, batch);
  EXPECT_EQ(s.wave[0], 0u);
  EXPECT_EQ(s.wave[1], 0u);
  EXPECT_EQ(s.wave[2], 1u);
  EXPECT_EQ(s.wave[3], 2u);
  EXPECT_EQ(s.escalated, 1u);
  // The barrier read observes every prior transfer: supply is conserved
  // and the response equals the sequential one (checked by equivalence
  // tests; here just run it).
  ParallelExecutor<Erc20LedgerSpec> exec(ledger, {.threads = 2});
  const auto rep = exec.execute(batch);
  EXPECT_EQ(rep.responses[2], Response::number(100 * kAccounts));
}

TEST(ExecSchedule, CommutingStormIsOneWavePerConflictChain) {
  // Pairwise-disjoint transfers: one wave, full parallelism.
  std::vector<Erc20Ledger::BatchOp> batch;
  for (ProcessId p = 0; p + 1 < kAccounts; p += 2) {
    batch.push_back({p, Erc20Op::transfer(p + 1, 1)});
  }
  ConcurrentLedger<Erc20LedgerSpec> ledger(erc20_initial(), 0, 0);
  const auto s = ConflictPlanner<Erc20LedgerSpec>::plan(ledger, batch);
  EXPECT_EQ(s.num_waves, 1u);
  EXPECT_DOUBLE_EQ(s.parallelism(), static_cast<double>(batch.size()));
}

// ---------------------------------------------------------------------------
// Conservation under the parallel path.
// ---------------------------------------------------------------------------

TEST(ExecConservation, SupplyConservedForEverySpecAtEveryThreadCount) {
  for (const std::size_t threads : {1, 2, 8}) {
    {
      ConcurrentLedger<Erc20LedgerSpec> l(erc20_initial(), 0, 0);
      ParallelExecutor<Erc20LedgerSpec> e(l, {.threads = threads});
      e.execute(erc20_batch(43, 500));
      EXPECT_EQ(l.weak_sum(), 100u * kAccounts);
    }
    {
      ConcurrentLedger<Erc721LedgerSpec> l(erc721_initial(24), 0, 0);
      ParallelExecutor<Erc721LedgerSpec> e(l, {.threads = threads});
      e.execute(erc721_batch(47, 500, 24));
      EXPECT_EQ(l.weak_sum(), 24u);  // every token still has one owner
    }
    {
      ConcurrentLedger<Erc777LedgerSpec> l(erc777_initial(), 0, 0);
      ParallelExecutor<Erc777LedgerSpec> e(l, {.threads = threads});
      e.execute(erc777_batch(53, 500));
      EXPECT_EQ(l.weak_sum(), 100u * kAccounts);
    }
  }
}

// ---------------------------------------------------------------------------
// TxPool.
// ---------------------------------------------------------------------------

TEST(TxPool, FifoDrainWithBatchBoundaries) {
  Erc20TxPool pool;
  for (Amount v = 1; v <= 5; ++v) {
    pool.submit(static_cast<ProcessId>(v % kAccounts),
                Erc20Op::transfer(0, v));
  }
  EXPECT_EQ(pool.pending(), 5u);
  const auto first = pool.drain(3);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].op.value, 1u);
  EXPECT_EQ(first[2].op.value, 3u);
  const auto rest = pool.drain();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].op.value, 4u);
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(pool.submitted(), 5u);
  EXPECT_EQ(pool.drained(), 5u);
  EXPECT_TRUE(pool.drain().empty());
}

TEST(TxPool, DrainExecuteLoopMatchesOneShotExecution) {
  // Batch-at-a-time through the pool == the whole script in one batch:
  // the pipeline respects submission order across batch boundaries.
  const auto script = erc20_batch(59, 240, /*with_barriers=*/false);
  ConcurrentLedger<Erc20LedgerSpec> pooled(erc20_initial(), 0, 0);
  ConcurrentLedger<Erc20LedgerSpec> oneshot(erc20_initial(), 0, 0);
  ParallelExecutor<Erc20LedgerSpec> pe(pooled, {.threads = 4});
  ParallelExecutor<Erc20LedgerSpec> oe(oneshot, {.threads = 4});

  Erc20TxPool pool;
  for (const auto& b : script) pool.submit(b.caller, b.op);
  while (pool.pending() > 0) pe.execute(pool.drain(/*max_ops=*/50));
  oe.execute(script);
  EXPECT_EQ(pooled.snapshot(), oneshot.snapshot());
}

}  // namespace
}  // namespace tokensync
