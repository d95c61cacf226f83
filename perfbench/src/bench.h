// Shared types of the perfbench driver: options, metrics, the in-memory
// span recorder, and the per-workload input shape the layer probes are
// fed with.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "atomic/ledger_specs.h"
#include "exec/block.h"
#include "sched/scenario.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny instances and a single measured round: the smoke mode that
  /// checks the output surface, not the numbers.
  bool smoke = false;
  std::string source;     ///< commit / source-tree identity for provenance
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Median of `v` (0 for an empty sample).
double median(std::vector<double> v);
/// The q-quantile of `v` by nearest rank (0 for an empty sample).
double quantile(std::vector<double> v, double q);

/// In-memory span recorder.  Spans are recorded only by the benchmark's
/// own code, around calls into the library's public functions; they are
/// written out as Chrome trace-event JSON when the benchmark ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 at the root
    std::uint32_t run;    ///< which measured run (instance / pass) it serves
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  std::int32_t open(const char* name, std::uint32_t run) {
    if (!enabled_) return -1;
    const auto idx = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0,
                          stack_.empty() ? -1 : stack_.back(), run});
    stack_.push_back(idx);
    return idx;
  }

  void close(std::int32_t idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes every span as a Chrome trace-event ("X" complete event).
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - t0_)
        .count();
  }

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op when the tracer is disabled.
class SpanGuard {
 public:
  SpanGuard(Tracer& t, const char* name, std::uint32_t run = 0)
      : t_(t), idx_(t.open(name, run)) {}
  ~SpanGuard() { t_.close(idx_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer& t_;
  std::int32_t idx_;
};

/// What one workload feeds each layer probe: its cluster size and fault
/// profile, its mean message and consensus-value sizes, the shape of its
/// committed block stream, one rendered history, and how many calls per
/// client op each layer receives (for the layer digest).  A client op is
/// a committed op, except on erc20_zipfian_shards, where it is a client
/// transfer and the committed log also holds its 2PC stages.
struct Shape {
  std::size_t nodes = 4;
  tokensync::FaultProfile fault = tokensync::FaultProfile::kNone;
  std::uint64_t seed = 1;
  std::size_t msg_bytes = 128;    ///< mean wire bytes per message
  std::size_t value_bytes = 128;  ///< mean consensus-value bytes per slot

  // Block stream (ERC20 transfers plus rare totalSupply barriers).
  std::size_t accounts = 16;
  std::size_t hot_accounts = 0;  ///< 0: every transfer draws from all accounts
  unsigned hot_pct = 0;          ///< share of transfers inside the hot set
  unsigned supply_per_mille = 0; ///< totalSupply barriers per 1000 ops
  std::size_t block_ops = 8;     ///< mean ops per committed block
  std::size_t replay_threads = 1;

  std::string history;     ///< one committed history as the audit renders it
  double history_ops = 1;  ///< client ops behind `history`

  // Calls per client op, as the workload's own run reports them.
  double sends_per_op = 0;       ///< SimNet::send
  double deliveries_per_op = 0;  ///< SimNet::step delivering a message
  double slots_per_op = 0;       ///< consensus slots (TOB over Paxos)
  double bcasts_per_op = 0;      ///< ERB fast-lane broadcasts
  double replays_per_op = 0;     ///< log entries replayed, over all replicas
  double submits_per_op = 0;     ///< TxPool intakes
};

using Erc20Block = tokensync::Block<tokensync::Erc20LedgerSpec>;

/// The ERC20 state every block stream starts from: `accounts` accounts,
/// each with a balance large enough that no transfer of a stream (or of
/// its inverse) can fail, and no allowances.
tokensync::Erc20State stream_initial_state(std::size_t accounts);

/// A seeded ERC20 block stream of `shape`'s account space, conflict mix
/// and block size; block sizes vary uniformly by ±`jitter` ops.
std::vector<Erc20Block> make_blocks(const Shape& shape, std::size_t num_blocks,
                                    std::uint64_t seed, std::size_t jitter);

/// The stream that undoes `blocks`: blocks and ops in reverse order, each
/// transfer sent back.  Applying a stream and then its inverse returns
/// every balance to where it started.
std::vector<Erc20Block> invert(const std::vector<Erc20Block>& blocks);

/// What the layer probes measured.
struct Layers {
  std::vector<Metric> metrics;  ///< the names BENCHMARK.json lists
  /// ThreadPool::run handshakes per replayed op: the block stream's waves
  /// of more than one op (single-op waves run inline).
  double pool_runs_per_op = 0;
};

/// Runs every layer probe on `shape` within roughly `budget_s` seconds.
Layers probe_layers(const Shape& shape, Tracer& tracer, double budget_s,
                    bool smoke);

/// The layer digest: each layer's ns per call × calls per op next to
/// 1e9 / ops_per_s, and the unexplained remainder.  One line.
std::string layer_digest(const std::string& workload, const Shape& shape,
                         const Layers& layers, double ops_per_s);

/// Everything one workload run reports.
struct Result {
  std::vector<Metric> metrics;  ///< e2e (trace off) or per-layer (trace on)
  std::vector<Metric> extra;    ///< printed, not in the JSON result
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;  ///< provenance, digest, layer digest
};

/// Number of CPUs this process may run on (what `nproc` prints).
std::size_t nproc();

/// Names of the workloads.
const std::vector<std::string>& workload_names();

/// Runs one workload under `opts`.  Throws std::invalid_argument for an
/// unknown name.
Result run_workload(const std::string& name, const Options& opts,
                    Tracer& tracer);

}  // namespace perfbench
