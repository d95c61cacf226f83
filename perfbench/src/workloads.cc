// The four benchmark workloads.  Three run whole replicated clusters
// through the public run_scenario(); replay_parallel drives one
// ReplayEngine on a seeded block stream.  Every measured run is audited
// and counted; none is dropped.
#include <sched.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "exec/exec_specs.h"
#include "exec/replay_engine.h"

namespace perfbench {

using namespace tokensync;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(rank, v.size() - 1)];
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
  }
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

Erc20State stream_initial_state(std::size_t accounts) {
  return Erc20State(std::vector<Amount>(accounts, Amount{1} << 30),
                    std::vector<std::vector<Amount>>(
                        accounts, std::vector<Amount>(accounts, 0)));
}

std::vector<Erc20Block> make_blocks(const Shape& shape, std::size_t num_blocks,
                                    std::uint64_t seed, std::size_t jitter) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  const std::size_t hot = std::min(shape.hot_accounts, shape.accounts / 2);
  const auto pick_pair = [&](std::size_t lo, std::size_t hi) {
    const auto src = static_cast<ProcessId>(lo + rng.below(hi - lo));
    auto dst = static_cast<AccountId>(lo + rng.below(hi - lo - 1));
    if (dst >= src) ++dst;  // never a self-transfer
    return std::pair{src, dst};
  };
  std::vector<Erc20Block> blocks(num_blocks);
  for (Erc20Block& b : blocks) {
    const std::size_t lo = shape.block_ops > jitter ? shape.block_ops - jitter : 1;
    const std::size_t size = lo + rng.below(shape.block_ops + jitter - lo + 1);
    b.ops.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      if (rng.below(1000) < shape.supply_per_mille) {
        b.ops.push_back({static_cast<ProcessId>(rng.below(shape.accounts)),
                         Erc20Op::total_supply()});
        continue;
      }
      const bool in_hot = hot >= 2 && rng.below(100) < shape.hot_pct;
      const auto [src, dst] = in_hot ? pick_pair(0, hot)
                                     : pick_pair(hot, shape.accounts);
      b.ops.push_back({src, Erc20Op::transfer(dst, 1 + rng.below(3))});
    }
  }
  return blocks;
}

std::vector<Erc20Block> invert(const std::vector<Erc20Block>& blocks) {
  std::vector<Erc20Block> inv(blocks.rbegin(), blocks.rend());
  for (Erc20Block& b : inv) {
    std::reverse(b.ops.begin(), b.ops.end());
    for (auto& op : b.ops) {
      if (op.op.kind != Erc20Op::Kind::kTransfer) continue;
      const auto back = static_cast<AccountId>(op.caller);
      op.caller = static_cast<ProcessId>(op.op.dst);
      op.op = Erc20Op::transfer(back, op.op.value);
    }
  }
  return inv;
}

namespace {

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so it would report
/// the launching interpreter's peak when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a over the 8 bytes of `v`, continuing from `d`.
std::uint64_t fold(std::uint64_t d, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    d ^= (v >> (8 * i)) & 0xff;
    d *= 1099511628211ull;
  }
  return d;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// replay_parallel repeats its setup at least kMinSetupRepeats times and
/// for at least kSetupShare of --seconds; setup_s takes it at the
/// kFastQuantile of its repeats (FastRate::seconds).
constexpr int kMinSetupRepeats = 5;
constexpr double kSetupShare = 0.15;
/// Share of --seconds the traced pass spends on e2e rounds; the rest
/// goes to the layer probes.
constexpr double kTracedE2eShare = 0.4;
/// Cap on audit-failure lines printed per workload (all are counted).
constexpr std::size_t kMaxFailureNotes = 5;
/// Each unit's time is taken at this quantile of its samples (FastRate).
constexpr double kFastQuantile = 0.05;

/// Repeated timings of fixed units of work (a scenario instance, one
/// replay pass, one setup).  Interference from a shared host only ever
/// slows a unit down, and it comes and goes within a run; so each unit's
/// time is the kFastQuantile of its samples.  seconds() is the sum of
/// those times and ops_per_s() the units' ops over it.  describe() also
/// gives the rate at each unit's median time, for comparison.
class FastRate {
 public:
  explicit FastRate(std::size_t units) : ops_(units, 0), times_(units) {}

  void add(std::size_t unit, double ops, double seconds) {
    ops_[unit] = ops;
    times_[unit].push_back(seconds);
  }

  double seconds(double q = kFastQuantile) const {
    double secs = 0;
    for (const auto& t : times_) {
      if (!t.empty()) secs += quantile(t, q);
    }
    return secs;
  }

  double ops_per_s(double q = kFastQuantile) const {
    double ops = 0;
    for (std::size_t u = 0; u < ops_.size(); ++u) {
      if (!times_[u].empty()) ops += ops_[u];
    }
    const double secs = seconds(q);
    return secs > 0 ? ops / secs : 0.0;
  }

  std::size_t samples() const {
    std::size_t n = 0;
    for (const auto& t : times_) n += t.size();
    return n;
  }

  std::string describe() const {
    return std::to_string(samples()) + " timed units; ops/s " +
           std::to_string(ops_per_s()) + " at the fast quantile, " +
           std::to_string(ops_per_s(0.5)) + " at the median";
  }

 private:
  std::vector<double> ops_;
  std::vector<std::vector<double>> times_;
};

struct ScenarioWorkload {
  const char* name;
  ScenarioConfig base;
  std::size_t instances;        ///< distinct seeded instances per run
  std::size_t smoke_intensity;  ///< instance size in smoke mode
  std::size_t accounts;         ///< account space of the client script
  unsigned supply_per_mille;    ///< totalSupply barriers in its op mix
  /// Client transfers the script submits per unit of intensity, for
  /// workloads whose committed log also holds protocol entries (the 2PC
  /// stages of erc20_zipfian_shards); 0 when each committed entry is one
  /// client op.
  std::size_t transfers_per_unit = 0;
};

/// The client ops one instance commits: the unit every per-op figure of a
/// scenario workload is counted in.
double client_ops(const ScenarioWorkload& w, const ScenarioConfig& cfg,
                  const ScenarioReport& rep) {
  const std::size_t ops = w.transfers_per_unit
                              ? cfg.intensity * w.transfers_per_unit
                              : rep.committed;
  return static_cast<double>(std::max<std::size_t>(ops, 1));
}

const std::vector<ScenarioWorkload>& scenario_workloads() {
  static const std::vector<ScenarioWorkload> ws = [] {
    std::vector<ScenarioWorkload> v;
    ScenarioConfig shards;
    shards.workload = Workload::kErc20ZipfianShards;
    shards.fault = FaultProfile::kLossyDup;
    shards.num_replicas = 4;
    shards.num_groups = 2;
    shards.replay_threads = 1;
    shards.intensity = 83;  // 3 transfers per node per unit: 996 ops
    v.push_back({"shards_lossy", shards, 8, 4, shards.shard_accounts, 0,
                 3 * shards.num_replicas});

    ScenarioConfig tiers;
    tiers.workload = Workload::kMixedSyncTiers;
    tiers.fault = FaultProfile::kLossyDup;
    tiers.num_replicas = 4;
    tiers.replay_threads = 1;
    tiers.intensity = 107;  // ~9.3 ops per unit: ~1000 ops
    v.push_back({"tiers_lossy", tiers, 8, 4, tiers.num_replicas, 1});

    ScenarioConfig mp;
    mp.workload = Workload::kErc20MultiproposerStorm;
    mp.fault = FaultProfile::kMinorityCrash;
    mp.num_replicas = 4;
    mp.num_proposers = 4;
    mp.replay_threads = 1;
    mp.intensity = 625;  // 16 ops per unit: 10^4 ops
    v.push_back({"mp_crash", mp, 3, 8, 16, 25});
    return v;
  }();
  return ws;
}

Shape scenario_shape(const ScenarioWorkload& w, const ScenarioConfig& cfg,
                     const ScenarioReport& rep) {
  Shape s;
  s.nodes = cfg.num_replicas;
  s.fault = cfg.fault;
  s.seed = cfg.seed;
  const double ops = client_ops(w, cfg, rep);
  if (rep.net.sent > 0) s.msg_bytes = rep.net.bytes_sent / rep.net.sent;
  s.value_bytes = rep.slots > 0 && rep.proposal_bytes > 0
                      ? rep.proposal_bytes / rep.slots
                      : s.msg_bytes;
  s.accounts = w.accounts;
  s.block_ops = rep.slots > 0
                    ? std::max<std::size_t>(rep.committed / rep.slots, 1)
                    : 1;
  s.supply_per_mille = w.supply_per_mille;
  s.replay_threads = cfg.replay_threads;
  s.history = rep.history;
  s.history_ops = ops;
  s.sends_per_op = static_cast<double>(rep.net.sent) / ops;
  s.deliveries_per_op = static_cast<double>(rep.net.delivered) / ops;
  s.slots_per_op = static_cast<double>(rep.slots) / ops;
  s.bcasts_per_op = static_cast<double>(rep.fast_lane_ops) / ops;
  const auto correct = correct_mask(cfg.num_replicas, cfg.fault);
  // Each correct replica replays every committed log entry.
  s.replays_per_op =
      static_cast<double>(std::count(correct.begin(), correct.end(), true)) *
      static_cast<double>(rep.committed) / ops;
  s.submits_per_op = static_cast<double>(rep.submitted) / ops;
  return s;
}

/// Fills `r` from a finished run.  Untraced: the e2e metrics, then
/// failed_op_share and `extra` as printed-only metrics.  Traced: the layer
/// probes on `shape` for the rest of --seconds (counted from `start`),
/// the tracing overhead and the layer digest.
void finish(Result& r, const std::string& name, const Options& o,
            Tracer& tracer, const Shape& shape, Clock::time_point start,
            const FastRate& setup, const FastRate& rate,
            const FastRate& traced_rate, const std::vector<Metric>& extra) {
  const double ops_per_s = rate.ops_per_s();
  const Metric failed{"failed_op_share",
                      r.attempted ? static_cast<double>(r.failed) /
                                        static_cast<double>(r.attempted)
                                  : 0.0,
                      "ratio"};
  r.notes.push_back("setup from " + std::to_string(setup.samples()) +
                    " timings: " + std::to_string(setup.seconds()) +
                    " s at the fast quantile, " +
                    std::to_string(setup.seconds(0.5)) + " s at the median");
  if (!o.trace) {
    r.metrics = {{"ops_per_s", ops_per_s, "1/s"},
                 {"setup_s", setup.seconds(), "s"},
                 {"peak_rss_mb", peak_rss_mb(), "MB"}};
    r.extra = {failed};
    r.extra.insert(r.extra.end(), extra.begin(), extra.end());
  } else {
    const double remaining = o.seconds - seconds_since(start);
    const Layers layers =
        probe_layers(shape, tracer, std::max(remaining, 0.5), o.smoke);
    r.metrics = layers.metrics;
    const double traced = traced_rate.ops_per_s();
    r.metrics.push_back({"trace.overhead_pct",
                         ops_per_s > 0 ? 100.0 * (ops_per_s - traced) / ops_per_s
                                       : 0.0,
                         "%"});
    r.extra = {failed,
               {"ops_per_s_untraced", ops_per_s, "1/s"},
               {"ops_per_s_traced", traced, "1/s"}};
    r.notes.push_back(layer_digest(name, shape, layers, ops_per_s));
  }
  r.correct = r.failed == 0;
}

Result run_scenario_workload(const ScenarioWorkload& w, const Options& o,
                             Tracer& tracer) {
  Result r;
  Tracer off(false);
  const std::size_t m = o.smoke ? 1 : w.instances;
  std::vector<ScenarioConfig> cfgs;
  for (std::size_t i = 0; i < m; ++i) {
    ScenarioConfig c = w.base;
    c.seed = splitmix(o.seed * 1000003 + i) % 1000000007 + 1;
    if (o.smoke) c.intensity = w.smoke_intensity;
    cfgs.push_back(c);
  }
  std::vector<std::uint64_t> digests(m, 0);
  std::vector<bool> seen(m, false);

  // One scenario instance, audited: the report's own invariants plus
  // determinism against the instance's first run.
  const auto run_one = [&](std::size_t i, std::uint32_t run_id, Tracer& t) {
    ScenarioReport rep;
    {
      SpanGuard g(t, "sched.run_scenario", run_id);
      rep = run_scenario(cfgs[i]);
    }
    SpanGuard g(t, "audit", run_id);
    r.attempted += rep.submitted;
    bool ok = rep.ok();
    if (ok && !seen[i]) {
      seen[i] = true;
      digests[i] = rep.history_digest;
    } else if (ok && digests[i] != rep.history_digest) {
      ok = false;
      rep.violations.push_back("history digest differs from the first run");
    }
    if (!ok) {
      r.failed += rep.submitted;
      if (r.notes.size() < kMaxFailureNotes) {
        r.notes.push_back("AUDIT FAILED instance " + std::to_string(i) + ": " +
                          rep.summary());
      }
    }
    return rep;
  };

  // Setup: the reference round runs each instance once and records the
  // history digest every later run of the instance is audited against.
  // Every untraced measured round repeats exactly this work, so setup_s
  // takes each instance at the fast quantile of all its untraced runs,
  // the reference run included.  A few setup samples taken in the first
  // seconds of the process would follow the host's load at that moment.
  FastRate setup(m);
  std::vector<ScenarioReport> firsts(m);
  const auto cold_start = Clock::now();
  {
    SpanGuard g(tracer, "setup");
    for (std::size_t i = 0; i < m; ++i) {
      const auto t0 = Clock::now();
      firsts[i] = run_one(i, 0, off);
      setup.add(i, 0, seconds_since(t0));
    }
  }
  const double cold_s = seconds_since(cold_start);

  // Measured rounds: each round runs every instance once.  In the traced
  // pass, rounds alternate untraced / traced so the two rates compare
  // like with like.
  FastRate rate(m), traced_rate(m);
  const double budget = o.trace ? kTracedE2eShare * o.seconds : o.seconds;
  // The traced pass needs at least one untraced and one traced round.
  const std::size_t min_rounds = o.trace ? (o.smoke ? 2 : 4) : (o.smoke ? 1 : 3);
  const auto start = Clock::now();
  std::size_t rounds = 0;
  for (; rounds < min_rounds || (!o.smoke && seconds_since(start) < budget);
       ++rounds) {
    const bool traced = o.trace && rounds % 2 == 1;
    Tracer& t = traced ? tracer : off;
    SpanGuard rg(t, "round", static_cast<std::uint32_t>(rounds));
    for (std::size_t i = 0; i < m; ++i) {
      const auto t0 = Clock::now();
      const ScenarioReport rep =
          run_one(i, static_cast<std::uint32_t>(rounds * m + i), t);
      const double secs = seconds_since(t0);
      if (traced) {
        traced_rate.add(i, client_ops(w, cfgs[i], rep), secs);
      } else {
        rate.add(i, client_ops(w, cfgs[i], rep), secs);
        setup.add(i, 0, secs);
      }
    }
  }

  std::uint64_t digest = kFnvBasis;
  for (const std::uint64_t d : digests) digest = fold(digest, d);
  r.notes.push_back("history_digest " + hex(digest) + " over " +
                    std::to_string(m) + " instances (fold of each run's "
                    "ScenarioReport::history_digest)");
  r.notes.push_back(std::to_string(rounds) + " rounds of " +
                    std::to_string(m) + " instances: " + rate.describe());
  r.notes.push_back("cold reference round " + std::to_string(cold_s) + " s");

  // Simulated-time and wire metrics: deterministic per seed, averaged
  // over the run's distinct instances, per client op.
  double p50 = 0, p99 = 0, cpk = 0, slots = 0, ops = 0, entries = 0,
         sent = 0, bytes = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const ScenarioReport& rep = firsts[i];
    p50 += static_cast<double>(rep.latency.p50);
    p99 += static_cast<double>(rep.latency.p99);
    cpk += rep.commits_per_ktime;
    slots += static_cast<double>(rep.slots);
    ops += client_ops(w, cfgs[i], rep);
    entries += static_cast<double>(rep.committed);
    sent += static_cast<double>(rep.net.sent);
    bytes += static_cast<double>(rep.net.bytes_sent);
  }
  const double n = static_cast<double>(m);
  finish(r, w.name, o, tracer, scenario_shape(w, cfgs[0], firsts[0]), start,
         setup, rate, traced_rate,
         {{"commit_p50_ticks", p50 / n, "ticks"},
          {"commit_p99_ticks", p99 / n, "ticks"},
          {"commits_per_ktick", cpk / n, "1/ktick"},
          {"slots_per_kop", 1000.0 * slots / ops, "1/kop"},
          {"msgs_per_op", sent / ops, "msgs/op"},
          {"bytes_per_op", bytes / ops, "B/op"},
          {"log_entries_per_op", entries / ops, "entries/op"}});
  return r;
}

// --- replay_parallel ------------------------------------------------------

using Engine = ReplayEngine<Erc20LedgerSpec>;

/// The replay workload's stream: 256 accounts, a 4-account hot set taking
/// ~20 % of transfers, ~1 % totalSupply barriers, blocks of 192..320 ops.
Shape replay_shape(std::uint64_t seed, bool smoke) {
  Shape s;
  s.seed = seed;
  s.accounts = 256;
  s.hot_accounts = 4;
  s.hot_pct = 20;
  s.supply_per_mille = 10;
  s.block_ops = smoke ? 32 : 256;
  s.replay_threads = nproc();
  s.replays_per_op = 1;
  return s;
}

constexpr std::size_t kReplayBlocks = 128;
constexpr std::size_t kReplayJitter = 64;

struct ReplaySetup {
  std::vector<Erc20Block> fwd, inv;
  std::vector<std::string> fwd_lines, inv_lines;  ///< 1-thread reference
  Erc20State after_fwd, after_inv;                ///< 1-thread reference
  std::unique_ptr<Engine> engine;                 ///< nproc threads
  std::size_t fwd_ops = 0;
};

ReplaySetup replay_setup(const Shape& shape, bool smoke) {
  ReplaySetup s;
  s.fwd = make_blocks(shape, smoke ? 2 : kReplayBlocks, shape.seed,
                      smoke ? 8 : kReplayJitter);
  s.inv = invert(s.fwd);
  for (const auto& b : s.fwd) s.fwd_ops += b.size();
  const Erc20State initial = stream_initial_state(shape.accounts);
  Engine ref(initial, {.threads = 1});
  for (const auto& b : s.fwd) s.fwd_lines.push_back(ref.apply(b));
  s.after_fwd = ref.ledger().snapshot();
  for (const auto& b : s.inv) s.inv_lines.push_back(ref.apply(b));
  s.after_inv = ref.ledger().snapshot();
  if (!(s.after_inv == initial)) {
    throw std::logic_error("replay stream and its inverse do not cancel");
  }
  s.engine = std::make_unique<Engine>(
      initial, ExecOptions{.threads = shape.replay_threads});
  return s;
}

Result run_replay_workload(const Options& o, Tracer& tracer) {
  Result r;
  Tracer off(false);
  Shape shape = replay_shape(o.seed, o.smoke);

  FastRate setup(1);
  ReplaySetup s;
  const auto setup_start = Clock::now();
  for (int k = 0;
       o.smoke ? k < 1
               : k < kMinSetupRepeats ||
                     seconds_since(setup_start) < kSetupShare * o.seconds;
       ++k) {
    s = ReplaySetup{};  // join the previous repeat's pool outside the timing
    const auto t0 = Clock::now();
    SpanGuard g(tracer, "setup", static_cast<std::uint32_t>(k));
    s = replay_setup(shape, o.smoke);
    setup.add(0, 0, seconds_since(t0));
  }

  // Measured passes alternate the stream and its inverse, so the ledger
  // cycles through two states the reference already knows.  Each pass
  // is checked line by line and by final ledger state.
  const std::size_t nb = s.fwd.size();
  FastRate rate(2), traced_rate(2);
  std::vector<double> block_us;
  const double budget = o.trace ? kTracedE2eShare * o.seconds : o.seconds;
  // Passes come in stream/inverse pairs; the traced pass alternates
  // untraced and traced pairs.
  const std::size_t min_passes = o.trace || !o.smoke ? 4 : 2;
  const auto start = Clock::now();
  std::size_t passes = 0;
  for (std::size_t pass = 0;
       pass < min_passes || (!o.smoke && seconds_since(start) < budget);
       ++pass, ++passes) {
    const bool traced = o.trace && (pass / 2) % 2 == 1;
    Tracer& t = traced ? tracer : off;
    const bool fwd = pass % 2 == 0;
    const auto& blocks = fwd ? s.fwd : s.inv;
    const auto& want = fwd ? s.fwd_lines : s.inv_lines;
    SpanGuard pg(t, "pass", static_cast<std::uint32_t>(pass));
    bool ok = true;
    double pass_s = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const auto t0 = Clock::now();
      std::string line;
      {
        SpanGuard g(t, "exec.ReplayEngine::apply", static_cast<std::uint32_t>(pass));
        line = s.engine->apply(blocks[b]);
      }
      const double secs = seconds_since(t0);
      pass_s += secs;
      if (!traced) block_us.push_back(1e6 * secs);
      ok = ok && line == want[b];
    }
    {
      SpanGuard g(t, "audit", static_cast<std::uint32_t>(pass));
      ok = ok && s.engine->ledger().snapshot() == (fwd ? s.after_fwd
                                                       : s.after_inv);
    }
    (traced ? traced_rate : rate)
        .add(fwd ? 0 : 1, static_cast<double>(s.fwd_ops), pass_s);
    r.attempted += s.fwd_ops;
    if (!ok) {
      r.failed += s.fwd_ops;
      if (r.notes.size() < kMaxFailureNotes) {
        r.notes.push_back("AUDIT FAILED pass " + std::to_string(pass) +
                          ": history lines or ledger state differ from the "
                          "1-thread reference");
      }
    }
  }

  std::uint64_t digest = kFnvBasis;
  for (const auto* lines : {&s.fwd_lines, &s.inv_lines}) {
    for (const std::string& l : *lines) digest = fold(digest, digest_history(l));
  }
  r.notes.push_back("history_digest " + hex(digest) + " over " +
                    std::to_string(s.fwd.size() + s.inv.size()) +
                    " blocks (fold of digest_history of each history line)");
  r.notes.push_back(std::to_string(passes) + " passes of " +
                    std::to_string(nb) + " blocks: " + rate.describe());

  // The layers see the replay stream itself; the network layers, which
  // this workload never calls, are fed a 4-node fault-free cluster
  // carrying these blocks as consensus values.
  std::uint64_t value_bytes = 0;
  for (const auto& b : s.fwd) value_bytes += b.wire_size();
  shape.value_bytes = value_bytes / s.fwd.size();
  shape.msg_bytes = shape.value_bytes + kWireHeaderBytes;
  for (const std::string& l : s.fwd_lines) shape.history += l + "\n";
  shape.history_ops = static_cast<double>(s.fwd_ops);
  finish(r, "replay_parallel", o, tracer, shape, start, setup, rate,
         traced_rate,
         {{"block_us_p50", quantile(block_us, 0.50), "us"},
          {"block_us_p99", quantile(block_us, 0.99), "us"}});
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const auto& w : scenario_workloads()) v.push_back(w.name);
    v.push_back("replay_parallel");
    return v;
  }();
  return names;
}

Result run_workload(const std::string& name, const Options& opts,
                    Tracer& tracer) {
  const std::size_t cpus = nproc();
  for (const auto& w : scenario_workloads()) {
    if (name != w.name) continue;
    // The probes' pool runs nproc workers; the cluster itself replays
    // inline on the calling thread.
    if (w.base.replay_threads > cpus) {
      throw std::runtime_error(name + " would use more threads than nproc");
    }
    Result r = run_scenario_workload(w, opts, tracer);
    r.notes.insert(
        r.notes.begin(),
        "workload " + name + ": " + to_string(w.base.workload) + " / " +
            to_string(w.base.fault) + ", n " +
            std::to_string(w.base.num_replicas) + ", instances " +
            std::to_string(opts.smoke ? 1 : w.instances) + ", intensity " +
            std::to_string(opts.smoke ? w.smoke_intensity : w.base.intensity) +
            ", threads " + std::to_string(w.base.replay_threads) +
            (opts.trace ? " (exec probes: pool of " + std::to_string(cpus) +
                              ")"
                        : ""));
    return r;
  }
  if (name == "replay_parallel") {
    Result r = run_replay_workload(opts, tracer);
    r.notes.insert(r.notes.begin(),
                   "workload replay_parallel: 1 ReplayEngine, " +
                       std::to_string(opts.smoke ? 2 : kReplayBlocks) +
                       " blocks per pass, threads " + std::to_string(cpus));
    return r;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
