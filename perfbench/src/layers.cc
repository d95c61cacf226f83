// Per-layer probes, timed from outside.  Each probe calls one module's
// public functions with the input shape of the workload under test (its
// node count, fault profile, message and value sizes, block stream and
// rendered history) and records a span around every timed batch.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "atbcast/total_order.h"
#include "bcast/erb.h"
#include "bench.h"
#include "common/rng.h"
#include "dyntoken/paxos.h"
#include "exec/conflict_planner.h"
#include "exec/exec_specs.h"
#include "exec/replay_engine.h"
#include "exec/thread_pool.h"
#include "exec/txpool.h"
#include "net/simnet.h"

namespace perfbench {

using namespace tokensync;

namespace {

/// An opaque payload of a given wire size; copying it costs what copying
/// a real message of that size costs.
struct Blob {
  std::vector<std::uint8_t> bytes;
  std::uint64_t wire_size() const { return bytes.size(); }
  friend bool operator==(const Blob&, const Blob&) = default;
};

Blob blob(std::size_t n) { return Blob{std::vector<std::uint8_t>(n, 0xab)}; }

/// Keeps results of timed calls observable.
std::uint64_t g_sink = 0;

std::vector<ProcessId> survivors(const Shape& s) {
  const auto correct = correct_mask(s.nodes, s.fault);
  std::vector<ProcessId> v;
  for (ProcessId p = 0; p < s.nodes; ++p) {
    if (correct[p]) v.push_back(p);
  }
  return v;
}

/// The probe's stand-in for the workload's fault profile: its link
/// loss/duplication config, and for a crash profile the crashed minority
/// down from the start (the state most of a crash run spends its time in).
template <typename Net>
std::unique_ptr<Net> make_net(const Shape& s, std::uint64_t salt) {
  auto net = std::make_unique<Net>(s.nodes,
                                   make_net_config(s.fault, s.seed + salt));
  const auto correct = correct_mask(s.nodes, s.fault);
  for (ProcessId p = 0; p < s.nodes; ++p) {
    if (!correct[p]) net->crash(p);
  }
  return net;
}

/// Times named sections of a probe batch; each timed call is one span.
class Timer {
 public:
  Timer(Tracer& tr, std::uint32_t run) : tr_(tr), run_(run) {}
  template <typename F>
  void time(const char* name, F&& f) {
    SpanGuard g(tr_, name, run_);
    const auto t0 = Clock::now();
    f();
    ns_[name] += 1e9 * seconds_since(t0);
  }
  double ns(const char* name) const {
    const auto it = ns_.find(name);
    return it == ns_.end() ? 0.0 : it->second;
  }

 private:
  Tracer& tr_;
  std::uint32_t run_;
  std::map<std::string, double> ns_;
};

/// Repeats `batch` for `slice_s` seconds (at least 3 batches, 1 in smoke
/// mode); `batch(timer)` returns its call count per section name.  The
/// result is the median over batches of ns per call, per section.
class Prober {
 public:
  Prober(Tracer& tr, double slice_s, bool smoke)
      : tr_(tr), slice_s_(slice_s), smoke_(smoke) {}

  template <typename F>
  std::map<std::string, double> run(const char* probe, F batch) {
    SpanGuard g(tr_, probe);
    std::map<std::string, std::vector<double>> per_call;
    const auto start = Clock::now();
    for (std::uint32_t k = 0;
         k < (smoke_ ? 1u : 3u) ||
         (!smoke_ && seconds_since(start) < slice_s_);
         ++k) {
      Timer t(tr_, k);
      const std::map<std::string, double> calls = batch(t, k);
      for (const auto& [name, n] : calls) {
        per_call[name].push_back(t.ns(name.c_str()) / std::max(n, 1.0));
      }
    }
    std::map<std::string, double> out;
    for (auto& [name, v] : per_call) out[name] = median(std::move(v));
    return out;
  }

 private:
  Tracer& tr_;
  double slice_s_;
  bool smoke_;
};

}  // namespace

Layers probe_layers(const Shape& shape, Tracer& tracer, double budget_s,
                    bool smoke) {
  constexpr int kProbes = 11;
  Prober prober(tracer, budget_s / kProbes, smoke);
  Layers layers;
  std::vector<Metric>& out = layers.metrics;
  const auto live = survivors(shape);
  const std::size_t slots = smoke ? 4 : 32;

  // --- net: SimNet::send (including the payload copy) and ::step ---------
  {
    const std::size_t sends = smoke ? 64 : 256;
    const Blob msg = blob(shape.msg_bytes);
    NetStats total;
    const auto ns = prober.run("probe.net", [&](Timer& t, std::uint32_t k) {
      auto net = make_net<SimNet<Blob>>(shape, k);
      for (ProcessId p = 0; p < shape.nodes; ++p) {
        net->set_handler(p, [](ProcessId, const Blob& b) {
          g_sink += b.bytes.size();
        });
      }
      Rng rng(shape.seed + k);
      std::vector<std::pair<ProcessId, ProcessId>> links(sends);
      for (auto& [from, to] : links) {
        from = live[rng.below(live.size())];
        to = static_cast<ProcessId>(rng.below(shape.nodes));
      }
      std::size_t steps = 0;
      t.time("net.send", [&] {
        for (const auto& [from, to] : links) net->send(from, to, msg);
      });
      t.time("net.step", [&] {
        while (net->step()) ++steps;
      });
      total.sent += net->stats().sent;
      total.dropped += net->stats().dropped;
      total.duplicated += net->stats().duplicated;
      return std::map<std::string, double>{
          {"net.send", static_cast<double>(sends)},
          {"net.step", static_cast<double>(steps)}};
    });
    const double sent = static_cast<double>(std::max<std::uint64_t>(total.sent, 1));
    out.push_back({"net.send_ns", ns.at("net.send"), "ns"});
    out.push_back({"net.step_ns", ns.at("net.step"), "ns"});
    out.push_back({"net.drop_share", static_cast<double>(total.dropped) / sent,
                   "ratio"});
    out.push_back({"net.dup_share",
                   static_cast<double>(total.duplicated) / sent, "ratio"});
  }

  // --- dyntoken: one single-decree Paxos slot among all nodes ------------
  {
    const Blob value = blob(shape.value_bytes);
    double msgs = 0, decided = 0, proposed = 0;
    const auto ns = prober.run("probe.paxos", [&](Timer& t, std::uint32_t k) {
      using Engine = PaxosEngine<Blob>;
      auto net = make_net<Engine::Net>(shape, 100 + k);
      std::vector<ProcessId> group(shape.nodes);
      for (ProcessId p = 0; p < shape.nodes; ++p) group[p] = p;
      std::vector<std::unique_ptr<Engine>> engines;
      for (ProcessId p = 0; p < shape.nodes; ++p) {
        engines.push_back(std::make_unique<Engine>(
            *net, p, [&group](InstanceId) { return std::optional(group); },
            [](InstanceId, const Blob&) { ++g_sink; }));
      }
      t.time("dyntoken.paxos_slot", [&] {
        for (InstanceId s = 0; s < slots; ++s) {
          const ProcessId proposer = live[s % live.size()];
          engines[proposer]->propose(s, value);
          net->run();
          decided += engines[proposer]->has_decided(s);
        }
      });
      msgs += static_cast<double>(net->stats().sent);
      proposed += static_cast<double>(slots);
      return std::map<std::string, double>{
          {"dyntoken.paxos_slot", static_cast<double>(slots)}};
    });
    if (decided != proposed) {
      throw std::runtime_error("paxos probe: a slot did not decide");
    }
    out.push_back({"dyntoken.paxos_slot_us",
                   ns.at("dyntoken.paxos_slot") / 1e3, "us"});
    out.push_back({"dyntoken.paxos_msgs_per_slot", msgs / decided,
                   "msgs/slot"});
  }

  // --- atbcast: one total-order broadcast slot (TOB over Paxos) ----------
  {
    const Blob value = blob(shape.value_bytes);
    const auto ns = prober.run("probe.tob", [&](Timer& t, std::uint32_t k) {
      using Tob = TotalOrderBcast<Blob>;
      auto net = make_net<Tob::Net>(shape, 200 + k);
      std::vector<std::size_t> delivered(shape.nodes, 0);
      std::vector<std::unique_ptr<Tob>> nodes;
      for (ProcessId p = 0; p < shape.nodes; ++p) {
        nodes.push_back(std::make_unique<Tob>(
            *net, p,
            [&delivered, p](std::uint64_t, ProcessId, std::uint64_t,
                            const Blob&) { ++delivered[p]; }));
      }
      t.time("atbcast.tob_slot", [&] {
        for (std::size_t s = 0; s < slots; ++s) {
          nodes[live[s % live.size()]]->broadcast(value);
          net->run();
        }
      });
      drain_to_convergence(*net, [&] {
        for (const ProcessId p : live) nodes[p]->sync();
      });
      for (const ProcessId p : live) {
        if (delivered[p] != slots) {
          throw std::runtime_error("tob probe: a replica missed a slot");
        }
      }
      return std::map<std::string, double>{
          {"atbcast.tob_slot", static_cast<double>(slots)}};
    });
    out.push_back({"atbcast.tob_slot_us", ns.at("atbcast.tob_slot") / 1e3,
                   "us"});
  }

  // --- bcast: one ERB broadcast delivered everywhere ---------------------
  {
    const Blob payload =
        blob(shape.msg_bytes > kWireHeaderBytes + 8
                 ? shape.msg_bytes - kWireHeaderBytes
                 : 8);
    double msgs = 0, bcasts = 0;
    const auto ns = prober.run("probe.erb", [&](Timer& t, std::uint32_t k) {
      using Node = ErbNode<Blob>;
      auto net = make_net<Node::Net>(shape, 300 + k);
      std::vector<std::size_t> delivered(shape.nodes, 0);
      std::vector<std::unique_ptr<Node>> nodes;
      for (ProcessId p = 0; p < shape.nodes; ++p) {
        nodes.push_back(std::make_unique<Node>(
            *net, p, [&delivered, p](ProcessId, std::uint64_t, const Blob&) {
              ++delivered[p];
            }));
      }
      t.time("bcast.erb_deliver", [&] {
        for (std::size_t s = 0; s < slots; ++s) {
          nodes[live[s % live.size()]]->broadcast(payload);
          net->run();
        }
      });
      for (const ProcessId p : live) {
        if (delivered[p] != slots) {
          throw std::runtime_error("erb probe: a replica missed a broadcast");
        }
      }
      msgs += static_cast<double>(net->stats().sent);
      bcasts += static_cast<double>(slots);
      return std::map<std::string, double>{
          {"bcast.erb_deliver", static_cast<double>(slots)}};
    });
    out.push_back({"bcast.erb_deliver_us", ns.at("bcast.erb_deliver") / 1e3,
                   "us"});
    out.push_back({"bcast.erb_msgs_per_bcast", msgs / bcasts, "msgs/bcast"});
  }

  // --- exec / atomic: the workload's block stream -------------------------
  const std::size_t stream_ops = smoke ? 64 : 2048;
  const auto blocks = make_blocks(
      shape, std::max<std::size_t>(stream_ops / shape.block_ops, 1),
      shape.seed, 0);
  double ops = 0;
  for (const auto& b : blocks) ops += static_cast<double>(b.size());
  const Erc20State initial = stream_initial_state(shape.accounts);
  using Engine = ReplayEngine<Erc20LedgerSpec>;
  const std::size_t cpus = nproc();

  // Wave shape of the nproc-thread replays (ops, waves, escalations).
  double tn_ops = 0, waves = 0, escalated = 0;
  const auto replay = [&](std::size_t threads) {
    return [&, threads](Timer& t, std::uint32_t) {
      Engine e(initial, {.threads = threads});
      t.time("exec.replay", [&] {
        for (const auto& b : blocks) g_sink += e.apply(b).size();
      });
      if (threads > 1) {
        tn_ops += static_cast<double>(e.ops_applied());
        waves += static_cast<double>(e.waves_total());
        escalated += static_cast<double>(e.escalated_total());
      }
      return std::map<std::string, double>{{"exec.replay", ops}};
    };
  };
  const double t1 = prober.run("probe.replay_t1", replay(1)).at("exec.replay");
  const double tn =
      prober.run("probe.replay_tN", replay(cpus)).at("exec.replay");
  out.push_back({"exec.replay_ns_per_op_t1", t1, "ns"});
  out.push_back({"exec.replay_ns_per_op_tN", tn, "ns"});
  out.push_back({"exec.ops_per_wave", tn_ops / std::max(waves, 1.0), "ops"});
  out.push_back({"exec.escalated_share", escalated / tn_ops, "ratio"});

  {
    ThreadPool pool(cpus);
    const std::size_t runs = smoke ? 16 : 256;
    const std::function<void(std::size_t)> noop = [](std::size_t) {};
    const auto ns = prober.run("probe.pool", [&](Timer& t, std::uint32_t) {
      t.time("exec.pool_run", [&] {
        for (std::size_t i = 0; i < runs; ++i) pool.run(noop);
      });
      return std::map<std::string, double>{
          {"exec.pool_run", static_cast<double>(runs)}};
    });
    out.push_back({"exec.pool_run_ns", ns.at("exec.pool_run"), "ns"});
  }

  {
    const ConcurrentLedger<Erc20LedgerSpec> ledger(initial);
    const auto ns = prober.run("probe.plan", [&](Timer& t, std::uint32_t) {
      t.time("exec.plan", [&] {
        for (const auto& b : blocks) {
          g_sink += ConflictPlanner<Erc20LedgerSpec>::plan(ledger, b.ops)
                        .num_waves;
        }
      });
      return std::map<std::string, double>{{"exec.plan", ops}};
    });
    out.push_back({"exec.plan_ns_per_op", ns.at("exec.plan"), "ns"});
    double pool_runs = 0;
    for (const auto& b : blocks) {
      for (const auto& wave :
           ConflictPlanner<Erc20LedgerSpec>::plan(ledger, b.ops).grouped()) {
        pool_runs += wave.size() > 1;
      }
    }
    layers.pool_runs_per_op = pool_runs / ops;
  }

  {
    const auto ns = prober.run("probe.apply", [&](Timer& t, std::uint32_t) {
      ConcurrentLedger<Erc20LedgerSpec> ledger(initial);
      t.time("atomic.apply", [&] {
        for (const auto& b : blocks) {
          for (const auto& op : b.ops) {
            g_sink += ledger.apply(op.caller, op.op).ok;
          }
        }
      });
      return std::map<std::string, double>{{"atomic.apply", ops}};
    });
    out.push_back({"atomic.apply_ns", ns.at("atomic.apply"), "ns"});
  }

  {
    const auto ns = prober.run("probe.txpool", [&](Timer& t, std::uint32_t) {
      TxPool<Erc20LedgerSpec> pool;
      t.time("exec.txpool_submit", [&] {
        for (const auto& b : blocks) {
          for (const auto& op : b.ops) g_sink += pool.submit(op.caller, op.op);
        }
      });
      return std::map<std::string, double>{{"exec.txpool_submit", ops}};
    });
    out.push_back({"exec.txpool_submit_ns", ns.at("exec.txpool_submit"), "ns"});
  }

  // --- sched: digest_history over the workload's rendered history --------
  {
    const double kib = static_cast<double>(shape.history.size()) / 1024.0;
    const auto ns = prober.run("probe.digest", [&](Timer& t, std::uint32_t) {
      t.time("sched.digest", [&] { g_sink += digest_history(shape.history); });
      return std::map<std::string, double>{{"sched.digest", 1.0}};
    });
    out.push_back({"sched.digest_ns_per_kb",
                   ns.at("sched.digest") / std::max(kib, 1e-9), "ns/KiB"});
    out.push_back({"sched.history_bytes_per_op",
                   static_cast<double>(shape.history.size()) / shape.history_ops,
                   "B/op"});
  }
  return layers;
}

std::string layer_digest(const std::string& workload, const Shape& shape,
                         const Layers& layers, double ops_per_s) {
  std::map<std::string, double> m;
  for (const Metric& x : layers.metrics) m[x.name] = x.value;
  const double net_msg = m["net.send_ns"] + m["net.step_ns"];
  const double plan = m["exec.plan_ns_per_op"];
  const double apply = m["atomic.apply_ns"];
  const double paxos_self =
      1e3 * m["dyntoken.paxos_slot_us"] - m["dyntoken.paxos_msgs_per_slot"] * net_msg;
  const double tob_self =
      1e3 * (m["atbcast.tob_slot_us"] - m["dyntoken.paxos_slot_us"]);
  const double erb_self =
      1e3 * m["bcast.erb_deliver_us"] - m["bcast.erb_msgs_per_bcast"] * net_msg;
  const bool parallel = shape.replay_threads > 1;

  struct Term {
    const char* name;
    double ns_per_call;
    double calls_per_op;
  };
  std::vector<Term> terms = {
      {"net.send", m["net.send_ns"], shape.sends_per_op},
      {"net.step", m["net.step_ns"], shape.deliveries_per_op},
      {"dyntoken.paxos(self)", paxos_self, shape.slots_per_op},
      {"atbcast.tob(self)", tob_self, shape.slots_per_op},
      {"bcast.erb(self)", erb_self, shape.bcasts_per_op},
      {"exec.plan", plan, shape.replays_per_op},
      {"atomic.apply", apply, shape.replays_per_op},
  };
  if (parallel) {
    terms.push_back({"exec.pool_run", m["exec.pool_run_ns"],
                     shape.replays_per_op * layers.pool_runs_per_op});
  } else {
    terms.push_back({"exec.replay(self)",
                     m["exec.replay_ns_per_op_t1"] - plan - apply,
                     shape.replays_per_op});
  }
  terms.push_back({"exec.txpool", m["exec.txpool_submit_ns"], shape.submits_per_op});
  terms.push_back({"sched.digest", m["sched.digest_ns_per_kb"],
                   m["sched.history_bytes_per_op"] / 1024.0});

  const double e2e = ops_per_s > 0 ? 1e9 / ops_per_s : 0;
  std::string line = "layers " + workload + ": e2e " +
                     std::to_string(static_cast<long long>(e2e)) + " ns/op =";
  double explained = 0;
  char buf[160];
  for (const Term& t : terms) {
    if (t.calls_per_op == 0) continue;
    const double ns = t.ns_per_call * t.calls_per_op;
    explained += ns;
    std::snprintf(buf, sizeof(buf), " %s %.0fns x %.3g = %.0f +", t.name,
                  t.ns_per_call, t.calls_per_op, ns);
    line += buf;
  }
  std::snprintf(buf, sizeof(buf), " remainder %.0f (explained %.0f%%)",
                e2e - explained, e2e > 0 ? 100.0 * explained / e2e : 0.0);
  return line + buf;
}

}  // namespace perfbench
