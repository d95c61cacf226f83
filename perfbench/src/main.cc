// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-dir <dir>] [--source <id>]
//
// Prints provenance, notes (audit failures, history digest, layer
// digest) and every metric by name with its unit, then one JSON result
// line.  One workload per process, so that peak_rss_mb is its own;
// perfbench/run.py runs them all in turn.  With --trace 0 the JSON
// carries the end-to-end metrics, with --trace 1 the per-layer metrics
// of a separate traced pass.  Exit status: 0 when every run passed its
// audit, 1 when a run failed it (the result is still printed), 2 on a
// usage or setup error (no result).  perfbench/README.md documents the
// workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"

namespace perfbench {

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"run\":%u}}",
                  i ? "," : "", s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent, s.run);
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke] "
               "[--trace-dir <dir>] [--source <id>]\n",
               why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& trace_dir) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (a == "--trace-dir") {
        trace_dir = v;
      } else if (a == "--source") {
        o.source = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0) || o.seconds > 60) usage("--seconds must be in (0, 60]");
  return o;
}

void print_result(const std::string& workload, const Result& r) {
  for (const std::string& n : r.notes) {
    std::printf("perfbench note %s\n", n.c_str());
  }
  for (const auto* list : {&r.metrics, &r.extra}) {
    for (const Metric& m : *list) {
      std::printf("perfbench metric %s %s %.12g %s\n", workload.c_str(),
                  m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", r.metrics[i].value);
    json += (i ? ", \"" : "\"") + r.metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + r.metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string trace_dir = ".";
  const Options opts = parse(argc, argv, trace_dir);

  const std::string& w = opts.workload;
  if (std::find(workload_names().begin(), workload_names().end(), w) ==
      workload_names().end()) {
    usage("unknown workload '" + w + "'");
  }

#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "GCC " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("perfbench provenance nproc=%zu compiler=\"%s\" build=%s "
              "source=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              nproc(), compiler, PERFBENCH_BUILD_TYPE,
              opts.source.empty() ? "unknown" : opts.source.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, opts.smoke ? 1 : 0);

  Tracer tracer(opts.trace);
  Result r;
  try {
    r = run_workload(w, opts, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", w.c_str(), e.what());
    return 2;
  }
  if (opts.trace) {
    const std::string path = trace_dir + "/trace_" + w + ".json";
    if (!tracer.write_chrome(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 2;
    }
    r.notes.push_back("trace " + std::to_string(tracer.spans().size()) +
                      " spans written to " + path);
  }
  print_result(w, r);
  return r.correct ? 0 : 1;
}
